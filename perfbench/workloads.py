"""The benchmark's workloads: inputs made from a seed, one operation, its check.

Every workload is a closed loop with one client.  ``rounds()`` yields lists of
items of a fixed composition; a run executes whole rounds, so each run sees
the same mix of inputs whatever its length and however fast epgc is.  ``run(item)`` is the timed
operation and returns epgc's output; ``check(item, output, error)`` returns
None when the output is right and otherwise a one-line reason.

epgc receives only the generated inputs: edge lists and Cayley-table text.
The in-process workloads call epgc through the package namespace at call
time, so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
TRACED_CLI = HERE / "traced_cli.py"
# The ingest invariants of every source group, as the seed commit computed them.
INGEST_EXPECTED = HERE / "ingest_expected.json"

VERIFY_ARGV = ["verify", "--all", "--format", "json"]
OK_STATUSES = ("PASS", "PARTIAL")
CHILD_TIMEOUT_S = 150


@dataclass
class Item:
    """One operation's input.  ``expected`` is what the check compares the
    output with; for a corrupted table it is the table itself.  ``source``
    names the group an ingest table was made from."""

    kind: str
    payload: object = None
    expected: object = None
    source: str = ""


# Runs ``python -m epgc`` through runpy, as -m does, and reports the peak
# resident set of this process on stderr at exit.
PEAK_PRELUDE = """\
import atexit, runpy, sys
def report():
    with open('/proc/self/status') as fh:
        kb = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))
    sys.stderr.write(f'peak_kb {kb}\\n')
atexit.register(report)
runpy.run_module('epgc', run_name='__main__', alter_sys=True)
"""


def peak_rss_kb() -> int:
    """High-water resident set of this process (Linux).

    Not ru_maxrss: a child started by vfork or posix_spawn inherits the
    parent's resident set in that figure.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("EPGC_CERT_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Harness:
    """A fresh ``python -m epgc verify --all --format json`` per operation.

    A new process per operation keeps epgc's in-process caches from carrying
    over, as for a user running the command.  The command runs epgc's
    ``__main__`` through PEAK_PRELUDE, which adds only the peak-memory report.
    The inputs do not depend on the seed.  ``peak_kb`` is the largest peak
    resident set of any child.
    """

    name = "harness"
    setup_code = "epgc.catalog(32)"
    in_process = False

    def __init__(self, seed: int) -> None:
        import epgc.verify

        self.claims = list(epgc.verify.ALL_CLAIMS)
        self.env = child_env()
        self.peak_kb = 0

    def rounds(self):
        while True:
            yield [Item("verify")]

    def command(self, traced: bool | None = None) -> list[str]:
        if traced is None:
            return [sys.executable, "-c", PEAK_PRELUDE, *VERIFY_ARGV]
        mode = "--traced" if traced else "--plain"
        return [sys.executable, str(TRACED_CLI), mode, *VERIFY_ARGV]

    def run(self, item: Item, traced: bool | None = None):
        proc = subprocess.run(
            self.command(traced),
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if traced is None:
            for line in proc.stderr.splitlines():
                if line.startswith("peak_kb "):
                    self.peak_kb = max(self.peak_kb, int(line.split()[1]))
            return proc.returncode, proc.stdout, proc.stderr
        if proc.returncode != 0:
            return proc.returncode, "", proc.stderr
        payload = json.loads(proc.stdout)
        return payload["code"], payload["stdout"], payload

    def check(self, item: Item, output, error) -> str | None:
        if error is not None:
            return f"verify: {type(error).__name__}: {error}"
        code, stdout, _ = output
        if code != 0:
            return f"verify: exit code {code}"
        try:
            reports = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"verify: output is not JSON ({exc})"
        ids = [r.get("claim_id") for r in reports]
        if ids != self.claims:
            return f"verify: expected the reports {self.claims}, got {ids}"
        bad = [(r["claim_id"], r.get("status")) for r in reports if r.get("status") not in OK_STATUSES]
        if bad:
            return f"verify: reports not PASS or PARTIAL: {bad}"
        return None


def _labelled(n: int, edges, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def _two_blocks(block_a, block_b):
    return [e for block in (block_a, block_b) for e in itertools.combinations(block, 2)]


def _complete_multipartite(sizes):
    parts, start = [], 0
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    return [(u, v) for a, b in itertools.combinations(parts, 2) for u in a for v in b]


# name: (vertices, edges, target, orientable, labelled by the seed)
REFUTE_INSTANCES = {
    # Two K5 blocks at cut vertex 0, as in the topology tests: the graph the
    # block-decomposition gate of the roadmap quotes.  Its labelling stays
    # fixed: one call takes 9-20 s depending on labelling and a run holds
    # only one or two calls, so a seeded labelling would put that spread
    # straight into ops_per_s instead of averaging it out.
    "k5.k5": (9, _two_blocks(range(5), [0, 5, 6, 7, 8]), 1, True, False),
    "k33.k33": (
        11,
        [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
        + [(a, b) for a in (0, 6, 7) for b in (8, 9, 10)],
        1,
        True,
        True,
    ),
    "k1222": (7, _complete_multipartite((1, 2, 2, 2)), 1, False, True),
}

# One round, instances interleaved in this order.  K3,3.K3,3 outnumbers
# K1,2,2,2 so that the median operation is a K3,3.K3,3 call, not the
# boundary between the two fast instances.
REFUTE_ROUND = (("k5.k5", 1), ("k33.k33", 50), ("k1222", 20))


class Refute:
    """One exhaustive ``search_embedding`` call that must return None."""

    name = "refute"
    setup_code = ""
    in_process = True

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        """Nothing to set up beyond the import."""

    def _item(self, name: str) -> Item:
        n, edges, target, orientable, seeded = REFUTE_INSTANCES[name]
        if seeded:
            edges = _labelled(n, edges, self.rng)
        return Item(name, (n, edges, target, orientable))

    def rounds(self):
        longest = max(count for _, count in REFUTE_ROUND)
        while True:
            yield [
                self._item(name)
                for i in range(longest)
                for name, count in REFUTE_ROUND
                if i < count
            ]

    def run(self, item: Item, traced=None):
        import epgc

        n, edges, target, orientable = item.payload
        graph = epgc.SimpleGraph(n, edges=edges)
        return epgc.search_embedding(graph, target, orientable=orientable)

    def check(self, item: Item, output, error) -> str | None:
        if error is not None:
            return f"{item.kind}: {type(error).__name__}: {error}"
        if output is not None:
            return f"{item.kind}: expected a refutation, got a certificate"
        return None


TRIPLE = re.compile(
    r"associativity fails at triple \((\d+), (\d+), (\d+)\): "
    r"\(\d+\*\d+\)\*\d+ = (\d+) but \d+\*\(\d+\*\d+\) = (\d+)"
)

INGEST_MIN_ORDER = 4
CORRUPT_MIN_ORDER = 6
# Corrupted tables per round, next to one valid table of every source group.
CORRUPT_PER_ROUND = 15


def relabel(table, perm):
    """The table with element x renamed perm[x]."""
    n = len(table)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    return tuple(tuple(perm[table[inv[i]][inv[j]]] for j in range(n)) for i in range(n))


def corrupt(table, rng: random.Random):
    """Swap an intercalate that avoids the identity row and column.

    Rows r, r*u and columns c, u*c with u an involution carry a 2x2 Latin
    subsquare; swapping it keeps a Latin square with the same identity, so
    only the associativity check can reject the result.
    """
    n = len(table)
    e = next(x for x in range(n) if all(table[x][j] == j for j in range(n)))
    involutions = [u for u in range(n) if u != e and table[u][u] == e]
    u = rng.choice(involutions)
    r = rng.choice([x for x in range(n) if x not in (e, u)])
    c = rng.choice([x for x in range(n) if x not in (e, u)])
    r2, c2 = table[r][u], table[u][c]
    rows = [list(row) for row in table]
    rows[r][c], rows[r][c2] = table[r][c2], table[r][c]
    rows[r2][c], rows[r2][c2] = table[r2][c2], table[r2][c]
    return tuple(tuple(row) for row in rows)


def table_text(table, labels) -> str:
    lines = [str(len(table))]
    lines += [" ".join(str(v) for v in row) for row in table]
    lines.append(" ".join(labels))
    return "\n".join(lines) + "\n"


def invariants(bundle) -> dict:
    """The invariants the ``invariants`` command reports, for one bundle."""
    import epgc

    comp, reduced = bundle.complement, bundle.reduced
    girth = epgc.girth(comp)
    out = {
        "family": [bundle.family.count, sorted(bundle.family.sizes, reverse=True)],
        "edges": [bundle.epg.edge_count, comp.edge_count, reduced.edge_count],
        "girth": "inf" if girth == epgc.INFINITY else int(girth),
        "bipartite": epgc.is_bipartite(comp)[0],
        "components": len(epgc.connected_components(comp)),
    }
    if reduced.n:
        out["omega"] = epgc.clique_number(comp)[0]
        hint = epgc.partition_by_maximal_cyclic(bundle)
        out["chi"] = epgc.chromatic_number(comp, hint=hint)[0]
        out["cyclomatic"] = epgc.cyclomatic_number(reduced)
        out["eulerian"] = epgc.is_eulerian(reduced)
    return out


def ingest(text: str) -> dict:
    """The ingest path: validate, family, bundle, invariants, catalog match."""
    import epgc

    group = epgc.parse_cayley_table(text, name="ingested")
    family = epgc.maximal_cyclic_subgroups(group)
    bundle = epgc.build_bundle(group, family)
    out = invariants(bundle)
    out["match"] = None
    if group.order <= 15:
        for candidate in epgc.catalog(15):
            if candidate.order == group.order and epgc.are_isomorphic(group, candidate):
                out["match"] = candidate.name
                break
    return out


def relocated(rows):
    """The table as ``validate_table`` sees it: identity moved to index 0."""
    n = len(rows)
    e = next(x for x in range(n) if all(rows[x][j] == j for j in range(n)))
    order = [e] + [x for x in range(n) if x != e]
    pos = {old: new for new, old in enumerate(order)}
    return [[pos[rows[i][j]] for j in order] for i in order]


def source_invariants(groups) -> dict:
    """The ingest output expected for a relabelling of each group, by name."""
    import epgc

    out = {}
    for g in groups:
        expected = invariants(epgc.build_bundle(g))
        expected["match"] = g.name if g.order <= 15 else None
        out[g.name] = expected
    return out


def ingest_sources():
    import epgc

    return [g for g in epgc.catalog(32) if g.order >= INGEST_MIN_ORDER]


class Ingest:
    """One seeded Cayley table per operation through the ingest path.

    Sources are the catalog(32) groups of order >= 4.  A round holds one
    fresh relabelling of every source and CORRUPT_PER_ROUND corrupted tables
    of order >= 6, shuffled.  maximal_cyclic_subgroups is cached by table
    value, so its cache is emptied between rounds, outside the timed
    operations: within a round no two valid tables are equal (their groups
    differ), so no valid input is a cache hit.  A valid table's output must
    equal both the invariants the seed commit recorded for its source group
    (INGEST_EXPECTED) and those computed now from the un-relabelled group.
    """

    name = "ingest"
    setup_code = "epgc.catalog(15)"
    in_process = True

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        import epgc.groups

        epgc.catalog(15)
        self.family = epgc.groups.maximal_cyclic_subgroups
        self.sources = ingest_sources()
        # even order: the group has an involution, so an intercalate
        self.bases = [g for g in self.sources if g.order >= CORRUPT_MIN_ORDER and g.order % 2 == 0]
        self.computed = source_invariants(self.sources)
        self.recorded = json.loads(INGEST_EXPECTED.read_text(encoding="utf-8"))["groups"]

    def _draw(self, group):
        """A seeded relabelling of the group: (table, labels)."""
        perm = list(range(group.order))
        self.rng.shuffle(perm)
        labels = [""] * group.order
        for old, new in enumerate(perm):
            labels[new] = group.labels[old]
        return relabel(group.table, perm), labels

    def rounds(self):
        while True:
            batch = [
                Item("valid", table_text(*self._draw(g)), self.recorded.get(g.name), g.name)
                for g in self.sources
            ]
            for _ in range(CORRUPT_PER_ROUND):
                group = self.rng.choice(self.bases)
                table, labels = self._draw(group)
                table = corrupt(table, self.rng)
                batch.append(Item("corrupted", table_text(table, labels), table, group.name))
            self.rng.shuffle(batch)
            self.family.cache_clear()
            yield batch

    def run(self, item: Item, traced=None):
        return ingest(item.payload)

    def check(self, item: Item, output, error) -> str | None:
        import epgc

        if item.kind == "valid":
            if error is not None:
                return f"valid table of {item.source}: {type(error).__name__}: {error}"
            if output != item.expected:
                return f"valid table of {item.source}: got {output}, recorded {item.expected}"
            if output != self.computed[item.source]:
                return (f"valid table of {item.source}: got {output},"
                        f" the source group gives {self.computed[item.source]}")
            return None
        if error is None:
            return "corrupted table accepted"
        if not isinstance(error, epgc.GroupError):
            return f"corrupted table: {type(error).__name__}: {error}"
        found = TRIPLE.search(str(error))
        if found is None:
            return f"corrupted table rejected without naming a triple: {error}"
        i, j, k, left, right = map(int, found.groups())
        t = relocated(item.expected)
        if (t[t[i][j]][k], t[i][t[j][k]]) != (left, right) or left == right:
            return f"corrupted table: the named triple is not a violation: {error}"
        return None


WORKLOADS = {w.name: w for w in (Harness, Refute, Ingest)}


def write_ingest_expected(commit: str) -> None:
    """Record the ingest invariants of every source group at ``commit``."""
    import epgc

    groups = source_invariants(ingest_sources())
    payload = {"commit": commit, "epgc": epgc.__version__, "groups": groups}
    INGEST_EXPECTED.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    # python3 perfbench/workloads.py --write-ingest-expected <commit>
    if sys.argv[1:2] != ["--write-ingest-expected"] or len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} --write-ingest-expected <commit>")
    sys.path.insert(0, str(SRC))
    write_ingest_expected(sys.argv[2])
