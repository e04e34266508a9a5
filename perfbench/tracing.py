"""Per-module spans for the traced runs, recorded from outside epgc.

:class:`Tracer` wraps every public function of every epgc module, plus the two
search kernels and the ``GroupTable`` validation hook, and installs each
wrapper in every epgc namespace that holds the function (the modules import
each other's names with ``from .x import y``).  Spans are kept in memory as
``(key, parent index, start, end, outcome)`` and reduced to self times: a
span's duration minus the time its direct child spans cover.

:func:`layer_metrics` maps spans onto the per-layer metrics named in
``BENCHMARK.json``.  A public function that no named metric claims counts
toward ``<module>.other_s``, so the self times of one round add up to its
traced wall time, less the benchmark's own code.  The one inclusive time is
``verify.claim_total_s.<claim>``, a claim's span with everything below it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("cli", "verify", "groups", "epg", "graphs", "subgraphs", "topology")

CLAIM_FUNCTIONS = {
    "verify_table1": "maximal-cyclic-table",
    "verify_no_two_maximal": "no-two-maximal",
    "verify_one_component": "one-component",
    "verify_bipartite_girth_perfect": "bipartite-girth-weakly-perfect",
    "verify_dominatable_complete": "dominatable-complete",
    "verify_eulerian": "eulerian",
    "verify_c_cyclic": "cyclomatic-classification",
    "verify_surface_classification": "surface-classification",
}

# "module.function" -> the self-time metric it feeds.
TIME_METRIC = {
    "verify.reports_to_json": "cli.render_s",
    **{f"verify.{fn}": f"verify.claim_s.{cid}" for fn, cid in CLAIM_FUNCTIONS.items()},
    **{
        f"groups.{fn}": "groups.build_s"
        for fn in (
            "GroupTable.__post_init__", "catalog", "group_from_name", "make_cyclic",
            "make_dihedral", "make_dicyclic", "make_symmetric", "make_alternating",
            "direct_product", "validate_table", "parse_cayley_table",
        )
    },
    "groups.maximal_cyclic_subgroups": "groups.family_s",
    "groups.are_isomorphic": "groups.isomorphism_s",
    "epg.build_bundle": "epg.bundle_s",
    "epg.enhanced_power_graph": "epg.bundle_s",
    "graphs.girth": "graphs.girth_s",
    **{
        f"graphs.{fn}": "graphs.invariants_s"
        for fn in ("is_bipartite", "connected_components", "is_eulerian", "cyclomatic_number")
    },
    "graphs.complement": "graphs.derive_s",
    "graphs.induced_subgraph": "graphs.derive_s",
    "subgraphs.clique_number": "subgraphs.clique_s",
    "subgraphs.chromatic_number": "subgraphs.chromatic_s",
    "subgraphs.contains_subdivision": "subgraphs.subdivision_s",
    "subgraphs.contains_complete": "subgraphs.obstruction_s",
    "subgraphs.contains_complete_bipartite": "subgraphs.obstruction_s",
    "topology.classify_surface": "topology.classify_s",
    "topology._search_oriented": "topology.search_orientable_s",
    "topology._search_signed": "topology.search_signed_s",
    "topology.verify_embedding": "topology.trace_s",
    "topology.face_walks": "topology.trace_s",
}

# count metric -> the functions whose calls it counts.
CALL_COUNTS = {
    "groups.tables_built": ("groups.GroupTable.__post_init__",),
    "groups.family_calls": ("groups.maximal_cyclic_subgroups",),
    "epg.bundles_built": ("epg.build_bundle",),
    "subgraphs.subdivision_calls": ("subgraphs.contains_subdivision",),
    "topology.classify_calls": ("topology.classify_surface",),
    "topology.search_orientable_calls": ("topology._search_oriented",),
    "topology.search_signed_calls": ("topology._search_signed",),
    "topology.trace_calls": ("topology.verify_embedding", "topology.face_walks"),
}

SEARCH_KERNELS = ("topology._search_oriented", "topology._search_signed")

# Private names wrapped as well, because a named metric needs them.
_PRIVATE = {"topology": ("_search_oriented", "_search_signed")}

_LRU_WRAPPER = type(functools.lru_cache()(lambda: None))


def time_metric_names() -> list[str]:
    names = set(TIME_METRIC.values()) | {f"{m}.other_s" for m in MODULES}
    names |= {f"verify.claim_total_s.{cid}" for cid in CLAIM_FUNCTIONS.values()}
    return sorted(names)


def count_metric_names() -> list[str]:
    return sorted(
        set(CALL_COUNTS)
        | {
            "groups.rejected",
            "topology.search_found",
            "topology.search_refuted",
            "topology.search_budget_exceeded",
        }
    )


class Tracer:
    """Installs span-recording wrappers into the epgc namespaces."""

    def __init__(self) -> None:
        import epgc

        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []
        self._package = epgc
        self._modules = {name: importlib.import_module(f"epgc.{name}") for name in MODULES}

    def _wrap(self, key: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            outcome = "error"
            start = clock()
            try:
                result = fn(*args, **kwargs)
                outcome = "none" if result is None else "value"
                return result
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (key, parent, start, end, outcome)

        return wrapper

    def _targets(self):
        for mod_name, module in self._modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") and name not in _PRIVATE.get(mod_name, ()):
                    continue
                plain = inspect.isfunction(obj) or isinstance(obj, _LRU_WRAPPER)
                if plain and getattr(obj, "__module__", None) == module.__name__:
                    yield f"{mod_name}.{name}", obj

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = [self._package, *self._modules.values()]
        for key, fn in list(self._targets()):
            wrapper = self._wrap(key, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapper)
                        self._restore.append((ns, attr, fn))
        table_cls = self._modules["groups"].GroupTable
        hook = table_cls.__post_init__
        table_cls.__post_init__ = self._wrap("groups.GroupTable.__post_init__", hook)
        self._restore.append((table_cls, "__post_init__", hook))

    def uninstall(self) -> None:
        while self._restore:
            ns, attr, original = self._restore.pop()
            setattr(ns, attr, original)

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("spans taken while a span is open")
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans) -> list[float]:
    covered = [0.0] * len(spans)
    for key, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, start, end, _) in enumerate(spans)]


def layer_metrics(spans, cache_hits: int, cache_misses: int) -> dict[str, float]:
    """Per-layer self times and counts of one round of spans."""
    out = {name: 0.0 for name in time_metric_names()}
    out.update({name: 0 for name in count_metric_names()})
    counted = {fn: metric for metric, fns in CALL_COUNTS.items() for fn in fns}
    for (key, parent, start, end, outcome), own in zip(spans, self_times(spans)):
        metric = TIME_METRIC.get(key) or f"{key.split('.', 1)[0]}.other_s"
        out[metric] += own
        if metric.startswith("verify.claim_s."):
            # a claim's whole time as well, to show which claim costs most
            out[metric.replace("claim_s", "claim_total_s")] += end - start
        if key in counted:
            out[counted[key]] += 1
        if key in SEARCH_KERNELS:
            if outcome == "value":
                out["topology.search_found"] += 1
            elif outcome == "none":
                out["topology.search_refuted"] += 1
            elif outcome == "SearchBudgetExceeded":
                out["topology.search_budget_exceeded"] += 1
        if (
            outcome == "GroupError"
            and TIME_METRIC.get(key) == "groups.build_s"
            and (parent < 0 or TIME_METRIC.get(spans[parent][0]) != "groups.build_s")
        ):
            out["groups.rejected"] += 1
    calls = cache_hits + cache_misses
    out["groups.family_hit_ratio"] = cache_hits / calls if calls else 0.0
    return out
