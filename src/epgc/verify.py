"""Executable theorem checks over the group catalog.

Each checker produces a :class:`TheoremReport` with one entry per group in
scope.  Expected values come from the fixtures file, never from code, so a
perturbed fixture flips exactly the affected claim to FAIL with a witness.

Statuses: PASS (every non-vacuous entry matched), FAIL (some entry did not),
VACUOUS (nothing applicable in scope), PARTIAL (everything matched but some
entry leaned on a pinned literature constant or hit a search budget; a check
that only a search cut short by its budget could have settled counts as open,
not failed).
Universally quantified claims are corroborated on the finite catalog, not
proven; the notes say so explicitly.

:func:`run_all` builds the bundle of each catalog group once and passes the
same bundles to the six graph claims; a claim called on its own builds the
bundles of ``catalog(15)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from importlib import resources

from .epg import EpgBundle, build_bundle, partition_by_maximal_cyclic
from .graphs import (
    INFINITY,
    connected_components,
    cyclomatic_number,
    girth,
    is_bipartite,
    is_eulerian,
)
from .groups import (
    GroupTable,
    catalog,
    covering_union,
    element_order,
    make_dicyclic,
    make_dihedral,
    maximal_cyclic_subgroups,
)
from .subgraphs import chromatic_number, clique_number
from .topology import DEFAULT_BUDGET, classify_surface

PASS = "PASS"
FAIL = "FAIL"
VACUOUS = "VACUOUS"
PARTIAL = "PARTIAL"


@dataclass
class TheoremReport:
    claim_id: str
    claim_text: str
    scope: tuple[str, ...]
    status: str
    per_group: tuple[dict, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "claim_text": self.claim_text,
            "scope": list(self.scope),
            "status": self.status,
            "per_group": list(self.per_group),
            "notes": list(self.notes),
        }


def load_fixtures() -> dict:
    path = resources.files("epgc") / "fixtures" / "claims.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _entry(group: str, observed, expected, witness=None, status=None) -> dict:
    if status is None:
        status = PASS if observed == expected else FAIL
    if status == FAIL and witness is None:
        witness = {"observed": observed, "expected": expected}
    out = {
        "group": group,
        "observed": observed,
        "expected": expected,
        "status": status,
    }
    if witness is not None:
        out["witness"] = witness
    return out


def _finish(claim_id, claim_text, entries, notes=(), partial=False) -> TheoremReport:
    applicable = [e for e in entries if e["status"] != VACUOUS]
    if any(e["status"] == FAIL for e in applicable):
        status = FAIL
    elif not applicable:
        status = VACUOUS
    elif partial or any(e["status"] == PARTIAL for e in applicable):
        status = PARTIAL
    else:
        status = PASS
    return TheoremReport(
        claim_id=claim_id,
        claim_text=claim_text,
        scope=tuple(e["group"] for e in entries),
        status=status,
        per_group=tuple(entries),
        notes=tuple(notes),
    )


def verify_table1(max_order: int = 15, fixtures: dict | None = None) -> TheoremReport:
    """Number and orders of maximal cyclic subgroups for every group of order
    at most 15, against the fixtures table."""
    fixtures = fixtures or load_fixtures()
    fx = fixtures["maximal_cyclic_table"]
    expected_table = fx["expected"]
    groups = catalog(min(max_order, 15))
    entries = []
    for g in groups:
        fam = maximal_cyclic_subgroups(g)
        observed = {"count": fam.count, "sizes": sorted(fam.sizes, reverse=True)}
        if g.name not in expected_table:
            entries.append(
                _entry(g.name, observed, None, witness="group missing from fixtures", status=FAIL)
            )
            continue
        sizes = sorted(expected_table[g.name], reverse=True)
        expected = {"count": len(sizes), "sizes": sizes}
        entries.append(_entry(g.name, observed, expected))
    notes = [f"catalog covers all {len(groups)} groups of order <= {min(max_order, 15)}"]
    return _finish("maximal-cyclic-table", fx["claim"], entries, notes)


def verify_no_two_maximal(
    groups: tuple[GroupTable, ...] | None = None, fixtures: dict | None = None
) -> TheoremReport:
    """|M(G)| is never 2, over the catalog plus the order-32 extension."""
    fixtures = fixtures or load_fixtures()
    fx = fixtures["no_two_maximal"]
    forbidden = fx["forbidden_count"]
    if groups is None:
        groups = catalog(32)
    entries = []
    for g in groups:
        fam = maximal_cyclic_subgroups(g)
        entries.append(
            _entry(
                g.name,
                {"count": fam.count, "equals_forbidden": fam.count == forbidden},
                {"count": fam.count, "equals_forbidden": False},
            )
        )
    notes = [
        "orders 16..32 are a curated, non-exhaustive extension "
        "(abelian invariant-factor products, dihedral, dicyclic, S4)"
    ]
    return _finish("no-two-maximal", fx["claim"], entries, notes)


def verify_one_component(
    bundles: list[EpgBundle] | None = None, fixtures: dict | None = None
) -> TheoremReport:
    """Exactly one component of size >= 2 in the complement, for non-cyclic
    groups; cyclic groups are vacuous (edgeless complement)."""
    fixtures = fixtures or load_fixtures()
    fx = fixtures["one_component"]
    entries = []
    for b in map(build_bundle, catalog(15)) if bundles is None else bundles:
        name = b.group.name
        if b.is_cyclic_group:
            entries.append(_entry(name, "edgeless complement", None, status=VACUOUS))
            continue
        comps = connected_components(b.complement)
        big = [c for c in comps if len(c) >= 2]
        singletons = [c[0] for c in comps if len(c) == 1]
        observed = {
            "components_of_size_ge_2": len(big),
            "singletons_are_isolated": set(singletons) == set(b.isolated),
        }
        expected = {"components_of_size_ge_2": 1, "singletons_are_isolated": True}
        witness = {"component_sizes": sorted((len(c) for c in comps), reverse=True)}
        entries.append(_entry(name, observed, expected, witness))
    return _finish("one-component", fx["claim"], entries)


def verify_bipartite_girth_perfect(
    bundles: list[EpgBundle] | None = None, fixtures: dict | None = None
) -> TheoremReport:
    """Bipartite iff cyclic; girth 3 or infinity; chi = omega = |M(G)| for
    non-cyclic groups (exact clique and coloring searches)."""
    fixtures = fixtures or load_fixtures()
    fx = fixtures["bipartite_girth_weakly_perfect"]
    entries = []
    for b in map(build_bundle, catalog(15)) if bundles is None else bundles:
        name = b.group.name
        bip, bip_witness = is_bipartite(b.complement)
        gi = girth(b.complement)
        gi_repr = "inf" if gi == INFINITY else int(gi)
        if b.is_cyclic_group:
            observed = {"bipartite": bip, "girth": gi_repr}
            expected = {"bipartite": True, "girth": "inf"}
            entries.append(_entry(name, observed, expected))
            continue
        k = b.family.count
        omega, clique = clique_number(b.complement)
        hint = partition_by_maximal_cyclic(b)
        chi, coloring = chromatic_number(b.complement, hint=hint)
        observed = {
            "bipartite": bip,
            "girth": gi_repr,
            "omega": omega,
            "chi": chi,
            "weakly_perfect": omega == chi,
        }
        expected = {
            "bipartite": False,
            "girth": 3,
            "omega": k,
            "chi": k,
            "weakly_perfect": True,
        }
        witness = {"max_clique": list(clique), "odd_cycle": None if bip else list(bip_witness)}
        entries.append(_entry(name, observed, expected, witness))
    return _finish("bipartite-girth-weakly-perfect", fx["claim"], entries)


def verify_dominatable_complete(
    bundles: list[EpgBundle] | None = None, fixtures: dict | None = None
) -> TheoremReport:
    """Dominating vertex iff a maximal cyclic subgroup of order 2 exists;
    completeness exactly on the elementary abelian 2-groups."""
    fixtures = fixtures or load_fixtures()
    fx = fixtures["dominatable_complete"]
    complete_groups = set(fx["complete_groups"])
    entries = []
    for b in map(build_bundle, catalog(15)) if bundles is None else bundles:
        name = b.group.name
        if b.is_cyclic_group:
            entries.append(_entry(name, "empty reduced graph", None, status=VACUOUS))
            continue
        reduced = b.reduced
        has_dominating = any(reduced.degree(v) == reduced.n - 1 for v in range(reduced.n))
        has_order2 = any(size == 2 for size in b.family.sizes)
        complete = reduced.edge_count == reduced.n * (reduced.n - 1) // 2
        elementary_abelian_2 = all(
            element_order(b.group, x) <= 2 for x in range(b.group.order)
        )
        observed = {
            "dominating_vertex": has_dominating,
            "complete_iff_elementary_abelian_2": complete == elementary_abelian_2,
        }
        expected = {
            "dominating_vertex": has_order2,
            "complete_iff_elementary_abelian_2": True,
        }
        if b.group.order <= 15:
            # the fixtures pin exactly which small groups are complete
            observed["complete"] = complete
            expected["complete"] = name in complete_groups
        entries.append(_entry(name, observed, expected))
    return _finish("dominatable-complete", fx["claim"], entries)


def _eulerian_criterion(b: EpgBundle) -> bool:
    if b.group.order % 2 == 1:
        return True
    return all(
        len(covering_union(b.group, x, b.family)) % 2 == 0
        for x in b.reduced_index_map
    )


DIHEDRAL_SWEEP = range(3, 11)  # D6 .. D20
DICYCLIC_SWEEP = range(2, 11)  # Q8 .. Q40


def verify_eulerian(
    bundles: list[EpgBundle] | None = None,
    fixtures: dict | None = None,
) -> TheoremReport:
    """The Eulerian iff-criterion over the catalog, plus the dihedral and
    dicyclic family sweeps and the 2-group corollary."""
    fixtures = fixtures or load_fixtures()
    fx = fixtures["eulerian"]
    entries = []
    for b in map(build_bundle, catalog(15)) if bundles is None else bundles:
        name = b.group.name
        if b.is_cyclic_group:
            entries.append(_entry(name, "empty reduced graph", None, status=VACUOUS))
            continue
        eulerian = is_eulerian(b.reduced)
        criterion = _eulerian_criterion(b)
        is_2_group = b.group.order > 1 and _is_power_of_two(b.group.order)
        observed = {"eulerian": eulerian, "criterion": criterion}
        expected = {"eulerian": criterion, "criterion": criterion}
        if is_2_group:
            observed["two_group_eulerian"] = eulerian
            expected["two_group_eulerian"] = True
        entries.append(_entry(name, observed, expected))
    for n in DIHEDRAL_SWEEP:
        b = build_bundle(make_dihedral(n))
        entries.append(
            _entry(
                f"D{2 * n} (family sweep)",
                {"eulerian": is_eulerian(b.reduced)},
                {"eulerian": n % 2 == 0},
            )
        )
    for n in DICYCLIC_SWEEP:
        b = build_bundle(make_dicyclic(n))
        entries.append(
            _entry(
                f"Q{4 * n} (family sweep)",
                {"eulerian": is_eulerian(b.reduced)},
                {"eulerian": True},
            )
        )
    return _finish("eulerian", fx["claim"], entries)


def _is_power_of_two(n: int) -> bool:
    return n & (n - 1) == 0


def verify_c_cyclic(
    bundles: list[EpgBundle] | None = None, fixtures: dict | None = None
) -> TheoremReport:
    """Cyclomatic number of the reduced complement: 1 exactly for Z2xZ2, 5
    exactly for S3, never 2, 3 or 4."""
    fixtures = fixtures or load_fixtures()
    fx = fixtures["cyclomatic_classification"]
    unicyclic = set(fx["unicyclic_groups"])
    pentacyclic = set(fx["pentacyclic_groups"])
    forbidden = set(fx["forbidden_values"])
    entries = []
    for b in map(build_bundle, catalog(15)) if bundles is None else bundles:
        name = b.group.name
        if b.is_cyclic_group:
            entries.append(_entry(name, "empty reduced graph", None, status=VACUOUS))
            continue
        c = cyclomatic_number(b.reduced)
        observed = {
            "c": c,
            "unicyclic": c == 1,
            "pentacyclic": c == 5,
            "forbidden": c in forbidden,
        }
        expected = {
            "c": c,
            "unicyclic": name in unicyclic,
            "pentacyclic": name in pentacyclic,
            "forbidden": False,
        }
        entries.append(_entry(name, observed, expected))
    notes = [
        f"corroborated on {len(entries)} groups; the claim quantifies over all "
        "finite groups and is checked exhaustively only within order <= 15"
    ]
    return _finish("cyclomatic-classification", fx["claim"], entries, notes)


def verify_surface_classification(
    bundles: list[EpgBundle] | None = None,
    fixtures: dict | None = None,
    budget: int = DEFAULT_BUDGET,
) -> TheoremReport:
    """Outerplanar / planar / projective / toroidal classification of the
    reduced complement, with certificate-backed upper bounds and the
    crosscap-2 exclusion."""
    fixtures = fixtures or load_fixtures()
    fx = fixtures["surface_classification"]
    expected_sets = {
        "outerplanar": set(fx["outerplanar"]),
        "planar": set(fx["planar"]),
        "projective": set(fx["projective"]),
        "toroidal": set(fx["toroidal"]),
    }
    min_genus = fx["min_genus_elsewhere"]
    min_crosscap = fx["min_crosscap_elsewhere"]
    entries = []
    partial = False
    for b in map(build_bundle, catalog(15)) if bundles is None else bundles:
        name = b.group.name
        if b.is_cyclic_group:
            entries.append(_entry(name, "empty reduced graph", None, status=VACUOUS))
            continue
        v = classify_surface(b, budget=budget)
        in_toroidal = name in expected_sets["toroidal"]
        in_projective = name in expected_sets["projective"]
        classified = name in expected_sets["planar"] or in_toroidal
        observed = {
            "outerplanar": v.outerplanar,
            "planar": v.planar,
            "projective": v.projective,
            "toroidal": v.toroidal,
            "crosscap_window_ok": (
                (v.crosscap_lower == v.crosscap_upper == 0)
                or (v.crosscap_lower == v.crosscap_upper == 1)
                or v.crosscap_lower >= 3
            ),
            "beyond_bounds_ok": classified
            or (v.genus_lower >= min_genus and v.crosscap_lower >= min_crosscap),
        }
        expected = {
            "outerplanar": name in expected_sets["outerplanar"],
            "planar": name in expected_sets["planar"],
            "projective": in_projective,
            "toroidal": in_toroidal,
            "crosscap_window_ok": True,
            "beyond_bounds_ok": True,
        }
        status = None
        if v.pinned or v.budget_limited:
            partial = True
            # a key a search could still settle: observed False where True
            # was expected, with the upper bound it needs left open
            upper = {
                "projective": v.crosscap_upper,
                "toroidal": v.genus_upper,
                "crosscap_window_ok": v.crosscap_upper,
            }
            if all(
                observed[k] == expected[k]
                or (v.budget_limited and expected[k] and k in upper and upper[k] is None)
                for k in expected
            ):
                status = PARTIAL
        witness = {
            "genus": [v.genus_lower, v.genus_upper],
            "crosscap": [v.crosscap_lower, v.crosscap_upper],
            "pinned": v.pinned,
            "budget_limited": v.budget_limited,
            "evidence": list(v.evidence),
        }
        entries.append(_entry(name, observed, expected, witness, status=status))
    notes = [
        "corroborated on the catalog; the classification quantifies over all finite groups",
        "PARTIAL entries rely on pinned literature constants "
        "(crosscap of K_{2,2,2,2} and K_{3,3,3}) or on budget-limited searches",
    ]
    return _finish("surface-classification", fx["claim"], entries, notes, partial=partial)


ALL_CLAIMS = (
    "maximal-cyclic-table",
    "no-two-maximal",
    "one-component",
    "bipartite-girth-weakly-perfect",
    "dominatable-complete",
    "eulerian",
    "cyclomatic-classification",
    "surface-classification",
)


def run_all(
    max_order: int = 15,
    fixtures: dict | None = None,
    budget: int = DEFAULT_BUDGET,
    claims: tuple[str, ...] | None = None,
) -> list[TheoremReport]:
    """Run every theorem check and return the reports in a fixed order."""
    fixtures = fixtures or load_fixtures()
    # built once, on first use, and shared by the six graph claims
    bundles = cache(lambda: [build_bundle(g) for g in catalog(max_order)])
    runners = {
        "maximal-cyclic-table": lambda: verify_table1(max_order, fixtures),
        "no-two-maximal": lambda: verify_no_two_maximal(catalog(32), fixtures),
        "one-component": lambda: verify_one_component(bundles(), fixtures),
        "bipartite-girth-weakly-perfect": lambda: verify_bipartite_girth_perfect(
            bundles(), fixtures
        ),
        "dominatable-complete": lambda: verify_dominatable_complete(bundles(), fixtures),
        "eulerian": lambda: verify_eulerian(bundles(), fixtures),
        "cyclomatic-classification": lambda: verify_c_cyclic(bundles(), fixtures),
        "surface-classification": lambda: verify_surface_classification(
            bundles(), fixtures, budget=budget
        ),
    }
    selected = claims if claims is not None else ALL_CLAIMS
    for c in selected:
        if c not in runners:
            raise KeyError(f"unknown claim id {c!r}; known: {', '.join(ALL_CLAIMS)}")
    return [runners[c]() for c in selected]


def reports_to_json(reports: list[TheoremReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)


def render_report(report: TheoremReport, verbose: bool = False) -> str:
    lines = [f"[{report.status}] {report.claim_id}: {report.claim_text}"]
    counts: dict[str, int] = {}
    for e in report.per_group:
        counts[e["status"]] = counts.get(e["status"], 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append(f"  groups: {len(report.per_group)} ({summary})")
    for note in report.notes:
        lines.append(f"  note: {note}")
    shown = report.per_group if verbose else [e for e in report.per_group if e["status"] == FAIL]
    for e in shown:
        lines.append(
            f"  - {e['group']}: {e['status']} observed={e['observed']!r} expected={e['expected']!r}"
        )
        if e["status"] == FAIL and "witness" in e:
            lines.append(f"    witness: {e['witness']!r}")
    return "\n".join(lines)
