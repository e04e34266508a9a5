"""Enhanced power graph of a finite group, its complement, and the reduced
complement on non-isolated vertices.

Adjacency comes from the maximal-cyclic family: two distinct elements are
joined in the enhanced power graph exactly when some maximal cyclic subgroup
contains both.  This matches the direct definition (two elements adjacent
when both powers of a common element) because every cyclic subgroup of a
finite group lies inside a maximal one; the equivalence is exercised against
a direct sweep oracle in the tests.

Families come from :func:`maximal_cyclic_subgroups` and are trusted: only
their group order is checked here.  The isolated vertices of the complement
are the elements every maximal cyclic subgroup contains; ``TestLibraryGraphs``
checks that on every library group instead of each bundle checking it at run
time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import SimpleGraph, _from_rows, complement as graph_complement, induced_subgraph
from .groups import GroupError, GroupTable, MaximalCyclicFamily, maximal_cyclic_subgroups


@dataclass(frozen=True)
class EpgBundle:
    """A group together with every graph the theorems talk about."""

    group: GroupTable
    family: MaximalCyclicFamily
    epg: SimpleGraph
    complement: SimpleGraph
    isolated: frozenset[int]
    reduced: SimpleGraph
    reduced_index_map: tuple[int, ...]

    @property
    def is_cyclic_group(self) -> bool:
        return self.family.count == 1


def enhanced_power_graph(g: GroupTable, family: MaximalCyclicFamily | None = None) -> SimpleGraph:
    """Graph on the group elements; x ~ y (x != y) iff some maximal cyclic
    subgroup contains both."""
    if family is None:
        family = maximal_cyclic_subgroups(g)
    if family.group_order != g.order:
        raise GroupError(
            f"family describes a group of order {family.group_order}, "
            f"but the group has order {g.order}"
        )
    rows = [0] * g.order
    for subgroup in family.subgroups:
        mask = 0
        for x in subgroup:
            mask |= 1 << x
        for x in subgroup:
            rows[x] |= mask & ~(1 << x)
    return _from_rows(g.order, rows=rows, tags=g.labels)


def build_bundle(g: GroupTable, family: MaximalCyclicFamily | None = None) -> EpgBundle:
    if family is None:
        family = maximal_cyclic_subgroups(g)
    epg = enhanced_power_graph(g, family)
    comp = graph_complement(epg)
    zero_degree = frozenset(v for v in range(comp.n) if comp.degree(v) == 0)
    non_isolated = tuple(v for v in range(g.order) if v not in zero_degree)
    reduced = induced_subgraph(comp, non_isolated)
    return EpgBundle(
        group=g,
        family=family,
        epg=epg,
        complement=comp,
        isolated=zero_degree,
        reduced=reduced,
        reduced_index_map=non_isolated,
    )


def partition_by_maximal_cyclic(bundle: EpgBundle) -> list[int]:
    """Color hint: each element gets the least family index containing it.

    Same-part vertices share a cyclic subgroup, so the parts are independent
    sets of the complement; for a non-cyclic group the hint uses exactly
    |family| colors.
    """
    colors = []
    for x in range(bundle.group.order):
        for i, subgroup in enumerate(bundle.family.subgroups):
            if x in subgroup:
                colors.append(i)
                break
        else:
            raise GroupError(f"element {x} lies in no maximal cyclic subgroup")
    return colors


def bundle_summary(bundle: EpgBundle) -> dict:
    g = bundle.group
    return {
        "name": g.name,
        "order": g.order,
        "maximal_cyclic_count": bundle.family.count,
        "maximal_cyclic_sizes": list(bundle.family.sizes),
        "isolated": [g.labels[v] for v in sorted(bundle.isolated)],
        "reduced_vertices": bundle.reduced.n,
        "edge_counts": {
            "enhanced_power_graph": bundle.epg.edge_count,
            "complement": bundle.complement.edge_count,
            "reduced": bundle.reduced.edge_count,
        },
    }
