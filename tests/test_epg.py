import json

import pytest

from epgc.epg import (
    build_bundle,
    bundle_summary,
    enhanced_power_graph,
    partition_by_maximal_cyclic,
)
from epgc.graphs import connected_components
from epgc.groups import (
    GroupError,
    catalog,
    covering_union,
    group_from_name,
    make_cyclic,
    make_dicyclic,
    maximal_cyclic_subgroups,
)
from epgc.topology import complete_multipartite_parts
from oracles import epg_adjacency_by_sweep, generators_of


def label_index(g, label):
    return g.labels.index(label)


class TestEnhancedPowerGraph:
    def test_cyclic_group_gives_complete_graph(self):
        for n in (1, 5, 12):
            g = make_cyclic(n)
            epg = enhanced_power_graph(g)
            assert epg.edge_count == n * (n - 1) // 2

    def test_klein_four_star(self):
        g = group_from_name("Z2xZ2")
        epg = enhanced_power_graph(g)
        assert epg.neighbors(0) == [1, 2, 3]
        for u in (1, 2, 3):
            assert epg.degree(u) == 1

    def test_q8_adjacency(self):
        q8 = make_dicyclic(2)
        epg = enhanced_power_graph(q8)
        one, minus_one = label_index(q8, "1"), label_index(q8, "-1")
        i, mi, j = label_index(q8, "i"), label_index(q8, "-i"), label_index(q8, "j")
        assert epg.degree(one) == 7 and epg.degree(minus_one) == 7
        assert epg.has_edge(i, mi)
        assert not epg.has_edge(i, j)

    def test_family_mismatch_rejected(self):
        fam = maximal_cyclic_subgroups(make_cyclic(4))
        with pytest.raises(GroupError):
            enhanced_power_graph(make_cyclic(5), fam)

    def test_matches_direct_sweep_on_catalog(self):
        for g in catalog(15):
            epg = enhanced_power_graph(g)
            assert set(epg.edges()) == epg_adjacency_by_sweep(g)

    def test_matches_direct_sweep_on_extension_samples(self):
        for name in ("Q16", "D18", "Z2xZ2xZ2xZ2", "S4"):
            g = group_from_name(name)
            epg = enhanced_power_graph(g)
            assert set(epg.edges()) == epg_adjacency_by_sweep(g)


class TestIsolated:
    def test_cyclic_all_isolated(self):
        bundle = build_bundle(make_cyclic(12))
        assert bundle.isolated == frozenset(range(12))
        assert bundle.reduced.n == 0

    def test_q8(self):
        bundle = build_bundle(group_from_name("Q8"))
        q8 = bundle.group
        assert bundle.isolated == {
            label_index(q8, "1"),
            label_index(q8, "-1"),
        }

    def test_s3_identity_only(self):
        bundle = build_bundle(group_from_name("S3"))
        assert bundle.isolated == {0}

    def test_isolated_equals_intersection(self):
        for g in catalog(15):
            bundle = build_bundle(g)
            assert bundle.isolated == frozenset.intersection(*bundle.family.subgroups)


class TestReduced:
    def test_klein_four_reduced_is_k3(self):
        bundle = build_bundle(group_from_name("Z2xZ2"))
        r = bundle.reduced
        assert r.n == 3 and r.edge_count == 3

    def test_z2_cubed_reduced_is_k7(self):
        bundle = build_bundle(group_from_name("Z2xZ2xZ2"))
        r = bundle.reduced
        assert r.n == 7 and r.edge_count == 21

    def test_z3xz3_reduced_is_k2222(self):
        bundle = build_bundle(group_from_name("Z3xZ3"))
        assert complete_multipartite_parts(bundle.reduced) == (2, 2, 2, 2)

    def test_z2xz6_reduced_is_k333(self):
        bundle = build_bundle(group_from_name("Z2xZ6"))
        assert complete_multipartite_parts(bundle.reduced) == (3, 3, 3)

    def test_reduced_has_no_isolated_vertices_when_noncyclic(self):
        for g in catalog(15):
            bundle = build_bundle(g)
            if bundle.is_cyclic_group:
                continue
            assert all(bundle.reduced.degree(v) > 0 for v in range(bundle.reduced.n))

    def test_reduced_tags_preserve_labels(self):
        bundle = build_bundle(group_from_name("D8"))
        expected = [bundle.group.labels[v] for v in bundle.reduced_index_map]
        assert list(bundle.reduced.tags) == expected


class TestDegrees:
    def test_identity_degree_zero(self):
        bundle = build_bundle(group_from_name("A4"))
        assert bundle.complement.degree(0) == 0

    def test_d8_reflection_degree(self):
        bundle = build_bundle(group_from_name("D8"))
        y = label_index(bundle.group, "y")
        assert bundle.complement.degree(y) == 8 - 2 == 6

    def test_q8_i_degree(self):
        bundle = build_bundle(group_from_name("Q8"))
        i = label_index(bundle.group, "i")
        assert bundle.complement.degree(i) == 8 - 4 == 4

    def test_degree_identity_everywhere(self):
        # deg(x) in the complement is |G| - |union of maximal cyclics over x|
        for g in catalog(15):
            bundle = build_bundle(g)
            for x in range(g.order):
                assert bundle.complement.degree(x) == g.order - len(
                    covering_union(g, x, bundle.family)
                )


class TestStructure:
    def test_one_component_besides_isolated(self):
        for g in catalog(15):
            bundle = build_bundle(g)
            if bundle.is_cyclic_group:
                continue
            comps = connected_components(bundle.complement)
            big = [c for c in comps if len(c) >= 2]
            assert len(big) == 1
            singles = {c[0] for c in comps if len(c) == 1}
            assert singles == set(bundle.isolated)

    def test_generators_adjacent_outside_their_subgroup(self):
        for g in catalog(15):
            bundle = build_bundle(g)
            for sub in bundle.family.subgroups:
                for x in generators_of(g, sub):
                    for y in range(g.order):
                        if y != x and y not in sub:
                            assert bundle.complement.has_edge(x, y)

    def test_partition_hint_proper_and_full(self):
        for g in catalog(15):
            bundle = build_bundle(g)
            colors = partition_by_maximal_cyclic(bundle)
            for u, v in bundle.complement.edges():
                assert colors[u] != colors[v]
            if not bundle.is_cyclic_group:
                assert len(set(colors)) == bundle.family.count

    def test_partition_hint_q8_three_parts(self):
        bundle = build_bundle(group_from_name("Q8"))
        assert len(set(partition_by_maximal_cyclic(bundle))) == 3

    def test_partition_hint_s3_part_sizes(self):
        # least-index rule puts the identity with the rotations; each
        # reflection keeps its own part
        bundle = build_bundle(group_from_name("S3"))
        colors = partition_by_maximal_cyclic(bundle)
        assert colors[0] == 0
        sizes = sorted((colors.count(c) for c in set(colors)), reverse=True)
        assert sizes == [3, 1, 1, 1]

    def test_partition_hint_cyclic_single_part(self):
        bundle = build_bundle(make_cyclic(9))
        assert set(partition_by_maximal_cyclic(bundle)) == {0}

    def test_covering_union_q8_i(self):
        bundle = build_bundle(group_from_name("Q8"))
        q8 = bundle.group
        i = label_index(q8, "i")
        expected = {label_index(q8, s) for s in ("1", "i", "-1", "-i")}
        assert covering_union(q8, i, bundle.family) == expected


class TestSummary:
    def test_summary_fields(self):
        bundle = build_bundle(group_from_name("Q8"))
        s = bundle_summary(bundle)
        assert s["maximal_cyclic_count"] == 3
        assert s["maximal_cyclic_sizes"] == [4, 4, 4]
        assert s["isolated"] == ["1", "-1"]
        assert s["reduced_vertices"] == 6

    def test_summary_json_deterministic(self):
        bundle = build_bundle(group_from_name("D12"))
        a = json.dumps(bundle_summary(bundle), indent=2, sort_keys=True)
        b = json.dumps(bundle_summary(bundle), indent=2, sort_keys=True)
        assert a == b
        json.loads(a)
