import random

import pytest
from hypothesis import given, settings, strategies as st

from epgc.epg import build_bundle, partition_by_maximal_cyclic
from epgc.graphs import (
    GraphError,
    SimpleGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
)
from epgc.groups import group_from_name
from epgc.subgraphs import (
    chromatic_number,
    clique_number,
    contains_subdivision,
)
from oracles import chromatic_number_brute, clique_number_brute, planar_by_minors


def _random_graph(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return SimpleGraph(n, edges=edges)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return SimpleGraph(10, edges=outer + inner + spokes)


class TestClique:
    def test_complete(self):
        size, witness = clique_number(complete_graph(7))
        assert size == 7 and len(witness) == 7

    def test_empty_conventions(self):
        assert clique_number(SimpleGraph(0)) == (0, ())
        size, witness = clique_number(SimpleGraph(4))
        assert size == 1 and len(witness) == 1

    def test_q8_complement_clique_is_three(self):
        bundle = build_bundle(group_from_name("Q8"))
        size, witness = clique_number(bundle.complement)
        assert size == 3 == bundle.family.count

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(25):
            g = _random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.5, 0.8]))
            assert clique_number(g)[0] == clique_number_brute(g)

    def test_size_cap(self):
        with pytest.raises(GraphError):
            clique_number(SimpleGraph(65))

    def test_z2_cubed_reduced_is_k7(self):
        bundle = build_bundle(group_from_name("Z2xZ2xZ2"))
        size, witness = clique_number(bundle.reduced)
        assert size == bundle.reduced.n == 7 and len(witness) == 7


class TestChromatic:
    def test_complete(self):
        chi, coloring = chromatic_number(complete_graph(6))
        assert chi == 6 and sorted(coloring) == list(range(6))

    def test_bipartite_two(self):
        chi, _ = chromatic_number(complete_bipartite(3, 4))
        assert chi == 2

    def test_empty_conventions(self):
        assert chromatic_number(SimpleGraph(0)) == (0, [])
        assert chromatic_number(SimpleGraph(3))[0] == 1

    def test_d8_complement_is_five_chromatic(self):
        bundle = build_bundle(group_from_name("D8"))
        hint = partition_by_maximal_cyclic(bundle)
        chi, coloring = chromatic_number(bundle.complement, hint=hint)
        omega, _ = clique_number(bundle.complement)
        assert chi == omega == 5 == bundle.family.count

    def test_odd_cycle_three(self):
        assert chromatic_number(cycle_graph(7))[0] == 3

    def test_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(20):
            g = _random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.6]))
            assert chromatic_number(g)[0] == chromatic_number_brute(g)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 9), st.randoms())
    def test_chi_at_least_omega_and_witness_proper(self, n, rnd):
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.5
        ]
        g = SimpleGraph(n, edges=edges)
        chi, coloring = chromatic_number(g)
        omega, clique = clique_number(g)
        assert chi >= omega
        assert all(coloring[u] != coloring[v] for u, v in g.edges())
        assert all(g.has_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1:])

    def test_bad_hint_ignored(self):
        g = complete_graph(4)
        chi, _ = chromatic_number(g, hint=[0, 0, 0, 0])
        assert chi == 4


class TestSubdivision:
    def test_k4_contains_itself(self):
        ok, witness = contains_subdivision(complete_graph(4), "K4")
        assert ok
        assert all(len(p) == 2 for p in witness["paths"])

    def test_c6_has_no_k4(self):
        assert contains_subdivision(cycle_graph(6), "K4") == (False, None)

    def test_k5_minus_edge_planar(self):
        g = SimpleGraph(
            5,
            edges=[(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)],
        )
        assert contains_subdivision(g, "K5") == (False, None)
        assert contains_subdivision(g, "K33") == (False, None)

    def test_subdivided_k4_found(self):
        # K4 with every edge subdivided once: 4 branch + 6 path vertices
        base = list(range(4))
        edges = []
        nxt = 4
        import itertools

        for u, v in itertools.combinations(base, 2):
            edges += [(u, nxt), (nxt, v)]
            nxt += 1
        g = SimpleGraph(nxt, edges=edges)
        ok, witness = contains_subdivision(g, "K4")
        assert ok
        assert all(len(p) == 3 for p in witness["paths"])

    def test_petersen(self):
        g = petersen()
        ok33, _ = contains_subdivision(g, "K33")
        ok5, _ = contains_subdivision(g, "K5")
        assert ok33          # Petersen is non-planar
        assert not ok5       # 3-regular, no degree-4 branch vertices

    def test_unknown_target(self):
        with pytest.raises(GraphError):
            contains_subdivision(complete_graph(4), "K6")

    def test_agrees_with_minor_planarity_oracle(self):
        rng = random.Random(23)
        cases = [complete_graph(5), complete_bipartite(3, 3), complete_graph(4)]
        for _ in range(30):
            cases.append(_random_graph(rng, rng.randint(4, 8), rng.choice([0.3, 0.5, 0.7])))
        for g in cases:
            subdivision_planar = (
                not contains_subdivision(g, "K5")[0]
                and not contains_subdivision(g, "K33")[0]
            )
            assert subdivision_planar == planar_by_minors(g)
