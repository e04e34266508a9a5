import random

import pytest
from hypothesis import given, settings, strategies as st

from epgc.epg import build_bundle
from epgc.graphs import (
    GraphError,
    INFINITY,
    SimpleGraph,
    blocks,
    complement,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    cyclomatic_number,
    girth,
    induced_subgraph,
    is_bipartite,
    is_eulerian,
    to_adjacency_text,
    to_dot,
)
from epgc.groups import catalog, group_from_name, make_dicyclic, make_dihedral
from epgc.verify import DICYCLIC_SWEEP, DIHEDRAL_SWEEP
from oracles import (
    _connected_mask,
    girth_brute,
    graphs_isomorphic_brute,
    joined_avoiding,
    maximal_generators,
)


def random_graphs(max_n=12):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.builds(
            lambda edges: SimpleGraph(n, edges=edges),
            st.lists(
                st.tuples(
                    st.integers(0, max(0, n - 1)), st.integers(0, max(0, n - 1))
                ).filter(lambda e: e[0] != e[1]),
                max_size=n * max(0, n - 1) // 2,
            ),
        )
        if n > 0
        else st.just(SimpleGraph(0))
    )


class TestConstruction:
    def test_rejects_loop(self):
        with pytest.raises(GraphError):
            SimpleGraph(3, edges=[(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            SimpleGraph(3, edges=[(0, 3)])

    def test_rejects_tags_of_the_wrong_length(self):
        with pytest.raises(GraphError):
            SimpleGraph(2, edges=[(0, 1)], tags=["a"])

    def test_basic_accessors(self):
        g = SimpleGraph(4, edges=[(0, 1), (1, 2)])
        assert g.degree(1) == 2
        assert g.neighbors(1) == [0, 2]
        assert g.edge_count == 2
        assert g.edges() == [(0, 1), (1, 2)]


class TestComplement:
    def test_complement_of_complete_is_empty(self):
        assert complement(complete_graph(4)).edge_count == 0

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_edge_count_identity(self, g):
        assert g.edge_count + complement(g).edge_count == g.n * (g.n - 1) // 2

    def test_complement_c5_isomorphic_to_c5(self):
        c5 = cycle_graph(5)
        assert graphs_isomorphic_brute(complement(c5), c5)


class TestInducedSubgraph:
    def test_full_set_unchanged(self):
        g = complete_bipartite(2, 3)
        assert induced_subgraph(g, range(5)) == g

    def test_empty_set(self):
        assert induced_subgraph(complete_graph(3), ()).n == 0

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            induced_subgraph(complete_graph(3), [5])

    def test_s3_generators_induce_k5_minus_edge(self):
        # the two rotation generators are the only non-adjacent pair
        bundle = build_bundle(group_from_name("S3"))
        gens = sorted(maximal_generators(bundle.group))
        sub = induced_subgraph(bundle.complement, gens)
        assert sub.n == 5
        assert sub.edge_count == 9
        assert sorted(sub.degree(v) for v in range(5)) == [3, 3, 4, 4, 4]


class TestComponents:
    def test_edgeless(self):
        comps = connected_components(SimpleGraph(5))
        assert comps == [(0,), (1,), (2,), (3,), (4,)]

    def test_triangle_plus_isolated(self):
        g = SimpleGraph(4, edges=[(0, 1), (1, 2), (0, 2)])
        assert connected_components(g) == [(0, 1, 2), (3,)]

    def test_z2xz4_complement_components(self):
        # one component on the 7 non-isolated vertices plus the identity
        bundle = build_bundle(group_from_name("Z2xZ4"))
        comps = connected_components(bundle.complement)
        sizes = sorted(len(c) for c in comps)
        assert sizes == [1, 7]
        assert bundle.isolated == {0}


def seeded_graphs(count, max_n, seed):
    """Random graphs on 0..max_n vertices: dense, sparse and edgeless ones,
    and forests (some of them trees) with isolated vertices."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(0, max_n)
        if i % 4 == 0:
            # forest: attach each vertex to an earlier one, or leave it alone
            p_attach = rng.choice((0.5, 0.8, 1.0))
            edges = [
                (rng.randrange(v), v) for v in range(1, n) if rng.random() < p_attach
            ]
        else:
            p = rng.choice((0.0, 0.15, 0.3, 0.5, 0.8))
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ]
        yield SimpleGraph(n, edges=edges)


class TestBlocks:
    def test_known_blocks(self):
        # K4 on 0-3 and a triangle 3-4-5 at cut vertex 3, a bridge 5-6 and
        # an isolated vertex 7
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        edges += [(3, 4), (4, 5), (3, 5), (5, 6)]
        star = SimpleGraph(4, edges=[(0, 1), (1, 2), (1, 3)])
        for g, expected in (
            (SimpleGraph(8, edges=edges), [(0, 1, 2, 3), (3, 4, 5), (5, 6), (7,)]),
            (SimpleGraph(0), []),
            (SimpleGraph(1), [(0,)]),
            (SimpleGraph(2, edges=[(0, 1)]), [(0, 1)]),
            (star, [(0, 1), (1, 2), (1, 3)]),
            (cycle_graph(6), [tuple(range(6))]),
        ):
            assert blocks(g) == expected

    def test_against_cut_vertex_oracle(self):
        # two edges at w share a block iff their other ends stay joined in
        # G - w; blocks partition the edges, each block is connected, and
        # the 1-vertex blocks are the isolated vertices
        for g in seeded_graphs(3000, 10, seed=3):
            found = blocks(g)
            assert found == sorted(found) and all(list(b) == sorted(b) for b in found)
            assert [b for b in found if len(b) == 1] == [
                (v,) for v in range(g.n) if g.degree(v) == 0
            ], g.edges()
            for b in found:
                if len(b) > 1:
                    assert _connected_mask(g, sum(1 << v for v in b)), g.edges()
            for u, v in g.edges():
                assert sum(u in b and v in b for b in found) == 1, g.edges()
            for w in range(g.n):
                nbrs = g.neighbors(w)
                for i, a in enumerate(nbrs):
                    for b in nbrs[i + 1:]:
                        shared = any(w in s and a in s and b in s for s in found)
                        assert shared == joined_avoiding(g, w, a, b), (g.edges(), w, a, b)


class TestGirth:
    def test_tree(self):
        g = SimpleGraph(5, edges=[(0, 1), (1, 2), (1, 3), (3, 4)])
        assert girth(g) == INFINITY

    def test_triangle(self):
        assert girth(complete_graph(3)) == 3

    def test_c5(self):
        assert girth(cycle_graph(5)) == 5

    def test_complete_bipartite(self):
        assert girth(complete_bipartite(3, 3)) == 4

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(max_n=10))
    def test_agrees_with_edge_deletion_oracle(self, g):
        assert girth(g) == girth_brute(g), g.edges()

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycles(self, n):
        assert girth(cycle_graph(n)) == n == girth_brute(cycle_graph(n))

    def test_petersen(self):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(i, i + 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        petersen = SimpleGraph(10, edges=edges)
        assert girth(petersen) == 5 == girth_brute(petersen)

    def test_k44(self):
        assert girth(complete_bipartite(4, 4)) == 4 == girth_brute(complete_bipartite(4, 4))

    def test_only_cycle_in_a_later_component(self):
        # a path and a star first, then a 6-cycle with a pendant vertex
        edges = [(0, 1), (1, 2), (3, 4), (3, 5), (3, 6)]
        edges += [(7 + i, 7 + (i + 1) % 6) for i in range(6)] + [(7, 13)]
        g = SimpleGraph(14, edges=edges)
        assert girth(g) == 6 == girth_brute(g)

    def test_catalog_graphs_against_oracle(self):
        for group in catalog(32):
            bundle = build_bundle(group)
            for g in (bundle.complement, bundle.reduced):
                assert girth(g) == girth_brute(g), group.name


class TestBipartite:
    def test_edgeless(self):
        ok, coloring = is_bipartite(SimpleGraph(4))
        assert ok and len(coloring) == 4

    def test_triangle_witness(self):
        ok, cycle = is_bipartite(complete_graph(3))
        assert not ok
        assert len(cycle) == 3

    def test_k23(self):
        ok, coloring = is_bipartite(complete_bipartite(2, 3))
        assert ok
        assert coloring[:2] == [0, 0] and coloring[2:] == [1, 1, 1]

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_witness_validates(self, g):
        ok, witness = is_bipartite(g)
        if ok:
            for u, v in g.edges():
                assert witness[u] != witness[v]
        else:
            cycle = witness
            assert len(cycle) % 2 == 1
            for i, u in enumerate(cycle):
                assert g.has_edge(u, cycle[(i + 1) % len(cycle)])


class TestEulerian:
    def test_c4(self):
        assert is_eulerian(cycle_graph(4))

    def test_path_odd_degrees(self):
        assert not is_eulerian(SimpleGraph(3, edges=[(0, 1), (1, 2)]))

    def test_k5(self):
        assert is_eulerian(complete_graph(5))

    def test_edgeless_vacuous(self):
        assert is_eulerian(SimpleGraph(3))

    def test_isolated_vertex_handling(self):
        g = SimpleGraph(4, edges=[(0, 1), (1, 2), (0, 2)])
        assert is_eulerian(g)
        assert len(connected_components(g)) == 2

    def test_two_triangles_not_eulerian(self):
        g = SimpleGraph(6, edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_eulerian(g)


class TestCyclomatic:
    def test_tree_zero(self):
        g = SimpleGraph(4, edges=[(0, 1), (1, 2), (2, 3)])
        assert cyclomatic_number(g) == 0

    def test_triangle_one(self):
        assert cyclomatic_number(complete_graph(3)) == 1

    def test_k5_six(self):
        assert cyclomatic_number(complete_graph(5)) == 6

    def test_disconnected_raises(self):
        with pytest.raises(GraphError):
            cyclomatic_number(SimpleGraph(4, edges=[(0, 1), (2, 3)]))

    def test_connected_subgraph_monotone(self):
        # c(connected subgraph) <= c(graph) over random samples
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(3, 10)
            edges = set()
            for v in range(1, n):
                edges.add((rng.randrange(v), v))
            target = min(n * (n - 1) // 2, len(edges) + rng.randint(0, n))
            while len(edges) < target:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            g = SimpleGraph(n, edges=sorted(edges))
            c_full = cyclomatic_number(g)
            for _ in range(10):
                k = rng.randint(1, n)
                vs = rng.sample(range(n), k)
                sub = induced_subgraph(g, vs)
                if sub.n and len(connected_components(sub)) == 1:
                    assert cyclomatic_number(sub) <= c_full


class TestSerialization:
    def test_dot_deterministic(self):
        bundle = build_bundle(group_from_name("Z2xZ2"))
        dot = to_dot(bundle.reduced)
        assert dot == to_dot(bundle.reduced)
        assert dot.count("--") == 3
        assert 'label="(0,1)"' in dot

    def test_adjacency_text_round_trip(self):
        g = complete_bipartite(2, 3)
        text = to_adjacency_text(g)
        assert text == "5\n0: 2 3 4\n1: 2 3 4\n2: 0 1\n3: 0 1\n4: 0 1\n"
        head, *lines = text.splitlines()
        edges = [
            (int(v), int(w))
            for v, _, rest in (ln.partition(":") for ln in lines)
            for w in rest.split()
        ]
        assert SimpleGraph(int(head), edges=edges) == g


def assert_library_rows(g):
    """The row checks the constructor applies to outside edges, for a graph
    built from library rows: n rows, each inside [0, n), loopless and
    symmetric, and n string tags when there are tags."""
    full = (1 << g.n) - 1
    assert len(g._rows) == g.n
    for i, row in enumerate(g._rows):
        assert row & ~full == 0, f"row {i} leaves [0, {g.n})"
        assert not row >> i & 1, f"loop at {i}"
        for j in range(g.n):
            if row >> j & 1:
                assert g._rows[j] >> i & 1, f"({i}, {j}) is not symmetric"
    if g.tags is not None:
        assert isinstance(g.tags, tuple) and len(g.tags) == g.n
        assert all(isinstance(t, str) for t in g.tags)


class TestLibraryGraphs:
    """Library graphs skip the constructor's checks; this is their proof."""

    def test_bundle_graphs(self):
        groups = [
            *catalog(32),
            *map(make_dihedral, DIHEDRAL_SWEEP),
            *map(make_dicyclic, DICYCLIC_SWEEP),
        ]
        for group in groups:
            bundle = build_bundle(group)
            for g in (bundle.epg, bundle.complement, bundle.reduced):
                assert g.tags is not None, group.name
                assert_library_rows(g)

    def test_isolated_set_is_the_family_intersection(self):
        groups = [
            *catalog(32),
            *map(make_dihedral, DIHEDRAL_SWEEP),
            *map(make_dicyclic, DICYCLIC_SWEEP),
        ]
        for group in groups:
            bundle = build_bundle(group)
            subgroups = bundle.family.subgroups
            assert all(0 <= x < group.order for s in subgroups for x in s), group.name
            assert bundle.isolated == frozenset.intersection(*subgroups), group.name

    def test_complete_graphs(self):
        for n in range(9):
            g = complete_graph(n)
            assert_library_rows(g)
            assert g.edge_count == n * (n - 1) // 2
        for a in range(5):
            for b in range(5):
                g = complete_bipartite(a, b)
                assert_library_rows(g)
                assert g.edge_count == a * b

    def test_induced_subgraphs(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(0, 12)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = SimpleGraph(
                n,
                edges=rng.sample(pairs, rng.randint(0, len(pairs))),
                tags=None if rng.random() < 0.5 else [f"t{v}" for v in range(n)],
            )
            sub = induced_subgraph(g, rng.sample(range(n), rng.randint(0, n)))
            assert_library_rows(sub)
            assert_library_rows(complement(sub))
