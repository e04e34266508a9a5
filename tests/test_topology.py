import itertools
import json
import re

import pytest

import epgc.topology as topology
from epgc.cli import main
from epgc.epg import build_bundle
from epgc.graphs import (
    GraphError,
    SimpleGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
)
from epgc.groups import (
    catalog,
    group_from_name,
    make_cyclic,
)
from epgc.topology import (
    EmbeddingError,
    RotationSystem,
    SearchBudgetExceeded,
    classify_surface,
    complete_multipartite_parts,
    crosscap_complete,
    euler_lower_bounds,
    face_walks,
    genus_complete,
    is_outerplanar,
    is_planar,
    rotation_from_text,
    rotation_to_text,
    search_embedding,
    verdict_to_dict,
    verify_embedding,
)
from epgc.verify import reports_to_json, run_all
from oracles import connected_graphs, embeds_exactly, map_surface


def glued(*parts):
    """Graphs on vertices 0..k, glued at their vertex 0."""
    edges, top = [], 0
    for part in parts:
        relabel = {v: v + top if v else 0 for e in part for v in e}
        edges += [(relabel[u], relabel[v]) for u, v in part]
        top = max(relabel.values())
    return SimpleGraph(top + 1, edges=edges)


K5_EDGES = complete_graph(5).edges()
K33_EDGES = complete_bipartite(3, 3).edges()
TWO_K5 = glued(K5_EDGES, K5_EDGES)
TWO_K33 = glued(K33_EDGES, K33_EDGES)
K33_K5 = glued(K33_EDGES, K5_EDGES)
K6_PENDANT = SimpleGraph(7, edges=complete_graph(6).edges() + [(5, 6)])
K1222 = SimpleGraph(
    7,
    edges=[
        (u, v)
        for a, b in itertools.combinations(((0,), (1, 2), (3, 4), (5, 6)), 2)
        for u in a
        for v in b
    ],
)


def raw_search(g, target, orientable):
    """The search kernel alone, without the bound search_embedding checks
    first."""
    faces = g.edge_count - g.n + 2 - (2 * target if orientable else target)
    return topology._search(
        g, faces, topology._face_min_length(g), 10**8, signed=not orientable
    )


class TestRotationSystem:
    def test_rejects_non_permutation(self):
        g = complete_graph(3)
        with pytest.raises(EmbeddingError):
            RotationSystem(g, ((1, 1), (0, 2), (0, 1)))

    def test_rejects_wrong_sign_cover(self):
        g = complete_graph(3)
        rot = ((1, 2), (0, 2), (0, 1))
        with pytest.raises(EmbeddingError):
            RotationSystem(g, rot, (((0, 1), -1),))

    def test_rejects_bad_sign_value(self):
        g = complete_graph(3)
        rot = ((1, 2), (0, 2), (0, 1))
        signs = tuple((e, 0) for e in g.edges())
        with pytest.raises(EmbeddingError):
            RotationSystem(g, rot, signs)


class TestVerifyEmbedding:
    def test_k4_planar_rotation_is_spherical(self):
        # triangle 0-1-2 with 3 in the middle, counterclockwise orders
        g = complete_graph(4)
        rot = ((1, 3, 2), (2, 3, 0), (0, 3, 1), (0, 1, 2))
        cert = RotationSystem(g, rot)
        kind, genus = verify_embedding(cert)
        assert (kind, genus) == ("orientable", 0)
        assert len(face_walks(cert)) == 4

    def test_k4_ascending_rotation_is_toroidal(self):
        # the all-ascending rotation of K4 wraps around the torus instead
        g = complete_graph(4)
        rot = tuple(tuple(g.neighbors(v)) for v in range(4))
        assert verify_embedding(RotationSystem(g, rot)) == ("orientable", 1)

    def test_cycle_two_faces(self):
        g = cycle_graph(5)
        rot = tuple(tuple(g.neighbors(v)) for v in range(5))
        assert verify_embedding(RotationSystem(g, rot)) == ("orientable", 0)
        assert len(face_walks(RotationSystem(g, rot))) == 2

    def test_k5_bad_rotation_is_toroidal_or_worse(self):
        g = complete_graph(5)
        rot = tuple(tuple(g.neighbors(v)) for v in range(5))
        kind, genus = verify_embedding(RotationSystem(g, rot))
        assert kind == "orientable" and genus >= 1

    def test_signed_triangle_in_projective_plane(self):
        # one twisted edge makes the 3-cycle one-sided: a single hexagonal face
        g = complete_graph(3)
        rot = ((1, 2), (0, 2), (0, 1))
        signs = (((0, 1), -1), ((0, 2), 1), ((1, 2), 1))
        kind, crosscap = verify_embedding(RotationSystem(g, rot, signs))
        assert (kind, crosscap) == ("nonorientable", 1)

    def test_signed_but_orientable_signature(self):
        # two twisted edges on a cycle cancel: still the sphere
        g = complete_graph(3)
        rot = ((1, 2), (0, 2), (0, 1))
        signs = (((0, 1), -1), ((0, 2), -1), ((1, 2), 1))
        kind, genus = verify_embedding(RotationSystem(g, rot, signs))
        assert (kind, genus) == ("orientable", 0)

    def test_disconnected_rejected(self):
        g = SimpleGraph(4, edges=[(0, 1), (2, 3)])
        rot = ((1,), (0,), (3,), (2,))
        with pytest.raises(EmbeddingError):
            verify_embedding(RotationSystem(g, rot))


class TestSearchEmbedding:
    @pytest.mark.parametrize(
        "graph,genus,faces",
        [
            (complete_graph(4), 0, 4),
            (complete_graph(5), 1, 5),
            (complete_bipartite(3, 3), 1, 3),
            (complete_graph(7), 1, 14),
        ],
    )
    def test_selftest_graphs(self, graph, genus, faces):
        cert = search_embedding(graph, genus)
        assert cert is not None
        assert verify_embedding(cert) == ("orientable", genus)
        walks = face_walks(cert)
        assert len(walks) == faces
        assert sum(len(w) for w in walks) == 2 * graph.edge_count
        chi = graph.n - graph.edge_count + len(walks)
        assert (2 - chi) % 2 == 0

    def test_k5_has_no_planar_embedding(self):
        assert search_embedding(complete_graph(5), 0) is None

    def test_k33_projective(self):
        cert = search_embedding(complete_bipartite(3, 3), 1, orientable=False)
        assert cert is not None
        assert verify_embedding(cert) == ("nonorientable", 1)

    def test_k5_projective(self):
        cert = search_embedding(complete_graph(5), 1, orientable=False)
        assert verify_embedding(cert) == ("nonorientable", 1)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SearchBudgetExceeded):
            search_embedding(complete_graph(7), 1, budget=3)

    def test_size_cap(self):
        with pytest.raises(GraphError):
            search_embedding(complete_graph(13), 1)

    def test_deterministic(self):
        a = search_embedding(complete_graph(5), 1)
        b = search_embedding(complete_graph(5), 1)
        assert a.rotations == b.rotations

    def test_trivial_vertex(self):
        g = SimpleGraph(1)
        cert = search_embedding(g, 0)
        assert cert.rotations == ((),)
        assert verify_embedding(cert) == ("orientable", 0)

    def test_exhaustive_refutation_of_genus_one(self):
        # two K5 blocks glued at a vertex have genus 2 (genus is additive
        # over blocks): the block-summed Euler bound refutes genus 1, while
        # the Euler count of the whole graph would admit it, so the raw
        # kernel still has to exhaust its search space
        assert search_embedding(TWO_K5, 1, budget=10**8) is None
        assert raw_search(TWO_K5, 1, orientable=True) is None

    @pytest.mark.parametrize("budget", [0, -5])
    def test_non_positive_budget_rejected(self, budget):
        with pytest.raises(GraphError, match=str(budget)):
            search_embedding(complete_graph(5), 1, budget=budget)


def reduced(name):
    return build_bundle(group_from_name(name)).reduced


class TestBranchingOrder:
    """Known answers that pin the search's branching order: the least node
    budget that lets each search finish.  Any change to the start-state
    order, the sign order or the neighbour order moves these counts."""

    @pytest.mark.parametrize(
        "graph,target,orientable,nodes,found",
        [
            (K1222, 1, False, 25786, False),
            (reduced("Z2xZ4"), 1, False, 69118, True),
            (reduced("D8"), 1, True, 633, True),
            (reduced("D8"), 1, False, 1406, True),
        ],
        ids=["k1222-c1", "z2xz4-c1", "d8-g1", "d8-c1"],
    )
    def test_least_completing_budget(self, graph, target, orientable, nodes, found):
        cert = search_embedding(graph, target, orientable=orientable, budget=nodes)
        assert (cert is not None) == found
        with pytest.raises(SearchBudgetExceeded) as exc:
            search_embedding(graph, target, orientable=orientable, budget=nodes - 1)
        assert exc.value.nodes == nodes

    def test_z2xz4_crosscap_one_certificate(self):
        cert = search_embedding(reduced("Z2xZ4"), 1, orientable=False)
        assert rotation_to_text(cert) == (
            "0: 3 6 4 5\n"
            "1: 3 5\n"
            "2: 3 4 5 6\n"
            "3: 0 1 5 6 4 2\n"
            "4: 0 3 2 5\n"
            "5: 0 4 2 6 3 1\n"
            "6: 0 2 5 3\n"
            "signs: 2-4 2-5 3-4 3-6 5-6\n"
        )


@pytest.fixture(scope="module")
def small_graphs():
    return connected_graphs(5) + [complete_bipartite(3, 3)]


class TestSearchAgainstOracle:
    """The search against every rotation system (and every co-tree signing)
    of each connected graph on at most 5 vertices, plus K3,3, surfaced by the
    oracle's own flag-based tracer."""

    @pytest.mark.parametrize("target,orientable", [(0, True), (1, True), (1, False)])
    def test_certificate_exactly_when_reachable(self, small_graphs, target, orientable):
        kind = "orientable" if orientable else "nonorientable"
        for g in small_graphs:
            cert = search_embedding(g, target, orientable=orientable)
            assert (cert is not None) == embeds_exactly(g, target, orientable), g.edges()
            if cert is not None and g.edge_count:
                twisted = {e for e, s in cert.edge_signs or () if s < 0}
                assert map_surface(g, cert.rotations, twisted) == (kind, target), g.edges()


class TestBlockBoundSoundness:
    """search_embedding returns None exactly when the search kernel alone
    exhausts its space, and the same certificate otherwise: the
    block-summed Euler bound only removes search work."""

    @staticmethod
    def agree(g, target, orientable):
        cert = search_embedding(g, target, orientable=orientable)
        raw = raw_search(g, target, orientable)
        assert (cert is None) == (raw is None), g.edges()
        if cert is not None:
            assert cert.rotations == raw[0], g.edges()

    @pytest.mark.parametrize("target,orientable", [(0, True), (1, True), (1, False)])
    def test_small_graphs(self, small_graphs, target, orientable):
        for g in small_graphs:
            if g.edge_count:
                self.agree(g, target, orientable)

    @pytest.mark.parametrize(
        "g,target,orientable",
        [
            (TWO_K5, 0, True),
            (TWO_K33, 0, True),
            (TWO_K33, 1, True),
            (TWO_K33, 1, False),
            (K33_K5, 0, True),
            (K33_K5, 1, True),
        ],
        ids=["k5.k5-g0", "k33.k33-g0", "k33.k33-g1", "k33.k33-c1", "k33.k5-g0", "k33.k5-g1"],
    )
    def test_separable_graphs(self, g, target, orientable):
        # two K5s at genus 1 are checked by
        # test_exhaustive_refutation_of_genus_one; crosscap 1 on the graphs
        # with a K5 block is left out, as the kernel alone runs for minutes
        self.agree(g, target, orientable)


class TestFormulas:
    def test_paper_values(self):
        assert genus_complete(7) == 1
        assert crosscap_complete(7) == 3  # exceptional case
        assert genus_complete(5) == 1

    def test_classical_values(self):
        assert genus_complete(3) == 0
        assert genus_complete(6) == 1
        assert genus_complete(8) == 2
        assert crosscap_complete(5) == 1
        assert crosscap_complete(6) == 1
        assert crosscap_complete(8) == 4

    def test_formulas_match_certificates_where_derivable(self):
        # genus-1 lower bounds confirmed by searched certificates
        for graph, expect in [
            (complete_graph(5), genus_complete(5)),
            (complete_graph(6), genus_complete(6)),
            (complete_graph(7), genus_complete(7)),
            (complete_bipartite(3, 3), euler_lower_bounds(complete_bipartite(3, 3))[0]),
            (complete_bipartite(4, 4), euler_lower_bounds(complete_bipartite(4, 4))[0]),
        ]:
            assert expect == 1
            cert = search_embedding(graph, 1)
            assert verify_embedding(cert) == ("orientable", 1)
            assert search_embedding(graph, 0) is None

    def test_range_errors(self):
        with pytest.raises(GraphError):
            genus_complete(2)
        with pytest.raises(GraphError):
            crosscap_complete(2)


class TestOuterplanarPlanar:
    def test_k3_outerplanar(self):
        ok, _ = is_outerplanar(complete_graph(3))
        assert ok

    def test_s3_reduced_not_outerplanar_k4(self):
        bundle = build_bundle(group_from_name("S3"))
        ok, witness = is_outerplanar(bundle.reduced)
        assert not ok and witness["target"] == "K4"

    def test_q8_reduced_not_outerplanar_but_planar(self):
        bundle = build_bundle(group_from_name("Q8"))
        ok, witness = is_outerplanar(bundle.reduced)
        assert not ok
        assert is_planar(bundle.reduced)[0]

    def test_s3_reduced_planar(self):
        bundle = build_bundle(group_from_name("S3"))
        assert is_planar(bundle.reduced)[0]

    def test_z2xz4_reduced_not_planar(self):
        bundle = build_bundle(group_from_name("Z2xZ4"))
        ok, witness = is_planar(bundle.reduced)
        assert not ok and witness["target"] == "K5"
        # is_planar stops at the K5 subdivision; a K3,3 one is present too
        from epgc.subgraphs import contains_subdivision

        assert contains_subdivision(bundle.reduced, "K33")[0]

    def test_first_kuratowski_witness(self):
        # K5 is looked for first, so only a graph without a K5 subdivision
        # gets a K3,3 witness
        for g, target, k in (
            (complete_graph(6), "K5", 5),
            (complete_bipartite(3, 3), "K33", 6),
            (K6_PENDANT, "K5", 5),
        ):
            ok, witness = is_planar(g)
            assert not ok
            assert witness["target"] == target
            assert len(set(witness["branch_vertices"])) == k
        # the pendant vertex 6 has degree 1, so it is no branch vertex
        assert 6 not in is_planar(K6_PENDANT)[1]["branch_vertices"]

    def test_d8_reduced_contains_k5_on_claimed_vertices(self):
        bundle = build_bundle(group_from_name("D8"))
        labels = list(bundle.reduced.tags)
        five = [labels.index(s) for s in ("x", "y", "xy", "x2y", "x3y")]
        for i, u in enumerate(five):
            for v in five[i + 1:]:
                assert bundle.reduced.has_edge(u, v)

    def test_q8_reduced_k23_within_named_set(self):
        bundle = build_bundle(group_from_name("Q8"))
        labels = list(bundle.reduced.tags)
        a = [labels.index(s) for s in ("i", "-i")]
        b = [labels.index(s) for s in ("j", "-j", "k")]
        for u in a:
            for v in b:
                assert bundle.reduced.has_edge(u, v)


# Lower bounds the obstruction menu (K5, K7, K8 and six K_{a,b} subgraphs with
# their closed-form genus and crosscap) gave, floored at 1, before the Euler
# bound replaced it: every non-planar non-cyclic group of catalog(32).
MENU_BOUNDS = {
    **{
        name: (3, 6)
        for name in (
            "D16", "D18", "D20", "D22", "D24", "D26", "D28", "D30", "D32",
            "Q16", "Q20", "Q24", "Q28", "Q32", "S4",
            "Z2xZ10", "Z2xZ12", "Z2xZ14", "Z2xZ16", "Z2xZ8",
            "Z2xZ2xZ2xZ2", "Z2xZ2xZ2xZ2xZ2", "Z2xZ2xZ2xZ4", "Z2xZ2xZ4",
            "Z2xZ2xZ6", "Z2xZ2xZ8", "Z2xZ4xZ4", "Z3xZ3xZ3", "Z3xZ6", "Z3xZ9",
            "Z4xZ4", "Z4xZ8", "Z5xZ5",
            "A4", "D12", "D14",
        )
    },
    "D10": (2, 3),
    "Q12": (2, 4),
    "Z3xZ3": (1, 2),
    "Z2xZ2xZ2": (1, 3),
    "D8": (1, 1),
    "Z2xZ4": (1, 1),
    "Z2xZ6": (1, 1),
}


class TestEulerBound:
    def test_planar_graph_no_bounds(self):
        assert euler_lower_bounds(complete_graph(4))[:2] == (0, 0)
        assert euler_lower_bounds(SimpleGraph(1))[:2] == (0, 0)

    @pytest.mark.parametrize("target,orientable", [(0, True), (1, True), (1, False)])
    def test_never_exceeds_the_oracle_surface(self, small_graphs, target, orientable):
        tight = 0
        for g in small_graphs:
            if not embeds_exactly(g, target, orientable):
                continue
            genus_lb, crosscap_lb, _ = euler_lower_bounds(g)
            bound = genus_lb if orientable else crosscap_lb
            assert bound <= target, g.edges()
            if target == 0:
                assert crosscap_lb == 0, g.edges()
            tight += bound == target
        assert tight

    def test_complete_graphs(self):
        for r in range(3, 13):
            genus_lb, crosscap_lb, _ = euler_lower_bounds(complete_graph(r))
            assert genus_lb == genus_complete(r)
            if r != 7:
                assert crosscap_lb == crosscap_complete(r)
        # K7 is the one complete graph whose crosscap Euler undershoots
        assert euler_lower_bounds(complete_graph(7))[1] == 2 < crosscap_complete(7)

    def test_classical_bipartite_values(self):
        assert euler_lower_bounds(complete_bipartite(3, 3))[:2] == (1, 1)
        assert euler_lower_bounds(complete_bipartite(4, 4))[0] == 1
        assert euler_lower_bounds(complete_bipartite(4, 5))[:2] == (2, 3)
        assert euler_lower_bounds(complete_bipartite(5, 6))[:2] == (3, 6)

    def test_block_sums(self):
        for g in (TWO_K5, TWO_K33, K33_K5):
            assert euler_lower_bounds(g) == (
                2, 2, "Euler over 2 blocks: genus >= 2, crosscap >= 2"
            )
        tree = SimpleGraph(5, edges=[(0, 1), (1, 2), (1, 3), (3, 4)])
        assert euler_lower_bounds(tree)[:2] == (0, 0)
        assert euler_lower_bounds(K6_PENDANT)[:2] == euler_lower_bounds(complete_graph(6))[:2]
        assert euler_lower_bounds(complete_graph(6))[:2] == (genus_complete(6), crosscap_complete(6))

    def test_evidence_names_face_length_and_chi(self):
        bundle = build_bundle(group_from_name("A4"))
        assert euler_lower_bounds(bundle.reduced) == (
            4,
            8,
            "Euler: faces of length >= 3 give chi <= -6: genus >= 4, crosscap >= 8",
        )

    def test_z2_cubed_reduced_k7(self):
        bundle = build_bundle(group_from_name("Z2xZ2xZ2"))
        assert euler_lower_bounds(bundle.reduced)[:2] == (1, 2)
        v = classify_surface(bundle)
        assert (v.genus_lower, v.crosscap_lower) == (1, 3)
        assert any("reduced graph is K7" in e for e in v.evidence)

    def test_never_weaker_than_the_obstruction_menu(self):
        seen = set()
        for group in catalog(32):
            if group.name not in MENU_BOUNDS:
                continue
            seen.add(group.name)
            bundle = build_bundle(group)
            if group.name == "Z2xZ2xZ2":
                v = classify_surface(bundle)
                bounds = (v.genus_lower, v.crosscap_lower)
            else:
                genus_lb, crosscap_lb, _ = euler_lower_bounds(bundle.reduced)
                bounds = (max(1, genus_lb), max(1, crosscap_lb))
            menu = MENU_BOUNDS[group.name]
            assert bounds[0] >= menu[0] and bounds[1] >= menu[1], group.name
        assert seen == set(MENU_BOUNDS)


class TestClassifySurface:
    def test_klein_four_outerplanar(self):
        v = classify_surface(build_bundle(group_from_name("Z2xZ2")))
        assert v.outerplanar and v.planar
        assert (v.genus_lower, v.genus_upper) == (0, 0)
        assert (v.crosscap_lower, v.crosscap_upper) == (0, 0)

    def test_q8_planar_not_outerplanar(self):
        v = classify_surface(build_bundle(group_from_name("Q8")))
        assert v.planar and not v.outerplanar
        assert "genus0" in v.certificates

    def test_d8_projective_and_toroidal(self):
        v = classify_surface(build_bundle(group_from_name("D8")))
        assert not v.planar
        assert v.toroidal and v.projective
        assert verify_embedding(v.certificates["genus1"]) == ("orientable", 1)
        assert verify_embedding(v.certificates["crosscap1"]) == ("nonorientable", 1)

    def test_z2xz6_toroidal_with_pinned_crosscap(self):
        v = classify_surface(build_bundle(group_from_name("Z2xZ6")))
        assert v.toroidal
        assert (v.crosscap_lower, v.crosscap_upper) == (3, 3)
        assert v.pinned
        assert any("Ellingham" in e for e in v.evidence)

    def test_z3xz3_pinned(self):
        v = classify_surface(build_bundle(group_from_name("Z3xZ3")))
        assert v.toroidal and v.pinned
        assert (v.crosscap_lower, v.crosscap_upper) == (3, 3)
        assert any("Jungerman" in e for e in v.evidence)

    def test_z2_cubed_k7_formulas(self):
        v = classify_surface(build_bundle(group_from_name("Z2xZ2xZ2")))
        assert v.toroidal
        assert (v.crosscap_lower, v.crosscap_upper) == (3, 3)
        assert not v.pinned  # complete-graph formula, not a pinned constant
        assert "genus1" in v.certificates

    def test_d12_bounds_reach_k56_values(self):
        # D12's reduced graph contains K_{5,6}: genus 3, crosscap 6
        v = classify_surface(build_bundle(group_from_name("D12")))
        assert v.genus_lower >= 3 and v.crosscap_lower >= 6
        assert sum(e.startswith("Euler:") for e in v.evidence) == 1

    def test_cyclic_vacuous(self):
        v = classify_surface(build_bundle(make_cyclic(9)))
        assert v.vacuous
        assert v.crosscap_upper == 0

    def test_budget_limited_is_flagged(self):
        v = classify_surface(build_bundle(group_from_name("Z3xZ3")), budget=2)
        assert v.budget_limited
        assert v.genus_upper is None
        assert v.genus_lower == 1
        # the pinned crosscap is untouched by the budget
        assert (v.crosscap_lower, v.crosscap_upper) == (3, 3)

    def test_planar_budget_limited_is_inconclusive(self, capsys):
        v = classify_surface(build_bundle(group_from_name("Z2xZ2")), budget=1)
        assert v.planar and v.budget_limited
        assert (v.genus_lower, v.genus_upper) == (0, None)
        assert (v.crosscap_lower, v.crosscap_upper) == (0, None)
        assert not v.certificates
        assert main(["classify", "--group", "Z2xZ2", "--budget", "1", "--format", "json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["planar"] and d["budget_limited"]
        assert d["genus_upper"] is None and d["crosscap_upper"] is None
        assert any("budget exhausted" in e for e in d["evidence"])

    def test_verdict_dict_round_trips_certificates(self):
        v = classify_surface(build_bundle(group_from_name("D8")))
        d = verdict_to_dict(v)
        for key, text in d["certificates"].items():
            cert = rotation_from_text(text, v.certificates[key].graph)
            assert verify_embedding(cert) == verify_embedding(v.certificates[key])


class TestCertificateIO:
    def test_round_trip_unsigned(self):
        cert = search_embedding(complete_graph(5), 1)
        text = rotation_to_text(cert)
        back = rotation_from_text(text, complete_graph(5))
        assert back.rotations == cert.rotations
        assert verify_embedding(back) == ("orientable", 1)

    def test_round_trip_signed(self):
        cert = search_embedding(complete_bipartite(3, 3), 1, orientable=False)
        text = rotation_to_text(cert)
        assert "signs:" in text
        back = rotation_from_text(text, complete_bipartite(3, 3))
        assert verify_embedding(back) == ("nonorientable", 1)

    K4_TEXT = "0: 1 3 2\n1: 0 2 3\n2: 0 3 1\n3: 0 1 2\n"

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("9: 1 2", "line 5: vertex 9 is not in the graph"),
            ("-1: 2", "line 5: vertex -1 is not in the graph"),
            ("signs: 0-9", "line 5: signed pair 0-9 is not an edge"),
            ("signs: 2-2", "line 5: signed pair 2-2 is not an edge"),
            ("0: 1 2 3", "line 5: second rotation line for vertex 0"),
            ("zz: 1", "line 5: expected 'v: w ...' or 'signs: u-v ...' with integers, got 'zz: 1'"),
            ("signs: 0-x", "line 5: expected .* got 'signs: 0-x'"),
        ],
    )
    def test_bad_line_names_its_number(self, extra, message):
        with pytest.raises(EmbeddingError, match=message):
            rotation_from_text(self.K4_TEXT + extra + "\n", complete_graph(4))

    def test_second_signs_line(self):
        text = self.K4_TEXT + "signs: 0-1\n\nsigns:\n"
        with pytest.raises(EmbeddingError, match="line 7: second signs line"):
            rotation_from_text(text, complete_graph(4))

    def test_multipartite_detection(self):
        assert complete_multipartite_parts(complete_graph(7)) == (1,) * 7
        assert complete_multipartite_parts(complete_bipartite(2, 4)) == (2, 4)
        assert complete_multipartite_parts(cycle_graph(5)) is None


SHIPPED = list(topology._shipped_certificates().values())


def shipped_target(entry):
    """(target, orientable) of a shipped entry's surface name."""
    kind, target = re.fullmatch(r"(genus|crosscap)(\d+)", entry["surface"]).groups()
    return int(target), kind == "genus"


def shipped_graph(entry):
    return SimpleGraph(entry["n"], edges=[tuple(e) for e in entry["edges"]])


def shipped_for(g, table=None):
    """The (key, entry) pairs of the shipped table that are about graph g."""
    table = topology._shipped_certificates() if table is None else table
    return [(k, e) for k, e in table.items() if k[1:] == (g.n, tuple(g.edges()))]


def search_only(monkeypatch):
    """Switch the shipped table off, so every certificate comes from a search."""
    monkeypatch.setattr(topology, "_shipped_certificates", lambda: {})


class TestShippedCertificates:
    """``fixtures/certificates.json`` holds each certificate the search finds
    on catalog(15), with the least budget that finds it; classify_surface
    re-traces an entry instead of searching, and falls back to the search on
    an entry that does not trace."""

    ids = [f"{e['surface']}-n{e['n']}-m{len(e['edges'])}" for e in SHIPPED]

    @pytest.mark.parametrize("entry", SHIPPED, ids=ids)
    def test_entry_is_what_the_search_finds(self, entry):
        g, (target, orientable) = shipped_graph(entry), shipped_target(entry)
        cert = search_embedding(g, target, orientable=orientable, budget=entry["nodes"])
        assert rotation_to_text(cert) == entry["rotation"]
        with pytest.raises(SearchBudgetExceeded) as exc:
            search_embedding(g, target, orientable=orientable, budget=entry["nodes"] - 1)
        assert exc.value.nodes == entry["nodes"]

    @pytest.mark.parametrize("entry", SHIPPED, ids=ids)
    def test_entry_traces_to_its_surface(self, entry):
        target, orientable = shipped_target(entry)
        cert = rotation_from_text(entry["rotation"], shipped_graph(entry))
        assert verify_embedding(cert) == ("orientable" if orientable else "nonorientable", target)

    def test_run_all_runs_no_search(self, monkeypatch):
        search_only(monkeypatch)
        searched = reports_to_json(run_all())
        monkeypatch.undo()

        def must_not_search(*args, **kwargs):
            raise AssertionError("run_all ran an embedding search")

        monkeypatch.setattr(topology, "search_embedding", must_not_search)
        assert reports_to_json(run_all()) == searched

    @pytest.mark.parametrize(
        "name", ["Z2xZ2", "S3", "Z2xZ4", "Z2xZ2xZ2", "D8", "Q8", "Z3xZ3", "Z2xZ6"]
    )
    def test_budget_rule_matches_the_search(self, monkeypatch, name):
        bundle = build_bundle(group_from_name(name))
        nodes = [e["nodes"] for _, e in shipped_for(bundle.reduced)]
        assert nodes
        budgets = sorted({1, 2, 100, *nodes, *(k - 1 for k in nodes if k > 1)})
        shipped = [verdict_to_dict(classify_surface(bundle, budget=b)) for b in budgets]
        search_only(monkeypatch)
        assert shipped == [verdict_to_dict(classify_surface(bundle, budget=b)) for b in budgets]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text, other: text.replace("0:", "0: x", 1),
            lambda text, other: text.replace("\n", " 0\n", 1),
            lambda text, other: other,
        ],
        ids=["unparsable", "not-a-rotation", "other-surface"],
    )
    def test_corrupted_entry_falls_back_to_the_search(self, monkeypatch, corrupt):
        # D8 has a genus-1 and a crosscap-1 entry; "other-surface" swaps them
        bundle = build_bundle(group_from_name("D8"))
        expected = verdict_to_dict(classify_surface(bundle))
        table = dict(topology._shipped_certificates())
        pairs = shipped_for(bundle.reduced, table)
        assert len(pairs) == 2
        for (k, e), (_, other) in zip(pairs, pairs[::-1]):
            table[k] = {**e, "rotation": corrupt(e["rotation"], other["rotation"])}
        monkeypatch.setattr(topology, "_shipped_certificates", lambda: table)
        searches = []
        search = topology.search_embedding

        def counted(*args, **kwargs):
            searches.append(args[1:])
            return search(*args, **kwargs)

        monkeypatch.setattr(topology, "search_embedding", counted)
        assert verdict_to_dict(classify_surface(bundle)) == expected
        assert len(searches) == 2

    def test_argument_errors_are_the_searchs(self):
        with pytest.raises(GraphError, match="budget must be at least 1, got 0"):
            classify_surface(build_bundle(group_from_name("D8")), budget=0)
