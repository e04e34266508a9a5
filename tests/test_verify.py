import copy
import json

import pytest

from epgc.epg import build_bundle
from epgc.groups import catalog
from epgc.verify import (
    FAIL,
    PARTIAL,
    PASS,
    VACUOUS,
    load_fixtures,
    render_report,
    reports_to_json,
    run_all,
    verify_bipartite_girth_perfect,
    verify_c_cyclic,
    verify_dominatable_complete,
    verify_eulerian,
    verify_no_two_maximal,
    verify_one_component,
    verify_surface_classification,
    verify_table1,
)


@pytest.fixture(scope="module")
def reports():
    return run_all()


def by_id(reports, claim_id):
    return next(r for r in reports if r.claim_id == claim_id)


class TestRunAll:
    def test_eight_reports(self, reports):
        assert len(reports) == 8

    def test_all_pass_or_partial(self, reports):
        for r in reports:
            assert r.status in (PASS, PARTIAL), f"{r.claim_id}: {r.status}"

    def test_only_surface_report_is_partial(self, reports):
        for r in reports:
            expected = PARTIAL if r.claim_id == "surface-classification" else PASS
            assert r.status == expected

    def test_partial_entries_are_the_pinned_groups(self, reports):
        surface = by_id(reports, "surface-classification")
        partial = {e["group"] for e in surface.per_group if e["status"] == PARTIAL}
        assert partial == {"Z3xZ3", "Z2xZ6"}

    def test_deterministic_output(self):
        a = reports_to_json(run_all())
        b = reports_to_json(run_all())
        assert a == b

    def test_json_round_trip(self, reports):
        parsed = json.loads(reports_to_json(reports))
        assert [r["claim_id"] for r in parsed] == [r.claim_id for r in reports]

    def test_bundles_built_once(self, monkeypatch):
        built = []

        def counting(g, *args):
            built.append(g.name)
            return build_bundle(g, *args)

        monkeypatch.setattr("epgc.verify.build_bundle", counting)
        run_all()
        # each catalog group once, plus the D6..D20 and Q8..Q40 Eulerian sweeps
        assert len(built) == 28 + 17
        assert built[:28] == [g.name for g in catalog(15)]
        built.clear()
        run_all(claims=("maximal-cyclic-table", "no-two-maximal"))
        assert built == []

    def test_unknown_claim_rejected(self):
        with pytest.raises(KeyError):
            run_all(claims=("no-such-claim",))


class TestTable1:
    def test_pass(self):
        report = verify_table1()
        assert report.status == PASS
        assert len(report.per_group) == 28

    def test_fail_injection_flips_exactly_one_claim(self):
        fixtures = copy.deepcopy(load_fixtures())
        fixtures["maximal_cyclic_table"]["expected"]["D8"] = [4, 2, 2, 2]
        bad = verify_table1(fixtures=fixtures)
        assert bad.status == FAIL
        failing = [e for e in bad.per_group if e["status"] == FAIL]
        assert [e["group"] for e in failing] == ["D8"]
        assert failing[0]["observed"]["sizes"] == [4, 2, 2, 2, 2]
        # the other claims still pass with the perturbed fixtures
        assert verify_one_component(fixtures=fixtures).status == PASS
        assert verify_no_two_maximal(fixtures=fixtures).status == PASS

    def test_small_scope(self):
        report = verify_table1(max_order=8)
        assert len(report.per_group) == 14
        assert report.status == PASS


class TestIndividualClaims:
    def test_no_two_maximal_extension_scope(self):
        report = verify_no_two_maximal()
        assert report.status == PASS
        assert len(report.per_group) == len(catalog(32))

    def test_one_component_vacuous_on_cyclic(self):
        report = verify_one_component()
        entry = next(e for e in report.per_group if e["group"] == "Z12")
        assert entry["status"] == VACUOUS

    def test_bipartite_report_covers_cyclics_nonvacuously(self):
        report = verify_bipartite_girth_perfect()
        entry = next(e for e in report.per_group if e["group"] == "Z13")
        assert entry["status"] == PASS
        assert entry["observed"] == {"bipartite": True, "girth": "inf"}

    def test_bipartite_report_weakly_perfect_values(self):
        report = verify_bipartite_girth_perfect()
        d14 = next(e for e in report.per_group if e["group"] == "D14")
        assert d14["observed"]["omega"] == d14["observed"]["chi"] == 8
        z3z3 = next(e for e in report.per_group if e["group"] == "Z3xZ3")
        assert z3z3["observed"]["chi"] == 4

    def test_dominatable(self):
        report = verify_dominatable_complete()
        assert report.status == PASS
        q8 = next(e for e in report.per_group if e["group"] == "Q8")
        assert q8["observed"]["dominating_vertex"] is False
        d8 = next(e for e in report.per_group if e["group"] == "D8")
        assert d8["observed"]["dominating_vertex"] is True
        z23 = next(e for e in report.per_group if e["group"] == "Z2xZ2xZ2")
        assert z23["observed"]["complete"] is True

    def test_eulerian_families(self):
        report = verify_eulerian()
        assert report.status == PASS
        d10 = next(e for e in report.per_group if e["group"] == "D10")
        assert d10["observed"]["eulerian"] is False
        q12 = next(e for e in report.per_group if e["group"] == "Q12")
        assert q12["observed"]["eulerian"] is True
        z3z3 = next(e for e in report.per_group if e["group"] == "Z3xZ3")
        assert z3z3["observed"]["eulerian"] is True
        sweep_names = {e["group"] for e in report.per_group if "sweep" in e["group"]}
        assert {"D6 (family sweep)", "D20 (family sweep)", "Q8 (family sweep)",
                "Q40 (family sweep)"} <= sweep_names

    def test_c_cyclic_values(self):
        report = verify_c_cyclic()
        assert report.status == PASS
        klein = next(e for e in report.per_group if e["group"] == "Z2xZ2")
        assert klein["observed"]["c"] == 1
        s3 = next(e for e in report.per_group if e["group"] == "S3")
        assert s3["observed"]["c"] == 5
        q8 = next(e for e in report.per_group if e["group"] == "Q8")
        assert q8["observed"]["c"] == 7
        for e in report.per_group:
            if e["status"] != VACUOUS:
                assert e["observed"]["forbidden"] is False

    def test_c_cyclic_fail_injection(self):
        fixtures = copy.deepcopy(load_fixtures())
        fixtures["cyclomatic_classification"]["unicyclic_groups"] = ["Q8"]
        report = verify_c_cyclic(fixtures=fixtures)
        assert report.status == FAIL
        failing = {e["group"] for e in report.per_group if e["status"] == FAIL}
        assert failing == {"Z2xZ2", "Q8"}

    def test_surface_classification_sets(self):
        report = verify_surface_classification()
        assert report.status == PARTIAL
        observed_planar = {
            e["group"]
            for e in report.per_group
            if e["status"] != VACUOUS and e["observed"]["planar"]
        }
        assert observed_planar == {"Z2xZ2", "S3", "Q8"}
        observed_toroidal = {
            e["group"]
            for e in report.per_group
            if e["status"] != VACUOUS and e["observed"]["toroidal"]
        }
        assert observed_toroidal == {"D8", "Z2xZ4", "Z3xZ3", "Z2xZ6", "Z2xZ2xZ2"}
        for e in report.per_group:
            if e["status"] != VACUOUS:
                assert e["observed"]["crosscap_window_ok"] is True
                assert e["observed"]["beyond_bounds_ok"] is True

    def test_surface_fail_injection(self):
        fixtures = copy.deepcopy(load_fixtures())
        fixtures["surface_classification"]["planar"] = ["Z2xZ2", "S3"]
        report = verify_surface_classification(fixtures=fixtures)
        assert report.status == FAIL
        failing = {e["group"] for e in report.per_group if e["status"] == FAIL}
        assert failing == {"Q8"}

    def test_budget_limited_surface_is_partial(self):
        reports = run_all(budget=1)
        statuses = {r.claim_id: r.status for r in reports}
        assert statuses.pop("surface-classification") == PARTIAL
        assert set(statuses.values()) == {PASS}
        surface = by_id(reports, "surface-classification")
        open_entries = {e["group"] for e in surface.per_group if e["status"] == PARTIAL}
        # every group whose classification runs a certificate search: the
        # planar ones stop at the genus-0 search, the others at genus 1 or
        # crosscap 1
        assert open_entries == {
            "Z2xZ2", "S3", "Q8", "D8", "Z2xZ4", "Z3xZ3", "Z2xZ6", "Z2xZ2xZ2"
        }

    def test_budget_limited_fail_injection(self):
        fixtures = copy.deepcopy(load_fixtures())
        fixtures["surface_classification"]["planar"] = ["Z2xZ2", "S3"]
        report = verify_surface_classification(fixtures=fixtures, budget=1)
        assert report.status == FAIL
        failing = {e["group"] for e in report.per_group if e["status"] == FAIL}
        assert failing == {"Q8"}


class TestRendering:
    def test_render_contains_status(self, reports):
        text = render_report(reports[0])
        assert text.startswith("[PASS] maximal-cyclic-table")

    def test_render_verbose_lists_groups(self, reports):
        text = render_report(reports[0], verbose=True)
        assert "Z2xZ4" in text
