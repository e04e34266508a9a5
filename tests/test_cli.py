import json

import pytest

from epgc.cli import main
from epgc.groups import format_cayley_table, make_dihedral


class TestShow:
    def test_q8_summary(self, capsys):
        assert main(["show", "--group", "Q8"]) == 0
        out = capsys.readouterr().out
        assert "maximal cyclic subgroups: 3" in out
        assert "[4, 4, 4]" in out
        assert "{1, -1}" in out

    def test_json(self, capsys):
        assert main(["show", "--group", "Z2xZ6", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["maximal_cyclic_sizes"] == [6, 6, 6]

    def test_unknown_group_usage_error(self, capsys):
        assert main(["show", "--group", "XYZ"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "selector,message",
        [
            ("D2", "dihedral order must be at least 4, got 2"),
            ("D:2", "dihedral order must be at least 4, got 2"),
            ("Q4", "dicyclic order must be at least 8, got 4"),
        ],
    )
    def test_too_small_order_usage_error(self, capsys, selector, message):
        assert main(["show", "--group", selector]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestBuild:
    def test_d8_reduced_dot(self, capsys):
        assert main(["build", "--group", "D8", "--graph", "reduced", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        # 7 non-isolated vertices (only the identity is isolated in D8)
        assert out.count("label=") == 7
        assert out.count(" -- ") == 18

    def test_complement_text(self, capsys):
        assert main(["build", "--group", "Q8", "--graph", "complement", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "8"

    def test_json_edges(self, capsys):
        assert main(["build", "--group", "Z2xZ2", "--graph", "epg", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 4
        assert len(data["edges"]) == 3


class TestInvariants:
    def test_s3_text(self, capsys):
        assert main(["invariants", "--group", "S3"]) == 0
        out = capsys.readouterr().out
        assert "girth: 3" in out
        assert "chromatic_number: 4" in out

    def test_cyclic_json(self, capsys):
        assert main(["invariants", "--group", "Z9", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["complement"]["girth"] == "inf"
        assert data["reduced"]["vertices"] == 0


class TestClassify:
    def test_d8(self, capsys):
        assert main(["classify", "--group", "D8"]) == 0
        out = capsys.readouterr().out
        assert "projective: True" in out
        assert "toroidal: True" in out

    def test_json(self, capsys):
        assert main(["classify", "--group", "Z2xZ2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["outerplanar"] is True
        assert data["genus_upper"] == 0

    def test_a4_euler_lower_bounds(self, capsys):
        assert main(["classify", "--group", "A4", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["genus_lower"], data["crosscap_lower"]) == (4, 8)
        assert (data["genus_upper"], data["crosscap_upper"]) == (None, None)

    def test_cache_dir_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--group", "D8", "--cache-dir", "x"])
        assert exc.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "verify"])
@pytest.mark.parametrize("budget", ["0", "-5", "many"])
def test_budget_must_be_positive(command, budget, capsys):
    argv = [command, "--budget", budget] + (["--group", "Z2xZ4"] if command == "classify" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--budget" in err and budget in err


class TestVerify:
    def test_all_claims_exit_zero(self, capsys):
        assert main(["verify", "--max-order", "15", "--all"]) == 0
        out = capsys.readouterr().out
        assert "8 reports: 8 ok, 0 failed" in out

    def test_json_has_eight_reports(self, capsys):
        assert main(["verify", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 8
        statuses = {r["claim_id"]: r["status"] for r in data}
        assert statuses["surface-classification"] == "PARTIAL"

    def test_single_claim(self, capsys):
        assert main(["verify", "--claim", "no-two-maximal"]) == 0
        out = capsys.readouterr().out
        assert "1 reports: 1 ok, 0 failed" in out

    def test_budget_limited_exits_zero(self, capsys):
        assert main(["verify", "--budget", "1"]) == 0
        out = capsys.readouterr().out
        assert "[PARTIAL] surface-classification" in out
        assert "8 reports: 8 ok, 0 failed" in out

    def test_unknown_claim_usage_error(self, capsys):
        assert main(["verify", "--claim", "bogus"]) == 2

    def test_unknown_claim_is_checked_before_the_run(self, capsys, monkeypatch):
        import epgc.verify as verify_mod

        def must_not_run(**kwargs):
            raise AssertionError("run_all called with an unknown claim id")

        monkeypatch.setattr(verify_mod, "run_all", must_not_run)
        assert main(["verify", "--claim", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown claim id 'bogus'; known: maximal-cyclic-table")

    def test_all_and_claim_together_is_a_usage_error(self, capsys, monkeypatch):
        import epgc.verify as verify_mod

        def must_not_run(**kwargs):
            raise AssertionError("run_all called with both --all and --claim")

        monkeypatch.setattr(verify_mod, "run_all", must_not_run)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--all", "--claim", "eulerian"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument --all" in captured.err

    def test_key_error_inside_a_claim_is_not_a_usage_error(self, monkeypatch):
        import epgc.verify as verify_mod

        def broken(**kwargs):
            raise KeyError("inside a claim")

        monkeypatch.setattr(verify_mod, "run_all", broken)
        with pytest.raises(KeyError, match="inside a claim"):
            main(["verify", "--claim", "eulerian"])

    def test_failing_claim_exits_one(self, capsys, monkeypatch):
        import epgc.verify as verify_mod

        fixtures = verify_mod.load_fixtures()
        fixtures["maximal_cyclic_table"]["expected"]["Q8"] = [8]
        monkeypatch.setattr(verify_mod, "load_fixtures", lambda: fixtures)
        assert main(["verify", "--claim", "maximal-cyclic-table"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] maximal-cyclic-table" in out


class TestList:
    def test_order_12_rows(self, capsys):
        assert main(["list", "--max-order", "12"]) == 0
        out = capsys.readouterr().out
        assert "Q12" in out and "A4" in out
        assert len([ln for ln in out.splitlines() if ln and not ln.startswith(("name", "note"))]) == 24

    def test_bad_max_order_prints_nothing(self, capsys):
        assert main(["list", "--max-order", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: catalog needs max_order >= 1, got -3\n"


class TestIngest:
    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "d8.txt"
        path.write_text(format_cayley_table(make_dihedral(4)), encoding="utf-8")
        assert main(["ingest", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid group of order 8" in out
        assert "isomorphic to catalog group D8" in out

    def test_rejects_non_group(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n1 1\n", encoding="utf-8")
        assert main(["ingest", "--file", str(path)]) == 2
        assert "repeats" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["ingest", "--file", "/nonexistent/x.txt"]) == 2

    def test_directory_is_a_usage_error(self, tmp_path, capsys):
        assert main(["ingest", "--file", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "z6.txt"
        from epgc.groups import make_cyclic

        path.write_text(format_cayley_table(make_cyclic(6)), encoding="utf-8")
        assert main(["ingest", "--file", str(path), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["catalog_match"] == "Z6"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
