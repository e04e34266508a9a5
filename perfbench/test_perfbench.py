"""Tests of the benchmark itself: its checkers catch wrong answers, its inputs
follow the seed, its tracer restores epgc, and every workload runs.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibration  # noqa: E402
import epgc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Harness, Ingest, Item, Refute  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reports(statuses):
    return json.dumps(
        [{"claim_id": cid, "status": s} for cid, s in zip(epgc.verify.ALL_CLAIMS, statuses)]
    )


class TestHarnessCheck:
    def test_accepts_pass_and_partial(self):
        statuses = ["PASS"] * 7 + ["PARTIAL"]
        assert Harness(0).check(Item("verify"), (0, _reports(statuses), ""), None) is None

    @pytest.mark.parametrize("bad", ["FAIL", "VACUOUS"])
    def test_flags_a_report_not_pass_or_partial(self, bad):
        statuses = ["PASS"] * 7 + [bad]
        assert Harness(0).check(Item("verify"), (0, _reports(statuses), ""), None)

    def test_flags_exit_code_and_missing_reports(self):
        h = Harness(0)
        assert h.check(Item("verify"), (1, _reports(["PASS"] * 8), ""), None)
        assert h.check(Item("verify"), (0, _reports(["PASS"] * 7), ""), None)
        assert h.check(Item("verify"), (0, "not json", ""), None)


class TestRefuteCheck:
    def test_flags_a_certificate(self):
        cert = epgc.search_embedding(epgc.graphs.complete_graph(5), 1)
        assert cert is not None
        assert Refute(0).check(Item("k5.k5"), cert, None)

    def test_flags_an_exhausted_budget(self):
        error = epgc.SearchBudgetExceeded(10)
        assert Refute(0).check(Item("k5.k5"), None, error)

    def test_accepts_a_refutation(self):
        w = Refute(0)
        item = next(i for i in next(w.rounds()) if i.kind == "k1222")
        assert w.check(item, w.run(item), None) is None

    def test_labellings_follow_the_seed(self):
        a, b, c = (next(Refute(s).rounds()) for s in (1, 1, 2))
        assert [i.payload for i in a] == [i.payload for i in b]
        assert [i.payload for i in a] != [i.payload for i in c]
        assert [i.kind for i in a] == [i.kind for i in c]


@pytest.fixture(scope="module")
def ingest_round():
    w = Ingest(3)
    w.prepare()
    return w, next(w.rounds())


class TestIngestCheck:
    def test_valid_tables_pass(self, ingest_round):
        w, batch = ingest_round
        for item in batch[:20]:
            try:
                output, error = w.run(item), None
            except epgc.GroupError as exc:
                output, error = None, exc
            assert w.check(item, output, error) is None

    def test_flags_a_tampered_family_size(self, ingest_round):
        w, batch = ingest_round
        item = next(i for i in batch if i.kind == "valid" and i.expected["family"][0] > 1)
        output = w.run(item)
        count, sizes = item.expected["family"]
        tampered = Item(item.kind, item.payload, {**item.expected, "family": [count, [sizes[0] + 1, *sizes[1:]]]})
        assert w.check(tampered, output, None)

    def test_flags_an_accepted_corrupted_table(self, ingest_round):
        w, batch = ingest_round
        item = next(i for i in batch if i.kind == "corrupted")
        assert w.check(item, {"family": [1, [6]]}, None)
        assert w.check(item, None, epgc.GroupError("row 1 repeats value 2"))
        with pytest.raises(epgc.GroupError) as caught:
            w.run(item)
        assert w.check(item, None, caught.value) is None

    def test_flags_output_that_differs_from_the_source_group(self, ingest_round):
        w, batch = ingest_round
        item = next(i for i in batch if i.kind == "valid")
        output = w.run(item)
        w.computed[item.source] = {**output, "girth": "inf"}
        try:
            assert w.check(item, output, None)
        finally:
            w.computed[item.source] = output

    def test_recorded_invariants_cover_every_source(self, ingest_round):
        w, _ = ingest_round
        assert set(w.recorded) == {g.name for g in w.sources}

    def test_round_composition_and_an_empty_cache(self):
        w = Ingest(5)
        w.prepare()
        rounds = w.rounds()
        for _ in range(3):
            batch = next(rounds)
            assert w.family.cache_info().currsize == 0
            valid = [i for i in batch if i.kind == "valid"]
            assert sorted(i.source for i in valid) == sorted(g.name for g in w.sources)
            corrupted = [i for i in batch if i.kind == "corrupted"]
            assert len(corrupted) == workloads.CORRUPT_PER_ROUND
            tables = [tuple(i.payload.splitlines()[1:-1]) for i in valid]
            assert len(set(tables)) == len(tables)
            for item in valid[:5]:
                w.run(item)
            assert w.family.cache_info().hits == 0

    def test_inputs_follow_the_seed(self):
        a, b, c = (Ingest(s) for s in (1, 1, 2))
        for w in (a, b, c):
            w.prepare()
        first = [[i.payload for i in next(w.rounds())] for w in (a, b, c)]
        assert first[0] == first[1] != first[2]

    def test_corruption_keeps_identity_and_latin_rows(self):
        import random

        table = epgc.make_dihedral(4).table
        bad = workloads.corrupt(table, random.Random(0))
        assert bad != table
        assert bad[0] == table[0] and [r[0] for r in bad] == [r[0] for r in table]
        assert all(sorted(r) == list(range(8)) for r in bad)
        assert all(sorted(c) == list(range(8)) for c in zip(*bad))


class TestTracer:
    def test_restores_epgc_and_counts_builds(self):
        original = epgc.groups.parse_cayley_table
        text = epgc.groups.format_cayley_table(epgc.make_cyclic(6))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert epgc.groups.parse_cayley_table is not original
            epgc.build_bundle(epgc.parse_cayley_table(text))
        finally:
            tracer.uninstall()
        assert epgc.groups.parse_cayley_table is original
        assert epgc.parse_cayley_table is original
        spans = tracer.take()
        metrics = tracing.layer_metrics(spans, 0, 1)
        assert metrics["groups.tables_built"] == 1
        assert metrics["epg.bundles_built"] == 1
        assert all(t >= -1e-9 for t in tracing.self_times(spans))

    def test_counts_an_outermost_rejection_once(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with pytest.raises(epgc.GroupError):
                epgc.parse_cayley_table("3\n0 1 2\n1 1 0\n2 0 1\n")
        finally:
            tracer.uninstall()
        assert tracing.layer_metrics(tracer.take(), 0, 0)["groups.rejected"] == 1


def test_calibration_factor_follows_the_samples_around_a_segment():
    window = calibration.WINDOW
    cal = calibration.Calibration()
    cal.samples = [0.04] * (6 * window) + [0.08] * (6 * window)
    cal.samples[window] = 0.5
    factors = cal.factors()
    assert len(factors) == len(cal.samples) - 1
    for j, factor in enumerate(factors):
        nearby = cal.samples[max(0, j + 1 - window) : j + 1 + window]
        assert factor == pytest.approx(calibration.REF_SECONDS / statistics.median(nearby))
    # one slow sample moves only the segments within WINDOW of it
    assert factors[2 * window + 1] == pytest.approx(calibration.REF_SECONDS / 0.04)
    # a lasting slow-down moves every segment in it
    assert factors[-1] == pytest.approx(calibration.REF_SECONDS / 0.08)
    assert cal.mark() == len(cal.samples) - 2


def test_tracing_overhead_compares_medians_per_kind():
    from collections import Counter

    from run import tracing_overhead

    ops = {
        False: [("fast", 1.0)] * 4 + [("slow", 10.0)],
        True: [("fast", 1.5)] * 4 + [("slow", 9.0)],
    }
    total, detail = tracing_overhead(ops, Counter({"fast": 2, "slow": 1}))
    assert total == pytest.approx(2 * 0.5)
    assert detail["slow"] == {"untraced": 1, "traced": 1, "left_out": True}


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run(workload):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
