"""Benchmark of epgc: three closed-loop workloads, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload harness --seed 1 --seconds 30 --trace 0

Workloads, each one client issuing one operation and waiting for it:

  harness  a fresh ``python -m epgc verify --all --format json`` process
  refute   one exhaustive ``search_embedding`` call that must return None
  ingest   one seeded Cayley table through validation, the maximal-cyclic
           family, the bundle, the invariants and the catalog match

A run executes whole rounds of its workload (see ``workloads.py``) until
``--seconds`` of operation time have passed, and checks every output.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced rounds and reports per-module self times and counts
(time metrics per round).  ``--workload all`` runs the three in turn.

Every time reported is in reference seconds: measured seconds corrected by
a reference loop timed between slices of work, because the speed of a
shared host drifts by up to 2x over minutes (see ``calibration.py``).  The
``record`` line keeps the measured figures as well.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it, starting with
``record``, holds the seed, the environment and the figures that are not
metrics.  EPGC_CERT_DIR is removed from the environment of every run, so no
certificate cache on disk can answer a search.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from calibration import Calibration
from tracing import Tracer, count_metric_names, layer_metrics, time_metric_names
from workloads import ROOT, SRC, WORKLOADS, child_env, peak_rss_kb

SETUP_REPS = 25
STARTUP_REPS = 7
MIN_TAIL_BEYOND = 10
# Operations of a kind on each side before the kind counts toward the
# tracing overhead.
MIN_OVERHEAD_SAMPLES = 3
# Measured operation time between two reference-loop samples.
SLICE_S = 0.5
OUT_DIR = ROOT / ".perfbench_out"

UNITS = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def child_seconds(code: str) -> float:
    """Seconds a fresh interpreter spends importing epgc and running ``code``."""
    snippet = (
        "import time\nstart = time.perf_counter()\nimport epgc\n"
        f"{code}\nprint(time.perf_counter() - start)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def interpreter_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(), check=True)
    return time.perf_counter() - start


def tail(times: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond) at the highest whole percentile
    with at least MIN_TAIL_BEYOND samples beyond it (nearest rank); the
    median when there are too few samples for any."""
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= MIN_TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    rank = math.ceil(n / 2)
    return 50, ordered[rank - 1], n - rank


def attempt(workload, item, traced=None):
    """One timed operation: (output, error, seconds)."""
    start = time.perf_counter()
    try:
        output, error = workload.run(item, traced), None
    except Exception as exc:  # a failed operation is counted, not fatal
        output, error = None, exc
    return output, error, time.perf_counter() - start


class Tally:
    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, results) -> None:
        for item, output, error in results:
            self.attempted += 1
            problem = self.workload.check(item, output, error)
            if problem is not None:
                self.failures.append(problem)
                if len(self.failures) <= 5:
                    print(f"FAILED {problem}", file=sys.stderr)


def timed_run(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Whole rounds until ``seconds`` of measured operation time have passed.

    Operations are timed in slices of at least SLICE_S; slices and set-up
    samples are segments converted to reference seconds (calibration.py).
    The set-up samples are spread over the run, between operations.
    """
    if workload.in_process:
        workload.prepare()
    cal = Calibration()
    slices: list = []  # (segment, [(kind, measured seconds)])
    setups: list = []  # (segment, measured seconds)
    pending: list = []
    wall = slice_time = next_setup = 0.0

    def close_slice() -> None:
        nonlocal pending, slice_time
        if pending:
            slices.append((cal.mark(), pending))
            pending, slice_time = [], 0.0

    def sample_setup() -> None:
        close_slice()
        seconds_taken = child_seconds(workload.setup_code)
        setups.append((cal.mark(), seconds_taken))

    for batch in workload.rounds():
        results = []
        for item in batch:
            if wall >= next_setup and len(setups) < SETUP_REPS:
                sample_setup()
                next_setup = wall + seconds / SETUP_REPS
            output, error, dt = attempt(workload, item)
            results.append((item, output, error))
            wall += dt
            slice_time += dt
            pending.append((item.kind, dt))
            if slice_time >= SLICE_S:
                close_slice()
        tally.check(results)
        if wall >= seconds:
            break
    close_slice()
    while len(setups) < SETUP_REPS:
        sample_setup()
    factors = cal.factors()
    measured = [dt for _, ops in slices for _, dt in ops]
    times, kinds = [], {}
    for segment, ops in slices:
        for kind, dt in ops:
            times.append(dt * factors[segment])
            kinds.setdefault(kind, []).append(dt * factors[segment])
    setup = [dt * factors[segment] for segment, dt in setups]
    peak_kb = peak_rss_kb() if workload.in_process else workload.peak_kb
    p, tail_value, beyond = tail(times)
    metrics = {
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_value,
        "ops_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024,
    }
    record = {
        "op_s_tail": {"percentile": p, "samples": len(times), "beyond": beyond},
        "measured": {
            "op_s_p50": statistics.median(measured),
            "op_s_tail": tail(measured)[1],
            "ops_per_s": len(measured) / wall,
            "setup_s": statistics.median(dt for _, dt in setups),
        },
        "reference_loop_s": {"median": statistics.median(cal.samples), "samples": len(cal.samples)},
        "op_s_p50_by_kind": {k: [len(v), statistics.median(v)] for k, v in kinds.items()},
    }
    return metrics, record


def run_round(workload, batch, traced=None):
    """(wall, [(item, output, error)], [seconds per operation])."""
    results, times = [], []
    for item in batch:
        output, error, dt = attempt(workload, item, traced)
        times.append(dt)
        results.append((item, output, error))
    return sum(times), results, times


def tracing_overhead(ops: dict, per_round: collections.Counter) -> tuple[float, dict]:
    """Traced minus untraced seconds of one round, from per-kind medians.

    ``ops[traced]`` holds (kind, reference seconds) of every operation.  Each
    kind adds its count in a round times the difference of its two medians,
    so a run of few rounds still compares many operations.  A kind with
    fewer than MIN_OVERHEAD_SAMPLES operations on either side is left out
    and named in the detail.
    """
    total, detail = 0.0, {}
    for kind, count in per_round.items():
        sides = [[dt for k, dt in ops[side] if k == kind] for side in (False, True)]
        detail[kind] = {"untraced": len(sides[0]), "traced": len(sides[1])}
        if min(map(len, sides)) < MIN_OVERHEAD_SAMPLES:
            detail[kind]["left_out"] = True
            continue
        total += count * (statistics.median(sides[1]) - statistics.median(sides[0]))
    return total, detail


def traced_run(workload, seconds: float, tally: Tally, seed: int) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds; per-layer metrics of the traced.

    The harness traces ``cli.main`` in a fresh interpreter per round (see
    traced_cli.py); the other workloads trace in this process.
    """
    cal = Calibration()
    interpreter = [(interpreter_seconds(), cal.mark()) for _ in range(STARTUP_REPS)]
    imports = [(child_seconds(""), cal.mark()) for _ in range(STARTUP_REPS)]
    tracer = None
    if workload.in_process:
        workload.prepare()
        tracer = Tracer()
        import epgc.groups

        family = epgc.groups.maximal_cyclic_subgroups
    walls = {False: [], True: []}
    ops = {False: [], True: []}  # (kind, measured seconds, segment)
    per_round, all_spans = [], []
    composition = None
    elapsed = 0.0
    for number, batch in enumerate(workload.rounds()):
        traced = number % 2 == 1
        composition = composition or collections.Counter(item.kind for item in batch)
        spans = cache = None
        if tracer is None:
            wall, results, times = run_round(workload, batch, traced)
            _, output, error = results[0]
            payload = output[2] if error is None else None
            if isinstance(payload, dict):  # else the check reports the failure
                wall, spans, cache = payload["wall"], payload["spans"], payload["cache"]
                times = [wall]
        else:
            before = family.cache_info()
            if traced:
                tracer.install()
            try:
                wall, results, times = run_round(workload, batch)
            finally:
                if traced:
                    tracer.uninstall()
            after = family.cache_info()
            spans = tracer.take()
            cache = (after.hits - before.hits, after.misses - before.misses)
        segment = cal.mark()
        tally.check(results)
        elapsed += wall
        if spans is not None:
            walls[traced].append((wall, segment))
            ops[traced] += [(item.kind, dt, segment) for item, dt in zip(batch, times)]
            if traced:
                per_round.append((layer_metrics(spans, *cache), segment))
                all_spans.append(spans)
        if elapsed >= seconds and walls[False] and walls[True]:
            break
    if not per_round:
        raise RuntimeError("no traced round completed")
    factors = cal.factors()

    def reference(pairs):
        return [value * factors[segment] for value, segment in pairs]

    times = set(time_metric_names())
    metrics = {
        name: (
            statistics.median(reference((r[name], seg) for r, seg in per_round))
            if name in times
            else value
        )
        for name, value in per_round[0][0].items()
    }
    metrics["cli.interpreter_s"] = statistics.median(reference(interpreter))
    metrics["cli.import_s"] = statistics.median(reference(imports))
    untraced, traced_walls = reference(walls[False]), reference(walls[True])
    metrics["trace.overhead_s"], overhead = tracing_overhead(
        {side: [(kind, dt * factors[seg]) for kind, dt, seg in ops[side]] for side in ops},
        composition,
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    spans_file.write_text(json.dumps(all_spans))
    record = {
        "traced_rounds": len(walls[True]),
        "untraced_rounds": len(walls[False]),
        "round_wall_s": {"untraced": untraced, "traced": traced_walls},
        "trace_overhead_samples": overhead,
        "reference_loop_s": {"median": statistics.median(cal.samples), "samples": len(cal.samples)},
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, record


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name in count_metric_names():
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    had_cert_dir = os.environ.pop("EPGC_CERT_DIR", None) is not None
    workload = WORKLOADS[name](seed)
    tally = Tally(workload)
    if trace:
        metrics, detail = traced_run(workload, seconds, tally, seed)
    else:
        metrics, detail = timed_run(workload, seconds, tally)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "EPGC_CERT_DIR": "unset (was set)" if had_cert_dir else "unset",
        "env": environment(),
        "fail_ratio": len(tally.failures) / tally.attempted,
        **detail,
    }
    for key, value in metrics.items():
        extra = ""
        if key == "op_s_tail":
            t = detail["op_s_tail"]
            extra = f"  (p{t['percentile']} of {t['samples']} samples, {t['beyond']} beyond)"
        print(f"{name:8} {key:44} {value:14.6g} {unit_of(key)}{extra}")
    print(f"{name:8} {'fail_ratio':44} {record['fail_ratio']:14.6g} ratio"
          f"  ({len(tally.failures)} of {tally.attempted})")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": tally.attempted > 0 and not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all_workloads(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so no cache is shared between them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "epgc" / "__init__.py").is_file():
        print(f"error: no epgc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all_workloads(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
