"""Run the benchmark over several seeds and summarise it as a trajectory entry.

Run from the repository root:

    python3 perfbench/record.py --seeds 1-10 --out perfbench/trajectory/BENCH_1_name.json

It makes one timed run per seed and workload, the workloads taking turns,
and reports per workload and end-to-end metric the median, the quartiles
and the spread (the distance between the quartiles as a share of the
median) next to the bound from BENCHMARK.json, and the same for the measured
seconds before calibration.  With ``--trace`` it adds one traced run per
workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    record = next(json.loads(ln[len("record "):]) for ln in lines if ln.startswith("record "))
    record["run_s"] = time.perf_counter() - start
    return json.loads(lines[-1]), record


def summary(values: list[float], bound: float | None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,2,3")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    entry = {"seeds": seed_list(args.seeds), "seconds": args.seconds, "workloads": {}}
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    measured = {w: {} for w in workloads}
    totals = {w: {"attempted": 0, "failed": 0, "run_s": []} for w in workloads}
    # Seeds outer, workloads inner: each workload's runs spread over the
    # whole recording, as the machine's speed drifts.
    for seed in entry["seeds"]:
        for workload in workloads:
            result, record = run(workload, seed, args.seconds, False)
            entry.setdefault("env", record["env"])
            total = totals[workload]
            total["run_s"].append(record["run_s"])
            total["failed"] += result["failed"]
            total["attempted"] += result["attempted"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            for name, value in record["measured"].items():
                measured[workload].setdefault(name, []).append(value)
            shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"seed {seed} {workload:8} {shown}  failed {result['failed']}", flush=True)
    for workload in workloads:
        rows = {name: summary(v, bounds.get(name)) for name, v in values[workload].items()}
        raw = {name: summary(v, None) for name, v in measured[workload].items()}
        entry["workloads"][workload] = {**totals[workload], "end_to_end": rows, "measured": raw}
        for name, row in rows.items():
            before = raw[name]["spread"] if name in raw else float("nan")
            print(f"{workload:8} {name:12} median {row['median']:.6g}  spread {row['spread']:.4f}"
                  f"  bound {row.get('bound')}  (measured seconds: spread {before:.4f})", flush=True)
        total = totals[workload]
        print(f"{workload:8} failed {total['failed']} of {total['attempted']};"
              f" longest run {max(total['run_s']):.1f} s", flush=True)
        if args.trace:
            result, _ = run(workload, entry["seeds"][0], args.seconds, True)
            entry["workloads"][workload]["per_layer"] = {
                k: m["value"] for k, m in result["metrics"].items()
            }
    if args.out:
        Path(args.out).write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
