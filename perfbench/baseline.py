"""Measure the benchmark's spread over seeds and record a baseline.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/BASELINE.json
    python3 perfbench/baseline.py --seeds 5 --workloads sekiguchi   # tuning

For each workload: one untraced run per seed (seeds 1..N), each end-to-end
metric's median, quartiles and spread (interquartile distance over the
median, as statistics.quantiles(values, n=4) gives the quartiles) next to
its bound, and the same for the raw times on the details line; then one
traced run (seed 1) for the per-layer metrics.  With
--full, one traced run of the `build` workload at the "full" size, whose
families are the ones ROADMAP quotes.  Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RAW = ("wall_s", "cpu_s", "item_p50_ms", "item_p90_ms", "load_p50_ms",
       "load_p90_ms")


def bench(workload: str, seed: int, seconds: int, trace: int,
          size: str = "std") -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--size", size], cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"({proc.returncode}): {proc.stderr}{proc.stdout}")
    detail, result = (json.loads(line) for line in lines[-2:])
    return detail, result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--full", action="store_true")
    ap.add_argument("--out", help="write the baseline JSON here")
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "loadavg_start": os.getloadavg(),
        "model": "one client, closed loop: each request is sent after the "
                 "previous one returns; each pass a fresh interpreter",
        "run_seconds": seconds,
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    for w in args.workloads:
        t0 = time.perf_counter()
        runs = [bench(w, seed, seconds, 0) for seed in report["seeds"]]
        metrics = {name: spread([r[1]["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        entry = {"run_s": (time.perf_counter() - t0) / len(runs),
                 "passes": [r[0]["passes"] for r in runs],
                 "items": [r[0]["items"] for r in runs],
                 "end_to_end": metrics}
        # raw seconds and milliseconds from the details line, for reference
        entry["raw"] = {k: spread([r[0][k] for r in runs]) for k in RAW
                        if k in runs[0][0]}
        print(f"{w}: {entry['run_s']:.1f} s per run, passes {entry['passes']}",
              file=sys.stderr)
        for name, s in metrics.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:12s} median {s['median']:10.4f}  spread "
                  f"{s['spread']:.3f} (bound {bounds[name]}){flag}",
                  file=sys.stderr)
        detail, traced = bench(w, 1, seconds, 1)
        entry["per_layer"] = {k: v["value"]
                              for k, v in traced["metrics"].items()}
        entry["families"] = detail["families"]
        report["workloads"][w] = entry
    if args.full:
        detail, traced = bench("build", 1, 1, 1, size="full")
        report["full_build"] = {"per_layer": {
            k: v["value"] for k, v in traced["metrics"].items()},
            "families": detail["families"]}
    report["loadavg_end"] = os.getloadavg()
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
