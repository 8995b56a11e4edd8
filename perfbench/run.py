"""Benchmark entry point: one workload, one seed, one run of about --seconds.

    python3 perfbench/run.py --workload build --seed 1 --seconds 30 --trace 0

A run repeats passes of the workload until the next one would overrun
--seconds (at least two).  Every pass is a fresh interpreter (worker.py), so
superjack's in-process memos start cold, as on every `jack` invocation; the
`cache` workload uses two per pass, one to fill an empty disk cache and one
to read it back.  Passes run one after another: a single client in a closed
loop, no threads.

With --trace 0 the last stdout line holds the end-to-end metrics named in
BENCHMARK.json (medians over passes; item latencies pooled over passes).
With --trace 1 untraced and traced passes alternate, and the last line holds
the per-layer metrics of the traced passes plus the tracing overhead.  The
line before it is a JSON object with details (pass and sample counts, the
cache load-phase latencies, gate errors).  Exit code 0 means every gate
passed; a failed gate still prints its result, with "correct": false.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_DIR = ROOT / ".perfbench"
PASS_TIMEOUT_S = 170
MIN_PASSES = 2

# Per-layer values that are maxima, not sums, across a pass's processes.
MAX_KEYS = ("max_coeff_degree", "max_coeff_bits")
# Per-family metrics read 0 on a workload that never builds that family.
FAMILY_KEY = re.compile(r"\.n\d+m\d+N\d+\.")


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start one worker; return (set-up seconds, its result object)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "READY":
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
            raise BenchError(f"worker {args[:2]} failed during set-up "
                             f"(exit {proc.returncode})")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def combine_layers(parts: list[dict]) -> dict:
    """Per-layer metrics of one pass from its processes' tracers."""
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if key.endswith(MAX_KEYS):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    js_calls = out["jack.jack_symbolic.calls"]
    out["jack.jack_symbolic.hit_ratio"] = (
        out["jack.jack_symbolic.hits"] / js_calls if js_calls else 0.0)
    loads = out["cli.cache_load.calls"]
    out["cli.cache_load.hit_ratio"] = (
        out["cli.cache_load.hits"] / loads if loads else 0.0)
    return out


def run_pass(ns, index: int, traced: bool) -> dict:
    """One pass: its processes, their results merged, and its set-up times."""
    run_id = f"{ns.workload}-s{ns.seed}-p{index}{'-traced' if traced else ''}"
    base = ["--workload", ns.workload, "--seed", str(ns.seed),
            "--size", ns.size, "--trace", "1" if traced else "0"]
    deadline = time.perf_counter() + PASS_TIMEOUT_S
    phases = ("store", "load") if ns.workload == "cache" else ("",)
    cache_dir = WORK_DIR / f"cache-{os.getpid()}-{index}"
    if ns.workload == "cache":
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)
    results, setups = [], []
    try:
        for phase in phases:
            args = base + ["--run-id", f"{run_id}-{phase}" if phase else run_id]
            if phase:
                args += ["--phase", phase, "--cache-dir", str(cache_dir)]
            if traced:  # each traced pass overwrites the previous one's spans
                (WORK_DIR / "spans").mkdir(parents=True, exist_ok=True)
                name = f"{ns.workload}-{phase}" if phase else ns.workload
                args += ["--spans", str(WORK_DIR / "spans" / f"{name}.jsonl")]
            setup_s, res = spawn(args, deadline)
            setups.append(setup_s)
            results.append(res)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    first = results[0]
    merged = {
        "setups": setups,
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "wall_ref": sum(r["wall_ref"] for r in results),
        "cpu_ref": sum(r["wall_ref"] * r["cpu_s"] / r["wall_s"]
                       for r in results),
        "rss_mb": max(r["rss_mb"] for r in results),
        "items_ms": first["items_ms"],
        "items_ref": first["items_ref"],
        "loads_ms": results[1]["items_ms"] if len(results) > 1 else [],
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "errors": [e for r in results for e in r["errors"]],
    }
    if len(results) > 1:
        store, load = (r["stdout_sha256"] for r in results)
        differ = sum(a != b for a, b in zip(store, load))
        if differ:
            merged["failed"] += differ
            merged["errors"].append(f"{differ} requests printed different "
                                    "stdout in the load phase")
    if traced:
        merged["layers"] = combine_layers([r["layers"] for r in results])
    return merged


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99), interpolated as statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_layers(workload: str, traced: list[dict], errors: list[str]) -> dict:
    """Gate the traced passes: predicted layers fire, counts repeat."""
    import workloads

    for i, p in enumerate(traced):
        for name in workloads.MUST_FIRE[workload]:
            if not p["layers"][f"{name}.calls"]:
                errors.append(f"traced pass {i}: {name} recorded no calls")
    first = traced[0]["layers"]
    for p in traced[1:]:
        for key, value in p["layers"].items():
            if not key.endswith("_s") and value != first[key]:
                errors.append(f"count {key} did not repeat: {first[key]} "
                              f"vs {value}")
    return {name: first[f"{name}.calls"]
            for name in workloads.PREDICTED_IDLE[workload]
            if first[f"{name}.calls"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("build", "stability", "sekiguchi", "cache"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="std", choices=("std", "toy", "full"),
                    help="workload size; toy runs in seconds, for tests")
    ns = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "superjack" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print("run from a superjack checkout: src/superjack and BENCHMARK.json "
              "are required", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    spec = json.loads(spec_path.read_text())

    start = time.perf_counter()
    untraced, traced, durations = [], [], []
    try:
        while True:
            t0 = time.perf_counter()
            untraced.append(run_pass(ns, len(durations), traced=False))
            if ns.trace:
                traced.append(run_pass(ns, len(durations), traced=True))
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(durations) >= MIN_PASSES and \
                    elapsed + statistics.median(durations) > ns.seconds:
                break
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    items = [x for p in untraced for x in p["items_ms"]]
    items_ref = [x for p in untraced for x in p["items_ref"]]
    loads = [x for p in untraced for x in p["loads_ms"]]
    wall = statistics.median(p["wall_s"] for p in untraced)
    detail = {"workload": ns.workload, "seed": ns.seed, "size": ns.size,
              "passes": len(untraced), "items": len(items),
              "fail_ratio": failed / attempted if attempted else 1.0,
              "pass_wall_s": [p["wall_s"] for p in untraced],
              "wall_s": wall,
              "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
              "item_p50_ms": statistics.median(items),
              "item_p90_ms": percentile(items, 90)}
    if loads:
        detail.update(loads=len(loads), load_p50_ms=statistics.median(loads),
                      load_p90_ms=percentile(loads, 90))
    if ns.trace:
        layers = {key: statistics.median(p["layers"][key] for p in traced)
                  for key in traced[0]["layers"]}
        layers["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        detail["idle_predicted_but_fired"] = check_layers(
            ns.workload, traced, errors)
        detail["families"] = {k: v for k, v in layers.items()
                              if FAMILY_KEY.search(k)}
        wanted, values = spec["per_layer"], layers
        for m in wanted:
            if FAMILY_KEY.search(m["name"]):
                values.setdefault(m["name"], 0)
    else:
        values = {
            "setup_s": statistics.median(s for p in untraced for s in p["setups"]),
            "wall_ref": statistics.median(p["wall_ref"] for p in untraced),
            "cpu_ref": statistics.median(p["cpu_ref"] for p in untraced),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
            "item_p50_ref": statistics.median(items_ref),
            "item_p90_ref": percentile(items_ref, 90),
        }
        wanted = spec["end_to_end"]
    detail["errors"] = errors[:20]
    correct = failed == 0 and not errors
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
