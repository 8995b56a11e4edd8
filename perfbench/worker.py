"""One pass of one workload in a fresh interpreter (started by run.py).

Protocol on stdout: the line ``READY`` once set-up is done (import, inputs
built from the seed), then one JSON object with the pass's timings, gate
result and, when traced, per-layer metrics.  Program output produced during
the timed phase is captured and never reaches this stdout.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import superjack  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# On a shared host the CPU speed drifts by 10-20% within minutes.  Short
# slices of a fixed reference kernel, run between items, measure that speed
# where the items run; time divided by the local reference time cancels most
# of the drift.  The slices are left out of every reported time.
REFERENCE_SLICE_S = 0.04
REFERENCE_EVERY_S = 0.4


class Clock:
    """Workload time: perf_counter minus the reference slices run so far.

    ``mark`` records an item boundary and, when due, runs a slice.  Slices
    also run at ``start`` and ``stop``, so every stretch of the timed phase
    lies between two of them.
    """

    def __init__(self):
        self.marks: list[float] = []
        self.slices: list[tuple[float, float]] = []  # (workload time, ref s)
        self._paused = 0.0
        self.paused_cpu = 0.0
        self._next = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def _slice(self) -> None:
        p0, c0 = time.perf_counter(), time.process_time()
        self.slices.append((p0 - self._paused,
                            reference_seconds(REFERENCE_SLICE_S)))
        self._paused += time.perf_counter() - p0
        self.paused_cpu += time.process_time() - c0
        self._next = self.now() + REFERENCE_EVERY_S

    def start(self) -> float:
        self._slice()
        return self.now()

    def stop(self) -> float:
        end = self.now()
        self._slice()
        return end

    def mark(self) -> None:
        self.marks.append(self.now())
        if self.marks[-1] >= self._next:
            self._slice()

    def in_ref(self, a: float, b: float) -> float:
        """Length of [a, b] in reference-kernel calls at the speed measured
        by the slices around it, summed stretch by stretch."""
        times = [t for t, _ in self.slices]
        total = 0.0
        for i in range(max(bisect.bisect_right(times, a) - 1, 0),
                       len(times) - 1):
            lo, hi = max(a, times[i]), min(b, times[i + 1])
            if hi > lo:
                ref = (self.slices[i][1] + self.slices[i + 1][1]) / 2
                total += (hi - lo) / ref
            if times[i + 1] >= b:
                break
        return total


def install_probe(workload, clock: Clock):
    """Mark item boundaries inside a suite by wrapping the one call the
    suite makes per item; returns an undo function."""
    module_name, name, when = workload.probe
    module = sys.modules[f"superjack.{module_name}"]
    original = getattr(module, name)

    if when == "before":
        def probe(*args, **kwargs):
            clock.mark()
            return original(*args, **kwargs)
    else:
        def probe(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                clock.mark()

    setattr(module, name, probe)
    return lambda: setattr(module, name, original)


def reference_kernel() -> dict:
    """Fixed work shaped like superjack's inner loops and independent of it:
    a product of two sparse polynomials with Fraction coefficients."""
    f = {(i, j): Fraction(i + 1, j + 2) for i in range(12) for j in range(6)}
    g = {(i, j): Fraction(j - 3, i + 1) for i in range(6) for j in range(5)}
    out: dict = {}
    for (a, b), c in f.items():
        for (d, e), h in g.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * h
    return out


def reference_seconds(block_s: float) -> float:
    """Mean seconds per reference_kernel call over a block of block_s."""
    calls = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < block_s:
        reference_kernel()
        calls += 1
    return (time.perf_counter() - t0) / calls


def item_spans(marks, start: float, end: float, when: str):
    """Per-item (start, end) in workload time: mark to mark, anchored at the
    phase start for marks taken after an item and at the phase end for
    marks taken before one."""
    points = [start] + marks if when == "after" else marks + [end]
    return list(zip(points, points[1:]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="std", choices=workloads.SIZES)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--phase", default="")
    ap.add_argument("--cache-dir", default="")
    ap.add_argument("--spans", default="")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args(argv)

    if Path(superjack.__file__).resolve().parent != ROOT / "src" / "superjack":
        print(f"superjack imported from {superjack.__file__}, not from src/",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.size, args.seed)
    refs = workloads.load_refs()
    tr = undo_probe = None
    clock = Clock()
    if args.trace:
        tr = tracer.Tracer(args.run_id, clock.marks)
        tr.install()
    when = "after"
    if hasattr(workload, "probe") and not args.trace:
        undo_probe = install_probe(workload, clock)
        when = workload.probe[2]
    print("READY", flush=True)

    extra = (args.cache_dir,) if args.phase else ()
    cpu0 = time.process_time()
    t0 = clock.start()
    outputs = workload.run(inputs, clock, *extra)
    t1 = clock.stop()
    cpu1 = time.process_time()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if undo_probe:
        undo_probe()
    items = item_spans(clock.marks, t0, t1, when)
    result = {"wall_s": t1 - t0, "cpu_s": cpu1 - cpu0 - clock.paused_cpu,
              "wall_ref": clock.in_ref(t0, t1), "rss_mb": rss_mb,
              "items_ms": [1e3 * (b - a) for a, b in items],
              "items_ref": [clock.in_ref(a, b) for a, b in items]}
    if tr:
        tr.uninstall()
        result["layers"] = tr.metrics()
        if args.spans:
            tr.write_spans(args.spans)
    attempted, failed, errors = workload.gate(inputs, outputs, refs)
    result.update(attempted=attempted, failed=failed, errors=errors[:20])
    if args.phase:
        result["stdout_sha256"] = [hashlib.sha256(o[1].encode()).hexdigest()
                                   for o in outputs]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
