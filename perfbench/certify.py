"""Regenerate refs.json, the known answers the benchmark's gates compare to.

Every Jack expansion a workload produces is certified here once, with a
check independent of the m-basis matrix route that builds it: monic at its
label, support dominated by the label, and both eigen-equations (D and
Delta) holding over Q at a = 7/3 on the expanded polynomial.  Only then is
its digest recorded.  The suite entries (checked counts and the exact list
of documented violations) are snapshots of the suites' reports.

    python3 perfbench/certify.py [--size std toy full]

Sizes not named keep their entries.  "full" certifies (8|2) at N=6, about
four minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from superjack import jack, suites  # noqa: E402
from superjack.coeffring import ONE  # noqa: E402
from superjack.ops import apply_D, apply_Delta  # noqa: E402
from superjack.spart import (dominance_leq, e_star_poly,  # noqa: E402
                             e_tilde_poly, parse_spart)

import workloads  # noqa: E402


def check_one(L, N: int) -> None:
    """Raise unless the expansion is a certified Jack superpolynomial."""
    a0 = Fraction(7, 3)
    expansion = jack.jack_symbolic(L, N)
    if expansion.coeffs.get(L) != ONE:
        raise AssertionError(f"P[{L}] is not monic at its label")
    if not all(dominance_leq(om, L) for om in expansion.coeffs):
        raise AssertionError(f"P[{L}] has support not dominated by {L}")
    P = expansion.at(a0)
    for op, ev in ((apply_D, e_star_poly(L)), (apply_Delta, e_tilde_poly(L))):
        value = sum(Fraction(c) * a0 ** i for i, c in enumerate(ev.coeffs))
        if op(P, a0) != P.scale(value):
            raise AssertionError(f"P[{L}] N={N} fails {op.__name__} at a={a0}")


def certify_labels(pairs, refs) -> None:
    for L, N in pairs:
        key = workloads.ref_key(L, N)
        if key in refs:
            continue
        check_one(L, N)
        refs[key] = workloads.expansion_digest(jack.jack_symbolic(L, N).coeffs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", nargs="+", default=["std", "toy"],
                    choices=workloads.SIZES)
    args = ap.parse_args()
    refs = workloads.load_refs() if workloads.REFS_PATH.exists() else {}
    label, N, _ = workloads.CRITERION_1
    certify_labels([(parse_spart(label), N)], refs)
    for size in args.size:
        t0 = time.perf_counter()
        spec = workloads.SIZES[size]
        certify_labels(workloads.build_labels(spec["build"]["families"]), refs)
        certify_labels(workloads.cache_pool(spec["cache"]["nmax"],
                                            spec["cache"]["Ns"]), refs)
        for k, r, N, nmax, allow in spec["stability"]["suites"]:
            _, rep = suites.suite_stability(k, r, N, nmax,
                                            allow_noncoprime=allow)
            refs[f"stability|{k},{r},{N},{nmax}"] = {
                "checked": rep["checked"],
                "violations": sorted(json.loads(json.dumps(rep["violations"])))}
        for nmax, N, mmax in spec["sekiguchi"]["suites"]:
            ok, rep = suites.suite_sekiguchi(nmax, N, mmax)
            if not ok:
                raise SystemExit(f"sekiguchi {nmax},{N},{mmax} fails: "
                                 f"{rep['failures']}")
            refs[f"sekiguchi|{nmax},{N},{mmax}"] = {"checked": rep["checked"]}
        print(f"{size}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(workloads.REFS_PATH, "w") as fh:
        json.dump(dict(sorted(refs.items())), fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
