"""The benchmark's four workloads: sizes, seeded inputs, timed phases, gates.

Each workload runs as one client in a closed loop: the next request is sent
only after the previous one returns.  ``prepare`` is set-up (it builds the
inputs from the seed), ``run`` is the timed phase and returns the raw
outputs, and ``gate`` checks those outputs against known answers outside the
timed region, returning ``(attempted, failed, errors)``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from pathlib import Path

from superjack import cli, jack, suites
from superjack.coeffring import parse_alpha
from superjack.spart import enumerate_sparts, parse_spart

REFS_PATH = Path(__file__).with_name("refs.json")

# Per size, per workload.  "std" is what the benchmark measures, "toy" runs in
# seconds for the benchmark's own tests, "full" holds the families ROADMAP
# quotes (too slow for repeated runs, kept for baselines).
SIZES = {
    "std": {
        # (n, m, N): assembly-heavy (6|2) at N=6, solve-heavy (8|1) at N=4
        "build": {"families": [(6, 2, 6), (8, 1, 4)]},
        # (k, r, N, nmax, allow_noncoprime)
        "stability": {"suites": [(2, 3, 3, 5, False), (1, 3, 2, 6, True)]},
        # (nmax, N, mmax)
        "sekiguchi": {"suites": [(4, 3, 2), (3, 4, 1)]},
        # every label with 2 <= n <= nmax, m <= 2, in each N
        "cache": {"nmax": 4, "Ns": (3, 4)},
    },
    "toy": {
        "build": {"families": [(4, 2, 4), (5, 1, 3)]},
        "stability": {"suites": [(1, 2, 2, 4, False), (1, 3, 2, 4, True)]},
        "sekiguchi": {"suites": [(3, 2, 2), (2, 3, 1)]},
        "cache": {"nmax": 3, "Ns": (2, 3)},
    },
    "full": {
        "build": {"families": [(8, 2, 6), (9, 1, 5)]},
        "stability": {"suites": [(2, 3, 4, 6, False), (1, 3, 2, 6, True)]},
        "sekiguchi": {"suites": [(4, 4, 2)]},
        "cache": {"nmax": 6, "Ns": (3, 4)},
    },
}

# Criterion 1 of the acceptance tests: P[;3] at N=3.
CRITERION_1 = (";3", 3, {";3": "1", ";2,1": "3/(2*a+1)",
                         ";1,1,1": "6/((a+1)*(2*a+1))"})


def expansion_digest(coeffs) -> str:
    """Exact fingerprint of an m-basis expansion: sha256 of its canonical
    coefficient strings, sorted by label string."""
    pairs = sorted([str(om), str(c)] for om, c in coeffs.items())
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def ref_key(label, N: int) -> str:
    return f"{label}|{N}"


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)


def cache_pool(nmax: int, Ns) -> list[tuple[object, int]]:
    return [(L, N) for N in Ns for n in range(2, nmax + 1)
            for m in range(3) for L in enumerate_sparts(n, m, N)]


def seeded_order(pairs, rng) -> list[tuple[object, int]]:
    """Shuffle (label, N) pairs, then swap each degree family's dominant label
    into the family's first slot.  The first label of a family pays for the
    operator matrices the family shares, so pinning it keeps the per-item
    latencies the same whatever the seed."""
    order = list(pairs)
    rng.shuffle(order)
    first: dict = {}
    for i, (L, N) in enumerate(order):
        first.setdefault((L.degree(), N), i)
    for (degree, N), i in first.items():
        j = order.index((enumerate_sparts(*degree, N)[0], N))
        order[i], order[j] = order[j], order[i]
    return order


def build_labels(families) -> list[tuple[object, int]]:
    return [(L, N) for n, m, N in families for L in enumerate_sparts(n, m, N)]


# ---------------------------------------------------------------------------
# build: symbolic Jack superpolynomials of whole degree families
# ---------------------------------------------------------------------------

class Build:
    name = "build"

    def prepare(self, size: str, seed: int):
        rng = random.Random(seed)
        return [pair for family in SIZES[size]["build"]["families"]
                for pair in seeded_order(build_labels([family]), rng)]

    def run(self, inputs, clock):
        out = []
        for L, N in inputs:
            out.append(jack.jack_symbolic(L, N))
            clock.mark()
        return out

    def gate(self, inputs, outputs, refs):
        errors = []
        for (L, N), expansion in zip(inputs, outputs):
            if refs.get(ref_key(L, N)) != expansion_digest(expansion.coeffs):
                errors.append(f"P[{L}] N={N} differs from the reference")
        label, N, want = CRITERION_1
        got = jack.jack_symbolic(parse_spart(label), N).coeffs
        if ({str(om): c for om, c in got.items()}
                != {om: parse_alpha(c) for om, c in want.items()}):
            errors.append("criterion 1 coefficients of P[;3] N=3 differ")
        return len(inputs) + 1, len(errors), errors


# ---------------------------------------------------------------------------
# stability: ideal stability suites (dense membership solves over Q)
# ---------------------------------------------------------------------------

class Stability:
    name = "stability"
    probe = ("ideals", "membership", "after")

    def prepare(self, size: str, seed: int):
        order = list(SIZES[size]["stability"]["suites"])
        random.Random(seed).shuffle(order)
        return order

    def run(self, inputs, clock):
        return [suites.suite_stability(k, r, N, nmax, allow_noncoprime=allow)
                for k, r, N, nmax, allow in inputs]

    def gate(self, inputs, outputs, refs):
        attempted = failed = 0
        errors = []
        for spec, (_, rep) in zip(inputs, outputs):
            want = refs[f"stability|{','.join(map(str, spec[:4]))}"]
            got = Counter(map(json.dumps, rep["violations"]))
            expected = Counter(map(json.dumps, want["violations"]))
            wrong = sum(((got - expected) + (expected - got)).values())
            attempted += rep["checked"]
            failed += wrong + abs(rep["checked"] - want["checked"])
            if wrong or rep["checked"] != want["checked"]:
                errors.append(f"stability {spec[:4]}: checked {rep['checked']}"
                              f" (want {want['checked']}), "
                              f"{len(rep['violations'])} "
                              f"violations (want {len(want['violations'])})")
        return attempted, failed, errors


# ---------------------------------------------------------------------------
# sekiguchi: both Sekiguchi eigenrelations (Cherednik operators over Q(a))
# ---------------------------------------------------------------------------

class Sekiguchi:
    name = "sekiguchi"
    probe = ("suites", "jack_poly", "before")

    def prepare(self, size: str, seed: int):
        order = list(SIZES[size]["sekiguchi"]["suites"])
        random.Random(seed).shuffle(order)
        return order

    def run(self, inputs, clock):
        return [suites.suite_sekiguchi(nmax, N, mmax)
                for nmax, N, mmax in inputs]

    def gate(self, inputs, outputs, refs):
        attempted = failed = 0
        errors = []
        for spec, (ok, rep) in zip(inputs, outputs):
            want = refs[f"sekiguchi|{','.join(map(str, spec))}"]["checked"]
            attempted += rep["checked"]
            failed += len(rep["failures"]) + abs(rep["checked"] - want)
            if not ok or rep["checked"] != want:
                errors.append(f"sekiguchi {spec}: checked {rep['checked']} "
                              f"(want {want}), failures {rep['failures']}")
        return attempted, failed, errors


# ---------------------------------------------------------------------------
# cache: `jack compute` through the disk cache, store phase then load phase
# ---------------------------------------------------------------------------

class Cache:
    name = "cache"

    def prepare(self, size: str, seed: int):
        spec = SIZES[size]["cache"]
        return [(str(L), N) for L, N in seeded_order(
            cache_pool(spec["nmax"], spec["Ns"]), random.Random(seed))]

    def run(self, inputs, clock, cache_dir: str):
        out = []
        for label, N in inputs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = cli.dispatch(["--cache-dir", cache_dir, "compute",
                                   f"--spart={label}", "--N", str(N),
                                   "--out", "json"])
            clock.mark()
            out.append((rc, stdout.getvalue(), stderr.getvalue()))
        return out

    def gate(self, inputs, outputs, refs):
        """Exit codes, stderr and the printed expansion of one phase; the
        two phases are compared byte for byte by the caller."""
        errors = []
        for (label, N), (rc, stdout, stderr) in zip(inputs, outputs):
            if rc != 0 or stderr:
                errors.append(f"{label} N={N}: exit {rc}, stderr {stderr!r}")
                continue
            payload = json.loads(stdout)
            coeffs = {parse_spart(om): parse_alpha(c)
                      for om, c in payload["coeffs"].items()}
            if refs.get(ref_key(label, N)) != expansion_digest(coeffs):
                errors.append(f"{label} N={N}: expansion differs from the "
                              "reference")
        return len(inputs), len(errors), errors


WORKLOADS = {w.name: w for w in (Build(), Stability(), Sekiguchi(), Cache())}

# Traced functions that must record calls on each workload.  A zero here
# means a rename or a new route has blinded the tracer for that layer.
MUST_FIRE = {
    "build": ("jack.jack_symbolic", "superpoly.monomial_msym",
              "superpoly.to_mbasis", "superpoly.divide_xdiff", "ops.apply_D",
              "ops.apply_Delta", "spart.enumerate_sparts",
              "coeffring.poly_gcd"),
    "stability": ("suites.suite_stability", "ideals.membership",
                  "ideals.degree_basis", "coeffring.solve_exact",
                  "coeffring.alpha_eval", "jack.jack_at",
                  "jack.jack_symbolic", "spart.is_admissible",
                  "spart.enumerate_sparts", "ops.q_op", "ops.q_perp",
                  "ops.Q_op", "ops.Q_perp", "ops.L_op"),
    "sekiguchi": ("suites.suite_sekiguchi", "ops.cherednik",
                  "ops.sekiguchi_S", "ops.sekiguchi_S_tilde",
                  "superpoly.divide_xdiff", "jack.jack_symbolic",
                  "coeffring.poly_gcd"),
    "cache": ("cli.dispatch", "cli.cache_store", "cli.cache_load",
              "jack.jack_symbolic", "coeffring.parse_alpha", "ops.apply_D",
              "superpoly.monomial_msym", "coeffring.poly_gcd"),
}

# Traced functions predicted to stay idle on each workload (reported).
PREDICTED_IDLE = {
    "build": ("ideals.membership", "ops.cherednik", "cli.dispatch",
              "cli.cache_load", "coeffring.solve_exact"),
    "stability": ("ops.cherednik", "cli.dispatch", "cli.cache_load"),
    "sekiguchi": ("ideals.membership", "coeffring.solve_exact",
                  "cli.dispatch", "cli.cache_load"),
    "cache": ("ideals.membership", "ops.cherednik", "coeffring.solve_exact"),
}
