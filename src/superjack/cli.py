"""Command-line front end.

Exit codes: 0 success, 1 a verification suite found a counterexample,
2 usage error, 3 internal inconsistency (e.g. a pole where regularity is
guaranteed).  Machine-readable errors go to stderr as JSON objects.  A
command at a = -(k+1)/(r-1) checks (k, r) before it reads any label.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from .coeffring import ALPHA, PoleError, alpha_eval, parse_alpha
from .ideals import char_F, char_I, cluster_multiplicity
from .jack import (PIERI_KINDS, JackExpansion, eigen_check, jack_symbolic,
                   pieri_closed)
from .ops import NonPolynomialResult, apply_operator
from .spart import (SuperPartition, check_kr, enumerate_sparts,
                    is_admissible, parse_spart)
from .superpoly import SuperPolynomial, from_mbasis, terms_to_json
from .suites import SUITES

CACHE_VERSION = "1"


# ---------------------------------------------------------------------------
# persistent expansion cache
# ---------------------------------------------------------------------------

def cache_key(L: SuperPartition, N: int) -> str:
    return f"jack:{L}:N={N}"


def _cache_path(directory: str, key: str) -> Path:
    safe = key.replace(":", "_").replace(";", "S").replace(",", "-")
    return Path(directory) / f"{safe}.json"


def cache_store(directory: str, expansion: JackExpansion) -> Path:
    """Write one entry atomically (write, then rename into place)."""
    path = _cache_path(directory, cache_key(expansion.label, expansion.N))
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": CACHE_VERSION,
        "key": cache_key(expansion.label, expansion.N),
        "label": str(expansion.label),
        "N": expansion.N,
        "coeffs": {str(om): str(c) for om, c in sorted(
            expansion.coeffs.items(), key=lambda kv: kv[0].sort_key(),
            reverse=True)},
    }
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(payload, fh, indent=1)
    os.replace(tmp, path)
    return path


def cache_load(directory: str, L: SuperPartition, N: int) -> JackExpansion | None:
    """Load and re-verify one entry.

    On any mismatch the entry is deleted and one JSON object naming it and
    the reason goes to stderr; the caller then recomputes.
    """
    path = _cache_path(directory, cache_key(L, N))
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
        if payload.get("version") != CACHE_VERSION:
            raise ValueError("version mismatch")
        coeffs = {parse_spart(om): parse_alpha(c)
                  for om, c in payload["coeffs"].items()}
        expansion = JackExpansion(parse_spart(payload["label"]),
                                  int(payload["N"]), coeffs)
        if expansion.label != L or expansion.N != N:
            raise ValueError("key mismatch")
        reason = eigen_check(expansion)
        if reason is not None:
            raise ValueError(reason)
        return expansion
    except Exception as exc:
        print(json.dumps({"warning": "evicting cache entry",
                          "entry": path.name, "reason": str(exc)}),
              file=sys.stderr)
        try:
            path.unlink()
        except OSError:
            pass
        return None


def jack_cached(L: SuperPartition, N: int, directory: str | None) -> JackExpansion:
    """From the disk cache when a directory is given, else computed (and
    stored there)."""
    if directory:
        hit = cache_load(directory, L, N)
        if hit is not None:
            return hit
    expansion = jack_symbolic(L, N)
    if directory:
        cache_store(directory, expansion)
    return expansion


# ---------------------------------------------------------------------------
# shared option plumbing
# ---------------------------------------------------------------------------

class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one JSON UsageError, then exits 2."""

    def error(self, message):
        _emit_error("UsageError", f"{self.prog}: {message}")
        self.exit(2)


def _int_at_least(least: int, what: str):
    """An argparse type: a decimal integer no smaller than `least`."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(
                f"{what} must be a {'positive' if least else 'non-negative'} "
                f"integer, got {text!r}")
        return int(text)
    return parse


_positive_N = _int_at_least(1, "N")  # a positive number of variables


def _parse_alpha_flag(text: str):
    """'sym' for the generic parameter, else an exact rational like -2 or -3/2."""
    if text == "sym":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --alpha value {text!r}") from exc


def _emit_error(kind: str, message: str, **extra) -> None:
    payload = {"error": kind, "message": message}
    payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)


def _poly_payload(f: SuperPolynomial) -> dict:
    return {"N": f.N, "terms": terms_to_json(f)}


def _int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def _read_poly(path: str) -> SuperPolynomial:
    """The --input polynomial, {"N": N, "terms": [{"thetas", "exps", "coeff"}]}.

    Every term must name a monomial in the N variables: thetas increasing
    strictly within 1..N, exps N non-negative integers, coeff a Q(a) literal.
    """
    data = json.loads(Path(path).read_text() if path != "-" else sys.stdin.read())
    N = data.get("N") if isinstance(data, dict) else None
    if type(N) is not int or N < 1:
        raise UsageError(f"N must be a positive integer, got {N!r}")
    if not isinstance(data.get("terms"), list):
        raise UsageError("terms must be a list" if "terms" in data
                         else "the input lacks the field 'terms'")
    out = SuperPolynomial(N)
    for item in data["terms"]:
        if not isinstance(item, dict):
            raise UsageError(f"a term must be a JSON object, got {item!r}")
        for key in ("thetas", "exps", "coeff"):
            if key not in item:
                raise UsageError(f"a term lacks the field {key!r}: {item!r}")
        thetas, exps = item["thetas"], item["exps"]
        if not (_int_list(thetas) and all(1 <= t <= N for t in thetas)
                and all(s < t for s, t in zip(thetas, thetas[1:]))):
            raise UsageError(
                f"thetas must increase strictly within 1..{N}, got {thetas!r}")
        if not (_int_list(exps) and len(exps) == N and min(exps) >= 0):
            raise UsageError(
                f"exps must be {N} non-negative integers, got {exps!r}")
        try:
            coeff = parse_alpha(item["coeff"])
        except (TypeError, ZeroDivisionError) as exc:
            raise UsageError(f"bad coeff {item['coeff']!r}") from exc
        out._iadd_term((tuple(thetas), tuple(exps)), coeff)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_compute(args) -> int:
    L = parse_spart(args.spart)
    N = args.N
    a0 = _parse_alpha_flag(args.alpha)
    expansion = jack_cached(L, N, args.cache_dir)
    if a0 is None:
        coeffs, alpha, head = expansion.coeffs, "sym", f"P[{L}] (N={N}) ="
    else:
        try:
            coeffs = expansion.coeffs_at(a0)
        except PoleError as exc:
            _emit_error("PoleError", str(exc), label=str(L), N=N,
                        alpha=str(a0))
            return 3
        alpha, head = str(a0), f"P[{L}] (N={N}, alpha={a0}) ="
    if args.basis == "vars":
        poly = from_mbasis(coeffs, N)
        print(json.dumps(_poly_payload(poly)) if args.out == "json" else poly)
        return 0
    items = sorted(coeffs.items(), key=lambda kv: kv[0].sort_key(), reverse=True)
    if args.out == "json":
        print(json.dumps({"label": str(L), "N": N, "alpha": alpha, "basis": "m",
                          "coeffs": {str(k): str(v) for k, v in items}}))
    else:
        print(head)
        for om, c in items:
            # the generic expansion leaves its unit coefficients implicit
            print(f"  m[{om}]" if a0 is None and str(c) == "1"
                  else f"  {c} * m[{om}]")
    return 0


def cmd_enumerate(args) -> int:
    if args.admissible:
        try:
            k, r = (int(v) for v in args.admissible.split(","))
        except ValueError as exc:
            raise UsageError("--admissible expects 'k,r'") from exc
        check_kr(k, r)
    labels = [L for L in enumerate_sparts(args.n, args.m, args.N)
              if not args.admissible or is_admissible(L, k, r, args.N)]
    if args.out == "json":
        print(json.dumps([str(L) for L in labels]))
    else:
        for L in labels:
            print(f"{L}   {L.circled_str()}")
    return 0


def cmd_pieri(args) -> int:
    L = parse_spart(args.spart)
    coeffs = pieri_closed(args.upsilon, L, args.N)
    items = sorted(coeffs.items(), key=lambda kv: kv[0].sort_key(), reverse=True)
    a0 = _parse_alpha_flag(args.alpha)
    if a0 is not None:
        numeric = []
        for om, v in items:
            try:
                numeric.append((om, alpha_eval(v, a0)))
            except PoleError as exc:
                _emit_error("PoleError", str(exc), label=str(L), N=args.N,
                            alpha=str(a0), target=str(om))
                return 3
        items = numeric
    if args.out == "json":
        print(json.dumps({"upsilon": args.upsilon, "label": str(L),
                          "N": args.N,
                          "coeffs": {str(k): str(v) for k, v in items}}))
    else:
        print(f"{args.upsilon} . P[{L}] =")
        for om, c in items:
            print(f"  ({c}) * P[{om}]")
    return 0


def cmd_op(args) -> int:
    if args.op_command != "apply":
        raise UsageError("usage: jack op apply ...")
    f = _read_poly(args.input)
    a0 = _parse_alpha_flag(args.alpha)
    alpha = ALPHA if a0 is None else a0
    if a0 is not None:
        terms = {}
        for (T, e), c in f.terms.items():
            try:
                terms[T, e] = alpha_eval(c, a0)
            except PoleError:
                _emit_error("UsageError", f"an --input coeff has a pole at "
                            f"alpha = {a0}", thetas=list(T), exps=list(e),
                            alpha=str(a0))
                return 2
        f = SuperPolynomial(f.N, {key: c for key, c in terms.items() if c})
    result = apply_operator(args.name, f, alpha, index=args.index,
                            mode=args.mode)
    if isinstance(result, list):  # u-coefficients from a Sekiguchi operator
        payload = [_poly_payload(c) for c in result]
        if args.out == "json":
            print(json.dumps(payload))
        else:
            for kpow, comp in enumerate(result):
                print(f"u^{kpow}: {comp}")
    else:
        if args.out == "json":
            print(json.dumps(_poly_payload(result)))
        else:
            print(result)
    return 0


def cmd_characters(args) -> int:
    payload = {"space": args.space, "k": args.k}
    if args.space == "F":
        if args.r is not None:
            raise UsageError("--space F does not take --r")
        series = char_F(args.k, args.N, args.nmax)
    else:
        r = payload["r"] = 2 if args.r is None else args.r
        check_kr(args.k, r)
        series = char_I(args.k, r, args.N, args.nmax)
    if args.out == "json":
        print(json.dumps({**payload, "N": args.N, "nmax": args.nmax,
                          "table": {f"{n}|{m}": c for (n, m), c in
                                    sorted(series.table.items())}}))
    else:
        print(series.series_str())
    return 0


def cmd_cluster(args) -> int:
    L = parse_spart(args.spart)
    cluster = tuple(int(v) for v in args.cluster.split(","))
    check_kr(args.k, args.r)
    res = cluster_multiplicity(L, args.k, args.r, args.N, cluster, args.primed)
    payload = {"label": str(L), "k": args.k, "r": args.r, "N": args.N,
               "cluster": list(cluster), "primed": args.primed,
               "multiplicity": res.multiplicity, "a": res.a,
               "expected": res.expected, "matches": res.matches}
    if args.out == "json":
        print(json.dumps(payload))
    else:
        verdict = ("vanishes" if res.multiplicity is None
                   else "match" if res.matches else "EXCEPTION")
        print(f"multiplicity s = {res.multiplicity}, a = {res.a}, "
              f"r - a = {res.expected} -> {verdict}")
    return 0


_SUITE_FLAGS = ("k", "r", "N", "nmax", "mmax", "d", "allow_noncoprime")


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise UsageError(f"unknown suite {args.suite!r}; choose from {known}")
    params = inspect.signature(SUITES[args.suite]).parameters
    # an unset flag is None (False for --allow-noncoprime): the default applies
    kwargs = {name: v for name in _SUITE_FLAGS
              if (v := getattr(args, name)) is not None and v is not False}
    for name in kwargs:
        if name not in params:
            raise UsageError(f"suite {args.suite!r} does not take "
                             f"--{name.replace('_', '-')}")
    for name, param in params.items():
        if name not in kwargs and param.default is param.empty:
            raise UsageError(f"suite {args.suite!r} needs --{name}")
    ok, report = SUITES[args.suite](**kwargs)
    if args.out == "json":
        print(json.dumps({"suite": args.suite, "ok": ok,
                          "report": _jsonable(report)}))
    else:
        print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
        for key, val in report.items():
            if key in ("failures", "violations", "poles", "mismatches",
                       "exceptions_in_bounds") and val:
                print(f"  {key}: {val}")
            elif isinstance(val, (int, str, bool)):
                print(f"  {key}: {val}")
    return 0 if ok else 1


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return str(obj)


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse returns a fresh
    Namespace and no default reads the environment."""
    top = _Parser(
        prog="jack",
        description="Exact Jack superpolynomials at rational parameter")
    top.add_argument("--cache-dir", help="directory for the expansion cache")
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("compute", help="expand one Jack superpolynomial")
    p.add_argument("--spart", required=True)
    p.add_argument("--N", type=_positive_N, required=True)
    p.add_argument("--alpha", default="sym")
    p.add_argument("--basis", choices=("m", "vars"), default="m")
    p.add_argument("--out", choices=("json", "pretty"), default="pretty")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("enumerate", help="list superpartitions")
    p.add_argument("--n", type=_int_at_least(0, "n"), required=True)
    p.add_argument("--m", type=_int_at_least(0, "m"), required=True)
    p.add_argument("--N", type=_positive_N, required=True)
    p.add_argument("--admissible", help="'k,r' to filter admissible labels")
    p.add_argument("--out", choices=("json", "pretty"), default="pretty")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("pieri", help="closed-form operator expansion")
    p.add_argument("--upsilon", required=True,
                   choices=PIERI_KINDS)
    p.add_argument("--spart", required=True)
    p.add_argument("--N", type=_positive_N, required=True)
    p.add_argument("--alpha", default="sym")
    p.add_argument("--out", choices=("json", "pretty"), default="pretty")
    p.set_defaults(fn=cmd_pieri)

    p = sub.add_parser("op", help="apply a named operator")
    opsub = p.add_subparsers(dest="op_command")
    q = opsub.add_parser("apply")
    q.add_argument("--name", required=True)
    q.add_argument("--alpha", default="sym")
    q.add_argument("--input", required=True, help="JSON term list or '-'")
    q.add_argument("--index", type=int, help="variable index for Cherednik")
    q.add_argument("--mode", help="mode index for L or G")
    q.add_argument("--out", choices=("json", "pretty"), default="pretty")
    p.set_defaults(fn=cmd_op)

    p = sub.add_parser("characters", help="graded dimension series")
    p.add_argument("--space", required=True, choices=("F", "I"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, help="I only; default 2")
    p.add_argument("--N", type=_positive_N, required=True)
    p.add_argument("--nmax", type=_int_at_least(0, "nmax"), required=True)
    p.add_argument("--out", choices=("json", "pretty"), default="pretty")
    p.set_defaults(fn=cmd_characters)

    p = sub.add_parser("cluster", help="coalescence multiplicity of one label")
    p.add_argument("--spart", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--N", type=_positive_N, required=True)
    p.add_argument("--cluster", required=True, help="comma-separated indices")
    p.add_argument("--primed", type=int, required=True)
    p.add_argument("--out", choices=("json", "pretty"), default="pretty")
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--N", type=_positive_N)
    p.add_argument("--nmax", type=_int_at_least(0, "nmax"))
    p.add_argument("--mmax", type=_int_at_least(0, "mmax"))
    p.add_argument("--d", choices=("q", "q_tilde"))
    p.add_argument("--allow-noncoprime", action="store_true",
                   dest="allow_noncoprime",
                   help="run outside the coprimality hypothesis (no theorem "
                        "guarantees; expect failures)")
    p.add_argument("--out", choices=("json", "pretty"), default="pretty")
    p.set_defaults(fn=cmd_verify)

    return top


def _merge_dash_values(argv):
    """Let values like -1/1 or -3/2 follow --alpha or --mode unescaped."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--alpha", "--mode") and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_dash_values(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.fn(args)
    except OSError as exc:  # an --input or cache path
        _emit_error(type(exc).__name__, str(exc), path=exc.filename)
        return 2
    except UsageError as exc:
        _emit_error("UsageError", str(exc))
        return 2
    except NonPolynomialResult as exc:
        _emit_error("NonPolynomialResult", str(exc))
        return 2
    except ArithmeticError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 3
    except (ValueError, KeyError) as exc:
        _emit_error("UsageError", str(exc))
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
