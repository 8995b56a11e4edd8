"""Verification suites shared by the command line and the acceptance tests.

Each suite returns (ok, report) where report is JSON-serializable; ok is
False exactly when a counterexample was found.  A suite at a = -(k+1)/(r-1)
checks (k, r) once, before it reads any label (`spart.check_kr`).
"""

from __future__ import annotations

from math import comb, gcd, prod

from .coeffring import ALPHA, PoleError, _scaled_eval
from .ideals import (_representative_clusters, alpha_kr, char_F, char_I,
                     cluster_multiplicity, cochain_check,
                     prescribed_vanish_check, stability_suite, vanish_check)
from .jack import (duality_check, jack_at, jack_poly, norm_gram, norm_hook,
                   pieri_check, PIERI_KINDS)
from .ops import (check_algebra_table, check_virasoro_relations,
                  sekiguchi_S, sekiguchi_S_tilde, theta_part,
                  ulist_equals_scalar_multiple)
from .spart import (SuperPartition, almost_admissible_variants, check_kr,
                    degrees, enumerate_admissible, enumerate_sparts,
                    epsilon_u, star_pair)
from .superpoly import (SuperPolynomial, column_images, integral_multiple,
                        monomial_msym)


def _sweep(items, check) -> tuple[bool, dict]:
    """check(item) gives the item's failures; ok when no item has one."""
    found = [list(check(item)) for item in items]
    failures = [failure for item in found for failure in item]
    return not failures, {"checked": len(found), "failures": failures}


def _labels(nmax: int, N: int, mmax: int):
    return (L for n, m in degrees(nmax, N) if m <= mmax
            for L in enumerate_sparts(n, m, N))


def sekiguchi_verdicts(P: SuperPolynomial, L: SuperPartition, N: int,
                       alpha, u=None) -> tuple[bool, bool]:
    """Whether P satisfies the S and the S-tilde eigenrelation of L in N
    variables, read on P's theta_1...theta_m part, m = L.m: as identities
    in u, or at the integer u when one is given.

    That reading is exact for a symmetric P of fermionic degree m:
    - S(u) = prod (xi_i + u) acts on the x's only, since `cherednik` carries
      each theta factor unchanged.  So it maps P's theta_1...theta_m part to
      the theta_1...theta_m part of S(u) P, and it commutes with every
      x-permutation, hence with the diagonal action of S_N.
    - So the residual S(u) P - eps(u) P is symmetric.  So is S-tilde's
      output, since its coset sum equals the symmetrization over all of S_N.
    - A symmetric polynomial of fermionic degree m is zero iff its
      theta_1...theta_m part is, since that part holds the canonical term of
      every m_Omega.  Of S-tilde's coset sum only the identity reaches it.
    The precondition is checked here, not assumed: a P that is not symmetric
    of fermionic degree m raises ArithmeticError.
    """
    m = L.m
    if P.fermionic_degrees() != {m} or not P.is_symmetric():
        raise ArithmeticError(f"P_{L} in {N} variables is not a symmetric "
                              f"polynomial of fermionic degree {m}")
    def eps(lam):  # eps(u) as u-power coefficients, or its value at u
        c = epsilon_u(lam, N, alpha)
        return c if u is None else [_scaled_eval(c, u, 1, len(c))]

    circ, star = star_pair(L, N)
    head = theta_part(P, m)
    s_ok = ulist_equals_scalar_multiple(
        sekiguchi_S(head, alpha, u), eps(star), head)
    s_tilde_ok = ulist_equals_scalar_multiple(
        [theta_part(c, m) for c in sekiguchi_S_tilde(P, alpha, u)],
        eps(circ), head)
    return s_ok, s_tilde_ok


def _kronecker_point(P: SuperPolynomial, L: SuperPartition,
                     N: int) -> tuple[int, int]:
    """(X, Y): X a power of two above B, `suite_sekiguchi`'s bound on P's
    residual coefficients, and Y = X^(d + 1), d = deg_a P + N."""
    H = sum(abs(x) for c in P.terms.values() for x in c.coeffs)
    n = max((sum(e) for _, e in P.terms), default=0)
    grow = comb(N, L.m) * prod(N * n + i + 1 for i in range(1, N + 1))
    eps = max(prod(p + i for i, p in enumerate(lam, 1))
              for lam in star_pair(L, N))
    X = 1 << (H * (grow + eps)).bit_length()
    return X, X ** (max(c.degree() for c in P.terms.values()) + N + 1)


def _packed(P: SuperPolynomial, X: int) -> SuperPolynomial:
    """P with each Z[a] coefficient c replaced by c(X), zeros dropped."""
    terms = {k: _scaled_eval(c.coeffs, X, 1, len(c.coeffs))
             for k, c in P.terms.items()}
    return SuperPolynomial(P.N, {k: v for k, v in terms.items() if v})


def suite_sekiguchi(nmax: int, N: int, mmax: int = 2) -> tuple[bool, dict]:
    """Both generating-series eigenrelations as identities in u.

    Each P is cleared to Z[a] once and read on its theta_1...theta_m part
    (`sekiguchi_verdicts`) in plain ints at a = X, u = Y.  (a, u) -> (X, Y)
    is a ring map Z[a, u] -> Z and the operators have integer constants, so
    each residual delta = sum_k delta_k u^k = (S(u) P - eps(u) P)[term], or
    its S-tilde twin, goes to delta(X, Y): an exact pass passes.  For H the
    l1 norm of P and n its x-degree, each a-coefficient of each delta_k is
    at most B = H (C(N, m) prod_i (Nn + i + 1) + max prod_i (lam_i + i)) < X
    in absolute value: xi_i + u (+ a for i <= m) multiplies an l1 norm by
    at most Nn + i + 1 (n + i - 1 diagonal, (N - 1) n exchange terms, u, a),
    the S-tilde coset sum by C(N, m), and eps(u) by prod_i (lam_i + i), lam
    starred or circled.  Each of the N factors adds at most one to the
    a-degree, so deg_a delta_k <= d = deg_a P + N and |delta_k(X)| <=
    (X - 1)(1 + X + ... + X^d) < Y = X^(d+1).  So a delta_k != 0, with
    lowest nonzero a-coefficient delta_kj, has delta_k(X) / X^j = delta_kj
    != 0 mod X, and for the lowest such k, delta(X, Y) / Y^k = delta_k(X)
    != 0 mod Y: a failure fails.  B >= 2H keeps the symmetry check exact.
    """
    def check(L):
        P = integral_multiple(jack_poly(L, N))
        X, Y = _kronecker_point(P, L, N)
        verdicts = sekiguchi_verdicts(_packed(P, X), L, N, X, Y)
        return [(name, str(L), N) for name, ok
                in zip(("S", "S_tilde"), verdicts) if not ok]
    return _sweep(_labels(nmax, N, mmax), check)


def _small_labels_sweep(nmax: int, check) -> tuple[bool, dict]:
    """check(L, N) over every label of degree n <= nmax in N = max(n+m, 1);
    each such label fits in nmax + 1 rows."""
    return _sweep(((L, max(n + m, 1)) for n, m in degrees(nmax, nmax + 1)
                   for L in enumerate_sparts(n, m, max(n + m, 1))),
                  lambda item: [] if check(*item) else [str(item[0])])


def suite_norm(nmax: int) -> tuple[bool, dict]:
    return _small_labels_sweep(nmax, lambda L, N: norm_hook(L) == norm_gram(L, N))


def suite_duality(nmax: int) -> tuple[bool, dict]:
    return _small_labels_sweep(nmax, duality_check)


def suite_pieri(nmax: int, N: int, mmax: int = 2) -> tuple[bool, dict]:
    """Every Pieri kind on every label; one column helper serves them all."""
    image = column_images(N)
    return _sweep(((kind, L) for L in _labels(nmax, N, mmax)
                   for kind in PIERI_KINDS),
                  lambda item: [] if pieri_check(*item, N, image)
                  else [(item[0], str(item[1]))])


def suite_stability(k: int, r: int, N: int, nmax: int,
                    allow_noncoprime: bool = False) -> tuple[bool, dict]:
    """Stability of the admissible span.  Outside gcd(k+1, r-1) = 1 a pole at
    a0 (in N or N-1 variables) stops the run and is reported under ``poles``."""
    check_kr(k, r, allow_noncoprime)
    try:
        rep = stability_suite(k, r, N, nmax)
    except PoleError as exc:
        if gcd(k + 1, r - 1) == 1:
            raise
        pole = {"label": str(exc.label), "N": exc.N,
                "a": str(alpha_kr(k, r)), "offending": str(exc.offending)}
        return False, {"k": k, "r": r, "N": N, "nmax": nmax, "checked": 0,
                       "violations": [], "poles": [pole]}
    return not rep["violations"], rep


def suite_vanishing(k: int, r: int, N: int, nmax: int) -> tuple[bool, dict]:
    check_kr(k, r)
    if N < k + 1:
        return True, {"checked": 0, "failures": [], "skipped": "N < k+1"}
    def check(L):
        if not vanish_check(L, k, r, N):
            yield "full", str(L)
        if r > L.m and not prescribed_vanish_check(L, k, r, N):
            yield "prescribed", str(L)
    return _sweep(enumerate_admissible(k, r, N, nmax), check)


def suite_regularity(k: int, r: int, N: int, nmax: int,
                     allow_noncoprime: bool = False) -> tuple[bool, dict]:
    """Pole-freeness of the admissible and almost-admissible labels."""
    check_kr(k, r, allow_noncoprime)
    a0 = alpha_kr(k, r)
    labels = dict.fromkeys(
        V for L in enumerate_admissible(k, r, N, nmax)
        for V in [L, *almost_admissible_variants(L, k, r, N)])
    poles = []
    for V in labels:
        try:
            jack_at(V, N, a0)
        except PoleError:
            poles.append(str(V))
    return not poles, {"checked": len(labels), "poles": poles}


def suite_cochain(k: int, r: int, N: int, nmax: int, d: str = "q") -> tuple[bool, dict]:
    check_kr(k, r)
    rep = cochain_check(k, r, N, nmax, d)
    ok = not rep["failures"] and all(e["exact"] for e in rep["exactness"])
    return ok, rep


def suite_conjecture_IF(k: int, N: int, nmax: int) -> tuple[bool, dict]:
    """The characters of I^(k,2)_N and F^(k)_N, compared bidegree by
    bidegree up to nmax."""
    check_kr(k, 2)
    ci, cf = char_I(k, 2, N, nmax), char_F(k, N, nmax)
    mismatches = [{"degree": d, "char_I": ci.coeff(*d), "char_F": cf.coeff(*d)}
                  for d in degrees(nmax, N) if ci.coeff(*d) != cf.coeff(*d)]
    return not mismatches, {
        "k": k, "N": N, "nmax": nmax, "char_I": ci.series_str(),
        "char_F": cf.series_str(), "equal": not mismatches,
        "mismatches": mismatches}


def suite_conjecture_rma(k: int, r: int, N: int, nmax: int) -> tuple[bool, dict]:
    """The multiplicity r - a on every admissible label with m >= 1, one
    cluster per block class.  A multiplicity below r - a fails, and so does
    any other mismatch within N >= k + m + 1, r > m; the rest are logged."""
    check_kr(k, r)
    rows = []
    for L in [L for L in enumerate_admissible(k, r, N, nmax) if L.m]:
        for cluster, primed in _representative_clusters(k, L.m, N):
            res = cluster_multiplicity(L, k, r, N, cluster, primed)
            s = res.multiplicity
            row = {"label": str(L), "cluster": cluster, "primed": primed,
                   "s": s, "expected": None if s is None else res.expected,
                   "zero": s is None,
                   "exception": s is not None and s != res.expected}
            if s is not None:
                row |= {"divides": s >= res.expected,
                        "within_bounds": N >= k + L.m + 1 and r > L.m > 0}
            rows.append(row)
    exceptions = [row for row in rows if row["exception"]]
    bad = [row for row in exceptions if row["within_bounds"]]
    divisibility_ok = all(row["divides"] for row in rows if not row["zero"])
    return divisibility_ok and not bad, {
        "k": k, "r": r, "N": N, "nmax": nmax, "rows": rows,
        "exceptions": exceptions, "exceptions_in_bounds": bad,
        "divisibility_ok": divisibility_ok}


def suite_algebra(N: int = 2) -> tuple[bool, dict]:
    """Operator algebra tables on a deterministic family of polynomials."""
    from .spart import parse_spart
    tests = [
        monomial_msym(parse_spart("1;1"), N),
        monomial_msym(parse_spart(";2"), N) + monomial_msym(parse_spart("0;1"), N),
        monomial_msym(parse_spart("1,0;"), N),
    ]
    fails = check_algebra_table(ALPHA, tests)
    fails += check_virasoro_relations(ALPHA, tests)
    return not fails, {"failures": fails}


# The command line reads each suite's parameters from its signature.
SUITES = {
    "sekiguchi": suite_sekiguchi,
    "norm": suite_norm,
    "duality": suite_duality,
    "pieri": suite_pieri,
    "stability": suite_stability,
    "vanishing": suite_vanishing,
    "regularity": suite_regularity,
    "cochain": suite_cochain,
    "conjecture-IF": suite_conjecture_IF,
    "conjecture-rma": suite_conjecture_rma,
    "algebra": suite_algebra,
}
