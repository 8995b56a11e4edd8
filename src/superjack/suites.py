"""Verification suites shared by the command line and the acceptance tests.

Each suite returns (ok, report) where report is JSON-serializable; ok is
False exactly when a counterexample was found.  A suite at a = -(k+1)/(r-1)
checks (k, r) once, before it reads any label (`spart.check_kr`).
"""

from __future__ import annotations

from math import comb, gcd, prod

from .coeffring import ALPHA, PoleError, _scaled_eval
from .ideals import (alpha_kr, cochain_check, harness_clustering,
                     harness_I_eq_F, prescribed_vanish_check, stability_suite,
                     vanish_check)
from .jack import (duality_check, jack_at, jack_poly, norm_gram, norm_hook,
                   pieri_check, PIERI_KINDS)
from .ops import (check_algebra_table, check_virasoro_relations,
                  sekiguchi_S, sekiguchi_S_tilde, theta_part,
                  ulist_equals_scalar_multiple)
from .spart import (SuperPartition, almost_admissible_variants, check_kr,
                    enumerate_admissible, enumerate_all_m, enumerate_sparts,
                    epsilon_u, fermionic_range, star_pair)
from .superpoly import (SuperPolynomial, column_images, integral_multiple,
                        monomial_msym)


def _labels(nmax: int, N: int, mmax: int | None = None):
    for n in range(nmax + 1):
        for L in enumerate_all_m(n, N):
            if mmax is not None and L.m > mmax:
                continue
            yield L


def sekiguchi_verdicts(P: SuperPolynomial, L: SuperPartition, N: int,
                       alpha) -> tuple[bool, bool]:
    """Whether P satisfies the S and the S-tilde eigenrelation of L in N
    variables, read on P's theta_1...theta_m part, m = L.m.

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
    circ, star = star_pair(L, N)
    head = theta_part(P, m)
    s_ok = ulist_equals_scalar_multiple(
        sekiguchi_S(head, alpha), epsilon_u(star, N, alpha), head)
    s_tilde_ok = ulist_equals_scalar_multiple(
        [theta_part(c, m) for c in sekiguchi_S_tilde(P, alpha)],
        epsilon_u(circ, N, alpha), head)
    return s_ok, s_tilde_ok


def _kronecker_point(P: SuperPolynomial, L: SuperPartition, N: int) -> int:
    """A power of two above B, `suite_sekiguchi`'s bound on P's residuals."""
    H = sum(abs(x) for c in P.terms.values() for x in c.coeffs)
    n = max((sum(e) for _, e in P.terms), default=0)
    grow = comb(N, L.m) * prod(N * n + i + 1 for i in range(1, N + 1))
    eps = max(prod(p + i for i, p in enumerate(lam, 1))
              for lam in star_pair(L, N))
    return 1 << (H * (grow + eps)).bit_length()


def _packed(P: SuperPolynomial, X: int) -> SuperPolynomial:
    """P with each Z[a] coefficient c replaced by c(X), zeros dropped."""
    terms = {k: _scaled_eval(c.coeffs, X, 1, len(c.coeffs))
             for k, c in P.terms.items()}
    return SuperPolynomial(P.N, {k: v for k, v in terms.items() if v})


def suite_sekiguchi(nmax: int, N: int, mmax: int = 2) -> tuple[bool, dict]:
    """Both generating-series eigenrelations as identities in u.

    Each P is cleared to Z[a] once and read on its theta_1...theta_m part
    (`sekiguchi_verdicts`) in plain ints at a = X.  a -> X is a ring map
    Z[a] -> Z and the operators have integer constants, so each residual
    delta = (S(u) P - eps(u) P)[term, u^k], or its S-tilde twin, goes to
    delta(X): an exact pass passes at X.  If delta != 0 has every
    |delta_j| <= B < X, delta_j its lowest nonzero one, then delta(X) / X^j
    = delta_j != 0 mod X: a failure fails at X.  For H the l1 norm of P and
    n its x-degree, B = H (C(N, m) prod_i (Nn + i + 1) + max prod_i (lam_i
    + i)): xi_i + u (+ a for i <= m) multiplies an l1 norm by at most
    Nn + i + 1 (n + i - 1 diagonal, (N - 1) n exchange terms, u, a), the
    S-tilde coset sum by C(N, m), and eps(u) by prod_i (lam_i + i), lam
    starred or circled.  B >= 2H keeps the symmetry check exact at X.
    """
    failures = []
    count = 0
    for L in _labels(nmax, N, mmax):
        count += 1
        P = integral_multiple(jack_poly(L, N))
        X = _kronecker_point(P, L, N)
        s_ok, s_tilde_ok = sekiguchi_verdicts(_packed(P, X), L, N, X)
        if not s_ok:
            failures.append(("S", str(L), N))
        if not s_tilde_ok:
            failures.append(("S_tilde", str(L), N))
    return not failures, {"checked": count, "failures": failures}


def _small_labels_sweep(nmax: int, check) -> tuple[bool, dict]:
    """check(L, N) over every label of degree n <= nmax in N = max(n+m, 1)."""
    failures = []
    count = 0
    for n in range(nmax + 1):
        for m in fermionic_range(n, n + 1):
            N = max(n + m, 1)
            for L in enumerate_sparts(n, m, N):
                count += 1
                if not check(L, N):
                    failures.append(str(L))
    return not failures, {"checked": count, "failures": failures}


def suite_norm(nmax: int) -> tuple[bool, dict]:
    return _small_labels_sweep(nmax, lambda L, N: norm_hook(L) == norm_gram(L, N))


def suite_duality(nmax: int) -> tuple[bool, dict]:
    return _small_labels_sweep(nmax, duality_check)


def suite_pieri(nmax: int, N: int, mmax: int = 2) -> tuple[bool, dict]:
    """Every Pieri kind on every label; one column helper serves them all."""
    image = column_images(N)
    failures = []
    count = 0
    for L in _labels(nmax, N, mmax):
        for kind in PIERI_KINDS:
            count += 1
            if not pieri_check(kind, L, N, image):
                failures.append((kind, str(L)))
    return not failures, {"checked": count, "failures": failures}


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
    failures = []
    labels = enumerate_admissible(k, r, N, nmax)
    for L in labels:
        if not vanish_check(L, k, r, N):
            failures.append(("full", str(L)))
        if r > L.m and not prescribed_vanish_check(L, k, r, N):
            failures.append(("prescribed", str(L)))
    return not failures, {"checked": len(labels), "failures": failures}


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
    check_kr(k, 2)
    rep = harness_I_eq_F(k, N, nmax)
    rep = dict(rep)
    rep["char_I"] = rep["char_I"].series_str()
    rep["char_F"] = rep["char_F"].series_str()
    return rep["equal"], rep


def suite_conjecture_rma(k: int, r: int, N: int, nmax: int) -> tuple[bool, dict]:
    check_kr(k, r)
    rep = harness_clustering(k, r, N, nmax)
    divisibility_ok = all(row.get("divides", True) for row in rep["rows"]
                          if not row.get("zero"))
    ok = divisibility_ok and not rep["exceptions_in_bounds"]
    rep["divisibility_ok"] = divisibility_ok
    return ok, rep


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
