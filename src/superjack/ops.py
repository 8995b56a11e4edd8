"""Differential operators: the two commuting eigenoperators, Dunkl-Cherednik
operators, the Sekiguchi pair, the sl(1|2) generators and the negative half
of the super-Virasoro algebra.

No rational function is ever materialized.  D and Delta require symmetric
input.  They realize the exchange terms of the pair (1, 2), with their
(x_1 - x_2) denominator, through exact polynomial division.  The exchange
of a pair (i, j) is K_sigma (exchange of (1, 2)) K_sigma^-1 for any sigma
with sigma(1) = i and sigma(2) = j, and K_sigma fixes a symmetric input,
so each image is symmetric: its coefficient at a label is pulled from the
(1, 2) image and a closed diagonal weight, and the label's orbit is
written once.  Only the (1, 2) division is checked, so `apply_D` and
`apply_Delta` trust their callers: input that is invariant under K_12 but
not symmetric gets a wrong image.  `apply_operator`, the entry point for
outside input, is the trust boundary: it checks symmetry and raises
NonPolynomialResult otherwise.  The Cherednik operators, defined on all
input, expand each quotient as the closed geometric sum
(x_i^a x_j^b - x_i^b x_j^a) / (x_i - x_j).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .coeffring import AlphaPolynomial, AlphaRational
from .superpoly import (DivisionFailure, SuperPolynomial, _orbit_into,
                        _sort_sign, divide_xdiff, pair_decompose,
                        permute_into, power_sum, ferm_power)

UList = list  # list of SuperPolynomial, coefficient of u^k at index k


class NonPolynomialResult(ArithmeticError):
    """Exact division failed: the input is outside the operator's domain."""


def _over(n: int, alpha, name: str):
    """Exact n / alpha, for alpha an int, a Fraction or an element of Z[a] or
    Q(a); an element of Z[a] is lifted to Q(a), where it can divide."""
    if not alpha:
        raise ValueError(f"{name} divides by a: a = 0 is outside its domain")
    if isinstance(alpha, AlphaPolynomial):
        alpha = AlphaRational(alpha)
    return Fraction(n) / alpha


def _diffdiff(f: SuperPolynomial, i: int, j: int, out=None) -> SuperPolynomial:
    """(d_i - d_j) f added into the term dict out (a new one by default);
    zero entries may remain, which divide_xdiff skips."""
    out = {} if out is None else out
    get = out.get
    for (T, e), c in f.terms.items():
        for p, s in ((i - 1, c), (j - 1, -c)):
            k = e[p]
            if k:
                el = list(e)
                el[p] = k - 1
                key = (T, tuple(el))
                cur = get(key)
                out[key] = s * k if cur is None else cur + s * k
    return SuperPolynomial(f.N, out)


def _put(out: dict, q: SuperPolynomial, thetas: tuple, shift: tuple) -> None:
    """out += theta_tk ... theta_t1 x^shift q, for q free of those thetas.

    Each theta is inserted on the left in the listed order, so (j, i) writes
    theta_i theta_j; shift lists the 0-based exponents that rise by one.
    """
    get = out.get
    for (T, e), c in q.terms.items():
        for t in thetas:
            pos = bisect_left(T, t)
            T = T[:pos] + (t,) + T[pos:]
            if pos % 2:
                c = -c
        el = list(e)
        for p in shift:
            el[p] += 1
        key = (T, tuple(el))
        cur = get(key)
        out[key] = c if cur is None else cur + c


@lru_cache(maxsize=None)
def _pair_pulls(N: int, m: int) -> tuple:
    """(T, sign < 0, pull) per pair sigma = (i, j, rest increasing), i < j:
    the term of K_sigma img at theta_1...theta_m x^e is +-img[T, pull(e)]."""
    out = []
    for sigma in _coset_reps(N, 2):
        inv = [sigma.index(t) + 1 for t in range(1, m + 1)]
        out.append((tuple(sorted(inv)), _sort_sign(inv) < 0,
                    itemgetter(*(s - 1 for s in sigma))))
    return tuple(out)


def _symmetric_image(img: dict, f: SuperPolynomial, weight: Callable,
                     alpha) -> SuperPolynomial:
    """sum over pairs sigma of K_sigma img, img the (1, 2) exchange image of
    a symmetric f, plus alpha * weight(T, e) * c at each term c of f: the
    diagonal's per-term weight is invariant on each orbit.  K_sigma
    conjugates the (1, 2) exchange into the (i, j) one and fixes f, so the
    image is sum c_G m_G, c_G its coefficient at G's canonical term.  K_sigma
    keeps orbits, so c_G != 0 needs a term of img or f in m_G; a term whose
    thetas carry equal exponents is in none, as no symmetric polynomial has
    it.  Alpha enters after the exchange sum: a Z[a] alpha keeps Z[a] input.
    """
    N = f.N
    # each label of f has its canonical term, with thetas 1..m, in f
    keys = [key for key, c in img.items() if c]
    keys += [(T, e) for T, e in f.terms if not T or T[-1] == len(T)]
    labels = []
    for head, full in {(tuple(sorted([e[t - 1] for t in T])), tuple(sorted(e)))
                       for T, e in keys}:
        if len(set(head)) == len(head):
            rest = list(full)
            for k in head:
                rest.remove(k)
            labels.append((head[::-1], tuple(reversed(rest))))
    out: dict = {}
    for head, rest in labels:
        T0, e = tuple(range(1, len(head) + 1)), head + rest
        acc = 0
        for T, negate, pull in _pair_pulls(N, len(head)):
            c = img.get((T, pull(e)))
            if c:
                acc = acc - c if negate else acc + c
        c = f.terms.get((T0, e))
        if c and (w := weight(T0, e)):
            acc = acc + c * w * alpha
        if acc:
            _orbit_into(out, head, rest, N, acc)
    return SuperPolynomial(N, out)


def apply_D(f: SuperPolynomial, alpha) -> SuperPolynomial:
    """Quadratic eigenoperator on a symmetric f.

    For the pair (1, 2), with f = A + theta_1 B + theta_2 C
    + theta_1 theta_2 D, the exchange part is x_1 x_2 (r0 + theta_1 rB
    + theta_2 rC + theta_1 theta_2 (d_1 - d_2) sD), each r an exact quotient
    by x_1 - x_2; every other pair's exchange part is that image relabeled.
    The diagonal sum_i x_i^2 d_i^2 weighs a term by sum_i e_i (e_i - 1).
    Only the (1, 2) divisions are checked, so an f that is invariant under
    K_12 but not symmetric gets a wrong image instead of an error:
    `apply_operator` checks symmetry first.
    """
    img: dict = {}
    if f.N > 1:
        try:
            A, B, C, D2 = pair_decompose(f, 1, 2)
            s_bc = divide_xdiff(B - C, 1, 2)
            minus_s = {key: -c for key, c in s_bc.terms.items()}
            _put(img, divide_xdiff(_diffdiff(A, 1, 2), 1, 2), (), (0, 1))
            _put(img, divide_xdiff(_diffdiff(B, 1, 2, minus_s), 1, 2),
                 (1,), (0, 1))
            _put(img, divide_xdiff(_diffdiff(C, 1, 2, dict(s_bc.terms)), 1, 2),
                 (2,), (0, 1))
            _put(img, _diffdiff(divide_xdiff(D2, 1, 2), 1, 2), (2, 1), (0, 1))
        except DivisionFailure as exc:
            raise NonPolynomialResult(str(exc)) from exc
    # k (k - 1) is even, so the halved weight stays an integer
    return _symmetric_image(img, f, lambda T, e: sum(k * (k - 1) for k in e)
                            // 2, alpha)


def apply_Delta(f: SuperPolynomial, alpha) -> SuperPolynomial:
    """Fermionic eigenoperator lifting the degeneracy of the quadratic one,
    on a symmetric f.

    For the pair (1, 2) the exchange part is (x_1 theta_2 + x_2 theta_1)
    (B - C)/(x_1 - x_2) - theta_1 theta_2 D, in the notation of apply_D, and
    every other pair's is that image relabeled; the diagonal
    sum_i theta_i x_i d_{x_i} d_{theta_i} weighs a term by sum_{i in T} e_i.
    Only B - C is divided, so most non-symmetric input passes without
    notice: `apply_operator` checks symmetry first.
    """
    img: dict = {}
    if f.N > 1:
        _, B, C, D2 = pair_decompose(f, 1, 2)
        try:
            s_bc = divide_xdiff(B - C, 1, 2)
        except DivisionFailure as exc:
            raise NonPolynomialResult(str(exc)) from exc
        _put(img, s_bc, (2,), (0,))
        _put(img, s_bc, (1,), (1,))
        _put(img, -D2, (2, 1), ())
    return _symmetric_image(img, f, lambda T, e: sum(e[t - 1] for t in T),
                            alpha)


def cherednik(f: SuperPolynomial, i: int, alpha) -> SuperPolynomial:
    """Dunkl-Cherednik operator on the commuting variables, defined on all input.

    xi_i = alpha x_i d_i + (1 - i) + sum_{j != i} x_max(i,j) (1 - K_ij) / (x_i - x_j),
    with K_ij exchanging x_i and x_j only.  On c x_i^a x_j^b the exchange
    quotient is the geometric sum sign(a - b) c sum x_i^p x_j^(a+b-1-p) over
    min(a,b) <= p < max(a,b), so each term is expanded in place.
    """
    N = f.N
    if not 1 <= i <= N:
        raise ValueError(f"Cherednik index {i} is outside 1..{N}")
    ii = i - 1
    out = SuperPolynomial(N)
    add = out._iadd_term
    weights: dict = {}  # x_i-degree -> alpha * a + 1 - i
    for (T, e), c in f.terms.items():
        a = e[ii]
        w = weights.get(a)
        if w is None:
            w = weights[a] = alpha * a + (1 - i) if a else 1 - i
        if w:
            add((T, e), c * w)
        neg = None  # -c, formed at the first exchange with a < b
        el = list(e)
        for jj, b in enumerate(e):
            if b == a:  # j = i, or equal degrees: no exchange term
                continue
            if a < b and neg is None:
                neg = -c
            lo, hi, cj = (b, a, c) if a > b else (a, b, neg)
            sh = jj < ii  # x_max(i,j) is x_i: its exponent rises by one
            for p in range(lo + sh, hi + sh):
                el[ii] = p
                el[jj] = a + b - p
                add((T, tuple(el)), cj)
            el[jj] = b
    return out


# ---------------------------------------------------------------------------
# Sekiguchi pair, with u a second indeterminate or evaluated at a point
# ---------------------------------------------------------------------------

def _cherednik_product(f: SuperPolynomial, alpha, shifted: int = 0,
                       u=None) -> UList:
    """f times the product over i = 1..N of (xi_i + u), with alpha added to
    xi_i for i <= shifted, as u-power coefficients, or as one component
    evaluated at u when u is given: the shift and the u term join each
    fresh `cherednik` output in place."""
    ul: UList = [f]
    for i in range(1, f.N + 1):
        out = [cherednik(g, i, alpha) for g in ul]
        lift = alpha if i <= shifted else 0
        if u is None:
            out.append(SuperPolynomial(f.N))
        else:
            lift = lift + u
        for k, comp in enumerate(out):
            add = comp._iadd_term
            if lift and k < len(ul):
                for key, c in ul[k].terms.items():
                    add(key, c * lift)
            if k:
                for key, c in ul[k - 1].terms.items():
                    add(key, c)
        ul = out
    return ul


def sekiguchi_S(f: SuperPolynomial, alpha, u=None) -> UList:
    """Product of (Cherednik_i + u) over all i, as u-power coefficients, or
    at u when u is given."""
    return _cherednik_product(f, alpha, u=u)


def theta_part(f: SuperPolynomial, m: int) -> SuperPolynomial:
    """The terms of f whose theta factor is exactly theta_1...theta_m."""
    keep = tuple(range(1, m + 1))
    return SuperPolynomial(f.N, {(T, e): c for (T, e), c in f.terms.items()
                                 if T == keep})


def _coset_reps(N: int, m: int) -> list:
    """Minimal-length representatives of S_N / (S_m x S_{N-m})."""
    return [(*sub, *(p for p in range(1, N + 1) if p not in sub))
            for sub in combinations(range(1, N + 1), m)]


def sekiguchi_S_tilde(f: SuperPolynomial, alpha, u=None) -> UList:
    """Supersymmetric Sekiguchi operator on a theta-homogeneous input.

    Sums over minimal coset representatives of S_N / (S_m x S_{N-m}), so it
    works over any coefficient ring, Z[a] included.  Each u-power's sum is
    accumulated in one term dict, and its zeros are dropped once at the end.
    The zero polynomial gets N + 1 zero components, as from `sekiguchi_S`;
    with u given, as there, the one component at u.
    """
    N = f.N
    degs = f.fermionic_degrees()
    if len(degs) > 1:
        raise ValueError("input must be theta-homogeneous")
    m = degs.pop() if degs else 0
    reps = _coset_reps(N, m)
    out = []
    for comp in _cherednik_product(theta_part(f, m), alpha, m, u):
        acc: dict = {}
        permute_into(acc, comp.terms, reps)
        out.append(SuperPolynomial(N, {k: c for k, c in acc.items() if c}))
    return out


def ulist_equals_scalar_multiple(ul: UList, coeffs: Sequence,
                                 f: SuperPolynomial) -> bool:
    """Does the u-polynomial equal (sum_k coeffs[k] u^k) * f?"""
    if len(ul) < len(coeffs):
        return False
    for k, comp in enumerate(ul):
        want = f.scale(coeffs[k]) if k < len(coeffs) else SuperPolynomial(f.N)
        if comp != want:
            return False
    return True


# ---------------------------------------------------------------------------
# first-order algebras
# ---------------------------------------------------------------------------

def _index_sum(f: SuperPolynomial, *pieces: Callable) -> SuperPolynomial:
    """sum over i = 1..N of piece(f, i) over the pieces, in one term dict."""
    out = SuperPolynomial(f.N)
    add = out._iadd_term
    for i in range(1, f.N + 1):
        for piece in pieces:
            for key, c in piece(f, i).terms.items():
                add(key, c)
    return out


def nabla(f: SuperPolynomial, alpha=None) -> SuperPolynomial:
    return _index_sum(f, SuperPolynomial.diff_x)


def nabla_perp(f: SuperPolynomial, alpha) -> SuperPolynomial:
    scaled = f.scale(_over(f.N, alpha, "nabla_perp"))
    return _index_sum(f, lambda g, i: g.diff_x(i).mul_x(i, 2),
                      lambda g, i: g.diff_theta(i).mul_theta(i).mul_x(i),
                      lambda _, i: scaled.mul_x(i))


def q_op(f: SuperPolynomial, alpha=None) -> SuperPolynomial:
    return _index_sum(f, lambda g, i: g.diff_x(i).mul_theta(i))


def q_perp(f: SuperPolynomial, alpha=None) -> SuperPolynomial:
    return _index_sum(f, lambda g, i: g.diff_theta(i).mul_x(i))


def Q_op(f: SuperPolynomial, alpha) -> SuperPolynomial:
    """sum_i theta_i (x_i d_i + N/alpha) f, with the N/alpha half scaled once."""
    return (q_tilde(f) + _index_sum(f, SuperPolynomial.mul_theta)
            .scale(_over(f.N, alpha, "Q")))


def Q_perp(f: SuperPolynomial, alpha=None) -> SuperPolynomial:
    return _index_sum(f, SuperPolynomial.diff_theta)


def E_op(f: SuperPolynomial, alpha) -> SuperPolynomial:
    return (f.scale(_over(f.N * f.N, alpha, "E"))
            + _index_sum(f, lambda g, i: g.diff_x(i).mul_x(i)))


def calE(f: SuperPolynomial, alpha=None) -> SuperPolynomial:
    return _index_sum(f, lambda g, i: g.diff_x(i).mul_x(i),
                      lambda g, i: g.diff_theta(i).mul_theta(i))


def q_tilde(f: SuperPolynomial, alpha=None) -> SuperPolynomial:
    return _index_sum(f, lambda g, i: g.diff_x(i).mul_x(i).mul_theta(i))


def L_op(n: int, f: SuperPolynomial) -> SuperPolynomial:
    """Virasoro mode, n <= 1 only (operators on polynomials)."""
    if n > 1:
        raise ValueError("only modes n <= 1 act on polynomials")
    half = Fraction(1 - n, 2)  # L_1's theta piece is zero before x_i^-1
    return _index_sum(f, lambda g, i: g.diff_x(i).mul_x(i, 1 - n),
                      lambda g, i: g.diff_theta(i).mul_theta(i).scale(half)
                      .mul_x(i, -n))


def G_op(r: Fraction, f: SuperPolynomial) -> SuperPolynomial:
    """Super-Virasoro mode at half-integer r <= 1/2."""
    r = Fraction(r)
    if r.denominator != 2:
        raise ValueError("r must be a half-odd integer")
    if r > Fraction(1, 2):
        raise ValueError("only modes r <= 1/2 act on polynomials")
    k = int(Fraction(1, 2) - r)
    return _index_sum(f, lambda g, i: g.diff_theta(i).mul_x(i, k),
                      lambda g, i: g.diff_x(i).mul_theta(i).mul_x(i, k))


# ---------------------------------------------------------------------------
# the operator table: every operator with the signature (f, alpha)
# ---------------------------------------------------------------------------

class OperatorSpec(NamedTuple):
    function: str  # attribute of this module, resolved at call time
    parity: int  # 1 for odd operators
    shift: tuple[int, int]  # (dn, dm) taken on a bidegree-(n|m) input


# Holding names rather than functions lets a rebinding of a module attribute
# (a wrapper, a test double) reach every by-name caller.
OPERATORS: dict[str, OperatorSpec] = {
    "E": OperatorSpec("E_op", 0, (0, 0)),
    "calE": OperatorSpec("calE", 0, (0, 0)),
    "q": OperatorSpec("q_op", 1, (-1, 1)),
    "Q": OperatorSpec("Q_op", 1, (0, 1)),
    "q_perp": OperatorSpec("q_perp", 1, (1, -1)),
    "Q_perp": OperatorSpec("Q_perp", 1, (0, -1)),
    "nabla": OperatorSpec("nabla", 0, (-1, 0)),
    "nabla_perp": OperatorSpec("nabla_perp", 0, (1, 0)),
    "q_tilde": OperatorSpec("q_tilde", 1, (0, 1)),
    "D": OperatorSpec("apply_D", 0, (0, 0)),
    "Delta": OperatorSpec("apply_Delta", 0, (0, 0)),
    "Sekiguchi": OperatorSpec("sekiguchi_S", 0, (0, 0)),
    "SekiguchiTilde": OperatorSpec("sekiguchi_S_tilde", 0, (0, 0)),
}


def operator(name: str) -> Callable:
    """The function (f, alpha) -> result registered under the name."""
    spec = OPERATORS.get(name)
    if spec is None:
        raise ValueError(f"unknown operator {name!r}")
    return globals()[spec.function]


# ---------------------------------------------------------------------------
# the relation table
# ---------------------------------------------------------------------------

# [row, col} brackets of the eight-dimensional algebra; entries are linear
# combinations of named generators, written as coefficient maps.
ALGEBRA_TABLE: dict[tuple[str, str], dict[str, int]] = {
    ("E", "E"): {}, ("E", "calE"): {}, ("E", "q"): {"q": -1}, ("E", "Q"): {},
    ("E", "q_perp"): {"q_perp": 1}, ("E", "Q_perp"): {},
    ("E", "nabla"): {"nabla": -1}, ("E", "nabla_perp"): {"nabla_perp": 1},
    ("calE", "calE"): {}, ("calE", "q"): {}, ("calE", "Q"): {"Q": 1},
    ("calE", "q_perp"): {}, ("calE", "Q_perp"): {"Q_perp": -1},
    ("calE", "nabla"): {"nabla": -1}, ("calE", "nabla_perp"): {"nabla_perp": 1},
    ("q", "q"): {}, ("q", "Q"): {}, ("q", "q_perp"): {"calE": 1},
    ("q", "Q_perp"): {"nabla": 1}, ("q", "nabla"): {}, ("q", "nabla_perp"): {"Q": 1},
    ("Q", "Q"): {}, ("Q", "q_perp"): {"nabla_perp": 1}, ("Q", "Q_perp"): {"E": 1},
    ("Q", "nabla"): {"q": -1}, ("Q", "nabla_perp"): {},
    ("q_perp", "q_perp"): {}, ("q_perp", "Q_perp"): {},
    ("q_perp", "nabla"): {"Q_perp": -1}, ("q_perp", "nabla_perp"): {},
    ("Q_perp", "Q_perp"): {}, ("Q_perp", "nabla"): {},
    ("Q_perp", "nabla_perp"): {"q_perp": 1},
    ("nabla", "nabla"): {}, ("nabla", "nabla_perp"): {"E": 1, "calE": 1},
    ("nabla_perp", "nabla_perp"): {},
}


def check_algebra_table(alpha, test_polys: Sequence[SuperPolynomial]) -> list[str]:
    """Verify every tabulated bracket on the given polynomials.

    Returns the list of failing relation names (empty when all pass).
    """
    def op(name: str) -> Callable[[SuperPolynomial], SuperPolynomial]:
        return lambda f: operator(name)(f, alpha)

    failures = []
    for (an, bn), combo in ALGEBRA_TABLE.items():
        A, B = op(an), op(bn)
        odd = OPERATORS[an].parity and OPERATORS[bn].parity
        for f in test_polys:
            # anticommutator of two odd operators, else commutator
            got = A(B(f)) + B(A(f)) if odd else A(B(f)) - B(A(f))
            want = SuperPolynomial(f.N)
            for name, coeff in combo.items():
                want += op(name)(f).scale(coeff)
            if got != want:
                failures.append(f"[{an},{bn}] on {f}")
                break
    return failures


def check_virasoro_relations(alpha, test_polys: Sequence[SuperPolynomial]
                             ) -> list[str]:
    """Check the negative-half super-Virasoro relations and the bridge
    identities to the homogeneous generators."""
    n_range = (-2, -1, 0, 1)
    r_range = (Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2))
    failures = []
    for f in test_polys:
        N = f.N
        n_a = _over(N, alpha, "the super-Virasoro bridge")
        for n in n_range:
            for m in n_range:
                if n + m <= 1 and (L_op(n, L_op(m, f)) - L_op(m, L_op(n, f))
                                   != L_op(n + m, f).scale(n - m)):
                    failures.append(f"[L_{n},L_{m}] on {f}")
        for n in n_range:
            for r in r_range:
                if n + r > Fraction(1, 2):
                    continue
                got = L_op(n, G_op(r, f)) - G_op(r, L_op(n, f))
                want = G_op(n + r, f).scale(Fraction(n, 2) - r)
                if got != want:
                    failures.append(f"[L_{n},G_{r}] on {f}")
        for r in r_range:
            for s in r_range:
                if r + s > 1:
                    continue
                got = G_op(r, G_op(s, f)) + G_op(s, G_op(r, f))
                want = L_op(int(r + s), f).scale(2)
                if got != want:
                    failures.append(f"{{G_{r},G_{s}}} on {f}")
        # bridges to the homogeneous algebra
        if G_op(Fraction(1, 2), f) != q_op(f) + Q_perp(f):
            failures.append(f"G_1/2 bridge on {f}")
        g_minus = Q_op(f, alpha) + q_perp(f) - (ferm_power(0, N) * f).scale(n_a)
        if G_op(Fraction(-1, 2), f) != g_minus:
            failures.append(f"G_-1/2 bridge on {f}")
        l_minus = nabla_perp(f, alpha) - (power_sum(1, N) * f).scale(n_a)
        if L_op(-1, f) != l_minus:
            failures.append(f"L_-1 bridge on {f}")
        half = Fraction(1, 2)
        l0 = (calE(f) + E_op(f, alpha)).scale(half) - f.scale(N * n_a * half)
        if L_op(0, f) != l0:
            failures.append(f"L_0 bridge on {f}")
    return failures


# ---------------------------------------------------------------------------
# dispatch by name (CLI surface)
# ---------------------------------------------------------------------------

def apply_operator(name: str, f: SuperPolynomial, alpha,
                   index: Optional[int] = None,
                   mode=None):
    """Apply Cherednik, L, G or an OPERATORS name; Sekiguchi gives u-lists."""
    name = name.strip()
    takes = {"Cherednik": "index", "L": "mode", "G": "mode"}.get(name)
    for flag, value in (("index", index), ("mode", mode)):
        if value is not None and flag != takes:
            raise ValueError(f"{name} does not take --{flag}")
    if name == "Cherednik":
        if index is None:
            raise ValueError("Cherednik needs --index")
        return cherednik(f, index, alpha)
    if name in ("L", "G"):
        parse, need = {"L": (int, "an integer --mode n <= 1"),
                       "G": (Fraction, "--mode r <= 1/2, half-integral")}[name]
        try:
            value = parse(mode)
        except (TypeError, ValueError, ZeroDivisionError):
            got = "" if mode is None else f", got {mode!r}"
            raise ValueError(f"{name} needs {need}{got}") from None
        return (L_op if name == "L" else G_op)(value, f)
    if name in ("D", "Delta") and not f.is_symmetric():
        raise NonPolynomialResult(f"{name} needs a symmetric input")
    return operator(name)(f, alpha)
