"""Differential operators: the two commuting eigenoperators, Dunkl-Cherednik
operators, the Sekiguchi pair, the sl(1|2) generators and the negative half
of the super-Virasoro algebra.

Every exchange term with an (x_i - x_j) denominator is realized through exact
polynomial division, so no rational function is ever materialized.  The two
eigenoperators require input invariant under each diagonal transposition
(symmetric superpolynomials); anything else raises NonPolynomialResult.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, NamedTuple, Optional, Sequence

from .superpoly import (DivisionFailure, SuperPolynomial, divide_xdiff,
                        pair_decompose, power_sum, ferm_power)

UList = list  # list of SuperPolynomial, coefficient of u^k at index k


class NonPolynomialResult(ArithmeticError):
    """Exact division failed: the input is outside the operator's domain."""


def _over(n: int, alpha):
    """Exact n / alpha, for alpha an int, a Fraction or an element of Q(a)."""
    return Fraction(n) / alpha


def _diffdiff(f: SuperPolynomial, i: int, j: int) -> SuperPolynomial:
    return f.diff_x(i) - f.diff_x(j)


def apply_D(f: SuperPolynomial, alpha) -> SuperPolynomial:
    """Quadratic eigenoperator; input must be pairwise diagonal-invariant."""
    N = f.N
    out = SuperPolynomial(N)
    half = Fraction(1, 2)
    for i in range(1, N + 1):
        out += f.diff_x(i).diff_x(i).mul_x(i, 2).scale(alpha * half)
    try:
        for i, j in combinations(range(1, N + 1), 2):
            A, B, C, D2 = pair_decompose(f, i, j)
            s_bc = divide_xdiff(B - C, i, j)
            r0 = divide_xdiff(_diffdiff(A, i, j), i, j)
            rB = divide_xdiff(_diffdiff(B, i, j) - s_bc, i, j)
            rC = divide_xdiff(_diffdiff(C, i, j) + s_bc, i, j)
            sD = divide_xdiff(D2, i, j)
            rD = _diffdiff(sD, i, j)
            pair = (r0 + rB.mul_theta(i) + rC.mul_theta(j)
                    + rD.mul_theta(j).mul_theta(i))
            out += pair.mul_x(i).mul_x(j)
    except DivisionFailure as exc:
        raise NonPolynomialResult(str(exc)) from exc
    return out


def apply_Delta(f: SuperPolynomial, alpha) -> SuperPolynomial:
    """Fermionic eigenoperator lifting the degeneracy of the quadratic one."""
    N = f.N
    out = SuperPolynomial(N)
    for i in range(1, N + 1):
        out += f.diff_theta(i).diff_x(i).mul_x(i).mul_theta(i).scale(alpha)
    try:
        for i, j in combinations(range(1, N + 1), 2):
            _, B, C, D2 = pair_decompose(f, i, j)
            s_bc = divide_xdiff(B - C, i, j)
            out += s_bc.mul_x(i).mul_theta(j) + s_bc.mul_x(j).mul_theta(i)
            out -= D2.mul_theta(j).mul_theta(i)
    except DivisionFailure as exc:
        raise NonPolynomialResult(str(exc)) from exc
    return out


def cherednik(f: SuperPolynomial, i: int, alpha) -> SuperPolynomial:
    """Dunkl-Cherednik operator on the commuting variables, defined on all input."""
    N = f.N
    out = f.diff_x(i).mul_x(i).scale(alpha) + f.scale(1 - i)
    for j in range(1, N + 1):
        if j == i:
            continue
        quot = divide_xdiff(f - f.swap_K(i, j), i, j)
        out += quot.mul_x(i if j < i else j)
    return out


# ---------------------------------------------------------------------------
# Sekiguchi pair, with u carried as a second polynomial indeterminate
# ---------------------------------------------------------------------------

def _ulist_apply_shifted(ul: UList, op: Callable, N: int) -> UList:
    """Multiply the u-polynomial by (op + u)."""
    zero = SuperPolynomial(N)
    out = [op(c) for c in ul] + [zero]
    for k in range(1, len(out)):
        out[k] = out[k] + ul[k - 1]
    return out


def sekiguchi_S(f: SuperPolynomial, alpha) -> UList:
    """Product of (Cherednik_i + u) over all i, as u-power coefficients."""
    ul: UList = [f]
    for i in range(1, f.N + 1):
        ul = _ulist_apply_shifted(ul, lambda g, i=i: cherednik(g, i, alpha), f.N)
    return ul


def _theta_support_projector(f: SuperPolynomial, m: int) -> SuperPolynomial:
    keep = tuple(range(1, m + 1))
    out = SuperPolynomial(f.N)
    for (T, e), c in f.terms.items():
        if T == keep:
            out.terms[(T, e)] = c
    return out


def _coset_reps(N: int, m: int):
    """Minimal-length representatives of S_N / (S_m x S_{N-m})."""
    reps = []
    for subset in combinations(range(1, N + 1), m):
        rest = [p for p in range(1, N + 1) if p not in subset]
        sigma = list(subset) + rest  # sigma(k) = k-th entry
        reps.append(sigma)
    return reps


def sekiguchi_S_tilde(f: SuperPolynomial, alpha,
                      full_sum: bool = False) -> UList:
    """Supersymmetric Sekiguchi operator on a theta-homogeneous input."""
    N = f.N
    degs = f.fermionic_degrees()
    if not degs:
        return [SuperPolynomial(N)]
    if len(degs) != 1:
        raise ValueError("input must be theta-homogeneous")
    m = degs.pop()
    pf = _theta_support_projector(f, m)
    ul: UList = [pf]
    for i in range(1, m + 1):
        ul = _ulist_apply_shifted(
            ul, lambda g, i=i: cherednik(g, i, alpha) + g.scale(alpha), N)
    for j in range(m + 1, N + 1):
        ul = _ulist_apply_shifted(ul, lambda g, j=j: cherednik(g, j, alpha), N)
    if full_sum:
        import itertools
        sigmas = [list(s) for s in itertools.permutations(range(1, N + 1))]
        import math
        scale = Fraction(1, math.factorial(m) * math.factorial(N - m))
        out = [SuperPolynomial(N) for _ in ul]
        for sigma in sigmas:
            for k, comp in enumerate(ul):
                out[k] += comp.act_Ksigma(sigma)
        return [c.scale(scale) for c in out]
    out = [SuperPolynomial(N) for _ in ul]
    for sigma in _coset_reps(N, m):
        for k, comp in enumerate(ul):
            out[k] += comp.act_Ksigma(sigma)
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

def nabla(f: SuperPolynomial, alpha=None) -> SuperPolynomial:
    out = SuperPolynomial(f.N)
    for i in range(1, f.N + 1):
        out += f.diff_x(i)
    return out


def nabla_perp(f: SuperPolynomial, alpha) -> SuperPolynomial:
    g = f.scale(_over(f.N, alpha))
    out = SuperPolynomial(f.N)
    for i in range(1, f.N + 1):
        out += f.diff_x(i).mul_x(i, 2)
        out += f.diff_theta(i).mul_theta(i).mul_x(i)
        out += g.mul_x(i)
    return out


def q_op(f: SuperPolynomial, alpha=None) -> SuperPolynomial:
    out = SuperPolynomial(f.N)
    for i in range(1, f.N + 1):
        out += f.diff_x(i).mul_theta(i)
    return out


def q_perp(f: SuperPolynomial, alpha=None) -> SuperPolynomial:
    out = SuperPolynomial(f.N)
    for i in range(1, f.N + 1):
        out += f.diff_theta(i).mul_x(i)
    return out


def Q_op(f: SuperPolynomial, alpha) -> SuperPolynomial:
    g = f.scale(_over(f.N, alpha))
    out = SuperPolynomial(f.N)
    for i in range(1, f.N + 1):
        out += (g + f.diff_x(i).mul_x(i)).mul_theta(i)
    return out


def Q_perp(f: SuperPolynomial, alpha=None) -> SuperPolynomial:
    out = SuperPolynomial(f.N)
    for i in range(1, f.N + 1):
        out += f.diff_theta(i)
    return out


def E_op(f: SuperPolynomial, alpha) -> SuperPolynomial:
    out = f.scale(_over(f.N * f.N, alpha))
    for i in range(1, f.N + 1):
        out += f.diff_x(i).mul_x(i)
    return out


def calE(f: SuperPolynomial, alpha=None) -> SuperPolynomial:
    out = SuperPolynomial(f.N)
    for i in range(1, f.N + 1):
        out += f.diff_x(i).mul_x(i)
        out += f.diff_theta(i).mul_theta(i)
    return out


def q_tilde(f: SuperPolynomial, alpha=None) -> SuperPolynomial:
    out = SuperPolynomial(f.N)
    for i in range(1, f.N + 1):
        out += f.diff_x(i).mul_x(i).mul_theta(i)
    return out


def L_op(n: int, f: SuperPolynomial) -> SuperPolynomial:
    """Virasoro mode, n <= 1 only (operators on polynomials)."""
    if n > 1:
        raise ValueError("only modes n <= 1 act on polynomials")
    out = SuperPolynomial(f.N)
    theta_weight = Fraction(1 - n, 2)
    for i in range(1, f.N + 1):
        out += f.diff_x(i).mul_x(i, 1 - n)
        if theta_weight:
            out += f.diff_theta(i).mul_theta(i).mul_x(i, -n).scale(theta_weight)
    return out


def G_op(r: Fraction, f: SuperPolynomial) -> SuperPolynomial:
    """Super-Virasoro mode at half-integer r <= 1/2."""
    r = Fraction(r)
    if r.denominator != 2:
        raise ValueError("r must be a half-odd integer")
    if r > Fraction(1, 2):
        raise ValueError("only modes r <= 1/2 act on polynomials")
    k = int(Fraction(1, 2) - r)
    out = SuperPolynomial(f.N)
    for i in range(1, f.N + 1):
        out += f.diff_theta(i).mul_x(i, k)
        out += f.diff_x(i).mul_theta(i).mul_x(i, k)
    return out


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
# bracket machinery and the relation table
# ---------------------------------------------------------------------------

Op = Callable[[SuperPolynomial], SuperPolynomial]


def commutator(A: Op, B: Op) -> Op:
    return lambda f: A(B(f)) - B(A(f))


def anticommutator(A: Op, B: Op) -> Op:
    return lambda f: A(B(f)) + B(A(f))


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
    def op(name: str) -> Op:
        return lambda f: operator(name)(f, alpha)

    failures = []
    for (an, bn), combo in ALGEBRA_TABLE.items():
        odd = OPERATORS[an].parity and OPERATORS[bn].parity
        bracket = (anticommutator if odd else commutator)(op(an), op(bn))
        for f in test_polys:
            got = bracket(f)
            want = SuperPolynomial(f.N)
            for name, coeff in combo.items():
                want += op(name)(f).scale(coeff)
            if got != want:
                failures.append(f"[{an},{bn}] on {f}")
                break
    return failures


def check_virasoro_relations(alpha, test_polys: Sequence[SuperPolynomial],
                             n_range=(-2, -1, 0, 1),
                             r_range=(Fraction(-3, 2), Fraction(-1, 2),
                                      Fraction(1, 2))) -> list[str]:
    """Check the negative-half super-Virasoro relations and the bridge
    identities to the homogeneous generators."""
    failures = []
    for f in test_polys:
        N = f.N
        n_a = _over(N, alpha)
        for n in n_range:
            for m in n_range:
                got = L_op(n, L_op(m, f)) - L_op(m, L_op(n, f))
                want = L_op(n + m, f).scale(n - m) if n + m <= 1 else None
                if want is None:
                    continue
                if got != want:
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


def l_minus2_combination(f: SuperPolynomial, alpha) -> SuperPolynomial:
    """L_{-2} expressed through the eigenoperators and power sums.

    3/(4a) [Delta, p2] + 1/(2a) [D, p2] - p2/2 - 1/(2a) (p1^2 - p2); the
    (p1^2 - p2) weight printed in the source carries a factor-2 slip, fixed
    here and pinned by tests against the direct mode action.
    """
    N = f.N
    p2 = power_sum(2, N)
    p1 = power_sum(1, N)
    inv_a = _over(1, alpha)
    quarter3 = inv_a * Fraction(3, 4)
    half_inv = inv_a * Fraction(1, 2)
    comm_delta = apply_Delta(p2 * f, alpha) - p2 * apply_Delta(f, alpha)
    comm_d = apply_D(p2 * f, alpha) - p2 * apply_D(f, alpha)
    return (comm_delta.scale(quarter3) + comm_d.scale(half_inv)
            - (p2 * f).scale(Fraction(1, 2))
            - (p1 * p1 * f - p2 * f).scale(half_inv))


# ---------------------------------------------------------------------------
# dispatch by name (CLI surface)
# ---------------------------------------------------------------------------

def apply_operator(name: str, f: SuperPolynomial, alpha,
                   index: Optional[int] = None,
                   mode=None):
    """Apply Cherednik, L, G or an OPERATORS name; Sekiguchi gives u-lists."""
    name = name.strip()
    if name == "Cherednik":
        if not index:
            raise ValueError("Cherednik needs --index")
        if not 1 <= index <= f.N:
            raise ValueError(f"--index {index} is outside 1..{f.N}")
        return cherednik(f, index, alpha)
    if name == "L":
        if mode is None:
            raise ValueError("L needs --mode n <= 1")
        return L_op(int(mode), f)
    if name == "G":
        if mode is None:
            raise ValueError("G needs --mode r <= 1/2, half-integral")
        return G_op(Fraction(mode), f)
    return operator(name)(f, alpha)
