"""Jack superpolynomials over Q(a), their specializations and identities.

The primary construction is the joint triangular eigenproblem in the monomial
superbasis: the expansion is monic at its label, supported on dominance-smaller
labels, and killed by both eigenoperators minus their eigenvalues.  The
symmetrization of a non-symmetric Jack polynomial is kept as an independent
cross-check, never as the production path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd
from typing import Optional

from .coeffring import (ALPHA, ONE, AlphaPolynomial, AlphaRational,
                        FieldMatrix, PoleError, UniqueSolution, alpha_eval,
                        solve_exact)
from .ops import apply_D, apply_Delta, cherednik, operator
from .spart import (SuperPartition, add_circle_moves, bosonic_cells,
                    circle_to_square_moves, dominance_leq, e_star_poly,
                    e_tilde_poly, enumerate_sparts, eta_bar, f_stat,
                    lower_hook, partition_dominates, remove_circle_moves,
                    skew_circled_cells, square_to_circle_moves,
                    tilde_composition, upper_hook, v_poly, z_stat)
from .superpoly import (SuperPolynomial, ferm_power, from_mbasis,
                        monomial_msym, prescribed_part, to_mbasis, to_pbasis)


class DegenerateSystem(ArithmeticError):
    """The symbolic eigenproblem failed to determine the expansion uniquely."""


@dataclass
class JackExpansion:
    label: SuperPartition
    N: int
    coeffs: dict[SuperPartition, AlphaRational]

    def polynomial(self) -> SuperPolynomial:
        return from_mbasis(self.coeffs, self.N)

    def at(self, a0) -> SuperPolynomial:
        """Specialize the deformation parameter; exact over Q."""
        a0 = Fraction(a0)
        numeric = {}
        for om, c in self.coeffs.items():
            try:
                v = alpha_eval(c, a0)
            except PoleError as exc:
                err = PoleError(
                    f"P_[{self.label}] has a pole at a={a0}: "
                    f"coefficient of m_[{om}] is {c}")
                err.label = self.label
                err.offending = om
                err.coefficient = c
                raise err from exc
            if v:
                numeric[om] = v
        return from_mbasis(numeric, self.N)


@dataclass
class NonSymJack:
    eta: tuple[int, ...]
    terms: dict[tuple[int, ...], AlphaRational]

    def polynomial(self) -> SuperPolynomial:
        N = len(self.eta)
        out = SuperPolynomial(N)
        for comp, c in self.terms.items():
            out._iadd_term(((), comp), c)
        return out


# ---------------------------------------------------------------------------
# eigenoperator matrices over the monomial superbasis, cached per degree
# ---------------------------------------------------------------------------

def _affine_rows(mono, op):
    """Expand op(mono; a) = base + a*slope over Q, return Q(a)-linear row.

    Both eigenoperators are affine in the deformation parameter, so two
    Fraction-arithmetic passes recover the exact Q(a)-valued matrix row.
    """
    at0 = to_mbasis(op(mono, Fraction(0)), verify=False)
    at1 = to_mbasis(op(mono, Fraction(1)), verify=False)
    row = {}
    for gm in set(at0) | set(at1):
        c0 = Fraction(at0.get(gm, 0))
        slope = Fraction(at1.get(gm, 0)) - c0
        den = c0.denominator * slope.denominator // gcd(
            c0.denominator, slope.denominator)
        row[gm] = AlphaRational(
            AlphaPolynomial((c0.numerator * (den // c0.denominator),
                             slope.numerator * (den // slope.denominator))),
            AlphaPolynomial((den,)))
    return row


@lru_cache(maxsize=None)
def _mbasis_matrices(n: int, m: int, N: int):
    labels = enumerate_sparts(n, m, N)
    d_rows = {}
    delta_rows = {}
    for om in labels:
        mono = monomial_msym(om, N)
        row_d = _affine_rows(mono, apply_D)
        row_delta = _affine_rows(mono, apply_Delta)
        for gm in set(row_d) | set(row_delta):
            if not dominance_leq(gm, om):
                raise RuntimeError(
                    f"triangularity broken: m_[{gm}] in image of m_[{om}]")
        d_rows[om] = row_d
        delta_rows[om] = row_delta
    return labels, d_rows, delta_rows


_JACK_CACHE: dict[tuple[SuperPartition, int], JackExpansion] = {}


def jack_symbolic(L: SuperPartition, N: int) -> JackExpansion:
    """Monic triangular joint eigenfunction expansion over Q(a)."""
    key = (L, N)
    hit = _JACK_CACHE.get(key)
    if hit is not None:
        return hit
    if L.length > N:
        raise ValueError(f"{L} does not fit in {N} variables")
    n, m = L.degree()
    labels, d_rows, delta_rows = _mbasis_matrices(n, m, N)
    below = [om for om in labels if om != L and dominance_leq(om, L)]
    e_l = AlphaRational(e_star_poly(L))
    et_l = AlphaRational(e_tilde_poly(L))
    coeffs: dict[SuperPartition, AlphaRational] = {L: ONE}
    try:
        for gm in below:  # enumeration order is a linear dominance extension
            num_d = AlphaRational(0)
            num_delta = AlphaRational(0)
            for om, c in coeffs.items():
                v = d_rows[om].get(gm)
                if v is not None:
                    num_d = num_d + c * v
                w = delta_rows[om].get(gm)
                if w is not None:
                    num_delta = num_delta + c * w
            den_d = e_l - AlphaRational(e_star_poly(gm))
            if den_d:
                coeffs[gm] = num_d / den_d
                continue
            den_delta = et_l - AlphaRational(e_tilde_poly(gm))
            if not den_delta:
                raise DegenerateSystem(f"{L} vs {gm}: equal eigenvalue pairs")
            coeffs[gm] = num_delta / den_delta
    except DegenerateSystem:
        coeffs = _jack_full_solve(L, below, d_rows, delta_rows, e_l, et_l)
    result = JackExpansion(L, N, {om: c for om, c in coeffs.items() if c})
    result.coeffs.setdefault(L, ONE)
    _JACK_CACHE[key] = result
    return result


def _jack_full_solve(L, below, d_rows, delta_rows, e_l, et_l):
    """Stacked overdetermined solve of both eigenequations (fallback path)."""
    unknowns = list(below)
    rows = sorted({g for om in [L] + unknowns for g in d_rows[om]}
                  | {g for om in [L] + unknowns for g in delta_rows[om]},
                  key=lambda S: S.sort_key())
    entries = []
    rhs = []
    for which, mats, ev in (("d", d_rows, e_l), ("delta", delta_rows, et_l)):
        for g in rows:
            row = []
            for om in unknowns:
                v = mats[om].get(g, AlphaRational(0))
                if om == g:
                    v = v - ev
                row.append(v * ONE)
            entries.extend(row)
            b = mats[L].get(g, AlphaRational(0))
            if L == g:
                b = b - ev
            rhs.append(-b)
    res = solve_exact(FieldMatrix(2 * len(rows), len(unknowns), entries), rhs)
    if not isinstance(res, UniqueSolution):
        raise DegenerateSystem(f"joint eigenproblem singular for {L}")
    out = {L: ONE}
    out.update({om: c for om, c in zip(unknowns, res.vector)})
    return out


def jack_poly(L: SuperPartition, N: int) -> SuperPolynomial:
    return jack_symbolic(L, N).polynomial()


def jack_at(L: SuperPartition, N: int, a0) -> SuperPolynomial:
    """The Jack superpolynomial with the parameter specialized to a rational."""
    return jack_symbolic(L, N).at(a0)


def jack_expand(f: SuperPolynomial, N: int,
                verify: bool = True) -> dict[SuperPartition, object]:
    """Expand a symmetric superpolynomial in the Jack basis (triangular peel)."""
    residual = to_mbasis(f, verify=verify)
    if not residual:
        return {}
    degrees = {L.degree() for L in residual}
    if len(degrees) != 1:
        raise ValueError("Jack expansion needs a bi-homogeneous input")
    (n, m), = degrees
    out = {}
    for L in enumerate_sparts(n, m, N):
        c = residual.get(L)
        if not c:
            continue
        out[L] = c
        for om, v in jack_symbolic(L, N).coeffs.items():
            cur = residual.get(om, AlphaRational(0)) - c * v
            if cur:
                residual[om] = cur
            else:
                residual.pop(om, None)
    if residual:
        raise ValueError(f"not in the span of Jack superpolynomials: {residual}")
    return out


# ---------------------------------------------------------------------------
# non-symmetric Jack polynomials
# ---------------------------------------------------------------------------

def _compositions_below(eta: tuple[int, ...]):
    """Compositions whose sorted shape is dominated by that of eta."""
    from .spart import partitions_bounded
    n, N = sum(eta), len(eta)
    shape = tuple(sorted(eta, reverse=True))
    out = []
    for mu in partitions_bounded(n, N):
        if not partition_dominates(shape, mu):
            continue
        padded = tuple(mu) + (0,) * (N - len(mu))
        seen = set()
        for arr in permutations(padded):
            if arr not in seen:
                seen.add(arr)
                out.append(arr)
    out.sort(reverse=True)
    return out


@lru_cache(maxsize=None)
def jack_nonsym(eta: tuple[int, ...]) -> NonSymJack:
    """Monic joint eigenfunction of the Cherednik operators."""
    eta = tuple(eta)
    N = len(eta)
    basis = _compositions_below(eta)
    index = {comp: k for k, comp in enumerate(basis)}
    bars = eta_bar(eta, ALPHA)
    columns = []
    for comp in basis:
        cols = []
        for i in range(1, N + 1):
            mono = SuperPolynomial(N, {((), comp): ONE})
            img = cherednik(mono, i, ALPHA)
            col = {}
            for (_, e), c in img.terms.items():
                if e not in index:
                    raise RuntimeError(f"Cherednik left the span: {e} from {comp}")
                col[e] = c
            cols.append(col)
        columns.append(cols)
    unknowns = [comp for comp in basis if comp != eta]
    pos = {comp: k for k, comp in enumerate(unknowns)}
    entries = []
    rhs = []
    for i in range(N):
        for mu in basis:
            row = [AlphaRational(0)] * len(unknowns)
            for comp in unknowns:
                v = columns[index[comp]][i].get(mu, AlphaRational(0))
                if comp == mu:
                    v = v - bars[i]
                row[pos[comp]] = v
            entries.extend(row)
            b = columns[index[eta]][i].get(mu, AlphaRational(0))
            if mu == eta:
                b = b - bars[i]
            rhs.append(-b)
    res = solve_exact(FieldMatrix(N * len(basis), len(unknowns), entries), rhs)
    if not isinstance(res, UniqueSolution):
        raise DegenerateSystem(f"non-symmetric eigenproblem singular for {eta}")
    terms = {eta: ONE}
    for comp, c in zip(unknowns, res.vector):
        if c:
            terms[comp] = c
    return NonSymJack(eta, terms)


def symmetrized_from_nonsym(L: SuperPartition, N: int) -> SuperPolynomial:
    """Symmetrization route: sign/f * sum_w K_w theta_1..theta_m E_(tilde L)."""
    m = L.m
    E = jack_nonsym(tilde_composition(L, N)).polynomial()
    lead = E
    for i in range(m, 0, -1):
        lead = lead.mul_theta(i)
    total = SuperPolynomial(N)
    for sigma in permutations(range(1, N + 1)):
        total += lead.act_Ksigma(list(sigma))
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    scale = AlphaRational(Fraction(sign, f_stat(L.sym)))
    return total.scale(scale)


def symmetrization_check(L: SuperPartition, N: int) -> bool:
    return symmetrized_from_nonsym(L, N) == jack_poly(L, N)


# ---------------------------------------------------------------------------
# norms, evaluation, duality
# ---------------------------------------------------------------------------

def norm_hook(L: SuperPartition, alpha=None) -> AlphaRational:
    """Squared norm from the two hook families.

    The bosonic-cell product alone misses the purely fermionic contribution:
    reconciling against the gram route fixes the prefactor alpha^m (no cells
    carry it when every row ends in a circle, yet the scalar product still
    scales by alpha per circled row).
    """
    num = ONE
    den = ONE
    for s in bosonic_cells(L):
        num = num * AlphaRational(upper_hook(L, s))
        den = den * AlphaRational(lower_hook(L, s))
    val = (ALPHA ** L.m) * num / den
    if alpha is None or alpha == ALPHA:
        return val
    return alpha_eval(val, alpha)


def norm_gram(L: SuperPartition, N: int) -> AlphaRational:
    """Squared norm straight from the power-sum scalar product."""
    n, m = L.degree()
    if N < n + m:
        raise ValueError(f"need N >= {n + m} for a faithful scalar product")
    expansion = to_pbasis(jack_poly(L, N), verify=False)
    acc = AlphaRational(0)
    for om, c in expansion.items():
        acc = acc + c * c * (ALPHA ** om.length) * z_stat(om.sym)
    return acc


def evaluation_formula(L: SuperPartition, N: int) -> AlphaRational:
    """Closed product over the skew cells divided by the lower-hook scale."""
    prod = ONE
    for (i, j) in skew_circled_cells(L):
        prod = prod * AlphaRational(AlphaPolynomial.linear(N - i + 1, j - 1))
    return prod / AlphaRational(v_poly(L))


def evaluation_direct(L: SuperPartition, N: int) -> AlphaRational:
    """All-ones value of the Vandermonde-stripped coefficient polynomial."""
    P = jack_poly(L, N)
    g = prescribed_part(P, L.m)
    val = g.eval_ones()
    return val * ONE


def duality_check(L: SuperPartition, N: int) -> bool:
    """Duality against the conjugate label at inverted parameter."""
    from .spart import conjugate
    from .superpoly import omega_alpha
    n, m = L.degree()
    if N < n + m:
        raise ValueError(f"need N >= {n + m} for the duality check")
    lhs = omega_alpha(jack_poly(L, N), ALPHA)
    dual = jack_symbolic(conjugate(L), N)
    rhs = SuperPolynomial(N)
    for om, c in dual.coeffs.items():
        rhs += monomial_msym(om, N).scale(c.subs_inverse())
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    rhs = rhs.scale(norm_hook(L) * sign)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Pieri expansions: closed hook products versus direct operator action
# ---------------------------------------------------------------------------

PIERI_KINDS = ("p0", "Q", "Qperp", "q", "qperp")


def _circles_above(S: SuperPartition, row: int) -> int:
    return sum(1 for idx, (_, circ) in enumerate(S.rows(), start=1)
               if circ and idx < row)


def pieri_closed(kind: str, L: SuperPartition, N: int) -> dict[SuperPartition, AlphaRational]:
    """Hook-ratio coefficient map of one lowering/raising operator."""
    if kind in ("p0", "Q"):
        moves = add_circle_moves(L, N)
    elif kind == "Qperp":
        moves = remove_circle_moves(L)
    elif kind == "q":
        moves = square_to_circle_moves(L)
    elif kind == "qperp":
        moves = circle_to_square_moves(L)
    else:
        raise ValueError(f"unknown Pieri kind {kind!r}")
    out = {}
    for mv in moves:
        om = mv.result
        if om.length > N:
            continue
        i, j = mv.cell
        sign = -1 if _circles_above(om, i) % 2 else 1
        coeff = ONE * sign
        if kind in ("p0", "Q"):
            for i2 in range(1, i):
                s = (i2, j)
                coeff = coeff * AlphaRational(upper_hook(L, s)) \
                    / AlphaRational(upper_hook(om, s))
            if kind == "Q":
                coeff = coeff * ((N + 1 - i) + ALPHA * (j - 1)) / ALPHA
        elif kind == "q":
            for j2 in range(1, j):
                s = (i, j2)
                coeff = coeff * AlphaRational(upper_hook(L, s)) \
                    / AlphaRational(upper_hook(om, s))
        elif kind == "Qperp":
            for j2 in range(1, j):
                s = (i, j2)
                coeff = coeff * AlphaRational(lower_hook(om, s)) \
                    / AlphaRational(lower_hook(L, s))
            coeff = coeff * ((N + 1 - i) + ALPHA * (j - 1))
        elif kind == "qperp":
            for i2 in range(1, i):
                s = (i2, j)
                coeff = coeff * AlphaRational(lower_hook(om, s)) \
                    / AlphaRational(lower_hook(L, s))
        out[om] = coeff
    return out


def pieri_direct(kind: str, L: SuperPartition, N: int) -> dict[SuperPartition, object]:
    """Apply the operator to the Jack polynomial and re-expand in Jack basis.

    p0 multiplies; the other kinds name table operators, Qperp for Q_perp.
    """
    if kind not in PIERI_KINDS:
        raise ValueError(f"unknown Pieri kind {kind!r}")
    P = jack_poly(L, N)
    if kind == "p0":
        g = ferm_power(0, N) * P
    else:
        g = operator(kind.replace("perp", "_perp"))(P, ALPHA)
    return jack_expand(g, N, verify=False)


def pieri_check(kind: str, L: SuperPartition, N: int) -> bool:
    closed = pieri_closed(kind, L, N)
    direct = pieri_direct(kind, L, N)
    keys = set(closed) | set(direct)
    return all(closed.get(k, AlphaRational(0)) == direct.get(k, AlphaRational(0))
               for k in keys)


# ---------------------------------------------------------------------------
# removal/extraction factorizations (used as oracles)
# ---------------------------------------------------------------------------

def _shift_vars_down(f: SuperPolynomial) -> SuperPolynomial:
    out = SuperPolynomial(f.N - 1)
    for (T, e), c in f.terms.items():
        if e[0] != 0 or (T and T[0] == 1):
            raise ValueError("variable 1 still present")
        out.terms[(tuple(t - 1 for t in T), e[1:])] = c
    return out


def removal_identities(L: SuperPartition, N: Optional[int] = None) -> dict[str, Optional[bool]]:
    """Check the four factorization identities applicable to the label."""
    report: dict[str, Optional[bool]] = {
        "column_removal": None, "circle_removal": None,
        "row_extraction": None, "fermionic_row_extraction": None,
    }
    ell = L.length
    star_len = sum(1 for p in L.star if p)
    # column removal: no circle in the first column, full first column
    if ell and 0 not in L.antisym and star_len == ell:
        P = jack_poly(L, ell)
        reduced = SuperPartition(tuple(a - 1 for a in L.antisym),
                                 tuple(s - 1 for s in L.sym if s > 1))
        rhs = jack_poly(reduced, ell)
        for i in range(1, ell + 1):
            rhs = rhs.mul_x(i)
        report["column_removal"] = P == rhs
    # circle removal: lone circle at the bottom of the first column
    if ell and L.antisym and L.antisym[-1] == 0 and star_len == ell - 1:
        P = jack_poly(L, ell)
        g = P.diff_theta(ell)
        g = SuperPolynomial(ell, {(T, e): c for (T, e), c in g.terms.items()
                                  if e[ell - 1] == 0})
        g = SuperPolynomial(ell - 1, {(T, e[:-1]): c
                                      for (T, e), c in g.terms.items()})
        if (L.m - 1) % 2:
            g = -g
        reduced = SuperPartition(L.antisym[:-1], L.sym)
        report["circle_removal"] = g == jack_poly(reduced, ell - 1)
    if N is None:
        N = max(ell + 1, 2)
    # row extraction: first row bosonic
    if L.sym and (L.m == 0 or L.sym[0] > L.antisym[0]):
        k0 = L.sym[0]
        P = jack_poly(L, N)
        got = P.coefficient_xpower(1, k0)
        reduced = SuperPartition(L.antisym, L.sym[1:])
        want = jack_poly(reduced, N - 1)
        report["row_extraction"] = _shift_vars_down(got) == want
    # fermionic row extraction: first row circled
    if L.antisym and (not L.sym or L.antisym[0] >= L.sym[0]):
        k0 = L.antisym[0]
        P = jack_poly(L, N)
        got = P.diff_theta(1).coefficient_xpower(1, k0)
        reduced = SuperPartition(L.antisym[1:], L.sym)
        want = jack_poly(reduced, N - 1)
        report["fermionic_row_extraction"] = _shift_vars_down(got) == want
    return report


# ---------------------------------------------------------------------------
# integral form
# ---------------------------------------------------------------------------

def integral_form(L: SuperPartition, N: int) -> tuple[JackExpansion, bool]:
    """Scale by the lower-hook product; report natural-coefficient positivity."""
    base = jack_symbolic(L, N)
    v = AlphaRational(v_poly(L))
    coeffs = {om: c * v for om, c in base.coeffs.items()}
    natural = all(c.is_polynomial() and all(k >= 0 for k in c.num.coeffs)
                  for c in coeffs.values())
    return JackExpansion(L, N, coeffs), natural
