"""Jack superpolynomials over Q(a), their specializations and identities.

The primary construction is the joint triangular eigenproblem in the monomial
superbasis: the expansion is monic at its label, supported on dominance-smaller
labels, and killed by both eigenoperators minus their eigenvalues.  The
non-symmetric Jack polynomials solve the same kind of problem for the N
Cherednik operators on monomials, and both go through one factored
triangular peel.  The symmetrization of a non-symmetric Jack polynomial is
kept as an independent cross-check, never as the production path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd, lcm
from typing import Optional

from .coeffring import (ALPHA, ONE, AlphaPolynomial, AlphaRational,
                        PoleError, alpha_eval, clear_denominators,
                        poly_divide_linear)
# unused here: perfbench's test_tracer_wraps_every_binding reads jack.solve_exact
from .coeffring import solve_exact  # noqa: F401
from .ops import apply_D, apply_Delta, cherednik, operator
from .spart import (SuperPartition, add_circle_moves, bosonic_cells,
                    circle_to_square_moves, dominance_leq, e_star_poly,
                    e_tilde_poly, enumerate_sparts, eta_bar, f_stat,
                    lower_hook, partition_dominates, partitions_bounded,
                    remove_circle_moves, skew_circled_cells,
                    square_to_circle_moves, tilde_composition, upper_hook,
                    v_poly, z_stat)
from .superpoly import (SuperPolynomial, ferm_power, from_mbasis,
                        monomial_msym, prescribed_part, to_mbasis, to_pbasis,
                        unique_arrangements)


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

def _affine_row(image) -> dict:
    """One operator row, {label: entry}, from an image read off in a basis.

    Every eigenoperator here is affine in the deformation parameter, and only
    its diagonal terms carry it; the exchange terms stay rational.  So one
    pass with the generic parameter gives entries affine in a over an integer
    denominator, and normalizing them never needs a polynomial gcd.
    """
    row = {}
    for key, c in image.items():
        c = c * ONE
        if c.num.degree() > 1 or c.den.degree() > 0:
            raise RuntimeError(f"entry {c} at {key} is not affine in a")
        row[key] = c
    return row


@lru_cache(maxsize=None)
def _mbasis_matrices(n: int, m: int, N: int):
    labels = enumerate_sparts(n, m, N)
    d_rows = {}
    delta_rows = {}
    for om in labels:
        mono = monomial_msym(om, N)
        row_d = _affine_row(to_mbasis(apply_D(mono, ALPHA), verify=False))
        row_delta = _affine_row(to_mbasis(apply_Delta(mono, ALPHA),
                                          verify=False))
        for gm in set(row_d) | set(row_delta):
            if not dominance_leq(gm, om):
                raise RuntimeError(
                    f"triangularity broken: m_[{gm}] in image of m_[{om}]")
        d_rows[om] = row_d
        delta_rows[om] = row_delta
    return labels, d_rows, delta_rows


_JACK_CACHE: dict[tuple[SuperPartition, int], JackExpansion] = {}


def clear_caches() -> dict[str, int]:
    """Empty the in-process caches of the Jack layer; return their sizes."""
    sizes = {"_JACK_CACHE": len(_JACK_CACHE),
             "_mbasis_matrices": _mbasis_matrices.cache_info().currsize,
             "jack_nonsym": jack_nonsym.cache_info().currsize,
             "enumerate_sparts": enumerate_sparts.cache_info().currsize}
    _JACK_CACHE.clear()
    _mbasis_matrices.cache_clear()
    jack_nonsym.cache_clear()
    enumerate_sparts.cache_clear()
    return sizes


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
    found = _triangular_peel(L, below, [(d_rows, e_star_poly),
                                        (delta_rows, e_tilde_poly)])
    result = _JACK_CACHE[key] = JackExpansion(L, N, _coefficients(found))
    return result


# A coefficient in factored form: (num, factors, d) stands for
# num / (d * prod f**k over factors.items()), with num in Z[a], each f a
# primitive linear polynomial with positive leading coefficient, d > 0.

def _triangular_peel(L, below, pairs):
    """Factored coefficients of the monic triangular joint eigenfunction at L,
    each in lowest terms; zeros left out.

    `pairs` lists (rows, eigenvalue) per operator: rows[O][G] is the entry at
    G in the image of basis element O, and eigenvalue(G) the diagonal entry
    at G.  Each coefficient below L comes from the first operator whose
    eigenvalue there differs from L's: a row sum over those already found
    divided by that difference, which is linear in a.  So every denominator
    is an integer times a product of linear factors, and exact cancellation
    needs synthetic divisions only, never a gcd.
    """
    targets = [(rows, eigenvalue, eigenvalue(L)) for rows, eigenvalue in pairs]
    found = {L: (AlphaPolynomial.const(1), {}, 1)}
    for gm in below:  # a linear extension of the triangular order
        for rows, eigenvalue, target in targets:
            diff = target - eigenvalue(gm)
            if diff:
                break
        else:
            raise DegenerateSystem(f"{L} vs {gm}: equal eigenvalues")
        terms = [(c, rows[om][gm]) for om, c in found.items() if gm in rows[om]]
        c = _divide_row_sum(terms, diff)
        if c is not None:
            found[gm] = c
    return found


def _divide_row_sum(terms, diff):
    """(sum of c * v over terms) / diff in lowest factored form, or None if 0.

    The row entries v are affine in a over an integer denominator.
    """
    if diff.degree() > 1:
        raise RuntimeError(f"eigenvalue difference {diff} is not linear in a")
    factors: dict[AlphaPolynomial, int] = {}
    d = 1
    for (_, fac, dc), v in terms:
        for f, k in fac.items():
            if k > factors.get(f, 0):
                factors[f] = k
        d = lcm(d, dc * v.den.coeffs[0])
    num = AlphaPolynomial()
    for (cn, fac, dc), v in terms:
        part = cn * v.num * (d // (dc * v.den.coeffs[0]))
        for f, k in factors.items():
            extra = k - fac.get(f, 0)
            if extra:
                part = part * f ** extra
        num = num + part
    if not num:
        return None
    # diff = content * f with f primitive and of positive leading coefficient
    content = diff.content()
    if diff.leading() < 0:
        content, num = -content, -num
    d *= abs(content)
    if diff.degree() == 1:
        f = AlphaPolynomial(c // content for c in diff.coeffs)
        factors[f] = factors.get(f, 0) + 1
    for f in list(factors):
        while factors[f]:
            q = poly_divide_linear(num, f)
            if q is None:
                break
            num = q
            factors[f] -= 1
        if not factors[f]:
            del factors[f]
    g = gcd(num.content(), d)
    if g > 1:
        num = AlphaPolynomial(c // g for c in num.coeffs)
        d //= g
    return num, factors, d


def _denominator(factors, d) -> AlphaPolynomial:
    out = AlphaPolynomial.const(d)
    for f, k in factors.items():
        out = out * f ** k
    return out


def _coefficients(found) -> dict:
    """The peel's factored coefficients as elements of Q(a)."""
    return {key: AlphaRational(num, _denominator(factors, d))
            for key, (num, factors, d) in found.items()}


def eigen_check(expansion: JackExpansion) -> Optional[str]:
    """Why the expansion is not P_[label], or None when it is.

    P_L is the monic joint eigenfunction of D and Delta supported on labels
    of its family that L dominates.  Both eigen-equations are read in
    monomial-superbasis coordinates on the family's operator rows: for each
    label G of the family, sum over O of c_O * row_O[G] must equal e_L * c_G.
    An m-expansion is symmetric and both operators keep symmetry, so these
    coordinates decide the equations as the expanded polynomial would.  The
    coefficients are cleared to Z[a] and the rows to integer denominators,
    so the comparison is exact equality in Z[a] with no Q(a) normalize.
    """
    L, N, coeffs = expansion.label, expansion.N, expansion.coeffs
    n, m = L.degree()
    labels, d_rows, delta_rows = _mbasis_matrices(n, m, N)
    family = set(labels)
    for om in sorted(coeffs, key=lambda S: S.sort_key(), reverse=True):
        if not coeffs[om]:
            return f"zero coefficient at m_[{om}]"
        if om not in family:
            return f"m_[{om}] is outside the ({n}|{m}) family at N={N}"
        if not dominance_leq(om, L):
            return f"m_[{om}] is not dominated by m_[{L}]"
    if coeffs.get(L) != 1:
        return f"coefficient of m_[{L}] is not 1"
    cleared = clear_denominators(coeffs)
    for name, rows, ev in (("D", d_rows, e_star_poly(L)),
                           ("Delta", delta_rows, e_tilde_poly(L))):
        scale = 1
        for om in cleared:
            for v in rows[om].values():
                scale = lcm(scale, v.den.coeffs[0])
        image: dict[SuperPartition, AlphaPolynomial] = {}
        for om, c in cleared.items():
            for gm, v in rows[om].items():
                term = c * (v.num * (scale // v.den.coeffs[0]))
                image[gm] = image[gm] + term if gm in image else term
        target = ev * scale
        for gm in labels:  # biggest first: the leading residual term
            if image.get(gm, 0) != target * cleared.get(gm, 0):
                return f"{name} eigen-equation fails at m_[{gm}]"
    return None


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
    """Compositions whose sorted shape is dominated by that of eta, in order.

    Shapes come in the reverse-lex order of `partitions_bounded`, which
    extends dominance, and the compositions of one shape in descending order:
    every Cherednik operator is triangular in this order.
    """
    n, N = sum(eta), len(eta)
    shape = tuple(sorted(eta, reverse=True))
    out = []
    for mu in partitions_bounded(n, N):
        if partition_dominates(shape, mu):
            padded = list(mu) + [0] * (N - len(mu))
            out.extend(reversed(list(unique_arrangements(padded))))
    return out


@lru_cache(maxsize=None)
def jack_nonsym(eta: tuple[int, ...]) -> NonSymJack:
    """Monic joint eigenfunction of the Cherednik operators.

    Cherednik operator i sends x^nu to eta_bar(nu)_i x^nu plus monomials
    later in the order of `_compositions_below`, so E_eta is the triangular
    peel over the compositions after eta, with one row map per operator.
    """
    eta = tuple(eta)
    N = len(eta)
    basis = _compositions_below(eta)
    index = {nu: k for k, nu in enumerate(basis)}
    start = index[eta]
    alpha = AlphaPolynomial.gen()
    rows = [{} for _ in range(N)]
    for k in range(start, len(basis)):
        nu = basis[k]
        mono = SuperPolynomial(N, {((), nu): 1})
        for i in range(N):
            image = cherednik(mono, i + 1, alpha)
            row = _affine_row({e: c for (_, e), c in image.terms.items()})
            for e in row:
                if e not in index:
                    raise RuntimeError(f"Cherednik left the span: {e} from {nu}")
                if index[e] < k:
                    raise RuntimeError(
                        f"triangularity broken: x^{e} in image of x^{nu}")
            rows[i][nu] = row
    pairs = [(rows[i], lambda nu, i=i: eta_bar(nu, alpha)[i])
             for i in range(N)]
    found = _triangular_peel(eta, basis[start + 1:], pairs)
    return NonSymJack(eta, _coefficients(found))


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
