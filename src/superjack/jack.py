"""Jack superpolynomials over Q(a), their specializations and identities.

P_L is the joint triangular eigenfunction of D and Delta in the monomial
superbasis: monic at its label, supported on dominance-smaller labels, and
killed by both eigenoperators minus their eigenvalues.  Both operators are
applied once per label with the Z[a] generator, in at most l(label)+1
variables, on demand, so families share rows.  Only diagonal entries carry
a, so the triangular peel sums int tuples over products of linear factors,
cancels those by an integer root test, and normalizes once in Q(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm
from typing import Callable, Optional

from .coeffring import (ALPHA, ONE, ZERO, AlphaPolynomial, AlphaRational,
                        PoleError, _poly, alpha_eval, clear_denominators)
# unused here: perfbench's test_tracer_wraps_every_binding reads jack.solve_exact
from .coeffring import solve_exact  # noqa: F401
from .ops import _pair_pulls, apply_D, apply_Delta, operator
from .spart import (SuperPartition, _dominance_key, add_circle_moves,
                    bosonic_cells, circle_to_square_moves, conjugate,
                    dominance_leq, e_star_poly, e_tilde_poly,
                    enumerate_sparts, lower_hook, remove_circle_moves,
                    skew_circled_cells, square_to_circle_moves, upper_hook,
                    v_poly, z_stat)
from .superpoly import (SuperPolynomial, _arrangements, _placements, combine,
                        ferm_power, from_mbasis, monomial_msym, omega_alpha,
                        power_sum_columns, prescribed_monomial, to_mbasis,
                        to_pbasis)


class DegenerateSystem(ArithmeticError):
    """The symbolic eigenproblem failed to determine the expansion uniquely."""


@dataclass
class JackExpansion:
    """P_label in N variables by its monomial-superbasis coefficients: in
    Q(a), or in Q once `jack_at` has specialized the parameter."""
    label: SuperPartition
    N: int
    coeffs: dict[SuperPartition, AlphaRational | Fraction]

    def polynomial(self) -> SuperPolynomial:
        return from_mbasis(self.coeffs, self.N)

    def coeffs_at(self, a0) -> dict[SuperPartition, Fraction]:
        """The monomial-superbasis coefficients at the parameter a0, exact
        over Q, with the zeros left out.

        A coefficient with a pole at a0 raises PoleError carrying the
        ``label``, ``N``, the ``offending`` monomial and its ``coefficient``.
        """
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
                err.N = self.N
                err.offending = om
                err.coefficient = c
                raise err from exc
            if v:
                numeric[om] = v
        return numeric

    def at(self, a0) -> SuperPolynomial:
        """Specialize the deformation parameter; exact over Q."""
        return from_mbasis(self.coeffs_at(a0), self.N)


# ---------------------------------------------------------------------------
# eigenoperator matrices over the monomial superbasis, cached per label
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _label_rows(om: SuperPartition, Nv: int):
    """The D and Delta rows of m_om in Nv variables, {label: entry}; only the
    diagonal terms carry the parameter, so each entry is an int or an element
    of Z[a] of degree 1."""
    alpha = AlphaPolynomial.gen()
    mono = monomial_msym(om, Nv)
    row_d = to_mbasis(apply_D(mono, alpha), verify=False)
    row_delta = to_mbasis(apply_Delta(mono, alpha), verify=False)
    for gm in set(row_d) | set(row_delta):
        if not dominance_leq(gm, om):
            raise RuntimeError(
                f"triangularity broken: m_[{gm}] in image of m_[{om}]")
    return row_d, row_delta


def _rows(labels, N: int):
    """The D and Delta rows in N variables of each of `labels`, as two dicts
    {label: {label: entry}}, read from `_label_rows`.

    The row of O in N variables is its row in Nv = min(N, l(O)+1), so
    families at different N share it:
    1. D and Delta commute with x_N = theta_N = 0: each of their terms that
       involves index N carries x_N or theta_N (the pair images x_i x_N(...)
       of D, (x_i theta_N + x_N theta_i)(...) and theta_i theta_N(...) of
       Delta, the diagonal x_N^2 d_N^2 and theta_N x_N d_N d_theta_N), and
       m_O(N) restricts to m_O(N-1), or to 0 when l(O) = N.  So the row in
       N-1 variables is the row in N cut to labels of length <= N-1.
    2. A row reaches no label longer than l(O)+1: each exchange term touches
       two indices and vanishes unless the source term already uses one.
    By 1, the row in Nv variables is the row in N cut to labels of length
    <= Nv, and by 2 the cut drops nothing.
    """
    rows = {om: _label_rows(om, min(N, om.length + 1)) for om in labels}
    return ({om: r[0] for om, r in rows.items()},
            {om: r[1] for om, r in rows.items()})


@lru_cache(maxsize=None)
def jack_symbolic(L: SuperPartition, N: int) -> JackExpansion:
    """Monic triangular joint eigenfunction expansion over Q(a).  The peel
    reads the rows of L and of the labels below it only, so a cold call
    builds no row of a label that L does not dominate."""
    if L.length > N:
        raise ValueError(f"{L} does not fit in {N} variables")
    below = [om for om in enumerate_sparts(*L.degree(), N)
             if om != L and dominance_leq(om, L)]
    d_rows, delta_rows = _rows([L, *below], N)
    found = _triangular_peel(L, below, [(d_rows, e_star_poly),
                                        (delta_rows, e_tilde_poly)])
    return JackExpansion(L, N, _coefficients(found))


def _triangular_peel(L, below, pairs):
    """Coefficients of the monic triangular joint eigenfunction at L in lowest
    factored form, zeros left out: (num, factors, d) is num / (d * prod
    (f0 + f1*a)**k over factors.items()), num a trimmed int tuple, lowest
    degree first, each (f0, f1) primitive with f1 > 0, and d > 0.

    `pairs` lists (rows, eigenvalue) per operator: rows[O][G] is the entry at
    G in the image of basis element O, and eigenvalue(G) the diagonal entry
    at G.  Each coefficient below L is a row sum over those already found
    (only diagonal entries carry a, so ints times int tuples), divided by the
    first eigenvalue difference from L that is nonzero, linear in a.  Each
    coefficient found is pushed into the sums of the labels its rows reach
    that are still unsolved by that operator, so each row entry is read
    once.  The only cancellations are by linear factors, found without a
    gcd: by Gauss's lemma a primitive f0 + f1*a divides num in Z[a] exactly
    when the integer f1**deg(num) * num(-f0/f1) is 0.
    """
    targets = [eigenvalue(L) for _, eigenvalue in pairs]
    plan, wanted = [], [set() for _ in pairs]
    for gm in below:  # a linear extension of the triangular order
        for k, (_, eigenvalue) in enumerate(pairs):
            diff = targets[k] - eigenvalue(gm)
            if diff:
                plan.append((gm, k, diff.coeffs))
                wanted[k].add(gm)
                break
        else:
            raise DegenerateSystem(f"{L} vs {gm}: equal eigenvalues")
    sums = {gm: [] for gm in below}
    found = {}

    def take(om, c):  # push c into the row sums of the labels still wanted
        found[om] = c
        for (rows, _), labels in zip(pairs, wanted):
            for gm, v in rows[om].items():
                if gm in labels:
                    sums[gm].append((c, v))

    take(L, ((1,), {}, 1))
    for gm, k, diff in plan:
        wanted[k].discard(gm)
        terms = sums.pop(gm)
        c = _divide_row_sum(terms, diff) if terms else None
        if c is not None:
            take(gm, c)
    return found


def _divide_row_sum(terms, diff):
    """(sum of c * v over terms) / diff in lowest factored form, or None if 0;
    factors in sorted order, so `_product` sees one key per product."""
    assert len(diff) <= 2, f"eigenvalue difference {diff} is not linear in a"
    c0, c1 = (*diff, 0)[:2]
    g = gcd(c0, c1) if (c1 or c0) > 0 else -gcd(c0, c1)  # sign goes to d
    new = (c0 // g, c1 // g)  # diff = g * (f0 + f1*a) when c1 != 0
    factors = {new: 0} if c1 else {}
    for (_, fac, _), _v in terms:
        for f, k in fac.items():
            factors[f] = max(k, factors.get(f, 0))
    factors = dict(sorted(factors.items()))
    d = lcm(*(dc for (_, _, dc), _v in terms))
    num = [0] * (max(len(t[0][0]) for t in terms) + sum(factors.values()))
    for (cn, fac, dc), v in terms:
        assert type(v) is int, f"off-diagonal row entry {v} carries a"
        v *= d // dc
        cof = _product(*((f, k - fac.get(f, 0))
                         for f, k in factors.items() if k > fac.get(f, 0)))
        for i, x in enumerate(cn):
            for j, y in enumerate(cof, i):
                num[j] += v * x * y
    while num and not num[-1]:
        num.pop()
    if not num:
        return None
    if c1:
        factors[new] += 1
    for f in factors:
        while factors[f] and (q := _divide_linear(num, f)) is not None:
            num, factors[f] = q, factors[f] - 1
    d *= g
    g = gcd(d, *num) if d > 0 else -gcd(d, *num)
    return (tuple(x // g for x in num), {f: k for f, k in factors.items() if k},
            d // g)


def _root_value(num, f0, f1) -> int:
    """f1**deg(num) * num(-f0/f1), by Horner on ints."""
    s, w = 0, 1
    for x in reversed(num):
        s, w = s * -f0 + x * w, w * f1
    return s


def _divide_linear(num, f):
    """num / (f0 + f1*a) by synthetic division over Z, top down, or None when
    the primitive f = (f0, f1) does not divide num: its root value is not 0."""
    if _root_value(num, *f):
        return None
    q = [0] * len(num)
    for i in range(len(num) - 1, 0, -1):
        q[i - 1] = (num[i] - f[0] * q[i]) // f[1]
    return q[:-1]


@lru_cache(maxsize=None)
def _product(*items) -> tuple:
    """prod (f0 + f1*a)**k over the items ((f0, f1), k), an int tuple."""
    out = [1]
    for f0, f1 in (f for f, k in items for _ in range(k)):
        out = [x * f0 + y * f1 for x, y in zip(out + [0], [0, *out])]
    return tuple(out)


def _coefficients(found) -> dict:
    """The peel's coefficients in Q(a), by the normalizing constructor."""
    return {key: AlphaRational(_poly(num),
                               _poly([d * x for x in _product(*fac.items())]))
            for key, (num, fac, d) in found.items()}


_CACHES = (jack_symbolic, _label_rows, enumerate_sparts, power_sum_columns,
           prescribed_monomial, _product, _dominance_key, e_star_poly,
           e_tilde_poly, _pair_pulls, _placements, _arrangements)


def clear_caches() -> dict[str, int]:
    """Empty the in-process caches of the Jack layer; return their sizes."""
    sizes = {c.__name__: c.cache_info().currsize for c in _CACHES}
    for c in _CACHES:
        c.cache_clear()
    return sizes


def eigen_check(expansion: JackExpansion) -> Optional[str]:
    """Why the expansion is not P_[label], or None when it is.

    P_L is the monic joint eigenfunction of D and Delta supported on labels
    of its family that L dominates.  Both eigen-equations are read in
    monomial-superbasis coordinates on the rows of the labels the expansion
    lists: for each label G of the family, sum over O of c_O * row_O[G] must
    equal e_L * c_G.
    An m-expansion is symmetric and both operators keep symmetry, so these
    coordinates decide the equations as the expanded polynomial would.  The
    rows lie in Z[a] and the coefficients are cleared to Z[a], so the
    comparison is exact equality in Z[a] with no Q(a) normalize.
    """
    L, N, coeffs = expansion.label, expansion.N, expansion.coeffs
    n, m = L.degree()
    labels = enumerate_sparts(n, m, N)
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
    d_rows, delta_rows = _rows(cleared, N)
    for name, rows, ev in (("D", d_rows, e_star_poly(L)),
                           ("Delta", delta_rows, e_tilde_poly(L))):
        image = combine(cleared, rows)
        for gm in labels:  # biggest first: the leading residual term
            if image.get(gm, 0) != ev * cleared.get(gm, 0):
                return f"{name} eigen-equation fails at m_[{gm}]"
    return None


def jack_poly(L: SuperPartition, N: int) -> SuperPolynomial:
    return jack_symbolic(L, N).polynomial()


def jack_at(L: SuperPartition, N: int, a0) -> JackExpansion:
    """P_L with the parameter specialized to a rational: its m-coordinates
    over Q, zeros left out, with `coeffs_at`'s PoleError on a pole."""
    return JackExpansion(L, N, jack_symbolic(L, N).coeffs_at(a0))


# ---------------------------------------------------------------------------
# norms, evaluation, duality
# ---------------------------------------------------------------------------

def norm_hook(L: SuperPartition) -> AlphaRational:
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
    return (ALPHA ** L.m) * num / den


def norm_gram(L: SuperPartition, N: int) -> AlphaRational:
    """Squared norm straight from the power-sum scalar product."""
    n, m = L.degree()
    if N < n + m:
        raise ValueError(f"need N >= {n + m} for a faithful scalar product")
    expansion = to_pbasis(jack_symbolic(L, N).coeffs, N)
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
    """All-ones value of the Vandermonde-stripped coefficient polynomial, read
    as the sum of c_O times that of each prescribed monomial, P unexpanded."""
    return sum((c * prescribed_monomial(om, N).eval_ones()
                for om, c in jack_symbolic(L, N).coeffs.items()), ZERO)


def duality_check(L: SuperPartition, N: int) -> bool:
    """Duality against the conjugate label at inverted parameter.

    omega_alpha P_L = sign * norm_hook(L) * P_L'(1/a), with L' the conjugate
    label, compared in monomial-superbasis coordinates.
    """
    n, m = L.degree()
    if N < n + m:
        raise ValueError(f"need N >= {n + m} for the duality check")
    lhs = omega_alpha(jack_symbolic(L, N).coeffs, N, ALPHA)
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    scale = norm_hook(L) * sign
    dual = jack_symbolic(conjugate(L), N)
    return lhs == {om: scale * c.subs_inverse()
                   for om, c in dual.coeffs.items()}


# ---------------------------------------------------------------------------
# Pieri expansions: closed hook products versus the operator's action
# ---------------------------------------------------------------------------

# kind: (moves, hook, walk up the column (else along the row), L's hook on
# top, content scale or None); the coefficient of each move is the sign of
# the circles above it times the hook ratios over the cells it passes.
_PIERI_TABLE = {
    "p0": (add_circle_moves, upper_hook, True, True, None),
    "Q": (add_circle_moves, upper_hook, True, True, ONE / ALPHA),
    "Qperp": (remove_circle_moves, lower_hook, False, False, ONE),
    "q": (square_to_circle_moves, upper_hook, False, True, None),
    "qperp": (circle_to_square_moves, lower_hook, True, False, None),
}
PIERI_KINDS = tuple(_PIERI_TABLE)


def _circles_above(S: SuperPartition, row: int) -> int:
    return sum(1 for idx, (_, circ) in enumerate(S.rows(), start=1)
               if circ and idx < row)


def pieri_closed(kind: str, L: SuperPartition, N: int) -> dict[SuperPartition, AlphaRational]:
    """Hook-ratio coefficient map of one lowering/raising operator."""
    if kind not in _PIERI_TABLE:
        raise ValueError(f"unknown Pieri kind {kind!r}")
    if L.length > N:
        raise ValueError(f"{L} does not fit in {N} variables")
    moves, hook, column, l_on_top, scale = _PIERI_TABLE[kind]
    out = {}
    for mv in moves(L):
        om = mv.result
        if om.length > N:
            continue
        i, j = mv.cell
        sign = -1 if _circles_above(om, i) % 2 else 1
        coeff = ONE * sign
        top, bottom = (L, om) if l_on_top else (om, L)
        passed = ([(i2, j) for i2 in range(1, i)] if column
                  else [(i, j2) for j2 in range(1, j)])
        for s in passed:
            coeff = coeff * AlphaRational(hook(top, s)) \
                / AlphaRational(hook(bottom, s))
        if scale is not None:
            coeff = coeff * ((N + 1 - i) + ALPHA * (j - 1)) * scale
        out[om] = coeff
    return out


def pieri_check(kind: str, L: SuperPartition, N: int,
                image: Callable) -> bool:
    """The operator's image of P_L against the closed Pieri expansion.

    p0 multiplies; the other kinds name table operators, Qperp for Q_perp.
    `image`, a `superpoly.column_images(N)` shared across calls, reads the
    image in monomial-superbasis coordinates; it is compared with the closed
    coefficients times the m-coordinates of the Jacks they multiply.
    """
    closed = pieri_closed(kind, L, N)
    if kind == "p0":
        act = ferm_power(0, N).__mul__
    else:
        act = partial(operator(kind.replace("perp", "_perp")), alpha=ALPHA)
    columns = {om: jack_symbolic(om, N).coeffs for om in closed}
    return (image(kind, act, jack_symbolic(L, N).coeffs)
            == combine(closed, columns))


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
