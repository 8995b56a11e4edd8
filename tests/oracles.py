"""Helpers that only the tests use: the composition side of the
non-symmetric construction, the Vandermonde product, the swap of two
commuting variables, the coefficient of a power of one of them, the Euclid
gcd and exact division of Z[a] run over Q with Fraction coefficients, and
dense Gauss-Jordan solves over Q or Q(a), the power-sum expansion among
them."""

import math
from fractions import Fraction
from typing import Sequence

from superjack.coeffring import (AlphaPolynomial, AlphaRational, FieldMatrix,
                                 NoSolution, SolutionSpace, UniqueSolution)
from superjack.spart import SuperPartition, enumerate_sparts, n_mult
from superjack.superpoly import SuperPolynomial, p_label, to_mbasis


def f_stat(parts: Sequence[int]) -> int:
    """Product of the factorials of the part multiplicities."""
    f = 1
    for i in set(parts):
        f *= math.factorial(n_mult(parts, i))
    return f


def tilde_composition(L: SuperPartition, N: int) -> tuple[int, ...]:
    """Reversed fermionic parts, then reversed zero-padded bosonic parts."""
    if N < L.length:
        raise ValueError("N too small")
    sym_padded = L.sym + (0,) * (N - L.m - len(L.sym))
    return tuple(reversed(L.antisym)) + tuple(reversed(sym_padded))


def eta_bar(eta: Sequence[int], alpha) -> list:
    """Cherednik eigenvalues of the monomial labelled by the composition."""
    out = []
    for i, e in enumerate(eta):
        before = sum(1 for k in range(i) if eta[k] >= e)
        after = sum(1 for k in range(i + 1, len(eta)) if eta[k] > e)
        out.append(alpha * e - before - after)
    return out


def vandermonde(m: int, N: int) -> SuperPolynomial:
    """Product of (x_i - x_j) over 1 <= i < j <= m."""
    out = SuperPolynomial.one(N)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            out = out * (SuperPolynomial.x(i, N) - SuperPolynomial.x(j, N))
    return out


def _poly_divmod_q(a: Sequence[Fraction], b: Sequence[Fraction]):
    """Division with remainder over Q on fraction coefficient lists."""
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1]
        if c == 0:
            continue
        f = c / lead
        q[k] = f
        for i, bc in enumerate(b):
            a[k + i] -= f * bc
    while a and a[-1] == 0:
        a.pop()
    return q, a


def poly_gcd_q(p: AlphaPolynomial, q: AlphaPolynomial) -> AlphaPolynomial:
    """Gcd by Euclid over Q, as a primitive integer polynomial, leading > 0."""
    a = [Fraction(c) for c in p.coeffs]
    b = [Fraction(c) for c in q.coeffs]
    while b:
        _, r = _poly_divmod_q(a, b)
        a, b = b, r
    if not a:
        return AlphaPolynomial()
    den_lcm = math.lcm(*(c.denominator for c in a))
    ints = [int(c * den_lcm) for c in a]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return AlphaPolynomial(ints)


def poly_divexact_q(p: AlphaPolynomial, q: AlphaPolynomial) -> AlphaPolynomial:
    """Exact quotient p/q over Q; must land back in Z[a]."""
    quo, rem = _poly_divmod_q([Fraction(c) for c in p.coeffs],
                              [Fraction(c) for c in q.coeffs])
    if rem:
        raise ArithmeticError("inexact polynomial division")
    if any(c.denominator != 1 for c in quo):
        raise ArithmeticError("quotient not integral")
    return AlphaPolynomial(c.numerator for c in quo)


def poly_at(p: AlphaPolynomial, a0: Fraction) -> Fraction:
    """p(a0) by Horner over Fraction."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * a0 + c
    return acc


def swap_K(f: SuperPolynomial, i: int, j: int) -> SuperPolynomial:
    """Exchange the commuting variables x_i and x_j only."""
    out = {}
    for (T, e), c in f.terms.items():
        e2 = list(e)
        e2[i - 1], e2[j - 1] = e[j - 1], e[i - 1]
        out[(T, tuple(e2))] = c
    return SuperPolynomial(f.N, out)


def coefficient_xpower(f: SuperPolynomial, i: int, k: int) -> SuperPolynomial:
    """Coefficient of x_i^k (a polynomial in the remaining variables)."""
    out = SuperPolynomial(f.N)
    for (T, e), c in f.terms.items():
        if e[i - 1] == k:
            e2 = list(e)
            e2[i - 1] = 0
            out.terms[(T, tuple(e2))] = c
    return out


def _pivot_weight(x) -> int:
    # lowest total polynomial degree first, to curb coefficient blow-up
    if isinstance(x, AlphaRational):
        return x.num.degree() + x.den.degree()
    return 0


def dense_solve_exact(M, b):
    """Oracle: Gauss-Jordan elimination on dense rows, every column updated."""
    rows = [list(M.entries[i * M.cols:(i + 1) * M.cols]) + [b[i]]
            for i in range(M.rows)]
    n, m = M.rows, M.cols
    pivots = []
    r = 0
    for col in range(m):
        best = None
        for i in range(r, n):
            if rows[i][col]:
                w = _pivot_weight(rows[i][col])
                if best is None or w < best[0]:
                    best = (w, i)
        if best is None:
            continue
        i = best[1]
        rows[r], rows[i] = rows[i], rows[r]
        pv = rows[r][col]
        rows[r] = [e / pv for e in rows[r]]
        for i in range(n):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [e - f * rows[r][j] for j, e in enumerate(rows[i])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if rows[i][m]:
            return NoSolution(witness_row=i)
    if M.entries:
        zero = M.entries[0] * 0
    elif b:
        zero = b[0] * 0
    else:
        zero = Fraction(0)
    one = zero + 1
    particular = [zero] * m
    for i, col in enumerate(pivots):
        particular[col] = rows[i][m]
    free = [c for c in range(m) if c not in pivots]
    if not free:
        return UniqueSolution(vector=particular)
    basis = []
    for fc in free:
        v = [zero] * m
        v[fc] = one
        for i, col in enumerate(pivots):
            v[col] = -rows[i][fc]
        basis.append(v)
    return SolutionSpace(particular=particular, nullspace=basis)


def power_sum_solve(mcoeffs: dict, N: int) -> tuple[dict, dict]:
    """Power-sum coordinates of an m-expansion, with the p_Lambda columns, by
    one dense solve over every label the columns and the input reach."""
    if not mcoeffs:
        return {}, {}
    degrees = {L.degree() for L in mcoeffs}
    if len(degrees) != 1:
        raise ValueError("power-sum expansion needs a bi-homogeneous input")
    (n, m), = degrees
    if N < n + m:
        raise ValueError(f"need N >= {n + m} variables for a faithful expansion")
    columns = {P: to_mbasis(p_label(P, N), verify=False)
               for P in enumerate_sparts(n, m, N)}
    one = next(iter(mcoeffs.values())) ** 0
    if isinstance(one, int):
        one = Fraction(1)
    rows = sorted({L for col in columns.values() for L in col} | set(mcoeffs),
                  key=lambda S: S.sort_key())
    entries = [col.get(L, 0) * one for L in rows for col in columns.values()]
    b = [mcoeffs.get(L, 0) * one for L in rows]
    res = dense_solve_exact(FieldMatrix(len(rows), len(columns), entries), b)
    if not isinstance(res, UniqueSolution):
        raise ValueError("power-sum basis failed to resolve the input")
    return {P: c for P, c in zip(columns, res.vector) if c}, columns
