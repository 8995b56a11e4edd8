"""Helpers that only the test oracles use: the composition side of the
non-symmetric construction, the Vandermonde product, and the Euclid gcd and
exact division of Z[a] run over Q with Fraction coefficients."""

import math
from fractions import Fraction
from typing import Sequence

from superjack.coeffring import AlphaPolynomial
from superjack.spart import SuperPartition, n_mult
from superjack.superpoly import SuperPolynomial


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
