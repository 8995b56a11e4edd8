"""Exact coefficient arithmetic over Q, Z[a] and Q(a); linear solving over Q.

Rationals are ``fractions.Fraction``.  Univariate integer polynomials in the
deformation parameter (printed ``a``) are ``AlphaPolynomial``; their reduced
quotients form the field Q(a) as ``AlphaRational``.  Everything is immutable
and hashable, so values can key dictionaries and be shared freely between
threads.

The text grammar round-trips: ``parse_alpha(str(x)) == x`` for every element,
with ``a`` denoting the indeterminate, e.g. ``3/(2*a^2+a)``.

Invariant: the coefficients of every AlphaPolynomial are a trimmed tuple of
Python ints.  The public constructor validates its input (``operator.index``
on each element, so a float or a Fraction raises TypeError); ring results,
built from operands that already hold the invariant, go through ``_poly``,
which only trims.  The Z[a] kernels stay in plain ints: ``poly_gcd`` is the
primitive remainder sequence, ``poly_divexact`` integer long division, and
``alpha_eval`` Horner on q^d-scaled halves with one Fraction at the end.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union


class PoleError(ArithmeticError):
    """Denominator vanishes at the evaluation point, numerator does not."""


class IndeterminateError(ArithmeticError):
    """Numerator and denominator both vanish: cancel symbolically first."""


# ---------------------------------------------------------------------------
# integer polynomials in a
# ---------------------------------------------------------------------------

def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _poly(coeffs: Sequence[int]) -> "AlphaPolynomial":
    """AlphaPolynomial from a list or tuple of ints, trimmed but not checked."""
    p = object.__new__(AlphaPolynomial)
    p.coeffs = tuple(coeffs) if coeffs and coeffs[-1] else _trim(coeffs)
    p._hash = None
    return p


class AlphaPolynomial:
    """Polynomial in a with integer coefficients, lowest degree first.

    The zero polynomial is the empty coefficient tuple; otherwise the leading
    coefficient is non-zero.  With a Fraction, +, - and * give the result in
    Q(a), as an AlphaRational.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs = _trim(tuple(operator.index(c) for c in coeffs))
        self._hash = None

    # -- construction helpers
    @staticmethod
    def const(n: int) -> "AlphaPolynomial":
        return AlphaPolynomial((n,))

    @staticmethod
    def gen() -> "AlphaPolynomial":
        """The polynomial a."""
        return AlphaPolynomial((0, 1))

    @staticmethod
    def linear(const: int, slope: int) -> "AlphaPolynomial":
        """const + slope*a."""
        return AlphaPolynomial((const, slope))

    # -- basic structure
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def content(self) -> int:
        return math.gcd(*self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs == _trim((other,))
        if isinstance(other, AlphaPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

    # -- ring operations (an int or constant operand skips the convolution)
    def __add__(self, other) -> "AlphaPolynomial":
        if isinstance(other, AlphaPolynomial):
            b = other.coeffs
            if len(b) > 1:
                a = self.coeffs
                if len(a) < len(b):
                    a, b = b, a
                out = list(a)
                for i, c in enumerate(b):
                    out[i] += c
                return _poly(out)
            other = b[0] if b else 0
        elif isinstance(other, Fraction):  # Z[a] plus Q lies in Q(a)
            return AlphaRational(self, _POLY_ONE, _normalized=True) + other
        elif not isinstance(other, int):
            return NotImplemented
        if not other:
            return self
        a = self.coeffs or (0,)
        return _poly((a[0] + other,) + a[1:])

    __radd__ = __add__

    def __neg__(self) -> "AlphaPolynomial":
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (AlphaPolynomial, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other) -> "AlphaPolynomial":
        if isinstance(other, AlphaPolynomial):
            b = other.coeffs
            if len(b) > 1:
                a = self.coeffs
                out = [0] * (len(a) + len(b) - 1)
                for i, ca in enumerate(a):
                    if ca:
                        for j, cb in enumerate(b):
                            out[i + j] += ca * cb
                return _poly(out)
            other = b[0] if b else 0
        elif isinstance(other, Fraction):  # Z[a] times Q lies in Q(a)
            return AlphaRational(self, _POLY_ONE, _normalized=True)._scaled(
                other.numerator, other.denominator)
        elif not isinstance(other, int):
            return NotImplemented
        if not other:
            return _POLY_ZERO
        if other == 1:
            return self
        return _poly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "AlphaPolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _POLY_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "AlphaPolynomial":
        """Multiply by a**k."""
        if not self.coeffs:
            return self
        return _poly((0,) * k + self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}a" if k == 1 else f"{mag}a^{k}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+" if c > 0 else "-") + term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"AlphaPolynomial({self})"


_POLY_ZERO = AlphaPolynomial()
_POLY_ONE = AlphaPolynomial((1,))


def _primitive(c: Sequence[int]) -> Sequence[int]:
    """A nonzero integer polynomial over its content, leading coefficient > 0."""
    g = math.gcd(*c) if c[-1] > 0 else -math.gcd(*c)
    return c if g == 1 else [x // g for x in c]


def poly_gcd(p: AlphaPolynomial, q: AlphaPolynomial) -> AlphaPolynomial:
    """Gcd over Q, returned as a primitive integer polynomial, leading > 0.

    The primitive remainder sequence over Z (Brown, J. ACM 18 (1971); Knuth,
    TAOCP vol. 2, 4.6.1): primitive inputs, then pseudo-remainders with their
    content divided out; by Gauss's lemma the last one is the gcd over Q.
    """
    a, b = sorted((p.coeffs, q.coeffs), key=len, reverse=True)
    if len(b) < 2:
        return _POLY_ONE if b else _poly(_primitive(a)) if a else _POLY_ZERO
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r, n, lb = list(a), len(b) - 1, b[-1]
        for k in range(len(r) - 1, n - 1, -1):
            c = r.pop()
            if c:  # r*lb/g - x^(k-n)*b*c/g with g = gcd(c, lb) clears the top
                g = math.gcd(c, lb)
                c //= g
                if g != lb:
                    r = [x * (lb // g) for x in r]
                for i in range(n):
                    r[k - n + i] -= c * b[i]
        r = _trim(r)
        if not r:
            return _poly(b)
        a, b = b, _primitive(r)
    return _POLY_ONE


def poly_divexact(p: AlphaPolynomial, q: AlphaPolynomial) -> AlphaPolynomial:
    """Exact quotient p/q in Z[a] by integer long division; ArithmeticError
    when a top coefficient or the remainder shows that q does not divide p."""
    r, b = list(p.coeffs), q.coeffs
    n, lb = len(b) - 1, b[-1]
    quo = [0] * max(len(r) - n, 0)
    for k in range(len(r) - 1, n - 1, -1):
        c, rem = divmod(r.pop(), lb)
        if rem:
            raise ArithmeticError("inexact division in Z[a]")
        if c:
            quo[k - n] = c
            for i in range(n):
                r[k - n + i] -= c * b[i]
    if any(r):
        raise ArithmeticError("inexact division in Z[a]")
    return _poly(quo)


# ---------------------------------------------------------------------------
# the field Q(a)
# ---------------------------------------------------------------------------

class AlphaRational:
    """Element of Q(a) as a reduced quotient of integer polynomials.

    Canonical form: gcd(num, den) = 1 over Q, integer contents coprime, and
    the denominator has positive leading coefficient.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num=0, den=1, _normalized=False):
        if not _normalized:
            num = _coerce_poly_ratio(num)
            den = _coerce_poly_ratio(den)
            num, den = _normalize(num[0] * den[1], den[0] * num[1])
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors
    @staticmethod
    def from_fraction(q: Fraction) -> "AlphaRational":
        return AlphaRational(
            AlphaPolynomial((q.numerator,)), AlphaPolynomial((q.denominator,)),
            _normalized=True)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- field operations (Fraction-style cross reductions keep sizes down;
    # an int or Fraction operand keeps the canonical form without a gcd)
    def __add__(self, other):
        if isinstance(other, int):  # gcd(num + k*den, den) = gcd(num, den)
            return AlphaRational(self.num + self.den * other, self.den,
                                 _normalized=True)
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            num, den = _normalize(self.num + other.num, self.den)
            return AlphaRational(num, den, _normalized=True)
        num, den = _normalize(self.num * other.den + other.num * self.den,
                              self.den * other.den)
        return AlphaRational(num, den, _normalized=True)

    __radd__ = __add__

    def __neg__(self):
        return AlphaRational(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        if not isinstance(other, int):
            other = _coerce_rat(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return ZERO
        num, den = _normalize(self.num * other.num, self.den * other.den)
        return AlphaRational(num, den, _normalized=True)

    __rmul__ = __mul__

    def _scaled(self, p: int, q: int) -> "AlphaRational":
        """self * p/q for coprime p and q > 0.  num/den is reduced over Q, so
        only the contents gcd(q, content(num)) and gcd(p, content(den)) can
        cancel; q > 0 keeps the denominator's leading coefficient positive."""
        if not p or not self.num:
            return ZERO
        gq, gp = math.gcd(q, *self.num.coeffs), math.gcd(p, *self.den.coeffs)
        p, q = p // gp, q // gq
        return AlphaRational(_poly([c // gq * p for c in self.num.coeffs]),
                             _poly([c // gp * q for c in self.den.coeffs]),
                             _normalized=True)

    def __truediv__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero in Q(a)")
        if self.num.is_zero():
            return ZERO
        num, den = _normalize(self.num * other.den, self.den * other.num)
        return AlphaRational(num, den, _normalized=True)

    def __rtruediv__(self, other):
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n == 0:
            return ONE
        if n < 0:
            return (ONE / self) ** (-n)
        return AlphaRational(self.num ** n, self.den ** n, _normalized=True)

    def subs_inverse(self) -> "AlphaRational":
        """The element f(1/a)."""
        if self.num.is_zero():
            return ZERO
        dn, dd = self.num.degree(), self.den.degree()
        num = AlphaPolynomial(reversed(self.num.coeffs)).shift(max(0, dd - dn))
        den = AlphaPolynomial(reversed(self.den.coeffs)).shift(max(0, dn - dd))
        return AlphaRational(num, den)

    def __str__(self) -> str:
        if self.den.is_one():
            s = str(self.num)
            return f"({s})" if ("+" in s[1:] or "-" in s[1:]) else s
        ns = str(self.num)
        if "+" in ns[1:] or "-" in ns[1:]:
            ns = f"({ns})"
        return f"{ns}/({self.den})"

    def __repr__(self) -> str:
        return f"AlphaRational({self})"


def _coerce_poly_ratio(x):
    """Return (AlphaPolynomial numerator, positive int denominator)."""
    if isinstance(x, AlphaPolynomial):
        return x, 1
    if isinstance(x, int):
        return AlphaPolynomial((x,)), 1
    if isinstance(x, Fraction):
        return AlphaPolynomial((x.numerator,)), x.denominator
    if isinstance(x, AlphaRational):
        raise TypeError("use AlphaRational arithmetic directly")
    raise TypeError(f"cannot build Q(a) element from {x!r}")


def _coerce_rat(x):
    if isinstance(x, AlphaRational):
        return x
    if isinstance(x, int):
        return AlphaRational(AlphaPolynomial((x,)), _POLY_ONE, _normalized=True)
    if isinstance(x, Fraction):
        return AlphaRational.from_fraction(x)
    if isinstance(x, AlphaPolynomial):
        return AlphaRational(x, _POLY_ONE)
    return NotImplemented


def _normalize(num: AlphaPolynomial, den: AlphaPolynomial):
    if den.is_zero():
        raise ZeroDivisionError("zero denominator in Q(a)")
    if num.is_zero():
        return _POLY_ZERO, _POLY_ONE
    if den.coeffs == (1,):
        return num, den
    if den.degree() > 0 and num.degree() > 0:
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
    g = math.gcd(*num.coeffs, *den.coeffs)
    if g > 1:
        num = _poly([c // g for c in num.coeffs])
        den = _poly([c // g for c in den.coeffs])
    if den.leading() < 0:
        num, den = -num, -den
    return num, den


ZERO = AlphaRational(0)
ONE = AlphaRational(1)
ALPHA = AlphaRational(AlphaPolynomial.gen())


def num_den(x) -> tuple[AlphaPolynomial, AlphaPolynomial]:
    """Reduced numerator and denominator of an int, Fraction, AlphaPolynomial
    or AlphaRational; the denominator has positive leading coefficient."""
    r = _coerce_rat(x)
    if r is NotImplemented:
        raise TypeError(f"not an element of Q(a): {x!r}")
    return r.num, r.den


def common_denominator(values: Iterable) -> AlphaPolynomial:
    """Least common multiple in Z[a] of the denominators of the values.

    One gcd and one exact division per distinct denominator; the result has
    positive leading coefficient, and is 1 when every value lies in Z[a].
    """
    lcm = _POLY_ONE
    for den in {num_den(v)[1] for v in values}:
        g = poly_gcd(lcm, den) * math.gcd(lcm.content(), den.content())
        lcm = lcm * poly_divexact(den, g)
    return lcm


def clear_denominators(values: Mapping) -> dict:
    """E * v in Z[a] for each value v, E the values' common denominator.

    Each num/den becomes num * (E / den), one exact division per distinct
    denominator, so no value is normalized in Q(a).  Identities linear in
    the values hold for the results exactly when they hold for the values.
    """
    E = common_denominator(values.values())
    cofactors: dict = {}
    out = {}
    for key, v in values.items():
        num, den = num_den(v)
        cof = cofactors.get(den)
        if cof is None:
            cof = cofactors[den] = poly_divexact(E, den)
        out[key] = num * cof
    return out


def alpha_eval(f: AlphaRational, a0: Union[int, Fraction]) -> Fraction:
    """Evaluate f in Q(a) at the rational point a0 = p/q: num and den both
    scaled by q^d, d the larger degree, by Horner on ints, then one Fraction.

    Raises PoleError when the (reduced) denominator vanishes there, and
    IndeterminateError in the 0/0 case, which cannot occur on canonical
    elements but is kept distinct for callers holding raw pairs.
    """
    p, q = a0.numerator, a0.denominator  # an int a0 is a0/1
    n = max(len(f.num.coeffs), len(f.den.coeffs))
    nv = _scaled_eval(f.num.coeffs, p, q, n)
    dv = _scaled_eval(f.den.coeffs, p, q, n)
    if dv:
        return Fraction(nv, dv)
    if nv:
        raise PoleError(f"pole of {f} at a = {a0}")
    raise IndeterminateError(f"0/0 for {f} at a = {a0}; cancel first")


def _scaled_eval(c: Sequence[int], p: int, q: int, n: int) -> int:
    """q^(n-1) * P(p/q) for the polynomial P with coefficients c, len(c) <= n."""
    acc, qk = 0, 1
    for x in reversed(c):
        acc, qk = acc * p + x * qk, qk * q
    return acc * q ** (n - len(c))


# ---------------------------------------------------------------------------
# parsing (round-trips the printers above)
# ---------------------------------------------------------------------------

def parse_alpha(text: str) -> AlphaRational:
    """Parse an element of Q(a): integers, ``a``, + - * / ^ and parentheses.

    The parser recurses once per parenthesis and unary minus, so a literal
    nested past the interpreter's recursion limit raises ValueError.
    """
    tokens = _tokenize(text)
    try:
        value, pos = _parse_sum(tokens, 0)
    except RecursionError:
        raise ValueError(f"Q(a) literal nested too deeply: {text!r}") from None
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return value


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif c in "a" and (i + 1 == len(text) or not text[i + 1].isalnum()):
            tokens.append(("a", None))
            i += 1
        elif c in "+-*/^()":
            tokens.append((c, None))
            i += 1
        else:
            raise ValueError(f"bad character {c!r} in Q(a) literal")
    return tokens


def _parse_sum(tokens, pos):
    sign = 1
    if pos < len(tokens) and tokens[pos][0] in "+-":
        sign = -1 if tokens[pos][0] == "-" else 1
        pos += 1
    value, pos = _parse_product(tokens, pos)
    value = sign * value
    while pos < len(tokens) and tokens[pos][0] in "+-":
        op = tokens[pos][0]
        term, pos = _parse_product(tokens, pos + 1)
        value = value + term if op == "+" else value - term
    return value, pos


def _parse_product(tokens, pos):
    value, pos = _parse_power(tokens, pos)
    while pos < len(tokens) and tokens[pos][0] in "*/":
        op = tokens[pos][0]
        rhs, pos = _parse_power(tokens, pos + 1)
        value = value * rhs if op == "*" else value / rhs
    return value, pos


def _parse_power(tokens, pos):
    base, pos = _parse_atom(tokens, pos)
    if pos < len(tokens) and tokens[pos][0] == "^":
        if pos + 1 == len(tokens) or tokens[pos + 1][0] != "int":
            raise ValueError("exponent must be an integer")
        return base ** tokens[pos + 1][1], pos + 2
    return base, pos


def _parse_atom(tokens, pos):
    if pos >= len(tokens):
        raise ValueError("unexpected end of Q(a) literal")
    kind, val = tokens[pos]
    if kind == "int":
        return AlphaRational(val), pos + 1
    if kind == "a":
        return ALPHA, pos + 1
    if kind == "-":
        value, pos = _parse_atom(tokens, pos + 1)
        return -value, pos
    if kind == "(":
        value, pos = _parse_sum(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos][0] != ")":
            raise ValueError("unbalanced parenthesis")
        return value, pos + 1
    raise ValueError(f"unexpected token {kind!r}")


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

@dataclass
class UniqueSolution:
    vector: list


@dataclass
class SolutionSpace:
    particular: list
    nullspace: list  # reduced-echelon basis of the homogeneous solutions


@dataclass
class NoSolution:
    witness_row: int


class FieldMatrix:
    """Dense matrix: its shape and its entries in row-major order."""

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)


def solve_exact(M: FieldMatrix, b: Sequence):
    """Solve M x = b over Q exactly by Gauss-Jordan elimination on sparse rows.

    Returns UniqueSolution, SolutionSpace (particular + reduced-echelon
    nullspace basis) or NoSolution.  Entries and right-hand side are
    Fractions; each pivot is the first row below the echelon with a nonzero
    entry in its column.

    Each row is a dict from column to nonzero entry, the right-hand side
    at column ``M.cols``; a row operation touches only the pivot row's
    nonzero columns and deletes every entry that cancels.
    """
    if len(b) != M.rows:
        raise ValueError("right-hand side has wrong length")
    n, m = M.rows, M.cols
    rows = []
    for i in range(n):
        row = {j: e for j, e in enumerate(M.entries[i * m:(i + 1) * m]) if e}
        if b[i]:
            row[m] = b[i]
        rows.append(row)
    pivots = []
    r = 0
    for col in range(m):
        i = next((i for i in range(r, n) if col in rows[i]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        pv = prow[col]
        if pv != 1:
            prow = rows[r] = {j: e / pv for j, e in prow.items()}
        for i, row in enumerate(rows):
            if i == r or col not in row:
                continue
            f = row[col]
            for j, e in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = -(f * e)
                else:
                    x = x - f * e
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        pivots.append(col)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if m in rows[i]:
            return NoSolution(witness_row=i)
    zero, one = Fraction(0), Fraction(1)
    particular = [zero] * m
    for i, col in enumerate(pivots):
        particular[col] = rows[i].get(m, zero)
    pivot_set = set(pivots)
    free = [c for c in range(m) if c not in pivot_set]
    if not free:
        return UniqueSolution(vector=particular)
    basis = []
    for fc in free:
        v = [zero] * m
        v[fc] = one
        for i, col in enumerate(pivots):
            if fc in rows[i]:
                v[col] = -rows[i][fc]
        basis.append(v)
    return SolutionSpace(particular=particular, nullspace=basis)
