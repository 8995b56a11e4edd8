"""Superpartitions, their diagrams and per-diagram combinatorics.

A superpartition is stored canonically as the pair (antisym; sym): a strictly
decreasing tuple of fermionic parts (last entry may be 0) and a weakly
decreasing tuple of positive bosonic parts.  The equivalent description as a
pair of ordinary partitions (circled, starred) with the circled/starred skew
a simultaneous horizontal and vertical strip is derived on demand.

All diagram cells are 1-based (row, column) pairs.  Hook lengths are returned
as integer polynomials in the deformation parameter so that callers can place
them in whichever coefficient field they work over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from operator import le
from typing import Iterator, Optional, Sequence

from .coeffring import AlphaPolynomial

Cell = tuple[int, int]


# ---------------------------------------------------------------------------
# ordinary partition helpers
# ---------------------------------------------------------------------------

def conjugate_partition(parts: Sequence[int]) -> tuple[int, ...]:
    parts = [p for p in parts if p > 0]
    if not parts:
        return ()
    out = [0] * parts[0]
    for p in parts:
        for j in range(p):
            out[j] += 1
    return tuple(out)


def b_stat(parts: Sequence[int]) -> int:
    """Sum of (i-1) * parts[i], the standard diagram statistic."""
    return sum(i * p for i, p in enumerate(parts))


def cells(parts: Sequence[int]) -> Iterator[Cell]:
    for i, p in enumerate(parts, start=1):
        for j in range(1, p + 1):
            yield (i, j)


def arm(parts: Sequence[int], s: Cell) -> int:
    return parts[s[0] - 1] - s[1]


def leg(parts: Sequence[int], s: Cell) -> int:
    return sum(1 for p in parts[s[0]:] if p >= s[1])


def n_mult(parts: Sequence[int], i: int) -> int:
    """Multiplicity of the part i."""
    return sum(1 for p in parts if p == i)


def z_stat(parts: Sequence[int]) -> int:
    """Product of i^m_i * m_i! over part sizes i."""
    z = 1
    for i in set(parts):
        m = n_mult(parts, i)
        z *= i ** m * math.factorial(m)
    return z


def partitions_bounded(total: int, max_len: int, max_part: Optional[int] = None):
    """All partitions of `total` with at most max_len positive parts."""
    if total == 0:
        yield ()
        return
    if max_len == 0:
        return
    top = total if max_part is None else min(total, max_part)
    for first in range(top, 0, -1):
        for rest in partitions_bounded(total - first, max_len - 1, first):
            yield (first,) + rest


def strict_partitions(total: int, length: int, bound: Optional[int] = None):
    """Strictly decreasing tuples of the given length, entries >= 0."""
    if length == 0:
        if total == 0:
            yield ()
        return
    # smallest possible tail below `first` is (length-2, ..., 1, 0)
    low = (length - 1) * (length - 2) // 2
    top = total - low if bound is None else min(total - low, bound)
    for first in range(top, length - 2, -1):
        if first < 0:
            break
        for rest in strict_partitions(total - first, length - 1, first - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# superpartitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SuperPartition:
    antisym: tuple[int, ...]
    sym: tuple[int, ...]
    # labels key every peel, column and rank dict: hash them once
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, s = self.antisym, self.sym
        if any(a[i] <= a[i + 1] for i in range(len(a) - 1)) or (a and a[-1] < 0):
            raise ValueError(f"fermionic parts not strictly decreasing: {a}")
        if any(s[i] < s[i + 1] for i in range(len(s) - 1)) or (s and s[-1] <= 0):
            raise ValueError(f"bosonic parts not weakly decreasing positive: {s}")
        object.__setattr__(self, "_hash", hash((a, s)))

    def __hash__(self) -> int:
        return self._hash

    # -- degrees and shapes
    @property
    def m(self) -> int:
        """Fermionic degree."""
        return len(self.antisym)

    @property
    def n(self) -> int:
        """Total (bosonic) degree."""
        return sum(self.antisym) + sum(self.sym)

    @property
    def star(self) -> tuple[int, ...]:
        return tuple(sorted(self.antisym + self.sym, reverse=True))

    @property
    def circled(self) -> tuple[int, ...]:
        return tuple(sorted(tuple(p + 1 for p in self.antisym) + self.sym,
                            reverse=True))

    @property
    def length(self) -> int:
        """Number of rows of the circled diagram: one per (positive) part."""
        return len(self.antisym) + len(self.sym)

    def degree(self) -> tuple[int, int]:
        return (self.n, self.m)

    def sort_key(self):
        return (self.circled, self.star)

    def rows(self) -> list[tuple[int, bool]]:
        """Rows as (starred value, circled flag), top to bottom."""
        out = [(p, True) for p in self.antisym] + [(p, False) for p in self.sym]
        out.sort(key=lambda r: (-r[0], not r[1]))
        return out

    def __str__(self) -> str:
        return ",".join(map(str, self.antisym)) + ";" + ",".join(map(str, self.sym))

    def circled_str(self) -> str:
        parts = [f"{v}o" if c else str(v) for v, c in self.rows()]
        return "(" + ",".join(parts) + ")"


def parse_spart(text: str) -> SuperPartition:
    """Parse '3,1,0;5,3,3' or the circled display '(5o,4,3o,3,1o,0o,0)'."""
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    if ";" in t:
        a_txt, s_txt = t.split(";", 1)
        anti = tuple(int(x) for x in a_txt.split(",") if x.strip() != "")
        sym = tuple(int(x) for x in s_txt.split(",") if x.strip() != "")
        sym = tuple(p for p in sym if p != 0)
        return SuperPartition(anti, sym)
    anti, sym = [], []
    for item in (x.strip() for x in t.split(",") if x.strip() != ""):
        if item.endswith("o"):
            anti.append(int(item[:-1]))
        else:
            v = int(item)
            if v:
                sym.append(v)
    return SuperPartition(tuple(sorted(anti, reverse=True)),
                          tuple(sorted(sym, reverse=True)))


def star_pair(L: SuperPartition, N: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(circled, starred) padded with zeros to length N."""
    if N < L.length:
        raise ValueError(f"N={N} too small for {L} (needs {L.length})")
    circ, star = L.circled, L.star
    return (circ + (0,) * (N - len(circ)), star + (0,) * (N - len(star)))


def conjugate(L: SuperPartition) -> SuperPartition:
    """Transpose of the diagram: both members of the pair conjugate."""
    circ = conjugate_partition(L.circled)
    star = conjugate_partition(L.star)
    anti = []
    for i, c in enumerate(circ):
        s = star[i] if i < len(star) else 0
        if c - s == 1:
            anti.append(s)
    sym = []
    for i, s in enumerate(star):
        c = circ[i] if i < len(circ) else 0
        if c == s:
            sym.append(s)
    return SuperPartition(tuple(anti), tuple(sym))


@lru_cache(maxsize=None)
def _dominance_key(L: SuperPartition):
    """L's degree and the prefix sums of its starred and circled shapes."""
    return L.degree(), tuple(accumulate(L.star)), tuple(accumulate(L.circled))


def dominance_leq(O: SuperPartition, L: SuperPartition) -> bool:
    """O <= L: both the starred and circled shapes dominated.  The shapes of
    one degree have equal totals, so the prefix sums decide it over the
    shorter length."""
    dO, sO, cO = _dominance_key(O)
    dL, sL, cL = _dominance_key(L)
    return dO == dL and all(map(le, sO, sL)) and all(map(le, cO, cL))


def check_kr(k: int, r: int, allow_noncoprime: bool = False) -> None:
    """Raise ValueError outside k >= 1, r >= 2 and, unless allowed,
    gcd(k+1, r-1) = 1: the hypothesis of a run, checked once where it
    starts.  Admissibility and `ideals` compute for any pair."""
    if k < 1 or r < 2:
        raise ValueError("need k >= 1 and r >= 2")
    if not allow_noncoprime and math.gcd(k + 1, r - 1) != 1:
        raise ValueError(f"k+1={k + 1} and r-1={r - 1} are not coprime")


def is_admissible(L: SuperPartition, k: int, r: int, N: int) -> bool:
    """Admissibility: circled[i] - starred[i+k] >= r for 1 <= i <= N-k."""
    circ, star = star_pair(L, N)
    return all(circ[i] - star[i + k] >= r for i in range(N - k))


def to_overpartition(L: SuperPartition) -> list[tuple[int, bool]]:
    """Circled-shape entries, overlined where the row carries a circle."""
    circ, star = L.circled, L.star
    out = []
    for i, c in enumerate(circ):
        s = star[i] if i < len(star) else 0
        out.append((c, c - s == 1))
    return out


# ---------------------------------------------------------------------------
# diagram surgery: the four one-cell moves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Move:
    """One-cell modification of a superpartition diagram (adding or removing
    a circle, turning a square into a circle or back); cell is the marked
    cell, valid as a coordinate in both the original and the modified
    diagram.
    """
    result: SuperPartition
    cell: Cell


def _without_one(parts: tuple[int, ...], value: int) -> tuple[int, ...]:
    out = list(parts)
    out.remove(value)
    return tuple(out)


def add_circle_moves(L: SuperPartition) -> list[Move]:
    star = L.star
    moves = []
    for v in sorted(set(L.sym) | {0}, reverse=True):
        if v in L.antisym:
            continue
        anti = tuple(sorted(L.antisym + (v,), reverse=True))
        sym = _without_one(L.sym, v) if v else L.sym
        res = SuperPartition(anti, sym)
        i = sum(1 for p in star if p > v) + 1
        moves.append(Move(res, (i, v + 1)))
    return moves


def remove_circle_moves(L: SuperPartition) -> list[Move]:
    star = L.star
    moves = []
    for v in L.antisym:
        anti = _without_one(L.antisym, v)
        sym = tuple(sorted(L.sym + (v,), reverse=True)) if v else L.sym
        res = SuperPartition(anti, sym)
        i = sum(1 for p in star if p > v) + 1
        moves.append(Move(res, (i, v + 1)))
    return moves


def square_to_circle_moves(L: SuperPartition) -> list[Move]:
    star = L.star
    moves = []
    for s in sorted(set(L.sym), reverse=True):
        if s - 1 in L.antisym:
            continue
        anti = tuple(sorted(L.antisym + (s - 1,), reverse=True))
        sym = _without_one(L.sym, s)
        res = SuperPartition(anti, sym)
        i = sum(1 for p in star if p >= s)
        moves.append(Move(res, (i, s)))
    return moves


def circle_to_square_moves(L: SuperPartition) -> list[Move]:
    star = L.star
    moves = []
    for v in L.antisym:
        anti = _without_one(L.antisym, v)
        sym = tuple(sorted(L.sym + (v + 1,), reverse=True))
        res = SuperPartition(anti, sym)
        i = sum(1 for p in star if p > v) + 1
        moves.append(Move(res, (i, v + 1)))
    return moves


def almost_admissible_variants(G: SuperPartition, k: int, r: int,
                               N: int) -> list[SuperPartition]:
    """All labels in N rows one move from an admissible G, deduplicated."""
    if not is_admissible(G, k, r, N):
        raise ValueError(f"{G} is not ({k},{r},{N})-admissible")
    seen = {}
    for mv in (add_circle_moves(G) + remove_circle_moves(G)
               + square_to_circle_moves(G) + circle_to_square_moves(G)):
        if mv.result.length <= N:
            seen[mv.result] = None
    return sorted(seen, key=lambda S: S.sort_key(), reverse=True)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def enumerate_sparts(n: int, m: int, N: int) -> tuple[SuperPartition, ...]:
    """All superpartitions of degree (n|m) fitting in N rows, biggest first."""
    if m > N or n < 0 or m < 0:
        return ()
    out = []
    for sa in range(n + 1):
        for anti in strict_partitions(sa, m):
            for sym in partitions_bounded(n - sa, N - m):
                out.append(SuperPartition(anti, sym))
    out.sort(key=lambda S: S.sort_key(), reverse=True)
    return tuple(out)


def fermionic_range(n: int, N: int) -> range:
    """Fermionic degrees m of the superpartitions of n in N >= 1 rows: at
    most N circles, whose distinct parts sum to at least 0 + 1 + ... + (m-1)."""
    m = 0
    while m <= N and m * (m - 1) // 2 <= n:
        m += 1
    return range(m)


def degrees(nmax: int, N: int) -> Iterator[tuple[int, int]]:
    """The bidegrees (n|m), n <= nmax, that carry a superpartition in N >= 1
    rows; n ascending, then m."""
    return ((n, m) for n in range(nmax + 1) for m in fermionic_range(n, N))


def enumerate_admissible(k: int, r: int, N: int,
                         nmax: int) -> list[SuperPartition]:
    return [L for n, m in degrees(nmax, N) for L in enumerate_sparts(n, m, N)
            if is_admissible(L, k, r, N)]


# ---------------------------------------------------------------------------
# hooks and eigenvalue data
# ---------------------------------------------------------------------------

def upper_hook(L: SuperPartition, s: Cell) -> AlphaPolynomial:
    """leg in the circled shape + alpha * (arm in the starred shape + 1)."""
    star, circ = L.star, L.circled
    if not (1 <= s[0] <= len(star) and 1 <= s[1] <= star[s[0] - 1]):
        raise ValueError(f"cell {s} outside the starred diagram of {L}")
    return AlphaPolynomial.linear(leg(circ, s), arm(star, s) + 1)


def lower_hook(L: SuperPartition, s: Cell) -> AlphaPolynomial:
    """leg in the starred shape + 1 + alpha * arm in the circled shape."""
    star, circ = L.star, L.circled
    if not (1 <= s[0] <= len(star) and 1 <= s[1] <= star[s[0] - 1]):
        raise ValueError(f"cell {s} outside the starred diagram of {L}")
    return AlphaPolynomial.linear(leg(star, s) + 1, arm(circ, s))


def circled_rows(L: SuperPartition) -> set[int]:
    circ, star = L.circled, L.star
    return {i + 1 for i, c in enumerate(circ)
            if c - (star[i] if i < len(star) else 0) == 1}


def circled_cols(L: SuperPartition) -> set[int]:
    cc = conjugate_partition(L.circled)
    sc = conjugate_partition(L.star)
    return {j + 1 for j, c in enumerate(cc)
            if c - (sc[j] if j < len(sc) else 0) == 1}


def bosonic_cells(L: SuperPartition) -> list[Cell]:
    """Cells of the starred diagram avoiding circled-row/circled-column crossings."""
    rows_c = circled_rows(L)
    cols_c = circled_cols(L)
    return [s for s in cells(L.star)
            if not (s[0] in rows_c and s[1] in cols_c)]


def skew_circled_cells(L: SuperPartition) -> list[Cell]:
    """Cells of the circled shape outside the staircase (m, m-1, ..., 1)."""
    m = L.m
    return [(i, j) for i, p in enumerate(L.circled, start=1)
            for j in range(max(m - i + 1, 0) + 1, p + 1)]


def v_poly(L: SuperPartition) -> AlphaPolynomial:
    """Product of lower hooks over the bosonic cells (integral-form scale)."""
    prod = AlphaPolynomial.const(1)
    for s in bosonic_cells(L):
        prod = prod * lower_hook(L, s)
    return prod


@lru_cache(maxsize=None)
def e_star_poly(L: SuperPartition) -> AlphaPolynomial:
    """Eigenvalue of the alpha-deformed Laplacian, linear in alpha."""
    star = L.star
    return AlphaPolynomial.linear(-b_stat(star), b_stat(conjugate_partition(star)))


@lru_cache(maxsize=None)
def e_tilde_poly(L: SuperPartition) -> AlphaPolynomial:
    """Eigenvalue of the fermionic-degree operator, linear in alpha."""
    return AlphaPolynomial.linear(-sum(conjugate(L).antisym), sum(L.antisym))


def epsilon_u(lam: Sequence[int], N: int, alpha) -> list:
    """Coefficients (low u-degree first) of prod_i (alpha*lam_i + 1 - i + u)."""
    one = alpha * 0 + 1
    coeffs = [one]
    for i in range(1, N + 1):
        li = lam[i - 1] if i - 1 < len(lam) else 0
        c = alpha * li + (1 - i)
        coeffs = [c * coeffs[0]] + [c * coeffs[j] + coeffs[j - 1]
                                    for j in range(1, len(coeffs))] + [one]
    return coeffs

