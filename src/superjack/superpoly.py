"""Polynomials in N commuting and N anticommuting variables.

Terms are stored sparsely as ``(thetas, exps) -> coefficient`` where
``thetas`` is the strictly increasing tuple of anticommuting indices (1-based)
and ``exps`` the length-N exponent vector of the commuting part.  The strictly
increasing theta tuple fixes the sign convention: the coefficient of
``t_{i_1}*...*t_{i_m}`` (indices increasing) is what you get by applying the
left derivatives in the order d_{i_m} ... d_{i_1} and then setting all thetas
to zero.

Coefficients are any exact ring elements supporting + - * / and truthiness:
ints, Fractions and AlphaRational mix freely.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, repeat
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .coeffring import clear_denominators
from .spart import SuperPartition, enumerate_sparts

Term = tuple[tuple[int, ...], tuple[int, ...]]


class DivisionFailure(ArithmeticError):
    """An exact polynomial division left a remainder."""


class NotSymmetric(ValueError):
    """Input expected to be invariant under the diagonal symmetric group."""


class SuperPolynomial:
    __slots__ = ("N", "terms")

    def __init__(self, N: int, terms: Optional[dict] = None):
        self.N = N
        self.terms = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def one(N: int) -> "SuperPolynomial":
        return SuperPolynomial(N, {((), (0,) * N): 1})

    @staticmethod
    def x(i: int, N: int, power: int = 1) -> "SuperPolynomial":
        e = [0] * N
        e[i - 1] = power
        return SuperPolynomial(N, {((), tuple(e)): 1})

    @staticmethod
    def theta(i: int, N: int) -> "SuperPolynomial":
        return SuperPolynomial(N, {((i,), (0,) * N): 1})

    def copy(self) -> "SuperPolynomial":
        return SuperPolynomial(self.N, dict(self.terms))

    # -- structure ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.N == other.N and self.terms == other.terms

    def fermionic_degrees(self) -> set[int]:
        return {len(T) for T, _ in self.terms}

    def theta_free(self) -> bool:
        return all(not T for T, _ in self.terms)

    # -- additive ring structure --------------------------------------------
    def _iadd_term(self, key: Term, c) -> None:
        cur = self.terms.get(key)
        if cur is None:
            if c:
                self.terms[key] = c
        else:
            cur = cur + c
            if cur:
                self.terms[key] = cur
            else:
                del self.terms[key]

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        self._check(other)
        out = self.copy()
        for key, c in other.terms.items():
            out._iadd_term(key, c)
        return out

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        self._check(other)
        out = self.copy()
        for key, c in other.terms.items():
            out._iadd_term(key, -c)
        return out

    def __neg__(self) -> "SuperPolynomial":
        return SuperPolynomial(self.N, {k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "SuperPolynomial":
        if not c:
            return SuperPolynomial(self.N)
        return SuperPolynomial(self.N, {k: v * c for k, v in self.terms.items()})

    def _check(self, other: "SuperPolynomial") -> None:
        if self.N != other.N:
            raise ValueError(f"variable counts differ: {self.N} vs {other.N}")

    # -- multiplication ------------------------------------------------------
    def __mul__(self, other):
        if not isinstance(other, SuperPolynomial):
            return self.scale(other)
        self._check(other)
        out = SuperPolynomial(self.N)
        for (T1, e1), c1 in self.terms.items():
            for (T2, e2), c2 in other.terms.items():
                key_sign = _theta_merge(T1, T2)
                if key_sign is None:
                    continue
                T, sign = key_sign
                e = tuple(a + b for a, b in zip(e1, e2))
                out._iadd_term((T, e), c1 * c2 if sign > 0 else -(c1 * c2))
        return out

    def __rmul__(self, other):
        return self.scale(other)

    # -- calculus -------------------------------------------------------------
    def diff_x(self, i: int) -> "SuperPolynomial":
        out = SuperPolynomial(self.N)
        for (T, e), c in self.terms.items():
            k = e[i - 1]
            if k:
                e2 = list(e)
                e2[i - 1] = k - 1
                out._iadd_term((T, tuple(e2)), c * k)
        return out

    def diff_theta(self, i: int) -> "SuperPolynomial":
        """Left derivative in theta_i."""
        out = SuperPolynomial(self.N)
        for (T, e), c in self.terms.items():
            if i in T:
                pos = T.index(i)
                T2 = T[:pos] + T[pos + 1:]
                out._iadd_term((T2, e), c if pos % 2 == 0 else -c)
        return out

    def mul_x(self, i: int, power: int = 1) -> "SuperPolynomial":
        out = SuperPolynomial(self.N)
        for (T, e), c in self.terms.items():
            e2 = list(e)
            e2[i - 1] += power
            out.terms[(T, tuple(e2))] = c
        return out

    def mul_theta(self, i: int) -> "SuperPolynomial":
        """Left multiplication by theta_i."""
        out = SuperPolynomial(self.N)
        for (T, e), c in self.terms.items():
            if i in T:
                continue
            pos = sum(1 for t in T if t < i)
            T2 = T[:pos] + (i,) + T[pos:]
            out._iadd_term((T2, e), c if pos % 2 == 0 else -c)
        return out

    # -- symmetric group action ----------------------------------------------
    def is_symmetric(self) -> bool:
        """Invariance under each adjacent diagonal transposition (i i+1).

        Each term is looked up at its signed image: theta_i and theta_{i+1}
        both present swap places (sign -1); one alone is renamed in place.
        """
        terms = self.terms
        for i in range(1, self.N):
            j = i + 1
            for (T, e), c in terms.items():
                if i in T:
                    if j in T:
                        c = -c
                    else:
                        T = tuple(j if t == i else t for t in T)
                elif j in T:
                    T = tuple(i if t == j else t for t in T)
                e = e[:i - 1] + (e[i], e[i - 1]) + e[j:]
                if terms.get((T, e)) != c:
                    return False
        return True

    # -- extraction and substitution -------------------------------------------
    def theta_coefficient(self, indices: Sequence[int]) -> "SuperPolynomial":
        """Coefficient of theta_{i_1}...theta_{i_m}, indices increasing."""
        T0 = tuple(indices)
        if list(T0) != sorted(set(T0)):
            raise ValueError("theta indices must be strictly increasing")
        out = SuperPolynomial(self.N)
        for (T, e), c in self.terms.items():
            if T == T0:
                out.terms[((), e)] = c
        return out

    def restrict_last(self) -> tuple["SuperPolynomial", "SuperPolynomial"]:
        """([f] at x_N = theta_N = 0, [d/d theta_N f] at x_N = theta_N = 0)."""
        N = self.N
        body = SuperPolynomial(N - 1)
        slope = SuperPolynomial(N - 1)
        for (T, e), c in self.terms.items():
            if e[N - 1] != 0:
                continue
            if T and T[-1] == N:
                sign = 1 if (len(T) - 1) % 2 == 0 else -1
                slope._iadd_term((T[:-1], e[:-1]), c if sign > 0 else -c)
            elif not T or T[-1] < N:
                body._iadd_term((T, e[:-1]), c)
        return body, slope

    def extend(self, N2: int) -> "SuperPolynomial":
        if N2 < self.N:
            raise ValueError("cannot shrink; use restrict_last")
        pad = (0,) * (N2 - self.N)
        return SuperPolynomial(N2, {(T, e + pad): c for (T, e), c in self.terms.items()})

    def merge_x(self, sources: Iterable[int], target: int) -> "SuperPolynomial":
        """Identify the commuting variables x_s (s in sources) with x_target."""
        src = set(sources)
        src.discard(target)
        out = SuperPolynomial(self.N)
        for (T, e), c in self.terms.items():
            e2 = list(e)
            moved = 0
            for s in src:
                moved += e2[s - 1]
                e2[s - 1] = 0
            e2[target - 1] += moved
            out._iadd_term((T, tuple(e2)), c)
        return out

    def subs_x(self, assignments: dict[int, "SuperPolynomial"]) -> "SuperPolynomial":
        """Simultaneous substitution x_i -> commutative polynomial."""
        for g in assignments.values():
            self._check(g)
            if not g.theta_free():
                raise ValueError("substitution images must be theta-free")
        power_cache: dict[tuple[int, int], SuperPolynomial] = {}

        def gpow(i: int, k: int) -> SuperPolynomial:
            key = (i, k)
            if key not in power_cache:
                if k == 0:
                    power_cache[key] = SuperPolynomial.one(self.N)
                else:
                    power_cache[key] = gpow(i, k - 1) * assignments[i]
            return power_cache[key]

        out = SuperPolynomial(self.N)
        for (T, e), c in self.terms.items():
            e_rest = list(e)
            factor = None
            for i in assignments:
                k = e_rest[i - 1]
                e_rest[i - 1] = 0
                if k:
                    factor = gpow(i, k) if factor is None else factor * gpow(i, k)
            base = SuperPolynomial(self.N, {(T, tuple(e_rest)): c})
            out += base if factor is None else base * factor
        return out

    def eval_ones(self):
        """Value with every commuting variable set to 1 (theta-free input)."""
        if not self.theta_free():
            raise ValueError("eval_ones needs a theta-free polynomial")
        acc = 0
        for _, c in self.terms.items():
            acc = c + acc
        return acc

    # -- printing -----------------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (len(kv[0][0]), kv[0][0], kv[0][1]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for (T, e), c in self.sorted_terms():
            factors = [f"t{i}" for i in T]
            factors += [f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}"
                        for i, k in enumerate(e) if k]
            cs = str(c)
            if factors:
                body = "*".join(factors)
                if cs == "1":
                    chunks.append(body)
                elif cs == "-1":
                    chunks.append(f"-{body}")
                else:
                    chunks.append(f"{cs}*{body}")
            else:
                chunks.append(cs)
        out = chunks[0]
        for ch in chunks[1:]:
            out += ch if ch.startswith("-") else "+" + ch
        return out

    def __repr__(self) -> str:
        return f"SuperPolynomial(N={self.N}, {self})"


# ---------------------------------------------------------------------------
# sign helpers
# ---------------------------------------------------------------------------

def _theta_merge(T1, T2):
    """Concatenate theta blocks; None if a square appears, else (tuple, sign)."""
    if not T1:
        return T2, 1
    if not T2:
        return T1, 1
    s1 = set(T1)
    if s1 & set(T2):
        return None
    inv = 0
    for t in T2:
        inv += sum(1 for u in T1 if u > t)
    merged = tuple(sorted(T1 + T2))
    return merged, (1 if inv % 2 == 0 else -1)


def _sort_sign(seq) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return 1 if inv % 2 == 0 else -1


def permute_into(out: dict, terms: dict, sigmas: Iterable[Sequence[int]]) -> None:
    """out += the sum over sigmas of K_sigma of the term dict, zero terms
    skipped: K_sigma sends x_k to x_sigma(k) and theta_k to theta_sigma(k).

    The terms are grouped by theta tuple once; per sigma, exponent tuples
    are permuted by sigma^-1, and each theta tuple is mapped through sigma
    and re-sorted, with the sign of that sort, once."""
    groups: dict = {}
    for (T, e), c in terms.items():
        if c:
            groups.setdefault(T, []).append((e, c))
    get = out.get
    for sigma in sigmas:
        where = [sigma.index(k) for k in range(1, len(sigma) + 1)]
        # itemgetter of a single index returns the bare item, not a 1-tuple
        pull = itemgetter(*where) if len(where) > 1 else tuple
        for T, group in groups.items():
            mapped = [sigma[t - 1] for t in T]
            T2 = tuple(sorted(mapped))
            negate = _sort_sign(mapped) < 0
            for e, c in group:
                if negate:
                    c = -c
                key = (T2, pull(e))
                cur = get(key)
                out[key] = c if cur is None else cur + c


# ---------------------------------------------------------------------------
# exact division by (x_i - x_j) and friends
# ---------------------------------------------------------------------------

def divide_xdiff(f: SuperPolynomial, i: int, j: int) -> SuperPolynomial:
    """Exact quotient f / (x_i - x_j); raises DivisionFailure on remainder.

    Peels the x_i-levels from the top: a term c x_i^k r gives c x_i^(k-1) r
    to the quotient and carries c x_i^(k-1) x_j r one level down.  Distinct
    terms of one level give distinct quotient keys, so the quotient is
    written by assignment.
    """
    ii, jj = i - 1, j - 1
    levels: defaultdict[int, dict] = defaultdict(dict)
    for key, c in f.terms.items():
        levels[key[1][ii]][key] = c
    out = {}
    for ei in range(max(levels, default=0), 0, -1):
        lv = levels.get(ei)
        if not lv:
            continue
        below = levels[ei - 1]
        for (T, e), c in lv.items():
            if not c:
                continue
            el = list(e)
            el[ii] = ei - 1
            out[(T, tuple(el))] = c
            el[jj] += 1
            key = (T, tuple(el))
            cur = below.get(key)
            below[key] = c if cur is None else cur + c
    for c in levels[0].values():
        if c:
            raise DivisionFailure(f"(x{i} - x{j}) does not divide the input")
    return SuperPolynomial(f.N, out)


def unique_arrangements(items: list):
    """Distinct permutations of a multiset, in lexicographic order (Knuth L)."""
    seq = sorted(items)
    n = len(seq)
    while True:
        yield tuple(seq)
        k = n - 2
        while k >= 0 and seq[k] >= seq[k + 1]:
            k -= 1
        if k < 0:
            return
        i = n - 1
        while seq[i] <= seq[k]:
            i -= 1
        seq[k], seq[i] = seq[i], seq[k]
        seq[k + 1:] = reversed(seq[k + 1:])


# ---------------------------------------------------------------------------
# clearing denominators
# ---------------------------------------------------------------------------

def integral_multiple(f: SuperPolynomial) -> SuperPolynomial:
    """D * f with coefficients in Z[a], D the common denominator of f's."""
    return SuperPolynomial(f.N, clear_denominators(f.terms))


# ---------------------------------------------------------------------------
# symmetric bases
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _placements(m: int, N: int) -> tuple:
    """(sorted slots, sign of that sort > 0, pull) per ordered placement of m
    fermionic parts, largest first, in N slots; pull(parts + arrangement of
    the free slots) is the exponent tuple."""
    out = []
    for slots in permutations(range(N), m):
        order = [*slots, *(p for p in range(N) if p not in slots)]
        # exponent p is entry where[p] of antisym + arrangement
        where = sorted(range(N), key=order.__getitem__)
        out.append((tuple(sorted(p + 1 for p in slots)), _sort_sign(slots) > 0,
                    itemgetter(*where) if N > 1 else tuple))
    return tuple(out)


@lru_cache(maxsize=None)
def _arrangements(parts: tuple) -> tuple:
    """The distinct arrangements of the zero-padded bosonic parts."""
    return tuple(unique_arrangements(list(parts)))


def _orbit_into(out: dict, head: tuple, sym: tuple, N: int, c) -> None:
    """Write c m_L in N variables into out, each term once, as +-c: L has
    the fermionic parts head and the bosonic parts sym, zeros allowed."""
    if len(head) + len(sym) > N:
        raise ValueError(f"{SuperPartition(head, sym)} needs at least "
                         f"{len(head) + len(sym)} variables")
    exps = [head + b for b in _arrangements(sym + (0,) * (N - len(head)
                                                        - len(sym)))]
    neg = -c
    for T, plus, pull in _placements(len(head), N):
        out.update(zip(zip(repeat(T), map(pull, exps)),
                       repeat(c if plus else neg)))


def monomial_msym(L: SuperPartition, N: int) -> SuperPolynomial:
    """Monomial symmetric superpolynomial: distinct diagonal-orbit terms."""
    out: dict = {}
    _orbit_into(out, L.antisym, L.sym, N, 1)
    return SuperPolynomial(N, out)


def to_mbasis(f: SuperPolynomial, verify: bool = True) -> dict[SuperPartition, object]:
    """Expand a symmetric superpolynomial over the monomial superbasis: read
    the coefficient of each label's canonical term, theta_1...theta_m times
    x^(fermionic parts, strictly decreasing, then bosonic, weakly)."""
    if verify and not f.is_symmetric():
        raise NotSymmetric("input is not invariant under the diagonal action")
    out: dict[SuperPartition, object] = {}
    for (T, e), c in f.terms.items():
        mdeg = len(T)
        # T strictly increases from 1 up, so T = (1..m) when it ends at m
        if T and T[-1] != mdeg:
            continue
        tail = e[mdeg:]
        if sorted(tail, reverse=True) != list(tail):
            continue
        head = e[:mdeg]
        if mdeg > 1 and sorted(set(head), reverse=True) != list(head):
            continue
        out[SuperPartition(head, tuple(filter(None, tail)))] = c
    return out


def from_mbasis(coeffs: dict[SuperPartition, object], N: int) -> SuperPolynomial:
    """The polynomial sum c_L m_L; distinct labels have disjoint orbits, so
    each orbit term is written once, as +-c."""
    out = {}
    for L, c in coeffs.items():
        if c:
            _orbit_into(out, L.antisym, L.sym, N, c)
    return SuperPolynomial(N, out)


def power_sum(n: int, N: int) -> SuperPolynomial:
    """p_n = sum x_i^n, n >= 1."""
    if n < 1:
        raise ValueError("power sums need n >= 1")
    out = SuperPolynomial(N)
    for i in range(1, N + 1):
        out._iadd_term(((), _unit(i, n, N)), 1)
    return out


def ferm_power(n: int, N: int) -> SuperPolynomial:
    """ptilde_n = sum theta_i x_i^n, n >= 0."""
    if n < 0:
        raise ValueError("fermionic power sums need n >= 0")
    out = SuperPolynomial(N)
    for i in range(1, N + 1):
        out._iadd_term(((i,), _unit(i, n, N)), 1)
    return out


def _unit(i: int, n: int, N: int) -> tuple[int, ...]:
    e = [0] * N
    e[i - 1] = n
    return tuple(e)


def p_label(L: SuperPartition, N: int) -> SuperPolynomial:
    """p_Lambda: ordered product of fermionic then bosonic power sums."""
    out = SuperPolynomial.one(N)
    for a in L.antisym:
        out = out * ferm_power(a, N)
    for s in L.sym:
        out = out * power_sum(s, N)
    return out


@lru_cache(maxsize=None)
def power_sum_columns(n: int, m: int, N: int) -> tuple[dict, dict]:
    """The m-coordinates of every p_Lambda of the (n|m) family in N
    variables, and each label's rank, bottom label first; built and checked
    once per family.  Callers must not mutate them.

    p_Lambda is supported on labels that dominate Lambda, with a nonzero
    integer at Lambda (Macdonald, ch. I section 6, in super form), so the
    columns are triangular in the order of `enumerate_sparts`; any other
    column raises ArithmeticError.
    """
    labels = enumerate_sparts(n, m, N)
    rank = {P: -i for i, P in enumerate(labels)}  # bottom label first
    columns = {P: to_mbasis(p_label(P, N), verify=False) for P in labels}
    bad = check_triangular(columns, rank)
    if bad is not None:
        raise ArithmeticError(
            f"p_[{bad}] is zero at its label or reaches a label below it")
    return columns, rank


def _power_sum_solve(mcoeffs: dict, N: int) -> tuple[dict, dict]:
    """Power-sum coordinates of an m-expansion, with the p_Lambda columns.

    The columns (`power_sum_columns`) are faithful when N >= n + m and
    triangular, so the coordinates come from a peel that starts at the
    bottom label.
    """
    if not mcoeffs:
        return {}, {}
    degrees = {L.degree() for L in mcoeffs}
    if len(degrees) != 1:
        raise ValueError("power-sum expansion needs a bi-homogeneous input")
    (n, m), = degrees
    if N < n + m:
        raise ValueError(f"need N >= {n + m} variables for a faithful expansion")
    columns, rank = power_sum_columns(n, m, N)
    # every label of the family has a column, so the peel never sticks
    return peel(mcoeffs, columns, rank)[0], columns


def to_pbasis(mcoeffs: dict[SuperPartition, object],
              N: int) -> dict[SuperPartition, object]:
    """Power-sum coordinates of a monomial-superbasis expansion in N variables;
    needs N >= n + m for faithfulness."""
    return _power_sum_solve(mcoeffs, N)[0]


def omega_alpha(mcoeffs: dict[SuperPartition, object], N: int,
                alpha) -> dict[SuperPartition, object]:
    """Duality endomorphism on m-coordinates: p_n -> (-1)^(n-1) alpha p_n,
    ptilde_n -> (-1)^n alpha ptilde_n, recombined on the p_Lambda columns."""
    pcoeffs, columns = _power_sum_solve(mcoeffs, N)
    scaled = {}
    for P, c in pcoeffs.items():
        scalar = alpha ** P.length
        flips = sum(a for a in P.antisym) + sum(s - 1 for s in P.sym)
        scaled[P] = c * (-scalar if flips % 2 else scalar)
    return combine(scaled, columns)


# ---------------------------------------------------------------------------
# linear algebra in monomial-superbasis coordinates
# ---------------------------------------------------------------------------

def check_triangular(columns: dict, rank: dict) -> Optional[SuperPartition]:
    """The first label whose column is zero at it or reaches a label that is
    unranked or ranked below it; None when `peel` over these columns is
    exact."""
    for L, col in columns.items():
        top = rank.get(L)
        if top is None or not col.get(L) or any(
                G not in rank or rank[G] < top for G in col):
            return L
    return None


def peel(residual: dict, columns: dict,
         rank: dict) -> tuple[dict, Optional[SuperPartition]]:
    """Coefficients c with sum c[L] * columns[L] = residual, found greedily.

    Each step takes the residual's least-ranked label L and subtracts
    residual[L] / columns[L][L] times columns[L].  Returns the coefficients
    and None, or, when L has no column, those found so far and L.  The
    answer is exact when every column is nonzero at its own label and has
    no label ranked below it; callers check that of their columns and rank
    every label the residual can reach.
    """
    residual = dict(residual)
    found = {}
    while residual:
        L = min(residual, key=rank.__getitem__)
        col = columns.get(L)
        if col is None:
            return found, L
        c = residual[L]
        pivot = col[L]
        if pivot != 1:  # int and Fraction pivots: a rational scale, no Q(a) gcd
            c = c * Fraction(1, pivot)
        found[L] = c
        for G, v in col.items():
            x = residual.get(G, 0) - c * v
            if x:
                residual[G] = x
            else:
                residual.pop(G, None)
    return found, None


def combine(coeffs: dict, columns: dict) -> dict:
    """sum c * columns[L] over the items (L, c) of coeffs, zeros dropped."""
    out = {}
    for L, c in coeffs.items():
        for G, v in columns[L].items():
            out[G] = out[G] + c * v if G in out else c * v
    return {G: x for G, x in out.items() if x}


def column_images(N: int) -> Callable[[str, Callable, dict], dict]:
    """``image(name, act, coords)``: the m-coordinates of act applied to
    sum c m_O over the items (O, c) of coords, N variables.

    act must be linear, so the image is sum c_O col(O), where the column
    col(O) is the m-coordinates of act(m_O); no polynomial is expanded.  The
    stability, cochain and Pieri suites each share one helper per call.  A
    column is built on first use and kept per name; m_O is built once for
    all names.  Each column's polynomial is checked for symmetry once, and
    an asymmetric one raises ArithmeticError naming the action and O.  A sum
    of symmetric images is symmetric, so that check certifies every image,
    and its m-coordinates determine it.
    """
    monomials: dict[SuperPartition, SuperPolynomial] = {}
    columns: dict[str, dict] = {}

    def image(name: str, act: Callable, coords: dict) -> dict:
        cols = columns.setdefault(name, {})
        for om in coords.keys() - cols.keys():
            mono = monomials.get(om)
            if mono is None:
                mono = monomials[om] = monomial_msym(om, N)
            img = act(mono)
            if not img.is_symmetric():
                raise ArithmeticError(
                    f"{name} maps m_[{om}] to a non-symmetric polynomial")
            cols[om] = to_mbasis(img, verify=False)
        return combine(coords, cols)

    return image


def prescribed_part(P: SuperPolynomial, m: int) -> SuperPolynomial:
    """Coefficient of theta_1...theta_m divided exactly by the Vandermonde."""
    g = P.theta_coefficient(tuple(range(1, m + 1)))
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            g = divide_xdiff(g, i, j)
    return g


@lru_cache(maxsize=None)
def prescribed_monomial(om: SuperPartition, N: int) -> SuperPolynomial:
    """prescribed_part(m_om, om.m) in N variables; shared, never mutated."""
    return prescribed_part(monomial_msym(om, N), om.m)


# ---------------------------------------------------------------------------
# serialization helpers (shared by the CLI)
# ---------------------------------------------------------------------------

def terms_to_json(f: SuperPolynomial) -> list[dict]:
    return [{"thetas": list(T), "exps": list(e), "coeff": str(c)}
            for (T, e), c in f.sorted_terms()]


def pair_decompose(f: SuperPolynomial, i: int, j: int):
    """Split f = A + theta_i B + theta_j C + theta_i theta_j D with A..D free of both.

    Removing theta_i (or theta_j, or both) is injective on the terms that
    carry it, so each part is filled by assignment.
    """
    A, B, C, D = {}, {}, {}, {}
    for key, c in f.terms.items():
        T = key[0]
        if i in T:
            pos = T.index(i)
            rest = T[:pos] + T[pos + 1:]
            if j in T:
                pos_j = rest.index(j)
                if (pos + pos_j) % 2:
                    c = -c
                D[(rest[:pos_j] + rest[pos_j + 1:], key[1])] = c
            else:
                B[(rest, key[1])] = -c if pos % 2 else c
        elif j in T:
            pos = T.index(j)
            C[(T[:pos] + T[pos + 1:], key[1])] = -c if pos % 2 else c
        else:
            A[key] = c
    return tuple(SuperPolynomial(f.N, part) for part in (A, B, C, D))
