"""The admissible-label span and the coincidence-vanishing space.

Everything here works over plain rationals: the deformation parameter is
specialized to -(k+1)/(r-1) before any linear algebra happens.  Bases are
graded by (total degree | fermionic degree); membership, stability, character
and clustering questions all reduce to exact linear algebra over Q in the
monomial superbasis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .coeffring import FieldMatrix, NoSolution, solve_exact, UniqueSolution
from .jack import jack_at
from .ops import OPERATORS, L_op, operator
from .spart import (SuperPartition, enumerate_all_m, enumerate_sparts,
                    fermionic_range, is_admissible)
from .superpoly import (SuperPolynomial, ferm_power, monomial_msym,
                        power_sum, prescribed_part, to_mbasis)


class NotInSpan(ValueError):
    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


def alpha_kr(k: int, r: int) -> Fraction:
    return Fraction(-(k + 1), r - 1)


# ---------------------------------------------------------------------------
# graded bases
# ---------------------------------------------------------------------------

@dataclass
class GradedBasis:
    k: int
    r: int
    N: int
    nmax: int
    alpha: Fraction
    by_degree: dict[tuple[int, int], "DegreeBasis"]

    def at(self, n: int, m: int):
        return self.by_degree.get((n, m), [])

    def elements(self):
        for deg in sorted(self.by_degree):
            for label, poly in self.by_degree[deg]:
                yield deg, label, poly


def admissible_at_degree(k: int, r: int, N: int, n: int, m: int,
                         allow_noncoprime: bool = False) -> list[SuperPartition]:
    return [L for L in enumerate_sparts(n, m, N)
            if is_admissible(L, k, r, N, allow_noncoprime=allow_noncoprime)]


class DegreeBasis(tuple):
    """(label, polynomial) pairs spanning one degree.

    ``mcoords`` reads the elements in the monomial superbasis on first use,
    checking each for symmetry once, and keeps the coordinates for every
    later membership test against the same basis.
    """

    _mcoords = None

    def mcoords(self) -> list[dict]:
        if self._mcoords is None:
            self._mcoords = [to_mbasis(poly) for _, poly in self]
        return self._mcoords


def degree_basis(k: int, r: int, N: int, n: int, m: int,
                 allow_noncoprime: bool = False) -> DegreeBasis:
    """Specialized Jack polynomials for the admissible labels of one degree."""
    a0 = alpha_kr(k, r)
    return DegreeBasis(
        (L, jack_at(L, N, a0))
        for L in admissible_at_degree(k, r, N, n, m,
                                      allow_noncoprime=allow_noncoprime))


def ideal_basis(k: int, r: int, N: int, nmax: int,
                allow_noncoprime: bool = False) -> GradedBasis:
    by_degree = {}
    for n in range(nmax + 1):
        for m in fermionic_range(n, N):
            entry = degree_basis(k, r, N, n, m,
                                 allow_noncoprime=allow_noncoprime)
            if entry:
                by_degree[(n, m)] = entry
    return GradedBasis(k, r, N, nmax, alpha_kr(k, r), by_degree)


# ---------------------------------------------------------------------------
# membership and ranks, in monomial coordinates over Q
# ---------------------------------------------------------------------------

def _span_solve(columns: Sequence[dict], rhs: Optional[dict] = None):
    """Solve sum_j x_j columns[j] = rhs over Q with one `solve_exact` call.

    Columns and right-hand side are coordinate dicts (monomial-superbasis
    labels or expanded terms); a missing key is a zero coordinate and the
    default right-hand side is zero.  Returns the `solve_exact` result.
    """
    rhs = rhs or {}
    row = {key: r for r, key in enumerate(dict.fromkeys(
        [key for col in columns for key in col] + list(rhs)))}
    width = len(columns)
    zero = Fraction(0)  # shared; Fraction keeps the pivot divisions exact
    entries = [zero] * (len(row) * width)
    for j, col in enumerate(columns):
        for key, c in col.items():
            entries[row[key] * width + j] = Fraction(c)
    b = [zero] * len(row)
    for key, c in rhs.items():
        b[row[key]] = Fraction(c)
    return solve_exact(FieldMatrix(len(row), width, entries), b)


def membership(f: SuperPolynomial, basis: Sequence[tuple[SuperPartition, SuperPolynomial]]):
    """Coefficients of f over the given elements; NotInSpan on failure.

    The solve runs in monomial-superbasis coordinates, read once per
    `DegreeBasis` (any other sequence is read on each call).  The elements
    are symmetric, so a non-symmetric f lies outside their span.
    """
    if f.is_zero():
        return {}
    if not f.is_symmetric():
        raise NotInSpan("not symmetric, so outside the span", residual=f)
    if not isinstance(basis, DegreeBasis):
        basis = DegreeBasis(basis)
    res = _span_solve(basis.mcoords(), to_mbasis(f, verify=False))
    if isinstance(res, NoSolution):
        raise NotInSpan(f"outside the span ({len(basis)} elements)", residual=f)
    vector = res.vector if isinstance(res, UniqueSolution) else res.particular
    return {basis[i][0]: c for i, c in enumerate(vector) if c}


def rank_of(polys: Sequence[SuperPolynomial]) -> int:
    """Rank of the polynomials, in expanded-term coordinates."""
    res = _span_solve([f.terms for f in polys])
    return len(polys) - (0 if isinstance(res, UniqueSolution)
                         else len(res.nullspace))


# ---------------------------------------------------------------------------
# stability of the span under the operator algebra
# ---------------------------------------------------------------------------

def stability_suite(k: int, r: int, N: int, nmax: int,
                    allow_noncoprime: bool = False) -> dict:
    """Check closure under the five lowering/raising operators, the first two
    power sums, the degree-(-2) Virasoro mode and variable restriction."""
    a0 = alpha_kr(k, r)
    basis = ideal_basis(k, r, N, nmax, allow_noncoprime=allow_noncoprime)
    spans: dict[tuple[int, int, int], DegreeBasis] = {
        (N, n, m): b for (n, m), b in basis.by_degree.items()}

    def span(Nv, n, m):
        """Admissible basis of degree (n|m) in Nv variables, built once."""
        if n < 0 or m < 0 or m > Nv:
            return DegreeBasis()
        key = (Nv, n, m)
        if key not in spans:
            spans[key] = degree_basis(k, r, Nv, n, m,
                                      allow_noncoprime=allow_noncoprime)
        return spans[key]

    def generator(name: str):
        op = operator(name)
        return name, lambda f: op(f, a0), OPERATORS[name].shift

    # (name, action, bidegree shift)
    actions: list[tuple[str, Callable[[SuperPolynomial], SuperPolynomial],
                        tuple[int, int]]] = [
        ("p0*", lambda f: ferm_power(0, N) * f, (0, 1)),
        *map(generator, ("q", "q_perp", "Q", "Q_perp")),
        ("p1*", lambda f: power_sum(1, N) * f, (1, 0)),
        ("p2*", lambda f: power_sum(2, N) * f, (2, 0)),
        ("L_-2", lambda f: L_op(-2, f), (2, 0)),
    ]
    violations = []
    checked = 0
    for (n, m), entries in sorted(basis.by_degree.items()):
        for label, poly in entries:
            for name, act, (dn, dm) in actions:
                img = act(poly)
                checked += 1
                if img.is_zero():
                    continue
                try:
                    membership(img, span(N, n + dn, m + dm))
                except NotInSpan:
                    violations.append((name, str(label), (n, m)))
    # restriction to one variable fewer
    for (n, m), entries in sorted(basis.by_degree.items()):
        for label, poly in entries:
            work = poly
            for j in range(_max_exp(poly, N) + 1):
                body, slope = work.restrict_last()
                for piece, pm in ((body, m), (slope, m - 1)):
                    checked += 1
                    if piece.is_zero():
                        continue
                    try:
                        membership(piece, span(N - 1, n - j, pm))
                    except NotInSpan:
                        violations.append((f"restrict d^{j}", str(label), (n, m)))
                work = work.diff_x(N)
    return {"k": k, "r": r, "N": N, "nmax": nmax,
            "checked": checked, "violations": violations}


def _max_exp(f: SuperPolynomial, i: int) -> int:
    return max((e[i - 1] for _, e in f.terms), default=0)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

@dataclass
class CharacterSeries:
    table: dict[tuple[int, int], int]
    nmax: int

    def coeff(self, n: int, m: int) -> int:
        return self.table.get((n, m), 0)

    def series_str(self) -> str:
        chunks = []
        for n in range(self.nmax + 1):
            ms = sorted(m for (nn, m) in self.table if nn == n and self.table[(nn, m)])
            if not ms:
                continue
            inner = []
            for m in ms:
                c = self.table[(n, m)]
                cs = "" if c == 1 and m > 0 else str(c)
                if m == 0:
                    inner.append(str(c))
                elif m == 1:
                    inner.append(f"{cs}v")
                else:
                    inner.append(f"{cs}v^{m}")
            body = "+".join(inner)
            if n == 0:
                chunks.append(body if len(ms) == 1 else f"({body})")
            else:
                u = "u" if n == 1 else f"u^{n}"
                chunks.append(f"({body})*{u}" if len(inner) > 1 or ms != [0]
                              else f"{body}*{u}")
        return " + ".join(chunks) if chunks else "0"

    def __eq__(self, other):
        if not isinstance(other, CharacterSeries):
            return NotImplemented
        keys = {k for k, v in self.table.items() if v} | \
               {k for k, v in other.table.items() if v}
        return all(self.coeff(*k) == other.coeff(*k) for k in keys)


def char_I(k: int, r: int, N: int, nmax: int,
           allow_noncoprime: bool = False) -> CharacterSeries:
    """Admissible-label counts per bidegree."""
    table = {}
    for n in range(nmax + 1):
        for L in enumerate_all_m(n, N):
            if is_admissible(L, k, r, N, allow_noncoprime=allow_noncoprime):
                table[(n, L.m)] = table.get((n, L.m), 0) + 1
    return CharacterSeries(table, nmax)


def dim_F(k: int, N: int, n: int, m: int) -> int:
    """Dimension of the coincidence-vanishing subspace at one bidegree."""
    labels = enumerate_sparts(n, m, N)
    images = [monomial_msym(L, N).merge_x(range(1, k + 2), 1) for L in labels]
    return len(labels) - rank_of(images)


def char_F(k: int, N: int, nmax: int) -> CharacterSeries:
    table = {}
    for n in range(nmax + 1):
        for m in fermionic_range(n, N):
            d = dim_F(k, N, n, m)
            if d:
                table[(n, m)] = d
    return CharacterSeries(table, nmax)


# ---------------------------------------------------------------------------
# vanishing and clustering
# ---------------------------------------------------------------------------

def vanish_check(L: SuperPartition, k: int, r: int, N: int,
                 allow_noncoprime: bool = False) -> bool:
    """Does the specialized polynomial die when k+1 variables coincide?"""
    if N < k + 1:
        raise ValueError("coincidence vanishing needs N >= k+1")
    P = jack_at(L, N, alpha_kr(k, r))
    return P.merge_x(range(1, k + 2), 1).is_zero()


def prescribed_vanish_check(L: SuperPartition, k: int, r: int, N: int) -> bool:
    """Vandermonde-stripped variant, all choices of k+1 coinciding variables."""
    from itertools import combinations
    if N < k + 1:
        raise ValueError("coincidence vanishing needs N >= k+1")
    P = jack_at(L, N, alpha_kr(k, r))
    g = prescribed_part(P, L.m)
    for combo in combinations(range(1, N + 1), k + 1):
        if not g.merge_x(combo[1:], combo[0]).is_zero():
            return False
    return True


@dataclass
class ClusterResult:
    multiplicity: Optional[int]  # None when the substitution kills everything
    a: int
    expected: int  # r - a

    @property
    def matches(self) -> bool:
        return self.multiplicity == self.expected


def cluster_multiplicity(L: SuperPartition, k: int, r: int, N: int,
                         cluster: Sequence[int], primed: int,
                         allow_noncoprime: bool = False) -> ClusterResult:
    """Order of vanishing in (x - x') with the cluster merged to x' + t."""
    cluster = tuple(cluster)
    if primed in cluster or len(set(cluster)) != len(cluster):
        raise ValueError("cluster indices must be distinct and avoid primed")
    m = L.m
    P = jack_at(L, N, alpha_kr(k, r))
    g = prescribed_part(P, m).extend(N + 2)
    xprime = SuperPolynomial.x(N + 1, N + 2)
    shifted = xprime + SuperPolynomial.x(N + 2, N + 2)
    assignments = {c: shifted for c in cluster}
    assignments[primed] = xprime
    img = g.subs_x(assignments)
    a = sum(1 for i in set(cluster) | {primed} if i <= m)
    s = None if img.is_zero() else img.x_valuation(N + 2)
    return ClusterResult(s, a, r - a)


# ---------------------------------------------------------------------------
# cochain structure
# ---------------------------------------------------------------------------

def cochain_check(k: int, r: int, N: int, nmax: int, d: str = "q",
                  allow_noncoprime: bool = False) -> dict:
    """d-stability, d*d = 0 and kernel/image rank bookkeeping on the span."""
    if d not in ("q", "q_tilde"):
        raise ValueError("d must be 'q' or 'q_tilde'")
    act = operator(d)
    dn, dm = OPERATORS[d].shift
    basis = ideal_basis(k, r, N, nmax, allow_noncoprime=allow_noncoprime)
    a0 = basis.alpha
    failures = []
    ranks = {}
    for (n, m), entries in sorted(basis.by_degree.items()):
        polys = [p for _, p in entries]
        images = [act(p, a0) for p in polys]
        for (label, _), img in zip(entries, images):
            if act(img, a0):
                failures.append(("d.d != 0", str(label), (n, m)))
            if img.is_zero():
                continue
            target = degree_basis(k, r, N, n + dn, m + dm,
                                  allow_noncoprime=allow_noncoprime)
            try:
                membership(img, target)
            except NotInSpan:
                failures.append(("image outside span", str(label), (n, m)))
        dim_here = len(polys)
        rk = rank_of(images)
        ranks[(n, m)] = {"dim": dim_here, "rank_d": rk,
                         "ker_d": dim_here - rk}
    exactness = []
    for (n, m), data in sorted(ranks.items()):
        if m == 0:
            continue
        # source degree mapping onto (n, m); skip spots whose source lies
        # beyond the computed range (its image rank would read as 0)
        src = (n - dn, m - dm)
        if src[0] > nmax:
            continue
        im_prev = ranks.get(src, {}).get("rank_d", 0)
        exactness.append({"degree": (n, m), "ker": data["ker_d"],
                          "im": im_prev, "exact": data["ker_d"] == im_prev})
    return {"failures": failures, "ranks": ranks, "exactness": exactness}


# ---------------------------------------------------------------------------
# conjecture harnesses
# ---------------------------------------------------------------------------

def harness_I_eq_F(k: int, N: int, nmax: int) -> dict:
    ci = char_I(k, 2, N, nmax)
    cf = char_F(k, N, nmax)
    mismatches = []
    for n in range(nmax + 1):
        for m in fermionic_range(n, N):
            if ci.coeff(n, m) != cf.coeff(n, m):
                mismatches.append({"degree": (n, m), "char_I": ci.coeff(n, m),
                                   "char_F": cf.coeff(n, m)})
    return {"k": k, "N": N, "nmax": nmax, "char_I": ci, "char_F": cf,
            "equal": not mismatches, "mismatches": mismatches}


def _representative_clusters(k: int, m: int, N: int):
    """Inequivalent (cluster, primed) choices by block symmetry."""
    out = []
    for c1 in range(0, min(k, m) + 1):
        if k - c1 > N - m:
            continue
        cluster = tuple(range(1, c1 + 1)) + tuple(range(m + 1, m + 1 + (k - c1)))
        for primed_ferm in (True, False):
            if primed_ferm:
                if c1 + 1 > m:
                    continue
                primed = c1 + 1
            else:
                if m + k - c1 + 1 > N:
                    continue
                primed = m + k - c1 + 1
            out.append((cluster, primed))
    return out


def harness_clustering(k: int, r: int, N: int, nmax: int,
                       allow_noncoprime: bool = False) -> dict:
    """Sweep the multiplicity over admissible labels and log exceptions."""
    rows = []
    for n in range(nmax + 1):
        for m in fermionic_range(n, N)[1:]:
            for L in admissible_at_degree(k, r, N, n, m,
                                          allow_noncoprime=allow_noncoprime):
                for cluster, primed in _representative_clusters(k, m, N):
                    res = cluster_multiplicity(
                        L, k, r, N, cluster, primed,
                        allow_noncoprime=allow_noncoprime)
                    if res.multiplicity is None:
                        rows.append({"label": str(L), "cluster": cluster,
                                     "primed": primed, "s": None,
                                     "expected": None, "zero": True,
                                     "exception": False})
                        continue
                    rows.append({
                        "label": str(L), "cluster": cluster, "primed": primed,
                        "s": res.multiplicity, "expected": res.expected,
                        "zero": False,
                        "exception": res.multiplicity != res.expected,
                        "divides": res.multiplicity >= res.expected,
                        "within_bounds": N >= k + m + 1 and r > m > 0,
                    })
    exceptions = [row for row in rows if row.get("exception")]
    bad = [row for row in exceptions if row.get("within_bounds")]
    return {"k": k, "r": r, "N": N, "nmax": nmax, "rows": rows,
            "exceptions": exceptions, "exceptions_in_bounds": bad}
