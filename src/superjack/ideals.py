"""The admissible-label span and the coincidence-vanishing space.

Everything here works over plain rationals: the deformation parameter is
specialized to -(k+1)/(r-1) before any linear algebra happens.  Bases are
graded by (total degree | fermionic degree); membership, stability, character
and clustering questions all reduce to exact linear algebra over Q in the
monomial superbasis.

No Jack superpolynomial is expanded anywhere in this module.  A basis
element is its m-coordinates; every action checked on the span (p0*, q,
q_perp, Q, Q_perp, p1*, p2*, L_-2, d = q or q_tilde, restriction pieces) is
linear, so its image is read through `superpoly.column_images`, and the
coincidence and cluster checks sum substituted `prescribed_monomial` columns;
dim F is the kernel of the same coincidence columns.

Membership is a monic triangular peel, not a solve.  P_L is monic at L and
supported on labels that L dominates, so in the order of `enumerate_sparts`
(``sort_key``, which extends dominance) each basis element has coefficient 1
at its own label and nothing above it; a `DegreeBasis` is checked for exactly
that when it is built.  Any nonzero combination of such columns then has a
basis label as its top label, so the peel (`superpoly.peel`, which the
power-sum expansion shares) decides membership: a peel that empties the
residual has found coefficients that are their own certificate, and a peel
stuck on a label outside the basis is confirmed by one dense `solve_exact`
call before `NotInSpan` is raised.  Nothing here checks gcd(k+1, r-1) = 1;
the suites and the command line check it where a run starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .coeffring import FieldMatrix, NoSolution, solve_exact, UniqueSolution
from .jack import jack_at
from .ops import OPERATORS, L_op, operator
from .spart import (SuperPartition, check_kr, enumerate_admissible,
                    enumerate_sparts, fermionic_range, is_admissible)
from .superpoly import (SuperPolynomial, check_triangular, column_images,
                        combine, ferm_power, peel, power_sum,
                        prescribed_monomial)


class NotInSpan(ValueError):
    """``label`` is the residual's top label, which no basis element has."""

    def __init__(self, message: str, residual=None, label=None):
        super().__init__(message)
        self.residual = residual
        self.label = label


class NotUnitriangular(ArithmeticError):
    """A basis that is not monic triangular, or a peel the dense solve
    contradicts."""


def alpha_kr(k: int, r: int) -> Fraction:
    """The parameter -(k+1)/(r-1); ValueError outside k >= 1, r >= 2."""
    check_kr(k, r, allow_noncoprime=True)
    return Fraction(-(k + 1), r - 1)


# ---------------------------------------------------------------------------
# graded bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeBasis:
    """One degree's basis in N variables: ``columns`` maps each label to its
    m-coordinates and ``rank`` every label of the degree to its index in
    `enumerate_sparts`, top first.  Checked when built: each column is 1 at
    its own label and 0 above it, so the peel in `membership` is exact and
    finite; any other basis raises `NotUnitriangular`."""
    N: int
    columns: dict
    rank: dict

    def __post_init__(self):
        bad = check_triangular(self.columns, self.rank)
        if bad is None:
            bad = next((L for L, col in self.columns.items() if col[L] != 1),
                       None)
        if bad is not None:
            raise NotUnitriangular(f"basis element {bad} is not monic at its "
                                   "label or reaches a label above it")


def degree_basis(k: int, r: int, N: int, n: int, m: int) -> DegreeBasis:
    """Specialized Jack polynomials for the admissible labels of one degree."""
    a0 = alpha_kr(k, r)
    labels = enumerate_sparts(n, m, N)
    return DegreeBasis(N, {L: jack_at(L, N, a0).coeffs for L in labels
                           if is_admissible(L, k, r, N)},
                       {L: i for i, L in enumerate(labels)})


def ideal_basis(k: int, r: int, N: int,
                nmax: int) -> dict[tuple[int, int], DegreeBasis]:
    """The nonempty degree bases up to total degree nmax, keyed by (n, m)."""
    by_degree = {}
    for n in range(nmax + 1):
        for m in fermionic_range(n, N):
            entry = degree_basis(k, r, N, n, m)
            if entry.columns:
                by_degree[(n, m)] = entry
    return by_degree


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


def membership(coords: dict, basis: DegreeBasis):
    """Coefficients over the basis elements of the symmetric polynomial with
    these m-coordinates; NotInSpan on failure.

    The peel takes the top label of the coordinates, subtracts that
    coefficient times the basis element of the label, and repeats.  When
    the residual empties, the coefficients found sum to the input, so a
    positive answer certifies itself.  When the top label has no basis
    element, the columns being monic triangular (checked when the
    `DegreeBasis` is built) put the input outside the span; one dense solve
    confirms that before NotInSpan, with ``label`` the stuck label, is
    raised.  The caller vouches for symmetry: the column route checks each
    operator column once, and m-coordinates of a symmetric polynomial
    determine it.
    """
    if not coords:
        return {}
    columns, rank = basis.columns, basis.rank
    stray = coords.keys() - rank.keys()
    if stray:
        top = max(stray, key=SuperPartition.sort_key)
    else:
        found, top = peel(coords, columns, rank)
        if top is None:
            return found
    if not isinstance(_span_solve(list(columns.values()), coords),
                      NoSolution):
        raise NotUnitriangular(
            f"peel stuck at {top}, yet the dense solve finds it in the span")
    raise NotInSpan(f"outside the span ({len(columns)} elements), "
                    f"stuck at {top}", residual=coords, label=top)


def rank_of(vectors: Sequence[dict]) -> int:
    """Rank of coordinate dicts (m-coordinates or expanded terms)."""
    res = _span_solve(vectors)
    return len(vectors) - (0 if isinstance(res, UniqueSolution)
                           else len(res.nullspace))


# ---------------------------------------------------------------------------
# stability of the span under the operator algebra
# ---------------------------------------------------------------------------

def stability_suite(k: int, r: int, N: int, nmax: int) -> dict:
    """Check closure under the five lowering/raising operators, the first two
    power sums, the degree-(-2) Virasoro mode and variable restriction."""
    a0 = alpha_kr(k, r)
    basis = ideal_basis(k, r, N, nmax)
    spans: dict[tuple[int, int, int], DegreeBasis] = {
        (N, n, m): b for (n, m), b in basis.items()}

    def span(Nv, n, m):
        """Admissible basis of degree (n|m) in Nv variables, built once."""
        key = (Nv, n, m)
        if key not in spans:
            spans[key] = degree_basis(k, r, Nv, n, m)
        return spans[key]

    def generator(name: str):
        op = operator(name)
        return name, lambda f: op(f, a0), (N, *OPERATORS[name].shift)

    def restricted(j: int, dm: int):
        """d^j/dx_N^j, then x_N = theta_N = 0: the body (dm = 0) or the
        theta_N-slope (dm = -1)."""
        def act(f):
            for _ in range(j):
                f = f.diff_x(N)
            return f.restrict_last()[-dm]
        return act

    p0, p1, p2 = ferm_power(0, N), power_sum(1, N), power_sum(2, N)
    # (name, action, (variables, bidegree shift)) on a basis element
    generators = [
        ("p0*", lambda f: p0 * f, (N, 0, 1)),
        *map(generator, ("q", "q_perp", "Q", "Q_perp")),
        ("p1*", lambda f: p1 * f, (N, 1, 0)),
        ("p2*", lambda f: p2 * f, (N, 2, 0)),
        ("L_-2", lambda f: L_op(-2, f), (N, 2, 0)),
    ]

    def restrictions(coords):
        """Restriction to N - 1 variables, up to the largest exponent of x_N."""
        for j in range(max(max(om.star, default=0) for om in coords) + 1):
            for dm in (0, -1):
                yield f"restrict d^{j}", restricted(j, dm), (N - 1, -j, dm)

    image = column_images(N)
    violations = []
    checked = 0
    # every generator on every element, then every restriction
    for actions in (lambda coords: generators, restrictions):
        for (n, m), b in sorted(basis.items()):
            for label, coords in b.columns.items():
                for name, act, (Nv, dn, dm) in actions(coords):
                    # a restriction's two pieces share a name, not a column
                    piece = "" if Nv == N else " slope" if dm else " body"
                    img = image(name + piece, act, coords)
                    checked += 1
                    if not img:
                        continue
                    try:
                        membership(img, span(Nv, n + dn, m + dm))
                    except NotInSpan:
                        violations.append((name, str(label), (n, m)))
    return {"k": k, "r": r, "N": N, "nmax": nmax,
            "checked": checked, "violations": violations}


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


def char_I(k: int, r: int, N: int, nmax: int) -> CharacterSeries:
    """Admissible-label counts per bidegree."""
    table = {}
    for L in enumerate_admissible(k, r, N, nmax):
        table[(L.n, L.m)] = table.get((L.n, L.m), 0) + 1
    return CharacterSeries(table, nmax)


def dim_F(k: int, N: int, n: int, m: int) -> int:
    """Dimension of the coincidence-vanishing subspace at one bidegree: the
    kernel of the (n|m) labels' coincidence columns on the sets with c <= 1,
    which decide vanishing by the lemma in `vanish_check`."""
    if k < 1:
        raise ValueError("coincidence vanishing needs k >= 1")
    if N < k + 1:
        raise ValueError("coincidence vanishing needs N >= k+1")
    labels = enumerate_sparts(n, m, N)
    return len(labels) - rank_of(
        list(_coincidence_columns(labels, k + 1, m, N, 1).values()))


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

def _block_sets(size: int, m: int, N: int):
    """One set of `size` indices per count c from 1..m: 1..c, m+1..m+size-c.
    g symmetric in x_1..x_m and in x_{m+1}..x_N dies on a class iff on it."""
    for c in range(max(0, size + m - N), min(size, m) + 1):
        yield tuple(range(1, c + 1)) + tuple(range(m + 1, m + 1 + size - c))


def _coincidence_columns(labels, size: int, m: int, N: int, cmax: int) -> dict:
    """Per label O of fermionic degree m, the terms of prescribed_monomial(O)
    with each block set S of `size` indices, at most cmax of them in 1..m,
    merged into x_min(S), keyed by (S, term).  g = sum c_O g_O dies on each
    such set iff sum c_O times these columns is zero."""
    sets = [S for S in _block_sets(size, m, N)
            if sum(i <= m for i in S) <= cmax]
    return {om: {(S, key): c for S in sets for key, c in
                 prescribed_monomial(om, N).merge_x(S[1:], S[0]).terms.items()}
            for om in labels}


def _vanishes(L: SuperPartition, k: int, r: int, N: int, cmax: int) -> bool:
    """Does g = prescribed_part(P_L(a0), m) = sum c_O prescribed_monomial(O)
    die on each block set of k+1 indices with at most cmax in 1..m?"""
    if N < k + 1:
        raise ValueError("coincidence vanishing needs N >= k+1")
    coords = jack_at(L, N, alpha_kr(k, r)).coeffs
    return not combine(coords, _coincidence_columns(coords, k + 1, L.m, N,
                                                    cmax))


def vanish_check(L: SuperPartition, k: int, r: int, N: int) -> bool:
    """Does the specialized polynomial die when k+1 variables coincide?

    P is symmetric, so its theta_T part is +-sigma(V*g), g its prescribed
    part, V the Vandermonde of x_1..x_m and sigma(1..m) = T; sigma^-1 moves
    the coinciding set anywhere.  So P dies iff V*g dies on every (k+1)-set.
    V dies when two indices lie in 1..m; else V is a nonzero factor, and
    Q[x] is a domain.  So P dies iff g does on the sets with c <= 1."""
    return _vanishes(L, k, r, N, 1)


def prescribed_vanish_check(L: SuperPartition, k: int, r: int, N: int) -> bool:
    """Vandermonde-stripped variant, every set of k+1 coinciding variables."""
    return _vanishes(L, k, r, N, k + 1)


@dataclass
class ClusterResult:
    multiplicity: Optional[int]  # None when the substitution kills everything
    a: int
    expected: int  # r - a

    @property
    def matches(self) -> bool:
        return self.multiplicity == self.expected


def cluster_multiplicity(L: SuperPartition, k: int, r: int, N: int,
                         cluster: Sequence[int], primed: int) -> ClusterResult:
    """Order of vanishing in (x - x') with the cluster merged to x' + t."""
    cluster = tuple(cluster)
    if primed in cluster or len(set(cluster)) != len(cluster):
        raise ValueError("cluster indices must be distinct and avoid primed")
    if not all(1 <= i <= N for i in cluster + (primed,)):
        raise ValueError(f"cluster and primed indices must lie in 1..{N}")
    if len(cluster) != k:
        raise ValueError(f"the cluster must hold exactly k = {k} indices")
    coords = jack_at(L, N, alpha_kr(k, r)).coeffs
    xprime = SuperPolynomial.x(N + 1, N + 2)
    shifted = xprime + SuperPolynomial.x(N + 2, N + 2)
    assignments = {c: shifted for c in cluster} | {primed: xprime}
    img = combine(coords, {
        om: prescribed_monomial(om, N).extend(N + 2).subs_x(assignments).terms
        for om in coords})
    a = sum(1 for i in cluster + (primed,) if i <= L.m)
    return ClusterResult(min((e[N + 1] for _, e in img), default=None),
                         a, r - a)


# ---------------------------------------------------------------------------
# cochain structure
# ---------------------------------------------------------------------------

def cochain_check(k: int, r: int, N: int, nmax: int, d: str = "q") -> dict:
    """d-stability, d*d = 0 and kernel/image rank bookkeeping on the span,
    all read in m-coordinates through the columns of d."""
    if d not in ("q", "q_tilde"):
        raise ValueError("d must be 'q' or 'q_tilde'")
    op = operator(d)
    dn, dm = OPERATORS[d].shift
    basis = ideal_basis(k, r, N, nmax)
    a0 = alpha_kr(k, r)
    image = column_images(N)

    def act(f):
        return op(f, a0)

    failures = []
    ranks = {}
    for (n, m), b in sorted(basis.items()):
        entries = b.columns
        images = [image(d, act, coords) for coords in entries.values()]
        target = basis.get((n + dn, m + dm))
        if target is None and any(images):
            target = degree_basis(k, r, N, n + dn, m + dm)
        for label, img in zip(entries, images):
            if image(d, act, img):
                failures.append(("d.d != 0", str(label), (n, m)))
            if not img:
                continue
            try:
                membership(img, target)
            except NotInSpan:
                failures.append(("image outside span", str(label), (n, m)))
        dim_here = len(entries)
        # the m_O are linearly independent, so m-coordinates give the rank
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
    """Inequivalent (cluster, primed) choices by block symmetry: each
    block-class cluster, primed the next free index of either block."""
    for cluster in _block_sets(k, m, N):
        c = sum(i <= m for i in cluster)
        if c < m:
            yield cluster, c + 1
        if m + k - c < N:
            yield cluster, m + k - c + 1


def harness_clustering(k: int, r: int, N: int, nmax: int) -> dict:
    """Sweep the multiplicity over admissible labels and log exceptions."""
    rows = []
    for L in [L for L in enumerate_admissible(k, r, N, nmax) if L.m]:
        for cluster, primed in _representative_clusters(k, L.m, N):
            res = cluster_multiplicity(L, k, r, N, cluster, primed)
            if res.multiplicity is None:
                rows.append({"label": str(L), "cluster": cluster,
                             "primed": primed, "s": None, "expected": None,
                             "zero": True, "exception": False})
                continue
            rows.append({
                "label": str(L), "cluster": cluster, "primed": primed,
                "s": res.multiplicity, "expected": res.expected,
                "zero": False,
                "exception": res.multiplicity != res.expected,
                "divides": res.multiplicity >= res.expected,
                "within_bounds": N >= k + L.m + 1 and r > L.m > 0,
            })
    exceptions = [row for row in rows if row.get("exception")]
    bad = [row for row in exceptions if row.get("within_bounds")]
    return {"k": k, "r": r, "N": N, "nmax": nmax, "rows": rows,
            "exceptions": exceptions, "exceptions_in_bounds": bad}
