"""Helpers that only the tests use: the composition side of the
non-symmetric construction, the Vandermonde product, the swap of two
commuting variables, the coefficient of a power of one of them, the Euclid
gcd and exact division of Z[a] run over Q with Fraction coefficients,
dense Gauss-Jordan solves over Q or Q(a), the power-sum expansion among
them, the stability, cochain, Pieri and coincidence-vanishing checks, the
all-ones evaluation and the cluster orders on expanded polynomials, the
diagonal action of one permutation, the Sekiguchi eigenrelations read
on the whole polynomial, the D and Delta rows of a whole family, read
from the per-label rows or built in all N variables, and the orbit kernels
the fast ones replaced: the relabel one permutation at a time, D and
Delta built by relabeling their (1, 2) image to every pair, the
term-by-term canonical scan, the orbit over every distinct arrangement and
the two-partition dominance."""

import math
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import Sequence

from superjack import ideals, jack, ops
from superjack.coeffring import (ALPHA, ONE, AlphaPolynomial, AlphaRational,
                                 FieldMatrix, NoSolution, SolutionSpace,
                                 UniqueSolution)
from superjack.ops import (OPERATORS, L_op, apply_D, apply_Delta, operator,
                           sekiguchi_S, sekiguchi_S_tilde,
                           ulist_equals_scalar_multiple)
from superjack.spart import (SuperPartition, dominance_leq, enumerate_sparts,
                             epsilon_u, n_mult, star_pair)
from superjack.superpoly import (SuperPolynomial, combine, ferm_power,
                                 from_mbasis, monomial_msym, p_label,
                                 permute_into, power_sum, prescribed_part,
                                 to_mbasis, unique_arrangements)


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


def act_Ksigma(f: SuperPolynomial, sigma: Sequence[int]) -> SuperPolynomial:
    """Diagonal action K_sigma on x and theta together."""
    out: dict = {}
    permute_into(out, f.terms, [sigma])
    return SuperPolynomial(f.N, out)


def swap_K(f: SuperPolynomial, i: int, j: int) -> SuperPolynomial:
    """Exchange the commuting variables x_i and x_j only."""
    out = {}
    for (T, e), c in f.terms.items():
        e2 = list(e)
        e2[i - 1], e2[j - 1] = e[j - 1], e[i - 1]
        out[(T, tuple(e2))] = c
    return SuperPolynomial(f.N, out)


def sekiguchi_verdicts_whole(P: SuperPolynomial, L: SuperPartition, N: int,
                             alpha) -> tuple[bool, bool]:
    """(S, S_tilde) eigenrelation verdicts for P, each compared on the whole
    polynomial; takes any theta-homogeneous P, symmetric or not."""
    circ, star = star_pair(L, N)
    return (ulist_equals_scalar_multiple(sekiguchi_S(P, alpha),
                                         epsilon_u(star, N, alpha), P),
            ulist_equals_scalar_multiple(sekiguchi_S_tilde(P, alpha),
                                         epsilon_u(circ, N, alpha), P))


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


def _in_span(f: SuperPolynomial, basis) -> bool:
    """The expanded route into `ideals.membership`: a non-symmetric f is
    outside the span, a symmetric one is read in m-coordinates."""
    if not f.is_symmetric():
        return False
    try:
        ideals.membership(to_mbasis(f, verify=False), basis)
    except ideals.NotInSpan:
        return False
    return True


def stability_suite_expanded(k: int, r: int, N: int, nmax: int) -> dict:
    """`ideals.stability_suite` on expanded polynomials: each P_L is expanded
    into orbit terms, each action is applied to the whole polynomial, and
    every image is symmetry-checked and read back with `to_mbasis`."""
    a0 = ideals.alpha_kr(k, r)
    basis = ideals.ideal_basis(k, r, N, nmax)
    spans = {(N, n, m): b for (n, m), b in basis.items()}

    def span(Nv, n, m):
        if (Nv, n, m) not in spans:
            spans[Nv, n, m] = ideals.degree_basis(k, r, Nv, n, m)
        return spans[Nv, n, m]

    def generator(name):
        op = operator(name)
        return name, lambda f: op(f, a0), OPERATORS[name].shift

    actions = [
        ("p0*", lambda f: ferm_power(0, N) * f, (0, 1)),
        *map(generator, ("q", "q_perp", "Q", "Q_perp")),
        ("p1*", lambda f: power_sum(1, N) * f, (1, 0)),
        ("p2*", lambda f: power_sum(2, N) * f, (2, 0)),
        ("L_-2", lambda f: L_op(-2, f), (2, 0)),
    ]
    polys = {degree: [(label, from_mbasis(coords, N))
                      for label, coords in b.columns.items()]
             for degree, b in basis.items()}
    violations = []
    checked = 0
    for (n, m), entries in sorted(polys.items()):
        for label, poly in entries:
            for name, act, (dn, dm) in actions:
                img = act(poly)
                checked += 1
                if img and not _in_span(img, span(N, n + dn, m + dm)):
                    violations.append((name, str(label), (n, m)))
    for (n, m), entries in sorted(polys.items()):
        for label, poly in entries:
            work = poly
            top = max((e[N - 1] for _, e in poly.terms), default=0)
            for j in range(top + 1):
                body, slope = work.restrict_last()
                for piece, pm in ((body, m), (slope, m - 1)):
                    checked += 1
                    if piece and not _in_span(piece, span(N - 1, n - j, pm)):
                        violations.append((f"restrict d^{j}", str(label),
                                           (n, m)))
                work = work.diff_x(N)
    return {"k": k, "r": r, "N": N, "nmax": nmax,
            "checked": checked, "violations": violations}


def cochain_check_expanded(k: int, r: int, N: int, nmax: int,
                           d: str = "q") -> dict:
    """`ideals.cochain_check` on expanded polynomials, ranks in expanded-term
    coordinates."""
    act = operator(d)
    dn, dm = OPERATORS[d].shift
    basis = ideals.ideal_basis(k, r, N, nmax)
    a0 = ideals.alpha_kr(k, r)
    failures = []
    ranks = {}
    for (n, m), b in sorted(basis.items()):
        entries = b.columns
        images = [act(from_mbasis(coords, N), a0)
                  for coords in entries.values()]
        target = basis.get((n + dn, m + dm))
        if target is None and any(images):
            target = ideals.degree_basis(k, r, N, n + dn, m + dm)
        for label, img in zip(entries, images):
            if act(img, a0):
                failures.append(("d.d != 0", str(label), (n, m)))
            if img and not _in_span(img, target):
                failures.append(("image outside span", str(label), (n, m)))
        rk = ideals.rank_of([f.terms for f in images])
        ranks[(n, m)] = {"dim": len(entries), "rank_d": rk,
                         "ker_d": len(entries) - rk}
    exactness = []
    for (n, m), data in sorted(ranks.items()):
        src = (n - dn, m - dm)
        if m == 0 or src[0] > nmax:
            continue
        im_prev = ranks.get(src, {}).get("rank_d", 0)
        exactness.append({"degree": (n, m), "ker": data["ker_d"],
                          "im": im_prev, "exact": data["ker_d"] == im_prev})
    return {"failures": failures, "ranks": ranks, "exactness": exactness}


def pieri_check_expanded(kind: str, L: SuperPartition, N: int) -> bool:
    """`jack.pieri_check` on the expanded P_L: the operator is applied to
    the whole polynomial over Q(a) and the image read back with
    `to_mbasis`."""
    closed = jack.pieri_closed(kind, L, N)
    P = jack.jack_poly(L, N)
    if kind == "p0":
        g = ferm_power(0, N) * P
    else:
        g = operator(kind.replace("perp", "_perp"))(P, ALPHA)
    columns = {om: jack.jack_symbolic(om, N).coeffs for om in closed}
    return to_mbasis(g, verify=False) == combine(closed, columns)


def evaluation_expanded(L: SuperPartition, N: int) -> AlphaRational:
    """`jack.evaluation_direct` on the expanded P over Q(a): its prescribed
    part set to 1 in every commuting variable."""
    return prescribed_part(jack.jack_poly(L, N), L.m).eval_ones() * ONE


def _expanded_at(L: SuperPartition, k: int, r: int, N: int) -> SuperPolynomial:
    """P_L(a0) in N variables, every orbit term written out; a0 is read
    through `ideals.alpha_kr`, so a test can move it."""
    return jack.jack_at(L, N, ideals.alpha_kr(k, r)).polynomial()


def vanish_check_expanded(L: SuperPartition, k: int, r: int, N: int) -> bool:
    """`ideals.vanish_check` on the expanded P: x_2..x_{k+1} merged into x_1."""
    return _expanded_at(L, k, r, N).merge_x(range(1, k + 2), 1).is_zero()


def prescribed_vanish_check_expanded(L: SuperPartition, k: int, r: int,
                                     N: int) -> bool:
    """`ideals.prescribed_vanish_check` on the expanded P: the prescribed
    part merged on every one of the C(N, k+1) index sets."""
    g = prescribed_part(_expanded_at(L, k, r, N), L.m)
    return all(g.merge_x(S[1:], S[0]).is_zero()
               for S in combinations(range(1, N + 1), k + 1))


def cluster_order_expanded(L: SuperPartition, k: int, r: int, N: int,
                           cluster: Sequence[int], primed: int):
    """The multiplicity of `ideals.cluster_multiplicity` on the expanded P:
    the x_{N+2}-valuation of its prescribed part with the cluster set to
    x_{N+1} + x_{N+2} and x_primed to x_{N+1}; None when that is zero."""
    g = prescribed_part(_expanded_at(L, k, r, N), L.m).extend(N + 2)
    xprime = SuperPolynomial.x(N + 1, N + 2)
    shifted = xprime + SuperPolynomial.x(N + 2, N + 2)
    img = g.subs_x({**{c: shifted for c in cluster}, primed: xprime})
    return min((e[N + 1] for _, e in img.terms), default=None)


def family_rows(n: int, m: int, N: int):
    """The family's labels and its D and Delta rows in N variables,
    {label: {label: entry}}, each row read from `jack._label_rows` through
    the reader the peel uses."""
    labels = enumerate_sparts(n, m, N)
    return (labels, *jack._rows(labels, N))


def mbasis_matrices_full(n: int, m: int, N: int):
    """`family_rows` with every row built in all N variables:
    to_mbasis(apply_D(m_O(N))) and the same for Delta, checked triangular."""
    labels = enumerate_sparts(n, m, N)
    alpha = AlphaPolynomial.gen()
    d_rows = {}
    delta_rows = {}
    for om in labels:
        mono = monomial_msym(om, N)
        d_rows[om] = to_mbasis(apply_D(mono, alpha), verify=False)
        delta_rows[om] = to_mbasis(apply_Delta(mono, alpha), verify=False)
        assert all(dominance_leq(gm, om)
                   for gm in set(d_rows[om]) | set(delta_rows[om])), str(om)
    return labels, d_rows, delta_rows


# ---------------------------------------------------------------------------
# the orbit kernels the fast ones replaced
# ---------------------------------------------------------------------------

def _parity_sign(seq) -> int:
    """(-1) to the number of inversions of seq, counted pair by pair."""
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def permute_into_each(out: dict, terms: dict, sigmas) -> None:
    """`superpoly.permute_into` one permutation at a time: per sigma, the
    exponent tuples pulled through sigma^-1, each theta tuple mapped,
    re-sorted and signed once."""
    for sigma in sigmas:
        where = [0] * len(sigma)
        for i, s in enumerate(sigma):
            where[s - 1] = i
        pull = itemgetter(*where) if len(where) > 1 else tuple
        thetas: dict = {}
        for (T, e), c in terms.items():
            if not c:
                continue
            hit = thetas.get(T)
            if hit is None:
                mapped = [sigma[t - 1] for t in T]
                hit = thetas[T] = (tuple(sorted(mapped)), _parity_sign(mapped))
            T2, sign = hit
            if sign < 0:
                c = -c
            key = (T2, pull(e))
            out[key] = out[key] + c if key in out else c


def _relabel(img: dict, f: SuperPolynomial, weight, alpha) -> SuperPolynomial:
    """The (1, 2) exchange image of a symmetric f relabeled to every pair
    i < j one permutation at a time, sigma = (i, j, rest increasing), then
    alpha * weight(T, e) * c added at the key of each term c of f, zeros
    dropped."""
    N = f.N
    out: dict = {}
    permute_into_each(out, img, [
        (i, j) + tuple(k for k in range(1, N + 1) if k not in (i, j))
        for i, j in combinations(range(1, N + 1), 2)])
    for key, c in f.terms.items():
        w = weight(*key)
        if w:
            v = c * w * alpha
            out[key] = out[key] + v if key in out else v
    return SuperPolynomial(N, {key: c for key, c in out.items() if c})


def _relabeled(name: str, weight):
    """`ops.<name>` with its orbit write (`ops._symmetric_image`) swapped for
    `_relabel` under the per-term diagonal weight: the same (1, 2) image,
    carried to every pair term by term."""
    def apply(f: SuperPolynomial, alpha) -> SuperPolynomial:
        orbit = ops._symmetric_image
        ops._symmetric_image = lambda img, g, _, a: _relabel(img, g, weight, a)
        try:
            return getattr(ops, name)(f, alpha)
        finally:
            ops._symmetric_image = orbit
    return apply


apply_D_relabel = _relabeled(
    "apply_D", lambda T, e: sum(k * (k - 1) for k in e) // 2)
apply_Delta_relabel = _relabeled(
    "apply_Delta", lambda T, e: sum(e[t - 1] for t in T))


def to_mbasis_scan(f: SuperPolynomial) -> dict:
    """`superpoly.to_mbasis` without the symmetry check, term by term: the
    theta tuple compared with (1..m), the head and the tail with their
    neighbours."""
    out = {}
    for (T, e), c in f.terms.items():
        mdeg = len(T)
        if T != tuple(range(1, mdeg + 1)):
            continue
        head, tail = e[:mdeg], e[mdeg:]
        if any(head[i] <= head[i + 1] for i in range(mdeg - 1)):
            continue
        if any(tail[i] < tail[i + 1] for i in range(len(tail) - 1)):
            continue
        out[SuperPartition(head, tuple(p for p in tail if p))] = c
    return out


def monomial_msym_orbit(L: SuperPartition, N: int) -> SuperPolynomial:
    """`superpoly.monomial_msym` over every distinct arrangement of the
    marked parts: each fermionic part's slot ranked by its size gives the
    sign."""
    slots = ([(a, 1) for a in L.antisym] + [(s, 0) for s in L.sym]
             + [(0, 0)] * (N - L.length))
    out = SuperPolynomial(N)
    for arr in unique_arrangements(slots):
        positions = [p + 1 for p, (_, kind) in enumerate(arr) if kind == 1]
        ranked = sorted(positions, key=lambda p: -arr[p - 1][0])
        out.terms[(tuple(positions), tuple(v for v, _ in arr))] = \
            _parity_sign(ranked)
    return out


def partition_dominates(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """True iff lam >= mu in dominance order (equal total weight assumed)."""
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def dominance_leq_shapes(O: SuperPartition, L: SuperPartition) -> bool:
    """`spart.dominance_leq` on the sorted shapes, padded pair by pair."""
    if O.degree() != L.degree():
        return False
    return (partition_dominates(L.star, O.star)
            and partition_dominates(L.circled, O.circled))
