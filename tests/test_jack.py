import importlib
import itertools
import pkgutil
from fractions import Fraction
from math import gcd
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

import superjack
from superjack import jack, superpoly
from superjack.ideals import vanish_check
from superjack.coeffring import (ALPHA, ONE, AlphaPolynomial, AlphaRational,
                                 FieldMatrix, PoleError, UniqueSolution,
                                 parse_alpha, poly_divexact)
from superjack.jack import (DegenerateSystem, JackExpansion, eigen_check,
                            jack_at, jack_poly, jack_symbolic,
                            duality_check, evaluation_direct,
                            evaluation_formula, integral_form, norm_gram,
                            norm_hook, pieri_check, pieri_closed,
                            PIERI_KINDS)
from superjack.ops import (apply_D, apply_Delta, cherednik, operator,
                           sekiguchi_S)
from superjack.spart import (SuperPartition, conjugate, e_star_poly, e_tilde_poly,
                             enumerate_all_m, enumerate_sparts, epsilon_u,
                             dominance_leq, fermionic_range, parse_spart,
                             star_pair, v_poly)
from superjack.suites import _labels, suite_pieri
from superjack.superpoly import (SuperPolynomial, column_images, ferm_power,
                                 integral_multiple, monomial_msym, p_label,
                                 to_mbasis, to_pbasis)
from oracles import (act_Ksigma, coefficient_xpower, dense_solve_exact,
                     eta_bar, evaluation_expanded, f_stat, family_rows,
                     mbasis_matrices_full, partition_dominates,
                     pieri_check_expanded, tilde_composition, vandermonde)

a = ALPHA


def test_p3_expansion():
    """The display of the lowest nontrivial expansion.

    The printed source carries a stray deformation factor on the middle
    coefficient; the value below is pinned by three independent routes
    (eigenproblem, non-symmetric symmetrization, integral-form positivity).
    """
    J = jack_symbolic(parse_spart(";3"), 3)
    assert J.coeffs[parse_spart(";3")] == ONE
    assert J.coeffs[parse_spart(";2,1")] == parse_alpha("3/(2*a+1)")
    assert J.coeffs[parse_spart(";1,1,1")] == parse_alpha("6/((a+1)*(2*a+1))")


def test_p3_integral_form_positivity_pins_middle_coefficient():
    # v * P must have natural coefficients; with the stray factor it would not
    J, natural = integral_form(parse_spart(";3"), 3)
    assert natural
    v = AlphaRational(v_poly(parse_spart(";3")))
    assert v == parse_alpha("(1+a)*(1+2*a)")
    middle = J.coeffs[parse_spart(";2,1")]
    assert middle == parse_alpha("3*(1+a)")
    wrong = parse_alpha("3/(a*(2*a+1))") * v
    assert not wrong.is_polynomial()


def test_minimal_label_is_monomial():
    J = jack_symbolic(parse_spart("1,0;"), 4)
    assert J.coeffs == {parse_spart("1,0;"): ONE}


def test_triangularity_and_monicity():
    for n in range(5):
        for L in enumerate_all_m(n, 3):
            J = jack_symbolic(L, 3)
            assert J.coeffs[L] == ONE
            for om in J.coeffs:
                assert dominance_leq(om, L)


def test_eigen_relations():
    for n in range(5):
        for L in enumerate_all_m(n, 3):
            P = jack_poly(L, 3)
            e = AlphaRational(e_star_poly(L))
            et = AlphaRational(e_tilde_poly(L))
            assert apply_D(P, a) == P.scale(e), str(L)
            assert apply_Delta(P, a) == P.scale(et), str(L)


def test_jack_at_squared_vandermonde():
    P = jack_at(parse_spart(";4,2"), 3, Fraction(-2)).polynomial()
    V = vandermonde(3, 3)
    assert P == V * V


def test_jack_at_pole():
    with pytest.raises(PoleError) as info:
        jack_at(parse_spart(";3"), 3, Fraction(-1))
    assert info.value.offending == parse_spart(";1,1,1")


@pytest.mark.parametrize("a0", [Fraction(-2), Fraction(-1, 2), Fraction(3, 2),
                                Fraction(-1)], ids=str)
def test_coeffs_at_matches_orbit_round_trip(a0):
    # the specialized coordinates against the expanded polynomial read back
    poles = 0
    for N in range(1, 5):
        for n in range(5):
            for L in enumerate_all_m(n, N):
                expansion = jack_symbolic(L, N)
                try:
                    got = expansion.coeffs_at(a0)
                except PoleError as exc:
                    with pytest.raises(PoleError) as info:
                        to_mbasis(expansion.at(a0))
                    assert info.value.offending == exc.offending, str(L)
                    poles += 1
                    continue
                assert got == to_mbasis(expansion.at(a0)), str(L)
                assert all(got.values())
    assert (poles > 0) == (a0 < 0), poles


def test_admissible_regularity_sample():
    from superjack.spart import is_admissible
    for k, r, N in [(1, 2, 3), (2, 3, 3)]:
        a0 = Fraction(-(k + 1), r - 1)
        for n in range(7):
            for L in enumerate_all_m(n, N):
                if is_admissible(L, k, r, N):
                    jack_at(L, N, a0)  # must not raise


def test_norm_routes_agree():
    for n in range(5):
        m = 0
        while m * (m - 1) // 2 <= n and m <= 2:
            for L in enumerate_sparts(n, m, max(n + m, 1)):
                assert norm_hook(L) == norm_gram(L, max(n + m, 1)), str(L)
            m += 1


def test_norm_examples():
    assert norm_hook(parse_spart(";1")) == a
    assert norm_hook(parse_spart(";2")) == parse_alpha("2*a^2/(1+a)")
    # purely fermionic labels carry only the prefactor
    assert norm_hook(parse_spart("0;")) == a
    assert norm_hook(parse_spart("1,0;")) == a * a


def test_evaluation_examples():
    assert evaluation_formula(parse_spart(";1"), 3) == AlphaRational(3)
    assert evaluation_direct(parse_spart(";1"), 3) == AlphaRational(3)
    # classical one-row case: both routes agree symbolically
    L = parse_spart(";2")
    f1, f2 = evaluation_formula(L, 2), evaluation_direct(L, 2)
    assert f1 == f2
    # mixed label
    L = parse_spart("1,0;1")
    assert evaluation_formula(L, 3) == evaluation_direct(L, 3) == ONE


def test_evaluation_matches_the_expanded_route():
    # criterion 6's grid: the prescribed-monomial sum against prescribed_part
    # of the whole expanded P
    pairs = [(L, N) for N in range(1, 6) for n in range(6)
             for L in enumerate_all_m(n, N)]
    assert len(pairs) == 330
    for L, N in pairs:
        assert evaluation_direct(L, N) == evaluation_expanded(L, N), (str(L), N)


def test_evaluation_m0_classical_product():
    # product formula over cells for an ordinary partition
    L = parse_spart(";2")
    N = 2
    lam = (2,)
    num = ONE
    den = ONE
    from superjack.spart import conjugate_partition
    conj = conjugate_partition(lam)
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            num = num * (AlphaRational(N - (i - 1)) + a * (j - 1))
            den = den * (AlphaRational(conj[j - 1] - (i - 1))
                         + a * (lam[i - 1] - j))
    assert evaluation_formula(L, N) == num / den


def test_duality():
    for s in [";1", "0;", ";2", "1,0;", "0;1", ";2,1"]:
        L = parse_spart(s)
        n, m = L.degree()
        assert duality_check(L, max(n + m, 1)), s


def _omega_expanded(f, alpha):
    """Oracle: omega_alpha on a whole polynomial, scaling each p_Lambda."""
    out = SuperPolynomial(f.N)
    for P, c in to_pbasis(to_mbasis(f), f.N).items():
        scalar = alpha ** P.length
        flips = sum(a for a in P.antisym) + sum(s - 1 for s in P.sym)
        if flips % 2:
            scalar = -scalar
        out += p_label(P, f.N).scale(c * scalar)
    return out


def _duality_expanded(L, N):
    """Oracle: the duality identity between expanded orbit polynomials."""
    n, m = L.degree()
    if N < n + m:
        raise ValueError(f"need N >= {n + m} for the duality check")
    lhs = _omega_expanded(jack_poly(L, N), ALPHA)
    rhs = SuperPolynomial(N)
    for om, c in jack_symbolic(conjugate(L), N).coeffs.items():
        rhs += monomial_msym(om, N).scale(c.subs_inverse())
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return lhs == rhs.scale(jack.norm_hook(L) * sign)


# every label of suite_duality(3): n <= 3 at the faithful N = n + m
_DUALITY_POOL = [(L, max(n + m, 1)) for n in range(4)
                 for m in fermionic_range(n, n + 1)
                 for L in enumerate_sparts(n, m, n + m if n + m else 1)]


def test_duality_matches_expanded_oracle():
    assert len(_DUALITY_POOL) == 30
    for L, N in _DUALITY_POOL:
        assert duality_check(L, N) is _duality_expanded(L, N) is True, str(L)
    with pytest.raises(ValueError):
        duality_check(parse_spart("1;1"), 2)


def test_duality_mutant_norm_fails_on_both_routes(monkeypatch):
    hook = jack.norm_hook
    monkeypatch.setattr(jack, "norm_hook",
                        lambda L, alpha=None: hook(L) * (a + 1) / (a + 2))
    for L, N in _DUALITY_POOL[:10]:
        assert not duality_check(L, N), str(L)
        assert not _duality_expanded(L, N), str(L)


def test_pieri_worked_example():
    cl = pieri_closed("p0", parse_spart("1;2,2"), 4)
    assert cl[parse_spart("2,1;2")] == ONE
    want = parse_alpha("-(2+2*a)*(1+2*a)*a/((3+2*a)*(2+2*a)*(1+a))")
    assert cl[parse_spart("1,0;2,2")] == want
    assert pieri_check("p0", parse_spart("1;2,2"), 4, column_images(4))


def test_pieri_no_circles_to_remove():
    # no removable circle: the closed map is empty and the operator kills P
    assert pieri_closed("Qperp", parse_spart(";1"), 3) == {}
    image = column_images(3)
    assert pieri_check("Qperp", parse_spart(";1"), 3, image) is True
    assert _pieri_direct("Qperp", parse_spart(";1"), 3) == {}
    with pytest.raises(ValueError):
        pieri_check("E", parse_spart(";1"), 3, image)


def test_pieri_qperp_on_lone_circle():
    cl = pieri_closed("qperp", parse_spart("0;"), 2)
    assert cl == {parse_spart(";1"): ONE}
    assert pieri_check("qperp", parse_spart("0;"), 2, column_images(2))


_PIERI_SMALL = [("0;", 2), (";2", 3), ("1;1", 3), ("1,0;", 3), ("0;2", 3)]


def test_pieri_all_kinds_small():
    images = {N: column_images(N) for N in (2, 3)}
    for s, N in _PIERI_SMALL:
        for kind in PIERI_KINDS:
            assert pieri_check(kind, parse_spart(s), N, images[N]), (kind, s)


def _jack_expand(f, N):
    """Oracle: a symmetric superpolynomial in the Jack basis, by a peel that
    subtracts the m-expansion of each leading Jack superpolynomial."""
    residual = to_mbasis(f, verify=False)
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


def _pieri_direct(kind, L, N):
    """Oracle: the operator's image of P_L re-expanded in the Jack basis."""
    if kind not in PIERI_KINDS:
        raise ValueError(f"unknown Pieri kind {kind!r}")
    P = jack_poly(L, N)
    if kind == "p0":
        g = ferm_power(0, N) * P
    else:
        g = operator(kind.replace("perp", "_perp"))(P, ALPHA)
    return _jack_expand(g, N)


def _pieri_expanded_check(kind, L, N):
    closed = jack.pieri_closed(kind, L, N)
    direct = _pieri_direct(kind, L, N)
    return all(closed.get(k, AlphaRational(0)) == direct.get(k, AlphaRational(0))
               for k in set(closed) | set(direct))


# every (kind, label, N) that suite_pieri(4, N, 2) checks for N in 2..4
_PIERI_POOL = [(kind, L, N) for N in (2, 3, 4) for L in _labels(4, N, 2)
               for kind in PIERI_KINDS]


def test_pieri_matches_expanded_oracle():
    # the column route against the operator applied to the expanded P_L,
    # and against the image re-expanded in the Jack basis
    assert len(_PIERI_POOL) == 645
    images = {N: column_images(N) for N in (2, 3, 4)}
    for kind, L, N in _PIERI_POOL:
        assert pieri_check(kind, L, N, images[N]) \
            is pieri_check_expanded(kind, L, N) \
            is _pieri_expanded_check(kind, L, N) is True, (kind, str(L), N)


def _lowest_scaled(closed):
    low = min(closed, key=lambda S: S.sort_key())
    return {**closed, low: closed[low] * (a + 1) / (a + 2)}


def _first_dropped(closed):
    return dict(list(closed.items())[1:])


@pytest.mark.parametrize("mutate", [_lowest_scaled, _first_dropped])
def test_pieri_mutant_fails_on_both_routes(monkeypatch, mutate):
    closed_map = jack.pieri_closed
    monkeypatch.setattr(jack, "pieri_closed",
                        lambda kind, L, N: mutate(closed_map(kind, L, N)))
    mutants = 0
    images = {N: column_images(N) for N in (2, 3)}
    for s, N in _PIERI_SMALL:
        L = parse_spart(s)
        for kind in PIERI_KINDS:
            if not closed_map(kind, L, N):
                continue
            assert not pieri_check(kind, L, N, images[N]), (kind, s)
            assert not pieri_check_expanded(kind, L, N), (kind, s)
            assert not _pieri_expanded_check(kind, L, N), (kind, s)
            mutants += 1
    assert mutants > 15


def test_pieri_builds_each_column_once(monkeypatch):
    # one suite call: each (kind, O) column is symmetry-checked and read
    # once, m_O is built once per O, and no P_L is expanded into terms
    checked, read, monomials, used = [], [], [], {}
    is_symmetric = SuperPolynomial.is_symmetric
    to_mbasis_real, combine_real = superpoly.to_mbasis, superpoly.combine
    monomial_real = superpoly.monomial_msym

    def check(f):
        checked.append(f)
        return is_symmetric(f)

    def reading(f, verify=True):
        assert not verify
        read.append(f)
        return to_mbasis_real(f, verify=verify)

    def building(om, N):
        monomials.append((om, N))
        return monomial_real(om, N)

    def combining(coords, columns):
        used.setdefault(id(columns), set()).update(coords)
        return combine_real(coords, columns)

    def expanding(*args):
        raise AssertionError("a Jack superpolynomial was expanded")

    monkeypatch.setattr(SuperPolynomial, "is_symmetric", check)
    monkeypatch.setattr(superpoly, "to_mbasis", reading)
    monkeypatch.setattr(superpoly, "monomial_msym", building)
    monkeypatch.setattr(superpoly, "combine", combining)
    for module in (jack, superpoly):
        monkeypatch.setattr(module, "from_mbasis", expanding)
    monkeypatch.setattr(jack, "jack_poly", expanding)
    assert suite_pieri(4, 3, 2) == (True, {"checked": 230, "failures": []})
    assert len(used) == len(PIERI_KINDS)
    # the polynomials checked are exactly the columns read, in order
    assert len(checked) == len(read) == sum(map(len, used.values()))
    assert all(f is g for f, g in zip(checked, read))
    assert len(monomials) == len(set(monomials))
    assert {om for om, _ in monomials} == set().union(*used.values())


# ---------------------------------------------------------------------------
# removal/extraction factorizations, checked on small labels
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
        got = coefficient_xpower(P, 1, k0)
        reduced = SuperPartition(L.antisym, L.sym[1:])
        want = jack_poly(reduced, N - 1)
        report["row_extraction"] = _shift_vars_down(got) == want
    # fermionic row extraction: first row circled
    if L.antisym and (not L.sym or L.antisym[0] >= L.sym[0]):
        k0 = L.antisym[0]
        P = jack_poly(L, N)
        got = coefficient_xpower(P.diff_theta(1), 1, k0)
        reduced = SuperPartition(L.antisym[1:], L.sym)
        want = jack_poly(reduced, N - 1)
        report["fermionic_row_extraction"] = _shift_vars_down(got) == want
    return report


def test_removal_identities():
    rep = removal_identities(parse_spart(";1,1"))
    assert rep["column_removal"] is True
    # explicit: P_(;1,1) in two variables is x1 x2
    P = jack_poly(parse_spart(";1,1"), 2)
    assert P == SuperPolynomial.x(1, 2) * SuperPolynomial.x(2, 2)
    rep2 = removal_identities(parse_spart("0;1"))
    assert rep2["circle_removal"] is True
    rep3 = removal_identities(parse_spart(";2,1"), N=3)
    assert rep3["row_extraction"] is True
    rep4 = removal_identities(parse_spart("2;1"), N=3)
    assert rep4["fermionic_row_extraction"] is True


def test_removal_identities_scan():
    for n in range(4):
        for L in enumerate_all_m(n, 3):
            rep = removal_identities(L, N=3)
            assert all(v is not False for v in rep.values()), (str(L), rep)


def test_integral_form_scan():
    # bosonic labels are a theorem (classical positivity); labels with two or
    # more circles can pick up signs in this monomial convention, but never
    # non-polynomial coefficients
    witnesses = []
    for n in range(5):
        for L in enumerate_all_m(n, 3):
            J, natural = integral_form(L, 3)
            if L.m == 0:
                assert natural, str(L)
            for c in J.coeffs.values():
                assert c.is_polynomial(), str(L)
                signs = {k >= 0 for k in c.num.coeffs if k}
                assert len(signs) == 1, str(L)  # plus-or-minus natural
            if not natural:
                witnesses.append(L)
    assert parse_spart("2,1;") in witnesses


def _reverse_lex_compositions(eta):
    """Compositions whose sorted shape eta's dominates, in reverse-lex order."""
    shape = tuple(sorted(eta, reverse=True))
    return sorted((c for c in itertools.product(range(sum(eta) + 1),
                                                repeat=len(eta))
                   if sum(c) == sum(eta)
                   and partition_dominates(shape, sorted(c, reverse=True))),
                  reverse=True)


def _dense_nonsym(eta):
    """Oracle: all N Cherednik eigen-equations stacked into one dense solve."""
    N = len(eta)
    basis = _reverse_lex_compositions(eta)
    images = {nu: [cherednik(SuperPolynomial(N, {((), nu): ONE}), i, a)
                   for i in range(1, N + 1)] for nu in basis}
    bars = eta_bar(eta, a)
    zero = AlphaRational(0)
    unknowns = [nu for nu in basis if nu != eta]
    entries, rhs = [], []
    for i in range(N):
        for mu in basis:
            for nu in unknowns:
                v = images[nu][i].terms.get(((), mu), zero)
                entries.append(v - bars[i] if nu == mu else v)
            b = images[eta][i].terms.get(((), mu), zero)
            rhs.append(bars[i] - b if mu == eta else -b)
    res = dense_solve_exact(
        FieldMatrix(N * len(basis), len(unknowns), entries), rhs)
    assert isinstance(res, UniqueSolution), eta
    terms = {eta: ONE}
    terms.update((nu, c) for nu, c in zip(unknowns, res.vector) if c)
    return terms


def _nonsym_poly(eta):
    N = len(eta)
    return SuperPolynomial(N, {((), nu): c
                               for nu, c in _dense_nonsym(eta).items()})


def test_nonsym_trivial_and_eigen():
    assert _nonsym_poly((0, 0, 0)) == SuperPolynomial.one(3)
    assert _dense_nonsym((1, 0)) == {(1, 0): ONE,
                                     (0, 1): parse_alpha("1/(1+a)")}
    for eta in itertools.product(range(3), repeat=2):
        pol = _nonsym_poly(eta)
        bars = eta_bar(eta, a)
        for i in range(2):
            assert cherednik(pol, i + 1, a) == pol.scale(bars[i]), eta


def test_nonsym_eigen_N3():
    for eta in [(2, 1, 0), (0, 1, 2), (1, 1, 2), (3, 0, 1), (0, 2, 2)]:
        pol = _nonsym_poly(eta)
        bars = eta_bar(eta, a)
        for i in range(3):
            assert cherednik(pol, i + 1, a) == pol.scale(bars[i]), eta


def _symmetrized_from_nonsym(L, N):
    """Oracle: sign/f * sum_w K_w theta_1..theta_m E_(tilde L), with E the
    dense non-symmetric Jack polynomial."""
    m = L.m
    lead = _nonsym_poly(tilde_composition(L, N))
    for i in range(m, 0, -1):
        lead = lead.mul_theta(i)
    total = SuperPolynomial(N)
    for sigma in itertools.permutations(range(1, N + 1)):
        total += act_Ksigma(lead, list(sigma))
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return total.scale(AlphaRational(Fraction(sign, f_stat(L.sym))))


def test_cross_oracle_symmetrization():
    # the triangular solve agrees with symmetrizing a non-symmetric Jack
    for s, N in [("0;", 2), (";2", 2), ("2,0;", 3), ("1,0;1", 3)]:
        L = parse_spart(s)
        assert _symmetrized_from_nonsym(L, N) == jack_poly(L, N), s


def test_restriction_stability():
    # dropping the last variable yields zero or the same label's polynomial
    for n in range(5):
        for L in enumerate_all_m(n, 3):
            P = jack_poly(L, 3)
            body, slope = P.restrict_last()
            if L.length <= 2:
                assert body == jack_poly(L, 2), str(L)
            else:
                assert body.is_zero(), str(L)


def test_sekiguchi_triangular_on_monomials():
    # the generating series sends a monomial to its eigenvalue times itself
    # plus strictly dominance-smaller monomials
    for s, N in [(";2", 2), ("1;1", 3), (";2,1", 3)]:
        L = parse_spart(s)
        mono = monomial_msym(L, N)
        ul = sekiguchi_S(mono, a)
        eps = epsilon_u(star_pair(L, N)[1], N, a)
        for k, comp in enumerate(ul):
            rest = comp - mono.scale(eps[k] if k < len(eps) else 0)
            if rest.is_zero():
                continue
            for om in to_mbasis(rest, verify=False):
                assert dominance_leq(om, L) and om != L


def test_jack_expand_roundtrip():
    N = 3
    f = (jack_poly(parse_spart(";2"), N).scale(parse_alpha("a"))
         + jack_poly(parse_spart(";1,1"), N).scale(parse_alpha("1/(1+a)")))
    d = _jack_expand(f, N)
    assert d == {parse_spart(";2"): parse_alpha("a"),
                 parse_spart(";1,1"): parse_alpha("1/(1+a)")}


def test_expansion_cache_identity():
    A = jack_symbolic(parse_spart(";2,1"), 3)
    B = jack_symbolic(parse_spart(";2,1"), 3)
    assert A is B


# ---------------------------------------------------------------------------
# the gcd-free build against the Q(a) routes it replaced
# ---------------------------------------------------------------------------

_FAMILIES = [(n, m, N) for N in (3, 4) for n in range(2, 6) for m in range(3)
             if enumerate_sparts(n, m, N)]


def _two_pass_rows(mono, op):
    """Oracle: one operator row from two Fraction passes, at a=0 and a=1."""
    at0 = to_mbasis(op(mono, Fraction(0)), verify=False)
    at1 = to_mbasis(op(mono, Fraction(1)), verify=False)
    row = {}
    for gm in set(at0) | set(at1):
        c0 = Fraction(at0.get(gm, 0))
        row[gm] = c0 + (Fraction(at1.get(gm, 0)) - c0) * a
    return row


def _rational_peel(L, below, d_rows, delta_rows):
    """Oracle: the triangular peel with every step normalized in Q(a)."""
    e_l, et_l = AlphaRational(e_star_poly(L)), AlphaRational(e_tilde_poly(L))
    coeffs = {L: ONE}
    for gm in below:
        num_d = AlphaRational(0)
        num_delta = AlphaRational(0)
        for om, c in coeffs.items():
            v = d_rows[om].get(gm)
            if v is not None:
                num_d = num_d + c * v
            w = delta_rows[om].get(gm)
            if w is not None:
                num_delta = num_delta + c * w
        den_d = e_l - AlphaRational(e_star_poly(gm))
        if den_d:
            coeffs[gm] = num_d / den_d
            continue
        den_delta = et_l - AlphaRational(e_tilde_poly(gm))
        assert den_delta, (L, gm)
        coeffs[gm] = num_delta / den_delta
    return {om: c for om, c in coeffs.items() if c}


def _sym_pairs(d_rows, delta_rows):
    return [(d_rows, e_star_poly), (delta_rows, e_tilde_poly)]


def _below(L, labels):
    return [om for om in labels if om != L and dominance_leq(om, L)]


def _not_in_lowest_terms(found):
    """Labels whose factored coefficient (num, factors, d) is not canonical."""
    bad = []
    for om, (num, factors, d) in found.items():
        num = AlphaPolynomial(num)
        den = AlphaPolynomial([d * x for x in jack._product(*factors.items())])
        c = AlphaRational(num, den)
        if (c.num, c.den) != (num, den):
            bad.append(om)
    return bad


# n <= 7, with linear factors up to the fifth power in reduced denominators
_SQUARED_FAMILY = (7, 2, 4)


def _peel_faults(families):
    """The (label, N) whose factored peel differs from the Q(a) oracle or
    leaves a coefficient outside lowest terms, and the highest power of a
    linear factor in any reduced denominator."""
    faults, top = [], 0
    for n, m, N in families:
        labels, d_rows, delta_rows = family_rows(n, m, N)
        for L in labels:
            below = _below(L, labels)
            found = jack._triangular_peel(L, below,
                                          _sym_pairs(d_rows, delta_rows))
            if (jack._coefficients(found) != _rational_peel(
                    L, below, d_rows, delta_rows)
                    or _not_in_lowest_terms(found)):
                faults.append((str(L), N))
            top = max([top, *(k for _, fac, _ in found.values()
                              for k in fac.values())])
    return faults, top


def test_gcd_free_build_matches_rational_oracle():
    for n, m, N in [*_FAMILIES, _SQUARED_FAMILY]:
        labels, d_rows, delta_rows = family_rows(n, m, N)
        want_d, want_delta = {}, {}
        for om in labels:
            mono = monomial_msym(om, N)
            want_d[om] = _two_pass_rows(mono, apply_D)
            want_delta[om] = _two_pass_rows(mono, apply_Delta)
        assert d_rows == want_d, (n, m, N)
        assert delta_rows == want_delta, (n, m, N)
        for L in labels:
            assert jack_symbolic(L, N).coeffs == _rational_peel(
                L, _below(L, labels), want_d, want_delta), (str(L), N)
    assert _peel_faults(_FAMILIES)[0] == []
    faults, top = _peel_faults([_SQUARED_FAMILY])
    assert faults == [] and top >= 2


def test_rows_are_ints_and_affine_elements_of_Z_a():
    # D and Delta applied with the Z[a] generator to integral monomials; off
    # the diagonal only ints, which the peel relies on
    for n, m, N in _FAMILIES:
        labels, d_rows, delta_rows = family_rows(n, m, N)
        for rows in (d_rows, delta_rows):
            for om in labels:
                for gm, v in rows[om].items():
                    assert type(v) is int or (
                        gm == om and isinstance(v, AlphaPolynomial)
                        and v.degree() <= 1), \
                        (n, m, N, str(om), str(gm), v)


def test_off_diagonal_entry_in_Z_a_is_refused():
    L, gm = parse_spart(";2"), parse_spart(";1,1")
    rows = {L: {L: AlphaPolynomial((0, 2)), gm: a.num}}
    with pytest.raises(AssertionError, match="off-diagonal"):
        jack._triangular_peel(L, [gm], [(rows, e_star_poly)])


def test_peel_without_cancellation_is_caught(monkeypatch):
    # a mutant whose linear division never divides keeps every factor
    monkeypatch.setattr(jack, "_divide_linear", lambda num, f: None)
    caught = []
    for n, m, N in _FAMILIES:
        labels, d_rows, delta_rows = family_rows(n, m, N)
        for L in labels:
            found = jack._triangular_peel(L, _below(L, labels),
                                          _sym_pairs(d_rows, delta_rows))
            caught += _not_in_lowest_terms(found)
    assert caught


def test_root_test_without_the_scale_is_caught(monkeypatch):
    # a mutant root test reads num(-f0) in place of f1**deg * num(-f0/f1),
    # so it misjudges every factor with f1 > 1, such as 2a+1
    root_value = jack._root_value
    monkeypatch.setattr(jack, "_root_value",
                        lambda num, f0, f1: root_value(num, f0, 1))
    assert _peel_faults(_FAMILIES)[0]


def _divexact_or_none(num, f):
    try:
        return poly_divexact(AlphaPolynomial(num), AlphaPolynomial(f)).coeffs
    except ArithmeticError:
        return None


def _divide_linear_or_none(num, f):
    q = jack._divide_linear(num, f)
    return None if q is None else tuple(q)


@pytest.mark.parametrize("num, f, quotient", [
    ((3, 5, 2), (1, 1), (3, 2)),       # planted: (a+1)(2a+3)
    ((1, 0, 1), (1, 1), None),         # a^2+1 has no root -1
    ((-10, 3, 1), (-2, 1), (5, 1)),    # negative f0: (a-2)(a+5)
    ((-3, 1, 2), (3, 2), (-1, 1)),     # root -3/2, not an integer
    ((3, 1), (3, 2), None),            # a+3: num(-f0) = 0, yet 2a+3 fails
    ((), (3, 2), ()),                  # zero numerator
], ids=["planted", "no-root", "negative-f0", "rational-root",
        "unscaled-root", "zero"])
def test_divide_linear_cases(num, f, quotient):
    assert _divide_linear_or_none(num, f) == quotient
    assert _divexact_or_none(num, f) == quotient


@given(st.lists(st.integers(-30, 30), max_size=6), st.integers(-9, 9),
       st.integers(1, 9), st.booleans())
@settings(max_examples=300, deadline=None)
def test_divide_linear_matches_poly_divexact(coeffs, f0, f1, plant):
    # the peel's division by a primitive linear factor against long division
    g = gcd(f0, f1)
    f0, f1 = f0 // g, f1 // g
    num = AlphaPolynomial(coeffs)
    if plant:
        num = num * AlphaPolynomial((f0, f1))
    assert (_divide_linear_or_none(num.coeffs, (f0, f1))
            == _divexact_or_none(num.coeffs, (f0, f1)))


def test_no_comparable_labels_share_both_eigenvalues():
    # so the peel of jack_symbolic never meets DegenerateSystem on this grid
    pairs = 0
    for N in range(1, 8):
        for n in range(11):
            for m in fermionic_range(n, N):
                labels = enumerate_sparts(n, m, N)
                ev = [(e_star_poly(L), e_tilde_poly(L)) for L in labels]
                for k, L in enumerate(labels):
                    for j in range(k + 1, len(labels)):
                        if dominance_leq(labels[j], L):
                            pairs += 1
                            assert ev[j] != ev[k], (str(L), str(labels[j]))
    assert pairs == 102333


def test_equal_eigenvalue_pairs_raise(monkeypatch):
    # 1; and 0;1 share e*, so a constant e~ leaves no operator to divide by
    L = parse_spart("1;")
    assert e_star_poly(L) == e_star_poly(parse_spart("0;1"))
    jack_symbolic.cache_clear()
    monkeypatch.setattr(jack, "e_tilde_poly",
                        lambda S: AlphaPolynomial.const(0))
    with pytest.raises(DegenerateSystem, match="1; vs 0;1"):
        jack_symbolic(L, 2)
    assert jack_symbolic.cache_info().currsize == 0


# every family with n <= 6 and N <= 6, and every family at N = n+m+2, n <= 4
_ROW_GRID = sorted({(n, m, N) for N in range(1, 7) for n in range(7)
                    for m in fermionic_range(n, N)
                    if enumerate_sparts(n, m, N)}
                   | {(n, m, n + m + 2) for n in range(5)
                      for m in fermionic_range(n, n + 6)})


def test_rows_in_l_plus_one_variables_match_the_N_variable_oracle():
    shortened = 0
    for n, m, N in _ROW_GRID:
        got = family_rows(n, m, N)
        assert got == mbasis_matrices_full(n, m, N), (n, m, N)
        shortened += sum(om.length + 1 < N for om in got[0])
    assert shortened == 370


def test_D_and_Delta_commute_with_dropping_the_last_variable():
    # the body of X(m_O(N)) at x_N = theta_N = 0 is X(m_O(N-1)), or 0 when
    # m_O needs all N variables
    alpha = AlphaPolynomial.gen()
    for n, m, N in _ROW_GRID:
        if N < 2:
            continue
        for om in enumerate_sparts(n, m, N):
            for apply in (apply_D, apply_Delta):
                body, _ = apply(monomial_msym(om, N), alpha).restrict_last()
                want = (apply(monomial_msym(om, N - 1), alpha)
                        if om.length < N else SuperPolynomial(N - 1))
                assert body == want, (apply.__name__, str(om), N)


def test_rows_reach_labels_at_most_one_part_longer():
    # in n+m variables no label is cut, and the bound l(O)+1 is reached
    reached = 0
    for n in range(7):
        for m in fermionic_range(n, n + 6):
            labels, d_rows, delta_rows = mbasis_matrices_full(
                n, m, max(n + m, 1))
            for om in labels:
                for gm in set(d_rows[om]) | set(delta_rows[om]):
                    assert gm.length <= om.length + 1, (str(om), str(gm))
                    reached += gm.length == om.length + 1
    assert reached > 0


def test_jack_is_stable_in_N():
    # in fewer than n+m variables P_L is cut to labels that fit; in more it
    # is unchanged
    checked = 0
    for n in range(6):
        for m in fermionic_range(n, n + 6):
            top = n + m
            for L in enumerate_sparts(n, m, top):
                full = jack_symbolic(L, top).coeffs
                for N in range(max(L.length, 1), top + 3):
                    want = full if N >= top else {
                        om: c for om, c in full.items() if om.length <= N}
                    assert jack_symbolic(L, N).coeffs == want, (str(L), N)
                    checked += 1
    assert checked == 569


def _unbounded_caches() -> dict:
    """Every function cache without a size bound defined in a superjack
    module, by name.  A bounded one (the parser's) needs no clearing."""
    found = {}
    for info in pkgutil.iter_modules(superjack.__path__):
        module = importlib.import_module(f"superjack.{info.name}")
        for name, obj in vars(module).items():
            if (callable(getattr(obj, "cache_info", None))
                    and getattr(obj, "__module__", None) == module.__name__
                    and obj.cache_parameters()["maxsize"] is None):
                found[name] = obj
    assert found
    return found


def test_clear_caches_then_rebuild():
    labels = [parse_spart(s) for s in (";3", "1;2", "2,0;1")]
    before = {L: jack_symbolic(L, 3).coeffs for L in labels}
    pbefore = to_pbasis(before[labels[0]], 3)
    assert vanish_check(parse_spart(";4,2"), 1, 2, 3)  # prescribed columns
    caches = _unbounded_caches()
    sizes = jack.clear_caches()
    assert set(sizes) == set(caches)
    assert all(size > 0 for size in sizes.values()), sizes
    assert all(c.cache_info().currsize == 0 for c in caches.values())
    assert set(jack.clear_caches().values()) == {0}
    for L in labels:
        assert jack_symbolic(L, 3).coeffs == before[L]
    assert to_pbasis(before[labels[0]], 3) == pbefore


def test_product_cache_holds_each_product_once(monkeypatch):
    # a cold build of the benchmark's two build families asks for each
    # product of linear factors under one key
    jack.clear_caches()
    product = jack._product
    asked = set()

    def spy(*items):
        asked.add(tuple(sorted(items)))
        return product(*items)

    monkeypatch.setattr(jack, "_product", spy)
    for n, m, N in ((6, 2, 6), (8, 1, 4)):
        for L in enumerate_sparts(n, m, N):
            jack_symbolic(L, N)
    assert product.cache_info().currsize == len(asked) > 100


def _rows_read(monkeypatch, build) -> set:
    """The labels whose rows `build()` reads, from cold caches."""
    jack.clear_caches()
    read = set()
    label_rows = jack._label_rows

    def spy(om, Nv):
        read.add(om)
        return label_rows(om, Nv)

    with monkeypatch.context() as patch:
        patch.setattr(jack, "_label_rows", spy)
        build()
    return read


def test_rows_are_built_only_for_the_labels_read(monkeypatch):
    # 2;2 sits below the top of (4|1) N=4 and is incomparable to 0;3,1
    N = 4
    L = parse_spart("2;2")
    family = enumerate_sparts(*L.degree(), N)
    below = {om for om in family if dominance_leq(om, L)}
    assert parse_spart("0;3,1") in set(family) - below
    assert _rows_read(monkeypatch, lambda: jack_symbolic(L, N)) == below
    P = jack_symbolic(L, N)
    assert set(P.coeffs) == below
    verdicts = []
    assert _rows_read(monkeypatch,
                      lambda: verdicts.append(eigen_check(P))) == below
    assert verdicts == [None]


def _expanded_eigen_check(expansion):
    """Oracle: monic, dominated support, and both eigen-equations checked on
    the whole expanded polynomial (its Z[a] multiple)."""
    L = expansion.label
    if expansion.coeffs.get(L) != 1:
        return False
    if not all(dominance_leq(om, L) for om in expansion.coeffs):
        return False
    poly = integral_multiple(expansion.polynomial())
    return (apply_D(poly, ALPHA) == poly.scale(e_star_poly(L))
            and apply_Delta(poly, ALPHA) == poly.scale(e_tilde_poly(L)))


# the labels of the benchmark's cache workload: 2 <= n <= 4, m <= 2, N = 3, 4
_CACHE_POOL = [(L, N) for N in (3, 4) for n in range(2, 5) for m in range(3)
               for L in enumerate_sparts(n, m, N)]


def _eigen_verdicts(L, N, coeffs):
    expansion = JackExpansion(L, N, coeffs)
    return eigen_check(expansion), _expanded_eigen_check(expansion)


def test_eigen_check_matches_expanded_oracle():
    assert len(_CACHE_POOL) == 87
    scale = (a + 1) / (a + 2)
    mutants = 0
    for L, N in _CACHE_POOL:
        P = jack_symbolic(L, N).coeffs
        assert _eigen_verdicts(L, N, P) == (None, True), (str(L), N)
        below = [om for om in enumerate_sparts(*L.degree(), N)
                 if om != L and dominance_leq(om, L)]
        if below:  # P + m_O for the biggest O strictly below L
            plus = dict(P)
            plus[below[0]] = plus.get(below[0], 0) + 1
            reason, ok = _eigen_verdicts(L, N, plus)
            assert "eigen-equation fails" in reason and not ok, (str(L), N)
            mutants += 1
        lower = [om for om in P if om != L]
        if lower:  # one coefficient below the top scaled by (a+1)/(a+2)
            scaled = dict(P)
            scaled[lower[-1]] = scaled[lower[-1]] * scale
            reason, ok = _eigen_verdicts(L, N, scaled)
            assert "eigen-equation fails" in reason and not ok, (str(L), N)
            mutants += 1
    assert mutants > 100
    # P[1;2] + P[0;2,1]: monic, dominated and a D eigenfunction only
    L, other = parse_spart("1;2"), parse_spart("0;2,1")
    fake = dict(jack_symbolic(L, 3).coeffs)
    for om, c in jack_symbolic(other, 3).coeffs.items():
        fake[om] = fake.get(om, 0) + c
    assert _eigen_verdicts(L, 3, fake) == (
        "Delta eigen-equation fails at m_[0;2,1]", False)


def test_eigen_check_rejects_zeros_and_labels_outside_the_family():
    L = parse_spart("2;1")
    P = dict(jack_symbolic(L, 3).coeffs)
    assert eigen_check(JackExpansion(L, 3, {**P, parse_spart("0;1,1,1"): 1})) \
        == "m_[0;1,1,1] is outside the (3|1) family at N=3"
    assert eigen_check(JackExpansion(L, 3, {**P, parse_spart("1;1"): 1})) \
        == "m_[1;1] is outside the (3|1) family at N=3"
    assert eigen_check(JackExpansion(L, 3, {**P, parse_spart("0;2,1"): 0})) \
        == "zero coefficient at m_[0;2,1]"


def test_eigen_check_catches_doubled_lowest_coefficient():
    # on the family's own Z[a] rows, a doubled lowest coefficient breaks the
    # D eigen-equation at that label
    N = 3
    labels = family_rows(3, 1, N)[0]
    L = labels[0]
    P = dict(jack_symbolic(L, N).coeffs)
    assert eigen_check(JackExpansion(L, N, P)) is None
    lowest = [om for om in labels if om in P][-1]
    P[lowest] = P[lowest] * 2
    assert eigen_check(JackExpansion(L, N, P)) == \
        f"D eigen-equation fails at m_[{lowest}]"
