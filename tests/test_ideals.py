from fractions import Fraction

import pytest

from superjack import ideals
from superjack.coeffring import FieldMatrix, NoSolution, solve_exact, UniqueSolution
from superjack.ideals import (CharacterSeries, NotInSpan, alpha_kr,
                              cluster_multiplicity, cochain_check,
                              degree_basis, dim_F, harness_clustering,
                              harness_I_eq_F, ideal_basis, membership,
                              prescribed_vanish_check, rank_of,
                              stability_suite, vanish_check)
from superjack.jack import jack_at
from superjack.spart import enumerate_all_m, is_admissible, parse_spart
from superjack.superpoly import SuperPolynomial, power_sum


def test_alpha_kr():
    assert alpha_kr(1, 2) == Fraction(-2)
    assert alpha_kr(2, 3) == Fraction(-3, 2)
    assert alpha_kr(3, 2) == Fraction(-4)


def test_ideal_basis_lowest_degrees():
    basis = ideal_basis(1, 2, 3, 3)
    # the unique element of lowest total degree sits at (3|2)
    assert sorted(basis.by_degree) == [(3, 2), (3, 3)]
    labels = [str(L) for L, _ in basis.at(3, 2)]
    assert labels == ["2,1;"]
    # degree (0|1): the lone-circle label fails admissibility, matching the
    # absence of constant terms in the graded dimension series
    assert not is_admissible(parse_spart("0;"), 1, 2, 2)


def test_membership_basics():
    basis = degree_basis(1, 2, 3, 3, 2)
    b1 = basis[0][1]
    coeffs = membership(b1, basis)
    assert coeffs == {basis[0][0]: Fraction(1)}
    assert membership(SuperPolynomial.zero(3), basis) == {}
    with pytest.raises(NotInSpan):
        membership(power_sum(1, 3), basis)


def _dense_membership(f, basis):
    """Oracle: one dense solve over every expanded (theta, exponent) term.

    Returns the coefficient dict, or None when f is outside the span."""
    if f.is_zero():
        return {}
    polys = [poly for _, poly in basis]
    keys = sorted({key for g in polys + [f] for key in g.terms})
    entries = [Fraction(g.terms.get(key, 0)) for key in keys for g in polys]
    rhs = [Fraction(f.terms.get(key, 0)) for key in keys]
    res = solve_exact(FieldMatrix(len(keys), len(polys), entries), rhs)
    if isinstance(res, NoSolution):
        return None
    vector = res.vector if isinstance(res, UniqueSolution) else res.particular
    return {basis[i][0]: c for i, c in enumerate(vector) if c}


@pytest.mark.parametrize("k, r, N, nmax, noncoprime",
                         [(1, 2, 3, 5, False), (1, 3, 2, 6, True)])
def test_membership_matches_dense_oracle(monkeypatch, k, r, N, nmax,
                                         noncoprime):
    # every operator image and restriction piece of the stability suite
    real = ideals.membership
    seen = {"in": 0, "out": 0}

    def differential(f, basis):
        want = _dense_membership(f, basis)
        try:
            got = real(f, basis)
        except NotInSpan:
            got = None
        assert got == want, (f, [str(L) for L, _ in basis])
        seen["out" if got is None else "in"] += 1
        if got is None:
            raise NotInSpan("outside the span", residual=f)
        return got

    monkeypatch.setattr(ideals, "membership", differential)
    rep = stability_suite(k, r, N, nmax, allow_noncoprime=noncoprime)
    assert seen["in"] > 50
    assert seen["out"] == len(rep["violations"])
    assert bool(seen["out"]) == noncoprime


def test_membership_rejects_nonsymmetric():
    basis = degree_basis(1, 2, 3, 3, 2)
    b1 = basis[0][1]
    # a non-symmetric term that the monomial-superbasis read-off skips
    stray = (SuperPolynomial.theta(1, 3) * SuperPolynomial.theta(2, 3)
             * SuperPolynomial.x(2, 3, 3))
    for f in (SuperPolynomial.x(1, 3), b1 + stray):
        assert not f.is_symmetric()
        assert _dense_membership(f, basis) is None
        with pytest.raises(NotInSpan):
            membership(f, basis)


def test_ideal_closed_under_p1():
    k, r, N = 1, 2, 3
    a0 = alpha_kr(k, r)
    for n in range(6):
        for L in enumerate_all_m(n, N):
            if not is_admissible(L, k, r, N):
                continue
            f = power_sum(1, N) * jack_at(L, N, a0)
            target = degree_basis(k, r, N, n + 1, L.m)
            membership(f, target)  # raises on failure


def test_stability_suite_clean():
    rep = stability_suite(1, 2, 3, 5)
    assert rep["violations"] == []
    assert rep["checked"] > 100


def test_stability_detects_noncoprime_breakage():
    # with gcd(k+1, r-1) > 1 the span is genuinely not an ideal
    rep = stability_suite(1, 3, 2, 4, allow_noncoprime=True)
    assert rep["violations"]


def test_characters_appendix_values():
    assert dim_F(1, 3, 3, 2) == 1
    # u^3 coefficient of the N=3, k=1 series: v^2 + v^3
    assert [dim_F(1, 3, 3, m) for m in range(4)] == [0, 0, 1, 1]
    # u^2 coefficient of the N=2, k=1 series: 1 + 2v + v^2
    assert [dim_F(1, 2, 2, m) for m in range(3)] == [1, 2, 1]


def test_character_series_formatting():
    s = CharacterSeries({(1, 1): 1, (2, 0): 1, (2, 1): 2, (2, 2): 1}, 2)
    assert s.series_str() == "(v)*u + (1+2v+v^2)*u^2"


def test_char_equality_small():
    rep = harness_I_eq_F(1, 2, 6)
    assert rep["equal"], rep["mismatches"]
    rep = harness_I_eq_F(1, 3, 6)
    assert rep["equal"], rep["mismatches"]


def test_vanishing_squared_vandermonde():
    assert vanish_check(parse_spart(";4,2"), 1, 2, 3)


def test_vanishing_eq4310_identification():
    # two coinciding variables kill nothing less than the full product form
    L = parse_spart(";4,3,1")
    P = jack_at(L, 4, Fraction(-3, 2))
    merged = P.merge_x((2,), 1)
    x = lambda i: SuperPolynomial.x(i, 4)
    g, h = x(4) - x(1), x(3) - x(1)
    target = x(1).scale(2) * (x(3) + x(4)) * (g * g * g) * (h * h * h)
    assert merged == target
    assert vanish_check(L, 2, 3, 4)


def test_prescribed_vanishing_and_nonvanishing():
    # r > m: the stripped polynomial vanishes at any coincidence
    assert prescribed_vanish_check(parse_spart(";4,2"), 1, 2, 3)
    # r = m = 2: it does not vanish (two circles, k = 1)
    L = parse_spart("4,2;")
    assert is_admissible(L, 1, 2, 2)
    P = jack_at(L, 2, alpha_kr(1, 2))
    from superjack.superpoly import prescribed_part
    g = prescribed_part(P, 2)
    assert not g.merge_x((2,), 1).is_zero()


def test_cluster_worked_examples():
    res = cluster_multiplicity(parse_spart("2;4,1"), 2, 3, 4, (2, 3), 1)
    assert (res.multiplicity, res.a, res.expected) == (2, 1, 2)
    res = cluster_multiplicity(parse_spart("2;4,1"), 2, 3, 4, (2, 3), 4)
    assert (res.multiplicity, res.a, res.expected) == (3, 0, 3)
    res = cluster_multiplicity(parse_spart("1;3,1"), 3, 2, 5, (2, 3, 4), 5)
    assert (res.multiplicity, res.a) == (2, 0)
    res = cluster_multiplicity(parse_spart("1;3,1"), 3, 2, 5, (2, 3, 4), 1)
    assert (res.multiplicity, res.a) == (1, 1)


def test_cluster_below_bound_exception():
    # N < k + m + 1: multiplicity exceeds the generic value
    res = cluster_multiplicity(parse_spart("1;3,1"), 3, 2, 4, (2, 3, 4), 1)
    assert res.multiplicity == 2
    assert res.expected == 1
    assert not res.matches


def test_cluster_m0_footnote_case():
    res = cluster_multiplicity(parse_spart(";4,2"), 2, 3, 3, (2, 3), 1)
    assert res.multiplicity == 4  # r + 1, the classical exceptional pattern
    assert res.expected == 3


def test_cluster_vanishing_polynomial():
    # the prescribed polynomial dies under this substitution
    res = cluster_multiplicity(parse_spart("2,0;3"), 2, 3, 4, (3, 4), 1)
    assert (res.multiplicity, res.a, res.expected) == (None, 1, 2)
    assert not res.matches


def test_cluster_input_validation():
    with pytest.raises(ValueError):
        cluster_multiplicity(parse_spart(";4,2"), 2, 3, 3, (1, 2), 1)


def test_cochain_q_and_qtilde():
    for d in ("q", "q_tilde"):
        rep = cochain_check(1, 2, 3, 5, d)
        assert rep["failures"] == [], d
        assert all(e["exact"] for e in rep["exactness"]), d
    with pytest.raises(ValueError):
        cochain_check(1, 2, 3, 5, "qt")


def test_clustering_harness_small():
    rep = harness_clustering(1, 2, 3, 5)
    assert rep["exceptions_in_bounds"] == []
    for row in rep["rows"]:
        if not row["zero"]:
            assert row["divides"], row


def test_rank_of():
    x1 = SuperPolynomial.x(1, 2)
    x2 = SuperPolynomial.x(2, 2)
    assert rank_of([x1, x2, x1 + x2]) == 2
    assert rank_of([]) == 0
