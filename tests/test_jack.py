import itertools
from fractions import Fraction

import pytest

from superjack.coeffring import (ALPHA, ONE, AlphaRational, PoleError,
                                 parse_alpha)
from superjack.jack import (jack_at, jack_expand, jack_nonsym, jack_poly,
                            jack_symbolic, duality_check, evaluation_direct,
                            evaluation_formula, integral_form, norm_gram,
                            norm_hook, pieri_check, pieri_closed,
                            pieri_direct, removal_identities,
                            symmetrization_check, PIERI_KINDS)
from superjack.ops import apply_D, apply_Delta, cherednik, sekiguchi_S
from superjack.spart import (e_star_poly, e_tilde_poly, enumerate_all_m,
                             enumerate_sparts, epsilon_u, eta_bar,
                             dominance_leq, parse_spart, star_pair, v_poly)
from superjack.superpoly import (SuperPolynomial, monomial_msym, to_mbasis,
                                 vandermonde)

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


def test_cross_oracle_symmetrization():
    # the triangular solve agrees with symmetrizing a non-symmetric Jack
    for s, N in [("0;", 2), (";2", 2), ("2,0;", 3), ("1,0;1", 3)]:
        assert symmetrization_check(parse_spart(s), N), s


def test_jack_at_squared_vandermonde():
    P = jack_at(parse_spart(";4,2"), 3, Fraction(-2))
    V = vandermonde(3, 3)
    assert P == V * V


def test_jack_at_pole():
    with pytest.raises(PoleError) as info:
        jack_at(parse_spart(";3"), 3, Fraction(-1))
    assert info.value.offending == parse_spart(";1,1,1")


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


def test_pieri_worked_example():
    cl = pieri_closed("p0", parse_spart("1;2,2"), 4)
    assert cl[parse_spart("2,1;2")] == ONE
    want = parse_alpha("-(2+2*a)*(1+2*a)*a/((3+2*a)*(2+2*a)*(1+a))")
    assert cl[parse_spart("1,0;2,2")] == want
    assert pieri_check("p0", parse_spart("1;2,2"), 4)


def test_pieri_no_circles_to_remove():
    # no removable circle: the closed map is empty and the operator kills P
    assert pieri_closed("Qperp", parse_spart(";1"), 3) == {}
    assert pieri_direct("Qperp", parse_spart(";1"), 3) == {}
    with pytest.raises(ValueError):
        pieri_direct("E", parse_spart(";1"), 3)


def test_pieri_qperp_on_lone_circle():
    cl = pieri_closed("qperp", parse_spart("0;"), 2)
    assert cl == {parse_spart(";1"): ONE}
    assert pieri_check("qperp", parse_spart("0;"), 2)


def test_pieri_all_kinds_small():
    for s, N in [("0;", 2), (";2", 3), ("1;1", 3), ("1,0;", 3), ("0;2", 3)]:
        for kind in PIERI_KINDS:
            assert pieri_check(kind, parse_spart(s), N), (kind, s)


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


def test_nonsym_trivial_and_eigen():
    E0 = jack_nonsym((0, 0, 0))
    assert E0.polynomial() == SuperPolynomial.one(3)
    E = jack_nonsym((1, 0))
    assert E.terms == {(1, 0): ONE, (0, 1): parse_alpha("1/(1+a)")}
    for eta in itertools.product(range(3), repeat=2):
        pol = jack_nonsym(tuple(eta)).polynomial()
        bars = eta_bar(eta, a)
        for i in range(2):
            assert cherednik(pol, i + 1, a) == pol.scale(bars[i]), eta


def test_nonsym_eigen_N3():
    for eta in [(2, 1, 0), (0, 1, 2), (1, 1, 2), (3, 0, 1), (0, 2, 2)]:
        pol = jack_nonsym(eta).polynomial()
        bars = eta_bar(eta, a)
        for i in range(3):
            assert cherednik(pol, i + 1, a) == pol.scale(bars[i]), eta


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
    d = jack_expand(f, N)
    assert d == {parse_spart(";2"): parse_alpha("a"),
                 parse_spart(";1,1"): parse_alpha("1/(1+a)")}


def test_expansion_cache_identity():
    A = jack_symbolic(parse_spart(";2,1"), 3)
    B = jack_symbolic(parse_spart(";2,1"), 3)
    assert A is B
