import random
from fractions import Fraction

import pytest

from superjack.coeffring import ALPHA, AlphaRational
from superjack import ops
from superjack.ops import (ALGEBRA_TABLE, OPERATORS, G_op, L_op,
                           NonPolynomialResult, apply_D, apply_Delta,
                           apply_operator, check_algebra_table,
                           check_virasoro_relations, cherednik,
                           l_minus2_combination, nabla_perp, q_op,
                           sekiguchi_S, sekiguchi_S_tilde,
                           ulist_equals_scalar_multiple)
from superjack.spart import (e_star_poly, e_tilde_poly, enumerate_all_m,
                             epsilon_u, parse_spart)
from superjack.superpoly import (SuperPolynomial, ferm_power, monomial_msym,
                                 power_sum)

a = ALPHA


def random_superpoly(N, rng, nterms=4, maxdeg=2):
    f = SuperPolynomial(N)
    for _ in range(nterms):
        T = tuple(sorted(rng.sample(range(1, N + 1), rng.randint(0, 2))))
        e = tuple(rng.randint(0, maxdeg) for _ in range(N))
        f._iadd_term((T, e), rng.randint(-3, 3))
    return f


def test_eigenoperators_kill_lowest_modes():
    assert apply_D(power_sum(1, 3), a).is_zero()
    assert apply_Delta(ferm_power(0, 3), a).is_zero()


def test_eigenoperator_eigenvalues_on_monomial_extremes():
    # a dominance-minimal monomial is itself a Jack superpolynomial
    L = parse_spart("1,0;")
    f = monomial_msym(L, 3)
    assert apply_D(f, a) == f.scale(AlphaRational(e_star_poly(L)))
    assert apply_Delta(f, a) == f.scale(AlphaRational(e_tilde_poly(L)))


def test_D_rejects_nonsymmetric():
    with pytest.raises(NonPolynomialResult):
        apply_D(SuperPolynomial.x(1, 2), a)


def test_D_Delta_commute_on_symmetric():
    for n in range(5):
        for L in enumerate_all_m(n, 3):
            f = monomial_msym(L, 3)
            ad = apply_Delta(apply_D(f, a), a)
            da = apply_D(apply_Delta(f, a), a)
            assert ad == da, str(L)


def test_cherednik_constants():
    one = SuperPolynomial.one(2)
    assert cherednik(one, 1, a).is_zero()
    assert cherednik(one, 2, a) == -one


def test_cherednik_commute_and_hecke():
    rng = random.Random(3)
    for _ in range(3):
        f = random_superpoly(3, rng)
        for i in range(1, 3):
            for j in range(i + 1, 4):
                lhs = cherednik(cherednik(f, j, a), i, a)
                rhs = cherednik(cherednik(f, i, a), j, a)
                assert lhs == rhs
        # D_i K_{i,i+1} - K_{i,i+1} D_{i+1} = 1
        for i in range(1, 3):
            g = f.swap_K(i, i + 1)
            lhs = cherednik(g, i, a) - cherednik(f, i + 1, a).swap_K(i, i + 1)
            assert lhs == f
        # D_i K_{j,j+1} = K_{j,j+1} D_i when i not in {j, j+1}
        lhs = cherednik(f.swap_K(2, 3), 1, a)
        assert lhs == cherednik(f, 1, a).swap_K(2, 3)


def test_sekiguchi_constant():
    S1 = sekiguchi_S(SuperPolynomial.one(2), a)
    assert ulist_equals_scalar_multiple(S1, epsilon_u((), 2, a),
                                        SuperPolynomial.one(2))


def test_sekiguchi_commutes_with_K():
    rng = random.Random(5)
    f = random_superpoly(3, rng)
    for i in range(1, 3):
        S_of_swapped = sekiguchi_S(f.swap_K(i, i + 1), a)
        swapped_S = [c.swap_K(i, i + 1) for c in sekiguchi_S(f, a)]
        assert all(u == v for u, v in zip(S_of_swapped, swapped_S))


def test_sekiguchi_tilde_coset_equals_full_sum():
    f = ferm_power(0, 3) * power_sum(1, 3)
    fast = sekiguchi_S_tilde(f, a)
    slow = sekiguchi_S_tilde(f, a, full_sum=True)
    assert all(u == v for u, v in zip(fast, slow))


def test_virasoro_polynomiality_and_bridges():
    polys = [monomial_msym(parse_spart("1;1"), 2),
             monomial_msym(parse_spart("1,0;"), 2)]
    for f in polys:
        for n in (-2, -1, 0, 1):
            L_op(n, f)  # must not raise
        for r2 in (Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2)):
            G_op(r2, f)
    assert not check_virasoro_relations(a, polys)
    with pytest.raises(ValueError):
        L_op(2, polys[0])
    with pytest.raises(ValueError):
        G_op(Fraction(3, 2), polys[0])


def test_algebra_table_full():
    polys = [monomial_msym(parse_spart("1;1"), 2),
             monomial_msym(parse_spart(";2"), 2)
             + monomial_msym(parse_spart("0;1"), 2),
             monomial_msym(parse_spart("1,0;"), 2)]
    assert not check_algebra_table(a, polys)


def test_anticommutator_q_with_q_is_zero():
    f = monomial_msym(parse_spart("2;1"), 3)
    assert q_op(q_op(f)).is_zero()


def test_nabla_perp_power_sum_commutator():
    # [raising operator, p_n] = n p_{n+1} as operators
    N = 3
    f = monomial_msym(parse_spart(";1"), N) + SuperPolynomial.one(N)
    for n in (1, 2):
        pn = power_sum(n, N)
        got = nabla_perp(pn * f, a) - pn * nabla_perp(f, a)
        assert got == power_sum(n + 1, N).scale(n) * f


def test_q_power_sum_commutator():
    N = 3
    f = monomial_msym(parse_spart(";2"), N)
    for n in (1, 2, 3):
        pn = power_sum(n, N)
        got = q_op(pn * f) - pn * q_op(f)
        want = ferm_power(n - 1, N).scale(n) * f
        assert got == want


def test_l_minus2_combination_matches_mode():
    polys = [monomial_msym(parse_spart("1;1"), 2),
             monomial_msym(parse_spart(";2"), 2),
             monomial_msym(parse_spart("1,0;1"), 3)]
    for f in polys:
        assert l_minus2_combination(f, a) == L_op(-2, f)


def test_apply_operator_dispatch():
    f = power_sum(1, 2)
    assert apply_operator("D", f, a).is_zero()
    assert apply_operator("nabla", f, a) == SuperPolynomial.one(2).scale(2)
    out = apply_operator("Sekiguchi", f, a)
    assert isinstance(out, list)
    assert apply_operator("Cherednik", SuperPolynomial.one(2), a, index=2) \
        == -SuperPolynomial.one(2)
    with pytest.raises(ValueError):
        apply_operator("bogus", f, a)


@pytest.mark.parametrize("alpha", [7, -3])
def test_int_alpha_stays_exact(alpha):
    # 1/alpha must be a Fraction: an int alpha used to give float coefficients
    polys = [monomial_msym(parse_spart("1;1"), 2),
             monomial_msym(parse_spart("1,0;"), 2),
             monomial_msym(parse_spart("1,0;1"), 3)]
    assert check_virasoro_relations(alpha, polys) == []
    f = polys[2]
    got = l_minus2_combination(f, alpha)
    assert got == L_op(-2, f)
    assert not any(isinstance(c, float) for c in got.terms.values())


DIRECT = {
    "E": ops.E_op, "calE": ops.calE, "q": ops.q_op, "Q": ops.Q_op,
    "q_perp": ops.q_perp, "Q_perp": ops.Q_perp, "nabla": ops.nabla,
    "nabla_perp": ops.nabla_perp, "q_tilde": ops.q_tilde, "D": apply_D,
    "Delta": apply_Delta, "Sekiguchi": sekiguchi_S,
    "SekiguchiTilde": sekiguchi_S_tilde,
}


def _components(result):
    return result if isinstance(result, list) else [result]


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_operator_table_entry(name):
    # symmetric and theta-homogeneous, so every table operator accepts it
    f = monomial_msym(parse_spart("1;1"), 2) + monomial_msym(
        parse_spart("0;2"), 2)
    got = apply_operator(name, f, a)
    assert _components(got) == _components(DIRECT[name](f, a))
    # the image has the bidegree the table's shift predicts
    dn, dm = OPERATORS[name].shift
    for comp in _components(got):
        for thetas, exps in comp.terms:
            assert (sum(exps), len(thetas)) == (2 + dn, 1 + dm)


def test_operator_table_covers_the_algebra():
    assert set(DIRECT) == set(OPERATORS)
    names = {n for pair, combo in ALGEBRA_TABLE.items() for n in (*pair, *combo)}
    assert names <= set(OPERATORS)
