import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superjack.coeffring import (ALPHA, ONE, AlphaPolynomial, AlphaRational,
                                 common_denominator)
from superjack import superpoly
from superjack.jack import jack_poly
from superjack.spart import (enumerate_sparts, fermionic_range, parse_spart,
                             z_stat)
from superjack.superpoly import (DivisionFailure, NotSymmetric,
                                 SuperPolynomial, divide_xdiff, ferm_power,
                                 from_mbasis, integral_multiple,
                                 monomial_msym, omega_alpha, p_label,
                                 pair_decompose, power_sum, prescribed_part,
                                 terms_to_json, to_mbasis, to_pbasis,
                                 unique_arrangements)

from superjack.suites import suite_duality, suite_norm

import oracles
from oracles import act_Ksigma, enumerate_all_m, swap_K


def x(i, N, p=1):
    return SuperPolynomial.x(i, N, p)


def t(i, N):
    return SuperPolynomial.theta(i, N)


def test_theta_sign_rules():
    N = 3
    assert t(1, N) * t(2, N) == -(t(2, N) * t(1, N))
    assert (t(1, N) * t(1, N)).is_zero()
    f, g = t(1, N) * x(2, N), t(2, N) * x(1, N)
    assert (f * g + g * f).is_zero()


def test_mul_associative_supercommutative():
    N = 3
    rng = random.Random(7)
    polys = []
    for _ in range(4):
        f = SuperPolynomial(N)
        for _ in range(3):
            T = tuple(sorted(rng.sample(range(1, N + 1), rng.randint(0, 2))))
            e = tuple(rng.randint(0, 2) for _ in range(N))
            f._iadd_term((T, e), rng.randint(-3, 3))
        polys.append(f)
    for f, g, h in itertools.permutations(polys, 3):
        assert (f * g) * h == f * (g * h)
    # theta-homogeneous pieces super-commute
    f = t(1, N) * x(1, N) + t(2, N) * x(2, N)
    g = t(3, N)
    assert f * g == -(g * f)
    b = x(1, N) + x(2, N, 2)
    assert b * f == f * b


def test_K_sigma_actions():
    N = 4
    f = t(1, N) * x(1, N)
    assert act_Ksigma(f, [2, 1, 3, 4]) == t(2, N) * x(2, N)
    tt = t(1, N) * t(2, N)
    assert act_Ksigma(tt, [2, 1, 3, 4]) == -tt
    pt = ferm_power(2, N)
    for sigma in itertools.permutations(range(1, N + 1)):
        assert act_Ksigma(pt, list(sigma)) == pt


def _act_Ksigma_by_products(f, sigma):
    """Oracle: rebuild each term as a product of the images of its factors,
    theta_sigma(t) in the term's order, then x_sigma(k)^e_k."""
    N = f.N
    out = SuperPolynomial(N)
    for (T, e), c in f.terms.items():
        term = SuperPolynomial.one(N).scale(c)
        for t_ in T:
            term = term * t(sigma[t_ - 1], N)
        for k, p in enumerate(e):
            term = term * x(sigma[k], N, p)
        out += term
    return out


def test_K_sigma_matches_product_route():
    rng = random.Random(23)
    for N in range(1, 5):
        for _ in range(5):
            f = SuperPolynomial(N)
            for _ in range(6):
                T = tuple(sorted(rng.sample(range(1, N + 1),
                                            rng.randint(0, min(N, 3)))))
                e = tuple(rng.randint(0, 3) for _ in range(N))
                f._iadd_term((T, e), rng.randint(-3, 3))
            for sigma in itertools.permutations(range(1, N + 1)):
                got = act_Ksigma(f, sigma)
                assert got.terms == _act_Ksigma_by_products(f, sigma).terms
                assert all(got.terms.values())


def _is_symmetric_by_copies(f):
    """Oracle: compare f with a full copy under each adjacent transposition."""
    for i in range(1, f.N):
        sigma = list(range(1, f.N + 1))
        sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
        if act_Ksigma(f, sigma) != f:
            return False
    return True


def test_is_symmetric_matches_copy_route():
    rng = random.Random(11)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        N = rng.randint(1, 4)
        f = SuperPolynomial(N)
        for _ in range(rng.randint(1, 4)):
            T = tuple(sorted(rng.sample(range(1, N + 1),
                                        rng.randint(0, min(N, 3)))))
            e = tuple(rng.randint(0, 2) for _ in range(N))
            f._iadd_term((T, e), Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        if rng.random() < 0.6:
            sym = SuperPolynomial(N)
            for sigma in itertools.permutations(range(1, N + 1)):
                sym += act_Ksigma(f, list(sigma))
            f = sym
            if rng.random() < 0.3:
                T = tuple(range(1, rng.randint(1, N) + 1))
                f._iadd_term((T, (1,) + (0,) * (N - 1)), 1)
        want = _is_symmetric_by_copies(f)
        assert f.is_symmetric() == want, f.terms
        verdicts[want] += 1
    assert min(verdicts.values()) > 50, verdicts


def test_monomial_display_example():
    N = 4
    mL = monomial_msym(parse_spart("1,0;1,1"), N)
    expected = SuperPolynomial(N)
    for i, j in itertools.combinations(range(1, 5), 2):
        rest = [k for k in range(1, 5) if k not in (i, j)]
        expected += (t(i, N) * t(j, N) * (x(i, N) - x(j, N))
                     * x(rest[0], N) * x(rest[1], N))
    assert mL == expected
    assert mL.is_symmetric()


def test_monomial_edge_cases():
    assert monomial_msym(parse_spart(";1"), 3) == power_sum(1, 3)
    assert monomial_msym(parse_spart("0;"), 3) == ferm_power(0, 3)


def test_monomials_fixed_by_generators():
    for n in range(4):
        for L in enumerate_all_m(n, 3):
            assert monomial_msym(L, 3).is_symmetric()


def test_to_mbasis_roundtrip():
    N = 3
    combos = {parse_spart(";2"): Fraction(3, 2), parse_spart("1;1"): Fraction(-1)}
    f = from_mbasis(combos, N)
    # the second label has different degree, so build separately
    g = from_mbasis({parse_spart(";2"): Fraction(3, 2)}, N)
    assert to_mbasis(g) == {parse_spart(";2"): Fraction(3, 2)}
    mL = monomial_msym(parse_spart("1,0;1"), N)
    assert to_mbasis(mL) == {parse_spart("1,0;1"): 1}


def _from_mbasis_summed(coeffs, N):
    """Oracle: sum the scaled monomials as whole polynomials."""
    out = SuperPolynomial(N)
    for L, c in coeffs.items():
        if c:
            out += monomial_msym(L, N).scale(c)
    return out


def test_from_mbasis_matches_summing_route():
    rng = random.Random(12)
    values = [0, 1, -2, Fraction(3, 4), Fraction(-5, 3), ALPHA,
              AlphaRational(AlphaPolynomial((1, 2)), AlphaPolynomial((3, 1)))]
    for _ in range(200):
        N = rng.randint(1, 4)
        labels = [L for n in range(rng.randint(0, 4) + 1)
                  for L in enumerate_all_m(n, N)]
        picked = rng.sample(labels, min(len(labels), rng.randint(0, 6)))
        coeffs = {L: rng.choice(values) for L in picked}
        got = from_mbasis(coeffs, N)
        assert got.terms == _from_mbasis_summed(coeffs, N).terms
        assert all(got.terms.values())
        assert to_mbasis(got) == {L: c for L, c in coeffs.items() if c}


def test_to_mbasis_p1_squared():
    p1 = power_sum(1, 2)
    assert to_mbasis(p1 * p1) == {parse_spart(";2"): 1, parse_spart(";1,1"): 2}


def test_to_mbasis_rejects_nonsymmetric():
    with pytest.raises(NotSymmetric):
        to_mbasis(x(1, 2))


def test_pt0_p1_expansion_brute_force():
    N = 3
    f = ferm_power(0, N) * power_sum(1, N)
    coeffs = to_mbasis(f)
    rebuilt = from_mbasis(coeffs, N)
    assert rebuilt == f
    assert coeffs == {parse_spart("1;"): 1, parse_spart("0;1"): 1}


def test_power_sum_orders():
    N = 2
    assert ferm_power(0, N) == t(1, N) + t(2, N)
    pt0, pt1 = ferm_power(0, N), ferm_power(1, N)
    assert p_label(parse_spart("1,0;"), N) == pt1 * pt0 == -(pt0 * pt1)
    assert p_label(parse_spart("0;1"), N) == pt0 * power_sum(1, N)


def _scalar_product_p(L, O, alpha):
    """Scalar product of p_Lambda with p_Omega at deformation alpha."""
    if L != O:
        return alpha * 0
    m = L.m
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    val = alpha ** L.length * z_stat(L.sym)
    return val if sign > 0 else -val


def test_scalar_product_values():
    a = ALPHA
    assert _scalar_product_p(parse_spart("0;1"), parse_spart("0;1"), a) == a * a
    assert _scalar_product_p(parse_spart(";2"), parse_spart(";2"), a) == 2 * a
    assert _scalar_product_p(parse_spart(";2"), parse_spart(";1,1"), a) == 0
    assert _scalar_product_p(parse_spart("1,0;"), parse_spart("1,0;"), a) == -(a * a)


def _omega(f, alpha):
    return from_mbasis(omega_alpha(to_mbasis(f), f.N, alpha), f.N)


def test_omega_scalars_and_composition():
    a = ALPHA
    N = 3
    assert _omega(power_sum(2, N), a) == power_sum(2, N).scale(-a)
    assert _omega(ferm_power(0, N), a) == ferm_power(0, N).scale(a)
    g = power_sum(2, N) + power_sum(1, N) * power_sum(1, N)
    assert _omega(_omega(g, a), ONE / a) == g


def test_specialize_merge():
    p1 = power_sum(1, 2)
    merged = p1.merge_x((2,), 1)
    assert merged == x(1, 2).scale(2)


def test_subs_x_polynomial_image():
    # x1 -> x3 + x4 inside x1^2 x2
    N = 4
    f = x(1, N, 2) * x(2, N)
    g = f.subs_x({1: x(3, N) + x(4, N)})
    expected = (x(3, N) + x(4, N)) * (x(3, N) + x(4, N)) * x(2, N)
    assert g == expected


def test_theta_coefficient_and_restrict():
    N = 4
    mL = monomial_msym(parse_spart("1,0;1,1"), N)
    co = mL.theta_coefficient((1, 2))
    assert co == (x(1, N) - x(2, N)) * x(3, N) * x(4, N)
    body, slope = t(4, 4).restrict_last()
    assert body.is_zero()
    assert slope == SuperPolynomial.one(3)
    body2, slope2 = (t(1, 4) * t(4, 4)).restrict_last()
    assert slope2 == -t(1, 3)  # moving the derivative past theta_1


def _divided_difference(f, i, j, super_swap=False):
    """(f - K_ij f) / (x_i - x_j); with super_swap the diagonal swap is used."""
    sigma = list(range(1, f.N + 1))
    sigma[i - 1], sigma[j - 1] = sigma[j - 1], sigma[i - 1]
    swapped = act_Ksigma(f, sigma) if super_swap else swap_K(f, i, j)
    return divide_xdiff(f - swapped, i, j)


def test_divided_difference():
    assert _divided_difference(x(1, 2), 1, 2) == SuperPolynomial.one(2)
    assert _divided_difference(x(1, 2, 2), 1, 2) == x(1, 2) + x(2, 2)
    f = x(1, 3, 3) * x(2, 3)
    g = _divided_difference(f, 1, 2)
    assert (x(1, 3) - x(2, 3)) * g == f - swap_K(f, 1, 2)
    # the diagonal-swap variant keeps theta terms polynomial
    h = t(1, 2) * x(1, 2, 2) + t(2, 2) * x(2, 2, 2)
    dd = _divided_difference(h, 1, 2, super_swap=True)
    assert (x(1, 2) - x(2, 2)) * dd == h - act_Ksigma(h, [2, 1])


def test_divide_xdiff_failure():
    with pytest.raises(DivisionFailure):
        divide_xdiff(x(1, 2) + x(2, 2), 1, 2)


def test_prescribed_part():
    assert prescribed_part(ferm_power(0, 1), 1) == SuperPolynomial.one(1)
    m10 = monomial_msym(parse_spart("1,0;"), 2)
    assert prescribed_part(m10, 2) == SuperPolynomial.one(2)
    with pytest.raises(DivisionFailure):
        prescribed_part(t(1, 2) * t(2, 2) * x(1, 2), 2)


def test_exterior_derivative_squares_to_zero():
    N = 4
    def q(f):
        out = SuperPolynomial(f.N)
        for i in range(1, f.N + 1):
            out += f.diff_x(i).mul_theta(i)
        return out
    def qt(f):
        out = SuperPolynomial(f.N)
        for i in range(1, f.N + 1):
            out += f.diff_x(i).mul_x(i).mul_theta(i)
        return out
    rng = random.Random(11)
    for _ in range(5):
        f = SuperPolynomial(N)
        for _ in range(4):
            T = tuple(sorted(rng.sample(range(1, N + 1), rng.randint(0, 2))))
            e = tuple(rng.randint(0, 2) for _ in range(N))
            f._iadd_term((T, e), rng.randint(-2, 2))
        assert q(q(f)).is_zero()
        assert qt(qt(f)).is_zero()


def _pair_recompose(A, B, C, D, i, j):
    return (A + B.mul_theta(i) + C.mul_theta(j)
            + D.mul_theta(j).mul_theta(i))


def test_pair_decompose_roundtrip():
    N = 4
    h = (t(1, N) * t(3, N) * x(2, N) + t(2, N) * x(1, N) * x(3, N)
         + SuperPolynomial.one(N) + t(1, N) * t(2, N) * t(3, N) * x(4, N))
    A, B, C, D = pair_decompose(h, 1, 3)
    for part in (A, B, C, D):
        assert all(1 not in T and 3 not in T for T, _ in part.terms)
    assert _pair_recompose(A, B, C, D, 1, 3) == h


def test_unique_arrangements():
    arrs = list(unique_arrangements([1, 1, 2]))
    assert len(arrs) == 3
    assert len(set(arrs)) == 3


def test_orbit_walk_matches_every_arrangement():
    # the placements of the fermionic parts times the bosonic arrangements
    # against the orbit over every distinct arrangement of marked parts
    count = 0
    for N in range(1, 8):
        for n in range(8):
            for L in enumerate_all_m(n, N):
                got = monomial_msym(L, N)
                assert got.terms == oracles.monomial_msym_orbit(L, N).terms, \
                    (str(L), N)
                count += 1
    assert count == 1390


def _scan_case(rng):
    """A term dict in N <= 5 variables that reaches every branch of the
    canonical scan: initial and other theta tuples, heads with ties, tails
    in and out of order, zero parts."""
    N = rng.randint(1, 5)
    terms = {}
    for _ in range(rng.randint(0, 8)):
        m = rng.randint(0, min(N, 3))
        T = (tuple(range(1, m + 1)) if rng.random() < 0.5
             else tuple(sorted(rng.sample(range(1, N + 1), m))))
        e = [rng.randint(0, 3) for _ in range(N)]
        if rng.random() < 0.7:  # near-canonical: head and tail sorted
            e = sorted(e[:m], reverse=True) + sorted(e[m:], reverse=True)
        terms[(T, tuple(e))] = rng.randint(-3, 3)
    return SuperPolynomial(N, terms)


def _scan_agrees(scan, f) -> bool:
    try:
        got = scan(f)
    except ValueError:  # a non-canonical term read as a label
        return False
    return list(got.items()) == list(oracles.to_mbasis_scan(f).items())


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_canonical_scan_matches_term_by_term_oracle(rng):
    assert _scan_agrees(functools.partial(to_mbasis, verify=False),
                        _scan_case(rng))


def _tie_accepting_scan(f):
    """Mutant of the canonical scan: the head need only weakly decrease."""
    out = {}
    for (T, e), c in f.terms.items():
        mdeg = len(T)
        if T and T[-1] != mdeg:
            continue
        head, tail = e[:mdeg], e[mdeg:]
        if (sorted(tail, reverse=True) == list(tail)
                and sorted(head, reverse=True) == list(head)):
            out[parse_spart(",".join(map(str, head)) + ";"
                            + ",".join(map(str, tail)))] = c
    return out


def test_scan_mutant_accepting_a_tie_in_the_head_is_caught():
    cases = [_scan_case(random.Random(seed)) for seed in range(300)]
    assert all(_scan_agrees(functools.partial(to_mbasis, verify=False), f)
               for f in cases)
    faults = sum(not _scan_agrees(_tie_accepting_scan, f) for f in cases)
    assert faults > 10, faults


def test_to_pbasis_faithful():
    N = 4
    f = monomial_msym(parse_spart("1;1"), N)
    coeffs = to_pbasis(to_mbasis(f), N)
    rebuilt = SuperPolynomial(N)
    for P, c in coeffs.items():
        rebuilt += p_label(P, N).scale(c)
    assert rebuilt == f
    with pytest.raises(ValueError):  # N too small
        to_pbasis(to_mbasis(monomial_msym(parse_spart("1;1"), 2)), 2)


@functools.cache
def _p_label_reps(P, N):
    """p_P cut down to the one term per orbit that to_mbasis reads, so each
    column is expanded once for both routes."""
    out = {}
    for L, c in to_mbasis(p_label(P, N), verify=False).items():
        out[(tuple(range(1, L.m + 1)),
             L.antisym + L.sym + (0,) * (N - L.length))] = c
    return SuperPolynomial(N, out)


def _omega_oracle(pcoeffs, columns, alpha):
    """omega_alpha recombined by hand from the dense power-sum solve."""
    out = {}
    for P, c in pcoeffs.items():
        scalar = alpha ** P.length
        flips = sum(a for a in P.antisym) + sum(s - 1 for s in P.sym)
        if flips % 2:
            scalar = -scalar
        for om, v in columns[P].items():
            out[om] = out.get(om, 0) + c * scalar * v
    return {om: c for om, c in out.items() if c}


def _fresh_power_sum_columns(monkeypatch):
    """An empty column cache for this test, so a patched p_label is read
    and no patched column outlives the test."""
    monkeypatch.setattr(superpoly, "power_sum_columns", functools.lru_cache(
        maxsize=None)(superpoly.power_sum_columns.__wrapped__))


def test_power_sum_peel_matches_dense_oracle(monkeypatch):
    # m_L for every label with n <= 6, at N = n + m and N = n + m + 1
    _fresh_power_sum_columns(monkeypatch)
    monkeypatch.setattr(superpoly, "p_label", _p_label_reps)
    monkeypatch.setattr(oracles, "p_label", _p_label_reps)
    count = 0
    for n in range(7):
        for m in fermionic_range(n, n + 1):
            for N in sorted({max(n + m, 1), n + m + 1}):
                for L in enumerate_sparts(n, m, N):
                    count += 1
                    mL = {L: 1}
                    want, columns = oracles.power_sum_solve(mL, N)
                    assert to_pbasis(mL, N) == want, (str(L), N)
                    assert omega_alpha(mL, N, ALPHA) == \
                        _omega_oracle(want, columns, ALPHA), (str(L), N)
    assert count == 371


@pytest.mark.parametrize("label, scale", [(";1,1", 1), (";2", -1)],
                         ids=["entry below its label", "zero at its label"])
def test_non_triangular_power_sum_column_is_rejected(monkeypatch, label,
                                                     scale):
    # p_[;2] = m_[;2] in (2|0); the mutant adds m_[;1,1], which lies below
    # ;2, or subtracts m_[;2]
    N = 2
    top = parse_spart(";2")
    extra = monomial_msym(parse_spart(label), N).scale(scale)
    real = superpoly.p_label

    def unreachable(*args):
        raise AssertionError("peeled columns that are not triangular")

    # the check comes before the peel, which could cycle on such columns
    _fresh_power_sum_columns(monkeypatch)
    monkeypatch.setattr(superpoly, "p_label", lambda P, N: (
        real(P, N) + extra if P == top else real(P, N)))
    monkeypatch.setattr(superpoly, "peel", unreachable)
    with pytest.raises(ArithmeticError):
        to_pbasis({parse_spart(";1,1"): 1}, N)


def test_power_sum_columns_built_once_per_family(monkeypatch):
    # duality and norms read the p_Lambda columns of 58 distinct
    # (label, N) pairs; each is expanded once, not once per label read
    superpoly.power_sum_columns.cache_clear()
    real = superpoly.p_label
    calls = []

    def counting(P, N):
        calls.append((P, N))
        return real(P, N)

    monkeypatch.setattr(superpoly, "p_label", counting)
    assert suite_duality(4)[0] and suite_norm(4)[0]
    assert len(calls) == len(set(calls)) == 58


def test_json_terms_deterministic():
    f = monomial_msym(parse_spart("1;1"), 3)
    assert terms_to_json(f) == terms_to_json(f.copy())
    item = terms_to_json(f)[0]
    assert set(item) == {"thetas", "exps", "coeff"}


def test_integral_multiple_clears_denominators():
    P = jack_poly(parse_spart(";3"), 3)  # criterion 1: 3/(2a+1), 6/(2a^2+3a+1)
    D = common_denominator(P.terms.values())
    assert D == AlphaPolynomial((1, 3, 2))
    Q = integral_multiple(P)
    assert all(type(c) is AlphaPolynomial for c in Q.terms.values())
    assert Q == P.scale(AlphaRational(D))


def test_integral_multiple_of_integral_input():
    f = (monomial_msym(parse_spart("1;1"), 2).scale(ALPHA + 2)
         + monomial_msym(parse_spart("0;2"), 2).scale(-3))
    assert common_denominator(f.terms.values()) == 1
    g = integral_multiple(f)
    assert g == f
    assert all(type(c) is AlphaPolynomial for c in g.terms.values())
    assert integral_multiple(SuperPolynomial(3)).is_zero()
