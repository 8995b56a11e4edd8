import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superjack import coeffring
from superjack.coeffring import (ALPHA, ONE, AlphaPolynomial, AlphaRational,
                                 FieldMatrix, IndeterminateError, NoSolution,
                                 PoleError, SolutionSpace, UniqueSolution,
                                 _normalize, alpha_eval,
                                 common_denominator, parse_alpha, poly_gcd,
                                 poly_divexact, solve_exact)
from oracles import dense_solve_exact, poly_at, poly_divexact_q, poly_gcd_q

a = ALPHA


def test_eval_basic():
    f = 3 / (a * (2 * a + 1))
    assert alpha_eval(f, Fraction(-2)) == Fraction(1, 2)


def test_eval_pole():
    f = 6 / ((a + 1) * (2 * a + 1))
    with pytest.raises(PoleError):
        alpha_eval(f, Fraction(-1))
    with pytest.raises(PoleError):
        alpha_eval(f, Fraction(-1, 2))


def test_eval_cancels_first():
    # canonical reduction removes the common factor before evaluating
    f = (a ** 2 - 1) / (a - 1)
    assert f == a + 1
    assert alpha_eval(f, 1) == 2


def test_canonical_form():
    f = (2 * a + 2) / (4 * a + 4)
    assert f == AlphaRational(1, 2)
    g = a / -(a ** 2)  # denominator sign normalizes to positive leading coeff
    assert g.den.leading() > 0
    assert g == -1 / a


def test_common_denominator_is_the_lcm():
    # integer contents and polynomial factors are both taken once
    assert common_denominator([Fraction(1, 2), Fraction(3, 4), 5]) == 4
    assert common_denominator([Fraction(1, 2), Fraction(1, 3)]) == 6
    d = common_denominator([1 / (2 * a + 2), a / (a * a - 1), 3 / (4 * a)])
    assert d == AlphaPolynomial((0, -4, 0, 4))  # 4a(a-1)(a+1)
    assert common_denominator([a + 1, AlphaPolynomial((0, 2))]) == 1
    assert common_denominator([]) == 1


def test_indeterminate_branch_unreachable_on_canonical():
    # gcd-reduced elements cannot hit 0/0; the error class still exists for
    # callers evaluating raw pairs
    f = (a - 1) / (a + 1)
    assert alpha_eval(f, 1) == 0
    assert issubclass(IndeterminateError, ArithmeticError)


poly_strat = st.lists(st.integers(-2, 2), min_size=0, max_size=3)


@st.composite
def rationals(draw):
    num = AlphaPolynomial(draw(poly_strat))
    den = AlphaPolynomial(draw(poly_strat))
    if den.is_zero():
        den = AlphaPolynomial((1,))
    return AlphaRational(num, den)


@settings(max_examples=60, deadline=None)
@given(rationals(), rationals(), rationals())
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@settings(max_examples=60, deadline=None)
@given(rationals(), rationals(), st.sampled_from([0, 1, 2, -2, Fraction(1, 3)]))
def test_eval_is_homomorphism(x, y, point):
    try:
        vx = alpha_eval(x, point)
        vy = alpha_eval(y, point)
        vxy = alpha_eval(x * y, point)
        vs = alpha_eval(x + y, point)
    except PoleError:
        return
    assert vxy == vx * vy
    assert vs == vx + vy


def test_parse_roundtrip():
    for f in [a, -a, 3 / (a * (2 * a + 1)), (a ** 2 - 3) / (5 * a ** 3 + a),
              AlphaRational(Fraction(-7, 3)), AlphaRational(0)]:
        assert parse_alpha(str(f)) == f
    assert parse_alpha("3/(a*(2*a+1))") == 3 / (2 * a ** 2 + a)
    assert parse_alpha("a^2 - 1") == a * a - 1


@pytest.mark.parametrize("text", ["(" * 3000 + "1" + ")" * 3000,
                                  "-" * 3000 + "1"],
                         ids=["parentheses", "minus signs"])
def test_parse_rejects_deep_nesting(text):
    # the recursive descent used to raise RecursionError
    with pytest.raises(ValueError, match="nested too deeply"):
        parse_alpha(text)


@pytest.mark.parametrize("text", ["a^", "(a+1)^", "2^"])
def test_parse_rejects_a_missing_exponent(text):
    # reading past the last token used to raise IndexError
    with pytest.raises(ValueError, match="exponent must be an integer"):
        parse_alpha(text)


def test_poly_gcd_primitive():
    p = AlphaPolynomial((2, 4, 2))   # 2(a+1)^2
    q = AlphaPolynomial((-3, -3))    # -3(a+1)
    g = poly_gcd(p, q)
    assert g == AlphaPolynomial((1, 1))


@given(st.lists(st.integers(-20, 20), max_size=5), st.integers(-9, 9),
       st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_poly_divexact_by_a_primitive_linear_factor(coeffs, t, s):
    # Gauss's lemma: a primitive linear f divides p in Z[a] exactly when it
    # divides p over Q
    f = AlphaPolynomial.linear(t, s)
    if f.content() != 1:
        return
    p = AlphaPolynomial(coeffs)
    assert poly_divexact(p * f, f) == p
    divides = p.is_zero() or poly_gcd(p, f) == f
    try:
        q = poly_divexact(p, f)
    except ArithmeticError:
        q = None
    assert (q is not None) == divides
    if q is not None:
        assert q * f == p


# The Z[a] kernels run on ints: poly_gcd by the primitive remainder sequence,
# poly_divexact by integer long division, alpha_eval by Horner on q^d-scaled
# halves.  The Fraction routes they replaced are the oracles.

def _planted_cases(count, seed):
    """(p, q, g): p and q share the planted factor g, which may be zero or a
    constant; the cofactors may be zero, constant, negative or non-primitive."""
    rng = random.Random(seed)

    def poly(deg):
        return AlphaPolynomial(rng.randint(-9, 9) for _ in range(deg + 1))

    edges = [AlphaPolynomial(), AlphaPolynomial((5,)), AlphaPolynomial((-3,)),
             AlphaPolynomial((4, -6, 2)), AlphaPolynomial((0, 0, -1))]
    for x in edges:
        for y in edges:
            yield x, y, AlphaPolynomial((1,))
    for _ in range(count):
        g = poly(rng.randint(0, 3)) * rng.choice((1, 2, -3, 6))
        yield (poly(rng.randint(-1, 4)) * g * rng.choice((1, -1, 4)),
               poly(rng.randint(-1, 4)) * g, g)


def _outcome(divide, p, q):
    try:
        return divide(p, q)
    except ArithmeticError:
        return ArithmeticError


def test_poly_gcd_and_divexact_match_the_fraction_routes():
    divisions = 0
    for p, q, g in _planted_cases(3000, seed=17):
        assert poly_gcd(p, q) == poly_gcd_q(p, q), (p, q)
        for x, y in ((p, g), (q, g), (p * q, q), (p, q), (q, p)):
            if y:
                assert _outcome(poly_divexact, x, y) == \
                    _outcome(poly_divexact_q, x, y), (x, y)
                divisions += 1
    assert divisions > 12000


@pytest.mark.parametrize("p, q", [
    ((1, 0, 1), (1, 1)),   # a^2+1 by a+1: remainder 2
    ((1,), (0, 1)),        # 1 by a: lower degree, nonzero
    ((3, 1), (0, 2)),      # 3+a by 2a: remainder 3
    ((2, 2), (4,)),        # (a+1)/2: exact over Q, not integral
    ((1, 1), (2, 2)),      # 1/2
    ((0, 3, 3), (0, 2)),   # 3(a+1)/2
])
def test_poly_divexact_rejects_a_quotient_outside_z_a(p, q):
    p, q = AlphaPolynomial(p), AlphaPolynomial(q)
    for divide in (poly_divexact, poly_divexact_q):
        with pytest.raises(ArithmeticError):
            divide(p, q)


def _check_alpha_eval():
    """alpha_eval against num(a0)/den(a0) by Horner over Fraction, on raw
    pairs whose halves differ in degree, at integer and non-integer points."""
    rng = random.Random(23)
    points = [Fraction(-3), Fraction(2), Fraction(-3, 2), Fraction(2, 5),
              Fraction(-4, 3)]
    checked = 0
    for _ in range(400):
        num = AlphaPolynomial(rng.randint(-5, 5)
                              for _ in range(rng.randint(0, 4)))
        den = AlphaPolynomial(rng.randint(-5, 5)
                              for _ in range(rng.randint(1, 4)))
        if not den or num.degree() == den.degree():
            continue
        f = AlphaRational(num, den, _normalized=True)
        for a0 in points:
            dv = poly_at(den, a0)
            if dv:
                assert alpha_eval(f, a0) == poly_at(num, a0) / dv, (f, a0)
                checked += 1
    assert checked > 1000
    # a pole, and a raw 0/0 pair that canonical elements never are
    pole = AlphaRational(AlphaPolynomial((1, 1)),
                         AlphaPolynomial((3, 2)) * AlphaPolynomial((0, 1)),
                         _normalized=True)
    with pytest.raises(PoleError):
        alpha_eval(pole, Fraction(-3, 2))
    raw = AlphaRational(AlphaPolynomial((3, 2)) * AlphaPolynomial((1, 1)),
                        AlphaPolynomial((3, 2)), _normalized=True)
    with pytest.raises(IndeterminateError):
        alpha_eval(raw, Fraction(-3, 2))


def test_alpha_eval_matches_fraction_horner():
    _check_alpha_eval()


def test_alpha_eval_scaled_by_own_degrees_is_caught(monkeypatch):
    # mutant: num scaled by q^(deg num) and den by q^(deg den), not both by
    # q^d; the quotient is then off by a power of q
    scaled_eval = coeffring._scaled_eval
    monkeypatch.setattr(coeffring, "_scaled_eval",
                        lambda c, p, q, n: scaled_eval(c, p, q, len(c)))
    with pytest.raises(AssertionError):
        _check_alpha_eval()


@pytest.mark.parametrize("bad", [1.7, 2.0, Fraction(5, 2), Fraction(4, 2)])
def test_constructor_rejects_non_int_coefficients(bad):
    # int() used to truncate: [1.7, Fraction(5, 2)] became 1 + 2a
    with pytest.raises(TypeError):
        AlphaPolynomial([1, bad])
    with pytest.raises(TypeError):
        AlphaPolynomial([bad])


def test_constructor_accepts_bool():
    p = AlphaPolynomial([True, False, True])
    assert p.coeffs == (1, 0, 1)
    assert all(type(c) is int for c in p.coeffs)


# The ring operations build results through the private constructor
# coeffring._poly and take shortcuts for scalar operands.  Each is checked
# against the reference route: the full convolution or cross product built
# by the public constructor, then _normalize for Q(a).

def _ref_mul(p, q):
    out = [0] * (len(p.coeffs) + len(q.coeffs))
    for i, x in enumerate(p.coeffs):
        for j, y in enumerate(q.coeffs):
            out[i + j] += x * y
    return AlphaPolynomial(out)


def _ref_add(p, q):
    n = max(len(p.coeffs), len(q.coeffs))
    return AlphaPolynomial(
        (p.coeffs[k] if k < len(p.coeffs) else 0)
        + (q.coeffs[k] if k < len(q.coeffs) else 0) for k in range(n))


def _ref_neg(p):
    return AlphaPolynomial(-c for c in p.coeffs)


def _same_poly(got, want):
    assert isinstance(got, AlphaPolynomial)
    assert got.coeffs == want.coeffs
    assert all(type(c) is int for c in got.coeffs)
    assert hash(got) == hash(want)


def _same_rat(got, num, den):
    want_num, want_den = _normalize(num, den)
    _same_poly(got.num, want_num)
    _same_poly(got.den, want_den)


def _check_leading_cancellation():
    g = AlphaPolynomial.gen()
    _same_poly((g + 1) + (-g), AlphaPolynomial((1,)))
    _same_poly(AlphaPolynomial((-3,)) + 3, AlphaPolynomial())
    _same_poly((g + 2) - g, AlphaPolynomial((2,)))


def test_leading_cancellation_trims():
    _check_leading_cancellation()


def test_untrimmed_results_are_caught(monkeypatch):
    # mutant: a private constructor that skips the trim
    def untrimmed(coeffs):
        p = object.__new__(AlphaPolynomial)
        p.coeffs, p._hash = tuple(coeffs), None
        return p

    monkeypatch.setattr(coeffring, "_poly", untrimmed)
    with pytest.raises(AssertionError):
        _check_leading_cancellation()


int_polys = st.builds(AlphaPolynomial, st.lists(st.integers(-3, 3), max_size=4))
scalars = st.integers(-4, 4)


@settings(max_examples=300, deadline=None)
@given(int_polys, int_polys, scalars)
def test_poly_fast_paths_match_reference(p, q, k):
    K = AlphaPolynomial((k,))
    _same_poly(p + q, _ref_add(p, q))
    _same_poly(p * q, _ref_mul(p, q))
    for x in (k, K):  # int and constant-polynomial operands
        _same_poly(p + x, _ref_add(p, K))
        _same_poly(x + p, _ref_add(p, K))
        _same_poly(p * x, _ref_mul(p, K))
        _same_poly(x * p, _ref_mul(p, K))
        _same_poly(p - x, _ref_add(p, _ref_neg(K)))
    _same_poly(k - p, _ref_add(K, _ref_neg(p)))
    _same_poly(-p, _ref_neg(p))


@settings(max_examples=300, deadline=None)
@given(rationals(), scalars,
       st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))
def test_rational_fast_paths_match_reference(x, k, r):
    P, Q = AlphaPolynomial((r.numerator,)), AlphaPolynomial((r.denominator,))
    K = AlphaPolynomial((k,))
    for y in (x * r, r * x):
        _same_rat(y, _ref_mul(x.num, P), _ref_mul(x.den, Q))
    for y in (x * k, k * x):
        _same_rat(y, _ref_mul(x.num, K), x.den)
    for y in (x + k, k + x):
        _same_rat(y, _ref_add(x.num, _ref_mul(x.den, K)), x.den)
    _same_rat(x - k, _ref_add(x.num, _ref_mul(x.den, _ref_neg(K))), x.den)
    # the results stay canonical: rebuilding them changes nothing
    for y in (x * r, x * k, x + k):
        assert AlphaRational(y.num, y.den) == y


@settings(max_examples=300, deadline=None)
@given(int_polys, st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))
def test_poly_with_fraction_is_the_q_a_result(p, r):
    # Z[a] meets Q in Q(a): either order gives the canonical AlphaRational
    P, R = AlphaRational(p), AlphaRational.from_fraction(r)
    for got, want in ((p * r, P * R), (r * p, P * R), (p + r, P + R),
                      (r + p, P + R), (p - r, P - R), (r - p, R - P)):
        assert isinstance(got, AlphaRational)
        _same_rat(got, want.num, want.den)


def _nullspace_dimension(M):
    res = solve_exact(M, [M.entries[0] * 0 if M.entries else Fraction(0)]
                      * M.rows)
    return 0 if isinstance(res, UniqueSolution) else len(res.nullspace)


def test_solve_identity():
    F = Fraction
    M = FieldMatrix(2, 2, [F(1), F(0), F(0), F(1)])
    res = solve_exact(M, [F(1), F(0)])
    assert isinstance(res, UniqueSolution)
    assert res.vector == [F(1), F(0)]


def test_solve_homogeneous_nullspace():
    # a1 = 0, a2 + a3 = 0, a2 - a4 = 0, a1 + a3 + a4 = 0
    F = Fraction
    M = FieldMatrix(4, 4, [
        F(1), F(0), F(0), F(0),
        F(0), F(1), F(1), F(0),
        F(0), F(1), F(0), F(-1),
        F(1), F(0), F(1), F(1)])
    res = solve_exact(M, [F(0)] * 4)
    assert isinstance(res, SolutionSpace)
    assert len(res.nullspace) == 1
    v = res.nullspace[0]
    scaled = [x / v[1] for x in v]
    assert scaled == [F(0), F(1), F(-1), F(1)]
    assert _nullspace_dimension(M) == 1


def test_solve_inconsistent():
    F = Fraction
    M = FieldMatrix(2, 1, [F(1), F(1)])
    res = solve_exact(M, [F(0), F(1)])
    assert isinstance(res, NoSolution)


@st.composite
def systems(draw, entries):
    """Small systems biased toward zeros, with duplicate rows, zero columns
    and right-hand sides that are often inconsistent or zero."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 6))
    rows = [[draw(entries) for _ in range(m)] for _ in range(n)]
    b = [draw(entries) for _ in range(n)]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        src = draw(st.integers(0, n - 1))
        rows.append(list(rows[src]))
        b.append(b[src] if draw(st.booleans()) else draw(entries))
    if m and draw(st.booleans()):
        col = draw(st.integers(0, m - 1))
        for row in rows:
            row[col] = row[col] * 0
    if draw(st.booleans()):
        b = [x * 0 for x in b]
    return FieldMatrix(len(rows), m, [e for row in rows for e in row]), b


fractions = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(1)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


@settings(max_examples=400, deadline=None)
@given(systems(fractions))
def test_solve_matches_dense_oracle_over_q(system):
    M, b = system
    assert solve_exact(M, b) == dense_solve_exact(M, b)


def test_solve_matches_dense_oracle_on_fixed_systems():
    F = Fraction
    cases = [
        (FieldMatrix(2, 2, [F(2), F(1), F(0), F(3)]), [F(1), F(2)]),
        # one witness row of several inconsistent ones
        (FieldMatrix(3, 1, [F(1), F(1), F(2)]), [F(0), F(1), F(1)]),
        # rank-deficient with a zero column and a nullspace
        (FieldMatrix(2, 3, [F(2), F(0), F(1),
                            F(4), F(0), F(2)]), [F(1), F(2)]),
        (FieldMatrix(0, 2, []), []),
        (FieldMatrix(2, 0, []), [F(0), F(1)]),
    ]
    for M, b in cases:
        assert solve_exact(M, b) == dense_solve_exact(M, b)


def test_subs_inverse():
    f = 3 / (a * (2 * a + 1))
    assert f.subs_inverse() == 3 * a * a / (2 + a)
    assert f.subs_inverse().subs_inverse() == f
