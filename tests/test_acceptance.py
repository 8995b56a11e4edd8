"""Acceptance criteria, one test per criterion, all exact arithmetic.

Grid notes pinned up front:
  * the pair (k, r) = (1, 3) listed for criteria 9-10 violates the
    gcd(k+1, r-1) = 1 hypothesis every regularity/stability statement rests
    on; the library refuses it without an explicit override.  Criteria 9-10
    assert cleanliness on the three coprime pairs and additionally assert the
    *documented* breakage of the non-coprime pair (see decisions ledger);
  * the middle coefficient of the first displayed expansion is pinned to
    3/(2a+1); the printed source carries a stray deformation factor there,
    refuted by the integral-form positivity it is supposed to illustrate.
"""

from fractions import Fraction

from superjack.coeffring import ONE, parse_alpha
from superjack.ideals import cluster_multiplicity, dim_F, harness_I_eq_F
from superjack.jack import (integral_form, jack_at, jack_symbolic,
                            norm_gram, norm_hook)
from superjack.spart import enumerate_all_m, is_admissible, parse_spart
from superjack.suites import (suite_algebra, suite_cochain, suite_duality,
                              suite_pieri, suite_regularity, suite_sekiguchi,
                              suite_stability, suite_vanishing)
from superjack.superpoly import SuperPolynomial

from oracles import swap_K, vandermonde

COPRIME_PAIRS = [(1, 2), (2, 2), (2, 3)]
NONCOPRIME_PAIR = (1, 3)  # listed in the criterion grid; gcd(k+1, r-1) = 2


def _report(num, ok, note=""):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {state}{' - ' + note if note else ''}")
    assert ok, f"criterion {num} failed: {note}"


def test_criterion_01_lowest_expansion():
    J = jack_symbolic(parse_spart(";3"), 3)
    ok = (J.coeffs[parse_spart(";3")] == ONE
          and J.coeffs[parse_spart(";2,1")] == parse_alpha("3/(2*a+1)")
          and J.coeffs[parse_spart(";1,1,1")]
          == parse_alpha("6/((a+1)*(2*a+1))"))
    # the positivity the display illustrates rules out the stray factor
    _, natural = integral_form(parse_spart(";3"), 3)
    _report(1, ok and natural,
            "middle coefficient 3/(2a+1); printed stray 1/a factor refuted "
            "by integral-form positivity (see ledger)")


def test_criterion_02_squared_vandermonde():
    P = jack_at(parse_spart(";4,2"), 3, Fraction(-2)).polynomial()
    V = vandermonde(3, 3)
    _report(2, P == V * V)


def test_criterion_03_two_cluster_identification():
    P = jack_at(parse_spart(";4,3,1"), 4, Fraction(-3, 2)).polynomial()
    merged = P.merge_x((2,), 1)
    x = lambda i: SuperPolynomial.x(i, 4)
    g, h = x(4) - x(1), x(3) - x(1)
    target = x(1).scale(2) * (x(3) + x(4)) * (g * g * g) * (h * h * h)
    _report(3, merged == target)


def test_criterion_04_sekiguchi_pair():
    ok_all = True
    checked = 0
    for N in (1, 2, 3, 4):
        ok, rep = suite_sekiguchi(5, N, 2)
        ok_all = ok_all and ok
        checked += rep["checked"]
    _report(4, ok_all, f"{checked} labels, identities in u")


def test_criterion_05_norm_hook_vs_gram():
    from superjack.spart import enumerate_sparts
    ok = True
    for n in range(5):
        m = 0
        while m * (m - 1) // 2 <= n:
            for L in enumerate_sparts(n, m, max(n + m, 1)):
                if norm_hook(L) != norm_gram(L, max(n + m, 1)):
                    ok = False
            m += 1
    _report(5, ok)


def test_criterion_06_evaluation():
    from superjack.jack import evaluation_direct, evaluation_formula
    ok = True
    checked = 0
    for N in range(1, 6):
        for n in range(6):
            for L in enumerate_all_m(n, N):
                checked += 1
                if evaluation_formula(L, N) != evaluation_direct(L, N):
                    ok = False
    _report(6, ok, f"{checked} (label, N) pairs")


def test_criterion_07_pieri():
    ok = True
    for N in range(2, 6):
        good, _ = suite_pieri(4, N, 2)
        ok = ok and good
    # the worked coefficient from the displayed diagram example
    from superjack.jack import pieri_closed
    want = parse_alpha("-(2+2*a)*(1+2*a)*a/((3+2*a)*(2+2*a)*(1+a))")
    ok = ok and pieri_closed("p0", parse_spart("1;2,2"), 4)[
        parse_spart("1,0;2,2")] == want
    _report(7, ok)


def test_criterion_08_duality():
    ok, rep = suite_duality(4)
    _report(8, ok, f"{rep['checked']} labels at faithful N")


def test_criterion_09_ideal_stability():
    ok = True
    for (k, r) in COPRIME_PAIRS:
        for N in range(2, 5):
            good, rep = suite_stability(k, r, N, 6)
            if not good:
                ok = False
    # the non-coprime grid entry is a spec defect: the span demonstrably
    # fails to be an ideal there, which we assert as documented behavior
    k, r = NONCOPRIME_PAIR
    bad, rep = suite_stability(k, r, 2, 6, allow_noncoprime=True)
    _report(9, ok and not bad,
            "clean on (1,2),(2,2),(2,3), N<=4, n<=6; (1,3) violates "
            "coprimality and provably breaks (ledger)")


def test_criterion_10_regularity():
    ok = True
    for (k, r) in COPRIME_PAIRS:
        for N in range(2, 5):
            good, rep = suite_regularity(k, r, N, 6)
            if not good:
                ok = False
    # non-coprime: almost-admissible labels hit poles, as the hypotheses
    # predict, while the admissible ones happen to stay regular on this grid
    k, r = NONCOPRIME_PAIR
    almost_ok, rep = suite_regularity(k, r, 2, 6, allow_noncoprime=True)
    adm_ok = not any(is_admissible(parse_spart(p), k, r, 2)
                     for p in rep["poles"])
    _report(10, ok and adm_ok and not almost_ok,
            "admissible+almost-admissible pole-free on coprime pairs; "
            "(1,3) almost-admissible poles documented (ledger)")


def test_criterion_11_characters():
    # ten spot checks against the printed series (positions chosen away from
    # the one defective print, see ledger)
    spots = [
        (1, 3, 3, {0: 0, 1: 0, 2: 1, 3: 1}),            # (v^2+v^3) u^3
        (1, 3, 6, {0: 1, 1: 4, 2: 6, 3: 3}),            # 1+4v+6v^2+3v^3
        (2, 4, 4, {0: 1, 1: 3, 2: 4, 3: 2}),            # 1+3v+4v^2+2v^3
        (1, 2, 2, {0: 1, 1: 2, 2: 1}),                  # 1+2v+v^2
        (1, 2, 5, {0: 2, 1: 5, 2: 3}),                  # 2+5v+3v^2
        (2, 3, 2, {0: 1, 1: 3, 2: 2}),                  # 1+3v+2v^2
        (2, 5, 5, {1: 0, 2: 1, 3: 1}),                  # (v^2+v^3) u^5
        (3, 4, 3, {0: 2, 1: 6, 2: 5, 3: 1}),            # 2+6v+5v^2+v^3
        (3, 5, 3, {0: 0, 1: 1, 2: 2, 3: 1}),            # v+2v^2+v^3
        (3, 6, 5, {0: 0, 1: 1, 2: 2, 3: 1}),            # v+2v^2+v^3
        (1, 4, 6, {2: 0, 3: 1, 4: 1}),                  # (v^3+v^4) u^6
    ]
    ok = True
    for k, N, n, coeffs in spots:
        for m, want in coeffs.items():
            got = dim_F(k, N, n, m)
            if got != want:
                ok = False
    ok = ok and dim_F(1, 3, 3, 2) == 1
    # coefficientwise equality of the two characters
    for k in (1, 2):
        for N in range(k + 1, 5):
            rep = harness_I_eq_F(k, N, 8)
            if not rep["equal"]:
                ok = False
    _report(11, ok, "11 printed positions + char equality to degree 8")


def test_criterion_12_vanishing():
    ok = True
    for (k, r) in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        for N in range(2, 6):
            good, rep = suite_vanishing(k, r, N, 6)
            ok = ok and good
    _report(12, ok, "all coprime (k, r <= 3) pairs, n <= 6, N <= 5")


def test_criterion_13_cluster_multiplicities():
    r1 = cluster_multiplicity(parse_spart("2;4,1"), 2, 3, 4, (2, 3), 1)
    r2 = cluster_multiplicity(parse_spart("2;4,1"), 2, 3, 4, (2, 3), 4)
    r3 = cluster_multiplicity(parse_spart("1;3,1"), 3, 2, 5, (2, 3, 4), 5)
    r4 = cluster_multiplicity(parse_spart("1;3,1"), 3, 2, 5, (2, 3, 4), 1)
    r5 = cluster_multiplicity(parse_spart("1;3,1"), 3, 2, 4, (2, 3, 4), 1)
    r6 = cluster_multiplicity(parse_spart(";4,2"), 2, 3, 3, (2, 3), 1)
    ok = ((r1.multiplicity, r1.a) == (2, 1)
          and (r2.multiplicity, r2.a) == (3, 0)
          and (r3.multiplicity, r3.a) == (2, 0)
          and (r4.multiplicity, r4.a) == (1, 1)
          and r5.multiplicity == 2 and r5.expected == 1   # N < k+m+1 caveat
          and r6.multiplicity == 4 and r6.expected == 3)  # zero order r+1
    _report(13, ok)


def test_criterion_14_property_suites():
    ok, rep = suite_algebra(2)
    ok2, rep2 = suite_cochain(1, 2, 3, 5, "q")
    ok3, rep3 = suite_cochain(1, 2, 3, 5, "q_tilde")
    # Cherednik commutativity/Hecke and dominance/conjugation dualities are
    # exercised in the module suites; re-run the compact versions here
    import random
    from superjack.coeffring import ALPHA
    from superjack.ops import cherednik
    from superjack.spart import conjugate, dominance_leq
    rng = random.Random(2026)
    f = SuperPolynomial(3)
    for _ in range(4):
        T = tuple(sorted(rng.sample(range(1, 4), rng.randint(0, 2))))
        e = tuple(rng.randint(0, 2) for _ in range(3))
        f._iadd_term((T, e), rng.randint(-2, 2))
    comm_ok = all(
        cherednik(cherednik(f, j, ALPHA), i, ALPHA)
        == cherednik(cherednik(f, i, ALPHA), j, ALPHA)
        for i in range(1, 4) for j in range(i + 1, 4))
    hecke_ok = all(
        cherednik(swap_K(f, i, i + 1), i, ALPHA)
        - swap_K(cherednik(f, i + 1, ALPHA), i, i + 1) == f
        for i in range(1, 3))
    dom_ok = True
    labels = enumerate_all_m(4, 4)
    for A in labels:
        for B in labels:
            if dominance_leq(A, B) != dominance_leq(conjugate(B), conjugate(A)):
                dom_ok = False
    _report(14, ok and ok2 and ok3 and comm_ok and hecke_ok and dom_ok)
