import itertools
from fractions import Fraction

import pytest

from superjack import jack
from superjack.coeffring import (ALPHA, ONE, AlphaPolynomial, AlphaRational,
                                 FieldMatrix, PoleError, UniqueSolution,
                                 parse_alpha)
from superjack.jack import (DegenerateSystem, JackExpansion, eigen_check,
                            jack_at, jack_expand, jack_nonsym, jack_poly,
                            jack_symbolic, duality_check, evaluation_direct,
                            evaluation_formula, integral_form, norm_gram,
                            norm_hook, pieri_check, pieri_closed,
                            pieri_direct, removal_identities,
                            symmetrization_check, PIERI_KINDS)
from superjack.ops import apply_D, apply_Delta, cherednik, sekiguchi_S
from superjack.spart import (e_star_poly, e_tilde_poly, enumerate_all_m,
                             enumerate_sparts, epsilon_u, eta_bar,
                             dominance_leq, fermionic_range, parse_spart,
                             partition_dominates, star_pair, v_poly)
from superjack.superpoly import (SuperPolynomial, integral_multiple,
                                 monomial_msym, to_mbasis, vandermonde)
from test_coeffring import _dense_solve_exact

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
    res = _dense_solve_exact(
        FieldMatrix(N * len(basis), len(unknowns), entries), rhs)
    assert isinstance(res, UniqueSolution), eta
    terms = {eta: ONE}
    terms.update((nu, c) for nu, c in zip(unknowns, res.vector) if c)
    return terms


def _compositions(n, N):
    return [c for c in itertools.product(range(n + 1), repeat=N)
            if sum(c) == n]


def test_nonsym_peel_matches_dense_oracle():
    grid = [(n, N) for N in (1, 2, 3) for n in range(6)]
    grid += [(n, 4) for n in range(4)]
    etas = [eta for n, N in grid for eta in _compositions(n, N)]
    assert len(etas) == 118
    for eta in etas:
        assert jack_nonsym(eta).terms == _dense_nonsym(eta), eta


def test_nonsym_reverse_lex_order_is_caught(monkeypatch):
    # reverse-lex puts x^(1,1) before x^(0,2), which sends it to x^(1,1)
    jack_nonsym.cache_clear()
    monkeypatch.setattr(jack, "_compositions_below", _reverse_lex_compositions)
    try:
        with pytest.raises(RuntimeError, match="triangularity broken"):
            jack_nonsym((0, 2))
    finally:
        jack_nonsym.cache_clear()


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
        den = jack._denominator(factors, d)
        c = AlphaRational(num, den)
        if (c.num, c.den) != (num, den):
            bad.append(om)
    return bad


def test_gcd_free_build_matches_rational_oracle():
    for n, m, N in _FAMILIES:
        labels, d_rows, delta_rows = jack._mbasis_matrices(n, m, N)
        want_d, want_delta = {}, {}
        for om in labels:
            mono = monomial_msym(om, N)
            want_d[om] = _two_pass_rows(mono, apply_D)
            want_delta[om] = _two_pass_rows(mono, apply_Delta)
        assert d_rows == want_d, (n, m, N)
        assert delta_rows == want_delta, (n, m, N)
        for L in labels:
            below = _below(L, labels)
            assert jack_symbolic(L, N).coeffs == _rational_peel(
                L, below, want_d, want_delta), (str(L), N)
            found = jack._triangular_peel(L, below,
                                          _sym_pairs(d_rows, delta_rows))
            assert _not_in_lowest_terms(found) == [], (str(L), N)


def test_peel_without_cancellation_is_caught(monkeypatch):
    # a mutant whose synthetic division never divides keeps every factor
    monkeypatch.setattr(jack, "poly_divide_linear", lambda p, f: None)
    caught = []
    for n, m, N in _FAMILIES:
        labels, d_rows, delta_rows = jack._mbasis_matrices(n, m, N)
        for L in labels:
            found = jack._triangular_peel(L, _below(L, labels),
                                          _sym_pairs(d_rows, delta_rows))
            caught += _not_in_lowest_terms(found)
    assert caught


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
    monkeypatch.setattr(jack, "_JACK_CACHE", {})
    monkeypatch.setattr(jack, "e_tilde_poly",
                        lambda S: AlphaPolynomial.const(0))
    with pytest.raises(DegenerateSystem, match="1; vs 0;1"):
        jack_symbolic(L, 2)


def test_clear_caches_then_rebuild():
    labels = [parse_spart(s) for s in (";3", "1;2", "2,0;1")]
    before = {L: jack_symbolic(L, 3).coeffs for L in labels}
    jack_nonsym((0, 1))
    sizes = jack.clear_caches()
    assert set(sizes) == {"_JACK_CACHE", "_mbasis_matrices", "jack_nonsym",
                          "enumerate_sparts"}
    assert all(size > 0 for size in sizes.values()), sizes
    assert set(jack.clear_caches().values()) == {0}
    for L in labels:
        assert jack_symbolic(L, 3).coeffs == before[L]


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


def test_eigen_check_scales_rows_with_denominators(monkeypatch):
    # Conjugating both operators by diag(s) and scaling each coefficient by
    # s_O keeps the eigen-equations; with s_O = 1/(k+1) for the k-th label
    # the rows get integer denominators, as the build allows
    N = 3
    labels, d_rows, delta_rows = jack._mbasis_matrices(3, 1, N)
    L = labels[0]
    s = {om: Fraction(1, k + 1) for k, om in enumerate(labels)}
    conj = [{om: {gm: v * (s[gm] / s[om]) for gm, v in rows[om].items()}
             for om in labels} for rows in (d_rows, delta_rows)]
    assert any(v.den != 1 for rows in conj for row in rows.values()
               for v in row.values())
    P = {om: c * s[om] for om, c in jack_symbolic(L, N).coeffs.items()}
    monkeypatch.setattr(jack, "_mbasis_matrices",
                        lambda n, m, N: (labels, *conj))
    assert P[L] == 1 and eigen_check(JackExpansion(L, N, P)) is None
    lowest = [om for om in labels if om in P][-1]
    P[lowest] = P[lowest] * 2
    assert eigen_check(JackExpansion(L, N, P)) == \
        f"D eigen-equation fails at m_[{lowest}]"
