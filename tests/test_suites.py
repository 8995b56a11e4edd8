"""Pinned reports of the suites that sweep admissible or small labels, and
the Sekiguchi suite's theta_1...theta_m reading against the whole
polynomial."""

import pytest

from superjack import cli, ops, suites
from superjack.coeffring import AlphaPolynomial
from superjack.ideals import char_I
from superjack.jack import jack_poly
from superjack.ops import sekiguchi_S, sekiguchi_S_tilde, theta_part
from superjack.spart import (dominance_leq, enumerate_sparts, epsilon_u,
                             parse_spart, star_pair)
from superjack.suites import (_kronecker_point, _labels, _packed,
                              sekiguchi_verdicts, suite_duality,
                              suite_norm, suite_regularity, suite_sekiguchi,
                              suite_vanishing)
from superjack.superpoly import integral_multiple, monomial_msym

from oracles import enumerate_all_m, sekiguchi_verdicts_whole


@pytest.mark.parametrize("k, r, N, checked", [(1, 2, 3, 28), (2, 3, 4, 16)])
def test_vanishing_report(k, r, N, checked):
    assert suite_vanishing(k, r, N, 6) == (True, {"checked": checked,
                                                  "failures": []})


def test_regularity_reports():
    ok, rep = suite_regularity(1, 3, 2, 6, allow_noncoprime=True)
    assert not ok and rep["checked"] == 47
    assert rep["poles"] == [";2", "2;1", "0;2", ";3,1", "3;2", "1;3", ";4,2",
                            "4;3", "2;4"]
    assert suite_regularity(2, 3, 3, 5) == (True, {"checked": 84, "poles": []})


@pytest.mark.parametrize("suite", [suite_norm, suite_duality])
def test_small_label_sweep_reports(suite):
    assert suite(4) == (True, {"checked": 58, "failures": []})


def test_char_I_series():
    assert char_I(1, 2, 3, 8).series_str() == (
        "(v^2+v^3)*u^3 + (v+2v^2+v^3)*u^4 + (2v+4v^2+2v^3)*u^5 + "
        "(1+4v+6v^2+3v^3)*u^6 + (1+6v+9v^2+4v^3)*u^7 + (2+9v+12v^2+5v^3)*u^8")


@pytest.mark.parametrize("nmax, N, mmax, checked", [(4, 3, 2, 46),
                                                    (3, 4, 1, 21)])
def test_sekiguchi_reports(nmax, N, mmax, checked):
    assert suite_sekiguchi(nmax, N, mmax) == (True, {"checked": checked,
                                                     "failures": []})


@pytest.mark.parametrize("nmax, N, mmax", [(3, 3, 2), (3, 4, 1), (4, 4, 2)])
def test_sekiguchi_theta_part_matches_whole_polynomial(nmax, N, mmax):
    # every Jack, and every mutant P + m_Omega with Omega strictly below L
    A = AlphaPolynomial.gen()
    mutants = 0
    for L in _labels(nmax, N, mmax):
        P = integral_multiple(jack_poly(L, N))
        assert sekiguchi_verdicts(P, L, N, A) == (True, True), str(L)
        assert sekiguchi_verdicts_whole(P, L, N, A) == (True, True), str(L)
        for om in enumerate_sparts(*L.degree(), N):
            if om == L or not dominance_leq(om, L):
                continue
            bad = P + monomial_msym(om, N)
            verdict = sekiguchi_verdicts_whole(bad, L, N, A)
            assert verdict != (True, True), (str(L), str(om))
            assert sekiguchi_verdicts(bad, L, N, A) == verdict, (str(L),
                                                                 str(om))
            mutants += 1
    assert mutants


def _planted_mutants(nmax, N, mmax, shift):
    """(L, P_L + shift * m_Omega) over the labels and every Omega < L."""
    for L in _labels(nmax, N, mmax):
        P = integral_multiple(jack_poly(L, N))
        for om in enumerate_sparts(*L.degree(), N):
            if om != L and dominance_leq(om, L):
                yield L, P + monomial_msym(om, N).scale(shift)


def test_sekiguchi_point_comes_from_the_input():
    # (a - 2) m_Omega vanishes at a = 2, so a point fixed at 2 passes the
    # mutant; the suite's point, above the residual bound, catches it
    A = AlphaPolynomial.gen()
    count = 0
    for L, bad in _planted_mutants(3, 3, 2, A - 2):
        assert sekiguchi_verdicts(_packed(bad, 2), L, 3, 2) == (True, True)
        X, _ = _kronecker_point(bad, L, 3)
        assert sekiguchi_verdicts(_packed(bad, X), L, 3, X) != (True, True)
        count += 1
    assert count


def test_sekiguchi_residuals_stay_below_the_point():
    # every Z[a] coefficient of S(u) head - eps(u) head, and of the same for
    # S-tilde, on each Jack and each mutant P + m_Omega
    A = AlphaPolynomial.gen()
    N = 3
    cases = [(L, integral_multiple(jack_poly(L, N))) for L in _labels(3, N, 2)]
    cases += _planted_mutants(3, N, 2, 1)
    for L, P in cases:
        X, _ = _kronecker_point(P, L, N)
        head = theta_part(P, L.m)
        circ, star = star_pair(L, N)
        for images, lam in [
                (sekiguchi_S(head, A), star),
                ([theta_part(c, L.m) for c in sekiguchi_S_tilde(P, A)], circ)]:
            eps = epsilon_u(lam, N, A)
            assert len(images) == len(eps)
            for image, e in zip(images, eps):
                residual = image - head.scale(e)
                assert all(abs(x) < X for c in residual.terms.values()
                           for x in c.coeffs), str(L)


PACKED_GRIDS = [(3, 3, 2), (3, 4, 1), (4, 3, 2)]


def _jacks_and_mutants(nmax, N, mmax):
    """(L, P_L, True) per label, then (L, P_L + m_Omega, False) per Omega < L."""
    for L in _labels(nmax, N, mmax):
        yield L, integral_multiple(jack_poly(L, N)), True
    for L, bad in _planted_mutants(nmax, N, mmax, 1):
        yield L, bad, False


@pytest.mark.parametrize("nmax, N, mmax", PACKED_GRIDS)
def test_sekiguchi_packed_u_matches_u_list(nmax, N, mmax):
    # at (X, Y) each relation is one integer per term; its verdict is the
    # u-list verdict at X, and every mutant fails
    mutants = 0
    for L, P, exact in _jacks_and_mutants(nmax, N, mmax):
        X, Y = _kronecker_point(P, L, N)
        packed = _packed(P, X)
        verdict = sekiguchi_verdicts(packed, L, N, X, Y)
        assert verdict == sekiguchi_verdicts(packed, L, N, X), str(L)
        assert (verdict == (True, True)) == exact, str(L)
        mutants += not exact
    assert mutants


@pytest.mark.parametrize("nmax, N, mmax", PACKED_GRIDS)
def test_sekiguchi_residuals_stay_below_the_u_point(nmax, N, mmax):
    # each u^k-coefficient delta_k of S(u) head - eps(u) head, and of its
    # S-tilde twin, has a-degree at most d = deg_a P + N and |delta_k(X)| < Y
    A = AlphaPolynomial.gen()
    nonzero = 0
    for L, P, _ in _jacks_and_mutants(nmax, N, mmax):
        X, Y = _kronecker_point(P, L, N)
        d = max(c.degree() for c in P.terms.values()) + N
        head = theta_part(P, L.m)
        circ, star = star_pair(L, N)
        for images, lam in [
                (sekiguchi_S(head, A), star),
                ([theta_part(c, L.m) for c in sekiguchi_S_tilde(P, A)], circ)]:
            for image, e in zip(images, epsilon_u(lam, N, A)):
                for c in (image - head.scale(e)).terms.values():
                    assert c.degree() <= d, str(L)
                    at_x = sum(x * X ** j for j, x in enumerate(c.coeffs))
                    assert abs(at_x) < Y, str(L)
                    nonzero += 1
    assert nonzero


def test_sekiguchi_makes_two_N_cherednik_calls_per_label(monkeypatch):
    # N factors for S and N for S-tilde: a fall back to the u-list route,
    # N(N+1)/2 calls per product, shows here
    calls = []
    cherednik = ops.cherednik

    def spy(*args):
        calls.append(args[1])
        return cherednik(*args)

    monkeypatch.setattr(ops, "cherednik", spy)
    ok, rep = suite_sekiguchi(3, 3, 2)
    assert ok and rep["checked"] == len(list(_labels(3, 3, 2)))
    assert calls == [1, 2, 3] * 2 * rep["checked"]


def test_labels_keep_their_order():
    # the sekiguchi and pieri "checked" counts and the benchmark's item
    # order read this sequence
    for N in range(1, 6):
        for nmax in range(7):
            for mmax in range(N + 1):
                want = [L for n in range(nmax + 1)
                        for L in enumerate_all_m(n, N) if L.m <= mmax]
                assert list(_labels(nmax, N, mmax)) == want, (N, nmax, mmax)


def _off_head_mutant(L, N):
    """P_L with one coefficient changed off its theta_1...theta_m part."""
    P = integral_multiple(jack_poly(L, N))
    head = tuple(range(1, L.m + 1))
    key = next(k for k in P.terms if k[0] != head)
    P.terms[key] += 1
    return P


def test_sekiguchi_guard_rejects_asymmetric_input(monkeypatch, capsys):
    # the change is invisible on the theta_1...theta_m part, so only the
    # symmetry check stands between it and a pass
    L, N = parse_spart("1,0;1"), 3
    bad = _off_head_mutant(L, N)
    A = AlphaPolynomial.gen()
    assert sekiguchi_verdicts_whole(bad, L, N, A) != (True, True)
    with pytest.raises(ArithmeticError, match="not a symmetric"):
        sekiguchi_verdicts(bad, L, N, A)
    monkeypatch.setattr(suites, "jack_poly",
                        lambda M, n: bad if M == L else jack_poly(M, n))
    with pytest.raises(ArithmeticError):
        suite_sekiguchi(2, N, 2)
    assert cli.dispatch(["verify", "--suite", "sekiguchi", "--nmax", "2",
                         "--N", str(N)]) == 3
    capsys.readouterr()


def test_sekiguchi_builds_each_jack_before_its_checks(monkeypatch):
    # the benchmark times each label from one jack_poly call to the next
    events = []

    def spy(name, fn):
        def wrapped(*args):
            events.append(name)
            return fn(*args)
        monkeypatch.setattr(suites, name, wrapped)

    def build(L, N):
        events.append(L)
        return jack_poly(L, N)

    monkeypatch.setattr(suites, "jack_poly", build)
    spy("sekiguchi_S", suites.sekiguchi_S)
    spy("sekiguchi_S_tilde", suites.sekiguchi_S_tilde)
    ok, rep = suite_sekiguchi(3, 3, 2)
    labels = list(_labels(3, 3, 2))
    assert ok and rep["checked"] == len(labels)
    assert events == [e for L in labels
                      for e in (L, "sekiguchi_S", "sekiguchi_S_tilde")]
