from fractions import Fraction

import pytest

from superjack import ideals, ops, superpoly
from superjack.cli import dispatch
from superjack.coeffring import (FieldMatrix, NoSolution, PoleError,
                                 UniqueSolution)
from superjack.ideals import (CharacterSeries, DegreeBasis, NotInSpan,
                              NotUnitriangular, alpha_kr,
                              cluster_multiplicity, cochain_check,
                              degree_basis, dim_F, ideal_basis, membership,
                              prescribed_vanish_check, rank_of,
                              stability_suite, vanish_check)
from superjack.jack import jack_at
from superjack.spart import (enumerate_admissible, enumerate_sparts,
                             fermionic_range, is_admissible,
                             parse_spart)
from superjack.suites import suite_conjecture_IF, suite_conjecture_rma
from superjack.superpoly import (SuperPolynomial, from_mbasis, power_sum,
                                 to_mbasis)
from oracles import (cluster_order_expanded, cochain_check_expanded,
                     dense_solve_exact, dim_F_expanded, enumerate_all_m,
                     prescribed_vanish_check_expanded,
                     stability_suite_expanded, vanish_check_expanded)


def test_alpha_kr():
    assert alpha_kr(1, 2) == Fraction(-2)
    assert alpha_kr(2, 3) == Fraction(-3, 2)
    assert alpha_kr(3, 2) == Fraction(-4)


def test_ideal_basis_lowest_degrees():
    basis = ideal_basis(1, 2, 3, 3)
    # the unique element of lowest total degree sits at (3|2)
    assert sorted(basis) == [(3, 2), (3, 3)]
    labels = [str(L) for L in basis[(3, 2)].columns]
    assert labels == ["2,1;"]
    # degree (0|1): the lone-circle label fails admissibility, matching the
    # absence of constant terms in the graded dimension series
    assert not is_admissible(parse_spart("0;"), 1, 2, 2)


def test_membership_basics():
    basis = degree_basis(1, 2, 3, 3, 2)
    (label, coords), = basis.columns.items()
    assert membership(coords, basis) == {label: Fraction(1)}
    assert membership({}, basis) == {}
    with pytest.raises(NotInSpan):
        membership(to_mbasis(power_sum(1, 3)), basis)


def test_membership_in_an_empty_degree():
    assert (1, 0) not in ideal_basis(1, 2, 3, 3)
    empty = degree_basis(1, 2, 3, 1, 0)
    assert isinstance(empty, DegreeBasis) and not empty.columns
    with pytest.raises(NotInSpan) as exc:
        membership(to_mbasis(power_sum(1, 3)), empty)
    assert str(exc.value.label) == ";1"


def _dense_membership(coords, basis):
    """Oracle: one dense solve over every expanded (theta, exponent) term of
    the polynomials the m-coordinates stand for.

    Returns the coefficient dict, or None when f is outside the span."""
    if not coords:
        return {}
    f = from_mbasis(coords, basis.N)
    polys = [from_mbasis(c, basis.N) for c in basis.columns.values()]
    keys = sorted({key for g in polys + [f] for key in g.terms})
    entries = [Fraction(g.terms.get(key, 0)) for key in keys for g in polys]
    rhs = [Fraction(f.terms.get(key, 0)) for key in keys]
    res = dense_solve_exact(FieldMatrix(len(keys), len(polys), entries), rhs)
    if isinstance(res, NoSolution):
        return None
    vector = res.vector if isinstance(res, UniqueSolution) else res.particular
    return {L: c for L, c in zip(basis.columns, vector) if c}


def _mcoord_membership(coords, basis):
    """Oracle: one `_span_solve` over the basis's monomial coordinates."""
    if not coords:
        return {}
    res = ideals._span_solve(list(basis.columns.values()), coords)
    if isinstance(res, NoSolution):
        return None
    vector = res.vector if isinstance(res, UniqueSolution) else res.particular
    return {L: c for L, c in zip(basis.columns, vector) if c}


@pytest.mark.parametrize("k, r, N, nmax, noncoprime",
                         [(1, 2, 3, 5, False), (1, 3, 2, 6, True),
                          (2, 3, 3, 5, False)])
def test_membership_matches_dense_oracle(monkeypatch, k, r, N, nmax,
                                         noncoprime):
    # every operator image and restriction piece of the stability suite:
    # the peel against the m-coordinate solve and the expanded-term solve
    real = ideals.membership
    seen = {"in": 0, "out": 0}

    def differential(coords, basis):
        want = _mcoord_membership(coords, basis)
        assert _dense_membership(coords, basis) == want
        try:
            got = real(coords, basis)
        except NotInSpan as exc:
            got = None
            assert exc.label is not None
            assert exc.label not in basis.columns
        assert got == want, (coords, [str(L) for L in basis.columns])
        seen["out" if got is None else "in"] += 1
        if got is None:
            raise NotInSpan("outside the span", residual=coords)
        return got

    monkeypatch.setattr(ideals, "membership", differential)
    rep = stability_suite(k, r, N, nmax)
    assert seen["in"] > 50
    assert seen["out"] == len(rep["violations"])
    assert bool(seen["out"]) == noncoprime


def _membership_calls(monkeypatch, run):
    """run()'s result and every (m-coordinates, N, basis labels) it sends to
    `ideals.membership`, in order."""
    real = ideals.membership
    calls = []

    def recording(coords, basis):
        calls.append((coords, basis.N, list(basis.columns)))
        return real(coords, basis)

    with monkeypatch.context() as patch:
        patch.setattr(ideals, "membership", recording)
        return run(), calls


def _assert_routes_agree(monkeypatch, new, old):
    """Same report and the same membership inputs from both routes; returns
    the report."""
    got, got_calls = _membership_calls(monkeypatch, new)
    want, want_calls = _membership_calls(monkeypatch, old)
    assert got == want
    assert got_calls == want_calls
    return got


# the membership-oracle grids, then criterion 9: (1,2), (2,2) and (2,3) at
# N = 2, 3, 4 and nmax = 6 (its non-coprime (1,3) N=2 entry is listed above)
STABILITY_GRIDS = [(1, 2, 3, 5, False), (1, 3, 2, 6, True),
                   (2, 3, 3, 5, False)] + [
    (k, r, N, 6, False) for k, r in ((1, 2), (2, 2), (2, 3))
    for N in (2, 3, 4)]


@pytest.mark.parametrize("k, r, N, nmax, noncoprime", STABILITY_GRIDS)
def test_column_route_matches_expanded_route(monkeypatch, k, r, N, nmax,
                                             noncoprime):
    # operator columns on m-coordinates against the operator applied to the
    # expanded P_L: same checked count, ordered violations and images; only
    # the non-coprime grid breaks
    rep = _assert_routes_agree(
        monkeypatch, lambda: stability_suite(k, r, N, nmax),
        lambda: stability_suite_expanded(k, r, N, nmax))
    assert bool(rep["violations"]) == noncoprime


@pytest.mark.parametrize("nmax", [5, 6])
@pytest.mark.parametrize("d", ["q", "q_tilde"])
def test_cochain_column_route_matches_expanded_route(monkeypatch, d, nmax):
    _assert_routes_agree(monkeypatch,
                         lambda: cochain_check(1, 2, 3, nmax, d),
                         lambda: cochain_check_expanded(1, 2, 3, nmax, d))


def test_scaled_column_entry_fails_the_differential(monkeypatch):
    # mutant: one entry of the first column the suite builds, doubled
    real = superpoly.to_mbasis
    scaled = []

    def mutant(f, verify=True):
        col = real(f, verify=verify)
        if col and not scaled:
            G = next(iter(col))
            col[G] *= 2
            scaled.append(G)
        return col

    monkeypatch.setattr(superpoly, "to_mbasis", mutant)
    with pytest.raises(AssertionError):
        _assert_routes_agree(
            monkeypatch, lambda: stability_suite(1, 2, 3, 5),
            lambda: stability_suite_expanded(1, 2, 3, 5))
    assert scaled


def test_dropped_basis_element_is_missed():
    # (2|1) N=3 at (k,r) = (1,2): drop each element in turn; the element
    # itself and every image that uses it fall outside the rest
    k, r, N = 1, 2, 3
    source = degree_basis(k, r, N, 4, 1)
    target = degree_basis(k, r, N, 5, 1)
    assert len(target.columns) > 1
    images = [to_mbasis(power_sum(1, N) * from_mbasis(coords, N))
              for coords in source.columns.values()]
    used = 0
    for label, coords in target.columns.items():
        rest = DegreeBasis(N, {L: c for L, c in target.columns.items()
                               if L != label}, target.rank)
        with pytest.raises(NotInSpan) as exc:
            membership(coords, rest)
        assert exc.value.label == label
        assert _mcoord_membership(coords, rest) is None
        for img in images:
            if label in membership(img, target):
                used += 1
                with pytest.raises(NotInSpan):
                    membership(img, rest)
                assert _mcoord_membership(img, rest) is None
                assert _dense_membership(img, rest) is None
    assert used


def test_stuck_peel_contradicted_by_the_solve_exits_3(monkeypatch, capsys):
    argv = ["verify", "--suite", "stability", "--k", "1", "--r", "3",
            "--N", "2", "--nmax", "4", "--allow-noncoprime"]
    assert dispatch(argv) == 1
    monkeypatch.setattr(ideals, "solve_exact",
                        lambda M, b: UniqueSolution([Fraction(0)] * M.cols))
    assert dispatch(argv) == 3
    assert "NotUnitriangular" in capsys.readouterr().err


def _mutant_columns():
    basis = degree_basis(1, 2, 3, 5, 1)
    columns = basis.columns
    assert len(columns) > 1
    top, *_, low = columns
    above = enumerate_sparts(5, 1, 3)[0]
    assert above not in columns[low]
    yield {**columns, top: {G: 2 * c for G, c in columns[top].items()}}
    yield {**columns, low: {**columns[low], above: 1}}


@pytest.mark.parametrize("columns", list(_mutant_columns()),
                         ids=["scaled by 2", "term above its label"])
def test_non_unitriangular_columns_are_rejected(columns):
    # refused when the basis is built, before any peel reads it
    rank = degree_basis(1, 2, 3, 5, 1).rank
    with pytest.raises(NotUnitriangular):
        DegreeBasis(3, columns, rank)


def test_stability_checks_each_column_once(monkeypatch):
    # one suite call: each (action, O) column is symmetry-checked and read
    # once, m_O is built once per O, and no whole image is symmetry-checked
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

    monkeypatch.setattr(SuperPolynomial, "is_symmetric", check)
    monkeypatch.setattr(superpoly, "to_mbasis", reading)
    monkeypatch.setattr(superpoly, "monomial_msym", building)
    monkeypatch.setattr(superpoly, "combine", combining)
    rep = stability_suite(1, 3, 2, 6)
    assert len(rep["violations"]) == 51
    # the polynomials checked are exactly the columns read, in order
    assert len(checked) == len(read) == sum(map(len, used.values()))
    assert all(f is g for f, g in zip(checked, read))
    assert len(monomials) == len(set(monomials))
    assert {om for om, _ in monomials} == set().union(*used.values())


def test_nonsymmetric_operator_image_exits_3(monkeypatch, capsys):
    # mutant: q leaves symmetric input; the column check is an internal
    # inconsistency (exit 3), not a counterexample (exit 1)
    real = ops.q_op

    def mutant(f, alpha=None):
        return real(f, alpha) + SuperPolynomial.x(1, f.N)

    monkeypatch.setattr(ops, "q_op", mutant)
    code = dispatch(["verify", "--suite", "stability", "--k", "1", "--r", "2",
                     "--N", "3", "--nmax", "4"])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "ArithmeticError" in err and "q maps m_[" in err


def test_ideal_closed_under_p1():
    k, r, N = 1, 2, 3
    a0 = alpha_kr(k, r)
    for n in range(6):
        for L in enumerate_all_m(n, N):
            if not is_admissible(L, k, r, N):
                continue
            f = power_sum(1, N) * jack_at(L, N, a0).polynomial()
            target = degree_basis(k, r, N, n + 1, L.m)
            membership(to_mbasis(f), target)  # raises on failure


def test_stability_suite_clean():
    rep = stability_suite(1, 2, 3, 5)
    assert rep["violations"] == []
    assert rep["checked"] > 100


def test_stability_detects_noncoprime_breakage():
    # with gcd(k+1, r-1) > 1 the span is genuinely not an ideal
    rep = stability_suite(1, 3, 2, 4)
    assert rep["violations"]


def test_characters_appendix_values():
    assert dim_F(1, 3, 3, 2) == 1
    # u^3 coefficient of the N=3, k=1 series: v^2 + v^3
    assert [dim_F(1, 3, 3, m) for m in range(4)] == [0, 0, 1, 1]
    # u^2 coefficient of the N=2, k=1 series: 1 + 2v + v^2
    assert [dim_F(1, 2, 2, m) for m in range(3)] == [1, 2, 1]


# (k, N, nmax) grids on which the column and the expanded dim F are compared
DIM_F_GRIDS = [(1, 3, 8), (2, 4, 8), (1, 4, 8), (3, 5, 9)]


def _dim_F_faults():
    """The (k, N, n, m) of the grids where the two routes to dim F differ."""
    return {(k, N, n, m) for k, N, nmax in DIM_F_GRIDS
            for n in range(nmax + 1) for m in fermionic_range(n, N)
            if dim_F(k, N, n, m) != dim_F_expanded(k, N, n, m)}


def test_dim_F_columns_match_expanded_route():
    assert _dim_F_faults() == set()


def test_coincidence_columns_reading_c0_only_are_caught(monkeypatch):
    # c = 0 alone misses the sets through 1..m, and at m + k + 1 > N there is
    # no c = 0 set at all
    columns = ideals._coincidence_columns
    monkeypatch.setattr(ideals, "_coincidence_columns",
                        lambda labels, size, m, N, cmax:
                        columns(labels, size, m, N, 0))
    faults = _dim_F_faults()
    assert faults and all(m for _, _, _, m in faults)


def test_character_series_formatting():
    s = CharacterSeries({(1, 1): 1, (2, 0): 1, (2, 1): 2, (2, 2): 1}, 2)
    assert s.series_str() == "(v)*u + (1+2v+v^2)*u^2"


def test_char_equality_small():
    _, rep = suite_conjecture_IF(1, 2, 6)
    assert rep["equal"], rep["mismatches"]
    _, rep = suite_conjecture_IF(1, 3, 6)
    assert rep["equal"], rep["mismatches"]


def test_vanishing_squared_vandermonde():
    assert vanish_check(parse_spart(";4,2"), 1, 2, 3)


def test_vanishing_eq4310_identification():
    # two coinciding variables kill nothing less than the full product form
    L = parse_spart(";4,3,1")
    P = jack_at(L, 4, Fraction(-3, 2)).polynomial()
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
    P = jack_at(L, 2, alpha_kr(1, 2)).polynomial()
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


@pytest.mark.parametrize("cluster", [(2,), (2, 3, 4)])
def test_cluster_of_other_size_than_k_is_rejected(cluster):
    # the predicted order r - a holds for a cluster of exactly k variables;
    # these used to print an order ("EXCEPTION", "vanishes")
    with pytest.raises(ValueError, match="exactly k = 2"):
        cluster_multiplicity(parse_spart("2;4,1"), 2, 3, 4, cluster, 1)


def test_cluster_computes_outside_coprimality():
    # gcd(k+1, r-1) = 2: the library computes, and a = -1 is a pole; the
    # command line rejects the pair (test_cli::test_cluster_noncoprime_exit_code)
    with pytest.raises(PoleError):
        cluster_multiplicity(parse_spart(";2"), 1, 3, 3, (1,), 3)


# criterion 12's grid: every coprime (k, r) with k, r <= 3, N <= 5, n <= 6
VANISHING_GRID = [(k, r, N) for k, r in ((1, 2), (2, 2), (3, 2), (2, 3))
                  for N in range(k + 1, 6)]


def _vanishing_verdicts(check, wrong_a0: bool) -> dict:
    """check's verdict on each label of the grid, keyed (k, r, N, label).
    wrong_a0 moves a0 to -(k+1)/r for both routes; a label with a pole there
    is left out."""
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        if wrong_a0:
            patch.setattr(ideals, "alpha_kr",
                          lambda k, r: Fraction(-(k + 1), r))
        for k, r, N in VANISHING_GRID:
            for L in enumerate_admissible(k, r, N, 6):
                try:
                    out[(k, r, N, L)] = check(L, k, r, N)
                except PoleError:
                    pass
    return out


@pytest.fixture(scope="module")
def expanded_verdicts():
    """The expanded routes' verdicts, by (check name, wrong_a0)."""
    return {(check.__name__, wrong): _vanishing_verdicts(oracle, wrong)
            for check, oracle in (
                (vanish_check, vanish_check_expanded),
                (prescribed_vanish_check, prescribed_vanish_check_expanded))
            for wrong in (False, True)}


@pytest.mark.parametrize("wrong_a0", [False, True])
@pytest.mark.parametrize("check", [vanish_check, prescribed_vanish_check])
def test_block_class_route_matches_expanded_route(expanded_verdicts, check,
                                                  wrong_a0):
    want = expanded_verdicts[(check.__name__, wrong_a0)]
    assert _vanishing_verdicts(check, wrong_a0) == want
    # 578 labels at a0; at the wrong a0 the labels without a pole, many of
    # which do not vanish, so the comparison sees both verdicts
    assert len(want) == (419 if wrong_a0 else 578)
    if wrong_a0 or check is prescribed_vanish_check:
        assert not all(want.values())


def _block_sets_keeping(keep):
    """A mutant `_block_sets` that yields only the sets whose count c of
    indices in 1..m passes keep(c)."""
    blocks = ideals._block_sets
    return lambda size, m, N: (S for S in blocks(size, m, N)
                               if keep(sum(i <= m for i in S)))


@pytest.mark.parametrize("check, keep, wrong_a0", [
    (vanish_check, lambda c: c == 0, True),
    (vanish_check, lambda c: c == 1, True),
    (prescribed_vanish_check, lambda c: c <= 1, False)],
    ids=["full-c0-only", "full-c1-only", "prescribed-c-le-1"])
def test_block_class_mutants_disagree(monkeypatch, expanded_verdicts, check,
                                      keep, wrong_a0):
    monkeypatch.setattr(ideals, "_block_sets", _block_sets_keeping(keep))
    want = expanded_verdicts[(check.__name__, wrong_a0)]
    got = _vanishing_verdicts(check, wrong_a0)
    assert any(got[key] != v for key, v in want.items())


CRITERION_13_CLUSTERS = [("2;4,1", 2, 3, 4, (2, 3), 1),
                         ("2;4,1", 2, 3, 4, (2, 3), 4),
                         ("1;3,1", 3, 2, 5, (2, 3, 4), 5),
                         ("1;3,1", 3, 2, 5, (2, 3, 4), 1),
                         ("1;3,1", 3, 2, 4, (2, 3, 4), 1),
                         (";4,2", 2, 3, 3, (2, 3), 1)]


@pytest.mark.parametrize("label, k, r, N, cluster, primed",
                         CRITERION_13_CLUSTERS)
def test_cluster_column_route_matches_expanded_route(label, k, r, N, cluster,
                                                     primed):
    L = parse_spart(label)
    assert cluster_multiplicity(L, k, r, N, cluster, primed).multiplicity \
        == cluster_order_expanded(L, k, r, N, cluster, primed)


def test_conjecture_rma_rows_match_expanded_route():
    ok, rep = suite_conjecture_rma(2, 3, 4, 6)
    assert ok and len(rep["rows"]) == 49
    assert any(row["zero"] for row in rep["rows"])
    for row in rep["rows"]:
        assert row["s"] == cluster_order_expanded(
            parse_spart(row["label"]), 2, 3, 4, row["cluster"],
            row["primed"]), row


def test_cochain_q_and_qtilde():
    for d in ("q", "q_tilde"):
        rep = cochain_check(1, 2, 3, 5, d)
        assert rep["failures"] == [], d
        assert all(e["exact"] for e in rep["exactness"]), d
    with pytest.raises(ValueError):
        cochain_check(1, 2, 3, 5, "qt")


def test_cochain_builds_each_target_basis_once(monkeypatch):
    calls = []
    build = ideals.degree_basis

    def counting(k, r, N, n, m, **kw):
        calls.append((N, n, m))
        return build(k, r, N, n, m, **kw)

    monkeypatch.setattr(ideals, "degree_basis", counting)
    basis = ideal_basis(1, 2, 3, 6)
    built = len(calls)
    calls.clear()
    for d in ("q", "q_tilde"):
        rep = cochain_check(1, 2, 3, 6, d)
        assert rep["failures"] == [], d
        # the ideal basis itself, then at most one target per source degree
        assert built <= len(calls) <= built + len(basis), d
        assert len(calls) == len(set(calls)), d
        calls.clear()


def test_clustering_harness_small():
    _, rep = suite_conjecture_rma(1, 2, 3, 5)
    assert rep["exceptions_in_bounds"] == []
    for row in rep["rows"]:
        if not row["zero"]:
            assert row["divides"], row


def test_rank_of():
    x1 = SuperPolynomial.x(1, 2)
    x2 = SuperPolynomial.x(2, 2)
    assert rank_of([x1.terms, x2.terms, (x1 + x2).terms]) == 2
    assert rank_of([]) == 0
