import itertools

import pytest

from superjack.coeffring import ALPHA, AlphaPolynomial, AlphaRational
from superjack.spart import (SuperPartition, add_circle_moves,
                             almost_admissible_variants, arm, cells,
                             check_kr, circle_to_square_moves, conjugate,
                             dominance_leq,
                             enumerate_admissible, enumerate_all_m,
                             enumerate_sparts, epsilon_u, fermionic_range,
                             is_admissible, leg, lower_hook, parse_spart,
                             remove_circle_moves, square_to_circle_moves,
                             star_pair, to_overpartition, upper_hook)

from oracles import dominance_leq_shapes, eta_bar, tilde_composition


def test_star_pair_display_example():
    L = parse_spart("5,3,1,0;4,3")
    circ, star = star_pair(L, 7)
    assert circ == (6, 4, 4, 3, 2, 1, 0)
    assert star == (5, 4, 3, 3, 1, 0, 0)


def test_star_pair_edge_cases():
    assert star_pair(parse_spart(";"), 3) == ((0, 0, 0), (0, 0, 0))
    assert star_pair(parse_spart("0;"), 1) == ((1,), (0,))
    with pytest.raises(ValueError):
        star_pair(parse_spart("1,0;"), 1)


def test_parse_both_grammars():
    L = parse_spart("(5o,4,3o,3,1o,0o,0)")
    assert L == parse_spart("5,3,1,0;4,3")
    assert parse_spart(L.circled_str()) == L
    assert parse_spart(";") == SuperPartition((), ())


def test_invalid_labels_rejected():
    with pytest.raises(ValueError):
        SuperPartition((1, 1), ())
    with pytest.raises(ValueError):
        SuperPartition((), (1, 2))
    with pytest.raises(ValueError):
        SuperPartition((), (1, 0))


def test_equal_labels_hash_equal_and_cache_the_computed_hash():
    labels = [L for n in range(5) for m in range(3)
              for L in enumerate_sparts(n, m, 4)]
    for L in labels:
        twin = parse_spart(str(L))
        assert twin == L and twin is not L
        assert hash(twin) == hash(L) == L._hash == hash((L.antisym, L.sym))
    twins = {parse_spart(str(L)) for L in labels}
    assert len(set(labels)) == len(twins | set(labels)) == len(labels)


def test_conjugate_display_example():
    L = parse_spart("5,3,1,0;4,3")
    assert L.circled == (6, 4, 4, 3, 2, 1)
    C = conjugate(L)
    assert C.circled == (6, 5, 4, 3, 1, 1)
    assert C.star == (5, 4, 4, 2, 1, 0)  # conjugate gains a circled zero row
    assert conjugate(parse_spart(";")) == parse_spart(";")


def test_conjugate_involutive_exhaustive():
    for n in range(7):
        for L in enumerate_all_m(n, 6):
            assert conjugate(conjugate(L)) == L


def test_strip_property_of_enumerated_labels():
    # circled/starred always differ by a simultaneous horizontal+vertical strip
    for n in range(7):
        for L in enumerate_all_m(n, 6):
            circ, star = star_pair(L, max(L.length, 1))
            assert all(c - s in (0, 1) for c, s in zip(circ, star))
            ccol = [sum(1 for p in circ if p > j) for j in range(8)]
            scol = [sum(1 for p in star if p > j) for j in range(8)]
            assert all(c - s in (0, 1) for c, s in zip(ccol, scol))


def test_dominance_examples():
    assert dominance_leq(parse_spart("1,0;1"), parse_spart("2,0;"))
    # different fermionic degrees are never comparable
    assert not dominance_leq(parse_spart("0;3"), parse_spart("2,1;"))
    assert not dominance_leq(parse_spart("2,1;"), parse_spart("0;3"))
    L = parse_spart("2,0;1")
    assert dominance_leq(L, L)


def test_dominance_on_prefix_sums_matches_the_shape_oracle():
    # every ordered pair of labels with n <= 8 in at most 7 rows, pairs of
    # different degree included
    labels = sorted({L for n in range(9) for L in enumerate_all_m(n, 7)},
                    key=str)
    assert len(labels) == 504
    verdicts = {True: 0, False: 0}
    for A, B in itertools.product(labels, labels):
        got = dominance_leq(A, B)
        assert got == dominance_leq_shapes(A, B), (str(A), str(B))
        verdicts[got] += 1
    assert verdicts == {True: 8373, False: 245643}


def test_dominance_conjugation_antitone():
    for n in range(5):
        labels = enumerate_all_m(n, 5)
        for A, B in itertools.product(labels, labels):
            assert dominance_leq(A, B) == dominance_leq(conjugate(B), conjugate(A))


def test_admissible_paper_examples():
    assert is_admissible(parse_spart("(7o,7,5,4o,2o,1o,0)"), 2, 3, 7)
    assert is_admissible(parse_spart("(8,4o,3,1o,0o)"), 1, 2, 5)
    assert is_admissible(parse_spart(";4,2"), 1, 2, 3)
    assert not is_admissible(parse_spart(";3"), 1, 2, 3)
    # gcd(k+1, r-1) = 2: the label test still computes; check_kr refuses
    # the pair where a run starts
    assert not is_admissible(parse_spart(";4,2"), 1, 3, 3)
    assert is_admissible(parse_spart(";4,1"), 1, 3, 2)
    with pytest.raises(ValueError, match="not coprime"):
        check_kr(1, 3)
    check_kr(1, 3, allow_noncoprime=True)


def test_admissible_m0_reduction():
    # for labels without circles the condition is the plain partition one
    lam = (4, 2, 0)
    L = parse_spart(";4,2")
    for (k, r, N) in [(1, 2, 3), (2, 3, 3), (2, 2, 3)]:
        direct = all(lam[i] - lam[i + k] >= r for i in range(len(lam) - k))
        assert is_admissible(L, k, r, N) == direct


def test_lemma_star_circ_admissible():
    # admissibility of a label forces (k+1, r)-admissibility of both shapes
    for k, r in ((1, 2), (2, 3)):
        for n in range(9):
            for L in enumerate_all_m(n, 4):
                if not is_admissible(L, k, r, 4):
                    continue
                circ, star = star_pair(L, 4)
                for i in range(4 - (k + 1)):
                    assert star[i] - star[i + k + 1] >= r
                    assert circ[i] - circ[i + k + 1] >= r


def test_enumerate_counts_and_order():
    E = enumerate_sparts(3, 2, 3)
    assert [str(L) for L in E] == ["3,0;", "2,1;", "2,0;1", "1,0;2"]
    assert enumerate_sparts(0, 0, 3) == (SuperPartition((), ()),)
    keys = [L.sort_key() for L in E]
    assert keys == sorted(keys, reverse=True)


def test_fermionic_range_matches_enumeration():
    assert list(fermionic_range(0, 3)) == [0, 1]
    assert list(fermionic_range(-1, 3)) == []
    # exactly the fermionic degrees that carry a superpartition
    for n in range(8):
        for N in range(1, 5):
            assert list(fermionic_range(n, N)) == [
                m for m in range(N + 2) if enumerate_sparts(n, m, N)]


def test_enumerate_admissible_appendix_count():
    adm = enumerate_admissible(1, 2, 3, 3)
    by_degree = {}
    for L in adm:
        by_degree.setdefault(L.degree(), []).append(L)
    # the unique lowest-degree admissible label has fermionic degree 2
    assert by_degree[(3, 2)] == [parse_spart("2,1;")]
    assert (3, 1) not in by_degree


def test_overpartition_map():
    L = SuperPartition((3, 1, 0), (2, 1))
    assert to_overpartition(L) == [(4, True), (2, False), (2, True),
                                   (1, False), (1, True)]
    assert to_overpartition(parse_spart(";")) == []


def test_overpartition_restriction_condition():
    # admissible labels at r=2 map onto gap-restricted overpartitions
    for k in (1, 2):
        for n in range(7):
            for L in enumerate_all_m(n, 4):
                if not is_admissible(L, k, 2, 4):
                    continue
                ov = to_overpartition(L)
                padded = ov + [(0, False)] * 4
                for i in range(4 - k):
                    hi, (lo, overlined) = padded[i][0], padded[i + k]
                    assert hi - lo >= (1 if overlined else 2)


def test_arm_leg_example():
    lam = (8, 5, 5, 3, 1)
    assert arm(lam, (3, 2)) == 3
    assert leg(lam, (3, 2)) == 1


def test_hooks_single_cell():
    L = parse_spart(";1")
    assert upper_hook(L, (1, 1)) == AlphaPolynomial((0, 1))
    assert lower_hook(L, (1, 1)) == AlphaPolynomial((1,))
    with pytest.raises(ValueError):
        upper_hook(L, (2, 1))


def test_surgery_moves_match_brute_force():
    L = parse_spart("1;2")
    adds = {mv.result for mv in add_circle_moves(L)}
    assert adds == {parse_spart("2,1;"), parse_spart("1,0;2")}
    rems = {mv.result for mv in remove_circle_moves(L)}
    assert rems == {parse_spart(";2,1")}
    sq2c = {mv.result for mv in square_to_circle_moves(L)}
    assert sq2c == set()  # value-1 circle already present
    c2sq = {mv.result for mv in circle_to_square_moves(L)}
    assert c2sq == {parse_spart(";2,2")}


def test_surgery_marked_cells_consistent():
    # marked cell coordinates identify the one differing diagram cell
    for n in range(5):
        for L in enumerate_all_m(n, 4):
            for mv in add_circle_moves(L):
                om = mv.result
                i, j = mv.cell
                circ, star = star_pair(L, 6)
                circ2, star2 = star_pair(om, 6)
                assert star2 == star
                assert circ2[i - 1] == circ[i - 1] + 1 == j
            for mv in square_to_circle_moves(L):
                om = mv.result
                i, j = mv.cell
                circ, star = star_pair(L, 6)
                circ2, star2 = star_pair(om, 6)
                assert circ2 == circ
                assert star2[i - 1] == star[i - 1] - 1 == j - 1


def test_almost_admissible_variants():
    variants = almost_admissible_variants(parse_spart("0;"), 1, 2, 1)
    assert parse_spart(";") in variants
    variants2 = almost_admissible_variants(parse_spart(";4,2"), 1, 2, 3)
    assert parse_spart("4;2") in variants2


def test_eigen_scalars():
    assert epsilon_u((), 2, ALPHA) == [AlphaRational(0), AlphaRational(-1),
                                       AlphaRational(1)]
    from superjack.spart import e_star_poly, e_tilde_poly
    assert e_star_poly(parse_spart(";1")).is_zero()
    assert e_tilde_poly(parse_spart("0;")).is_zero()


def test_tilde_composition():
    L = parse_spart("3,1,0;5,3,3")
    assert tilde_composition(L, 8) == (0, 1, 3, 0, 0, 3, 3, 5)


def test_eta_bar_zero_composition():
    assert eta_bar((0, 0), ALPHA) == [AlphaRational(0), AlphaRational(-1)]
