import doctest

import pytest

import invpat.mcgovern as mcgovern
from invpat.classes import PatternSet, avoider_levels, compute_basis
from invpat.enumeration import count_table
from invpat.containment import Mode, PatternChecker
from invpat.core import is_fpf, is_involution, parse_perm
from invpat.mcgovern import (PI, PI_PRIME, PI_SMOOTH, SMOOTH_EXTRA,
                             rational_smoothness_fpf,
                             rational_smoothness_involution,
                             smoothness_involution, verify_part1, verify_part2)


def test_doctests():
    assert doctest.testmod(mcgovern, verbose=False).failed == 0


def test_pattern_set_hygiene():
    assert len(PI) == 24 and len(set(PI)) == 24
    assert len(PI_PRIME) == 17 and len(set(PI_PRIME)) == 17
    assert all(is_fpf(p) for p in PI_PRIME)
    assert all(is_involution(p) for p in PI)
    assert SMOOTH_EXTRA == ((2, 1, 4, 3), (1, 3, 2, 4))
    assert {len(p) for p in PI} == {5, 6, 7, 8}
    assert {len(p) for p in PI_PRIME} == {6, 8}
    assert parse_perm("351624") in PI_PRIME
    assert parse_perm("14325") in PI


def test_smoothness_predicates():
    assert rational_smoothness_fpf((2, 1))
    assert not rational_smoothness_fpf(parse_perm("351624"))
    assert not rational_smoothness_involution((2, 1, 4, 3))
    assert rational_smoothness_involution((2, 1, 3, 5, 4))
    assert not smoothness_involution((1, 3, 2, 4))
    assert not smoothness_involution(parse_perm("14325"))
    assert smoothness_involution((2, 1))
    # each validates its argument for its family
    for call, bad in ((rational_smoothness_fpf, (1, 2)), (rational_smoothness_fpf, (2, 3, 1)),
                      (rational_smoothness_involution, (2, 3, 1)),
                      (smoothness_involution, (5, 5))):
        with pytest.raises(ValueError):
            call(bad)


def test_verify_part1_small():
    report = verify_part1(9)
    assert report.equal
    assert report.rows[5].total == 26
    # the size-5 member of the pattern family excludes itself
    checker = PatternChecker(PI_SMOOTH, Mode.CLASSICAL)
    assert checker.contains_any(parse_perm("14325"))
    assert not smoothness_involution(parse_perm("14325"))
    assert "equal at all sizes" in report.to_text()


def test_verify_part2_small():
    report = verify_part2(10)
    assert report.equal
    assert report.rows[6].total == 15
    assert not rational_smoothness_fpf(parse_perm("351624"))
    checker = PatternChecker(PI_PRIME, Mode.CLASSICAL)
    assert checker.contains_any(parse_perm("351624"))


def test_verify_reports_are_cumulative():
    r8 = verify_part1(8)
    r6 = verify_part1(6)
    for n in r6.rows:
        assert r8.rows[n].total == r6.rows[n].total
        assert r8.rows[n].classical_avoiders == r6.rows[n].classical_avoiders


def test_sweep_rows_match_brute_force():
    for part, verify, sizes in ((1, verify_part1, range(1, 11)),
                                (2, verify_part2, range(2, 11, 2))):
        report = verify(max(sizes))
        assert sorted(report.rows) == list(sizes)
        for n in sizes:
            assert report.rows[n] == mcgovern._brute_force_row(part, n)


@pytest.mark.parametrize("patterns, mode, to, top", [(PI_SMOOTH, Mode.IPRIME, 12, 3356),
                                                     (PI_PRIME, Mode.F, 14, 6682)])
def test_avoider_level_counts_reach_pinned_tops(patterns, mode, to, top):
    # the stored levels and the streamed top agree with count_table; the
    # pinned tops were counted by a scan of every element of that size
    ps = PatternSet(patterns, mode)
    grown = {n: sum(1 for _ in members) for n, members in avoider_levels(ps, mode, to)}
    counts = count_table(ps, mode, to).counts
    assert {n: grown[n] for n in counts} == counts
    assert grown[to] == top
    if mode is Mode.F:
        assert all(grown[n] == 0 for n in range(1, to, 2))


@pytest.mark.parametrize("name, patterns, to, stop, first, classical, coarse, full", [
    pytest.param("PI_SMOOTH", PI, 9, 6, "216543", 55, 57, 55, id="PI"),
    pytest.param("PI_SMOOTH", tuple(p for p in PI_SMOOTH if p != parse_perm("426153")),
                 9, 6, "426153", 36, 37, 37, id="PI_SMOOTH_without_426153"),
    pytest.param("PI_PRIME", (parse_perm("2143"),), 10, 8, "65872143", 23, 24, None,
                 id="2143_as_PI_PRIME"),
])
def test_sweep_stops_at_a_real_counterexample(monkeypatch, name, patterns, to, stop,
                                              first, classical, coarse, full):
    # sets whose classical class is not closed in the deletion order: the
    # sweep stops at the first size with a counterexample, and every row
    # it reports is the row a scan of every element of that size gives
    monkeypatch.setattr(mcgovern, name, patterns)
    part, verify = (1, verify_part1) if name == "PI_SMOOTH" else (2, verify_part2)
    report = verify(to)
    assert sorted(report.rows) == list(range(part, stop + 1, part))
    for n in report.rows:
        assert report.rows[n] == mcgovern._brute_force_row(part, n), n
    row = report.rows[stop]
    assert report.first_counterexample() == row.counterexample == parse_perm(first)
    assert row.classical_avoiders == classical
    assert classical + row.extra_coarse == coarse
    if full is not None:
        assert classical + row.extra_full == full
    text = report.to_text()
    assert "UNEQUAL" in text and text.endswith(f"EQUALITY FAILS at size {stop}")


def test_part1_certificate_covers_every_size():
    # at twice the largest pattern size the sweep has seen the whole basis
    assert verify_part1(16).to_text().endswith(
        "=> equal at every size (no basis element outside the set to size 16)")


def test_part2_needs_a_matching_size():
    with pytest.raises(ValueError):
        verify_part2(1)
    assert verify_part1(1).equal


def test_cross_check_with_basis():
    # equality holds up to a bound iff every basis element of the
    # classical class, computed in the two-relation order, still
    # contains a pattern there
    ps = PatternSet(PI_SMOOTH, Mode.CLASSICAL)
    report = compute_basis(ps, Mode.IPRIME, bound=8)
    checker = PatternChecker(PI_SMOOTH, Mode.IPRIME)
    for beta in report.all_elements():
        assert checker.contains_any(beta)


@pytest.mark.parametrize("ambient, size, smallest_new", [
    (Mode.IPRIME, 32, "216543"), (Mode.I, 21, "12437856")])
def test_basis_negative_control(ambient, size, smallest_new):
    # PI without 2143 and 1324 is not closed in the deletion orders: its
    # basis holds elements outside PI, so a basis that reads back as the
    # pattern set itself (as PI_SMOOTH's does) is not vacuous
    basis = compute_basis(PatternSet(PI, Mode.CLASSICAL), ambient, 8).all_elements()
    outside = [beta for beta in basis if beta not in PI]
    assert len(basis) == size
    assert min(outside, key=lambda p: (len(p), p)) == parse_perm(smallest_new)
