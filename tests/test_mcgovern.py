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


def test_sweep_detects_planted_counterexample(monkeypatch):
    # sanity that the sweep machinery reports inequality: drop the two
    # small patterns from the set the I' levels are grown against, so
    # the levels hold classical containers
    import invpat.mcgovern as m

    real = m.avoider_levels

    def crippled(ps, ambient, max_size):
        if ps.mode is Mode.IPRIME:
            ps = PatternSet([p for p in ps.patterns if len(p) > 4], ps.mode)
        return real(ps, ambient, max_size)

    monkeypatch.setattr(m, "avoider_levels", crippled)
    report = m.verify_part1(4)
    assert not report.equal
    assert report.first_counterexample() == (1, 3, 2, 4)
    assert "UNEQUAL" in report.to_text()


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


def test_sweep_falls_back_after_a_late_counterexample(monkeypatch):
    # drop only the size-6 pattern 426153 from the set the I' levels are
    # grown against: sizes 1..5 are clean, and from size 6 on the levels
    # hold classical containers whose occurrences may miss a unit, so
    # the sweep must check every pattern again; compare with a filter of
    # every involution by the crippled set
    from invpat.core import generate_involutions

    import invpat.mcgovern as m

    real = m.avoider_levels
    crippled_patterns = [p for p in PI_SMOOTH if p != parse_perm("426153")]

    def crippled(ps, ambient, max_size):
        if ps.mode is Mode.IPRIME:
            ps = PatternSet(crippled_patterns, ps.mode)
        return real(ps, ambient, max_size)

    monkeypatch.setattr(m, "avoider_levels", crippled)
    report = m.verify_part1(9)
    member = PatternChecker(crippled_patterns, Mode.IPRIME)
    classical = PatternChecker(PI_SMOOTH, Mode.CLASSICAL)
    full = PatternChecker(PI_SMOOTH, Mode.I)
    first = None
    for n in range(1, 10):
        members = [t for t in generate_involutions(n) if not member.contains_any(t)]
        containers = [t for t in members if classical.contains_any(t)]
        row = report.rows[n]
        assert row.equal == (not containers), n
        assert row.classical_avoiders + row.extra_coarse == len(members), n
        assert row.classical_avoiders + row.extra_full == len(members) - sum(
            full.contains_any(t) for t in containers), n
        if containers and first is None:
            first = min(containers)
            assert n == 6
    assert report.first_counterexample() == first == parse_perm("426153")
