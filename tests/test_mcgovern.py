import doctest

import pytest

import invpat.mcgovern as mcgovern
from invpat.classes import PatternSet, compute_basis
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
def test_avoider_levels_match_sieve_counts(patterns, mode, to, top):
    grown = {n: len(members)
             for n, members in mcgovern._avoider_levels(patterns, mode, to)}
    sieve = count_table(PatternSet(patterns, mode), mode, to).counts
    assert {n: grown[n] for n in sieve} == sieve
    assert grown[to] == top
    if mode is Mode.F:
        assert all(grown[n] == 0 for n in range(1, to, 2))


def test_sweep_detects_planted_counterexample(monkeypatch):
    # sanity that the sweep machinery reports inequality: drop the two
    # small patterns from the set the I' levels are grown against, so
    # the levels hold classical containers
    import invpat.mcgovern as m

    real = m._avoider_levels

    def crippled(patterns, mode, max_size):
        if mode is Mode.IPRIME:
            patterns = [p for p in patterns if len(p) > 4]
        return real(patterns, mode, max_size)

    monkeypatch.setattr(m, "_avoider_levels", crippled)
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