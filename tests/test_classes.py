import doctest

import pytest

import invpat.classes as classes
from invpat.classes import (PatternSet, avoider_levels, class_members,
                            compute_basis)
from invpat.containment import Mode, PatternChecker, contains_classical, down_set
from invpat.core import parse_perm
from conftest import involution_count_oracle

TABLE_ROWS = {
    ("123", Mode.I): "123 14523 34125 351624 456123",
    ("123", Mode.F): "214365 341265 215634 351624 456123",
    ("132", Mode.I): "132 35142 465132",
    ("132", Mode.F): "2143 465132",
    ("213", Mode.I): "213 42513 546213",
    ("213", Mode.F): "2143 546213",
    ("231", Mode.I): "3412 4231",
    ("231", Mode.F): "3412 632541",
    ("321", Mode.I): "321",
    ("321", Mode.F): "4321",
}


def test_doctests():
    assert doctest.testmod(classes, verbose=False).failed == 0


def test_pattern_set_validation():
    with pytest.raises(ValueError):
        PatternSet([(2, 3, 1)], Mode.I)
    with pytest.raises(ValueError):
        PatternSet([(1, 3, 2)], Mode.F)
    ps = PatternSet([(2, 3, 1)], Mode.CLASSICAL)
    assert ps.max_size() == 3


def test_class_members_examples():
    from math import factorial

    pm = PatternSet([(2, 1, 4, 3)], Mode.F)
    for n in range(1, 6):
        assert len(class_members(pm, Mode.F, 2 * n)) == factorial(n)
    p12 = PatternSet([(1, 2)], Mode.I)
    for n in range(1, 9):
        assert len(class_members(p12, Mode.I, n)) == factorial(n // 2)
    p132 = PatternSet([(1, 3, 2)], Mode.I)
    assert class_members(p132, Mode.I, 3) == {(1, 2, 3), (2, 1, 3), (3, 2, 1)}


def _scan_levels(ps, ambient, families, to):
    """Oracle: every element of the ambient family, filtered by PatternChecker."""
    checker = PatternChecker(ps.patterns, ps.mode)
    return [{tau for tau in families.get(n, ()) if not checker.contains_any(tau)}
            for n in range(to + 1)]


def _engine_levels(ps, ambient, to):
    return [set(members) for _, members in avoider_levels(ps, ambient, to)]


def test_avoider_levels_match_scan(involutions_by_size, matchings_by_size):
    # the level engine against an exhaustive scan at every size <= 8,
    # in each order, for classical sets in both ambients and for a
    # deletion-order set read in the matchings
    from itertools import permutations

    from invpat.mcgovern import PI_PRIME, PI_SMOOTH

    perms = [p for k in range(4) for p in permutations(range(1, k + 1))]
    extra = [(2, 1, 4, 3), (1, 3, 2, 4)]
    cases = []
    for mode in (Mode.I, Mode.IPRIME):
        small = [p for k in range(4) for p in involutions_by_size[k]] + extra
        for pats in [[]] + [[p] for p in small] + [PI_SMOOTH]:
            cases.append((PatternSet(pats, mode), Mode.I))
    for pats in ([], [()], [(2, 1)], [(2, 1, 4, 3)], PI_PRIME):
        cases.append((PatternSet(pats, Mode.F), Mode.F))
    for ambient in (Mode.I, Mode.F):
        for pats in [[]] + [[p] for p in perms + extra] + [PI_SMOOTH, PI_PRIME]:
            cases.append((PatternSet(pats, Mode.CLASSICAL), ambient))
    for pats in ([(1, 2)], [(2, 1, 4, 3)]):
        cases.append((PatternSet(pats, Mode.I), Mode.F))
    for ps, ambient in cases:
        families = matchings_by_size if ambient is Mode.F else involutions_by_size
        assert _engine_levels(ps, ambient, 8) == _scan_levels(ps, ambient, families, 8), \
            (str(ps), ambient)
    ps = PatternSet([(2, 1, 4, 3)], Mode.I)
    assert class_members(ps, Mode.F, 8) == _scan_levels(ps, Mode.F, matchings_by_size, 8)[8]


def test_compute_basis_matches_scan(involutions_by_size, matchings_by_size):
    # minimal violators by scan: classical containers whose one-step
    # images all avoid; member counts are the scan's avoider counts
    from itertools import permutations

    from invpat.containment import one_step_down

    for pat in list(permutations((1, 2, 3))) + [(2, 1, 4, 3), (1, 3, 2, 4)]:
        checker = PatternChecker([pat], Mode.CLASSICAL)
        ps = PatternSet([pat], Mode.CLASSICAL)
        for ambient in (Mode.I, Mode.IPRIME, Mode.F):
            families = matchings_by_size if ambient is Mode.F else involutions_by_size
            want: dict = {}
            avoiders = {}
            for n in range(9):
                family = families.get(n, ())
                avoiders[n] = sum(not checker.contains_any(t) for t in family)
                minimal = [t for t in family if checker.contains_any(t) and not any(
                    checker.contains_any(img) for img in one_step_down(t, ambient))]
                if minimal:
                    want[n] = tuple(minimal)
            report = compute_basis(ps, ambient, bound=8)
            assert report.elements == want, (pat, ambient)
            assert report.member_counts == avoiders, (pat, ambient)


def test_empty_pattern_set_counts_everything():
    ps = PatternSet([], Mode.I)
    for n in range(8):
        assert len(class_members(ps, Mode.I, n)) == involution_count_oracle(n)


def test_table_rows():
    for (pat, ambient), want in TABLE_ROWS.items():
        ps = PatternSet([parse_perm(pat)], Mode.CLASSICAL)
        report = compute_basis(ps, ambient)
        assert set(report.all_elements()) == {parse_perm(w) for w in want.split()}, \
            (pat, ambient)


def test_basis_of_increasing_pair():
    # the one-pattern class {12}: the decreasing word is the only
    # classical avoider, and the crossing matching 3412 is a second
    # minimal violator
    report = compute_basis(PatternSet([(1, 2)], Mode.CLASSICAL), Mode.I)
    assert set(report.all_elements()) == {(1, 2), (3, 4, 1, 2)}


def test_bound_validation_and_report_surface():
    ps = PatternSet([(3, 2, 1)], Mode.CLASSICAL)
    with pytest.raises(ValueError):
        compute_basis(ps, Mode.I, bound=2)
    report = compute_basis(ps, Mode.F, bound=8)
    assert report.max_size() == 4
    assert report.search_bound == 8
    text = report.to_text()
    assert "4321" in text and "(1,4)(2,3)" in text
    rows = report.to_rows()
    assert rows[0] == "size\tone_line\tcycle_form"
    assert "4\t4321\t(1,4)(2,3)" in rows


def test_basis_elements_form_antichain():
    from invpat.containment import contains_fast

    for (pat, ambient), want in TABLE_ROWS.items():
        elems = [parse_perm(w) for w in want.split()]
        for a in elems:
            for b in elems:
                if a != b:
                    assert not contains_fast(a, b, ambient)


def test_basis_completeness_all_size3_sets(involutions_by_size):
    # every violator of size <= 8 sits above some basis element in the
    # deletion order, for every nonempty pattern set inside size 3
    from itertools import combinations

    from invpat.containment import PatternChecker

    s3 = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    pool = [t for n in range(9) for t in involutions_by_size[n]]
    downs = {t: down_set(t, Mode.I) for t in pool}
    for r in range(1, 4):
        for pats in combinations(s3, r):
            ps = PatternSet(pats, Mode.CLASSICAL)
            basis = set(compute_basis(ps, Mode.I).all_elements())
            checker = PatternChecker(pats, Mode.CLASSICAL)
            for tau in pool:
                if checker.contains_any(tau):
                    assert basis & downs[tau], (pats, tau)


def test_singleton_equivalence_and_bigger_sets(involutions_by_size):
    # patterns without independent cycle pairs: deletion-order avoidance
    # equals classical avoidance, for single patterns and for every set
    # of them (sizes <= 5 here, ambient sizes <= 9)
    from invpat.containment import PatternChecker, contains_fast

    p12 = PatternSet([(1, 2)], Mode.I)
    small = [t for k in range(1, 6) for t in class_members(p12, Mode.I, k)]
    assert len(small) == 7
    from invpat.core import generate_involutions

    pool = [t for n in range(9) for t in involutions_by_size[n]] + \
        list(generate_involutions(9))
    imask = {}
    cmask = {}
    for tau in pool:
        imask[tau] = sum(1 << i for i, p in enumerate(small)
                         if contains_fast(tau, p, Mode.I))
        cmask[tau] = sum(1 << i for i, p in enumerate(small)
                         if contains_classical(tau, p))
    distinct = set(zip(imask.values(), cmask.values()))
    for subset in range(1, 1 << len(small)):
        for im, cm in distinct:
            assert (im & subset == 0) == (cm & subset == 0), subset


def test_dichotomy_small_scale(involutions_by_size):
    # size-3 patterns split: those without independent cycles match the
    # classical counts, the rest stay at least floor(n/2)! big
    from math import factorial

    from invpat.containment import contains_fast

    for pat in involutions_by_size[3]:
        ps = PatternSet([pat], Mode.I)
        classical = PatternSet([pat], Mode.CLASSICAL)
        if not contains_fast(pat, (1, 2), Mode.I):
            for n in range(1, 9):
                assert class_members(ps, Mode.I, n) == \
                    class_members(classical, Mode.I, n)
        else:
            for n in range(1, 9):
                assert len(class_members(ps, Mode.I, n)) >= factorial(n // 2)
