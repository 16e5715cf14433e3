import doctest

import pytest

import invpat.classes as classes
from invpat.classes import (PatternSet, avoider_levels, class_members,
                            compute_basis)
from invpat.containment import Mode, PatternChecker, contains_classical, down_set
from invpat.core import is_fpf, parse_perm
from conftest import NESTED, involution_count_oracle

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


def test_a_mode_given_as_its_string_value_is_rejected():
    # each call once read the string as another order and answered
    # wrongly: the I' basis (2143 in it) for "I", False for a containment
    # that holds in I, and the involutions counted for "F"
    from invpat.containment import contains
    from invpat.enumeration import count_table

    with pytest.raises(ValueError, match="ambient must be one of"):
        compute_basis(PatternSet([(1, 3, 2)], Mode.CLASSICAL), "I")
    with pytest.raises(ValueError, match="mode must be a Mode"):
        contains((2, 1), (1,), "I")
    with pytest.raises(ValueError, match="ambient must be one of"):
        count_table(PatternSet([(3, 2, 1)], Mode.CLASSICAL), "F", 4)
    with pytest.raises(ValueError, match="mode must be a Mode"):
        PatternSet([(2, 1)], "I")
    with pytest.raises(ValueError, match="mode must be a Mode"):
        PatternSet([], "F")


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


def _level_cases(involutions_by_size):
    """Pattern sets in each order: classical sets in both ambients, and a
    deletion-order set read in the matchings."""
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
    return cases


def test_avoider_levels_match_scan(involutions_by_size, matchings_by_size):
    # the level engine against an exhaustive scan at every size <= 8
    for ps, ambient in _level_cases(involutions_by_size):
        families = matchings_by_size if ambient is Mode.F else involutions_by_size
        assert _engine_levels(ps, ambient, 8) == _scan_levels(ps, ambient, families, 8), \
            (str(ps), ambient)
    ps = PatternSet([(2, 1, 4, 3)], Mode.I)
    assert class_members(ps, Mode.F, 8) == _scan_levels(ps, Mode.F, matchings_by_size, 8)[8]


def _tuple_closure_levels(ps, ambient, max_size):
    """
    Oracle: the level engine as it was before image pointers.  Each
    candidate is built as a tuple, and it is closed iff every
    ``_iter_images`` image is in the set of one of the two levels below.
    A classical set excludes a candidate by one search of the whole set:
    no minimal cut, no unit cut and no mirrors, unlike the engine.
    Returns the member set of every level and the violators, sorted.
    """
    from invpat.containment import _iter_images
    from invpat.core import is_fpf

    if ps.mode is Mode.CLASSICAL:
        order, excluded = ambient, PatternChecker(ps.patterns, Mode.CLASSICAL).contains_any
    else:
        order, excluded = ps.mode, ps.patterns.__contains__
    floor = min((len(p) for p in ps.patterns), default=max_size + 1)
    levels, violators = [], []
    older, last = set(), set()
    for n in range(max_size + 1):
        if n == 0:
            grown = [()]
        else:
            grown = [sigma + (n,) for sigma in last] if order is not Mode.F else []
            for sigma in older:
                for p in range(1, n):
                    grown.append(tuple(w + (w >= p) for w in sigma[:p - 1]) + (n,)
                                 + tuple(w + (w >= p) for w in sigma[p - 1:]) + (p,))
        level = set()
        for tau in grown:
            if n > floor and not all(img in last or img in older
                                     for img in _iter_images(tau, order)):
                continue
            if n >= floor and excluded(tau):
                violators.append(tau)
            else:
                level.add(tau)
        levels.append({t for t in level if is_fpf(t)} if ambient is Mode.F else level)
        older, last = last, level
    return levels, sorted(violators)


def _closure_cases(involutions_by_size):
    """(pattern set, ambient, top size) for the tuple-closure oracle: every
    set of the scan test to 8, the paper's sets further up, and the floor
    at the top size (no tables), one below it or two below it, also at top
    10, where the checks fill the tables of every level below the floor.
    Five classical sets go to 9 in I' and 10 in F, for the screen's
    minimal cut and mirror sharing: PI_SMOOTH, PI and NESTED are closed
    under reverse-complement, {132, 321} is not, and {12, 132} is only
    once cut to {12}."""
    from invpat.mcgovern import PI, PI_PRIME, PI_SMOOTH

    cases = [(ps, ambient, 8) for ps, ambient in _level_cases(involutions_by_size)]
    cases += [(PatternSet(PI_SMOOTH, Mode.IPRIME), Mode.IPRIME, 10),
              (PatternSet(PI_PRIME, Mode.F), Mode.F, 12),
              (PatternSet([(2, 1, 4, 3)], Mode.CLASSICAL), Mode.I, 10)]
    for pats in (PI_SMOOTH, PI, NESTED, [(1, 3, 2), (3, 2, 1)], [(1, 2), (1, 3, 2)]):
        cases += [(PatternSet(pats, Mode.CLASSICAL), Mode.IPRIME, 9),
                  (PatternSet(pats, Mode.CLASSICAL), Mode.F, 10)]
    for top in (6, 7, 8):
        for size in (top, top - 1, top - 2):
            decreasing = tuple(range(size, 0, -1))
            for mode in (Mode.I, Mode.IPRIME):
                cases.append((PatternSet([decreasing], mode), mode, top))
                increasing = tuple(range(1, size + 2))
                cases.append((PatternSet([decreasing, increasing], Mode.CLASSICAL), mode, top))
            cases.append((PatternSet([decreasing], Mode.CLASSICAL), Mode.F, top))
            if size % 2 == 0:
                matching = tuple(range(size // 2 + 1, size + 1)) + tuple(range(1, size // 2 + 1))
                cases.append((PatternSet([matching], Mode.F), Mode.F, top))
    for size in (9, 10):
        decreasing = tuple(range(size, 0, -1))
        for mode in (Mode.I, Mode.IPRIME):
            cases.append((PatternSet([decreasing], mode), mode, 10))
    cases.append((PatternSet([tuple(range(9, 0, -1))], Mode.CLASSICAL), Mode.I, 10))
    # classical sets that are not rc-closed, past the scan's size 8
    for mode in (Mode.I, Mode.IPRIME):
        cases.append((PatternSet([(1, 3, 2)], Mode.CLASSICAL), mode, 13))
    cases.append((PatternSet([(2, 3, 1)], Mode.CLASSICAL), Mode.F, 16))
    return cases


def test_image_pointers_match_tuple_closure(involutions_by_size):
    # the engine against the tuple-and-set closure it replaced: per-level
    # members and the violators, on every case of _closure_cases
    for ps, ambient, top in _closure_cases(involutions_by_size):
        violators = []
        levels = [set(members) for _, members in avoider_levels(ps, ambient, top, violators)]
        assert (levels, sorted(violators)) == _tuple_closure_levels(ps, ambient, top), \
            (str(ps), ambient, top)


def test_top_level_len_matches_tuple_closure(involutions_by_size):
    # len() of the top level counts it from each parent's closed slots and
    # builds only the candidates a pattern may exclude: it must give the
    # oracle's top-level size and, with the levels below, its violators.
    # Beyond _closure_cases: tops 0 and 1; involution-order sets read in
    # the matchings, where only a 2-cycle grown on a matching counts, with
    # the top at, above and below the pattern sizes; and PI_SMOOTH in I',
    # whose patterns (sizes 4..8) screen every parent at top 8 and none
    # at top 9
    from invpat.mcgovern import PI_SMOOTH

    cases = _closure_cases(involutions_by_size)
    cases += [(ps, ambient, top) for ps, ambient in _level_cases(involutions_by_size)
              for top in (0, 1)]
    for mode in (Mode.I, Mode.IPRIME):
        for pats in ([()], [(1,)], [(2, 1)], [(1, 2)], [(1, 3, 2)], [(2, 1, 4, 3)],
                     [(3, 4, 1, 2), (1, 2, 3)]):
            cases += [(PatternSet(pats, mode), Mode.F, top) for top in range(9)]
    cases += [(PatternSet(PI_SMOOTH, Mode.IPRIME), Mode.IPRIME, top) for top in (8, 9)]
    for ps, ambient, top in cases:
        violators = []
        *_, (_, members) = avoider_levels(ps, ambient, top, violators)
        count = len(members)
        levels, want = _tuple_closure_levels(ps, ambient, top)
        assert (count, sorted(violators)) == (len(levels[top]), want), (str(ps), ambient, top)


@pytest.mark.parametrize("pats, ambient, top", [
    ([(3, 2, 1)], Mode.F, 4),
    ([(1, 2, 3)], Mode.I, 6),
    ([(2, 1, 4, 3), (1, 3, 2, 4)], Mode.IPRIME, 8),
], ids=["321-F-4", "123-I-6", "2143,1324-Iprime-8"])
def test_top_level_finds_its_violators_once(pats, ambient, top):
    # only the first use of the top level finds its violators, whether it
    # counts or iterates: list() and sorted() take len() before they
    # iterate, and a second len() or a later iteration must not add them
    # again.  These cases have 1, 2 and 2 top-level violators.
    ps = PatternSet(pats, Mode.CLASSICAL)
    levels, want = _tuple_closure_levels(ps, ambient, top)
    want_top = [p for p in want if len(p) == top]
    assert want_top
    uses = [list, sorted, lambda m: (len(m), len(m)), lambda m: (len(m), *m)]
    for use in uses:
        violators = []
        *_, (_, members) = avoider_levels(ps, ambient, top, violators)
        below = len(violators)
        use(members)
        # later uses count and list the level but find nothing more
        assert len(members) == len(list(members)) == len(levels[top])
        assert sorted(violators[below:]) == want_top


def _run_engine(pats, ambient, top, violators=None):
    """Grow every level of the classical avoiders of pats, each once."""
    for _, members in avoider_levels(PatternSet(pats, Mode.CLASSICAL), ambient, top,
                                     violators):
        for _ in members:
            pass


def test_the_screen_builds_one_tree_per_pattern_subset(monkeypatch):
    # a classical screen picks a checker by the candidate's unit count;
    # counts that select the same minimal patterns share one, so PI_PRIME
    # (minimal sizes 6 and 8) builds two and PI_SMOOTH (cut to 2143 and
    # 1324) builds one, for the whole run
    from invpat.containment import _classically_minimal
    from invpat.mcgovern import PI_PRIME, PI_SMOOTH

    built = []
    real = PatternChecker.__init__

    def counting(self, patterns, mode):
        real(self, patterns, mode)
        built.append(self.patterns)

    monkeypatch.setattr(PatternChecker, "__init__", counting)
    for pats, ambient, subsets in ((PI_PRIME, Mode.F, 2), (PI_SMOOTH, Mode.IPRIME, 1)):
        built.clear()
        _run_engine(pats, ambient, 10)
        assert len(built) == len(set(built)) == subsets
        assert built[0] == _classically_minimal(pats)


def _searches(monkeypatch):
    """Record (checker patterns, haystack) for every search of the engine's
    screen, which calls contains_through_last_unit."""
    calls = []
    real = PatternChecker.contains_through_last_unit
    monkeypatch.setattr(PatternChecker, "contains_through_last_unit",
                        lambda self, tau: calls.append((self.patterns, tau)) or real(self, tau))
    return calls


def test_the_screen_searches_only_patterns_with_enough_entries(monkeypatch):
    # a closed candidate with u units contains a pattern only if the
    # pattern has at least u entries, so every search goes to a checker
    # whose smallest pattern has at least as many entries as the
    # candidate has units; NESTED (minimal 321, 2143 and 3412) and PI
    # (minimal sizes 5 to 8) have candidates on both sides of each cut
    from invpat.core import fixed_points, two_cycles
    from invpat.mcgovern import PI, PI_PRIME, PI_SMOOTH

    calls = _searches(monkeypatch)
    for pats, ambient, top in ((NESTED, Mode.I, 9), (PI, Mode.IPRIME, 10),
                               (PI_SMOOTH, Mode.IPRIME, 10), (PI_PRIME, Mode.F, 12)):
        calls.clear()
        _run_engine(pats, ambient, top)
        assert calls, pats
        for patterns, tau in calls:
            units = len(fixed_points(tau)) + len(two_cycles(tau))
            assert units <= min(map(len, patterns)), (pats, patterns, tau)


def test_the_screen_answers_a_mirror_only_for_an_rc_closed_set(monkeypatch):
    # for a set whose minimal patterns are closed under reverse-complement,
    # of a candidate and its mirror only the first met at a size is
    # searched.  {132} is not closed (rc(132) = 213), so both 132 and 213
    # are searched, and only 132 is a violator
    from invpat.core import reverse_complement
    from invpat.mcgovern import PI_SMOOTH

    calls = _searches(monkeypatch)
    for pats, ambient, top in ((PI_SMOOTH, Mode.IPRIME, 10), (NESTED, Mode.I, 9)):
        calls.clear()
        _run_engine(pats, ambient, top)
        searched = [tau for _, tau in calls]
        assert any(reverse_complement(tau) != tau for tau in searched), pats
        for k, tau in enumerate(searched):
            assert reverse_complement(tau) == tau or \
                reverse_complement(tau) not in searched[:k], (pats, tau)
    calls.clear()
    violators = []
    _run_engine([(1, 3, 2)], Mode.I, 3, violators)
    assert {(1, 3, 2), (2, 1, 3)} <= {tau for _, tau in calls}
    assert violators == [(1, 3, 2)]


def test_the_anchored_screen_answers_as_the_full_search(monkeypatch):
    # a screened candidate's parent is a member, so every occurrence of a
    # minimal pattern touches the candidate's last unit, and the screen
    # searches only those: the minimal patterns and their inverses, each
    # ending at the last position.  Every screen of these runs must answer
    # as contains_any, the search of every occurrence, on the same candidate
    from itertools import combinations, permutations

    from invpat.containment import _classical_tree, _search_classical
    from invpat.mcgovern import PI_PRIME, PI_SMOOTH

    wrong, answers, forward_only = [], [], []
    real = PatternChecker.contains_through_last_unit

    def compared(self, tau):
        got = real(self, tau)
        if got != self.contains_any(tau):
            wrong.append((self.patterns, tau))
        answers.append(got)
        # the same search without the inverses
        forward = _classical_tree(self.patterns, anchored=True)
        forward_only.append(_search_classical(tau, forward, anchored=True) != got)
        return got

    monkeypatch.setattr(PatternChecker, "contains_through_last_unit", compared)
    small = [p for k in (1, 2, 3) for p in permutations(range(1, k + 1))]
    sets = [pats for r in range(1, len(small) + 1) for pats in combinations(small, r)]
    sets += [(p,) for p in permutations(range(1, 5))]
    assert len(sets) == 511 + 24
    runs = [(pats, ambient, 8) for pats in sets for ambient in (Mode.I, Mode.IPRIME, Mode.F)]
    runs += [(PI_SMOOTH, Mode.IPRIME, 10), (PI_SMOOTH, Mode.I, 10), (PI_PRIME, Mode.F, 12)]
    for pats, ambient, top in runs:
        _run_engine(pats, ambient, top)
    assert not wrong, wrong[:5]
    assert 0 < sum(answers) < len(answers)
    # without the inverses, some screens would answer wrongly
    assert any(forward_only)

    # {312} in I: 4231 is a basis element, and its only 312 (positions
    # 1, 2, 3) misses position 4; the 231 of the inverse ends there
    wrong.clear()
    violators = []
    _run_engine([(3, 1, 2)], Mode.I, 4, violators)
    assert (4, 2, 3, 1) in violators and not wrong
    tree = _classical_tree([(3, 1, 2)], anchored=True)
    assert not _search_classical((4, 2, 3, 1), tree, anchored=True)


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
            # the class sizes the equality sweeps read from the basis pass
            counts = {n: count for n, count, _ in classes._basis_levels(ps, ambient, 8)}
            assert counts == avoiders, (pat, ambient)


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
    with pytest.raises(ValueError, match="expects a classical pattern set"):
        compute_basis(PatternSet([(1,)], Mode.I), Mode.I)
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


def test_basis_lies_below_twice_the_largest_pattern(involutions_by_size):
    # the bound that lets a finite basis search decide a class at every
    # size: for every nonempty set of patterns of size <= 3 and every
    # size-4 singleton, a search two sizes past twice the largest pattern
    # finds nothing above it, in every deletion order
    from functools import reduce
    from itertools import combinations, permutations
    from operator import or_

    from invpat.containment import one_step_down

    small = [p for k in (1, 2, 3) for p in permutations(range(1, k + 1))]
    sets = [pats for r in range(1, len(small) + 1) for pats in combinations(small, r)]
    sets += [(p,) for p in permutations(range(1, 5))]
    assert len(sets) == 511 + 24
    at_bound = 0
    for pats in sets:
        top = 2 * max(map(len, pats))
        for ambient in (Mode.I, Mode.IPRIME, Mode.F):
            found = compute_basis(PatternSet(pats, Mode.CLASSICAL), ambient, top + 2).max_size()
            assert found <= top, (pats, ambient)
            at_bound += found == top
    assert at_bound > 0

    # the engine screens nothing past twice the largest classically minimal
    # pattern, so the check above holds by construction.  An oracle that
    # runs no engine: each element of size <= 8 gets a bitmask of the
    # patterns of small it contains, and a set's minimal violators are the
    # containers whose one-step images contain none of its patterns.  They
    # must be the computed basis and lie within 2 * max |M| for M the
    # set's minimal patterns, which is reached 659 times
    pool = [t for n in range(9) for t in involutions_by_size[n]]
    masks = {t: sum(1 << i for i, p in enumerate(small) if contains_classical(t, p))
             for t in pool}
    at_reach = 0
    for ambient in (Mode.I, Mode.IPRIME, Mode.F):
        family = [t for t in pool if ambient is not Mode.F or is_fpf(t)]
        below = {t: reduce(or_, (masks[img] for img in one_step_down(t, ambient)), 0)
                 for t in family}
        for pats in sets[:511]:
            bits = sum(1 << small.index(p) for p in pats)
            want = {t for t in family if masks[t] & bits and not below[t] & bits}
            minimal = [p for p in pats
                       if not any(q != p and contains_classical(p, q) for q in pats)]
            reach = 2 * max(map(len, minimal))
            got = compute_basis(PatternSet(pats, Mode.CLASSICAL), ambient).all_elements()
            assert set(got) == want, (pats, ambient)
            largest = max(map(len, want))
            assert largest <= reach, (pats, ambient)
            at_reach += largest == reach
    assert at_reach == 659


def test_the_basis_pass_ends_at_twice_the_largest_minimal_pattern(monkeypatch):
    # no basis element is larger than 2 * max |M|, M the classically
    # minimal patterns, so compute_basis grows no level past it (PI_SMOOTH
    # is cut to 2143 and 1324, {(), 12} to ()), nor past its bound; every
    # pattern of PI_PRIME is minimal.  The reported bound is the one given,
    # by default twice the largest pattern
    from invpat.mcgovern import PI_PRIME, PI_SMOOTH

    passes = []
    monkeypatch.setattr(classes, "avoider_levels",
                        lambda ps, ambient, max_size, violators=None:
                        passes.append(max_size) or iter(()))
    for pats, ambient, bound, length in ((PI_SMOOTH, Mode.I, None, 8),
                                         (PI_SMOOTH, Mode.IPRIME, None, 8),
                                         ([(1, 2, 3)], Mode.I, 10, 6),
                                         ([(), (1, 2)], Mode.I, None, 0),
                                         (PI_PRIME, Mode.F, None, 16),
                                         (PI_PRIME, Mode.F, 12, 12)):
        passes.clear()
        ps = PatternSet(pats, Mode.CLASSICAL)
        assert compute_basis(ps, ambient, bound).search_bound == (bound or ps.basis_bound())
        assert passes == [length], (ps, ambient, bound)
    monkeypatch.undo()

    # part 1's basis, the same 11 elements of PI_SMOOTH in both orders
    want = {parse_perm(w) for w in """1324 2143 153624 351426 426153 1657324 4651327
            5276143 5472163 57681324 65872143""".split()}
    assert want <= set(PI_SMOOTH)
    for ambient in (Mode.I, Mode.IPRIME):
        report = compute_basis(PatternSet(PI_SMOOTH, Mode.CLASSICAL), ambient)
        assert report.all_elements() == tuple(sorted(want, key=lambda p: (len(p), p)))
        assert (report.search_bound, report.max_size()) == (16, 8)


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


def test_closed_containers_have_at_most_as_many_units_as_the_pattern():
    # the lemma behind the engine's unit prune, checked against its
    # definitions: a closed container of p contains p classically while
    # every one-step image avoids it, and a unit is a fixed point or a
    # 2-cycle; no closed container has more units than p has entries
    from itertools import permutations

    from invpat.containment import one_step_down
    from invpat.core import fixed_points, generate_involutions, is_fpf, two_cycles

    everything = [tau for n in range(11) for tau in generate_involutions(n)]
    images = {mode: {tau: one_step_down(tau, mode) for tau in everything
                     if mode is not Mode.F or is_fpf(tau)}
              for mode in (Mode.I, Mode.IPRIME, Mode.F)}
    closed_at_bound = 0
    for pat in (p for k in range(5) for p in permutations(range(1, k + 1))):
        checker = PatternChecker([pat], Mode.CLASSICAL)
        hit = {tau: checker.contains_any(tau) for tau in everything}
        for mode, down in images.items():
            for tau, below in down.items():
                if hit[tau] and not any(hit[img] for img in below):
                    units = len(fixed_points(tau)) + len(two_cycles(tau))
                    assert units <= len(pat), (pat, mode, tau)
                    closed_at_bound += units == len(pat)
    assert closed_at_bound > 0
