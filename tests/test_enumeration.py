import doctest
from math import comb

import pytest

import invpat.enumeration as enumeration
from invpat.bijections import heights, iter_motzkin_words
from invpat.classes import PatternSet, avoider_levels, class_members
from invpat.containment import Mode
from invpat.core import reverse_complement
from invpat.enumeration import (PolyT, _level_counts, check_corollary_stanley,
                                check_fixed_point_identity,
                                check_recurrence_132, count_avoiders,
                                count_table, d_series, egf_identity_report,
                                formula_pattern123, formula_pattern132,
                                formula_pattern132_poly, formula_pattern2143,
                                formula_pattern321, involution_count,
                                matching_count, pq_binomial, pq_bracket)
from invpat.mcgovern import PI_PRIME, PI_SMOOTH
from conftest import involution_count_oracle


def test_doctests():
    assert doctest.testmod(enumeration, verbose=False).failed == 0


def test_polyt_arithmetic():
    a = PolyT((1, 2))
    assert PolyT((1, 0, 0)).coeffs == (1,)
    assert a(2) == 5
    assert str(PolyT((1, -1, 2))) == "1 - t + 2t^2"
    assert str(PolyT()) == "0"


def test_involution_and_matching_counts():
    for n in range(12):
        assert involution_count(n) == involution_count_oracle(n)
    assert [matching_count(n) for n in range(8)] == [1, 0, 1, 0, 3, 0, 15, 0]
    for count, n in ((involution_count, -1), (matching_count, -1), (matching_count, -2)):
        with pytest.raises(ValueError, match="size must be nonnegative"):
            count(n)


def test_formula_values():
    assert formula_pattern321(4) == 6
    assert formula_pattern321(1) == 1
    assert formula_pattern321(10) == 252
    assert str(formula_pattern132_poly(3)) == "1 + 2t"
    assert formula_pattern132_poly(4)(1) == 6
    p = formula_pattern132_poly(5)
    assert p(2) == sum(c * 2 ** k for k, c in enumerate(p.coeffs))
    assert formula_pattern123(4) == 6
    assert formula_pattern123(1) == 1
    assert formula_pattern2143(4) == 9
    assert formula_pattern2143(0) == 1
    with pytest.raises(ValueError):
        formula_pattern321(0)


def test_count_avoiders_examples():
    assert count_avoiders(PatternSet([(2, 1, 4, 3)], Mode.I), Mode.I, 4) == 9
    assert count_avoiders(PatternSet([(1, 2, 3)], Mode.I), Mode.I, 4) == 6
    assert count_avoiders(PatternSet([], Mode.I), Mode.I, 6) == 76
    by_fix = count_avoiders(PatternSet([], Mode.I), Mode.I, 4, True)
    assert by_fix == {0: 3, 2: 6, 4: 1}


def test_formulas_against_exhaustive_to_10():
    # the deeper n <= 12 sweep runs in the acceptance suite
    sets = {
        formula_pattern321: PatternSet([(3, 2, 1)], Mode.I),
        formula_pattern132: PatternSet([(1, 3, 2)], Mode.I),
        formula_pattern123: PatternSet([(1, 2, 3)], Mode.I),
        formula_pattern2143: PatternSet([(2, 1, 4, 3)], Mode.I),
    }
    for formula, ps in sets.items():
        for n in range(1, 11):
            assert formula(n) == count_avoiders(ps, Mode.I, n), (formula, n)


def test_recurrence_values():
    vals = {n: formula_pattern132(n) for n in range(1, 5)}
    assert vals == {1: 1, 2: 2, 3: 3, 4: 6}
    assert 2 * vals[4] == 3 * vals[3] + 3 * vals[2] - 3 * vals[1]
    assert check_recurrence_132(14)
    assert check_recurrence_132(3)  # vacuous


def test_refined_polynomials_match_and_coincide():
    p132 = PatternSet([(1, 3, 2)], Mode.I)
    p213 = PatternSet([(2, 1, 3)], Mode.I)
    for n in range(1, 11):
        by132 = count_avoiders(p132, Mode.I, n, refine_by_fixed_points=True)
        by213 = count_avoiders(p213, Mode.I, n, refine_by_fixed_points=True)
        # k 2-cycles <=> n-2k fixed points
        poly132 = [0] * (n // 2 + 1)
        for fixes, c in by132.items():
            poly132[(n - fixes) // 2] = c
        assert PolyT(poly132) == formula_pattern132_poly(n)
        assert by132 == by213


def test_pq_helpers():
    assert pq_bracket(1, 5, 7) == 1
    assert pq_bracket(3, 2, 1) == 7
    assert pq_binomial(4, 2, 1, 1) == comb(4, 2)
    assert pq_binomial(5, 2, 1, -1) == 2
    assert pq_binomial(3, 5, 2, 3) == 0


def test_d_series_values():
    for p in range(-2, 4):
        ds = d_series(p, -1, 5)
        assert ds[4] == PolyT((1, p * p + 2, p * p - p + 2)), p
        assert ds[0] == PolyT((1,))
    ds = d_series(1, -1, 13)
    for n in range(1, 13):
        assert ds[n](1) == formula_pattern132(n)


@pytest.mark.parametrize("p, q, pattern", [
    (1, -1, (1, 3, 2)), (1, -1, (2, 1, 3)),
    (1, 0, (3, 4, 1, 2)), (1, 0, (4, 3, 2, 1)),
    (0, 1, (3, 4, 1, 2)), (0, 1, (4, 3, 2, 1)),
])
def test_d_series_counts_avoiders_by_2_cycles(p, q, pattern):
    # the coefficient of t^k in term n counts the size-n avoiders with k 2-cycles
    refined = count_table(PatternSet([pattern], Mode.I), Mode.I, 12, True).refined
    ds = d_series(p, q, 13)
    for n in range(1, 13):
        by_cycles = [0] * (n // 2 + 1)
        for (size, fixes), c in refined.items():
            if size == n:
                by_cycles[(n - fixes) // 2] = c
        assert ds[n] == PolyT(by_cycles), n


def test_d_series_matches_the_path_expansion():
    # Flajolet: term n sums, over the Motzkin paths of length n, the product
    # of the step weights, as a polynomial in t by the number of down steps
    paths = [(n, word, heights(word)) for n in range(11) for word in iter_motzkin_words(n)]
    for p in range(-2, 4):
        for q in range(-2, 4):
            level = [pq_bracket(h + 1, p, q) for h in range(6)]
            down = [pq_binomial(h + 2, 2, p, q) for h in range(6)]   # by height after the step
            expected = [[0] * (n // 2 + 1) for n in range(11)]
            for n, word, hs in paths:
                weight = 1
                for step, h in zip(word, hs):
                    weight *= level[h] if step == "L" else down[h] if step == "D" else 1
                expected[n][word.count("D")] += weight
            assert d_series(p, q, 11) == [PolyT(e) for e in expected], (p, q)


def test_fixed_point_identity():
    assert check_fixed_point_identity(PatternSet([(2, 1, 4, 3)], Mode.F), 8)
    assert check_fixed_point_identity(PatternSet([], Mode.F), 7)
    with pytest.raises(ValueError):
        check_fixed_point_identity(PatternSet([(1, 3, 2)], Mode.I), 6)


def test_stanley_identity():
    assert check_corollary_stanley(1, 8)
    assert check_corollary_stanley(2, 9)
    with pytest.raises(ValueError):
        check_corollary_stanley(0, 5)


def test_egf_identity():
    rows = egf_identity_report(PatternSet([(2, 1, 4, 3)], Mode.F), 9)
    assert all(ok for *_, ok in rows)
    assert [lhs for _, lhs, _, _ in rows] == [formula_pattern2143(n) for n in range(10)]
    rows = egf_identity_report(PatternSet([], Mode.F), 8)
    assert all(ok for *_, ok in rows)
    assert rows[6][1] == involution_count(6)
    assert rows[6][2] == sum(comb(6, m) * matching_count(6 - m) for m in range(7))


def test_reverse_complement_equivariance():
    for pats in ([(1, 3, 2)], [(1, 2, 3)], [(2, 1, 4, 3)], [(1, 3, 2), (2, 1)]):
        ps = PatternSet(pats, Mode.I)
        rc = PatternSet([reverse_complement(p) for p in pats], Mode.I)
        for n in range(1, 9):
            members = class_members(ps, Mode.I, n)
            image = {reverse_complement(t) for t in members}
            assert image == class_members(rc, Mode.I, n)


def test_monotone_ratio_trend():
    # the counts oscillate with parity, so the trend is asserted along
    # same-parity steps (the asymptotic separation only holds that way)
    from fractions import Fraction

    ratios = {n: Fraction(formula_pattern123(n), formula_pattern132(n))
              for n in range(6, 15)}
    for n in range(6, 13):
        assert ratios[n] < ratios[n + 2]


def test_count_table_serialization():
    table = count_table(PatternSet([(3, 2, 1)], Mode.I), Mode.I, 4)
    assert table.to_rows() == ["n\tcount", "1\t1", "2\t2", "3\t3", "4\t6"]
    assert "n=4" in table.to_text()
    refined = count_table(PatternSet([], Mode.I), Mode.I, 3, True)
    assert "n\tfixed\tcount" in refined.to_rows()[0]
    assert refined.refined[(3, 1)] == 3


def _counting_peak_and_top_list(count):
    """The tracemalloc peak of count(), its result, and a list of every
    size-11 involution with the memory that list takes."""
    import tracemalloc

    from invpat.core import generate_involutions

    tracemalloc.start()
    try:
        counted = count()
        _, counting_peak = tracemalloc.get_traced_memory()
        before, _ = tracemalloc.get_traced_memory()
        top = list(generate_involutions(11))
        list_size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return counting_peak, counted, top, list_size


def _count_table_to_11(patterns):
    return lambda: count_table(PatternSet(patterns, Mode.I), Mode.I, 11)


def test_count_table_streams_the_top_level():
    # every size of the empty set lies below its smallest pattern size, so
    # counting it to 11 reads the involution numbers and holds no level
    # at all, far less than a list of the 35,696 size-11 involutions
    counting_peak, table, top, list_size = _counting_peak_and_top_list(_count_table_to_11([]))
    assert table.counts[11] == len(top) == 35696
    assert counting_peak < list_size, (counting_peak, list_size)


def test_avoider_levels_streams_the_top_level():
    # counting no longer grows the empty set's levels, so consume the
    # engine directly: growing every involution to 11 holds the levels of
    # sizes 9 and 10 only, which take less memory than a list of the
    # 35,696 size-11 involutions
    def consume():
        return [sum(1 for _ in members)
                for _, members in avoider_levels(PatternSet([], Mode.I), Mode.I, 11)]

    counting_peak, counts, top, list_size = _counting_peak_and_top_list(consume)
    assert counts[11] == len(top) == 35696
    assert counting_peak < list_size, (counting_peak, list_size)


def test_counting_below_the_smallest_pattern_holds_no_level():
    # none of the 2,390,480 involutions of size 14 is built: counting the
    # empty set to 14 keeps only the counts and the matching numbers
    import tracemalloc

    for refine in (False, True):
        tracemalloc.start()
        try:
            table = count_table(PatternSet([], Mode.I), Mode.I, 14, refine)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.counts[14] == involution_count_oracle(14)
        assert peak < 1_000_000, (refine, peak)


def test_no_tables_where_nothing_is_checked():
    # the smallest pattern sits at the top size, so no candidate is ever
    # checked for closure and the engine holds no image tables: counting
    # the avoiders of the decreasing pattern of size 11 to 11 holds the
    # 12,116 involutions of sizes 9 and 10, under half the memory of a
    # list of the 35,696 size-11 involutions; tables at every level would
    # take it past half
    decreasing = tuple(range(11, 0, -1))
    counting_peak, table, top, list_size = _counting_peak_and_top_list(
        _count_table_to_11([decreasing]))
    assert table.counts[11] == len(top) - 1
    assert counting_peak < list_size / 2, (counting_peak, list_size)


def _engine_tally(ps, ambient, n_max):
    """Per size 0..n_max, the avoiders' count by fixed points, tallied from
    the level engine consumed directly: the oracle for the ambient counts
    read below the smallest pattern size."""
    by_size = []
    for _, members in avoider_levels(ps, ambient, n_max):
        by_fix = {}
        for tau in members:
            m = sum(1 for i, v in enumerate(tau, 1) if i == v)
            by_fix[m] = by_fix.get(m, 0) + 1
        by_size.append(by_fix)
    return by_size


@pytest.mark.parametrize("patterns, mode, ambient", [
    ((), Mode.I, Mode.I),
    ((), Mode.F, Mode.F),
    ((), Mode.IPRIME, Mode.I),
    ((), Mode.CLASSICAL, Mode.I),
    ((), Mode.I, Mode.F),
    (((5, 4, 3, 2, 1),), Mode.I, Mode.I),
    (((1, 2, 3, 4, 5),), Mode.CLASSICAL, Mode.F),
    (((2, 1, 4, 3),), Mode.F, Mode.F),
    (PI_SMOOTH, Mode.IPRIME, Mode.I),
    (PI_PRIME, Mode.F, Mode.F),
])
@pytest.mark.parametrize("refine", [False, True])
def test_count_table_matches_the_engine(patterns, mode, ambient, refine):
    ps = PatternSet(patterns, mode)
    by_size = _engine_tally(ps, ambient, 10)
    sizes = [n for n in range(1, 11) if not (ambient is Mode.F and n % 2)]
    table = count_table(ps, ambient, 10, refine)
    assert table.counts == {n: sum(by_size[n].values()) for n in sizes}
    assert table.refined == ({(n, m): c for n in sizes for m, c in by_size[n].items()}
                             if refine else None)
    assert _level_counts(ps, ambient, 10) == [sum(by_fix.values()) for by_fix in by_size]
    for n, by_fix in enumerate(by_size):
        assert count_avoiders(ps, ambient, n, refine) == (by_fix if refine else sum(by_fix.values()))


_COUNTERS = pytest.mark.parametrize("counter", [count_table, count_avoiders, _level_counts],
                                    ids=lambda f: f.__name__)


@_COUNTERS
@pytest.mark.parametrize("size", [1, 4])
def test_counting_rejects_f_mode_sets_outside_matchings(counter, size):
    # size 1 lies below the pattern, where the engine is not run
    with pytest.raises(ValueError, match="F-mode pattern sets only filter matchings"):
        counter(PatternSet([(2, 1)], Mode.F), Mode.I, size)


@_COUNTERS
@pytest.mark.parametrize("patterns", [(), ((1, 2, 3),)])
def test_counting_rejects_a_classical_ambient(counter, patterns):
    with pytest.raises(ValueError, match="ambient must be one of the involution/matching orders"):
        counter(PatternSet(patterns, Mode.I), Mode.CLASSICAL, 4)


@_COUNTERS
@pytest.mark.parametrize("ambient", [Mode.I, Mode.F])
def test_counting_rejects_a_negative_size(counter, ambient):
    with pytest.raises(ValueError, match="size must be nonnegative"):
        counter(PatternSet([], Mode.I), ambient, -1)
