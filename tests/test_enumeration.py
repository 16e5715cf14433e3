import doctest
from math import comb

import pytest

import invpat.enumeration as enumeration
from invpat.classes import PatternSet, class_members
from invpat.containment import Mode
from invpat.core import reverse_complement
from invpat.enumeration import (PolyT, check_corollary_stanley,
                                check_fixed_point_identity,
                                check_recurrence_132, count_avoiders,
                                count_table, d_series, egf_identity_report,
                                formula_pattern123, formula_pattern132,
                                formula_pattern132_poly, formula_pattern2143,
                                formula_pattern321, involution_count,
                                matching_count, pq_binomial, pq_bracket)
from conftest import involution_count_oracle


def test_doctests():
    assert doctest.testmod(enumeration, verbose=False).failed == 0


def test_polyt_arithmetic():
    a = PolyT((1, 2))
    b = PolyT((0, 1, 3))
    assert (a + b).coeffs == (1, 3, 3)
    assert (a * b).coeffs == (0, 1, 5, 6)
    assert PolyT((1, 0, 0)).coeffs == (1,)
    assert a(2) == 5
    assert str(PolyT((1, -1, 2))) == "1 - t + 2t^2"
    assert str(PolyT()) == "0"


def test_involution_and_matching_counts():
    for n in range(12):
        assert involution_count(n) == involution_count_oracle(n)
    assert [matching_count(n) for n in range(8)] == [1, 0, 1, 0, 3, 0, 15, 0]


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


def test_count_table_streams_the_top_level():
    # counting to 11 holds the levels of sizes 9 and 10 only, which take
    # less memory than a list of the 35,696 size-11 involutions
    import tracemalloc

    from invpat.core import generate_involutions

    tracemalloc.start()
    try:
        table = count_table(PatternSet([], Mode.I), Mode.I, 11)
        _, counting_peak = tracemalloc.get_traced_memory()
        before, _ = tracemalloc.get_traced_memory()
        top = list(generate_involutions(11))
        list_size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.counts[11] == len(top) == 35696
    assert counting_peak < list_size, (counting_peak, list_size)
