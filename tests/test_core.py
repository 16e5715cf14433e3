import doctest
import pytest
from hypothesis import given
from hypothesis import strategies as st

import invpat.core as core
from invpat.core import (cycles, format_cycles, format_perm, fpf_code,
                         fpf_visible_descents, generate_fpf,
                         generate_involutions, generate_permutations, inverse,
                         involution_code, lr_minima, odd_fix_gap, parse_perm,
                         reverse_complement, skew_sum, standardize,
                         visible_descents)
from conftest import involution_count_oracle


def test_doctests():
    assert doctest.testmod(core, verbose=False).failed == 0


def test_standardize_examples():
    assert standardize((3, 6, 2)) == (2, 3, 1)
    assert standardize((1, 2, 3)) == (1, 2, 3)
    # the three deletions of the worked containment example
    assert standardize((2, 6, 4, 3)) == (1, 4, 3, 2)
    with pytest.raises(ValueError):
        standardize((1, 1, 2))


@given(st.lists(st.integers(-1000, 1000), unique=True, max_size=12))
def test_standardize_order_preserving(word):
    out = standardize(tuple(word))
    assert sorted(out) == list(range(1, len(word) + 1))
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            assert (word[i] < word[j]) == (out[i] < out[j])
    assert standardize(out) == out


def test_inverse_examples():
    assert inverse((2, 3, 1)) == (3, 1, 2)
    assert inverse((2, 1)) == (2, 1)
    assert inverse((3, 4, 1, 2)) == (3, 4, 1, 2)


def test_reverse_complement_examples():
    assert reverse_complement((1, 3, 2)) == (2, 1, 3)
    assert reverse_complement((1, 2, 3)) == (1, 2, 3)
    assert reverse_complement((2, 1, 4, 3)) == (2, 1, 4, 3)


def test_reverse_complement_preserves_cycle_type(involutions_by_size):
    for n, pool in involutions_by_size.items():
        for tau in pool:
            out = reverse_complement(tau)
            assert sorted(b - a for a, b in cycles(tau)) == \
                sorted(b - a for a, b in cycles(out))
            assert reverse_complement(out) == tau


def test_skew_sum_examples():
    assert skew_sum((1,), (1,)) == (2, 1)
    assert skew_sum((2, 1), (2, 1)) == (4, 3, 2, 1)
    assert skew_sum((1, 2), (1, 2)) == (3, 4, 1, 2)


def test_cycles_examples():
    assert cycles((4, 2, 6, 1, 5, 3)) == {(1, 4), (2, 2), (3, 6), (5, 5)}
    assert cycles((1, 2, 3)) == {(1, 1), (2, 2), (3, 3)}
    assert cycles((2, 1)) == {(1, 2)}
    with pytest.raises(ValueError):
        cycles((2, 3, 1))


def _two_pass_check_involution(pi):
    """The earlier validator: a permutation check, then an involution check."""
    n = len(pi)
    seen = [False] * (n + 1)
    for v in pi:
        if not isinstance(v, int) or not 1 <= v <= n or seen[v]:
            raise ValueError(f"not a permutation of 1..n: {pi!r}")
        seen[v] = True
    if not all(pi[v - 1] == i + 1 for i, v in enumerate(pi)):
        raise ValueError(f"not an involution: {pi!r}")
    return tuple(pi)


def test_check_involution_matches_two_pass_oracle():
    # every word of length <= 5 over -1..n+1 plus three look-alikes of 1
    # (a float, a str and a bool), then every word of length 6 over 1..6
    from itertools import product

    def verdict(check, word):
        try:
            return check(word)
        except ValueError:
            return ValueError

    words = [w for n in range(6)
             for w in product([*range(-1, n + 2), 1.0, "1", True], repeat=n)]
    words += product(range(1, 7), repeat=6)
    for word in words:
        # repr tells (True,) from (1,)
        assert repr(verdict(core.check_involution, word)) == \
            repr(verdict(_two_pass_check_involution, word)), word


def test_generators_counts_and_invariants(involutions_by_size, matchings_by_size):
    for n, pool in involutions_by_size.items():
        assert len(pool) == len(set(pool))
        assert list(pool) == sorted(pool)
        assert len(pool) == involution_count_oracle(n)
        for tau in pool:
            assert inverse(tau) == tau
            assert sorted(x for ab in cycles(tau) for x in set(ab)) == \
                list(range(1, n + 1))
    assert len(matchings_by_size[4]) == 3
    for n, pool in matchings_by_size.items():
        want = 1
        for k in range(1, n, 2):
            want *= k
        assert len(pool) == want
    assert len(list(generate_permutations(3))) == 6


def test_generator_counts_to_14():
    # the size-16 extreme is asserted on the oracle only; generating
    # 46 million words takes minutes, and no sweep needs them
    assert involution_count_oracle(16) == 46_206_736
    for n in range(9, 15):
        assert sum(1 for _ in generate_involutions(n)) == involution_count_oracle(n)


def test_generator_prefix_partition():
    for n in (5, 6):
        whole = list(generate_involutions(n))
        blocks = [t for v in range(1, n + 1)
                  for t in generate_involutions(n, first_value=v)]
        assert whole == blocks
        fwhole = list(generate_fpf(n))
        fblocks = [t for v in range(1, n + 1)
                   for t in generate_fpf(n, first_value=v)]
        assert fwhole == fblocks


def test_codes_and_descents(involutions_by_size, matchings_by_size):
    assert involution_code((1, 2, 3, 4)) == (0, 0, 0)
    assert involution_code((2, 1)) == (1,)
    assert fpf_code((2, 1, 4, 3)) == (0, 0, 0)
    with pytest.raises(ValueError):
        fpf_code((1, 3, 2))

    # oracle: literal definition scan over all (i, j)
    def inversion_pairs(tau, strict):
        n = len(tau)
        return {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                if (tau[j - 1] < i if strict else tau[j - 1] <= i)
                and i < j and tau[i - 1] > tau[j - 1]}

    def code_oracle(tau, strict):
        pairs = inversion_pairs(tau, strict)
        return tuple(sum(1 for (a, _) in pairs if a == i)
                     for i in range(1, len(tau)))

    for n, pool in involutions_by_size.items():
        for tau in pool:
            code = involution_code(tau)
            assert len(code) == max(n - 1, 0)
            assert code == code_oracle(tau, strict=False)
            assert visible_descents(tau) == \
                {i for i in range(1, n) if (i, i + 1) in inversion_pairs(tau, False)}
            assert visible_descents(tau) <= set(range(1, n))
    for n, pool in matchings_by_size.items():
        for rho in pool:
            assert fpf_code(rho) == code_oracle(rho, strict=True)
            assert fpf_visible_descents(rho) == \
                {i for i in range(1, n) if (i, i + 1) in inversion_pairs(rho, True)}


def test_odd_fix_gap_examples(involutions_by_size):
    assert odd_fix_gap((2, 1, 3, 5, 4))
    assert not odd_fix_gap((2, 1, 4, 3))
    # at most one 2-cycle: vacuously true
    for pool in involutions_by_size.values():
        for tau in pool:
            if sum(1 for a, b in cycles(tau) if a != b) <= 1:
                assert odd_fix_gap(tau)


def test_lr_minima_examples():
    assert lr_minima((4, 2, 6, 1, 5, 3)) == ([(1, 4), (2, 2)], [1, 2, 4])
    for n in (1, 2, 5):
        assert lr_minima(tuple(range(1, n + 1))) == ([(1, 1)], [1])
    assert lr_minima((4, 3, 2, 1)) == ([(1, 4), (2, 3)], [1, 2, 3, 4])


def test_textual_forms():
    assert format_perm((2, 1, 6, 4, 7, 3, 5, 8)) == "21647358"
    assert parse_perm("21647358") == (2, 1, 6, 4, 7, 3, 5, 8)
    long = tuple([10, 3, 2, 4, 5, 6, 7, 8, 9, 1])
    assert parse_perm(format_perm(long)) == long
    assert format_cycles((2, 1, 6, 4, 7, 3, 5, 8)) == "(1,2)(3,6)(4)(5,7)(8)"
    assert parse_perm("(1,2)(3,6)(4)(5,7)(8)") == (2, 1, 6, 4, 7, 3, 5, 8)
    assert parse_perm("()") == ()
    with pytest.raises(ValueError):
        parse_perm("122")
    with pytest.raises(ValueError):
        parse_perm("(1,2)(2,3)")


@given(st.permutations(list(range(1, 10))))
def test_textual_round_trip(perm):
    t = tuple(perm)
    assert parse_perm(format_perm(t)) == t


def test_union12_structure(involutions_by_size):
    # every 123-avoider splits into two 12-avoiding halves along its
    # left-to-right minima, and the minima cover an initial segment
    from invpat.classes import PatternSet, class_members
    from invpat.containment import Mode
    from invpat.core import standardize as st_

    ps123 = PatternSet([(1, 2, 3)], Mode.I)
    ps12 = PatternSet([(1, 2)], Mode.I)
    for n in range(1, 11):
        twelve_avoiders = {k: class_members(ps12, Mode.I, k) for k in range(n + 1)}
        for tau in class_members(ps123, Mode.I, n):
            _, support = lr_minima(tau)
            k = len(support)
            rest = [p for p in range(1, n + 1) if p not in set(support)]
            a = st_(tuple(tau[p - 1] for p in support))
            b = st_(tuple(tau[p - 1] for p in rest))
            assert a in twelve_avoiders[len(a)]
            assert b in twelve_avoiders[len(b)]
            assert set(range(1, k // 2 + 2)) <= set(support)
