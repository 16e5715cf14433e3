import doctest
from itertools import combinations, permutations

import pytest

import invpat.containment as containment
from invpat.containment import (Mode, PatternChecker, avoids_all, contains,
                                contains_classical, contains_fast,
                                delete_positions, down_set, one_step_down)
from invpat.core import generate_fpf, generate_involutions, parse_perm, standardize


def test_doctests():
    assert doctest.testmod(containment, verbose=False).failed == 0


def test_mode_parsing():
    assert Mode.parse("I") is Mode.I
    assert Mode.parse("iprime") is Mode.IPRIME
    assert Mode.parse("I'") is Mode.IPRIME
    assert Mode.parse("classical") is Mode.CLASSICAL
    with pytest.raises(ValueError):
        Mode.parse("J")


def test_contains_classical_examples():
    assert contains_classical(parse_perm("21647358"), (3, 4, 1, 2))
    assert contains_classical((1, 2, 3), (1, 2))
    assert not contains_classical((3, 2, 1), (1, 2))
    assert contains_classical((2, 1, 3, 5, 4), (2, 1, 4, 3))
    assert contains_classical((), ())
    assert not contains_classical((), (1,))


def _agrees_with_oracle(haystacks, patterns, contains) -> bool:
    """A classical containment test against every standardized subsequence."""
    sizes = {len(p) for p in patterns}
    for tau in haystacks:
        seen = {standardize(sub) for k in sizes for sub in combinations(tau, k)}
        if any(contains(tau, p) != (p in seen) for p in patterns):
            return False
    return True


def test_compiled_classical_matches_oracle_on_permutations():
    perms = [p for n in range(8) for p in permutations(range(1, n + 1))]
    assert _agrees_with_oracle(perms, [p for p in perms if len(p) <= 4],
                               contains_classical)


def test_compiled_classical_matches_oracle_on_pattern_sets():
    from invpat.mcgovern import PI_PRIME, PI_SMOOTH

    def checked(tau, p):
        return PatternChecker([p], Mode.CLASSICAL).contains_any(tau)

    involutions = [t for n in range(9) for t in generate_involutions(n)]
    matchings = [t for n in range(0, 11, 2) for t in generate_fpf(n)]
    assert _agrees_with_oracle(involutions, PI_SMOOTH, checked)
    assert _agrees_with_oracle(matchings, PI_PRIME, checked)


def test_one_step_down_examples():
    assert one_step_down((2, 1, 4, 3), Mode.I) == {(2, 1), (1, 3, 2), (2, 1, 3)}
    assert one_step_down((2, 1), Mode.IPRIME) == {()}
    assert one_step_down((1,), Mode.I) == {()}
    assert one_step_down((2, 1, 4, 3), Mode.F) == {(2, 1)}
    with pytest.raises(ValueError):
        one_step_down((1, 2), Mode.F)
    with pytest.raises(ValueError):
        one_step_down((2, 3, 1), Mode.I)
    with pytest.raises(ValueError):
        one_step_down((2, 1), Mode.CLASSICAL)


def test_collapse_equals_delete_then_standardize():
    # squashing an adjacent 2-cycle, then deleting the new fixed point,
    # agrees with deleting the whole 2-cycle
    from invpat.core import generate_involutions, two_cycles

    for n in range(2, 9):
        for tau in generate_involutions(n):
            for a, b in two_cycles(tau):
                if b != a + 1:
                    continue
                squashed = delete_positions(tau, (b,))
                assert delete_positions(squashed, (a,)) == \
                    delete_positions(tau, (a, b))


def test_contains_reference_examples():
    t = parse_perm("21647358")
    assert contains(t, (1, 4, 3, 2), Mode.I)
    # forced by the singleton-class equivalence: 3412 has no independent
    # cycle pair, so deletion-order containment matches classical
    assert contains(t, (3, 4, 1, 2), Mode.I)
    assert contains((2, 1, 4, 3), (1, 3, 2), Mode.I)
    rho = parse_perm("65872143")
    assert not contains(rho, (2, 1, 4, 3), Mode.F)
    assert contains_classical(rho, (2, 1, 4, 3))
    assert not contains((2, 1), (1,), Mode.IPRIME)
    assert contains((2, 1), (1,), Mode.I)
    with pytest.raises(ValueError):
        contains((1, 2), (2, 1), Mode.F)


def test_contains_fast_examples():
    assert contains_fast((2, 1, 4, 3), (1, 3, 2), Mode.I)
    assert contains_fast((4, 3, 2, 1), (2, 1), Mode.F)
    assert not contains_fast(parse_perm("65872143"), (2, 1, 4, 3), Mode.F)


def test_order_axioms(involutions_by_size):
    pool = [t for n in range(7) for t in involutions_by_size[n]]
    for tau in pool:
        ds = down_set(tau, Mode.I)
        assert tau in ds                               # reflexive
        for rho in ds:
            assert len(rho) < len(tau) or rho == tau   # antisymmetric by size
            assert down_set(rho, Mode.I) <= ds         # transitive


def test_mode_coarseness(involutions_by_size, matchings_by_size):
    from invpat.core import is_fpf

    for n in range(9):
        for tau in involutions_by_size[n]:
            full = down_set(tau, Mode.I)
            coarse = down_set(tau, Mode.IPRIME)
            assert coarse <= full
            for rho in full:
                assert contains_classical(tau, rho)
    for n, pool in matchings_by_size.items():
        for tau in pool:
            fdown = down_set(tau, Mode.F)
            idown = {r for r in down_set(tau, Mode.I) if is_fpf(r)}
            assert fdown <= idown


def _recursive_down_set(tau, mode, memo):
    """The earlier reference: a recursion over one-step images, memoised in memo."""
    got = memo.get(tau)
    if got is None:
        acc = {tau}
        for img in one_step_down(tau, mode):
            acc |= _recursive_down_set(img, mode, memo)
        got = memo[tau] = frozenset(acc)
    return got


def _pools(involutions_by_size, matchings_by_size, top):
    involutions = [t for n in range(top + 1) for t in involutions_by_size[n]]
    matchings = [t for n, pool in matchings_by_size.items() if n <= top for t in pool]
    return ((Mode.I, involutions), (Mode.IPRIME, involutions), (Mode.F, matchings))


def test_down_set_matches_recursive_oracle(involutions_by_size, matchings_by_size):
    for mode, pool in _pools(involutions_by_size, matchings_by_size, 8):
        memo = {}
        for tau in pool:
            assert down_set(tau, mode) == _recursive_down_set(tau, mode, memo)


def test_contains_matches_recursive_oracle(involutions_by_size, matchings_by_size):
    for mode, pool in _pools(involutions_by_size, matchings_by_size, 7):
        memo = {}
        for tau in pool:
            below = _recursive_down_set(tau, mode, memo)
            for rho in pool:
                assert contains(tau, rho, mode) == (rho in below)
    for bad, mode in (((1, 2), Mode.F), ((2, 3, 1), Mode.I), ((1.0,), Mode.IPRIME)):
        for call in (lambda: down_set(bad, mode), lambda: contains(bad, (), mode),
                     lambda: contains((), bad, mode)):
            with pytest.raises(ValueError):
                call()


def test_embedding_matches_reference_small(involutions_by_size):
    # the exhaustive size-8 sweep lives in the acceptance suite; this is
    # the fast development check
    pool = [t for n in range(7) for t in involutions_by_size[n]]
    for mode in (Mode.I, Mode.IPRIME):
        for tau in pool:
            ds = down_set(tau, mode)
            for rho in pool:
                if len(rho) <= len(tau):
                    assert contains_fast(tau, rho, mode) == (rho in ds)


def test_embedding_matches_reference_spot_checks_size_9():
    # seeded spot-check just above the exhaustive gate
    import random

    from invpat.core import generate_involutions

    rng = random.Random(97)
    pool = rng.sample(list(generate_involutions(9)), 120)
    pats = [t for n in range(1, 6) for t in generate_involutions(n)]
    for tau in pool:
        for rho in rng.sample(pats, 12):
            for mode in (Mode.I, Mode.IPRIME):
                assert contains_fast(tau, rho, mode) == contains(tau, rho, mode)


def test_avoids_all():
    rho = parse_perm("65872143")
    assert avoids_all(rho, [(2, 1, 4, 3), parse_perm("456123")], Mode.F)
    assert avoids_all((2, 1), [], Mode.I)
    assert not avoids_all((2, 1, 3, 5, 4), [(2, 1, 4, 3)], Mode.CLASSICAL)
