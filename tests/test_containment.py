import doctest
from itertools import combinations, permutations

import pytest

import invpat.containment as containment
from invpat.containment import (Mode, PatternChecker, avoids_all, contains,
                                contains_classical, contains_fast,
                                delete_positions, down_set, one_step_down)
from invpat.core import (cycles_from_pairs, generate_fpf, generate_involutions,
                         parse_perm, standardize)
from invpat.mcgovern import PI, PI_PRIME, PI_SMOOTH
from conftest import NESTED


def test_doctests():
    assert doctest.testmod(containment, verbose=False).failed == 0


def test_mode_parsing():
    assert Mode.parse("I") is Mode.I
    assert Mode.parse("iprime") is Mode.IPRIME
    assert Mode.parse("I'") is Mode.IPRIME
    assert Mode.parse("classical") is Mode.CLASSICAL
    with pytest.raises(ValueError):
        Mode.parse("J")
    # these once leaked AttributeError from str.strip
    for text in (5, None, b"I"):
        with pytest.raises(ValueError, match="mode must be given as a string"):
            Mode.parse(text)


def test_contains_classical_examples():
    assert contains_classical(parse_perm("21647358"), (3, 4, 1, 2))
    assert contains_classical((1, 2, 3), (1, 2))
    assert not contains_classical((3, 2, 1), (1, 2))
    assert contains_classical((2, 1, 3, 5, 4), (2, 1, 4, 3))
    assert contains_classical((), ())
    assert not contains_classical((), (1,))


def test_contains_classical_rejects_non_permutations():
    # either side that is not a permutation of 1..n raises, as in contains
    with pytest.raises(ValueError):
        contains_classical((2, 1), (1, 1))
    with pytest.raises(ValueError):
        contains_classical((5, 5), (1,))


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
    def checked(tau, p):
        return PatternChecker([p], Mode.CLASSICAL).contains_any(tau)

    involutions = [t for n in range(9) for t in generate_involutions(n)]
    matchings = [t for n in range(0, 11, 2) for t in generate_fpf(n)]
    assert _agrees_with_oracle(involutions, PI_SMOOTH, checked)
    assert _agrees_with_oracle(matchings, PI_PRIME, checked)


def _set_agrees_with_oracle(haystacks, pattern_sets) -> bool:
    """One search of each whole set against every standardized subsequence."""
    checkers = [(PatternChecker(s, Mode.CLASSICAL), set(s)) for s in pattern_sets]
    sizes = {len(p) for s in pattern_sets for p in s}
    for tau in haystacks:
        seen = {standardize(sub) for k in sizes for sub in combinations(tau, k)}
        if any(check.contains_any(tau) != bool(s & seen) for check, s in checkers):
            return False
    return True


def test_pattern_set_tree_matches_oracle_on_permutations():
    # one search of the set's prefix tree per haystack, on every
    # permutation to size 7: the McGovern sets, whose patterns of size 8
    # are longer than every haystack, seeded random sets, a pattern with
    # its own standardized prefix, duplicates and the empty pattern
    import random

    rng = random.Random(2701)
    pool = [p for n in range(1, 6) for p in permutations(range(1, n + 1))]
    sets = [PI_PRIME, PI_SMOOTH, PI]
    sets += [[rng.choice(pool) for _ in range(rng.randint(1, 5))] for _ in range(40)]
    sets += [[(2, 4, 1, 5, 3), (2, 3, 1)], [(3, 1, 2), (3, 1, 2)],
             [(), (2, 1)], [()], [], [tuple(range(9, 0, -1)), (2, 3, 1)]]
    perms = [p for n in range(8) for p in permutations(range(1, n + 1))]
    assert _set_agrees_with_oracle(perms, sets)


def test_a_pattern_set_is_searched_once_per_haystack(monkeypatch):
    # PI_PRIME's 17 patterns have 134 steps in all, which share 113 tree
    # nodes, and contains_any walks that tree once
    def nodes(tree):
        return sum(1 + nodes(node[-1]) for node in tree)

    empty, roots = containment._classical_tree(PI_PRIME)
    assert not empty and nodes(roots) == 113
    assert sum(map(len, PI_PRIME)) == 134
    assert nodes(containment._classical_tree([(3, 1, 2)])[1]) == 3
    searches = []
    real = containment._search_classical
    monkeypatch.setattr(containment, "_search_classical",
                        lambda tau, tree: searches.append(tau) or real(tau, tree))
    check = PatternChecker(PI_PRIME, Mode.CLASSICAL)
    matchings = list(generate_fpf(8))
    hits = [check.contains_any(tau) for tau in matchings]
    assert searches == matchings and 0 < sum(hits) < len(hits)


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


def _random_involution(rng, n, fpf):
    """A seeded random involution of size n, a matching if fpf: shuffled
    points are paired off until a coin says stop or two are not left."""
    points = list(range(1, n + 1))
    rng.shuffle(points)
    pairs = []
    while len(points) >= 2 and (fpf or rng.random() < 0.6):
        pairs.append(sorted((points.pop(), points.pop())))
    return cycles_from_pairs(n, pairs)


def test_embedding_matches_reference_on_random_haystacks_of_size_10_to_16(
        involutions_by_size, matchings_by_size):
    # seeded random pairs above the exhaustive range, single patterns and
    # multi-pattern checkers, in every order
    import random

    rng = random.Random(1402)
    for mode, pools in ((Mode.I, involutions_by_size), (Mode.IPRIME, involutions_by_size),
                        (Mode.F, matchings_by_size)):
        sizes = [m for m in pools if 2 <= m <= 8]
        answers, any_answers = set(), set()
        for _ in range(150):
            n = rng.randrange(10, 17)
            tau = _random_involution(rng, n - n % 2 if mode is Mode.F else n, mode is Mode.F)
            pats = [rng.choice(pools[rng.choice(sizes)]) for _ in range(4)]
            ref = [contains(tau, rho, mode) for rho in pats]
            assert [contains_fast(tau, rho, mode) for rho in pats] == ref, (tau, mode)
            assert PatternChecker(pats, mode).contains_any(tau) == any(ref), (tau, mode)
            answers.update(ref)
            any_answers.add(any(ref))
        assert answers == any_answers == {True, False}, mode


def test_avoids_all():
    rho = parse_perm("65872143")
    assert avoids_all(rho, [(2, 1, 4, 3), parse_perm("456123")], Mode.F)
    assert avoids_all((2, 1), [], Mode.I)
    assert not avoids_all((2, 1, 3, 5, 4), [(2, 1, 4, 3)], Mode.CLASSICAL)


def test_classical_mode_rejects_non_permutations():
    # both sides are validated, as in the deletion orders
    with pytest.raises(ValueError):
        contains((5, 5), (1,), Mode.CLASSICAL)
    with pytest.raises(ValueError):
        contains((2, 1), (1, 1), Mode.CLASSICAL)
    with pytest.raises(ValueError):
        avoids_all((9, 9, 9), [(2, 1)], Mode.CLASSICAL)
    for tau, rho in (((5, 5), (1,)), ((2, 1), (1, 1))):
        with pytest.raises(ValueError):
            contains_fast(tau, rho, Mode.CLASSICAL)
    for mode in Mode:
        with pytest.raises(ValueError):
            avoids_all((9, 9, 9), [(1,)], mode)
        with pytest.raises(ValueError):
            PatternChecker([(1, 1)], mode)
    assert not contains((3, 2, 1), (1, 2), Mode.CLASSICAL)
    assert contains_fast((2, 1, 3), (1, 2), Mode.CLASSICAL)


def _minimal_oracle(patterns):
    """The patterns with no other pattern of the set among their subsequences."""
    others = set(patterns)
    return {p for p in others
            if not any(standardize(sub) in others - {p}
                       for k in range(len(p)) for sub in combinations(p, k))}


def test_classically_minimal_patterns():
    minimal = containment._classically_minimal
    assert minimal(PI_SMOOTH) == ((1, 3, 2, 4), (2, 1, 4, 3))
    assert len(minimal(PI)) == 18
    assert set(minimal(PI_PRIME)) == set(PI_PRIME) and len(minimal(PI_PRIME)) == 17
    assert minimal(NESTED) == ((3, 2, 1), (2, 1, 4, 3), (3, 4, 1, 2))
    assert minimal([]) == ()
    for pats in (PI_SMOOTH, PI, PI_PRIME, NESTED):
        assert set(minimal(pats)) == _minimal_oracle(pats)
    with pytest.raises(ValueError):
        containment._classically_minimal([(1, 1)])


@pytest.mark.parametrize("pats", [PI_SMOOTH, PI, NESTED, [(1, 3, 2), (3, 2, 1)],
                                  [(1, 2), (1, 3, 2)]],
                         ids=["PI_SMOOTH", "PI", "NESTED", "132-321", "12-132"])
def test_closed_classical_check_matches_full_set_on_closed_candidates(pats):
    # on every involution to 9 and matching to 10, the level engine's
    # classical screen (minimal patterns, unit cut, mirrors) answers as
    # PatternChecker does over the whole set: its members are the full
    # set's avoiders, and its violators the candidates the full set
    # catches whose one-step images all avoid.  The first three sets are
    # closed under reverse-complement, {132, 321} is not, and {12, 132}
    # is only once cut to {12}
    from invpat.classes import PatternSet, avoider_levels

    full = PatternChecker(pats, Mode.CLASSICAL).contains_any
    for mode, top, generate in ((Mode.IPRIME, 9, generate_involutions),
                                (Mode.F, 10, generate_fpf)):
        violators = []
        levels = [set(members) for _, members in
                  avoider_levels(PatternSet(pats, Mode.CLASSICAL), mode, top, violators)]
        closed = hits = 0
        for n in range(top + 1):
            for tau in generate(n):
                if not any(full(img) for img in one_step_down(tau, mode)):
                    closed += 1
                    hits += full(tau)
            assert levels[n] == {tau for tau in generate(n) if not full(tau)}, (mode, n)
        assert sorted(violators) == sorted(
            tau for n in range(top + 1) for tau in generate(n)
            if full(tau) and not any(full(img) for img in one_step_down(tau, mode)))
        assert 0 < hits < closed == sum(map(len, levels)) + hits, mode
