import doctest
from itertools import permutations, product
from math import factorial

import pytest

import invpat.bijections as bijections
from invpat.bijections import (AndrePath, LabeledDyck, LaguerreHistory,
                               andre_to_involution, check_andre,
                               check_history, check_labeled_dyck,
                               check_motzkin, dyck_to_history,
                               from_skew_half, heights,
                               history_to_dyck, history_to_perm,
                               insert_fixed_points, insert_level_steps,
                               involution_to_andre, iter_andre_paths,
                               iter_dyck_words, iter_labeled_dyck,
                               iter_laguerre_histories, iter_motzkin_words,
                               perm_to_history, remove_fixed_points,
                               skew_half, strip_level_steps)
from invpat.classes import PatternSet, class_members
from invpat.containment import Mode, contains, contains_fast
from invpat.core import (check_involution, fixed_points, generate_involutions,
                         two_cycles)
from invpat.enumeration import formula_pattern132


# ---------------------------------------------------------------------------
# independent oracles: the earlier multi-pass validators (over the
# unchanged check_motzkin and heights) and the recursive
# split-at-the-minimum tree builder


def _oracle_down_labels(word, labels):
    downs = [i for i, s in enumerate(word) if s == "D"]
    if len(downs) != len(labels):
        raise ValueError("one label per down step required")
    hs = heights(word)
    for lab, i in zip(labels, downs):
        top = hs[i] + 1
        if not 1 <= lab <= (top + 1) // 2:
            raise ValueError("label out of range")


def oracle_check_labeled_dyck(word, labels):
    check_motzkin(word)
    if "L" in word:
        raise ValueError("Dyck word cannot contain level steps")
    _oracle_down_labels(word, labels)


def oracle_check_andre(word, labels):
    check_motzkin(word)
    hs = heights(word)
    if any(s == "L" and hs[i] % 2 for i, s in enumerate(word)):
        raise ValueError("level step at odd height")
    _oracle_down_labels(word, labels)


def oracle_tree(sigma):
    def build(lo, hi):
        if lo > hi:
            return None
        i = min(range(lo, hi + 1), key=sigma.__getitem__)
        return (sigma[i], build(lo, i - 1), build(i + 1, hi))

    return build(0, len(sigma) - 1)


def oracle_history(sigma):
    """
    The history read off sigma directly: vertex v has a left (right)
    child iff its left (right) neighbour is larger, and the open slots
    before v are the maximal runs of entries >= v that end left of it.
    """
    pos = {v: i for i, v in enumerate(sigma)}
    steps, labels = [], []
    for v in range(1, len(sigma)):
        i = pos[v]
        has_l = i > 0 and sigma[i - 1] > v
        has_r = i + 1 < len(sigma) and sigma[i + 1] > v
        steps.append({(True, True): "U", (True, False): "L1",
                      (False, True): "L2", (False, False): "D"}[(has_l, has_r)])
        labels.append(sum(1 for j in range(i + 1)
                          if sigma[j] >= v and (j == 0 or sigma[j - 1] < v)))
    return LaguerreHistory(tuple(steps), tuple(labels))


def _raises(check, *args):
    try:
        check(*args)
    except ValueError:
        return True
    return False


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError:
        return ValueError


# the earlier bijection chain: the public maps composed, the 132 guard
# as an embedding search, and labels moved through match arrays


def oracle_has_independent_pair(tau):
    best = None
    for a, b in sorted(two_cycles(tau) + [(f, f) for f in fixed_points(tau)]):
        if best is not None and best < a:
            return True
        best = b if best is None else min(best, b)
    return False


def oracle_pairs(word):
    kind = {"UU": "U", "DD": "D", "UD": "L1", "DU": "L2"}
    return [kind[word[2 * i - 1] + word[2 * i]] for i in range(1, len(word) // 2)]


def oracle_match_downs(steps):
    stack = []
    match = [0] * len(steps)
    for i, s in enumerate(steps):
        if s == "U":
            stack.append(i)
        elif s == "D":
            match[stack.pop()] = i
    return match


def oracle_dyck_to_history(ldp):
    ldp = check_labeled_dyck(ldp)
    word = ldp.word
    if not word:
        raise ValueError("need half-length at least 1")
    mu = [0] * len(word)
    it = iter(ldp.down_labels)
    for i, s in enumerate(word):
        if s == "D":
            mu[i] = next(it)
    steps = oracle_pairs(word)
    match = oracle_match_downs(steps)
    labels = []
    for i, s in enumerate(steps):
        if s == "U":
            labels.append(mu[2 * match[i] + 2])
        elif s == "L1":
            labels.append(mu[2 * i + 2])
        else:
            labels.append(mu[2 * i + 1])
    return check_history(LaguerreHistory(tuple(steps), tuple(labels)))


def oracle_history_to_dyck(lh):
    lh = check_history(lh)
    n = len(lh.steps)
    body = {"U": "UU", "D": "DD", "L1": "UD", "L2": "DU"}
    word = "U" + "".join(body[s] for s in lh.steps) + "D"
    match = oracle_match_downs(lh.steps)
    mu = [0] * (2 * n + 2)
    mu[2 * n + 1] = 1
    for i, (s, lab) in enumerate(zip(lh.steps, lh.labels)):
        if s == "U":
            mu[2 * match[i] + 2] = lab
        elif s == "L1":
            mu[2 * i + 2] = lab
        else:
            mu[2 * i + 1] = lab
    downs = tuple(lab for lab, s in zip(mu, word) if s == "D")
    return check_labeled_dyck(LabeledDyck(word, downs))


def oracle_involution_to_andre(tau):
    tau = check_involution(tau)
    cyc = two_cycles(tau)
    if contains_fast(tau, (1, 3, 2), Mode.I):
        raise ValueError("involution contains 132 in the deletion order")
    k = len(cyc)
    comp = [0] * (k + 1)
    closed = 0
    for p, v in enumerate(tau, 1):
        if v == p:
            comp[closed] += 1
        elif v < p:
            closed += 1
    if k == 0:
        return insert_level_steps(tuple(comp), LabeledDyck("", ()))
    sigma = tuple(v for p, v in enumerate(tau, 1) if v < p)
    ldp = oracle_history_to_dyck(perm_to_history(sigma))
    return insert_level_steps(tuple(comp), ldp)


def oracle_andre_to_involution(ap):
    comp, ldp = strip_level_steps(ap)
    k = ldp.half_length
    n = len(ap.word)
    if k == 0:
        return tuple(range(1, n + 1))
    sigma = history_to_perm(oracle_dyck_to_history(ldp))
    rho = from_skew_half(sigma, odd=False)
    out = [0] * n
    pos = k
    for j in range(k):
        pos += comp[j] + 1
        opener = rho[k + j]
        out[pos - 1] = opener
        out[opener - 1] = pos
    for p in range(1, n + 1):
        if not out[p - 1]:
            out[p - 1] = p
    return check_involution(tuple(out))


def test_tree_matches_recursive_oracle():
    from invpat.bijections import increasing_tree

    for n in range(0, 9):
        for sigma in permutations(range(1, n + 1)):
            assert increasing_tree(sigma) == oracle_tree(sigma)
            if n:
                assert perm_to_history(sigma) == oracle_history(sigma)


def test_path_validators_match_multipass_oracle():
    cases = 0
    for length in range(0, 7):
        for word in map("".join, product("UDLX", repeat=length)):
            d = word.count("D")
            for size in range(max(d - 1, 0), d + 2):
                for labels in product(range(4), repeat=size):
                    cases += 1
                    ldp = LabeledDyck(word, labels)
                    rejected = _raises(check_labeled_dyck, ldp)
                    assert rejected == _raises(oracle_check_labeled_dyck, word, labels), \
                        (word, labels)
                    rejected_andre = _raises(oracle_check_andre, word, labels)
                    assert _raises(check_andre, AndrePath(word, labels)) == rejected_andre, \
                        (word, labels)
                    assert _raises(strip_level_steps, AndrePath(word, labels)) == \
                        rejected_andre, (word, labels)
                    # dyck_to_history checks its input in the loop that reads it
                    assert _raises(dyck_to_history, ldp) == (rejected or not word), ldp
    assert cases > 500_000


# labels of every kind a caller may pass: in range, out of range, and
# equal to an int without being one (True is an int to isinstance)
_JUNK_LABELS = (0, 1, 2, 3, 1.0, True, "1")


def test_dyck_to_history_rejects_what_the_validator_rejects():
    words = [w for n in range(0, 5) for w in map("".join, product("UDL", repeat=n))]
    words += list(iter_dyck_words(3))
    cases = 0
    for word in words:
        d = word.count("D")
        for size in range(max(d - 1, 0), d + 2):
            for labels in product(_JUNK_LABELS, repeat=size):
                cases += 1
                ldp = LabeledDyck(word, labels)
                lh = _outcome(dyck_to_history, ldp)
                if not word or _raises(check_labeled_dyck, ldp):
                    assert lh is ValueError, ldp
                else:
                    assert check_history(lh) == lh and history_to_dyck(lh) == ldp, ldp
    assert cases > 50_000


def test_history_maps_reject_what_the_validator_rejects():
    # (longest history, labels, label count minus step count)
    blocks = ((4, range(4), (0,)), (3, _JUNK_LABELS, (0,)), (2, _JUNK_LABELS, (-1, 1)))
    cases = 0
    for n, label_set, offsets in blocks:
        for length in range(0, n + 1):
            for steps in product(("U", "D", "L1", "L2", "X"), repeat=length):
                for size in (length + d for d in offsets if length + d >= 0):
                    for labels in product(label_set, repeat=size):
                        cases += 1
                        lh = LaguerreHistory(steps, labels)
                        sigma = _outcome(history_to_perm, lh)
                        ldp = _outcome(history_to_dyck, lh)
                        if _raises(check_history, lh):
                            assert sigma is ldp is ValueError, lh
                        else:
                            assert perm_to_history(sigma) == lh, lh
                            assert dyck_to_history(ldp) == lh, lh
    assert cases > 200_000


def test_132_guard_matches_reference():
    for n in range(0, 10):
        for tau in generate_involutions(n):
            assert _raises(involution_to_andre, tau) == \
                contains(tau, (1, 3, 2), Mode.I), tau


def test_composites_match_oracle_chain():
    for n in range(0, 10):
        for tau in generate_involutions(n):
            assert _outcome(involution_to_andre, tau) == \
                _outcome(oracle_involution_to_andre, tau), tau
    # andre_to_involution checks its input only inside its loops; seven
    # junk labels to length 6 would be about 9 million cases
    for longest, label_set in ((6, range(4)), (4, _JUNK_LABELS)):
        for length in range(0, longest + 1):
            for word in map("".join, product("UDLX", repeat=length)):
                d = word.count("D")
                for size in range(max(d - 1, 0), d + 2):
                    for labels in product(label_set, repeat=size):
                        ap = AndrePath(word, labels)
                        assert _outcome(andre_to_involution, ap) == \
                            _outcome(oracle_andre_to_involution, ap), ap
    for n in range(0, 13):
        for ap in iter_andre_paths(n):
            tau = andre_to_involution(ap)
            assert check_involution(tau) == tau == oracle_andre_to_involution(ap)
            assert involution_to_andre(tau) == oracle_involution_to_andre(tau) == ap


def _labels_around_bounds(word):
    # every down label from 0 to one past its bound ceil(h/2)
    ranges, h = [], 0
    for s in word:
        h += (s == "U") - (s == "D")
        if s == "D":
            ranges.append(range(0, (h + 2) // 2 + 2))
    return product(*ranges)


def chain_involution_to_andre(tau):
    """The public maps composed: closers' values, then history, then Dyck path."""
    tau = check_involution(tau)
    if contains_fast(tau, (1, 3, 2), Mode.I):
        raise ValueError("involution contains 132 in the deletion order")
    sigma = tuple(v for p, v in enumerate(tau, 1) if v < p)
    if not sigma:
        return AndrePath("L" * len(tau), ())
    comp = [0] * (len(sigma) + 1)
    closed = 0
    for p, v in enumerate(tau, 1):
        closed += v < p
        comp[closed] += v == p
    return insert_level_steps(tuple(comp), history_to_dyck(perm_to_history(sigma)))


def test_single_passes_match_the_public_map_chain():
    # andre_to_involution reads its pairs once, right to left, and
    # involution_to_andre writes them in the loop that reads sigma; both
    # against the chain of public maps, in value or ValueError
    cases = 0
    for half in range(0, 6):
        for word in iter_dyck_words(half):
            for labels in _labels_around_bounds(word):
                cases += 1
                ap = AndrePath(word, labels)
                assert _outcome(andre_to_involution, ap) == \
                    _outcome(oracle_andre_to_involution, ap), ap
                if half > 3:
                    continue
                # one or two level steps at each place, at even or odd height
                for i in range(len(word) + 1):
                    for block in ("L", "LL"):
                        ap = AndrePath(word[:i] + block + word[i:], labels)
                        assert _outcome(andre_to_involution, ap) == \
                            _outcome(oracle_andre_to_involution, ap), ap
    assert cases > 10_000
    # junk labels at both labels of every D-D pair, which the junk words
    # of test_composites_match_oracle_chain are too short to reach
    for half in range(2, 6):
        for ldp in iter_labeled_dyck(half):
            word = ldp.word
            downs = [i for i, s in enumerate(word) if s == "D"]
            for j, i in enumerate(downs[:-1]):
                if i % 2 and word[i + 1] == "D":  # the first D of an inner pair
                    for at, junk in product((j, j + 1), (1.0, True, "1", 0)):
                        labels = list(ldp.down_labels)
                        labels[at] = junk
                        ap = AndrePath(word, tuple(labels))
                        assert _outcome(andre_to_involution, ap) == \
                            _outcome(oracle_andre_to_involution, ap), ap
    for n in range(0, 11):
        for tau in generate_involutions(n):
            assert _outcome(involution_to_andre, tau) == \
                _outcome(chain_involution_to_andre, tau), tau


@pytest.mark.parametrize("word", [["U", "D"], ("U", "D"), None])
def test_a_path_word_must_be_a_str(word):
    for call in (check_labeled_dyck, dyck_to_history):
        with pytest.raises(ValueError, match="must be a str"):
            call(LabeledDyck(word, (1,)))
    for call in (check_andre, strip_level_steps, andre_to_involution):
        with pytest.raises(ValueError, match="must be a str"):
            call(AndrePath(word, (1,)))


def test_dyck_word_is_read_off_the_child_slots():
    # the composite's Dyck word read off the tree: history_to_dyck
    # writes "U" + (left, right) slot pairs of vertices 1..k-1 + "D",
    # that is R(0) L(1) R(1) ... R(k-1) L(k), child slots 1..2k in order
    for k in range(1, 9):
        for sigma in permutations(range(1, k + 1)):
            kids = bijections._tree_kids(sigma)
            word = "".join("U" if v else "D" for v in kids[1:2 * k + 1])
            assert history_to_dyck(perm_to_history(sigma)).word == word, sigma
            assert involution_to_andre(from_skew_half(sigma, False)).word == word, sigma


def test_label_transport_matches_oracle():
    for half in range(0, 8):
        for ldp in iter_labeled_dyck(half):
            lh = _outcome(dyck_to_history, ldp)
            assert lh == _outcome(oracle_dyck_to_history, ldp), ldp
            if lh is not ValueError:
                assert check_history(lh) == lh
                back = history_to_dyck(lh)
                assert check_labeled_dyck(back) == back == oracle_history_to_dyck(lh) == ldp


def test_independent_pair_matches_oracle():
    for n in range(0, 11):
        for tau in generate_involutions(n):
            assert bijections._has_independent_pair(tau) == \
                oracle_has_independent_pair(tau), tau


def test_doctests():
    assert doctest.testmod(bijections, verbose=False).failed == 0


def test_path_validation():
    with pytest.raises(ValueError):
        check_labeled_dyck(LabeledDyck("UDD", (1, 1)))
    with pytest.raises(ValueError):
        check_labeled_dyck(LabeledDyck("UUDD", (1,)))
    with pytest.raises(ValueError):
        check_labeled_dyck(LabeledDyck("UUUDDD", (3, 1, 1)))  # bound ceil(3/2)=2
    check_labeled_dyck(LabeledDyck("UUUDDD", (2, 1, 1)))
    with pytest.raises(ValueError):
        check_andre(AndrePath("ULDL", (1,)))  # level step at height 1
    check_andre(AndrePath("UDLL", (1,)))
    with pytest.raises(ValueError):
        check_history(LaguerreHistory(("U", "D"), (2, 1)))  # first bound is 1
    check_history(LaguerreHistory(("U", "D"), (1, 2)))


@pytest.mark.parametrize("call", [
    lambda: history_to_perm(LaguerreHistory(("L1",), (1.0,))),
    lambda: andre_to_involution(AndrePath("UD", (1.0,))),
    lambda: check_andre(AndrePath("UD", ("1",))),
    lambda: insert_level_steps((1.0,), LabeledDyck("", ())),
    lambda: insert_level_steps(("a",), LabeledDyck("", ())),
    lambda: insert_fixed_points((), (1.0,)),
], ids=["history_float", "andre_float", "andre_str", "level_part_float",
        "level_part_str", "fixed_point_float"])
def test_non_int_labels_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_generators_reject_negative_size():
    for gen in (iter_motzkin_words, iter_dyck_words, iter_labeled_dyck,
                iter_andre_paths, iter_laguerre_histories):
        with pytest.raises(ValueError):
            list(gen(-1))
    with pytest.raises(ValueError, match="levels must be 'any', 'even' or 'none'"):
        list(iter_motzkin_words(3, "odd"))


def test_dyck_generators_name_the_size_they_were_given():
    # the half size is checked before it is doubled, so "3" is not read as "33"
    for gen in (iter_dyck_words, iter_labeled_dyck):
        with pytest.raises(ValueError, match="size must be an int, got '3'$"):
            list(gen("3"))


def test_motzkin_dyck_counts():
    # Motzkin and Catalan numbers
    assert [sum(1 for _ in iter_motzkin_words(n)) for n in range(7)] == \
        [1, 1, 2, 4, 9, 21, 51]
    assert [sum(1 for _ in iter_dyck_words(k)) for k in range(6)] == \
        [1, 1, 2, 5, 14, 42]


def _obeys(word, levels):
    h = 0
    for s in word:
        if s == "L" and (levels == "none" or levels == "even" and h % 2):
            return False
        h += (s == "U") - (s == "D")
        if h < 0:
            return False
    return h == 0


@pytest.mark.parametrize("levels", ["any", "even", "none"])
def test_motzkin_words_are_every_legal_word_in_lexicographic_order(levels):
    # the brute-force oracle: every word over D, L, U that obeys the
    # mode's rules, in sorted order
    for n in range(11):
        want = [w for w in map("".join, product("DLU", repeat=n)) if _obeys(w, levels)]
        assert list(iter_motzkin_words(n, levels)) == want, (n, levels)


def test_odd_length_dyck_words_are_none_at_once():
    # every Dyck step changes the height by one, so no odd prefix is walked
    import time

    start = time.perf_counter()
    assert list(iter_motzkin_words(33, "none")) == []
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("levels", ["any", "even", "none"])
def test_first_long_motzkin_word_comes_out_at_once(levels):
    # the first word is yielded without walking the rest, in bounded memory
    import tracemalloc

    tracemalloc.start()
    try:
        first = next(iter_motzkin_words(24, levels))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == ("UD" * 12 if levels == "none" else "L" * 24)
    assert peak < 1_000_000, (levels, peak)


def test_skew_half_examples():
    assert skew_half((4, 3, 2, 1)) == (2, 1)
    assert skew_half((3, 2, 1)) == (1,)
    assert skew_half((2, 1)) == (1,)
    assert from_skew_half((2, 1), odd=False) == (4, 3, 2, 1)
    assert from_skew_half([2, 1], odd=True) == (5, 4, 3, 2, 1)
    with pytest.raises(ValueError):
        from_skew_half((1, 1), odd=False)
    assert from_skew_half((1, 2), odd=True) == (4, 5, 3, 1, 2)
    with pytest.raises(ValueError):
        skew_half((1, 2))  # two fixed points side by side


def test_skew_half_round_trip():
    ps12 = PatternSet([(1, 2)], Mode.I)
    for n in range(1, 11):
        members = class_members(ps12, Mode.I, n)
        assert len(members) == factorial(n // 2)
        for tau in members:
            assert from_skew_half(skew_half(tau), n % 2 == 1) == tau


def test_increasing_tree():
    from invpat.bijections import increasing_tree

    assert increasing_tree((4, 5, 2, 3, 1)) == \
        (1, (2, (4, None, (5, None, None)), (3, None, None)), None)

    def labels_grow_down(node):
        if node is None:
            return True
        v, left, right = node
        for child in (left, right):
            if child is not None and child[0] < v:
                return False
        return labels_grow_down(left) and labels_grow_down(right)

    def inorder(node):
        if node is None:
            return ()
        v, left, right = node
        return inorder(left) + (v,) + inorder(right)

    for sigma in permutations(range(1, 6)):
        tree = increasing_tree(sigma)
        assert labels_grow_down(tree)
        assert inorder(tree) == sigma


def test_history_examples():
    assert perm_to_history((1,)) == LaguerreHistory((), ())
    with pytest.raises(ValueError, match="size at least 1"):
        perm_to_history(())
    got = {perm_to_history(s) for s in ((1, 2), (2, 1))}
    assert got == {LaguerreHistory(("L1",), (1,)),
                   LaguerreHistory(("L2",), (1,))}
    lh = perm_to_history((4, 5, 2, 3, 1))
    assert lh.steps == ("L1", "U", "D", "L2")
    assert lh.labels == (1, 1, 2, 1)


def test_history_bijectivity():
    for n in range(0, 6):
        histories = list(iter_laguerre_histories(n))
        assert len(histories) == factorial(n + 1)
        image = set()
        for sigma in permutations(range(1, n + 2)):
            image.add(perm_to_history(sigma))
        assert image == set(histories)
        for lh in histories:
            assert perm_to_history(history_to_perm(lh)) == lh


def test_labeled_dyck_examples():
    assert history_to_dyck(LaguerreHistory((), ())) == LabeledDyck("UD", (1,))
    ldp = LabeledDyck("UUDUUDDDUD", (1, 2, 1, 1, 1))
    lh = dyck_to_history(ldp)
    assert lh.steps == ("L1", "U", "D", "L2") and lh.labels == (1, 1, 2, 1)
    assert history_to_dyck(lh) == ldp


@pytest.mark.parametrize("path_type", [LabeledDyck, AndrePath])
def test_labeled_path_str(path_type):
    # the two path types print alike but stay apart
    assert str(path_type("", ())) == "() ()"
    assert str(path_type("UD", (1,))) == "UD (1)"
    assert str(path_type("UUDUDD", (2, 1, 1))) == "UUDUDD (2,1,1)"
    assert repr(path_type("UD", (1,))) == f"{path_type.__name__}(word='UD', down_labels=(1,))"
    assert LabeledDyck("UD", (1,)) != AndrePath("UD", (1,))


def test_labeled_dyck_bijectivity():
    for half in range(1, 6):
        paths = list(iter_labeled_dyck(half))
        assert len(paths) == factorial(half)
        histories = {dyck_to_history(p) for p in paths}
        assert histories == set(iter_laguerre_histories(half - 1))
        for p in paths:
            assert history_to_dyck(dyck_to_history(p)) == p


def test_label_conservation():
    # every history label is pulled from a distinct down label of the
    # Dyck path; only the final forced 1 is left over
    for half in range(1, 6):
        for p in iter_labeled_dyck(half):
            lh = dyck_to_history(p)
            assert sorted(list(lh.labels) + [1]) == sorted(p.down_labels)


def test_level_stripping_preserves_height_label_pairs():
    # removing level steps moves no down step to a different height, so
    # the (height descended from, label) multiset is untouched
    def down_profile(word, labels):
        hs = heights(word)
        downs = [i for i, s in enumerate(word) if s == "D"]
        return sorted((hs[i] + 1, lab) for i, lab in zip(downs, labels))

    for n in range(0, 9):
        for ap in iter_andre_paths(n):
            comp, ldp = strip_level_steps(ap)
            assert down_profile(ap.word, ap.down_labels) == \
                down_profile(ldp.word, ldp.down_labels)


def test_strip_insert_level_steps():
    assert strip_level_steps(AndrePath("L" * 5, ())) == \
        ((5,), LabeledDyck("", ()))
    assert insert_level_steps((0, 2), LabeledDyck("UD", (1,))) == \
        AndrePath("UDLL", (1,))
    with pytest.raises(ValueError):
        insert_level_steps((1,), LabeledDyck("UD", (1,)))
    for n in range(0, 9):
        for ap in iter_andre_paths(n):
            comp, ldp = strip_level_steps(ap)
            assert sum(comp) + 2 * ldp.half_length == n
            assert insert_level_steps(comp, ldp) == ap


def test_level_steps_return_valid_paths():
    # the maps validate their input only, so what they return must pass
    # the validators on its own
    for n in range(0, 11):
        for ap in iter_andre_paths(n):
            comp, ldp = strip_level_steps(ap)
            assert check_labeled_dyck(ldp) == ldp
            back = insert_level_steps(comp, ldp)
            assert check_andre(back) == back


def test_andre_counts_match_avoiders():
    for n in range(1, 9):
        assert sum(1 for _ in iter_andre_paths(n)) == formula_pattern132(n)


def test_involution_to_andre_examples():
    assert involution_to_andre((1, 2, 3)) == AndrePath("LLL", ())
    assert involution_to_andre((2, 1)) == AndrePath("UD", (1,))
    assert andre_to_involution(AndrePath("UD", (1,))) == (2, 1)
    with pytest.raises(ValueError):
        involution_to_andre((1, 3, 2))


def test_involution_andre_bijection():
    ps132 = PatternSet([(1, 3, 2)], Mode.I)
    for n in range(0, 11):
        members = class_members(ps132, Mode.I, n)
        image = set()
        for tau in members:
            ap = involution_to_andre(tau)
            assert check_andre(ap) == ap
            assert len(ap.word) == n
            assert ap.word.count("L") == len(fixed_points(tau))
            assert andre_to_involution(ap) == tau
            image.add(ap)
        assert len(image) == len(members)
        if n <= 8:
            assert image == set(iter_andre_paths(n))


def test_fixed_point_removal():
    assert remove_fixed_points((2, 1, 3, 5, 4)) == ((2, 1, 4, 3), (3,))
    assert remove_fixed_points((1, 2, 3)) == ((), (1, 2, 3))
    assert remove_fixed_points((2, 1, 4, 3)) == ((2, 1, 4, 3), ())
    with pytest.raises(ValueError):
        insert_fixed_points((2, 1), (4,))
    for n in range(0, 9):
        for tau in generate_involutions(n):
            rho, spots = remove_fixed_points(tau)
            back = insert_fixed_points(rho, spots)
            assert check_involution(back) == back == tau


def test_fixed_point_removal_preserves_avoidance(matchings_by_size):
    # matching-pattern avoidance is untouched by fixed points, both ways
    from invpat.containment import contains_fast

    pat = (2, 1, 4, 3)
    for n in range(0, 9):
        for tau in generate_involutions(n):
            rho, _ = remove_fixed_points(tau)
            assert contains_fast(tau, pat, Mode.I) == \
                (len(rho) >= 4 and contains_fast(rho, pat, Mode.F))
