"""
Permutations, involutions and perfect matchings in one-line notation.

Conventions used throughout the package:

- A permutation of size n is a tuple of the integers 1..n in one-line
  notation, so ``tau[i - 1]`` is the image of position i.  The empty
  tuple is the (valid) permutation of size 0.
- An involution is a permutation equal to its own inverse.  Its cycles
  are stored as pairs ``(a, b)`` with ``a <= b``; a fixed point appears
  as ``(a, a)``.
- A fixed-point-free (FPF) involution, a.k.a. a perfect matching, is an
  involution of even size with no fixed points.  The empty permutation
  counts as one.

Generators emit words in lexicographic one-line order.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]


def standardize(word: Sequence[float]) -> Perm:
    """
    The unique permutation with the same relative order as ``word``.

    >>> standardize((3, 6, 2))
    (2, 3, 1)
    >>> standardize((1, 2, 3))
    (1, 2, 3)
    >>> standardize(())
    ()
    """
    order = sorted(range(len(word)), key=word.__getitem__)
    if any(word[order[i]] == word[order[i + 1]] for i in range(len(order) - 1)):
        raise ValueError("cannot standardize a word with duplicate entries")
    out = [0] * len(word)
    for rank, idx in enumerate(order, start=1):
        out[idx] = rank
    return tuple(out)


def is_permutation(word: Sequence[int]) -> bool:
    """True if word is a rearrangement of 1..n for n = len(word)."""
    n = len(word)
    seen = [False] * (n + 1)
    for v in word:
        if not isinstance(v, int) or not 1 <= v <= n or seen[v]:
            return False
        seen[v] = True
    return True


def check_permutation(word: Sequence[int]) -> Perm:
    """Return word as a tuple, or raise ValueError if it is not a permutation."""
    if not is_permutation(word):
        raise ValueError(f"not a permutation of 1..n: {word!r}")
    return tuple(word)


def check_size(n: int) -> int:
    """Return n, or raise ValueError if it is not a nonnegative int (a
    bool is not one)."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"size must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    return n


def inverse(pi: Perm) -> Perm:
    """
    The inverse permutation; anything else raises ``ValueError``.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    >>> inverse((2, 1))
    (2, 1)
    """
    pi = check_permutation(pi)
    out = [0] * len(pi)
    for i, v in enumerate(pi):
        out[v - 1] = i + 1
    return tuple(out)


def is_involution(pi: Perm) -> bool:
    """True if pi is an involution of 1..n; any other sequence gives False."""
    try:
        check_involution(pi)
    except ValueError:
        return False
    return True


def check_involution(pi: Sequence[int]) -> Perm:
    """
    Return pi as a tuple, or raise ValueError if it is not an involution.

    One pass: values in 1..n with ``pi(pi(i)) == i`` already make pi a
    permutation, since pi(i) = pi(j) gives i = pi(pi(i)) = pi(pi(j)) = j.
    """
    tau = tuple(pi)
    n = len(tau)
    for i, v in enumerate(tau, 1):
        if not (isinstance(v, int) and 1 <= v <= n and tau[v - 1] == i):
            raise ValueError(f"not an involution: {tau!r}")
    return tau


def is_fpf(pi: Perm) -> bool:
    """True if pi is a fixed-point-free involution (a perfect matching)."""
    try:
        check_fpf(pi)
    except ValueError:
        return False
    return True


def check_fpf(pi: Sequence[int]) -> Perm:
    rho = check_involution(pi)
    if any(v == i + 1 for i, v in enumerate(rho)):
        raise ValueError(f"involution has fixed points: {rho!r}")
    return rho


def reverse_complement(pi: Perm) -> Perm:
    """
    Conjugate by the decreasing permutation: i -> n+1-pi(n+1-i).

    Preserves cycle type, so it restricts to involutions and matchings.
    A non-permutation raises ``ValueError``.

    >>> reverse_complement((1, 3, 2))
    (2, 1, 3)
    >>> reverse_complement((2, 1, 4, 3))
    (2, 1, 4, 3)
    """
    pi = check_permutation(pi)
    n = len(pi)
    return tuple(n + 1 - pi[n - i] for i in range(1, n + 1))


def skew_sum(pi: Perm, sigma: Perm) -> Perm:
    """
    Juxtapose pi above-left of sigma.  Both must be permutations;
    anything else raises ``ValueError``.

    >>> skew_sum((1,), (1,))
    (2, 1)
    >>> skew_sum((1, 2), (1, 2))
    (3, 4, 1, 2)
    """
    pi, sigma = check_permutation(pi), check_permutation(sigma)
    b = len(sigma)
    return tuple(v + b for v in pi) + sigma


def cycles(tau: Perm) -> frozenset[tuple[int, int]]:
    """
    Cycle pairs {(a, b): a <= tau(a) = b} of an involution; fixed points
    appear as (a, a).

    >>> sorted(cycles((4, 2, 6, 1, 5, 3)))
    [(1, 4), (2, 2), (3, 6), (5, 5)]
    """
    tau = check_involution(tau)
    return frozenset((i + 1, v) for i, v in enumerate(tau) if i + 1 <= v)


def two_cycles(tau: Perm) -> list[tuple[int, int]]:
    """2-cycles of an involution, sorted by opener.  No validation."""
    return [(i + 1, v) for i, v in enumerate(tau) if i + 1 < v]


def fixed_points(tau: Perm) -> list[int]:
    """Fixed points of a permutation, increasing.  No validation."""
    return [i + 1 for i, v in enumerate(tau) if v == i + 1]


def cycles_from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> Perm:
    """Involution of size n with the given cycle pairs (fixed points may be omitted)."""
    out = list(range(1, check_size(n) + 1))
    for a, b in pairs:
        if not all(isinstance(x, int) and 1 <= x <= n for x in (a, b)):
            raise ValueError(f"cycle pair {(a, b)!r} out of range 1..{n}")
        out[a - 1], out[b - 1] = b, a
    return check_involution(out)


# ---------------------------------------------------------------------------
# generators


def generate_permutations(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic one-line order."""
    from itertools import permutations

    return iter(permutations(range(1, check_size(n) + 1)))


def generate_involutions(n: int) -> Iterator[Perm]:
    """
    All involutions of size n in lexicographic one-line order.

    >>> list(generate_involutions(3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    """
    yield from _involutions(check_size(n), fpf=False)


def generate_fpf(n: int) -> Iterator[Perm]:
    """
    All fixed-point-free involutions of size n (empty for odd n),
    lexicographic.

    >>> list(generate_fpf(4))
    [(2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    """
    if check_size(n) % 2 == 0:
        yield from _involutions(n, fpf=True)


def _involutions(n: int, fpf: bool) -> Iterator[Perm]:
    word = [0] * n

    def fill(i: int) -> Iterator[Perm]:
        while i < n and word[i]:
            i += 1
        if i == n:
            yield tuple(word)
            return
        if not fpf:
            word[i] = i + 1
            yield from fill(i + 1)
            word[i] = 0
        for j in range(i + 1, n):
            if not word[j]:
                word[i], word[j] = j + 1, i + 1
                yield from fill(i + 1)
                word[i] = word[j] = 0

    yield from fill(0)


# ---------------------------------------------------------------------------
# statistics from the one-line word


def odd_fix_gap(tau: Perm) -> bool:
    """
    True if between the closer of one 2-cycle and the opener of any
    2-cycle entirely to its right there is an odd number of fixed
    points, counting the closed interval.

    >>> odd_fix_gap((2, 1, 3, 5, 4))
    True
    >>> odd_fix_gap((2, 1, 4, 3))
    False
    """
    tau = check_involution(tau)
    fixes = sorted(fixed_points(tau))
    cyc = two_cycles(tau)
    from bisect import bisect_left, bisect_right

    for _, b in cyc:
        for c, _ in cyc:
            if b < c and (bisect_right(fixes, c) - bisect_left(fixes, b)) % 2 == 0:
                return False
    return True


def lr_minima(tau: Perm) -> tuple[list[tuple[int, int]], list[int]]:
    """
    Cycles with no cycle entirely to their left, plus the sorted set of
    their endpoints.

    >>> lr_minima((4, 2, 6, 1, 5, 3))
    ([(1, 4), (2, 2)], [1, 2, 4])
    """
    tau = check_involution(tau)
    cyc = sorted((i + 1, v) for i, v in enumerate(tau) if i + 1 <= v)
    min_closer = None
    lr = []
    for a, b in cyc:
        if min_closer is None or a < min_closer:
            lr.append((a, b))
            if min_closer is None or b < min_closer:
                min_closer = b
    support = sorted({x for ab in lr for x in ab})
    return lr, support


def involution_code(tau: Perm) -> tuple[int, ...]:
    """
    Visible-inversion counts c_1..c_{n-1}: c_i counts j with
    tau(j) <= i < j and tau(i) > tau(j).

    >>> involution_code((2, 1))
    (1,)
    >>> involution_code((1, 2, 3, 4))
    (0, 0, 0)
    """
    tau = check_involution(tau)
    n = len(tau)
    return tuple(
        sum(1 for j in range(i + 1, n + 1) if tau[j - 1] <= i and tau[i - 1] > tau[j - 1])
        for i in range(1, n))


def fpf_code(rho: Perm) -> tuple[int, ...]:
    """FPF-visible-inversion counts: strict inequality tau(j) < i on the left."""
    rho = check_fpf(rho)
    n = len(rho)
    return tuple(
        sum(1 for j in range(i + 1, n + 1) if rho[j - 1] < i and rho[i - 1] > rho[j - 1])
        for i in range(1, n))


def visible_descents(tau: Perm) -> set[int]:
    """Positions i where (i, i+1) is a visible inversion."""
    tau = check_involution(tau)
    return {i for i in range(1, len(tau))
            if tau[i] <= i and tau[i - 1] > tau[i]}


def fpf_visible_descents(rho: Perm) -> set[int]:
    """Positions i where (i, i+1) is an FPF-visible inversion."""
    rho = check_fpf(rho)
    return {i for i in range(1, len(rho))
            if rho[i] < i and rho[i - 1] > rho[i]}


# ---------------------------------------------------------------------------
# textual forms


def format_perm(pi: Perm) -> str:
    """Comma-free digit string for n <= 9, comma-separated otherwise."""
    if len(pi) <= 9:
        return "".join(str(v) for v in pi) if pi else "()"
    return ",".join(str(v) for v in pi)


def parse_perm(text: str) -> Perm:
    """
    Inverse of :func:`format_perm`; also accepts cycle form like
    ``(1,2)(3)(4,6)(5)``.

    >>> parse_perm("21647358")
    (2, 1, 6, 4, 7, 3, 5, 8)
    >>> parse_perm("10,3,2,4,5,6,7,8,9,1")[0]
    10
    >>> parse_perm("(1,2)(3)")
    (2, 1, 3)
    """
    if not isinstance(text, str):
        raise ValueError(f"a permutation must be parsed from a string, not {text!r}")
    text = text.strip()
    if not text or text == "()":
        return ()
    if text.startswith("("):
        return _parse_cycle_form(text)
    fields = [f.strip() for f in text.split(",")] if "," in text else list(text)
    if not all(f.isdecimal() for f in fields):
        raise ValueError(f"cannot parse permutation from {text!r}")
    return check_permutation(tuple(int(f) for f in fields))


def format_cycles(tau: Perm) -> str:
    """
    Parenthesized cycle pairs of an involution, openers increasing.

    >>> format_cycles((2, 1, 6, 4, 7, 3, 5, 8))
    '(1,2)(3,6)(4)(5,7)(8)'
    """
    parts = []
    for a, b in sorted(cycles(tau)):
        parts.append(f"({a})" if a == b else f"({a},{b})")
    return "".join(parts) if parts else "()"


def _parse_cycle_form(text: str) -> Perm:
    import re

    pairs = []
    pos = 0
    for m in re.finditer(r"\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)", text):
        if m.start() != pos:
            raise ValueError(f"cannot parse cycle form {text!r}")
        pos = m.end()
        a = int(m.group(1))
        b = int(m.group(2)) if m.group(2) else a
        pairs.append((min(a, b), max(a, b)))
    if pos != len(text):
        raise ValueError(f"cannot parse cycle form {text!r}")
    flat = [x for ab in pairs for x in set(ab)]
    if len(set(flat)) != len(flat):
        raise ValueError(f"repeated entry in cycle form {text!r}")
    n = max(flat)
    if set(flat) != set(range(1, n + 1)):
        raise ValueError(f"cycle form does not cover 1..n: {text!r}")
    return cycles_from_pairs(n, pairs)
