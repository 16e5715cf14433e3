"""
Containment orders on involutions and matchings.

Four orders are supported, selected by :class:`Mode`:

- ``CLASSICAL``: subsequence containment on arbitrary permutations.
- ``I``: the transitive closure on involutions of three deletions:
  (1) delete a 2-cycle, (2) delete a fixed point, (3) delete one entry
  of an adjacent 2-cycle ``(i, i+1)``, turning it into a fixed point;
  every deletion is followed by standardization.
- ``IPRIME``: relations (1) and (2) only.
- ``F``: the restriction to fixed-point-free involutions, where only
  relation (1) applies.

The reference is one uncached breadth-first search of the deletion
order (:func:`_reachable`): :func:`down_set` returns its full closure,
and :func:`contains` looks for rho in the closure pruned below
``len(rho)``.  No module-level cache holds down-sets between calls.
:func:`contains_fast` searches for an embedding
instead: choose 2-cycles of the haystack to keep, fixed points to keep,
and (in ``I`` mode) 2-cycles to squash into fixed points, subject to no
other chosen element sitting strictly inside a squashed cycle's
interval.  It places the pattern's positions in order at increasing
positions of the haystack, one scan left to right per branch: an opener
takes the left end of a 2-cycle and leaves its right end pending, a
closer takes the first pending end, and a fixed point takes a fixed
point or, in ``I``, a whole 2-cycle.  The pending ends are kept in the
order of their closers and must increase along it, so the first one
caps the scan.  As positions only grow, no unit is chosen twice and
nothing lands inside a squashed interval, without any flags.  The two
tests agree on every pair with haystack size <= 8 in every mode, which
the test suite checks exhaustively, and on seeded random pairs with
haystacks of size 10 to 16.

Classical containment compiles each pattern once into the value window
of each step (:func:`_compile_classical`) and places it depth-first;
the tests compare it with a scan of every subsequence.  A candidate
whose one-step deletions all avoid the patterns classically can only
contain a pattern with at least as many entries as it has units (fixed
points and 2-cycles); :func:`closed_classical_check` runs only those,
and only the classically minimal patterns of the set: a pattern that
contains another pattern of the set is avoided by every avoider of that
other one, so dropping it changes neither the avoiders nor which
candidates are closed.  When those minimal patterns are closed under
reverse-complement, a candidate's mirror is answered from the
candidate's own search.
"""
from __future__ import annotations

import enum
from operator import eq

from .core import (Perm, check_fpf, check_involution, check_permutation,
                   reverse_complement, standardize)


class Mode(enum.Enum):
    """Which containment order a pattern set lives in."""

    CLASSICAL = "classical"
    I = "I"
    IPRIME = "Iprime"
    F = "F"

    @classmethod
    def parse(cls, text: str) -> "Mode":
        key = text.strip().lower().replace("'", "prime")
        for mode in cls:
            if mode.value.lower() == key:
                return mode
        raise ValueError(f"unknown mode {text!r} (use classical, I, Iprime or F)")


def check_for_mode(pi: Perm, mode: Mode) -> Perm:
    """Validate an element against a mode's ambient family."""
    if mode is Mode.CLASSICAL:
        return check_permutation(pi)
    if mode is Mode.F:
        return check_fpf(pi)
    return check_involution(pi)


def _compile_classical(pattern: Perm) -> tuple[tuple[int, int, int, int], ...]:
    """
    Per pattern position k, the window its haystack value must fall in.

    Placement runs left to right, so the placed pattern values just below
    and just above ``pattern[k]`` are fixed when the pattern is compiled.
    Step k is ``(lo, dlo, hi, dhi)``: the positions of those neighbours and
    their value gaps to ``pattern[k]``.  Position ``m`` stands for a
    virtual value 0 and ``m + 1`` for ``m + 1``; the search stores the
    haystack's 0 and n + 1 there.  A haystack value w fits iff
    ``placed[lo] + dlo <= w <= placed[hi] - dhi``: the values the pattern
    puts strictly between the neighbours need room in the haystack too.
    """
    m = len(pattern)
    ext = tuple(pattern) + (0, m + 1)
    steps = []
    for k, v in enumerate(pattern):
        lo = max((j for j in (*range(k), m) if ext[j] < v), key=ext.__getitem__)
        hi = min((j for j in (*range(k), m + 1) if ext[j] > v), key=ext.__getitem__)
        steps.append((lo, v - ext[lo], hi, ext[hi] - v))
    return tuple(steps)


def _search_classical(haystack: Perm, steps) -> bool:
    """Depth-first placement of a compiled pattern in haystack."""
    m, n = len(steps), len(haystack)
    if m > n:
        return False
    placed = [0] * (m + 2)
    placed[m + 1] = n + 1
    last = m - 1

    def extend(k: int, start: int) -> bool:
        lo, dlo, hi, dhi = steps[k]
        a = placed[lo] + dlo
        b = placed[hi] - dhi
        if k == last:
            return any(a <= w <= b for w in haystack[start:])
        for p in range(start, n - last + k):
            w = haystack[p]
            if a <= w <= b:
                placed[k] = w
                if extend(k + 1, p + 1):
                    return True
        return False

    return m == 0 or extend(0, 0)


def contains_classical(haystack: Perm, pattern: Perm) -> bool:
    """
    True if some subsequence of haystack standardizes to pattern.  Both
    sides must be permutations; anything else raises ``ValueError``.

    >>> contains_classical((2, 1, 6, 4, 7, 3, 5, 8), (3, 4, 1, 2))
    True
    >>> contains_classical((3, 2, 1), (1, 2))
    False
    """
    haystack = check_for_mode(haystack, Mode.CLASSICAL)
    pattern = check_for_mode(pattern, Mode.CLASSICAL)
    return _search_classical(haystack, _compile_classical(pattern))


def delete_positions(tau: Perm, gone: tuple[int, ...]) -> Perm:
    """Standardization of tau with the given 1-based positions removed."""
    drop = set(gone)
    return standardize(tuple(v for i, v in enumerate(tau) if i + 1 not in drop))


def _iter_images(tau: Perm, mode: Mode):
    """One-step images of a valid involution, duplicates possible.

    Rank arithmetic replaces the generic sort: removing the values of a
    cycle or fixed point shifts every larger value down.
    """
    allow_collapse = mode is Mode.I
    allow_fix = mode is not Mode.F
    for i, v in enumerate(tau):
        p = i + 1
        if v == p:
            if allow_fix:
                yield tuple(w - (w > p) for j, w in enumerate(tau) if j != i)
        elif v > p:
            yield tuple(w - (w > p) - (w > v)
                        for j, w in enumerate(tau) if j != i and j + 1 != v)
            if allow_collapse and v == p + 1:
                yield tuple(w - (w > p) for j, w in enumerate(tau) if j != i + 1)


def one_step_down(tau: Perm, mode: Mode) -> set[Perm]:
    """
    All results of a single deletion relation valid in ``mode``.

    >>> sorted(one_step_down((2, 1, 4, 3), Mode.I))
    [(1, 3, 2), (2, 1), (2, 1, 3)]
    >>> one_step_down((2, 1), Mode.IPRIME)
    {()}
    """
    if mode is Mode.CLASSICAL:
        raise ValueError("deletion relations are not defined in classical mode")
    tau = check_for_mode(tau, mode)
    return set(_iter_images(tau, mode))


def _reachable(tau: Perm, mode: Mode, floor: int) -> set[Perm]:
    """Everything weakly below a valid tau in the deletion order, of size >= floor.

    Breadth-first over :func:`_iter_images`: the loop reads ``todo`` while
    appending to it, so it visits tau's down-set level by level.
    """
    seen = {tau}
    todo = [tau]
    for sigma in todo:
        if len(sigma) > floor:
            for img in _iter_images(sigma, mode):
                if len(img) >= floor and img not in seen:
                    seen.add(img)
                    todo.append(img)
    return seen


def down_set(tau: Perm, mode: Mode) -> frozenset[Perm]:
    """Everything weakly below tau in the deletion order, tau included."""
    return frozenset(_reachable(check_for_mode(tau, mode), mode, 0))


def contains(tau: Perm, rho: Perm, mode: Mode) -> bool:
    """
    Reference containment test: rho lies in tau's down-set, pruned below
    len(rho).

    >>> contains((2, 1, 6, 4, 7, 3, 5, 8), (1, 4, 3, 2), Mode.I)
    True
    >>> contains((3, 4, 1, 2), (1, 2), Mode.I)
    False
    """
    if mode is Mode.CLASSICAL:
        return contains_classical(tau, rho)
    tau = check_for_mode(tau, mode)
    rho = check_for_mode(rho, mode)
    return len(rho) <= len(tau) and rho in _reachable(tau, mode, len(rho))


# ---------------------------------------------------------------------------
# embedding search


def _compile_pattern(rho: Perm):
    """
    The size, fixed points, 2-cycles and roles of a valid pattern: 0 for
    a fixed point, -1 for a closer, and 1 + s for an opener whose closer
    comes after s closers of cycles still open there.
    """
    roles, closers = [], []             # closers: where the open 2-cycles close, ascending
    for k, v in enumerate(rho, 1):
        if v > k:
            s = 0
            while s < len(closers) and closers[s] < v:
                s += 1
            closers.insert(s, v)
            roles.append(1 + s)
        elif v < k:
            del closers[0]
            roles.append(-1)
        else:
            roles.append(0)
    fixed = roles.count(0)
    return len(rho), fixed, (len(rho) - fixed) // 2, tuple(roles)


def _cycle_count(tau: Perm) -> int:
    """The number of 2-cycles of the valid haystack tau."""
    n = len(tau)
    return (n - sum(map(eq, tau, range(1, n + 1)))) // 2


def _embed(tau: Perm, cyc: int, compiled, mode: Mode) -> bool:
    """
    Place the pattern's positions, in order, at increasing positions of
    the valid haystack tau, which has ``cyc`` 2-cycles (counted once per
    haystack by :func:`_cycle_count`); ``compiled`` comes from
    :func:`_compile_pattern`.

    After a check of the unit counts, a depth-first search scans tau
    left to right.  An opener takes the left end q of a 2-cycle (q, v) and
    leaves v pending; a closer takes the first pending end; a fixed point
    takes a fixed point of tau or, in ``I`` only, a whole 2-cycle (q, v)
    below the cap, and the scan resumes after v.

    The pending ends are a tuple ordered by their closers in the pattern,
    and an opener must keep them increasing along it, so kept 2-cycles
    nest and cross in tau as in the pattern.  The first pending end is
    then the smallest and caps every position placed before its closer.
    Each placement lies beyond the last one and below the cap, so no unit
    is chosen twice and nothing lands inside a squashed interval, with no
    flags to keep or undo.
    """
    m, need_fix, need_cyc, roles = compiled
    n = len(tau)
    collapse = mode is Mode.I
    if need_cyc > cyc or need_fix > n - 2 * cyc + (cyc - need_cyc if collapse else 0):
        return False

    def walk(k: int, last: int, pending: tuple[int, ...]) -> bool:
        if k == m:
            return True
        role = roles[k]
        if role < 0:
            return walk(k + 1, pending[0], pending[1:])
        cap = pending[0] if pending else n + 1
        if role == 0:
            for q, v in enumerate(tau[last:cap - 1], last + 1):
                if (v == q or (collapse and q < v < cap)) and walk(k + 1, v, pending):
                    return True
            return False
        s = role - 1
        lo = pending[s - 1] if s else 0
        hi = pending[s] if s < len(pending) else n + 1
        for q, v in enumerate(tau[last:cap - 1], last + 1):
            if q < v and lo < v < hi and walk(k + 1, q, pending[:s] + (v,) + pending[s:]):
                return True
        return False

    return walk(0, 0, ())


def contains_fast(tau: Perm, rho: Perm, mode: Mode) -> bool:
    """
    Embedding-search containment test; agrees with :func:`contains`.

    Outside ``CLASSICAL`` it runs :func:`_embed`, one left-to-right scan
    of tau's positions per branch of a depth-first search.

    >>> contains_fast((2, 1, 4, 3), (1, 3, 2), Mode.I)
    True
    >>> contains_fast((6, 5, 8, 7, 2, 1, 4, 3), (2, 1, 4, 3), Mode.F)
    False
    """
    if mode is Mode.CLASSICAL:
        return contains_classical(tau, rho)
    tau = check_for_mode(tau, mode)
    rho = check_for_mode(rho, mode)
    return _embed(tau, _cycle_count(tau), _compile_pattern(rho), mode)


class PatternChecker:
    """
    Containment of a fixed pattern list against many haystacks, with the
    pattern compilation hoisted out of the loop.  Patterns are tried
    smallest first.  The patterns are validated once, here; the haystacks
    passed to :meth:`contains_any` are not.
    """

    def __init__(self, patterns, mode: Mode):
        self.mode = mode
        self.patterns = tuple(sorted((check_for_mode(p, mode) for p in patterns),
                                     key=lambda p: (len(p), p)))
        compile_ = _compile_classical if mode is Mode.CLASSICAL else _compile_pattern
        self._compiled = [compile_(p) for p in self.patterns]

    def contains_any(self, tau: Perm) -> bool:
        if self.mode is Mode.CLASSICAL:
            return any(_search_classical(tau, steps) for steps in self._compiled)
        cyc = _cycle_count(tau)
        return any(_embed(tau, cyc, compiled, self.mode) for compiled in self._compiled)


def avoids_all(tau: Perm, patterns, mode: Mode) -> bool:
    """
    True if tau contains no pattern of the set under ``mode``.

    >>> avoids_all((6, 5, 8, 7, 2, 1, 4, 3),
    ...            [(2, 1, 4, 3), (4, 5, 6, 1, 2, 3)], Mode.F)
    True
    """
    tau = check_for_mode(tau, mode)
    return not PatternChecker(patterns, mode).contains_any(tau)


def _classically_minimal(patterns) -> tuple[Perm, ...]:
    """The distinct patterns that contain no other pattern of the set
    classically, smallest first.  Same-size containment is equality, and
    whatever contains a non-minimal pattern contains a kept one below it,
    so each pattern is searched for the kept smaller ones only."""
    kept: list[Perm] = []
    for p in sorted({check_for_mode(p, Mode.CLASSICAL) for p in patterns},
                    key=lambda p: (len(p), p)):
        if not any(_search_classical(p, _compile_classical(q)) for q in kept):
            kept.append(p)
    return tuple(kept)


def closed_classical_check(patterns):
    """
    Classical ``contains_any`` for candidates whose one-step deletions
    all avoid the patterns classically, with the patterns that cannot
    occur left out.

    First the set is cut to its classically minimal patterns: duplicates
    go, and so does every pattern that contains a shorter pattern of the
    set.  A permutation avoids the set iff it avoids the minimal patterns,
    so the condition on the candidates and the answer on them are both
    unchanged.  For the 26 patterns of ``PI_SMOOTH`` only 2143 and 1324
    remain.

    A *unit* of an involution is a fixed point or a 2-cycle, and deleting
    one is a one-step deletion in ``I``, ``IPRIME`` and ``F``.  If an
    occurrence of p in such a candidate c left a unit untouched, deleting
    that unit would keep the occurrence and give an image containing p.
    So every occurrence touches every unit, and c contains p only if
    units(c) <= |p|.  The returned test counts the units in one pass, the
    positions i with tau(i) >= i, and runs the checker holding the
    minimal patterns of size >= units(c); a candidate with more units
    than the largest minimal pattern is not searched at all.  On any other
    haystack the answer may be wrong: (1, 2, 3) contains 12, but so does
    its image (1, 2).  Its one caller is the level engine
    :func:`invpat.classes.avoider_levels`, which checks only closed
    candidates.

    If the minimal patterns are closed under reverse-complement (rc, the
    conjugation by the decreasing permutation), a candidate and its
    mirror get the same answer: rc keeps the unit count, p is contained
    in tau iff rc(p) is contained in rc(tau), and so each checker of
    ``by_units`` holds an rc-closed set.  For such a set the one test
    searches only the first of each mirror pair asked at one size, keeps
    its verdict until the mirror is asked, and drops what is left when
    the size changes.  This holds on every haystack, closed or not.
    ``PI_SMOOTH``, ``PI`` and ``PI_PRIME`` are all rc-closed; for a set
    whose cut is not, the test skips the mirrors and searches every
    candidate.  The mirror is read off the candidate, which is not
    validated again.

    >>> check = closed_classical_check([(1, 2), (3, 2, 1), (1, 3, 2)])
    >>> check((3, 2, 1)), check((1, 2)), check((1, 2, 3))
    (True, True, False)
    """
    patterns = _classically_minimal(patterns)
    largest = max((len(p) for p in patterns), default=0)
    by_units = [PatternChecker([p for p in patterns if len(p) >= u], Mode.CLASSICAL)
                for u in range(largest + 1)]
    shared = {reverse_complement(p) for p in patterns} == set(patterns)
    pending: dict[Perm, bool] = {}      # searched, mirror not yet asked
    size = -1

    def contains_any(tau: Perm) -> bool:
        nonlocal size
        units = sum(v > i for i, v in enumerate(tau))
        if units > largest:
            return False
        if not shared:
            return by_units[units].contains_any(tau)
        n = len(tau)
        if n != size:
            pending.clear()
            size = n
        mirror = tuple(n + 1 - v for v in reversed(tau))
        if mirror in pending:
            return pending.pop(mirror)
        verdict = by_units[units].contains_any(tau)
        if mirror != tau:
            pending[tau] = verdict
        return verdict

    return contains_any
