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
interval.  The two agree on every pair with haystack size <= 8 in every
mode; the test suite enforces this exhaustively.

Classical containment compiles each pattern once into the value window
of each step (:func:`_compile_classical`) and places it depth-first;
the tests compare it with a scan of every subsequence.
"""
from __future__ import annotations

import enum
from bisect import bisect_right

from .core import (Perm, check_fpf, check_involution, fixed_points,
                   standardize, two_cycles)


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
        from .core import check_permutation

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
    True if some subsequence of haystack standardizes to pattern.

    >>> contains_classical((2, 1, 6, 4, 7, 3, 5, 8), (3, 4, 1, 2))
    True
    >>> contains_classical((3, 2, 1), (1, 2))
    False
    """
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


def _compile_pattern(rho: Perm, mode: Mode):
    """Roles of the pattern's positions, openers carrying their closer's position."""
    rho = check_for_mode(rho, mode)
    roles = []
    for i, v in enumerate(rho):
        p = i + 1
        if v == p:
            roles.append((0, 0))            # fixed point
        elif v > p:
            roles.append((1, v))            # opener, closes at position v
        else:
            roles.append((2, 0))            # closer
    return tuple(roles)


def _embed(tcyc, tfix, roles, allow_fix, allow_collapse) -> bool:
    """
    Match the pattern roles against haystack units left to right.

    Chosen units occupy pairwise disjoint intervals: a kept fixed point
    or either endpoint of a kept 2-cycle is a single coordinate, a
    squashed 2-cycle occupies its whole closed interval.  Reading the
    units in interval order must reproduce the pattern.
    """
    m = len(roles)
    ncyc = len(tcyc)
    openers = [c[0] for c in tcyc]

    need_cyc = sum(1 for r in roles if r[0] == 1)
    need_fix = sum(1 for r in roles if r[0] == 0)
    budget = (ncyc - need_cyc if allow_collapse else 0) + (len(tfix) if allow_fix else 0)
    if need_cyc > ncyc or need_fix > budget:
        return False

    used = [False] * ncyc
    # pending: (pattern position where the cycle closes, committed closer
    # value); kept sorted by close position, and closer values increase
    # along it, so pending[0][1] caps every unit placed before it
    pending: list[tuple[int, int]] = []

    def walk(pos: int, last: int) -> bool:
        if pos == m:
            return True
        kind, close_at = roles[pos]
        cap = pending[0][1] if pending else None

        if kind == 2:
            # pending[0] is this closer's cycle: pending is sorted by close
            # position, and every close position at or below pos was popped
            # on the way here.  And b > last: every unit placed after the
            # opener was kept below the cap pending[0][1], which is at most b.
            j, b = pending[0]
            del pending[0]
            if walk(pos + 1, b):
                return True
            pending.insert(0, (j, b))
            return False

        if kind == 0:
            if allow_fix:
                lo = bisect_right(tfix, last)
                for idx in range(lo, len(tfix)):
                    f = tfix[idx]
                    if cap is not None and f > cap:
                        break
                    if walk(pos + 1, f):
                        return True
            if allow_collapse:
                start = bisect_right(openers, last)
                for ci in range(start, ncyc):
                    a, b = tcyc[ci]
                    if cap is not None and a > cap:
                        break
                    if used[ci] or (cap is not None and b > cap):
                        continue
                    used[ci] = True
                    if walk(pos + 1, b):
                        return True
                    used[ci] = False
            return False

        # opener: commit a haystack cycle whose closer slots in at
        # pattern position close_at
        start = bisect_right(openers, last)
        for ci in range(start, ncyc):
            a, b = tcyc[ci]
            if cap is not None and a > cap:
                break
            if used[ci]:
                continue
            spot = 0
            ok = True
            while spot < len(pending) and pending[spot][0] < close_at:
                if pending[spot][1] > b:
                    ok = False
                    break
                spot += 1
            if ok and spot < len(pending) and pending[spot][1] < b:
                ok = False
            if not ok:
                continue
            used[ci] = True
            pending.insert(spot, (close_at, b))
            if walk(pos + 1, a):
                return True
            del pending[spot]
            used[ci] = False
        return False

    return walk(0, 0)


def contains_fast(tau: Perm, rho: Perm, mode: Mode) -> bool:
    """
    Embedding-search containment test; agrees with :func:`contains`.

    >>> contains_fast((2, 1, 4, 3), (1, 3, 2), Mode.I)
    True
    >>> contains_fast((6, 5, 8, 7, 2, 1, 4, 3), (2, 1, 4, 3), Mode.F)
    False
    """
    if mode is Mode.CLASSICAL:
        return contains_classical(tau, rho)
    tau = check_for_mode(tau, mode)
    roles = _compile_pattern(rho, mode)
    if len(rho) > len(tau):
        return False
    return _embed(two_cycles(tau), fixed_points(tau), roles,
                  allow_fix=mode is not Mode.F,
                  allow_collapse=mode is Mode.I)


class PatternChecker:
    """
    Containment of a fixed pattern list against many haystacks, with the
    pattern compilation hoisted out of the loop.  Patterns are tried
    smallest first.
    """

    def __init__(self, patterns, mode: Mode):
        self.mode = mode
        self.patterns = tuple(sorted(patterns, key=lambda p: (len(p), p)))
        if mode is Mode.CLASSICAL:
            self._compiled = [_compile_classical(p) for p in self.patterns]
        else:
            self._compiled = [(_compile_pattern(p, mode), len(p)) for p in self.patterns]

    def contains_any(self, tau: Perm) -> bool:
        if self.mode is Mode.CLASSICAL:
            return any(_search_classical(tau, steps) for steps in self._compiled)
        tcyc = two_cycles(tau)
        tfix = fixed_points(tau)
        allow_fix = self.mode is not Mode.F
        allow_collapse = self.mode is Mode.I
        n = len(tau)
        for roles, size in self._compiled:
            if size <= n and _embed(tcyc, tfix, roles, allow_fix, allow_collapse):
                return True
        return False


def avoids_all(tau: Perm, patterns, mode: Mode) -> bool:
    """
    True if tau contains no pattern of the set under ``mode``.

    >>> avoids_all((6, 5, 8, 7, 2, 1, 4, 3),
    ...            [(2, 1, 4, 3), (4, 5, 6, 1, 2, 3)], Mode.F)
    True
    """
    return not PatternChecker(patterns, mode).contains_any(tau)
