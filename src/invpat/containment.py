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
caps the scan.  As positions only grow, no cycle is chosen twice and
nothing lands inside a squashed interval, without any flags.  The two
tests agree on every pair with haystack size <= 8 in every mode, which
the test suite checks exhaustively, and on seeded random pairs with
haystacks of size 10 to 16.

Classical containment compiles each pattern once into the value window
of each step (:func:`_compile_classical`), and a pattern set's steps into
one prefix tree (:func:`_classical_tree`): patterns whose first k windows
are identical share one search of those k steps.  One depth-first walk
of the tree (:func:`_search_classical`) then places the whole set, so a
haystack is searched once, not once per pattern; a single pattern is a
one-path tree.  An anchored form of the same walk places each
pattern's last entry first, at the haystack's last position, and so
finds only the occurrences that end there
(:meth:`PatternChecker.contains_through_last_unit`).  The tests compare
both forms with a scan of every subsequence, for single patterns and
for sets.
"""
from __future__ import annotations

import enum
from operator import eq

from .core import (Perm, check_fpf, check_involution, check_permutation, inverse,
                   standardize)


class Mode(enum.Enum):
    """Which containment order a pattern set lives in."""

    CLASSICAL = "classical"
    I = "I"
    IPRIME = "Iprime"
    F = "F"

    @classmethod
    def parse(cls, text: str) -> "Mode":
        if not isinstance(text, str):
            raise ValueError(f"mode must be given as a string, not {text!r}")
        key = text.strip().lower().replace("'", "prime")
        for mode in cls:
            if mode.value.lower() == key:
                return mode
        raise ValueError(f"unknown mode {text!r} (use classical, I, Iprime or F)")


def check_for_mode(pi: Perm, mode: Mode) -> Perm:
    """
    Validate an element against a mode's ambient family.  The mode must
    be a ``Mode``: a string such as ``"I"`` would be read as another order.
    """
    if not isinstance(mode, Mode):
        raise ValueError(f"mode must be a Mode, not {mode!r}")
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
    their value gaps to ``pattern[k]``.  The sentinel slot -2 stands for a
    virtual value 0 and -1 for m + 1, whatever the pattern's size m, so
    steps of patterns of different sizes compare equal and one search of
    a whole set stores the haystack's 0 and n + 1 there.  A haystack value w fits iff
    ``placed[lo] + dlo <= w <= placed[hi] - dhi``: the values the pattern
    puts strictly between the neighbours need room in the haystack too.
    """
    ext = tuple(pattern) + (0, len(pattern) + 1)     # ext[-2] = 0, ext[-1] = m + 1
    steps = []
    for k, v in enumerate(pattern):
        lo, hi = -2, -1
        for j in range(k):
            if ext[lo] < ext[j] < v:
                lo = j
            elif v < ext[j] < ext[hi]:
                hi = j
        steps.append((lo, v - ext[lo], hi, ext[hi] - v))
    return tuple(steps)


def _classical_tree(patterns, anchored: bool = False):
    """
    The compiled steps of a pattern set as a prefix tree: patterns whose
    first k steps are identical share the nodes of those k steps, so one
    search places them all at once.

    Returns whether the empty pattern is in the set, and the nodes of the
    first steps, in the order of their patterns.  A node is
    ``[lo, dlo, hi, dhi, rest, end, children]``: its step, the positions
    its patterns still need after this one, whether it ends a pattern, and
    the nodes of the next steps.  The first step of a pattern of size m
    is ``(-2, v, -1, m + 1 - v)``, so only patterns of one size share
    nodes, and a node that ends a pattern has no children.  Anchored, each
    pattern is compiled with its last entry moved to the front, so step 0
    places the last entry and the other steps follow left to right, with
    windows that already count the last entry's value.
    """
    roots: list = []
    nodes = {}                          # steps from the root -> their last node
    for p in patterns:
        level, path = roots, ()
        for k, step in enumerate(_compile_classical(p[-1:] + p[:-1] if anchored else p)):
            path += (step,)
            node = nodes.get(path)
            if node is None:
                node = nodes[path] = [*step, len(p) - k - 1, False, []]
                level.append(node)
            level = node[6]
        if p:
            node[5] = True
    return () in patterns, roots


def _search_classical(haystack: Perm, tree, anchored: bool = False) -> bool:
    """
    Depth-first placement of every pattern of a :func:`_classical_tree`
    in haystack at once.  A node scans only the positions that leave room
    for the rest of its patterns, and a node that ends a pattern answers
    True at its first fit.  Anchored, for a tree built anchored, step 0
    takes the haystack's last position and the other steps scan the
    positions before it, so only occurrences that end there are found:
    never one of the empty pattern.
    """
    empty, roots = tree
    n = len(haystack)
    stop = n - anchored                 # the scans end before this position
    placed = [0] * (n + 1) + [n + 1]    # slot -2 holds the virtual 0, slot -1 n + 1

    def extend(node, k: int, start: int) -> bool:
        lo, dlo, hi, dhi, rest, end, children = node
        a = placed[lo] + dlo
        b = placed[hi] - dhi
        if end:
            for w in haystack[start:stop]:
                if a <= w <= b:
                    return True
            return False
        for p in range(start, stop - rest):
            w = haystack[p]
            if a <= w <= b:
                placed[k] = w
                for child in children:
                    if extend(child, k + 1, p + 1):
                        return True
        return False

    if not anchored:
        return empty or any(extend(root, 0, 0) for root in roots)
    if not n:
        return False
    # a root's window is (-2, v, -1, m + 1 - v): v <= w <= n + 1 - (m + 1 - v)
    w = placed[0] = haystack[-1]
    for _, dlo, _, dhi, _, end, children in roots:
        if dlo <= w <= n + 1 - dhi:
            if end:
                return True
            for child in children:
                if extend(child, 1, 0):
                    return True
    return False


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
    return _search_classical(haystack, _classical_tree([pattern]))


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

    After a check of the cycle counts, a depth-first search scans tau
    left to right.  An opener takes the left end q of a 2-cycle (q, v) and
    leaves v pending; a closer takes the first pending end; a fixed point
    takes a fixed point of tau or, in ``I`` only, a whole 2-cycle (q, v)
    below the cap, and the scan resumes after v.

    The pending ends are a tuple ordered by their closers in the pattern,
    and an opener must keep them increasing along it, so kept 2-cycles
    nest and cross in tau as in the pattern.  The first pending end is
    then the smallest and caps every position placed before its closer.
    Each placement lies beyond the last one and below the cap, so no cycle
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
    pattern compilation hoisted out of the loop.  The patterns are
    validated once, here; the haystacks passed to its searches are not.

    In ``CLASSICAL`` mode the patterns are compiled into one prefix tree
    (:func:`_classical_tree`), and :meth:`contains_any` is one search of
    the whole set; the patterns and their inverses are also compiled into
    one anchored tree, for :meth:`contains_through_last_unit`.  In the
    deletion orders each pattern gets its own embedding search, smallest
    first.
    """

    def __init__(self, patterns, mode: Mode):
        self.mode = mode
        self.patterns = tuple(sorted((check_for_mode(p, mode) for p in patterns),
                                     key=lambda p: (len(p), p)))
        if mode is Mode.CLASSICAL:
            self._compiled = _classical_tree(self.patterns)
            both = sorted({*self.patterns, *map(inverse, self.patterns)},
                          key=lambda p: (len(p), p))
            self._anchored = _classical_tree(both, anchored=True)
        else:
            self._compiled = [_compile_pattern(p) for p in self.patterns]

    def contains_any(self, tau: Perm) -> bool:
        if self.mode is Mode.CLASSICAL:
            return _search_classical(tau, self._compiled)
        cyc = _cycle_count(tau)
        return any(_embed(tau, cyc, compiled, self.mode) for compiled in self._compiled)

    def contains_through_last_unit(self, tau: Perm) -> bool:
        """
        In ``CLASSICAL`` mode only: True if some pattern occurs in the
        involution tau by an occurrence that touches its last unit, the
        fixed point n or the 2-cycle (s, n).  Such an occurrence through n
        ends there; one through s but not n maps under tau to an occurrence
        of the pattern's inverse through n.  So this is one anchored search
        of the patterns and their inverses.

        >>> check = PatternChecker([(3, 1, 2)], Mode.CLASSICAL)
        >>> check.contains_any((4, 2, 3, 1)), check.contains_through_last_unit((4, 2, 3, 1))
        (True, True)
        >>> check.contains_any((4, 2, 3, 1, 5)), check.contains_through_last_unit((4, 2, 3, 1, 5))
        (True, False)
        """
        return _search_classical(tau, self._anchored, anchored=True)


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
    so each pattern is searched once, for the tree of the kept smaller
    ones only."""
    kept: list[Perm] = []
    for p in sorted({check_for_mode(p, Mode.CLASSICAL) for p in patterns},
                    key=lambda p: (len(p), p)):
        if not _search_classical(p, _classical_tree(kept)):
            kept.append(p)
    return tuple(kept)
