"""
Avoidance classes and basis computation.

A :class:`PatternSet` bundles patterns with the containment order they
are read in.  One level engine, :func:`avoider_levels`, grows the
avoiders of a set size by size, each element from a smaller member, and
keeps a candidate iff its one-step deletions are all members.  That is
decided once per parent, not per candidate: the AND of bitmasks of the
slots its images' parents grew, rather than by building the images.
One pass over the parents grows both kinds of element: those whose last
cycle is a fixed point and those whose last cycle is a 2-cycle.  The
top level is never stored, and its ``len()`` counts it from those
bitmasks, building only the candidates a pattern may exclude.
Class members (:func:`class_members`) and counts
(:mod:`invpat.enumeration`) read it, and so does one basis pass, which
both :func:`compute_basis` and the equality sweeps
(:mod:`invpat.mcgovern`) read size by size.  A basis is
the set of minimal violators of a classical pattern set inside a
deletion order.  None is larger than twice the largest classically
minimal pattern, so :func:`compute_basis` ends its pass there;
:meth:`PatternSet.basis_bound`, twice the largest pattern, stays its
default bound and the sweeps' every-size certificate.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property, partial

# one_step_down, generate_involutions and generate_fpf stay importable
# here: bench/tracing.py wraps them by name
from .containment import (Mode, PatternChecker, _classically_minimal,  # noqa: F401
                          check_for_mode, one_step_down)
from .core import (Perm, check_size, format_cycles, format_perm,  # noqa: F401
                   generate_fpf, generate_involutions, is_fpf, reverse_complement)


@dataclass(frozen=True)
class PatternSet:
    """A finite set of patterns plus the order they are read in."""

    patterns: frozenset[Perm]
    mode: Mode

    def __init__(self, patterns, mode: Mode):
        if not isinstance(mode, Mode):      # checked here too for a set with no patterns
            raise ValueError(f"mode must be a Mode, not {mode!r}")
        object.__setattr__(self, "patterns",
                           frozenset(check_for_mode(tuple(p), mode) for p in patterns))
        object.__setattr__(self, "mode", mode)

    def sorted_patterns(self) -> tuple[Perm, ...]:
        return tuple(sorted(self.patterns, key=lambda p: (len(p), p)))

    def max_size(self) -> int:
        return max((len(p) for p in self.patterns), default=0)

    def basis_bound(self) -> int:
        """Twice the largest pattern size: the default bound of
        :func:`compute_basis`, and the size at which an equality sweep
        certifies a classical set at every size.  No basis element is
        larger; the basis pass itself ends at :meth:`_reach`, which is at
        most this (:func:`avoider_levels` says why)."""
        return 2 * self.max_size()

    @cached_property
    def _minimal(self) -> tuple[Perm, ...]:
        """The classically minimal patterns, which a permutation avoids iff
        it avoids the set, smallest first; found once per set."""
        return _classically_minimal(self.patterns)

    def _reach(self) -> int:
        """Twice the largest classically minimal pattern size: the largest
        size at which the level engine screens a candidate of a classical
        set, so no basis element is larger."""
        return 2 * max(map(len, self._minimal), default=0)

    def __str__(self) -> str:
        body = ",".join(format_perm(p) for p in self.sorted_patterns())
        return f"{{{body}}} ({self.mode.value})"


def _checked_floor(ps: PatternSet, ambient: Mode, max_size: int) -> int:
    """
    The *floor* of ps, its smallest pattern size (max_size + 1 for the
    empty set), once the engine's input is checked: the ambient is an
    involution or matching order (a ``Mode``, not its string value), the
    size is nonnegative, and an ``F``-mode set is read only in the
    matchings.
    """
    if not isinstance(ambient, Mode) or ambient is Mode.CLASSICAL:
        raise ValueError("ambient must be one of the involution/matching orders")
    check_size(max_size)
    if ps.mode is Mode.F and ambient is not Mode.F:
        raise ValueError("F-mode pattern sets only filter matchings")
    return min((len(p) for p in ps.patterns), default=max_size + 1)


class _TopLevel:
    """
    The top level of :func:`avoider_levels`, grown as it is consumed and
    never stored.  Iterating it grows its members; ``len()`` counts them,
    adding up each parent's closed slots and building only the candidates
    that a pattern may exclude.  Only the first use finds the level's
    violators, so ``list()``, which takes ``len()`` before it iterates,
    does not find them twice.
    """

    __slots__ = ("_grow", "_fresh")

    def __init__(self, grow):
        self._grow = grow           # grow(find the violators, count) -> iterator
        self._fresh = True

    def _use(self, counting: bool):
        fresh, self._fresh = self._fresh, False
        return self._grow(fresh, counting)

    def __iter__(self):
        return self._use(False)

    def __len__(self) -> int:
        return sum(self._use(True))


def avoider_levels(ps: PatternSet, ambient: Mode, max_size: int,
                   violators: list[Perm] | None = None):
    """
    Yield ``(n, members)`` for n = 0..max_size: the size-n elements of the
    ambient family (involutions, or matchings for ``F``) avoiding ps.

    Each involution c of size n is grown from exactly one smaller one,
    its *parent* sigma: c with its *last unit* U, the cycle through
    position n, deleted.  U is the fixed point n (slot 0, sigma of size
    n-1) or the 2-cycle (s, n) (slot s, sigma of size n-2).  The levels
    are grown in a deletion order (the ambient's for a classical set, the
    set's own otherwise), where avoiders are closed under deletion, so
    only members are grown from.  A candidate is *closed* iff every
    one-step image is a member, and a closed candidate is a member unless
    it is *excluded*: one of the patterns of a deletion-order set, or a
    container of a classical one.  The closed excluded candidates are the
    minimal violators; they are appended to ``violators`` if given.  Below
    the smallest pattern size, the *floor*, every candidate is a member,
    and the images of a size-floor candidate lie below it, so closure can
    fail only above the floor.

    Closure is decided once per parent, by bit operations on image
    pointers: no image is built or hashed.  A member is named by its index
    in its level.  Deleting U from c gives sigma, a member.  Deleting
    another unit u, at positions lo (and hi) of sigma, gives the member
    sigma - u with U put back at slot s - (lo < s) - (hi < s).  In ``I``,
    the collapse of sigma's adjacent 2-cycle (a, a+1) deletes position
    a+1 and is lost when s = a+1, and U = (n-1, n) adds the collapse image
    sigma + (n-1,).  So c is closed iff each (id of sigma - u, slot) names
    a member one or two sizes down.  To look that up, when some size above
    the floor is checked, every level below ``max_size`` holds a table:
    the size-m member grown from (parent id, slot) at index parent id * m
    + slot (-1 where none grew); per parent id, its *grown slots*, an int
    whose bit s is set iff a member grew from (parent, s); and the
    members' runs back to back, in member order, each its images' ids
    ordered by the last position of the deleted unit, so U's images come
    last.  Sigma's closed slots are then the AND, over its images, of
    each image's grown slots spread onto sigma's slots (bit lo doubled,
    then bit hi), with the slot that loses a collapse set, and in ``I``
    with slot n-1 cleared unless sigma + (n-1,) grew.  A fixed-point
    parent needs bit 0 of each image's grown slots.  Only the closed slots
    are visited, and only below ``max_size`` are their image ids looked
    up, to record each member's run.  Every member gets its run from its
    own check, which always passes up to the floor; when no size above
    the floor is checked, no table is held and nothing is checked.  The
    parents of both kinds of U are walked once each, in one pass that
    reads their runs in step, so the runs need no offsets.  The candidate
    tuple is built only for closed candidates.

    A candidate is screened only where a pattern can exclude it: for a
    deletion-order set, at the pattern sizes.  A classical set is first
    cut to its classically minimal patterns, which a permutation avoids
    iff it avoids the set: for the 26 patterns of ``PI_SMOOTH`` only 2143
    and 1324 remain.  Then one lemma limits the search.  A *unit* of an
    involution is a fixed point or a 2-cycle, and deleting one is a
    one-step deletion in every order.  A screened candidate is closed, so
    its one-step images all avoid the patterns, and an occurrence of p
    that missed a unit would survive into an image.  So every occurrence
    touches every unit: a closed candidate contains p only if it has at
    most |p| units, and so at most 2|p| entries.  Hence no basis element
    is larger than twice the largest minimal pattern,
    :meth:`PatternSet._reach`, and no candidate past it is screened.  The
    parent alone sharpens this: deleting U from the candidate c gives the
    parent, a member, so every occurrence touches U.  One through n ends
    at n; one through s but not n maps under the involution c to an
    occurrence of p's inverse through n, which ends there.  So c contains
    a minimal pattern iff some pattern or inverse of one occurs in c with
    its last entry at position n, and the search pins each one's last
    entry there and places the others in positions 1..n-1
    (:meth:`~invpat.containment.PatternChecker.contains_through_last_unit`).
    A candidate has one unit more than its parent, whose units are counted
    once.  It is searched, by one
    :class:`~invpat.containment.PatternChecker` per distinct subset
    (two for ``PI_PRIME``, one for ``PI_SMOOTH``), only for the minimal
    patterns with at least that many entries, and not at all when it has
    more units than the largest.  If the minimal patterns are closed
    under reverse-complement, a candidate and its mirror, which has as
    many units, get the same answer: the first of the two met at a size
    is searched, and its answer is kept until the mirror is met.  For a
    set that is not, every screened candidate is searched.

    One loop per parent, in ``grow``, decides its closed slots, screens
    them and grows its candidates.  Only two levels are held.  Levels
    below ``max_size`` are lists; the top level is a view grown as it is
    consumed, never stored.  Iterating it yields its members.  Its
    ``len()`` is the level's size, yielded once by ``grow``: it adds up
    the closed slots of each parent that needs no screen and builds only
    the screened candidates, so counting builds no member that no pattern
    can exclude.  A deletion-order set read in the matchings is grown in
    the involutions and filtered; its top level counts only the 2-cycles
    grown on matchings.

    >>> found = []
    >>> ps = PatternSet([(3, 2, 1)], Mode.CLASSICAL)
    >>> [sorted(members) for _, members in avoider_levels(ps, Mode.F, 4, found)]
    [[()], [], [(2, 1)], [], [(2, 1, 4, 3), (3, 4, 1, 2)]]
    >>> found
    [(4, 3, 2, 1)]
    """
    floor = _checked_floor(ps, ambient, max_size)
    pending: dict[Perm, bool] = {}      # searched at the grown size, mirror not yet met

    def mirrored(search, tau: Perm) -> bool:
        mirror = tuple(len(tau) + 1 - v for v in reversed(tau))
        if mirror in pending:
            return pending.pop(mirror)
        verdict = search(tau)
        if mirror != tau:
            pending[tau] = verdict
        return verdict

    if ps.mode is Mode.CLASSICAL:
        order = ambient
        minimal = ps._minimal
        largest = max(map(len, minimal), default=0)
        # by_units[u] screens a candidate with u + 1 units
        subsets = [tuple(p for p in minimal if len(p) > u) for u in range(largest)]
        searches = {subset: PatternChecker(subset, Mode.CLASSICAL).contains_through_last_unit
                    for subset in dict.fromkeys(subsets)}
        if {reverse_complement(p) for p in minimal} == set(minimal):
            searches = {subset: partial(mirrored, search) for subset, search in searches.items()}
        by_units = [searches[subset] for subset in subsets]
        screens = range(floor, ps._reach() + 1)
    else:
        order = ps.mode
        largest = max_size + 1      # more units than any candidate has
        by_units = [ps.patterns.__contains__] * largest
        screens = {len(p) for p in ps.patterns}
    fpf_only = ambient is Mode.F and order is not Mode.F
    collapse_ok = order is Mode.I
    # closure is checked, and the levels below max_size hold tables, at
    # every size or at none
    check = floor < max_size
    past = max_size + 1             # stands for "no second deleted position"

    def candidates(n: int, sigma: Perm, slots: int):
        """Yield ``(s, tau)`` for each set bit s of ``slots``: tau is sigma
        grown by the fixed point n (slot 0) or the 2-cycle (s, n)."""
        if slots & 1:
            yield 0, sigma + (n,)
            return
        # up is sigma with every value >= t raised by one; moving to t + 1
        # lowers the value t back, at position sigma[t - 1]
        up = [w + 1 for w in sigma]
        t = 1
        while slots:
            s = (slots & -slots).bit_length() - 1
            slots &= slots - 1
            while t < s:
                up[sigma[t - 1] - 1] = t
                t += 1
            yield s, (*up[:s - 1], n, *up[s - 1:], s)

    def grow(n: int, last, older, below, table, found_in, counting=False):
        """Yield the size-n members, checked against the tables ``below`` of
        sizes n-1 and n-2, and append the excluded closed candidates to
        ``found_in`` if given.  One loop per parent decides its closed
        slots, screens them and grows its candidates.  With a ``table``
        (kids, masks, runs), record each member's key (parent id, slot),
        its parent's grown slots and its image ids.  Counting, yield
        instead the level's size once, growing only the candidates a
        pattern may exclude."""
        pending.clear()
        kids, masks, runs = table or (None, None, None)
        keep = kids is not None
        if check:
            (last_kids, last_masks, _), (older_kids, older_masks, _) = below
        top = n - 1 if collapse_ok and n > 1 else -1
        screen_size = n in screens
        found = 0
        if n == 0:                      # () has no parent
            if floor > 0:               # else () is a pattern
                found = 1
                if not counting:
                    yield ()
            elif found_in is not None:
                found_in.append(())
        # U is the fixed point n (slot 0) or the 2-cycle (s, n) (slot s)
        for drop, parents, every_slot in ((1, () if order is Mode.F else last, 1),
                                          (2, older, (1 << n) - 2)):
            # each parent's run holds one id per image, in refs order
            ids = iter(below[drop - 1][2]) if check else None
            # the image of slot s is grown at slot s - (lo < s) - (hi < s) of
            # its own parent, so its grown slots are spread onto ours by
            # doubling bit lo and bit hi; slot 0 keeps its place
            spread = drop == 2
            for j, sigma in enumerate(parents):
                # bit s of slots is set iff the candidate of slot s is closed;
                # refs lists, in run order, each image's deleted positions lo
                # and hi, the slot that loses it or -1, a kids map and its
                # key's base
                slots = every_slot
                if keep:
                    refs = []
                if check:
                    for i, v in enumerate(sigma, 1):
                        if v > i:
                            continue
                        k = next(ids)
                        if v == i:
                            g = last_masks[k]
                            if keep:
                                refs.append((i, past, -1, last_kids, k * (n - 1)))
                        else:
                            g = older_masks[k]
                            if keep:
                                refs.append((v, i, -1, older_kids, k * (n - 2)))
                            if spread:
                                g = (g & ((2 << v) - 1)) | ((g >> v) << (v + 1))
                        if spread:
                            g = (g & ((2 << i) - 1)) | ((g >> i) << (i + 1))
                        slots &= g
                        if collapse_ok and v == i - 1:
                            # in I, the collapse of (v, i), lost at slot i
                            k = next(ids)
                            g = last_masks[k]
                            if keep:
                                refs.append((i, past, i, last_kids, k * (n - 1)))
                            if spread:
                                g = (g & ((2 << i) - 1)) | ((g >> i) << (i + 1)) | (1 << i)
                            slots &= g
                    # in I, U = (n-1, n) also collapses, to sigma + (n-1,)
                    if spread and collapse_ok and not last_masks[j] & 1:
                        slots &= ~(1 << (n - 1))
                # a candidate has one unit more than its parent
                units = sum(v > i for i, v in enumerate(sigma)) if screen_size else largest
                excluded = by_units[units] if units < largest else None
                if counting and excluded is None:
                    if fpf_only:        # only a 2-cycle grown on a matching is one
                        slots = slots & -2 if is_fpf(sigma) else 0
                    found += slots.bit_count()
                    continue
                for s, tau in candidates(n, sigma, slots):
                    if excluded and excluded(tau):
                        if found_in is not None:
                            found_in.append(tau)
                        continue
                    if counting:
                        found += not fpf_only or is_fpf(tau)
                        continue
                    if keep:
                        kids[j * n + s] = found
                        masks[j] |= 1 << s
                        runs.extend([kid[base + s - (lo < s) - (hi < s)]
                                     for lo, hi, cut, kid, base in refs if s != cut])
                        # U ends at n, so its images come last
                        runs.append(j)
                        if s == top:
                            runs.append(last_kids[j * (n - 1)])
                    found += 1
                    yield tau
        if counting:
            yield found

    older: list[Perm] = []
    last: list[Perm] = []
    older_tables = last_tables = (array("i"), [], array("i"))     # sizes -2 and -1: empty
    for n in range(max_size):
        tables = None
        if check:
            # key parent id * n + slot -> id, -1 where no member grew; per
            # key parent, the bitmask of its grown slots
            keys = max(len(last), len(older))
            tables = (array("i", [-1]) * (keys * n), [0] * keys, array("i"))
        level = list(grow(n, last, older, (last_tables, older_tables), tables, violators))
        yield n, [tau for tau in level if is_fpf(tau)] if fpf_only else level
        older, last = last, level
        older_tables, last_tables = last_tables, tables
    below = (last_tables, older_tables)

    def grow_top(find: bool, counting: bool):
        members = grow(max_size, last, older, below, None, violators if find else None,
                       counting)
        return filter(is_fpf, members) if fpf_only and not counting else members

    yield max_size, _TopLevel(grow_top)


def class_members(ps: PatternSet, ambient_mode: Mode, n: int) -> set[Perm]:
    """
    Size-n elements of the ambient family avoiding ps under ps.mode.

    The ambient only picks the ground set (involutions for I/Iprime,
    matchings for F); the avoidance order is the pattern set's own.

    >>> sorted(class_members(PatternSet([(1, 3, 2)], Mode.I), Mode.I, 3))
    [(1, 2, 3), (2, 1, 3), (3, 2, 1)]
    """
    for _, members in avoider_levels(ps, ambient_mode, n):
        pass
    return set(members)


@dataclass
class BasisReport:
    """Minimal violators grouped by size, plus how they were found."""

    elements: dict[int, tuple[Perm, ...]]
    search_bound: int
    ambient: Mode
    violated_set: PatternSet

    def all_elements(self) -> tuple[Perm, ...]:
        return tuple(p for size in sorted(self.elements) for p in self.elements[size])

    def max_size(self) -> int:
        """Largest basis-element size found; compare with the search bound."""
        return max(self.elements, default=0)

    def to_text(self) -> str:
        lines = [f"basis of avoiders of {self.violated_set} in "
                 f"{self.ambient.value} order, searched to size {self.search_bound}"
                 f" (largest element found: {self.max_size()})"]
        for size in sorted(self.elements):
            lines.append(f"size {size}:")
            for p in self.elements[size]:
                lines.append(f"  {format_perm(p)}  {format_cycles(p)}")
        return "\n".join(lines)

    def to_rows(self) -> list[str]:
        rows = ["size\tone_line\tcycle_form"]
        for size in sorted(self.elements):
            for p in self.elements[size]:
                rows.append(f"{size}\t{format_perm(p)}\t{format_cycles(p)}")
        return rows


def _basis_levels(pi: PatternSet, ambient: Mode, bound: int):
    """
    Yield ``(n, count, basis)`` for n = 0..bound from one pass of
    :func:`avoider_levels` over the classical avoiders of pi in the
    ambient order: the number of size-n members and the size-n basis
    elements, the closed but excluded candidates, sorted.  Each level is
    counted before its violators are read, as the top level finds its
    own only while it is counted.
    """
    violators: list[Perm] = []
    for n, members in avoider_levels(pi, ambient, bound, violators):
        yield n, len(members), tuple(sorted(violators))
        violators.clear()


def compute_basis(pi: PatternSet, ambient: Mode, bound: int | None = None) -> BasisReport:
    """
    Basis of the class of classical avoiders of pi inside the ambient
    order, up to size ``bound``: the closed but excluded candidates of
    :func:`avoider_levels`, each size sorted lexicographically.

    ``bound`` defaults to :meth:`PatternSet.basis_bound`, twice the
    largest pattern size, and is reported as the search bound.  The pass
    itself ends at the bound or at twice the largest classically minimal
    pattern size, whichever is smaller, since no basis element is larger
    than that (:func:`avoider_levels` says why): for ``PI_SMOOTH`` the
    minimal patterns are 2143 and 1324, so the pass ends at 8, not 16.

    >>> compute_basis(PatternSet([(3, 2, 1)], Mode.CLASSICAL), Mode.I).all_elements()
    ((3, 2, 1),)
    >>> compute_basis(PatternSet([(3, 2, 1)], Mode.CLASSICAL), Mode.F).all_elements()
    ((4, 3, 2, 1),)
    """
    if pi.mode is not Mode.CLASSICAL:
        raise ValueError("compute_basis expects a classical pattern set")
    if not pi.patterns:
        raise ValueError("a basis needs at least one pattern: the empty set's is empty")
    max_pat = pi.max_size()
    if bound is None:
        bound = pi.basis_bound()
    if check_size(bound) < max_pat:
        raise ValueError(f"bound {bound} is below the largest pattern size {max_pat}")
    levels = _basis_levels(pi, ambient, min(bound, pi._reach()))
    return BasisReport({n: basis for n, _, basis in levels if basis}, bound, ambient, pi)
