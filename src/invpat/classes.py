"""
Avoidance classes and basis computation.

A :class:`PatternSet` bundles patterns with the containment order they
are read in.  One level engine, :func:`avoider_levels`, grows the
avoiders of a set size by size, each element from a smaller member, and
keeps a candidate iff its one-step deletions are all members, decided
by integer lookups of image ids rather than by building the images.
One candidate loop grows both kinds of element: those whose last cycle
is a fixed point and those whose last cycle is a 2-cycle.
Class members (:func:`class_members`) and counts
(:mod:`invpat.enumeration`) read it, and so does one basis pass, which
both :func:`compute_basis` and the equality sweeps
(:mod:`invpat.mcgovern`) read size by size.  A basis is
the set of minimal violators of a classical pattern set inside a
deletion order; searching up to twice the largest pattern size is
guaranteed to find all of it.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field

# one_step_down, generate_involutions and generate_fpf stay importable
# here: bench/tracing.py wraps them by name
from .containment import (Mode, check_for_mode, closed_classical_check,  # noqa: F401
                          one_step_down)
from .core import (Perm, check_size, format_cycles, format_perm,  # noqa: F401
                   generate_fpf, generate_involutions, is_fpf)


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

    Closure is decided by image pointers: no image is built or hashed.  A
    member is named by its index in its level.  Deleting U from c gives
    sigma, a member.  Deleting another unit u gives the member sigma - u
    with U put back at slot s - #(positions of u below s).  In ``I``, the
    collapse of sigma's adjacent 2-cycle (a, a+1) deletes position a+1
    and is lost when s = a+1, and U = (n-1, n) adds the collapse image
    sigma + (n-1,).  So c is closed iff each (id of sigma - u, slot)
    names a member one or two sizes down.  To look that up, when some
    size above the floor is checked, every level below ``max_size`` holds
    two integer arrays: the size-m member grown from (parent id, slot) at
    index parent id * m + slot (-1 where none grew), and the members'
    runs back to back, in member order, each its images' ids ordered by
    the last position of the deleted unit, so U's images come last.
    Every member gets its run from its own check, which always passes up
    to the floor; when no size above the floor is checked, no table is
    held and nothing is checked.  One loop grows the candidates of both
    kinds of U, slot 0 with the key formula of slots 1..n-1; it walks
    each parent once and reads its run in step, so the runs need no
    offsets.  The candidate tuple is built only for closed candidates.

    A classical set is checked only where a pattern can still occur.
    Every candidate that reaches the check is closed, so its one-step
    images all avoid the patterns; deleting a *unit* (a fixed point or a
    2-cycle) is a one-step deletion in every order, so an occurrence of p
    that missed a unit would survive into an image.  Every occurrence
    therefore touches every unit, and p is tried only on candidates with
    at most |p| units (:func:`invpat.containment.closed_classical_check`):
    none above twice the largest pattern size is searched.  If the set's
    minimal patterns are closed under reverse-complement, a candidate's
    mirror, which has the same size and answer, is not searched again.

    Only two levels are held.  Levels below ``max_size`` are lists; the
    top level is an iterator that grows its members as it is consumed,
    never stored.  A deletion-order set read in the matchings is grown
    in the involutions and filtered.

    >>> found = []
    >>> ps = PatternSet([(3, 2, 1)], Mode.CLASSICAL)
    >>> [sorted(members) for _, members in avoider_levels(ps, Mode.F, 4, found)]
    [[()], [], [(2, 1)], [], [(2, 1, 4, 3), (3, 4, 1, 2)]]
    >>> found
    [(4, 3, 2, 1)]
    """
    floor = _checked_floor(ps, ambient, max_size)
    if ps.mode is Mode.CLASSICAL:
        order = ambient
        excluded = closed_classical_check(ps.patterns)
    else:
        order = ps.mode
        excluded = ps.patterns.__contains__
    fpf_only = ambient is Mode.F and order is not Mode.F
    collapse_ok = order is Mode.I
    # closure is checked, and the levels below max_size hold tables, at
    # every size or at none
    check = floor < max_size
    past = max_size + 1             # stands for "no second deleted position"

    def grow(n: int, last, older, below, table):
        """Yield the size-n members, checked against the tables ``below`` of
        sizes n-1 and n-2.  With a ``table`` (kids, runs), record each
        member's key (parent id, slot) and its image ids."""
        if n == 0:
            if floor > 0 or not excluded(()):
                yield ()
            elif violators is not None:
                violators.append(())
            return
        screen = n >= floor
        kids, runs = table or (None, None)
        found = 0
        if check:
            (last_kids, _), (older_kids, _) = below

        def images(sigma: Perm, ids) -> list[tuple]:
            """Sigma's one-step images in run order, each as (deleted
            positions lo and hi, the slot that loses it or -1, and where a
            candidate's matching image is keyed: a kids map and the key's
            base), taking each image's id from ``ids``."""
            out = []
            for i, v in enumerate(sigma, 1):
                if v == i:
                    out.append((i, past, -1, last_kids, next(ids) * (n - 1)))
                elif v < i:
                    out.append((v, i, -1, older_kids, next(ids) * (n - 2)))
                    if collapse_ok and v == i - 1:
                        out.append((i, past, i, last_kids, next(ids) * (n - 1)))
            return out

        # U is the fixed point n (slot 0) or the 2-cycle (s, n) (slot s)
        for drop, parents, slots in ((1, () if order is Mode.F else last, (0,)),
                                     (2, older, range(1, n))):
            # each parent's run holds one id per image, in images() order
            ids_in = iter(below[drop - 1][1]) if check else None
            # in I, U = (n-1, n) also collapses, to sigma + (n-1,)
            top = n - 1 if drop == 2 and collapse_ok else -1
            for j, sigma in enumerate(parents):
                if check:
                    refs = images(sigma, ids_in)
                if drop == 2:
                    # up is sigma with every value >= s raised by one; moving
                    # to s + 1 lowers the value s back, at position sigma[s - 1]
                    up = [w + 1 for w in sigma]
                for s in slots:
                    if s > 1:
                        up[sigma[s - 2] - 1] = s - 1
                    if check:
                        ids = []
                        i = 0                   # -1 once an image is not a member
                        for lo, hi, cut, kid, base in refs:
                            if s != cut:
                                i = kid[base + s - (lo < s) - (hi < s)]
                                if i < 0:
                                    break
                                ids.append(i)
                        if i < 0:
                            continue
                        # U ends at n, so its images come last
                        ids.append(j)
                        if s == top:
                            i = last_kids[j * (n - 1)]
                            if i < 0:
                                continue
                            ids.append(i)
                    tau = (*up[:s - 1], n, *up[s - 1:], s) if s else sigma + (n,)
                    if screen and excluded(tau):
                        if violators is not None:
                            violators.append(tau)
                        continue
                    if kids is not None:
                        kids[j * n + s] = found
                        runs.extend(ids)
                    found += 1
                    yield tau

    older: list[Perm] = []
    last: list[Perm] = []
    older_tables = last_tables = (array("i"), array("i"))     # sizes -2 and -1: empty
    for n in range(max_size):
        tables = None
        if check:
            # key parent id * n + slot -> id, -1 where no member grew
            tables = (array("i", [-1]) * (max(len(last), len(older)) * n), array("i"))
        level = list(grow(n, last, older, (last_tables, older_tables), tables))
        yield n, [tau for tau in level if is_fpf(tau)] if fpf_only else level
        older, last = last, level
        older_tables, last_tables = last_tables, tables
    top = grow(max_size, last, older, (last_tables, older_tables), None)
    yield max_size, filter(is_fpf, top) if fpf_only else top


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
    member_counts: dict[int, int] = field(default_factory=dict)

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
    consumed before its violators are read, as the top level finds its
    own only while it is grown.
    """
    violators: list[Perm] = []
    for n, members in avoider_levels(pi, ambient, bound, violators):
        count = sum(1 for _ in members)
        yield n, count, tuple(sorted(violators))
        violators.clear()


def compute_basis(pi: PatternSet, ambient: Mode, bound: int | None = None) -> BasisReport:
    """
    Basis of the class of classical avoiders of pi inside the ambient
    order: the closed but excluded candidates of :func:`avoider_levels`,
    each size sorted lexicographically.  ``member_counts`` holds the
    class's size per level from the same pass.

    ``bound`` defaults to twice the largest pattern size, which is
    enough to find every basis element.

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
        bound = 2 * max_pat
    if check_size(bound) < max_pat:
        raise ValueError(f"bound {bound} is below the largest pattern size {max_pat}")
    levels = list(_basis_levels(pi, ambient, bound))
    return BasisReport({n: basis for n, _, basis in levels if basis}, bound, ambient, pi,
                       {n: count for n, count, _ in levels})
