"""
Avoidance classes and basis computation.

A :class:`PatternSet` bundles patterns with the containment order they
are read in.  One level engine, :func:`avoider_levels`, grows the
avoiders of a set size by size; class members (:func:`class_members`),
bases (:func:`compute_basis`), counts (:mod:`invpat.enumeration`) and
the equality sweeps (:mod:`invpat.mcgovern`) all read it.  A basis is
the set of minimal violators of a classical pattern set inside a
deletion order; searching up to twice the largest pattern size is
guaranteed to find all of it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

# one_step_down, generate_involutions and generate_fpf stay importable
# here: bench/tracing.py wraps them by name
from .containment import (Mode, PatternChecker, _iter_images,  # noqa: F401
                          check_for_mode, one_step_down)
from .core import (Perm, format_cycles, format_perm, generate_fpf,  # noqa: F401
                   generate_involutions, is_fpf)


@dataclass(frozen=True)
class PatternSet:
    """A finite set of patterns plus the order they are read in."""

    patterns: frozenset[Perm]
    mode: Mode

    def __init__(self, patterns, mode: Mode):
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


def avoider_levels(ps: PatternSet, ambient: Mode, max_size: int,
                   violators: list[Perm] | None = None):
    """
    Yield ``(n, members)`` for n = 0..max_size: the size-n elements of the
    ambient family (involutions, or matchings for ``F``) avoiding ps.

    Each involution of size n is grown from exactly one smaller one, the
    one left after deleting the cycle through position n: a size n-1
    element with the fixed point n appended, or a size n-2 element with
    the 2-cycle (p, n) inserted.  The levels are grown in a deletion
    order (the ambient's for a classical set, the set's own otherwise),
    where avoiders are closed under deletion, so only members are grown
    from.  A candidate is *closed* iff every one-step image is a member,
    and a closed candidate is a member unless it is *excluded*: one of
    the patterns of a deletion-order set, or a container of a classical
    one.  The closed excluded candidates are the minimal violators; they
    are appended to ``violators`` if given.  Below the smallest pattern
    size every candidate is a member, so no check runs there.

    Only two levels are held.  Levels below ``max_size`` are sets; the
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
    if ambient is Mode.CLASSICAL:
        raise ValueError("ambient must be one of the involution/matching orders")
    if max_size < 0:
        raise ValueError("size must be nonnegative")
    if ps.mode is Mode.CLASSICAL:
        order = ambient
        excluded = PatternChecker(ps.patterns, Mode.CLASSICAL).contains_any
    elif ps.mode is Mode.F and ambient is not Mode.F:
        raise ValueError("F-mode pattern sets only filter matchings")
    else:
        order = ps.mode
        excluded = ps.patterns.__contains__
    floor = min((len(p) for p in ps.patterns), default=max_size + 1)
    fpf_only = ambient is Mode.F and order is not Mode.F
    older: set[Perm] = set()
    last: set[Perm] = set()

    def candidates(n: int):
        if n == 0:
            yield ()
            return
        if order is not Mode.F:
            for sigma in last:
                yield sigma + (n,)
        for sigma in older:
            # up is sigma with every value >= p raised by one; moving to
            # p + 1 lowers the value p back, at position sigma[p - 1]
            up = [w + 1 for w in sigma]
            for p in range(1, n):
                yield (*up[:p - 1], n, *up[p - 1:], p)
                if p < n - 1:
                    up[sigma[p - 1] - 1] = p

    def members(n: int):
        for tau in candidates(n):
            # images of a size-floor candidate are all below floor: members
            if n > floor and not all(img in last or img in older
                                     for img in _iter_images(tau, order)):
                continue
            if n >= floor and excluded(tau):
                if violators is not None:
                    violators.append(tau)
                continue
            yield tau

    for n in range(max_size):
        level = set(members(n))
        yield n, {tau for tau in level if is_fpf(tau)} if fpf_only else level
        older, last = last, level
    top = members(max_size)
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
        raise ValueError("empty pattern set has an empty basis at every bound")
    max_pat = pi.max_size()
    if bound is None:
        bound = 2 * max_pat
    if bound < max_pat:
        raise ValueError(f"bound {bound} is below the largest pattern size {max_pat}")

    violators: list[Perm] = []
    counts = {n: sum(1 for _ in members)
              for n, members in avoider_levels(pi, ambient, bound, violators)}
    found: dict[int, list[Perm]] = {}
    for tau in sorted(violators):
        found.setdefault(len(tau), []).append(tau)
    return BasisReport({m: tuple(v) for m, v in sorted(found.items())},
                       bound, ambient, pi, counts)
