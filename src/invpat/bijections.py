"""
Lattice-path machinery and the bijection chain onto 132-avoiding
involutions.

Path families (words read left to right, heights starting at 0):

- Motzkin word: 'U', 'D', 'L' steps, height never negative, ends at 0.
- Dyck word: Motzkin word with no 'L'.
- Labeled Dyck path: every down step from height h carries a label in
  1..ceil(h/2) (up steps implicitly carry 1).
- Laguerre history: Motzkin-like word with two level-step flavors 'L1'
  (node with a left child only) and 'L2' (right child only); every step
  at start height h carries a label in 1..h+1.
- Level path on even heights ("Andre path"): Motzkin word whose level
  steps all sit at even height, down steps labeled as in labeled Dyck
  paths.

Label-bound conventions are frozen by the exhaustive bijectivity and
round-trip tests: down-step bounds use the height the step descends
from, history bounds use the height the step starts at, plus one.

The maps:

- ``skew_half``: involutions with no independent cycle pair are skew
  sums (sigma^-1 above an optional central fixed point above sigma), so
  they are read off from their second half.
- ``perm_to_history``: permutation -> increasing binary tree (split at
  the minimum) -> insertion history, with the label recording which
  open slot, in in-order position, receives each vertex.
- ``dyck_to_history``: reads consecutive step pairs M_2M_3, M_4M_5, ...
  of a labeled Dyck path as U/D/L1/L2 and transports the down labels.
- ``strip_level_steps``: removes the level-step blocks of an even-level
  path, recording their sizes as a weak composition (k+1 parts: one
  leading block plus one after each even-index Dyck step).
- ``involution_to_andre``: the composite bijection from 132-avoiding
  involutions to even-level paths; level steps count fixed points.

Cost: each map validates its input in one pass (the two labeled path
types share one validator), builds its tree in linear time with one
stack pass into a flat child array, and carries the labels of open U
steps on a stack between the Dyck path and the history.  The open-slot
list of the insertion history is kept as a Python list, whose C-level
index and splice are the only steps that grow with the number of open
slots.  ``involution_to_andre`` rules out 132 by checking that the
openers come first, in the same pass that reads the composition and the
closers.  ``history_to_perm``, ``dyck_to_history``, ``history_to_dyck``
and ``insert_level_steps`` validate their input (and, but for the
first, their output) around a private core; the composites call the
cores where the previous step has just validated the same object, and
so skip three re-checks per round trip: the labeled Dyck path entering
``insert_level_steps`` and ``dyck_to_history``, and the history
entering ``history_to_perm``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import (Perm, check_involution, check_permutation, fixed_points,
                   inverse, lr_minima, skew_sum, standardize, two_cycles)

# ---------------------------------------------------------------------------
# path types


def heights(word) -> list[int]:
    """Heights after each step (level steps of any flavor keep height)."""
    h = 0
    out = []
    for s in word:
        if s == "U":
            h += 1
        elif s == "D":
            h -= 1
        out.append(h)
    return out


def check_motzkin(word: str) -> str:
    h = 0
    for s in word:
        if s not in "UDL":
            raise ValueError(f"bad step {s!r} in {word!r}")
        h += (s == "U") - (s == "D")
        if h < 0:
            raise ValueError(f"path dips below zero: {word!r}")
    if h:
        raise ValueError(f"path does not return to zero: {word!r}")
    return word


def _check_labeled_path(word: str, down_labels, levels_allowed: bool) -> None:
    """
    One pass over a labeled Motzkin word: steps, height, level steps
    (anywhere only if ``levels_allowed``, and then at even height), one
    int label per down step within 1..ceil(h/2) for the height h it
    descends from.
    """
    h = k = 0
    n_labels = len(down_labels)
    for s in word:
        if s == "U":
            h += 1
        elif s == "D":
            if k == n_labels:
                raise ValueError("one label per down step required")
            lab = down_labels[k]
            if not isinstance(lab, int) or not 1 <= lab <= (h + 1) // 2:
                raise ValueError(f"label {lab!r} out of range for down step from height {h}")
            k += 1
            h -= 1
            if h < 0:
                raise ValueError(f"path dips below zero: {word!r}")
        elif s == "L":
            if not levels_allowed:
                raise ValueError("Dyck word cannot contain level steps")
            if h % 2:
                raise ValueError(f"level step at odd height in {word!r}")
        else:
            raise ValueError(f"bad step {s!r} in {word!r}")
    if h:
        raise ValueError(f"path does not return to zero: {word!r}")
    if k != n_labels:
        raise ValueError("one label per down step required")


@dataclass(frozen=True)
class LabeledDyck:
    """Dyck word plus one label per down step, left to right."""

    word: str
    down_labels: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.word or '()'} ({','.join(map(str, self.down_labels))})"

    @property
    def half_length(self) -> int:
        return len(self.word) // 2


def check_labeled_dyck(ldp: LabeledDyck) -> LabeledDyck:
    _check_labeled_path(ldp.word, ldp.down_labels, levels_allowed=False)
    return ldp


@dataclass(frozen=True)
class AndrePath:
    """Motzkin word with level steps at even height, down steps labeled."""

    word: str
    down_labels: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.word or '()'} ({','.join(map(str, self.down_labels))})"


def check_andre(ap: AndrePath) -> AndrePath:
    _check_labeled_path(ap.word, ap.down_labels, levels_allowed=True)
    return ap


@dataclass(frozen=True)
class LaguerreHistory:
    """Steps over U/D/L1/L2, one label per step, bound = start height + 1."""

    steps: tuple[str, ...]
    labels: tuple[int, ...]

    def __str__(self) -> str:
        pretty = {"U": "U", "D": "D", "L1": "L'", "L2": "L''"}
        word = ",".join(pretty[s] for s in self.steps)
        return f"{word or '()'} ({','.join(map(str, self.labels))})"


def check_history(lh: LaguerreHistory) -> LaguerreHistory:
    if len(lh.steps) != len(lh.labels):
        raise ValueError("one label per step required")
    h = 0
    for s, lab in zip(lh.steps, lh.labels):
        if s not in ("U", "D", "L1", "L2"):
            raise ValueError(f"bad history step {s!r}")
        if not isinstance(lab, int) or not 1 <= lab <= h + 1:
            raise ValueError(f"label {lab!r} out of range at height {h}")
        h += (s == "U") - (s == "D")
        if h < 0:
            raise ValueError("history dips below zero")
    if h:
        raise ValueError("history does not return to zero")
    return lh


# ---------------------------------------------------------------------------
# exhaustive generators (tests lean on these)


def iter_motzkin_words(n: int, levels: str = "any") -> Iterator[str]:
    """
    Motzkin words of length n over D, L, U, in lexicographic order.

    ``levels`` says where level steps may sit: ``"any"``, ``"even"`` (even
    heights only, the André paths) or ``"none"`` (Dyck words).
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if levels not in ("any", "even", "none"):
        raise ValueError(f"levels must be 'any', 'even' or 'none', got {levels!r}")
    steps = "DU" if levels == "none" else "DLU"
    even_only = levels == "even"
    word: list[str] = []

    def rec(h: int, left: int) -> Iterator[str]:
        if left == 0:
            if h == 0:
                yield "".join(word)
            return
        if h > left:
            return
        for s in steps:
            if s == "D" and h == 0:
                continue
            if s == "L" and even_only and h % 2:
                continue
            word.append(s)
            yield from rec(h + (s == "U") - (s == "D"), left - 1)
            word.pop()

    yield from rec(0, n)


def iter_dyck_words(half: int) -> Iterator[str]:
    return iter_motzkin_words(2 * half, levels="none")


def _label_choices(word: str) -> Iterator[tuple[int, ...]]:
    from itertools import product

    ranges = []
    h = 0
    for s in word:
        if s == "U":
            h += 1
        elif s == "D":
            ranges.append(range(1, (h + 1) // 2 + 1))
            h -= 1
    yield from product(*ranges)


def iter_labeled_dyck(half: int) -> Iterator[LabeledDyck]:
    for word in iter_dyck_words(half):
        for labels in _label_choices(word):
            yield LabeledDyck(word, labels)


def iter_andre_paths(n: int) -> Iterator[AndrePath]:
    for word in iter_motzkin_words(n, levels="even"):
        for labels in _label_choices(word):
            yield AndrePath(word, labels)


def iter_laguerre_histories(n: int) -> Iterator[LaguerreHistory]:
    if n < 0:
        raise ValueError("size must be nonnegative")
    steps: list[str] = []
    labels: list[int] = []

    def rec(h: int, left: int) -> Iterator[LaguerreHistory]:
        if left == 0:
            if h == 0:
                yield LaguerreHistory(tuple(steps), tuple(labels))
            return
        if h > left:
            return
        for s in ("D", "L1", "L2", "U"):
            if s == "D" and h == 0:
                continue
            for lab in range(1, h + 2):
                steps.append(s)
                labels.append(lab)
                yield from rec(h + (s == "U") - (s == "D"), left - 1)
                steps.pop()
                labels.pop()

    yield from rec(0, n)


# ---------------------------------------------------------------------------
# skew-sum halving for involutions with no independent cycle pair


def _has_independent_pair(tau: Perm) -> bool:
    # some cycle has a whole cycle to its left iff not every cycle is a
    # left-to-right minimum; an involution with t 2-cycles has n - t cycles
    return len(lr_minima(tau)[0]) < len(tau) - len(two_cycles(tau))


def skew_half(tau: Perm) -> Perm:
    """
    Read the lower-right block of an involution of shape
    sigma^-1 (+ optional central fixed point) over sigma.

    >>> skew_half((4, 3, 2, 1))
    (2, 1)
    >>> skew_half((3, 2, 1))
    (1,)
    """
    tau = check_involution(tau)
    if _has_independent_pair(tau):
        raise ValueError("involution has an independent cycle pair")
    n = len(tau)
    return tuple(tau[(n + 1) // 2 + k] for k in range(n // 2))


def from_skew_half(sigma: Perm, odd: bool) -> Perm:
    """
    Inverse of :func:`skew_half`; ``odd`` says whether to reinsert the
    central fixed point.

    >>> from_skew_half((2, 1), False)
    (4, 3, 2, 1)
    """
    sigma = check_permutation(sigma)
    top = inverse(sigma)
    return skew_sum(skew_sum(top, (1,)), sigma) if odd else skew_sum(top, sigma)


# ---------------------------------------------------------------------------
# permutations <-> histories via increasing binary trees


def _tree_kids(sigma: Perm) -> list[int]:
    """
    The split-at-the-minimum tree of a permutation of 1..n, built in one
    stack pass over the right spine.  Slot ``2*v + side`` holds the
    left (side 0) or right (side 1) child of vertex v, or 0; the root
    hangs in slot 1, the right slot of the virtual vertex 0.
    """
    kids = [0] * (2 * len(sigma) + 2)
    spine = [0]
    for v in sigma:
        last = 0
        while spine[-1] > v:
            last = spine.pop()
        kids[2 * v] = last
        kids[2 * spine[-1] + 1] = v
        spine.append(v)
    return kids


def increasing_tree(sigma: Perm):
    """
    The binary tree of a permutation, splitting at the minimum: nested
    ``(label, left, right)`` triples with ``None`` for absent children.
    Labels grow downward, so reading the tree in in-order recovers the
    word.

    >>> increasing_tree((2, 1, 3))
    (1, (2, None, None), (3, None, None))
    """
    sigma = check_permutation(sigma)
    kids = _tree_kids(sigma)
    # children carry larger labels, so build from the largest vertex up
    node: list = [None] * (len(sigma) + 1)
    for v in range(len(sigma), 0, -1):
        node[v] = (v, node[kids[2 * v]], node[kids[2 * v + 1]])
    return node[kids[1]]


def perm_to_history(sigma: Perm) -> LaguerreHistory:
    """
    Insertion history of the increasing binary tree of sigma: the step
    of vertex i says which children it has (both = U, left = L1,
    right = L2, none = D), the label says which open slot, counted from
    the left, it fills.  The largest vertex is forced and dropped.

    >>> perm_to_history((2, 1))
    LaguerreHistory(steps=('L1',), labels=(1,))
    >>> str(perm_to_history((4, 5, 2, 3, 1)))
    "L',U,D,L'' (1,1,2,1)"
    """
    sigma = check_permutation(sigma)
    if not sigma:
        raise ValueError("need a permutation of size at least 1")
    n = len(sigma) - 1
    kids = _tree_kids(sigma)
    # the open slots in in-order, each named by the vertex that fills it
    slots = [kids[1]]
    steps: list[str] = []
    labels: list[int] = []
    for v in range(1, n + 1):
        spot = slots.index(v)
        left, right = kids[2 * v], kids[2 * v + 1]
        if left and right:
            slots[spot:spot + 1] = (left, right)
            steps.append("U")
        elif left:
            slots[spot] = left
            steps.append("L1")
        elif right:
            slots[spot] = right
            steps.append("L2")
        else:
            del slots[spot]
            steps.append("D")
        labels.append(spot + 1)
    return LaguerreHistory(tuple(steps), tuple(labels))


def history_to_perm(lh: LaguerreHistory) -> Perm:
    """
    Inverse of :func:`perm_to_history`: replay the insertions, then read
    the tree in in-order.

    >>> history_to_perm(LaguerreHistory(('L1',), (1,)))
    (2, 1)
    """
    return _history_to_perm(check_history(lh))


def _history_to_perm(lh: LaguerreHistory) -> Perm:
    n = len(lh.steps)
    kids = [0] * (2 * n + 4)
    # open slots in in-order; a valid history keeps h + 1 of them at
    # height h, so every label names one
    slots = [1]
    for v, (step, lab) in enumerate(zip(lh.steps, lh.labels), 1):
        spot = lab - 1
        kids[slots[spot]] = v
        if step == "U":
            slots[spot:spot + 1] = (2 * v, 2 * v + 1)
        elif step == "L1":
            slots[spot] = 2 * v
        elif step == "L2":
            slots[spot] = 2 * v + 1
        else:
            del slots[spot]
    kids[slots[0]] = n + 1  # the forced largest vertex

    out: list[int] = []
    path: list[int] = []
    v = kids[1]
    while v or path:
        while v:
            path.append(v)
            v = kids[2 * v]
        v = path.pop()
        out.append(v)
        v = kids[2 * v + 1]
    return tuple(out)


# ---------------------------------------------------------------------------
# labeled Dyck paths <-> histories


def dyck_to_history(ldp: LabeledDyck) -> LaguerreHistory:
    """
    Histories from labeled Dyck paths of one larger half-length.  The
    first and last steps are dropped; each inner step pair becomes one
    history step and the down labels ride along: a D pair donates its
    first label, its second label travels to the matching U, and the
    mixed pairs donate the label of their D.

    >>> str(dyck_to_history(LabeledDyck("UUDUUDDDUD", (1, 2, 1, 1, 1))))
    "L',U,D,L'' (1,1,2,1)"
    """
    return check_history(_dyck_to_history(check_labeled_dyck(ldp)))


def _dyck_to_history(ldp: LabeledDyck) -> LaguerreHistory:
    word = ldp.word
    if not word:
        raise ValueError("need half-length at least 1")
    downs = iter(ldp.down_labels)
    steps: list[str] = []
    labels: list[int] = []
    # label indices of the U pairs whose D pair is still to come; in a
    # valid Dyck word every D pair has one
    waiting: list[int] = []
    for i in range(1, len(word) - 1, 2):
        pair = word[i:i + 2]
        if pair == "UU":
            waiting.append(len(labels))
            steps.append("U")
            labels.append(0)
        elif pair == "DD":
            steps.append("D")
            labels.append(next(downs))
            labels[waiting.pop()] = next(downs)
        else:
            steps.append("L1" if pair == "UD" else "L2")
            labels.append(next(downs))
    return LaguerreHistory(tuple(steps), tuple(labels))


def history_to_dyck(lh: LaguerreHistory) -> LabeledDyck:
    """
    Inverse of :func:`dyck_to_history`.

    >>> history_to_dyck(LaguerreHistory((), ())).word
    'UD'
    """
    return check_labeled_dyck(_history_to_dyck(check_history(lh)))


_PAIR = {"U": "UU", "D": "DD", "L1": "UD", "L2": "DU"}


def _history_to_dyck(lh: LaguerreHistory) -> LabeledDyck:
    downs: list[int] = []
    # labels of the U steps not yet closed; a valid history never closes
    # more than it opened
    waiting: list[int] = []
    for s, lab in zip(lh.steps, lh.labels):
        if s == "U":
            waiting.append(lab)
        elif s == "D":
            downs.append(lab)
            downs.append(waiting.pop())
        else:
            downs.append(lab)
    downs.append(1)
    word = "U" + "".join(map(_PAIR.__getitem__, lh.steps)) + "D"
    return LabeledDyck(word, tuple(downs))


# ---------------------------------------------------------------------------
# even-level paths <-> (composition, labeled Dyck path)


def strip_level_steps(ap: AndrePath) -> tuple[tuple[int, ...], LabeledDyck]:
    """
    Remove the level steps, recording block sizes: part 0 before the
    first rise, part i after the 2i-th Dyck step.  Down labels carry
    over unchanged.

    >>> strip_level_steps(AndrePath("UDLL", (1,)))
    ((0, 2), LabeledDyck(word='UD', down_labels=(1,)))
    """
    ap = check_andre(ap)
    dyck = ap.word.replace("L", "")
    # check_andre makes the Dyck steps return to height 0, so there is an
    # even number of them, and puts every L at even height, so an even
    # number of them precedes each L
    comp = [0] * (len(dyck) // 2 + 1)
    seen = 0
    for s in ap.word:
        if s == "L":
            comp[seen // 2] += 1
        else:
            seen += 1
    return tuple(comp), check_labeled_dyck(LabeledDyck(dyck, ap.down_labels))


def insert_level_steps(comp: tuple[int, ...], ldp: LabeledDyck) -> AndrePath:
    """
    Inverse of :func:`strip_level_steps`: comp must have one part per
    even position of the Dyck word plus the leading one.

    >>> insert_level_steps((0, 2), LabeledDyck("UD", (1,))).word
    'UDLL'
    """
    return check_andre(_insert_level_steps(comp, check_labeled_dyck(ldp)))


def _insert_level_steps(comp: tuple[int, ...], ldp: LabeledDyck) -> AndrePath:
    k = ldp.half_length
    if len(comp) != k + 1 or not all(isinstance(y, int) and y >= 0 for y in comp):
        raise ValueError(f"composition must have {k + 1} nonnegative int parts")
    out = ["L" * comp[0]]
    for i in range(k):
        out.append(ldp.word[2 * i:2 * i + 2])
        out.append("L" * comp[i + 1])
    return AndrePath("".join(out), ldp.down_labels)


# ---------------------------------------------------------------------------
# the composite bijection


def remove_fixed_points(tau: Perm) -> tuple[Perm, tuple[int, ...]]:
    """
    Standardize away the fixed points; returns the matching and the
    vacated positions.

    >>> remove_fixed_points((2, 1, 3, 5, 4))
    ((2, 1, 4, 3), (3,))
    """
    tau = check_involution(tau)
    fixes = fixed_points(tau)
    rho = standardize(tuple(v for i, v in enumerate(tau) if v != i + 1))
    return rho, tuple(fixes)


def insert_fixed_points(rho: Perm, positions: tuple[int, ...]) -> Perm:
    """
    Inverse of :func:`remove_fixed_points`.

    >>> insert_fixed_points((2, 1, 4, 3), (3,))
    (2, 1, 3, 5, 4)
    """
    from .core import check_fpf

    rho = check_fpf(rho)
    n = len(rho) + len(positions)
    spots = set(positions)
    if len(spots) != len(positions) or \
            not all(isinstance(p, int) and 1 <= p <= n for p in positions):
        raise ValueError("fixed-point positions out of range or repeated")
    rest = [p for p in range(1, n + 1) if p not in spots]
    out = [0] * n
    for p in spots:
        out[p - 1] = p
    for i, v in enumerate(rho):
        out[rest[i] - 1] = rest[v - 1]
    return check_involution(tuple(out))


def involution_to_andre(tau: Perm) -> AndrePath:
    """
    The composite bijection from 132-avoiding involutions to even-level
    paths of the same length; level steps count fixed points.

    With k 2-cycles, tau avoids 132 in the deletion order ``I`` iff
    positions 1..k are all openers.  If some p <= k is not an opener,
    some opener a > k is left over, with 2-cycle (a, b): a fixed point p
    gives 132 with it directly, and a closer p of (c, p) has nothing
    strictly inside it that is kept, so it squashes to a fixed point.
    Conversely, every fixed point and every closer then lies right of
    every opener, and a squashed 2-cycle must lie wholly left of the
    2-cycle it meets, so no fixed-point unit lies left of any opener.

    >>> involution_to_andre((1, 2, 3)).word
    'LLL'
    >>> str(involution_to_andre((2, 1)))
    'UD (1)'
    """
    tau = check_involution(tau)
    n = len(tau)
    k = 0
    while k < n and tau[k] > k + 1:
        k += 1
    # past the leading openers only closers and fixed points may follow;
    # a fixed point joins the block after the closers to its left, and
    # the closer values in position order are the matching's second half,
    # a permutation of 1..k
    comp = [0] * (k + 1)
    sigma: list[int] = []
    for p in range(k + 1, n + 1):
        v = tau[p - 1]
        if v > p:
            raise ValueError("involution contains 132 in the deletion order")
        if v == p:
            comp[len(sigma)] += 1
        else:
            sigma.append(v)
    ldp = history_to_dyck(perm_to_history(tuple(sigma))) if k else LabeledDyck("", ())
    # history_to_dyck has just validated ldp
    return check_andre(_insert_level_steps(tuple(comp), ldp))


def andre_to_involution(ap: AndrePath) -> Perm:
    """
    Inverse of :func:`involution_to_andre`.

    >>> andre_to_involution(AndrePath("UD", (1,)))
    (2, 1)
    """
    comp, ldp = strip_level_steps(ap)
    k = ldp.half_length
    # strip_level_steps has just validated ldp, and check_history
    # validates the history that _history_to_perm reads
    sigma = _history_to_perm(check_history(_dyck_to_history(ldp))) if k else ()
    # the matching's lower-right block: the opener of the j-th closer
    # is sigma[j]
    sigma = check_permutation(sigma)
    # closers sit after the k openers, y_0 fixed points, closer, y_1
    # fixed points, closer, ...; every other position is a fixed point
    out = list(range(1, len(ap.word) + 1))
    pos = k
    for j in range(k):
        pos += comp[j] + 1
        opener = sigma[j]
        out[pos - 1] = opener
        out[opener - 1] = pos
    return check_involution(tuple(out))
