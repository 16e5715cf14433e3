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

Every labeled family is generated from the one Motzkin walk,
:func:`iter_motzkin_words`, times a product of per-step choices: a
label per down step for labeled Dyck paths and André paths, a flavor
per level step and a label per step for Laguerre histories.

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

Cost: each step of the chain has one loop, in one private core that
its public map and one of the composites call.  ``_perm_history`` and
``_history_perm`` replay the insertions on the one-line word, with no
tree: the open slots before vertex v are the maximal runs of values
>= v, named by where each starts (a C-level ``bisect`` finds v's), or
the segments of placed values between them (v is spliced into one).
``_history_dyck`` carries a history's labels to the down steps of its
Dyck path and ``_dyck_history`` carries them back; ``_with_levels``
interleaves the level blocks.  Each map checks its input once and
nothing it returns: what it builds from valid input is valid by
construction.  The three cores that read a history or a labeled Dyck
path check it inside their loop, at one comparison per label, since
the slot list or the stack of waiting U steps already holds the height
that bounds it; in the composites those comparisons also run on the
steps passed from one core to the next.  The other maps call a
validator first: the maps from permutations and involutions those of
``core``, the level-step maps ``check_labeled_dyck``.  Level steps are
read, and their heights checked, in one place, ``_level_blocks``, so
``strip_level_steps`` and ``check_andre`` run the validator on the word
it strips, as ``andre_to_involution`` runs the cores on it.
The slot lists are Python lists, and their C-level search and splice,
with the C-level search for v in the word, are the only steps that grow
with the size.
``involution_to_andre`` rules out 132 by checking that the openers come
first, in the same pass that reads the composition and the closers.
``andre_to_involution`` checks the parity of its level steps in the
pass that reads the composition and leaves the rest to the cores.
Neither builds a history or a labeled Dyck path.  The path generators
join each walked prefix to a table of tails, so a word costs one
string concatenation.
"""
from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate, product
from typing import Iterator

from .core import (Perm, check_fpf, check_involution, check_permutation, check_size,
                   fixed_points)

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


def _word_and_labels(path) -> str:
    """The step word, or ``()`` when empty, then the down labels in parentheses."""
    return f"{path.word or '()'} ({','.join(map(str, path.down_labels))})"


@dataclass(frozen=True)
class LabeledDyck:
    """Dyck word plus one label per down step, left to right."""

    word: str
    down_labels: tuple[int, ...]
    __str__ = _word_and_labels

    @property
    def half_length(self) -> int:
        return len(self.word) // 2


def check_labeled_dyck(ldp: LabeledDyck) -> LabeledDyck:
    """
    One pass over the word: steps, height, one int label per down step
    within 1..ceil(h/2) for the height h it descends from.  A down step
    from height 0 has no label in range, so the path never dips below 0.
    """
    h = k = 0
    word, down_labels = ldp.word, ldp.down_labels
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
        elif s == "L":
            raise ValueError("Dyck word cannot contain level steps")
        else:
            raise ValueError(f"bad step {s!r} in {word!r}")
    if h:
        raise ValueError(f"path does not return to zero: {word!r}")
    if k != n_labels:
        raise ValueError("one label per down step required")
    return ldp


@dataclass(frozen=True)
class AndrePath:
    """Motzkin word with level steps at even height, down steps labeled."""

    word: str
    down_labels: tuple[int, ...]
    __str__ = _word_and_labels


def check_andre(ap: AndrePath) -> AndrePath:
    """Level steps at even height, then the word without them as a labeled Dyck path."""
    strip_level_steps(ap)
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

    The last r = min(n, 8) steps come from a table, built once per call,
    of the words of length r from each height back to 0.  Only the first
    n - r steps are walked, depth first, and each prefix is joined to
    every tail for its end height, so a word costs one concatenation.
    """
    check_size(n)
    if levels not in ("any", "even", "none"):
        raise ValueError(f"levels must be 'any', 'even' or 'none', got {levels!r}")
    if levels == "none" and n % 2:
        return      # every step changes the height by one
    steps = "DU" if levels == "none" else "DLU"
    even_only = levels == "even"
    # the steps allowed at each height, in lexicographic order, with the
    # height each leads to
    moves = [[(s, h + (s == "U") - (s == "D")) for s in steps
              if not (s == "D" and h == 0 or s == "L" and even_only and h % 2)]
             for h in range(n + 1)]
    r = min(n, 8)  # so the table holds at most 2,123 words
    # the tails of length 0; the lists are never changed, so may be shared
    tails = [[""]] + [[]] * r
    for _ in range(r):
        # a longer tail from h is a step from h, then a tail from there
        tails = [[s + t for s, g in moves[h] if g <= r for t in tails[g]]
                 for h in range(r + 1)]
    stack = [("", 0)]
    while stack:
        prefix, h = stack.pop()
        left = n - len(prefix)
        if left == r:
            yield from map(prefix.__add__, tails[h])
        else:
            # pushed in reverse, so popped in lexicographic order; a
            # height above the steps left cannot come back to 0
            stack += [(prefix + s, g) for s, g in reversed(moves[h]) if g < left]


def iter_dyck_words(half: int) -> Iterator[str]:
    return iter_motzkin_words(2 * check_size(half), levels="none")


def _label_choices(word: str) -> Iterator[tuple[int, ...]]:
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
    """
    Every Laguerre history of length n, (n + 1)! of them: the Motzkin
    words in the order of :func:`iter_motzkin_words`, each L read as L1
    or L2, and every step at start height h labeled 1..h+1.  Within one
    word the flavors of its level steps vary slower than the labels, and
    each product runs in lexicographic order, L1 before L2.

    >>> [str(lh) for lh in iter_laguerre_histories(1)]
    ["L' (1)", "L'' (1)"]
    """
    for word in iter_motzkin_words(n):
        flavors = [("L1", "L2") if s == "L" else (s,) for s in word]
        # the height each step starts at bounds its label
        ranges = [range(1, h + 2) for h in [0, *heights(word)][:n]]
        for steps in product(*flavors):
            for labels in product(*ranges):
                yield LaguerreHistory(steps, labels)


# ---------------------------------------------------------------------------
# skew-sum halving for involutions with no independent cycle pair


def _has_independent_pair(tau: Perm) -> bool:
    # some cycle has a whole cycle to its left iff, taking the cycles by
    # opener, one opens right of a closer already seen; tau is not checked
    least_closer = len(tau) + 1
    for i, v in enumerate(tau, 1):
        if i <= v:
            if i > least_closer:
                return True
            if v < least_closer:
                least_closer = v
    return False


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
    k = len(sigma)
    top = [0] * k   # sigma^-1, shifted above the rest
    for i, v in enumerate(sigma, 1):
        top[v - 1] = i + k + bool(odd)
    return (*top, *((k + 1,) if odd else ()), *sigma)


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

    The tree is never built: the open slots before vertex v are the
    maximal runs of values >= v in sigma, and v's neighbours in sigma
    say which children it has.

    >>> perm_to_history((2, 1))
    LaguerreHistory(steps=('L1',), labels=(1,))
    >>> str(perm_to_history((4, 5, 2, 3, 1)))
    "L',U,D,L'' (1,1,2,1)"
    """
    sigma = check_permutation(sigma)
    if not sigma:
        raise ValueError("need a permutation of size at least 1")
    return LaguerreHistory(*_perm_history(sigma))


def _perm_history(sigma: Perm) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The history steps and labels of vertices 1..n-1 of a permutation of 1..n."""
    word = (0, *sigma, 0)
    # the open slots in in-order, each named by the position where its
    # run of values >= v starts; the run holding v is v's slot
    starts = [1]
    steps: list[str] = []
    labels: list[int] = []
    for v in range(1, len(sigma)):
        p = word.index(v)
        # v's run is the last to start at or before p, open slot lab, and
        # a neighbour larger than v lies in it, so it is a child of v
        lab = bisect(starts, p)
        labels.append(lab)
        if word[p - 1] > v:
            if word[p + 1] > v:
                starts.insert(lab, p + 1)
                steps.append("U")
            else:
                steps.append("L1")
        elif word[p + 1] > v:
            starts[lab - 1] = p + 1
            steps.append("L2")
        else:
            del starts[lab - 1]
            steps.append("D")
    return tuple(steps), tuple(labels)


def history_to_perm(lh: LaguerreHistory) -> Perm:
    """
    Inverse of :func:`perm_to_history`: replay the insertions on the
    one-line word.

    >>> history_to_perm(LaguerreHistory(('L1',), (1,)))
    (2, 1)
    """
    return _history_perm(lh.steps, lh.labels)


def _history_perm(steps, labels) -> Perm:
    """The permutation of a history, checked as the insertions replay."""
    if len(steps) != len(labels):
        raise ValueError("one label per step required")
    # the word so far as the segments between its open slots, slot i
    # between segs[i - 1] and segs[i]: h + 1 slots at height h, so the
    # label bound is their number, and a D at height 0 leaves none
    segs: list[list[int]] = [[], []]
    for v, (step, lab) in enumerate(zip(steps, labels), 1):
        if not isinstance(lab, int) or not 0 < lab < len(segs):
            raise ValueError(f"label {lab!r} out of range at height {len(segs) - 2}")
        if step == "U":
            segs.insert(lab, [v])
        elif step == "L1":
            segs[lab].insert(0, v)
        elif step == "L2":
            segs[lab - 1].append(v)
        elif step == "D" and len(segs) > 2:
            segs[lab - 1] += [v, *segs.pop(lab)]
        else:
            raise ValueError(f"bad history step {step!r} at height {len(segs) - 2}")
    if len(segs) != 2:
        raise ValueError("history does not return to zero")
    return (*segs[0], len(steps) + 1, *segs[1])  # the forced largest vertex


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
    return LaguerreHistory(*_dyck_history(ldp.word, ldp.down_labels, ldp.word))


def _dyck_history(dyck: str, downs, word: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """
    The history steps and labels of a labeled Dyck word, checked as they
    are read; errors name ``word``, the path the word was taken from.
    """
    if not dyck:
        raise ValueError("need half-length at least 1")
    if len(dyck) % 2 or dyck[0] != "U" or dyck[-1] != "D" or \
            dyck.count("D") != len(downs):
        raise ValueError(f"not a labeled Dyck path: {word!r}, {downs!r}")
    steps: list[str] = []
    labels: list[int] = []
    # label indices of the U pairs whose D pair is still to come; an
    # inner pair starts at height 2w + 1 with w of them waiting
    waiting: list[int] = []
    k = 0  # next down label; the count check keeps every read in range
    # reading the pair as two one-letter steps builds no string per pair
    for a, b in zip(dyck[1:-1:2], dyck[2:-1:2]):
        if a == b == "U":
            waiting.append(len(labels))
            steps.append("U")
            labels.append(0)
            continue
        # the pair's first D descends from height 2w + 1 or 2w + 2
        bound = len(waiting) + 1
        lab = downs[k]
        if not isinstance(lab, int) or not 0 < lab <= bound:
            raise ValueError(f"down label {lab!r} out of range 1..{bound} in {word!r}")
        if a == b == "D":
            # the second D descends from height 2w: bound w, and w = 0
            # is a dip below zero
            up = downs[k + 1]
            if not isinstance(up, int) or not 0 < up < bound:
                raise ValueError(f"down label {up!r} out of range 1..{bound - 1} in {word!r}")
            k += 1
            steps.append("D")
            labels[waiting.pop()] = up
        elif a == "U" and b == "D":
            steps.append("L1")
        elif a == "D" and b == "U":
            steps.append("L2")
        else:
            raise ValueError(f"bad step pair {a!r}, {b!r} in {word!r}")
        # the pair's first D donates its label to the pair's own step
        k += 1
        labels.append(lab)
    if waiting:
        raise ValueError(f"path does not return to zero: {word!r}")
    # the last D descends from height 1, so its bound is 1
    if not isinstance(downs[-1], int) or downs[-1] != 1:
        raise ValueError(f"down label {downs[-1]!r} out of range 1..1 in {word!r}")
    return tuple(steps), tuple(labels)


_PAIR = {"U": "UU", "D": "DD", "L1": "UD", "L2": "DU"}


def history_to_dyck(lh: LaguerreHistory) -> LabeledDyck:
    """
    Inverse of :func:`dyck_to_history`.

    >>> history_to_dyck(LaguerreHistory((), ())).word
    'UD'
    """
    return LabeledDyck(*_history_dyck(lh.steps, lh.labels))


def _history_dyck(steps, labels) -> tuple[str, tuple[int, ...]]:
    """The Dyck word and down labels of a history, checked as the steps are read."""
    if len(steps) != len(labels):
        raise ValueError("one label per step required")
    downs: list[int] = []
    # labels of the U steps not yet closed: h of them at height h, so
    # the label bound is one more, and a D needs one to close
    waiting: list[int] = []
    for s, lab in zip(steps, labels):
        if not isinstance(lab, int) or not 0 < lab <= len(waiting) + 1:
            raise ValueError(f"label {lab!r} out of range at height {len(waiting)}")
        if s == "U":
            waiting.append(lab)
        elif s == "D" and waiting:
            downs.append(lab)
            downs.append(waiting.pop())
        elif s == "L1" or s == "L2":
            downs.append(lab)
        else:
            raise ValueError(f"bad history step {s!r} at height {len(waiting)}")
    if waiting:
        raise ValueError("history does not return to zero")
    downs.append(1)
    return "U" + "".join(map(_PAIR.__getitem__, steps)) + "D", tuple(downs)


# ---------------------------------------------------------------------------
# even-level paths <-> (composition, labeled Dyck path)


def strip_level_steps(ap: AndrePath) -> tuple[tuple[int, ...], LabeledDyck]:
    """
    Remove the level steps, recording block sizes: part 0 before the
    first rise, part i after the 2i-th Dyck step.  Down labels carry
    over unchanged.  The level steps' heights are checked as the blocks
    are read, then the Dyck word and labels by :func:`check_labeled_dyck`,
    so an error names the word without its level steps.

    >>> strip_level_steps(AndrePath("UDLL", (1,)))
    ((0, 2), LabeledDyck(word='UD', down_labels=(1,)))
    """
    comp, dyck = _level_blocks(ap.word)
    return tuple(comp), check_labeled_dyck(LabeledDyck(dyck, ap.down_labels))


def _level_blocks(word: str) -> tuple[list[int], str]:
    """
    The level-block sizes and the Dyck word of an André path.  Only the
    level steps are checked here; the Dyck word is checked by its reader.
    """
    dyck = word.replace("L", "")
    comp = [0] * (len(dyck) // 2 + 1)
    # an L sits at even height iff an even number of U and D steps
    # precede it, and then it joins block seen // 2
    seen = 0
    for s in word:
        if s != "L":
            seen += 1
        elif seen % 2:
            raise ValueError(f"level step at odd height in {word!r}")
        else:
            comp[seen // 2] += 1
    return comp, dyck


def insert_level_steps(comp: tuple[int, ...], ldp: LabeledDyck) -> AndrePath:
    """
    Inverse of :func:`strip_level_steps`: comp must have one part per
    even position of the Dyck word plus the leading one.

    >>> insert_level_steps((0, 2), LabeledDyck("UD", (1,))).word
    'UDLL'
    """
    k = check_labeled_dyck(ldp).half_length
    if len(comp) != k + 1 or not all(isinstance(y, int) and y >= 0 for y in comp):
        raise ValueError(f"composition must have {k + 1} nonnegative int parts")
    return AndrePath(_with_levels(comp, ldp.word), ldp.down_labels)


def _with_levels(comp, dyck: str) -> str:
    """The Dyck word with comp[i] level steps after its 2i-th step (comp[0] before it)."""
    out = []
    cut = 0
    # only the nonempty blocks cut the word, and most blocks are empty
    for i, y in enumerate(comp):
        if y:
            out.append(dyck[cut:2 * i])
            out.append("L" * y)
            cut = 2 * i
    out.append(dyck[cut:])
    return "".join(out)


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
    # tau permutes its moved positions; place[p] counts those up to p,
    # so it is p's place among them
    place = list(accumulate((v != p for p, v in enumerate(tau, 1)), initial=0))
    return tuple(place[v] for p, v in enumerate(tau, 1) if v != p), tuple(fixed_points(tau))


def insert_fixed_points(rho: Perm, positions: tuple[int, ...]) -> Perm:
    """
    Inverse of :func:`remove_fixed_points`.

    >>> insert_fixed_points((2, 1, 4, 3), (3,))
    (2, 1, 3, 5, 4)
    """
    rho = check_fpf(rho)
    n = len(rho) + len(positions)
    spots = set(positions)
    if len(spots) != len(positions) or \
            not all(isinstance(p, int) and 1 <= p <= n for p in positions):
        raise ValueError("fixed-point positions out of range or repeated")
    rest = [p for p in range(1, n + 1) if p not in spots]
    out = list(range(1, n + 1))  # fixed everywhere, until rho moves rest
    for i, v in enumerate(rho):
        out[rest[i] - 1] = rest[v - 1]
    return tuple(out)


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

    The closers' values in position order form a permutation sigma of
    1..k, and the path is ``history_to_dyck(perm_to_history(sigma))``
    with ``comp[i]`` level steps after its 2i-th step, as
    ``insert_level_steps`` places them.  No history or labeled Dyck path
    is built: the cores of the three maps pass their steps and labels on.

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
    if not k:
        return AndrePath("L" * n, ())
    dyck, downs = _history_dyck(*_perm_history(sigma))
    return AndrePath(_with_levels(comp, dyck), downs)


def andre_to_involution(ap: AndrePath) -> Perm:
    """
    Inverse of :func:`involution_to_andre`: strip the level steps, then
    run the cores of ``dyck_to_history`` and ``history_to_perm`` on the
    Dyck word, that is, read its step pairs as history steps and replay
    the insertions on the one-line word.  The input is
    checked on the way: the level steps' heights as the composition is
    read, the rest inside the cores' loops.  Every error names the path
    as given, level steps and all.

    >>> andre_to_involution(AndrePath("UD", (1,)))
    (2, 1)
    """
    word, downs = ap.word, ap.down_labels
    comp, dyck = _level_blocks(word)
    if not dyck:
        if downs:
            raise ValueError(f"one label per down step required: {word!r}, {downs!r}")
        return tuple(range(1, len(word) + 1))
    # the matching's lower-right block: the opener of the j-th closer
    # is sigma[j]
    sigma = _history_perm(*_dyck_history(dyck, downs, word))
    # closers sit after the len(sigma) openers, y_0 fixed points,
    # closer, y_1 fixed points, closer, ...; every other position is a
    # fixed point
    out = list(range(1, len(word) + 1))
    pos = len(sigma)
    for j, opener in enumerate(sigma):
        pos += comp[j] + 1
        out[pos - 1] = opener
        out[opener - 1] = pos
    return tuple(out)
