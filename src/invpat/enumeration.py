"""
Exact counting: brute-force tallies, closed forms, and the two-variable
continued-fraction series.

Everything is plain Python integer arithmetic; the factorials and
binomials in play overflow 64 bits well inside the tested ranges.  The
continued-fraction series is no exception: :func:`d_series` counts it
as weighted Motzkin paths, one step at a time, so ``PolyT`` only holds
and prints its coefficients.
Counts of avoiders come from one pass of the level engine
:func:`invpat.classes.avoider_levels`, which never stores the top level,
so each closed form can be compared against an exhaustive tally of
every avoider.  A plain count takes the top level's ``len()``, which
adds up each parent's closed slots and builds only the candidates a
pattern may exclude; the fixed-point refinement iterates its members.
Sizes below the smallest pattern size are the exception: every element
there avoids the set, so their count is the ambient count, not a tally,
and the engine is not run at all when no size asked for reaches the
smallest pattern.  For the empty set that is every size, so ``invpat
count --formula`` on it checks its closed form against that ambient
count, not a tally.  The fixed-point identities tally every size, the
empty set's too, so their left side is never their right side's formula.
``FORMULAS`` names the closed forms on file by (pattern, order);
:func:`closed_form` picks a pattern set's or raises ``ValueError``, and
``invpat count --formula`` asks it before counting anything.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable

# class_members stays importable here: bench/tracing.py wraps it by name
from .classes import PatternSet, _checked_floor, avoider_levels, class_members  # noqa: F401
from .containment import Mode
from .core import check_size, fixed_points


@dataclass(frozen=True)
class PolyT:
    """Integer polynomial in one variable t, trailing zeros trimmed."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __call__(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else "-" if c == -1 else str(c)
                parts.append(f"{head}t" if k == 1 else f"{head}t^{k}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# brute-force tallies


@dataclass
class CountTable:
    """Counts of avoiders by size, optionally refined by fixed-point count."""

    patterns: PatternSet
    ambient: Mode
    counts: dict[int, int]
    refined: dict[tuple[int, int], int] | None = None

    def _refined_rows(self) -> list[tuple[tuple[int, int], int]]:
        """The refined counts in order, a size with no avoiders as one 0 at fixed = n mod 2."""
        empty = {(n, n % 2): 0 for n, c in self.counts.items() if c == 0}
        return sorted({**self.refined, **empty}.items())

    def to_rows(self) -> list[str]:
        if self.refined is None:
            return ["n\tcount"] + [f"{n}\t{self.counts[n]}" for n in sorted(self.counts)]
        return ["n\tfixed\tcount"] + [f"{n}\t{m}\t{c}" for (n, m), c in self._refined_rows()]

    def to_text(self) -> str:
        if self.refined is None:
            rows = [(f"n={n:<3d}", c) for n, c in sorted(self.counts.items())]
        else:
            rows = [(f"n={n:<3d} fixed={m:<3d}", c) for (n, m), c in self._refined_rows()]
        width = max((len(str(c)) for _, c in rows), default=1)
        return "\n".join([f"avoiders of {self.patterns} in {self.ambient.value} ambient"]
                         + [f"  {key} {c:>{width}d}" for key, c in rows])


def _tallies(ps: PatternSet, ambient: Mode, n_max: int, refine_by_fixed_points: bool):
    """
    Yield ``(n, tally)`` for n = 0..n_max, a tally being the number of
    size-n avoiders or, with the refinement flag, a dict of them keyed by
    fixed-point count.  Below the *floor*, the smallest pattern size
    (every size for the empty set), every element of the ambient family
    avoids ps, so the tally is the ambient count: C(n, m) * (n-m-1)!!
    involutions with m fixed points, or the (n-1)!! matchings in ``F``.
    From the floor up the sizes are tallied from one pass of the level
    engine, which is not run at all when the floor lies above n_max.  The
    floor comes with the engine's input checks, so bad input raises the
    engine's ``ValueError`` whether or not the engine runs.

    >>> dict(_tallies(PatternSet([], Mode.I), Mode.I, 3, True))
    {0: {0: 1}, 1: {1: 1}, 2: {0: 1, 2: 1}, 3: {1: 3, 3: 1}}
    """
    floor = _checked_floor(ps, ambient, n_max)
    f_counts = [matching_count(k) for k in range(min(floor, n_max + 1))]
    for n in range(len(f_counts)):
        terms = [f_counts[n]] if ambient is Mode.F else _fixed_point_terms(n, f_counts)
        if refine_by_fixed_points:
            yield n, {m: c for m, c in enumerate(terms) if c}
        else:
            yield n, sum(terms)
    if floor <= n_max:
        for n, members in avoider_levels(ps, ambient, n_max):
            if n < floor:
                continue
            if refine_by_fixed_points:
                yield n, dict(Counter(len(fixed_points(tau)) for tau in members))
            else:
                yield n, len(members)


def count_avoiders(ps: PatternSet, ambient: Mode, n: int,
                   refine_by_fixed_points: bool = False):
    """
    Exact number of size-n avoiders; with the refinement flag, a dict
    keyed by fixed-point count.  The size-n avoiders are never stored:
    the plain count builds only those a pattern may exclude, and the
    refinement counts them as they are grown; below the smallest pattern
    size nothing is grown, and the count is the ambient count.

    >>> count_avoiders(PatternSet([(2, 1, 4, 3)], Mode.I), Mode.I, 4)
    9
    """
    *_, (_, tally) = _tallies(ps, ambient, n, refine_by_fixed_points)
    return tally


def _level_counts(ps: PatternSet, ambient: Mode, n_max: int) -> list[int]:
    """
    Avoider counts for sizes 0..n_max from one tally pass.

    >>> _level_counts(PatternSet([(2, 1, 4, 3)], Mode.F), Mode.F, 6)
    [1, 0, 1, 0, 2, 0, 6]
    """
    return [count for _, count in _tallies(ps, ambient, n_max, False)]


def count_table(ps: PatternSet, ambient: Mode, n_max: int,
                refine_by_fixed_points: bool = False) -> CountTable:
    """Counts for sizes 1..n_max (even sizes only for matchings) in one pass."""
    if ambient is Mode.F:
        n_max -= check_size(n_max) % 2      # the odd top level is empty: grow to the even one
    tallies = {n: tally for n, tally in _tallies(ps, ambient, n_max, refine_by_fixed_points)
               if n and not (ambient is Mode.F and n % 2)}
    if not refine_by_fixed_points:
        return CountTable(ps, ambient, tallies)
    counts = {n: sum(by_fix.values()) for n, by_fix in tallies.items()}
    refined = {(n, m): c for n, by_fix in tallies.items() for m, c in by_fix.items()}
    return CountTable(ps, ambient, counts, refined)


# ---------------------------------------------------------------------------
# closed forms


def involution_count(n: int) -> int:
    """Number of involutions of size n: a(n) = a(n-1) + (n-1) a(n-2)."""
    check_size(n)
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b if n else 1


def matching_count(n: int) -> int:
    """(n-1)!! matchings of size n for even n, else 0."""
    if check_size(n) % 2:
        return 0
    out = 1
    for k in range(1, n, 2):
        out *= k
    return out


def formula_pattern321(n: int) -> int:
    """Avoiders of the decreasing pattern of size 3: central binomial slice.

    >>> formula_pattern321(4)
    6
    """
    if check_size(n) < 1:
        raise ValueError("n must be positive")
    return comb(n, n // 2)


def formula_pattern132_poly(n: int) -> PolyT:
    """
    Cycle-count polynomial for 132-avoiders (equals the 213 one):
    sum over k of C(n-k, k) k! t^k.

    >>> str(formula_pattern132_poly(3))
    '1 + 2t'
    """
    if check_size(n) < 1:
        raise ValueError("n must be positive")
    return PolyT(tuple(comb(n - k, k) * factorial(k) for k in range(n // 2 + 1)))


def formula_pattern132(n: int) -> int:
    return formula_pattern132_poly(n)(1)


def formula_pattern123(n: int) -> int:
    """
    Avoiders of the increasing pattern of size 3, summed over the size
    of the leftmost-cycle block.

    >>> formula_pattern123(4)
    6
    """
    if check_size(n) < 1:
        raise ValueError("n must be positive")
    return sum(factorial(k // 2) * factorial((n - k) // 2) * comb(n - k // 2 - 1, n - k)
               for k in range(1, n + 1))


def formula_pattern2143(n: int) -> int:
    """
    Involutions avoiding 2143: sum over k of C(n, 2k) k!.

    >>> [formula_pattern2143(n) for n in range(5)]
    [1, 1, 2, 4, 9]
    """
    check_size(n)
    return sum(comb(n, 2 * k) * factorial(k) for k in range(n // 2 + 1))


def _half_factorial(n: int) -> int:
    return factorial(check_size(n) // 2)


# closed forms on file, keyed by (pattern, containment order)
FORMULAS = {
    ((3, 2, 1), Mode.I): ("decreasing of size 3", formula_pattern321),
    ((1, 3, 2), Mode.I): ("132 refinement at t=1", formula_pattern132),
    ((2, 1, 3), Mode.I): ("213 via reverse-complement", formula_pattern132),
    ((1, 2, 3), Mode.I): ("increasing of size 3", formula_pattern123),
    ((2, 1, 4, 3), Mode.I): ("2143 closed form", formula_pattern2143),
    ((2, 1, 4, 3), Mode.F): ("permutational matchings", _half_factorial),
    ((1, 2), Mode.I): ("half factorial", _half_factorial),
}


def closed_form(ps: PatternSet) -> Callable[[int], int]:
    """
    The closed form on file for the avoider counts of ps, as a function
    of n: the ambient count for the empty set, else the ``FORMULAS``
    entry of its one pattern.
    """
    if not ps.patterns:
        return matching_count if ps.mode is Mode.F else involution_count
    key = (*ps.patterns, ps.mode)
    if key not in FORMULAS:
        raise ValueError(f"no closed form on file for {ps}")
    return FORMULAS[key][1]


def check_recurrence_132(n_max: int) -> bool:
    """
    2 a(n) = 3 a(n-1) + (n-1) a(n-2) - (n-1) a(n-3) for the
    132-avoider counts, checked for 4 <= n <= n_max.

    >>> check_recurrence_132(14)
    True
    """
    vals = {n: formula_pattern132(n) for n in range(1, max(check_size(n_max), 1) + 1)}
    return all(2 * vals[n] == 3 * vals[n - 1] + (n - 1) * vals[n - 2] - (n - 1) * vals[n - 3]
               for n in range(4, n_max + 1))


# ---------------------------------------------------------------------------
# (p,q)-continued fraction


def _check_ints(**values: int) -> None:
    """Raise ValueError naming the first value that is not an int."""
    for name, v in values.items():
        if not isinstance(v, int):
            raise ValueError(f"{name} must be an int, got {v!r}")


def pq_bracket(k: int, p: int, q: int) -> int:
    """[k]_{p,q} = sum of p^i q^(k-1-i), an integer for integer p, q."""
    check_size(k)
    _check_ints(p=p, q=q)
    return sum(p ** i * q ** (k - 1 - i) for i in range(k))


def pq_binomial(n: int, k: int, p: int, q: int) -> int:
    """
    (p,q)-binomial via the Pascal-style recurrence
    C(n,k) = p^k C(n-1,k) + q^(n-k) C(n-1,k-1), which stays defined at
    specializations where the bracket quotient degenerates to 0/0
    (notably p=1, q=-1).
    """
    check_size(n)
    _check_ints(k=k, p=p, q=q)
    if not 0 <= k <= n:
        return 0
    row = [1]
    for m in range(1, n + 1):
        new = [1]
        for j in range(1, min(m, k) + 1):
            above = row[j] if j < len(row) else 0
            new.append(p ** j * above + q ** (m - j) * row[j - 1])
        row = new
    return row[k]


def d_series(p: int, q: int, n_max: int) -> list[PolyT]:
    """
    The polynomials D_1..D_{n_max} in t from the continued fraction

        sum D_{n+1} x^n = 1/(1 - [1]x - C(2,2) t x^2/(1 - [2]x - ...))

    with (p,q)-brackets on the linear terms and (p,q)-binomials C(j+1,2)
    on the x^2 numerators.  Read as Flajolet's path expansion
    ("Combinatorial aspects of continued fractions", Discrete Math. 32,
    1980), D_{n+1} sums the weights of the Motzkin paths of length n: a
    level step at height h weighs [h+1], an up step 1, and a down step
    from height h weighs C(h+1,2) t.  The paths are counted step by step
    in a table of integers by height and by down steps so far, and a
    height the remaining steps cannot bring back to 0 is dropped.

    >>> [str(d) for d in d_series(1, -1, 5)]
    ['1', '1', '1 + t', '1 + 2t', '1 + 3t + 2t^2']
    """
    if check_size(n_max) < 1:
        raise ValueError("need at least one term")
    _check_ints(p=p, q=q)
    level = [pq_bracket(h + 1, p, q) for h in range(n_max)]
    down = [pq_binomial(h + 1, 2, p, q) for h in range(n_max)]
    width = (n_max + 1) // 2            # paths of length n_max - 1 have < width down steps
    walks = [[1] + [0] * (width - 1)]   # walks[h][k]: paths so far at height h with k downs
    out = [PolyT(walks[0])]
    for left in range(n_max - 2, -1, -1):    # steps still to come after this one
        nxt = [[0] * width for _ in range(len(walks) + 1)]
        for h, row in enumerate(walks):
            for k, c in enumerate(row):
                if c:       # a path at height h > 0 has k < width - 1: its down step fits
                    nxt[h][k] += level[h] * c
                    nxt[h + 1][k] += c
                    if h:
                        nxt[h - 1][k + 1] += down[h] * c
        walks = nxt[:left + 1]
        out.append(PolyT(walks[0]))
    return out


# ---------------------------------------------------------------------------
# identities


def _fixed_point_terms(n: int, f_counts: list[int]) -> list[int]:
    """
    Per m = 0..n, the size-n involution avoiders with m fixed points that
    removing fixed points predicts: C(n,m) * #matching avoiders of size n-m.

    >>> _fixed_point_terms(4, [1, 0, 1, 0, 3])
    [3, 0, 6, 0, 1]
    """
    return [comb(n, m) * f_counts[n - m] for m in range(n + 1)]


def _fixed_point_rows(r: PatternSet, n_max: int):
    """
    Yield ``(n, lhs, rhs, by_set)`` for n = 0..n_max from one pass of the
    level engine over the involutions avoiding r, with f counting the
    matching avoiders of r: lhs is the number of size-n involution
    avoiders, tallied, rhs = sum over m of C(n,m) * f(n-m), and by_set
    says whether each set S that is the fixed-point set of a size-n
    avoider is that of exactly f(n - |S|) of them.
    """
    if r.mode is not Mode.F:
        raise ValueError("the identity needs fixed-point-free patterns")
    f_counts = _level_counts(r, Mode.F, n_max)
    for n, members in avoider_levels(PatternSet(r.patterns, Mode.I), Mode.I, n_max):
        by_set = Counter(tuple(fixed_points(tau)) for tau in members)
        yield (n, sum(by_set.values()), sum(_fixed_point_terms(n, f_counts)),
               all(c == f_counts[n - len(fp)] for fp, c in by_set.items()))


def check_fixed_point_identity(r: PatternSet, n_max: int) -> bool:
    """
    Removing fixed points is a bijection onto matchings avoiding the
    same fixed-point-free patterns.  For every n <= n_max, with f
    counting the matching avoiders: each set S that is the fixed-point
    set of a size-n avoider is that of exactly f(n - |S|) of them, and
    they number sum over m of C(n,m) * f(n-m) in all.  That total is
    f(n - |S|) summed over every S, so each S with f(n - |S|) > 0 occurs.
    The check stops at the first size that fails.
    """
    return all(lhs == rhs and by_set for _, lhs, rhs, by_set in _fixed_point_rows(r, n_max))


def check_corollary_stanley(m: int, n_max: int) -> bool:
    """
    The block pattern (m+1 .. 2m 1 .. m) and the decreasing pattern of
    size 2m have the same avoider counts in every size.

    >>> check_corollary_stanley(2, 8)
    True
    """
    if isinstance(m, int) and m < 1:
        raise ValueError("m must be positive")
    check_size(m)
    shift = tuple(range(m + 1, 2 * m + 1)) + tuple(range(1, m + 1))
    dec = tuple(range(2 * m, 0, -1))
    return (_level_counts(PatternSet([shift], Mode.I), Mode.I, n_max)
            == _level_counts(PatternSet([dec], Mode.I), Mode.I, n_max))


def egf_identity_report(r: PatternSet, n_max: int) -> list[tuple[int, int, int, bool]]:
    """
    Coefficient form of "involution avoiders = e^x times matching
    avoiders": rows (n, lhs, rhs, equal) for n = 0..n_max, with lhs the
    involution avoiders of size n, tallied, and rhs = sum over m of
    C(n,m) * #matching avoiders of size n-m.
    """
    return [(n, lhs, rhs, lhs == rhs) for n, lhs, rhs, _ in _fixed_point_rows(r, n_max)]


def format_count_comparison(rows: list[tuple[int, int, int, bool]],
                            left: str, right: str) -> str:
    lines = [f"{'n':>3} {left:>14} {right:>14} match"]
    for n, lhs, rhs, ok in rows:
        lines.append(f"{n:>3} {lhs:>14} {rhs:>14} {'yes' if ok else 'NO'}")
    return "\n".join(lines)
