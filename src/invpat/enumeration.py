"""
Exact counting: brute-force tallies, closed forms, and the two-variable
continued-fraction series.

Everything is plain Python integer arithmetic; the factorials and
binomials in play overflow 64 bits well inside the tested ranges.
Counts of avoiders come from one pass of the level engine
:func:`invpat.classes.avoider_levels`, which streams the top level
instead of storing it, so each closed form can be compared against an
exhaustive tally of every avoider.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial

# class_members stays importable here: bench/tracing.py wraps it by name
from .classes import PatternSet, avoider_levels, class_members  # noqa: F401
from .containment import Mode
from .core import fixed_points


@dataclass(frozen=True)
class PolyT:
    """Integer polynomial in one variable t, trailing zeros trimmed."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def const(cls, c: int) -> "PolyT":
        return cls((c,))

    @classmethod
    def t_power(cls, k: int, c: int = 1) -> "PolyT":
        return cls((0,) * k + (c,))

    def __add__(self, other: "PolyT") -> "PolyT":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return PolyT(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))

    def __sub__(self, other: "PolyT") -> "PolyT":
        return self + PolyT(tuple(-c for c in other.coeffs))

    def __mul__(self, other: "PolyT") -> "PolyT":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return PolyT()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return PolyT(tuple(out))

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


ZERO = PolyT()
ONE = PolyT.const(1)


# ---------------------------------------------------------------------------
# brute-force tallies


@dataclass
class CountTable:
    """Counts of avoiders by size, optionally refined by fixed-point count."""

    patterns: PatternSet
    ambient: Mode
    counts: dict[int, int]
    refined: dict[tuple[int, int], int] | None = None

    def to_rows(self) -> list[str]:
        if self.refined is None:
            return ["n\tcount"] + [f"{n}\t{self.counts[n]}" for n in sorted(self.counts)]
        return ["n\tfixed\tcount"] + [f"{n}\t{m}\t{c}"
                                      for (n, m), c in sorted(self.refined.items())]

    def to_text(self) -> str:
        lines = [f"avoiders of {self.patterns} in {self.ambient.value} ambient"]
        width = max((len(str(c)) for c in self.counts.values()), default=1)
        for n in sorted(self.counts):
            lines.append(f"  n={n:<3d} {self.counts[n]:>{width}d}")
        return "\n".join(lines)


def _tally(members, refine_by_fixed_points: bool):
    """Number of members, or a dict of them keyed by fixed-point count."""
    if not refine_by_fixed_points:
        return sum(1 for _ in members)
    refined: dict[int, int] = {}
    for tau in members:
        m = len(fixed_points(tau))
        refined[m] = refined.get(m, 0) + 1
    return refined


def count_avoiders(ps: PatternSet, ambient: Mode, n: int,
                   refine_by_fixed_points: bool = False):
    """
    Exact number of size-n avoiders; with the refinement flag, a dict
    keyed by fixed-point count.  The size-n avoiders are counted as they
    are grown, never stored.

    >>> count_avoiders(PatternSet([(2, 1, 4, 3)], Mode.I), Mode.I, 4)
    9
    """
    for _, members in avoider_levels(ps, ambient, n):
        pass
    return _tally(members, refine_by_fixed_points)


def _level_counts(ps: PatternSet, ambient: Mode, n_max: int) -> list[int]:
    """
    Avoider counts for sizes 0..n_max from one pass of the level engine.

    >>> _level_counts(PatternSet([(2, 1, 4, 3)], Mode.F), Mode.F, 6)
    [1, 0, 1, 0, 2, 0, 6]
    """
    return [_tally(members, False) for _, members in avoider_levels(ps, ambient, n_max)]


def count_table(ps: PatternSet, ambient: Mode, n_max: int,
                refine_by_fixed_points: bool = False) -> CountTable:
    """Counts for sizes 1..n_max (even sizes only for matchings) in one pass."""
    if ambient is Mode.F:
        n_max -= n_max % 2           # the odd top level is empty: grow to the even one
    tallies = {n: _tally(members, refine_by_fixed_points)
               for n, members in avoider_levels(ps, ambient, max(n_max, 0))
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
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b if n else 1


def matching_count(n: int) -> int:
    """(n-1)!! matchings of size n for even n, else 0."""
    if n % 2:
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
    if n < 1:
        raise ValueError("n must be positive")
    return comb(n, n // 2)


def formula_pattern132_poly(n: int) -> PolyT:
    """
    Cycle-count polynomial for 132-avoiders (equals the 213 one):
    sum over k of C(n-k, k) k! t^k.

    >>> str(formula_pattern132_poly(3))
    '1 + 2t'
    """
    if n < 1:
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
    if n < 1:
        raise ValueError("n must be positive")
    return sum(factorial(k // 2) * factorial((n - k) // 2) * comb(n - k // 2 - 1, n - k)
               for k in range(1, n + 1))


def formula_pattern2143(n: int) -> int:
    """
    Involutions avoiding 2143: sum over k of C(n, 2k) k!.

    >>> [formula_pattern2143(n) for n in range(5)]
    [1, 1, 2, 4, 9]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(comb(n, 2 * k) * factorial(k) for k in range(n // 2 + 1))


def check_recurrence_132(n_max: int) -> bool:
    """
    2 a(n) = 3 a(n-1) + (n-1) a(n-2) - (n-1) a(n-3) for the
    132-avoider counts, checked for 4 <= n <= n_max.

    >>> check_recurrence_132(14)
    True
    """
    vals = {n: formula_pattern132(n) for n in range(1, max(n_max, 1) + 1)}
    return all(2 * vals[n] == 3 * vals[n - 1] + (n - 1) * vals[n - 2] - (n - 1) * vals[n - 3]
               for n in range(4, n_max + 1))


# ---------------------------------------------------------------------------
# (p,q)-continued fraction


def pq_bracket(k: int, p: int, q: int) -> int:
    """[k]_{p,q} = sum of p^i q^(k-1-i), an integer for integer p, q."""
    return sum(p ** i * q ** (k - 1 - i) for i in range(k))


def pq_binomial(n: int, k: int, p: int, q: int) -> int:
    """
    (p,q)-binomial via the Pascal-style recurrence
    C(n,k) = p^k C(n-1,k) + q^(n-k) C(n-1,k-1), which stays defined at
    specializations where the bracket quotient degenerates to 0/0
    (notably p=1, q=-1).
    """
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


def _series_inverse(u: list[PolyT], order: int) -> list[PolyT]:
    """Coefficients of 1/(1-u) given u with zero constant term."""
    v = [ONE] + [ZERO] * order
    for m in range(1, order + 1):
        acc = ZERO
        for i in range(1, m + 1):
            if u[i].coeffs and v[m - i].coeffs:
                acc = acc + u[i] * v[m - i]
        v[m] = acc
    return v


def d_series(p: int, q: int, n_max: int) -> list[PolyT]:
    """
    The polynomials D_1..D_{n_max} in t from the continued fraction

        sum D_{n+1} x^n = 1/(1 - [1]x - C(2,2) t x^2/(1 - [2]x - ...))

    with (p,q)-brackets on the linear terms and (p,q)-binomials C(j+1,2)
    on the x^2 numerators.  The fraction is truncated at depth n_max,
    far deeper than the x-order requires.

    >>> [str(d) for d in d_series(1, -1, 5)]
    ['1', '1', '1 + t', '1 + 2t', '1 + 3t + 2t^2']
    """
    if n_max < 1:
        raise ValueError("need at least one term")
    order = n_max - 1
    depth = n_max
    level: list[PolyT] = [ONE] + [ZERO] * order
    for j in range(depth, 0, -1):
        bracket = pq_bracket(j, p, q)
        weight = PolyT.t_power(1, pq_binomial(j + 1, 2, p, q))
        u = [ZERO] * (order + 1)
        if order >= 1:
            u[1] = PolyT.const(bracket)
        for m in range(2, order + 1):
            u[m] = weight * level[m - 2]
        level = _series_inverse(u, order)
    return level


# ---------------------------------------------------------------------------
# identities


def check_fixed_point_identity(r: PatternSet, n_max: int,
                               subset_limit: int = 8) -> bool:
    """
    Removing fixed points is a bijection onto matchings avoiding the
    same fixed-point-free patterns: for every n <= n_max and m,
    #avoiders with m fixed points = C(n,m) * #matching avoiders of size
    n-m, and (up to subset_limit) the count with a prescribed fixed set
    does not depend on the set.
    """
    if r.mode is not Mode.F:
        raise ValueError("the identity needs fixed-point-free patterns")
    as_i = PatternSet(r.patterns, Mode.I)
    f_counts = _level_counts(r, Mode.F, n_max)
    for n, members in avoider_levels(as_i, Mode.I, n_max):
        by_fix: dict[int, int] = {m: 0 for m in range(n + 1)}
        by_set: dict[frozenset[int], int] = {}
        for tau in members:
            fp = frozenset(fixed_points(tau))
            by_fix[len(fp)] += 1
            if n <= subset_limit:
                by_set[fp] = by_set.get(fp, 0) + 1
        for m in range(n + 1):
            if by_fix[m] != comb(n, m) * f_counts[n - m]:
                return False
        if n <= subset_limit:
            for m in range(n + 1):
                for s in combinations(range(1, n + 1), m):
                    if by_set.get(frozenset(s), 0) != f_counts[n - m]:
                        return False
    return True


def check_corollary_stanley(m: int, n_max: int) -> bool:
    """
    The block pattern (m+1 .. 2m 1 .. m) and the decreasing pattern of
    size 2m have the same avoider counts in every size.

    >>> check_corollary_stanley(2, 8)
    True
    """
    if m < 1:
        raise ValueError("m must be positive")
    shift = tuple(range(m + 1, 2 * m + 1)) + tuple(range(1, m + 1))
    dec = tuple(range(2 * m, 0, -1))
    return (_level_counts(PatternSet([shift], Mode.I), Mode.I, n_max)
            == _level_counts(PatternSet([dec], Mode.I), Mode.I, n_max))


def egf_identity_report(r: PatternSet, n_max: int) -> list[tuple[int, int, int, bool]]:
    """
    Coefficient form of "involution avoiders = e^x times matching
    avoiders": rows (n, lhs, rhs, equal) with
    rhs = sum over m of C(n,m) * #matching avoiders of size n-m.
    """
    if r.mode is not Mode.F:
        raise ValueError("the identity needs fixed-point-free patterns")
    f_counts = _level_counts(r, Mode.F, n_max)
    rows = []
    for n, lhs in enumerate(_level_counts(PatternSet(r.patterns, Mode.I), Mode.I, n_max)):
        rhs = sum(comb(n, m) * f_counts[n - m] for m in range(n + 1))
        rows.append((n, lhs, rhs, lhs == rhs))
    return rows


def format_count_comparison(rows: list[tuple[int, int, int, bool]],
                            left: str, right: str) -> str:
    lines = [f"{'n':>3} {left:>14} {right:>14} match"]
    for n, lhs, rhs, ok in rows:
        lines.append(f"{n:>3} {lhs:>14} {rhs:>14} {'yes' if ok else 'NO'}")
    return "\n".join(lines)
