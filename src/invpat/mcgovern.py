"""
The smoothness pattern sets and the exhaustive equality sweeps.

Two families of patterns classify (rational) smoothness of the
orthogonal and symplectic orbit closures on the flag variety.  The
combinatorial content verified here, at every size: on involutions,
avoiding the augmented set in the two-relation deletion order, the full
three-relation order, and classically all coincide; on matchings the
cycle-respecting and classical orders coincide for the symplectic set.

Every deletion removes entries, so for a set S and a deletion order X,
Av_cl(S) is contained in Av_I(S), which is contained in Av_I'(S) (and,
for matchings, Av_cl(S) in Av_F(S)).  A sweep reads the basis pass of
:func:`invpat.classes.compute_basis`, size by size, run to the sweep's
own size: the level engine grows Av_cl(S) in X (I' for part 1, F for part 2), and the closed
candidates that contain a pattern form the basis of Av_cl(S) in X.  A
basis element outside S is a counterexample: it is no pattern, and its
one-step images avoid S.  Conversely, below a counterexample tau of the
smallest size m that has one lies a basis element b, which avoids S in
X as tau does, so b is outside S, of size m, and b = tau.  So the
counterexamples of size m are the basis elements outside S, smaller
sizes have none, and the sweep stops at m.

The basis lies below twice the largest pattern size, 16 for both sets
(:func:`invpat.classes.avoider_levels` says why), so a sweep that
reaches it with no counterexample proves equality at every size.  Both
sets are closed under reverse-complement, which keeps cycle type and
classical containment, so of each mirror pair of candidates only one is
searched.  The totals per size come from the closed counts, not from a
scan.
:func:`_brute_force_row` scans every element of one size instead and
is the oracle the tests compare the sweep against.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .classes import PatternSet, _basis_levels
from .containment import Mode, PatternChecker, avoids_all
from .core import (Perm, check_size, format_perm, generate_fpf, generate_involutions,
                   odd_fix_gap, parse_perm)
from .enumeration import involution_count, matching_count

# rationally smooth symplectic orbits: matchings avoiding these
PI_PRIME: tuple[Perm, ...] = tuple(parse_perm(s) for s in """
    351624 64827153 57681324 53281764 43218765 65872143 21654387 21563487
    34127856 43217856 34128765 36154287 21754836 63287154 54821763 46513287
    21768435""".split())

# rationally smooth orthogonal orbits: involutions avoiding these in the
# two-relation order, intersected with the odd-gap condition
PI: tuple[Perm, ...] = tuple(parse_perm(s) for s in """
    14325 21543 32154 154326 124356 351624 132546 426153 153624 351426
    1243576 2135467 2137654 4321576 5276143 5472163 1657324 4651327
    57681324 65872143 13247856 34125768 34127856 64827153""".split())

# the two extra patterns that upgrade rational smoothness to smoothness
SMOOTH_EXTRA: tuple[Perm, ...] = (parse_perm("2143"), parse_perm("1324"))

PI_SMOOTH: tuple[Perm, ...] = PI + SMOOTH_EXTRA


def rational_smoothness_fpf(rho: Perm) -> bool:
    """Avoidance criterion for rational smoothness of a matching's orbit."""
    return avoids_all(rho, PI_PRIME, Mode.F)


def rational_smoothness_involution(tau: Perm) -> bool:
    """Avoidance + odd-gap criterion for rational smoothness of an involution's orbit."""
    return odd_fix_gap(tau) and avoids_all(tau, PI, Mode.IPRIME)


def smoothness_involution(tau: Perm) -> bool:
    """Avoidance criterion for smoothness of an involution's orbit."""
    return avoids_all(tau, PI_SMOOTH, Mode.IPRIME)


# ---------------------------------------------------------------------------
# equality sweeps


def _part(part: int):
    """
    A part's pattern set, deletion order, finer deletion order (part 1
    only, else None), generator and ambient count, read from the module
    when called.
    """
    if part == 1:
        return PI_SMOOTH, Mode.IPRIME, Mode.I, generate_involutions, involution_count
    return PI_PRIME, Mode.F, None, generate_fpf, matching_count


@dataclass
class SizeRow:
    """Tallies for one size of a sweep."""

    n: int
    total: int = 0
    classical_avoiders: int = 0
    # counterexamples, the classical containers that avoid the set in a
    # deletion order; only the last row of a sweep can have them
    extra_coarse: int = 0        # avoid in the two-relation / matching order
    extra_full: int = 0          # avoid in the three-relation order (part 1 only)
    counterexample: Perm | None = None      # the smallest

    @property
    def equal(self) -> bool:
        # Av_I(S) lies in Av_I'(S), so extra_full <= extra_coarse
        return self.extra_coarse == 0


@dataclass
class SweepReport:
    part: int
    max_size: int
    rows: dict[int, SizeRow] = field(default_factory=dict)

    @property
    def equal(self) -> bool:
        return all(row.equal for row in self.rows.values())

    def first_counterexample(self) -> Perm | None:
        # the sweep stops at the first size that has one
        return self.rows[max(self.rows)].counterexample if self.rows else None

    def to_text(self) -> str:
        patterns, _, finer, _, _ = _part(self.part)
        lines = [f"part {self.part} equality sweep to size {self.max_size}"]
        for n in sorted(self.rows):
            row = self.rows[n]
            avoid = row.classical_avoiders
            lines.append(
                f"  n={n:<3d} total={row.total:<10d} classical={avoid:<9d} "
                f"coarse={avoid + row.extra_coarse:<9d} "
                + (f"full={avoid + row.extra_full:<9d} " if finer else "")
                + ("equal" if row.equal else
                   f"UNEQUAL counterexample={format_perm(row.counterexample)}"))
        if not self.equal:
            verdict = f"EQUALITY FAILS at size {len(self.first_counterexample())}"
        elif self.max_size >= PatternSet(patterns, Mode.CLASSICAL).basis_bound():
            verdict = ("equal at every size (no basis element outside the set "
                       f"to size {self.max_size})")
        else:
            verdict = f"equal at all sizes <= {self.max_size}"
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def _run_sweep(part: int, max_size: int, progress=None) -> SweepReport:
    patterns, order, finer, _, count = _part(part)
    if check_size(max_size) < part:     # the smallest nonempty matching has size 2
        raise ValueError(f"part {part} needs max_size at least {part}, got {max_size}")
    report = SweepReport(part, max_size)
    start = tick = time.perf_counter()
    for n, avoiders, basis in _basis_levels(PatternSet(patterns, Mode.CLASSICAL), order,
                                            max_size):
        missed = [tau for tau in basis if tau not in patterns]
        if n == 0 or n % part:      # part 2 has matchings of even size only
            continue
        extra_full = len(missed)
        if missed and finer:
            full = PatternChecker(patterns, finer)
            extra_full = sum(not full.contains_any(tau) for tau in missed)
        row = SizeRow(n, count(n), avoiders, len(missed), extra_full,
                      min(missed, default=None))
        report.rows[n] = row
        if progress:
            now = time.perf_counter()
            progress(part, row, now - tick, now - start)
            tick = now
        if missed:
            break
    return report


def _brute_force_row(part: int, n: int) -> SizeRow:
    """One sweep row by scanning every element of size n: the test oracle."""
    patterns, order, finer, generate, _ = _part(part)
    classical = PatternChecker(patterns, Mode.CLASSICAL)
    coarse = PatternChecker(patterns, order)
    full = PatternChecker(patterns, finer) if finer else None
    row = SizeRow(n)
    for tau in generate(n):
        row.total += 1
        if not classical.contains_any(tau):
            row.classical_avoiders += 1
            continue
        missed = not coarse.contains_any(tau)
        row.extra_coarse += missed
        row.extra_full += missed if full is None else not full.contains_any(tau)
        if missed and row.counterexample is None:
            row.counterexample = tau
    return row


def verify_part1(max_size: int, progress=None) -> SweepReport:
    """
    Involutions: the augmented pattern set is avoided classically iff in
    the two-relation order iff in the full deletion order, for every
    size <= max_size (at least 1), and for every size once max_size >= 16.

    ``progress``, if given, is called after each size as
    ``progress(part, row, size_s, elapsed_s)``: the size's row (its
    members grown are its ``classical_avoiders``), then the seconds this
    size took and since the start.

    >>> verify_part1(6).equal
    True
    """
    return _run_sweep(1, max_size, progress)


def verify_part2(max_size: int, progress=None) -> SweepReport:
    """
    Matchings: the symplectic pattern set is avoided classically iff in
    the matching order, for every even size <= max_size (at least 2),
    and for every size once max_size >= 16.

    >>> verify_part2(6).equal
    True
    """
    return _run_sweep(2, max_size, progress)
