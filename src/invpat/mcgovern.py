"""
The smoothness pattern sets and the exhaustive equality sweeps.

Two families of patterns classify (rational) smoothness of the
orthogonal and symplectic orbit closures on the flag variety.  The
combinatorial content verified here: on involutions, avoiding the
augmented set in the two-relation deletion order, the full three-
relation order, and classically all coincide (checked size by size);
on matchings the cycle-respecting and classical orders coincide for the
symplectic set.

Every deletion relation removes entries, so classical avoiders of a
set avoid it in every deletion order: classical avoiders are contained
in the I-avoiders, which are contained in the I'-avoiders (and, for
matchings, in the F-avoiders).  A sweep therefore visits only the
deletion-order avoiders, grown size by size with a generating tree by
the level engine :func:`invpat.classes.avoider_levels` (the top size is
streamed, not stored), and runs the classical check on those; a
counterexample is an avoider that contains a pattern classically.  The
totals per size come from the closed counts, not from a scan.
:func:`_brute_force_row` scans every element of one size instead and
is the oracle the tests compare the sweep against.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .classes import PatternSet, avoider_levels
from .containment import Mode, PatternChecker
from .core import (Perm, check_fpf, check_involution, generate_fpf,
                   generate_involutions, odd_fix_gap, parse_perm)
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
    rho = check_fpf(rho)
    return not PatternChecker(PI_PRIME, Mode.F).contains_any(rho)


def rational_smoothness_involution(tau: Perm) -> bool:
    """Avoidance + odd-gap criterion for rational smoothness of an involution's orbit."""
    tau = check_involution(tau)
    return (odd_fix_gap(tau)
            and not PatternChecker(PI, Mode.IPRIME).contains_any(tau))


def smoothness_involution(tau: Perm) -> bool:
    """Avoidance criterion for smoothness of an involution's orbit."""
    tau = check_involution(tau)
    return not PatternChecker(PI_SMOOTH, Mode.IPRIME).contains_any(tau)


# ---------------------------------------------------------------------------
# equality sweeps


@dataclass
class SizeRow:
    """Tallies for one size of a sweep."""

    n: int
    total: int = 0
    classical_avoiders: int = 0
    # classical violators missed by the deletion orders
    extra_coarse: int = 0        # avoid in the two-relation / matching order
    extra_full: int = 0          # avoid in the three-relation order (part 1 only)
    counterexample: Perm | None = None

    @property
    def equal(self) -> bool:
        return self.extra_coarse == 0 and self.extra_full == 0


@dataclass
class SweepReport:
    part: int
    max_size: int
    rows: dict[int, SizeRow] = field(default_factory=dict)

    @property
    def equal(self) -> bool:
        return all(row.equal for row in self.rows.values())

    def first_counterexample(self) -> Perm | None:
        for n in sorted(self.rows):
            if self.rows[n].counterexample is not None:
                return self.rows[n].counterexample
        return None

    def to_text(self) -> str:
        from .core import format_perm

        lines = [f"part {self.part} equality sweep to size {self.max_size}"]
        for n in sorted(self.rows):
            row = self.rows[n]
            avoid = row.classical_avoiders
            lines.append(
                f"  n={n:<3d} total={row.total:<10d} classical={avoid:<9d} "
                f"coarse={avoid + row.extra_coarse:<9d} "
                + (f"full={avoid + row.extra_full:<9d} " if self.part == 1 else "")
                + ("equal" if row.equal else "UNEQUAL counterexample="
                   + (format_perm(row.counterexample) if row.counterexample else "?")))
        verdict = "equal at all sizes" if self.equal else "EQUALITY FAILS"
        lines.append(f"  => {verdict} <= {self.max_size}")
        return "\n".join(lines)


def _run_sweep(part: int, max_size: int, progress=None) -> SweepReport:
    if max_size < 1:
        raise ValueError("max_size must be positive")
    if part == 1:
        patterns, mode, count = PI_SMOOTH, Mode.IPRIME, involution_count
        full = PatternChecker(PI_SMOOTH, Mode.I)
    else:
        patterns, mode, count = PI_PRIME, Mode.F, matching_count
        full = None
    classical = PatternChecker(patterns, Mode.CLASSICAL)
    report = SweepReport(part, max_size)
    start = tick = time.perf_counter()
    for n, members in avoider_levels(PatternSet(patterns, mode), mode, max_size):
        if n == 0 or (part == 2 and n % 2):
            continue
        visited = 0
        containers = []
        for tau in members:
            visited += 1
            if classical.contains_any(tau):
                containers.append(tau)
        missed_full = (len(containers) if full is None
                       else sum(not full.contains_any(tau) for tau in containers))
        row = SizeRow(n, count(n), visited - len(containers), len(containers),
                      missed_full, min(containers, default=None))
        report.rows[n] = row
        if progress:
            now = time.perf_counter()
            progress(part, row, visited, now - tick, now - start)
            tick = now
    return report


def _brute_force_row(part: int, n: int) -> SizeRow:
    """One sweep row by scanning every element of size n: the test oracle."""
    if part == 1:
        gen = generate_involutions(n)
        classical = PatternChecker(PI_SMOOTH, Mode.CLASSICAL)
        coarse = PatternChecker(PI_SMOOTH, Mode.IPRIME)
        full = PatternChecker(PI_SMOOTH, Mode.I)
    else:
        gen = generate_fpf(n)
        classical = PatternChecker(PI_PRIME, Mode.CLASSICAL)
        coarse = PatternChecker(PI_PRIME, Mode.F)
        full = None
    row = SizeRow(n)
    for tau in gen:
        row.total += 1
        if not classical.contains_any(tau):
            row.classical_avoiders += 1
            continue
        missed_coarse = not coarse.contains_any(tau)
        missed_full = missed_coarse if full is None else not full.contains_any(tau)
        row.extra_coarse += missed_coarse
        row.extra_full += missed_full
        if (missed_coarse or missed_full) and row.counterexample is None:
            row.counterexample = tau
    return row


def verify_part1(max_size: int, progress=None) -> SweepReport:
    """
    Involutions: the augmented pattern set is avoided classically iff in
    the two-relation order iff in the full deletion order, for every
    size <= max_size.

    ``progress``, if given, is called after each size as
    ``progress(part, row, members, size_s, elapsed_s)``: the number of
    avoiders visited, the seconds this size took and since the start.

    >>> verify_part1(6).equal
    True
    """
    return _run_sweep(1, max_size, progress)


def verify_part2(max_size: int, progress=None) -> SweepReport:
    """
    Matchings: the symplectic pattern set is avoided classically iff in
    the matching order, for every even size <= max_size.

    >>> verify_part2(6).equal
    True
    """
    return _run_sweep(2, max_size, progress)
