"""
Batch command-line surface.

Subcommands:

- ``count``: avoider counts by size, optionally against the closed form
  and refined by fixed points.
- ``basis``: minimal violators of classical patterns in a deletion order.
- ``verify-mcgovern``: the equality sweeps over the deletion-order
  avoiders; size 16 is ``--to 16``.
- ``bijection``: map an involution to its even-level path and back.
- ``identities``: the counting identities (block-pattern symmetry,
  fixed-point factorization, three-term recurrence, continued fraction).

Everything is exhaustive and deterministic; exit status 0 iff all
requested checks pass, and 2 on bad arguments such as a ``--to`` below
1 (below 2 for ``count --mode F``).  ``--format rows`` prints
tab-separated rows with a header instead of aligned text.
"""
from __future__ import annotations

import argparse
import sys

from .classes import PatternSet, compute_basis
from .containment import Mode
from .core import format_perm, parse_perm
from .enumeration import (count_table, check_corollary_stanley,
                          check_fixed_point_identity, check_recurrence_132,
                          d_series, egf_identity_report,
                          format_count_comparison, formula_pattern123,
                          formula_pattern132, formula_pattern2143,
                          formula_pattern321, involution_count, matching_count)

def _half_factorial(n: int) -> int:
    from math import factorial

    return factorial(n // 2)


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


def _read_patterns(args) -> list:
    pats = []
    if args.patterns is not None:
        for chunk in args.patterns.split():
            if chunk:
                pats.append(parse_perm(chunk))
    if getattr(args, "patterns_file", None):
        try:
            with open(args.patterns_file) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ValueError(f"cannot read --patterns-file: {exc}") from exc
        for line in lines:
            line = line.split("#", 1)[0].strip()
            if line:
                pats.append(parse_perm(line))
    return pats


def cmd_count(args) -> int:
    mode = Mode.parse(args.mode)
    if mode is Mode.F and args.to < 2:
        print(f"--mode F counts matchings, which have even sizes: --to must be "
              f"at least 2, got {args.to}", file=sys.stderr)
        return 2
    pats = _read_patterns(args)
    ps = PatternSet(pats, mode)
    ambient = Mode.F if mode is Mode.F else Mode.I
    table = count_table(ps, ambient, args.to, args.refine_fixed_points)
    if args.formula:
        if not pats and mode is not Mode.F:
            closed = involution_count
            name = "involution numbers"
        elif not pats:
            closed = matching_count
            name = "double factorials"
        else:
            key = (tuple(pats[0]), mode) if len(pats) == 1 else None
            if key not in FORMULAS:
                print(f"no closed form on file for {ps}", file=sys.stderr)
                return 2
            name, closed = FORMULAS[key]
        rows = [(n, c, closed(n), c == closed(n)) for n, c in sorted(table.counts.items())]
        print(format_count_comparison(rows, "exhaustive", "formula"))
        return 0 if all(ok for *_, ok in rows) else 1
    if args.format == "rows":
        print("\n".join(table.to_rows()))
    else:
        print(table.to_text())
    return 0


def cmd_basis(args) -> int:
    ambient = Mode.parse(args.ambient)
    if ambient is Mode.CLASSICAL:
        print("ambient must be I, Iprime or F", file=sys.stderr)
        return 2
    pats = _read_patterns(args)
    if not pats:
        print("basis needs at least one pattern", file=sys.stderr)
        return 2
    ps = PatternSet(pats, Mode.CLASSICAL)
    report = compute_basis(ps, ambient, args.bound)
    print("\n".join(report.to_rows()) if args.format == "rows" else report.to_text())
    return 0


def cmd_verify_mcgovern(args) -> int:
    from .mcgovern import verify_part1, verify_part2

    progress = None
    if args.progress:
        def progress(part, row, members, took, elapsed):
            rate = members / took if took > 0 else float("inf")
            print(f"  part={part} n={row.n} members={members} "
                  f"classical={row.classical_avoiders} elapsed={elapsed:.2f}s "
                  f"rate={rate:.0f} members/s", file=sys.stderr)
    status = 0
    for part in ([1, 2] if args.part == 0 else [args.part]):
        fn = verify_part1 if part == 1 else verify_part2
        report = fn(args.to, progress=progress)
        print(report.to_text())
        if not report.equal:
            status = 1
    return status


def cmd_bijection(args) -> int:
    from .bijections import (AndrePath, andre_to_involution, check_andre,
                             involution_to_andre)

    if args.omega:
        tau = parse_perm(args.omega)
        try:
            ap = involution_to_andre(tau)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{format_perm(tau)} -> {ap}")
        return 0
    word = args.omega_inv
    labels = tuple(int(x) for x in args.labels.split(",") if x) if args.labels else ()
    try:
        ap = check_andre(AndrePath(word, labels))
        tau = andre_to_involution(ap)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{ap} -> {format_perm(tau)}")
    return 0


def cmd_identities(args) -> int:
    ran = failed = 0
    if args.stanley:
        ran += 1
        ok = check_corollary_stanley(args.m, args.to)
        print(f"block-pattern symmetry at m={args.m} to n={args.to}: "
              f"{'equal' if ok else 'UNEQUAL'}")
        failed += not ok
    if args.fixed_points is not None:
        ran += 1
        pats = [parse_perm(c) for c in args.fixed_points.split()] if args.fixed_points else []
        ps = PatternSet(pats, Mode.F)
        ok = check_fixed_point_identity(ps, args.to)
        print(f"fixed-point factorization for {ps} to n={args.to}: "
              f"{'holds' if ok else 'FAILS'}")
        failed += not ok
    if args.egf is not None:
        ran += 1
        pats = [parse_perm(c) for c in args.egf.split()] if args.egf else []
        rows = egf_identity_report(PatternSet(pats, Mode.F), args.to)
        print(format_count_comparison(rows, "involution", "e^x convolution"))
        ok = all(r[3] for r in rows)
        failed += not ok
    if args.recurrence:
        ran += 1
        ok = check_recurrence_132(args.to)
        print(f"three-term recurrence to n={args.to}: {'holds' if ok else 'FAILS'}")
        failed += not ok
    if args.dseries:
        ran += 1
        ds = d_series(1, -1, args.to + 1)
        ok = all(ds[n](1) == formula_pattern132(n) for n in range(1, args.to + 1))
        print(f"continued-fraction series matches 132 counts to n={args.to}: "
              f"{'yes' if ok else 'NO'}")
        failed += not ok
    if not ran:
        print("pick at least one identity to check", file=sys.stderr)
        return 2
    return 1 if failed else 0


def positive_int(text: str) -> int:
    """A ``--to`` value: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="invpat", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="avoider counts by size")
    count.add_argument("--patterns", default=None,
                       help="whitespace-separated patterns; empty string for none")
    count.add_argument("--patterns-file", default=None)
    count.add_argument("--mode", default="I", help="classical, I, Iprime or F")
    count.add_argument("--to", type=positive_int, required=True)
    count.add_argument("--formula", action="store_true",
                       help="compare against the closed form")
    count.add_argument("--refine-fixed-points", action="store_true")
    count.add_argument("--format", choices=("text", "rows"), default="text")
    count.set_defaults(fn=cmd_count)

    basis = sub.add_parser("basis", help="minimal violators of classical patterns")
    basis.add_argument("--patterns", default=None)
    basis.add_argument("--patterns-file", default=None)
    basis.add_argument("--ambient", default="I", help="I, Iprime or F")
    basis.add_argument("--bound", type=int, default=None,
                       help="search bound; default twice the largest pattern")
    basis.add_argument("--format", choices=("text", "rows"), default="text")
    basis.set_defaults(fn=cmd_basis)

    ver = sub.add_parser("verify-mcgovern", help="equality sweeps")
    ver.add_argument("--part", type=int, choices=(0, 1, 2), default=0,
                     help="1, 2 or 0 for both")
    ver.add_argument("--to", type=positive_int, default=12)
    ver.add_argument("--progress", action="store_true",
                     help="one line per size on stderr")
    ver.set_defaults(fn=cmd_verify_mcgovern)

    bij = sub.add_parser("bijection", help="involution <-> even-level path")
    way = bij.add_mutually_exclusive_group(required=True)
    way.add_argument("--omega", metavar="INVOLUTION",
                     help="map a 132-avoiding involution to its path")
    way.add_argument("--omega-inv", metavar="WORD",
                     help="step word like LUDUULUDLDDL; needs --labels for D steps")
    bij.add_argument("--labels", default="",
                     help="comma-separated down-step labels, left to right")
    bij.set_defaults(fn=cmd_bijection)

    idn = sub.add_parser("identities", help="counting identities")
    idn.add_argument("--stanley", action="store_true",
                     help="block pattern vs decreasing pattern of size 2m")
    idn.add_argument("--m", type=int, default=2)
    idn.add_argument("--fixed-points", metavar="PATTERNS", default=None,
                     help="fixed-point factorization for these matching patterns")
    idn.add_argument("--egf", metavar="PATTERNS", default=None,
                     help="e^x convolution identity for these matching patterns")
    idn.add_argument("--recurrence", action="store_true")
    idn.add_argument("--dseries", action="store_true")
    idn.add_argument("--to", type=positive_int, default=10)
    idn.set_defaults(fn=cmd_identities)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
