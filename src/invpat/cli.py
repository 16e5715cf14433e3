"""
Batch command line for exact enumeration over involutions and matchings.

Subcommands:

- ``count``: avoider counts by size, optionally against the closed form
  or refined by fixed points (the closed forms are totals, so not both).
- ``basis``: minimal violators of classical patterns in a deletion order.
- ``verify-mcgovern``: the equality sweeps; ``--to 16`` proves both
  equalities for every size.
- ``bijection``: map an involution to its even-level path and back;
  ``--labels`` goes with ``--omega-inv`` only.
- ``identities``: the counting identities (block-pattern symmetry,
  fixed-point factorization, three-term recurrence, continued fraction);
  ``--m`` goes with ``--stanley`` only.

Everything is exhaustive and deterministic; exit status 0 iff all
requested checks pass.  argparse rejects an unknown option or a
``--to`` below 1 with its usage message and exit status 2.  Every other
usage error, such as a ``--to`` below 2 for ``count --mode F`` or for
part 2 of ``verify-mcgovern``, or a pattern set with no closed form for
``count --formula``, prints one ``error: ...`` line on stderr and exits
2: the subcommands raise ``ValueError`` and :func:`main` alone reports
it.  On ``count`` and ``basis``, ``--format rows`` prints tab-separated
rows with a header instead of aligned text; the other subcommands have
no ``--format``.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .classes import PatternSet, compute_basis
from .containment import Mode
from .core import format_perm, parse_perm
from .enumeration import (check_corollary_stanley, check_fixed_point_identity,
                          check_recurrence_132, closed_form, count_table, d_series,
                          egf_identity_report, format_count_comparison,
                          formula_pattern132)


def _pattern_list(text: str | None) -> list:
    """The patterns of a whitespace-separated list; None and "" give none."""
    return [parse_perm(chunk) for chunk in (text or "").split()]


def _read_patterns(args) -> list:
    pats = _pattern_list(args.patterns)
    if args.patterns_file:
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
        raise ValueError(f"--mode F counts matchings, which have even sizes: --to must "
                         f"be at least 2, got {args.to}")
    if args.formula and args.refine_fixed_points:
        raise ValueError("--formula compares totals: it cannot be combined with "
                         "--refine-fixed-points")
    ps = PatternSet(_read_patterns(args), mode)
    closed = closed_form(ps) if args.formula else None
    ambient = Mode.F if mode is Mode.F else Mode.I
    table = count_table(ps, ambient, args.to, args.refine_fixed_points)
    if closed is None:
        print("\n".join(table.to_rows()) if args.format == "rows" else table.to_text())
        return 0
    rows = []
    for n, c in sorted(table.counts.items()):
        want = closed(n)
        rows.append((n, c, want, c == want))
    if args.format == "rows":
        print("\n".join(["n\texhaustive\tformula\tmatch"]
                        + [f"{n}\t{c}\t{want}\t{'yes' if ok else 'NO'}"
                           for n, c, want, ok in rows]))
    else:
        print(format_count_comparison(rows, "exhaustive", "formula"))
    return 0 if all(ok for *_, ok in rows) else 1


def cmd_basis(args) -> int:
    ambient = Mode.parse(args.ambient)
    ps = PatternSet(_read_patterns(args), Mode.CLASSICAL)
    report = compute_basis(ps, ambient, args.bound)
    print("\n".join(report.to_rows()) if args.format == "rows" else report.to_text())
    return 0


def cmd_verify_mcgovern(args) -> int:
    from .mcgovern import verify_part1, verify_part2

    if args.part != 1 and args.to < 2:
        raise ValueError(f"part 2 sweeps matchings, which have even sizes: --to must "
                         f"be at least 2, got {args.to}")
    progress = None
    if args.progress:
        def progress(part, row, took, elapsed):
            members = row.classical_avoiders
            rate = members / took if took > 0 else float("inf")
            print(f"  part={part} n={row.n} members={members} "
                  f"elapsed={elapsed:.2f}s rate={rate:.0f} members/s", file=sys.stderr)
    status = 0
    for part in ([1, 2] if args.part == 0 else [args.part]):
        fn = verify_part1 if part == 1 else verify_part2
        report = fn(args.to, progress=progress)
        print(report.to_text())
        if not report.equal:
            status = 1
    return status


def cmd_bijection(args) -> int:
    from .bijections import AndrePath, andre_to_involution, involution_to_andre

    if args.omega is not None:
        if args.labels is not None:
            raise ValueError("--labels labels the down steps of an --omega-inv path: "
                             "it cannot be combined with --omega")
        tau = parse_perm(args.omega)
        print(f"{format_perm(tau)} -> {involution_to_andre(tau)}")
        return 0
    labels = []
    for field in args.labels.split(",") if args.labels else []:
        try:
            labels.append(int(field))
        except ValueError:
            what = f"field {field!r} is not an integer" if field else "empty field"
            raise ValueError(f"{what} in --labels {args.labels!r}") from None
    ap = AndrePath(args.omega_inv, tuple(labels))
    print(f"{ap} -> {format_perm(andre_to_involution(ap))}")
    return 0


def cmd_identities(args) -> int:
    if not (args.stanley or args.recurrence or args.dseries) and \
            args.fixed_points is None and args.egf is None:
        raise ValueError("pick at least one identity to check")
    if args.m is not None and not args.stanley:
        raise ValueError("--m sets the block size of --stanley: it needs --stanley")
    m = 2 if args.m is None else args.m
    # parse both pattern lists before any identity prints its line
    fixed, egf = (None if text is None else PatternSet(_pattern_list(text), Mode.F)
                  for text in (args.fixed_points, args.egf))
    failed = 0
    if args.stanley:
        ok = check_corollary_stanley(m, args.to)
        print(f"block-pattern symmetry at m={m} to n={args.to}: "
              f"{'equal' if ok else 'UNEQUAL'}")
        failed += not ok
    if fixed is not None:
        ok = check_fixed_point_identity(fixed, args.to)
        print(f"fixed-point factorization for {fixed} to n={args.to}: "
              f"{'holds' if ok else 'FAILS'}")
        failed += not ok
    if egf is not None:
        rows = egf_identity_report(egf, args.to)
        print(format_count_comparison(rows, "involution", "e^x convolution"))
        failed += not all(r[3] for r in rows)
    if args.recurrence:
        ok = check_recurrence_132(args.to)
        print(f"three-term recurrence to n={args.to}: {'holds' if ok else 'FAILS'}")
        failed += not ok
    if args.dseries:
        ds = d_series(1, -1, args.to + 1)
        ok = all(ds[n](1) == formula_pattern132(n) for n in range(1, args.to + 1))
        print(f"continued-fraction series matches 132 counts to n={args.to}: "
              f"{'yes' if ok else 'NO'}")
        failed += not ok
    return 1 if failed else 0


def positive_int(text: str) -> int:
    """A ``--to`` value: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """
    The ``invpat`` parser, built on the first call and returned again on
    every later one.  :func:`main` may be called many times in one
    process, as a batch of jobs does, and so builds its parser once per
    process.  The parser holds only constants, and ``parse_args`` returns
    a new namespace each time, so no state carries from one call to the
    next; a caller that changes the returned parser changes it for every
    later call.

    ``set_defaults(fn=cmd_*)`` binds the command functions at the first
    build: a caller that patches ``cli.cmd_*`` must call
    ``build_parser.cache_clear()`` for the patch to take effect.
    """
    # the docstring's reST markup would show in --help: only its plain
    # first paragraph describes the parser
    top = argparse.ArgumentParser(prog="invpat", description=__doc__.split("\n\n")[0])
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
    bij.add_argument("--labels",
                     help="comma-separated down-step labels, left to right "
                          "(--omega-inv only)")
    bij.set_defaults(fn=cmd_bijection)

    idn = sub.add_parser("identities", help="counting identities")
    idn.add_argument("--stanley", action="store_true",
                     help="block pattern vs decreasing pattern of size 2m")
    idn.add_argument("--m", type=int, default=None,
                     help="block size of --stanley's pattern (default 2)")
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
