"""
The acceptance gate: one test per criterion, each printing a PASS/FAIL
line.  Everything here is exact; run with ``pytest -s
tests/test_acceptance.py`` to watch the lines stream by.
"""
import time
from math import comb, factorial

from invpat.classes import PatternSet, class_members, compute_basis
from invpat.containment import (Mode, contains_classical, contains_fast,
                                down_set)
from invpat.core import (fixed_points, generate_fpf, generate_involutions,
                         parse_perm)
from invpat.enumeration import (PolyT, check_recurrence_132, count_avoiders,
                                d_series, formula_pattern123,
                                formula_pattern132, formula_pattern132_poly,
                                formula_pattern2143, formula_pattern321)
from invpat.mcgovern import PI_PRIME, verify_part1, verify_part2


def _report(num: int, ok: bool, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed"


TABLE = {
    ("123", Mode.I): "123 14523 34125 351624 456123",
    ("123", Mode.F): "214365 341265 215634 351624 456123",
    ("132", Mode.I): "132 35142 465132",
    ("132", Mode.F): "2143 465132",
    ("213", Mode.I): "213 42513 546213",
    ("213", Mode.F): "2143 546213",
    ("231", Mode.I): "3412 4231",
    ("231", Mode.F): "3412 632541",
    ("321", Mode.I): "321",
    ("321", Mode.F): "4321",
}


def test_criterion_01_table_reproduction():
    t0 = time.time()
    ok = True
    for (pat, ambient), want in TABLE.items():
        ps = PatternSet([parse_perm(pat)], Mode.CLASSICAL)
        got = set(compute_basis(ps, ambient, bound=6).all_elements())
        ok = ok and got == {parse_perm(w) for w in want.split()}
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 10, f"ten basis rows, {elapsed:.2f}s")


def test_criterion_02_formulas_vs_brute_force():
    t0 = time.time()
    jobs = [
        (formula_pattern321, PatternSet([(3, 2, 1)], Mode.I)),
        (formula_pattern132, PatternSet([(1, 3, 2)], Mode.I)),
        (formula_pattern132, PatternSet([(2, 1, 3)], Mode.I)),
        (formula_pattern123, PatternSet([(1, 2, 3)], Mode.I)),
        (formula_pattern2143, PatternSet([(2, 1, 4, 3)], Mode.I)),
    ]
    ok = all(formula(n) == count_avoiders(ps, Mode.I, n)
             for formula, ps in jobs for n in range(1, 13))
    elapsed = time.time() - t0
    _report(2, ok and elapsed < 60, f"five count columns to n=12, {elapsed:.1f}s")


def test_criterion_03_refined_polynomials():
    t0 = time.time()
    ok = True
    for n in range(1, 11):
        per_pattern = []
        for pat in ((1, 3, 2), (2, 1, 3)):
            by_fix = count_avoiders(PatternSet([pat], Mode.I), Mode.I, n,
                                    refine_by_fixed_points=True)
            coeffs = [0] * (n // 2 + 1)
            for fixes, c in by_fix.items():
                coeffs[(n - fixes) // 2] = c
            per_pattern.append(PolyT(coeffs))
        ok = ok and per_pattern[0] == per_pattern[1] == formula_pattern132_poly(n)
    elapsed = time.time() - t0
    _report(3, ok and elapsed < 30, f"cycle polynomials to n=10, {elapsed:.1f}s")


def test_criterion_04_continued_fraction():
    ok = True
    for p in range(-2, 4):
        ok = ok and d_series(p, -1, 5)[4] == PolyT((1, p * p + 2, p * p - p + 2))
    # series indexing per the generating function: term n is D_{n+1}
    ds = d_series(1, -1, 13)
    ok = ok and all(ds[n](1) == formula_pattern132(n) for n in range(1, 13))
    _report(4, ok, "closed form at p=-2..3 and series vs counts to n=12")


def test_criterion_05_recurrence():
    _report(5, check_recurrence_132(14), "three-term recurrence, 4<=n<=14")


def test_criterion_06_fixed_point_identity():
    t0 = time.time()
    ok = True
    for pats in ([], [(2, 1, 4, 3)], [(4, 3, 2, 1)], list(PI_PRIME)):
        as_f = PatternSet(pats, Mode.F)
        as_i = PatternSet(pats, Mode.I)
        f_count = {k: (len(class_members(as_f, Mode.F, k)) if k % 2 == 0 else 0)
                   for k in range(11)}
        for n in range(11):
            by_fix = {m: 0 for m in range(n + 1)}
            for tau in class_members(as_i, Mode.I, n):
                by_fix[len(fixed_points(tau))] += 1
            ok = ok and all(by_fix[m] == comb(n, m) * f_count[n - m]
                            for m in range(n + 1))
    elapsed = time.time() - t0
    _report(6, ok and elapsed < 120, f"four pattern families to n=10, {elapsed:.1f}s")


def test_criterion_07_block_pattern_symmetry():
    ok = True
    for m in (1, 2, 3):
        shift = tuple(range(m + 1, 2 * m + 1)) + tuple(range(1, m + 1))
        dec = tuple(range(2 * m, 0, -1))
        for n in range(1, 10):
            a = count_avoiders(PatternSet([shift], Mode.I), Mode.I, n)
            b = count_avoiders(PatternSet([dec], Mode.I), Mode.I, n)
            ok = ok and a == b
    _report(7, ok, "m=1,2,3 to n=9")


def test_criterion_08_singleton_class_equality():
    t0 = time.time()
    ok = True
    twelve_avoiding = [t for k in range(1, 7)
                       for t in class_members(PatternSet([(1, 2)], Mode.I),
                                              Mode.I, k)]
    assert len(twelve_avoiding) == sum(factorial(k // 2) for k in range(1, 7))
    for tau in twelve_avoiding:
        deletion = PatternSet([tau], Mode.I)
        classical = PatternSet([tau], Mode.CLASSICAL)
        for n in range(1, 11):
            ok = ok and class_members(deletion, Mode.I, n) == \
                class_members(classical, Mode.I, n)
    matching_patterns = [r for k in (1, 2, 3)
                         for r in class_members(PatternSet([(2, 1, 4, 3)], Mode.F),
                                                Mode.F, 2 * k)]
    assert len(matching_patterns) == 1 + 2 + 6
    for rho in matching_patterns:
        deletion = PatternSet([rho], Mode.F)
        classical = PatternSet([rho], Mode.CLASSICAL)
        for n in range(2, 13, 2):
            ok = ok and class_members(deletion, Mode.F, n) == \
                class_members(classical, Mode.F, n)
    elapsed = time.time() - t0
    _report(8, ok, f"13 involution + 9 matching patterns, {elapsed:.1f}s")


def test_criterion_09_counterexample_reproduction():
    rho = parse_perm("65872143")
    r = [(2, 1, 4, 3), parse_perm("456123")]
    ok = (not any(contains_fast(rho, p, Mode.F) for p in r)
          and not any(contains_fast(rho, p, Mode.I) for p in r)
          and contains_classical(rho, (2, 1, 4, 3)))
    _report(9, ok, "65872143 separates the orders")


def test_criterion_10_embedding_equals_reference():
    t0 = time.time()
    involutions = [t for n in range(9) for t in generate_involutions(n)]
    matchings = [t for n in range(0, 9, 2) for t in generate_fpf(n)]
    checked = 0
    ok = True
    for mode, pool in ((Mode.I, involutions), (Mode.IPRIME, involutions),
                       (Mode.F, matchings)):
        for tau in pool:
            ref = down_set(tau, mode)
            for rho in pool:
                if len(rho) <= len(tau):
                    checked += 1
                    if contains_fast(tau, rho, mode) != (rho in ref):
                        ok = False
    elapsed = time.time() - t0
    _report(10, ok and elapsed < 300,
            f"{checked} pairs across three orders, {elapsed:.1f}s")


def test_criterion_11_bijection_suite():
    from itertools import permutations

    from invpat.bijections import (andre_to_involution, check_history,
                                   dyck_to_history, from_skew_half,
                                   history_to_dyck, history_to_perm,
                                   insert_level_steps, involution_to_andre,
                                   iter_andre_paths, iter_labeled_dyck,
                                   iter_laguerre_histories, perm_to_history,
                                   skew_half, strip_level_steps)

    t0 = time.time()
    ok = True
    for n in range(0, 6):
        histories = list(iter_laguerre_histories(n))
        ok = ok and len(histories) == factorial(n + 1)
        ok = ok and all(perm_to_history(history_to_perm(h)) == h
                        for h in histories)
        paths = list(iter_labeled_dyck(n + 1))
        ok = ok and len(paths) == factorial(n + 1)
        ok = ok and all(history_to_dyck(dyck_to_history(p)) == p for p in paths)
    # length 7 and 8: round trip + validity over all of S_8, S_9, with
    # the history count checked separately; injectivity plus matching
    # cardinalities gives bijectivity without materializing the image
    for n in (7, 8):
        ok = ok and sum(1 for _ in iter_laguerre_histories(n)) == factorial(n + 1)
        for sigma in permutations(range(1, n + 2)):
            lh = check_history(perm_to_history(sigma))
            if history_to_perm(lh) != sigma:
                ok = False
                break
    for n in range(0, 9):
        ok = ok and all(insert_level_steps(*strip_level_steps(ap)) == ap
                        for ap in iter_andre_paths(n))
    for n in (9, 10):
        ok = ok and sum(1 for _ in iter_andre_paths(n)) == formula_pattern132(n)
    ps132 = PatternSet([(1, 3, 2)], Mode.I)
    ps12 = PatternSet([(1, 2)], Mode.I)
    for n in range(0, 11):
        members = class_members(ps132, Mode.I, n)
        ok = ok and len(members) == (formula_pattern132(n) if n else 1)
        image = set()
        for tau in members:
            ap = involution_to_andre(tau)
            ok = ok and ap.word.count("L") == len(fixed_points(tau))
            ok = ok and andre_to_involution(ap) == tau
            image.add(ap)
        ok = ok and len(image) == len(members)
        if n:
            ok = ok and all(from_skew_half(skew_half(t), n % 2 == 1) == t
                            for t in class_members(ps12, Mode.I, n))
    elapsed = time.time() - t0
    _report(11, ok and elapsed < 120, f"round trips and transports, {elapsed:.1f}s")


def test_criterion_12_equality_sweeps_to_12():
    t0 = time.time()
    part1 = verify_part1(12)
    part2 = verify_part2(12)
    counts_ok = (part1.rows[12].total == 140152 and
                 part2.rows[12].total == 10395)
    elapsed = time.time() - t0
    _report(12, part1.equal and part2.equal and counts_ok and elapsed < 600,
            f"both sweeps to size 12, {elapsed:.1f}s; size 16 is "
            "verify-mcgovern --to 16")


def test_criterion_13_ratio_trend_only():
    from fractions import Fraction

    ratios = {n: Fraction(formula_pattern123(n), formula_pattern132(n))
              for n in range(6, 15)}
    ok = all(ratios[n] < ratios[n + 2] for n in range(6, 13))
    _report(13, ok, "same-parity ratio growth 6<=n<=14; no asymptotic constants")
