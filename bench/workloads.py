"""
The benchmark's three workloads, why each exists, and the checks that
judge their outputs.

Every workload runs the paper's own exhaustive jobs serially in one
interpreter, through the package's public entry points: ``cli.main``
for the batch commands (``--workers`` left at 1) and the
``invpat.bijections`` functions for the round trips, which have no
batch command.  The inputs are exhaustive, so the seed only permutes
the order of the jobs within a workload; a gain that depends on one
order (say, a cache left warm by the previous job) then shows on an
unseen seed.

The layers are the package's modules: ``core``, ``containment``,
``classes``, ``enumeration``, ``bijections``, ``mcgovern`` and ``cli``.
Each workload loads some of them heavily and leaves others idle, so a
change to one layer predicts a gain on one workload and no change on
another.

``sweep``
    ``verify-mcgovern`` part 1 and part 2, the paper's headline check.
    ``core`` generation and ``containment`` do the work: classical
    containment mostly hits early, and the embedding search runs only on
    classical containers.  ``classes`` is idle, so a level-engine change
    should predict no change here.

``enumerate``
    The count and basis jobs: ``basis`` for the ten table rows in the
    ``I`` and ``F`` orders, searched past twice the pattern size, which
    must still give exactly the table; ``count --formula`` for 321, 132,
    213, 123 and 2143 in ``I`` (the embedding route); ``count`` of
    ``PI_SMOOTH`` in ``Iprime`` and of ``PI_PRIME`` in ``F`` (the sieve
    route); ``count`` of 2143 in ``F``; and ``count`` with no patterns,
    which builds the set of every involution.  ``classes`` and
    ``enumeration`` do most of the work.  The embedding search on dense
    classes mostly runs to exhaustion, the opposite use of
    ``containment`` from ``sweep``.  The empty count makes peak memory
    the metric a streaming change moves.  ``mcgovern`` is idle.

``bijections``
    Round trips through every bijection over exhaustive families:
    ``perm_to_history``/``history_to_perm`` over S_8,
    ``dyck_to_history``/``history_to_dyck`` over the labeled Dyck paths
    of half-length 8, ``strip_level_steps``/``insert_level_steps`` and
    ``andre_to_involution``/``involution_to_andre`` over every even-level
    path up to a size.  Only ``bijections`` works here (its 132 guard in
    ``involution_to_andre`` calls ``contains_fast`` directly, and that
    time counts as ``bijections``); ``containment`` and ``classes`` are
    idle, so merging the two labeled-path types shows here and nowhere
    else.

Per-layer metrics (traced run only, see ``tracing.py``) and the
end-to-end metric each should move:

- ``core.generate.elements`` and ``.self_s``: ``enumerate.peak_rss_mb``
  and ``enumerate.wall_s``, because the empty count is generation plus
  a set; a small share of ``sweep.wall_s``.
- ``containment.classical.calls``, ``.self_s`` and ``.hit_ratio``:
  ``sweep.wall_s`` and ``sweep.cpu_s``, where this layer is the largest
  cost; a small share of ``enumerate`` (basis only), none of
  ``bijections``.
- ``containment.embed.{I,Iprime,F}.calls``, ``.self_s`` and
  ``.hit_ratio``: ``enumerate.wall_s`` (low hit ratio) and
  ``sweep.wall_s`` (high hit ratio), so a change that speeds up misses
  at the cost of hits shows on one workload and costs on the other.
- ``containment.one_step_down.calls``: the basis minimality lookups of
  ``enumerate``.
- ``classes.class_members.calls`` and ``.self_s``,
  ``classes.members_per_candidate``, ``classes.compute_basis.self_s``
  and ``classes.basis.elements``: ``enumerate.wall_s`` and
  ``enumerate.peak_rss_mb``, not ``sweep`` or ``bijections``.
- ``enumeration.count_table.self_s``, net of ``classes``:
  ``enumerate.wall_s``.
- ``mcgovern.sweep.self_s``, ``.elements`` and ``.avoider_ratio``:
  ``sweep.wall_s``.  ``avoider_ratio`` is classical avoiders over the
  elements visited, the useful share; an avoider-only sweep raises it
  and cuts ``elements``.
- ``bijections.{history,dyck,levels,omega}.roundtrips`` and ``.self_s``,
  and ``bijections.paths.self_s`` (the path generators):
  ``bijections.wall_s`` only.
- ``cli.main.calls`` and ``.self_s``: a near-zero share; they guard
  against regressions in parsing and formatting.
- ``<layer>.self_s`` for each layer, plus ``bench.self_s`` (the
  harness's own loops and checks), add up to ``trace.wall_s``;
  ``trace.overhead_s`` is the traced wall time minus the untraced one.

The job sizes live in :data:`SIZES`.  ``full`` is what the benchmark
runs: sized so that one repetition takes 8 to 12 s on one core of a
2-core Xeon with Python 3.11 and a run holds several.  Part 1 of the
sweep stops at 11 because size 12 alone takes about 19 s; the empty
count goes to 13, so that its set of 568,504 involutions dominates
peak memory whatever job ran before it.  ``tiny`` is for the
self-tests.  The expected outputs are constants in :mod:`expected`,
never values computed by the code under test.
"""
from __future__ import annotations

import io
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import permutations
from typing import Any, Callable

import expected as E
from invpat import bijections, cli

WORKLOADS = ("sweep", "enumerate", "bijections")

SIZES = {
    "full": {
        "sweep_part1_to": 11, "sweep_part2_to": 12,
        "basis_bound": 10, "formula_to": 11, "pi_smooth_to": 12,
        "pi_prime_to": 12, "f2143_to": 12, "empty_to": 13,
        "history_n": 8, "dyck_half": 8, "levels_to": 12, "omega_to": 13,
    },
    "tiny": {
        "sweep_part1_to": 6, "sweep_part2_to": 6,
        "basis_bound": 6, "formula_to": 6, "pi_smooth_to": 7,
        "pi_prime_to": 8, "f2143_to": 6, "empty_to": 6,
        "history_n": 4, "dyck_half": 4, "levels_to": 6, "omega_to": 6,
    },
}


@dataclass(frozen=True)
class Job:
    """One call into the package plus the check of what it returned."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], "Outcome"]


@dataclass
class Outcome:
    """Checks attempted on one job's output, how many failed, and a few of them."""

    attempted: int
    failed: int
    examples: list[str]


def _compare(want: dict, got: dict) -> Outcome:
    """One check per expected label; a label only in ``got`` fails too."""
    labels = list(want) + [k for k in got if k not in want]
    bad = [f"{k}: want {want.get(k)!r}, got {got.get(k)!r}"
           for k in labels if want.get(k) != got.get(k)]
    return Outcome(len(labels), len(bad), bad[:5])


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``invpat`` in-process and capture what it prints."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# sweep

_SWEEP_ROW = re.compile(r"n=(\d+)\s+total=(\d+)\s+classical=(\d+)\s+coarse=(\d+)\s+"
                        r"(?:full=(\d+)\s+)?(equal|UNEQUAL)")


def check_sweep(part: int, to: int, result: tuple[int, str]) -> Outcome:
    code, text = result
    want: dict = {"exit": 0, "verdict": f"equal at all sizes <= {to}"}
    for n, row in E.SWEEP[part].items():
        if n <= to:
            for key, value in zip(("total", "classical", "coarse", "full"), row):
                want[f"n={n} {key}"] = value
            want[f"n={n} row"] = "equal"
    got: dict = {"exit": code}
    for m in _SWEEP_ROW.finditer(text):
        n = int(m.group(1))
        got[f"n={n} total"] = int(m.group(2))
        got[f"n={n} classical"] = int(m.group(3))
        got[f"n={n} coarse"] = int(m.group(4))
        if m.group(5) is not None:
            got[f"n={n} full"] = int(m.group(5))
        got[f"n={n} row"] = m.group(6)
    verdict = re.search(r"=> (.*)", text)
    got["verdict"] = verdict.group(1).strip() if verdict else None
    return _compare(want, got)


def sweep_jobs(sizes: dict) -> list[Job]:
    jobs = []
    for part in (1, 2):
        to = sizes[f"sweep_part{part}_to"]
        argv = ["verify-mcgovern", "--part", str(part), "--to", str(to)]
        jobs.append(Job(f"verify-mcgovern.part{part}.to{to}",
                        lambda argv=argv: call_cli(argv),
                        lambda r, part=part, to=to: check_sweep(part, to, r)))
    return jobs


# ---------------------------------------------------------------------------
# enumerate


def check_basis(row: tuple[str, str], result: tuple[int, str]) -> Outcome:
    code, text = result
    want: dict = {"exit": 0, "header": "size\tone_line\tcycle_form"}
    want.update({f"element {w}": True for w in E.BASIS[row].split()})
    lines = text.splitlines()
    got: dict = {"exit": code, "header": lines[0] if lines else None}
    for line in lines[1:]:
        fields = line.split("\t")
        got[f"element {fields[1] if len(fields) == 3 else line}"] = True
    return _compare(want, got)


def _count_rows(text: str) -> dict[int, list[str]]:
    """Rows of a count table, text or tab-separated, keyed by their size."""
    rows = {}
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0].isdigit():
            rows[int(fields[0])] = fields[1:]
    return rows


def check_count(column: str, to: int, formula: bool, result: tuple[int, str]) -> Outcome:
    code, text = result
    want: dict = {"exit": 0}
    got: dict = {"exit": code}
    for n, c in E.COUNTS[column].items():
        if n <= to:
            want[f"n={n} count"] = c
            if formula:
                want[f"n={n} formula"] = c
                want[f"n={n} match"] = "yes"
    for n, fields in _count_rows(text).items():
        try:
            got[f"n={n} count"] = int(fields[0])
            if formula:
                got[f"n={n} formula"] = int(fields[1])
                got[f"n={n} match"] = fields[2]
        except (IndexError, ValueError):
            got[f"n={n} row"] = " ".join(fields)
    return _compare(want, got)


def _count_job(column: str, patterns: str, mode: str, to: int, formula: bool) -> Job:
    argv = ["count", "--patterns", patterns, "--mode", mode, "--to", str(to)]
    argv += ["--formula"] if formula else ["--format", "rows"]
    return Job(f"count.{column}.to{to}",
               lambda: call_cli(argv),
               lambda r: check_count(column, to, formula, r))


def enumerate_jobs(sizes: dict) -> list[Job]:
    jobs = []
    bound = sizes["basis_bound"]
    for pattern, ambient in E.BASIS:
        argv = ["basis", "--patterns", pattern, "--ambient", ambient,
                "--bound", str(bound), "--format", "rows"]
        jobs.append(Job(f"basis.{pattern}.{ambient}.bound{bound}",
                        lambda argv=argv: call_cli(argv),
                        lambda r, row=(pattern, ambient): check_basis(row, r)))
    for pattern in ("321", "132", "213", "123", "2143"):
        jobs.append(_count_job(f"{pattern}/I", pattern, "I", sizes["formula_to"], True))
    jobs.append(_count_job("PI_SMOOTH/Iprime", E.PI_SMOOTH, "Iprime",
                           sizes["pi_smooth_to"], False))
    jobs.append(_count_job("PI_PRIME/F", E.PI_PRIME, "F", sizes["pi_prime_to"], False))
    jobs.append(_count_job("2143/F", "2143", "F", sizes["f2143_to"], False))
    jobs.append(_count_job("empty/I", "", "I", sizes["empty_to"], False))
    return jobs


# ---------------------------------------------------------------------------
# bijections
#
# Each run returns {n: (elements, broken, first broken input)}.  Every
# element's round trip is one check, and so is each size's element count.
# The functions are looked up on the module when the job runs, so that
# the traced run sees its wrappers.


def _roundtrip(items, there, back) -> tuple[int, int, str | None]:
    elements = broken = 0
    first = None
    for x in items:
        elements += 1
        if back(there(x)) != x:
            broken += 1
            first = first or str(x)
    return elements, broken, first


def roundtrip_history(n: int) -> dict:
    b = bijections
    return {n: _roundtrip(permutations(range(1, n + 1)), b.perm_to_history,
                          b.history_to_perm)}


def roundtrip_dyck(half: int) -> dict:
    b = bijections
    return {half: _roundtrip(b.iter_labeled_dyck(half), b.dyck_to_history,
                             b.history_to_dyck)}


def roundtrip_levels(to: int) -> dict:
    b = bijections
    insert = b.insert_level_steps
    return {n: _roundtrip(b.iter_andre_paths(n), b.strip_level_steps,
                          lambda parts: insert(*parts))
            for n in range(to + 1)}


def roundtrip_omega(to: int) -> dict:
    b = bijections
    return {n: _roundtrip(b.iter_andre_paths(n), b.andre_to_involution,
                          b.involution_to_andre)
            for n in range(to + 1)}


def check_roundtrips(counts: dict[int, int], result: dict) -> Outcome:
    want = {f"n={n} elements": counts[n] for n in result}
    got = {f"n={n} elements": elements for n, (elements, _, _) in result.items()}
    outcome = _compare(want, got)
    for n, (elements, broken, first) in result.items():
        outcome.attempted += elements
        outcome.failed += broken
        if broken:
            outcome.examples.append(f"n={n}: {broken} round trips broken, first at {first!r}")
    return outcome


def bijection_jobs(sizes: dict) -> list[Job]:
    n, half = sizes["history_n"], sizes["dyck_half"]
    levels, omega = sizes["levels_to"], sizes["omega_to"]
    return [
        Job(f"history.S{n}", lambda: roundtrip_history(n),
            lambda r: check_roundtrips(E.FACTORIALS, r)),
        Job(f"dyck.half{half}", lambda: roundtrip_dyck(half),
            lambda r: check_roundtrips(E.FACTORIALS, r)),
        Job(f"levels.to{levels}", lambda: roundtrip_levels(levels),
            lambda r: check_roundtrips(E.ANDRE_PATHS, r)),
        Job(f"omega.to{omega}", lambda: roundtrip_omega(omega),
            lambda r: check_roundtrips(E.ANDRE_PATHS, r)),
    ]


_JOB_LISTS = {"sweep": sweep_jobs, "enumerate": enumerate_jobs,
             "bijections": bijection_jobs}


def build_jobs(workload: str, seed: int, sizes: str = "full") -> list[Job]:
    """The workload's jobs at the named sizes, in the order the seed picks."""
    jobs = _JOB_LISTS[workload](SIZES[sizes])
    random.Random(seed).shuffle(jobs)
    return jobs
