"""
One repetition of a workload in a fresh interpreter.

    python3 bench/child.py WORKLOAD --seed N [--sizes full|tiny] [--trace] [--setup-only]

Each repetition gets its own process so that module-level caches in the
package (the level sieve, the down-sets) start cold, as they do for a
user of the command line.

The host's CPU speed drifts by up to a half over seconds to minutes, as
other tenants come and go, and that drift would swamp any change to the
package.  So while an untraced repetition runs, a timer interrupts it
every ``YARD_INTERVAL_S`` to time the yardstick, a fixed piece of
pure-Python work that uses no package code.  Its time is taken out of
the repetition's, and the rest is scaled by ``YARD_REF_S`` over the
yardstick's mean time: the repetition's time on a CPU on which the
yardstick takes ``YARD_REF_S``, the host's undisturbed speed.

The last line of standard output is one JSON object: ``t_first``
(``time.monotonic()`` at the first job call, from which the runner
derives ``setup_s``), ``yard_scale`` (the factor above), ``wall_s``
(first job call to the last check), ``cpu_s`` (user plus system time
over the same window, including any processes the jobs started), both
scaled and also unscaled as ``wall_raw_s`` and ``cpu_raw_s``,
``peak_rss_mb`` (this process's own peak resident memory), the checks
attempted and failed, the time of each job and, with ``--trace``, the
per-layer metrics and the coarse spans.  A traced repetition runs no
yardstick, so that its spans cover only the package and the benchmark;
its times are unscaled.  With ``--setup-only`` it stops before the first
job, times the yardstick a few times and reports ``t_first`` and
``yard_scale``.
"""
from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import traceback
from contextlib import nullcontext
from itertools import permutations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)
from tracing import Tracer  # noqa: E402


YARD_INTERVAL_S = 0.1
# the yardstick's time on a 2-vCPU Intel Xeon at 2.1 GHz with Python 3.11
# when no other tenant of the host is busy
YARD_REF_S = 0.0045
SETUP_YARD_SAMPLES = 10

_YARD_TUPLES = list(permutations(range(7)))
_YARD_SET = frozenset(_YARD_TUPLES[::3])
_YARD_INDEX = {p: i for i, p in enumerate(_YARD_TUPLES)}


def yard_sample() -> float:
    """Time one pass of the yardstick: tuple hashing, indexing, set and dict
    lookups, as the package does, with nothing allocated that outlives it."""
    t0 = time.perf_counter()
    hits = 0
    for _ in range(5):
        for p in _YARD_TUPLES:
            if p[p[0]] == 0 and p in _YARD_SET:
                hits += 1
            hits += _YARD_INDEX[p] & 1
    return time.perf_counter() - t0


class Yardstick:
    """Times the yardstick at entry, at exit and on a wall-clock timer between."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(yard_sample())

    def __enter__(self) -> "Yardstick":
        self.samples.append(yard_sample())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, YARD_INTERVAL_S, YARD_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(yard_sample())


def yard_scale(samples: list[float]) -> float:
    """The factor that turns a time measured alongside ``samples`` into one at
    the reference speed; 1 when there are none."""
    return YARD_REF_S * len(samples) / sum(samples) if samples else 1.0


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run(workload: str, seed: int, sizes: str, traced: bool, setup_only: bool) -> dict:
    jobs = workloads.build_jobs(workload, seed, sizes)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    cpu0 = _cpu(resource.RUSAGE_SELF)
    t_first = time.monotonic()
    if setup_only:
        samples = [yard_sample() for _ in range(SETUP_YARD_SAMPLES)]
        return {"t_first": t_first, "yard_scale": yard_scale(samples)}
    attempted = failed = 0
    examples: list[str] = []
    job_s: dict[str, float] = {}
    yard = Yardstick()
    try:
        with yard if not traced else nullcontext():
            for job in jobs:
                t0 = time.monotonic()
                try:
                    outcome = job.check(job.run())
                except Exception:  # a job that raises fails its check; the others still run
                    outcome = workloads.Outcome(1, 1, [traceback.format_exc(limit=3)])
                job_s[job.name] = time.monotonic() - t0
                attempted += outcome.attempted
                failed += outcome.failed
                examples += [f"{job.name}: {e}" for e in outcome.examples]
        wall_s = time.monotonic() - t_first
    finally:
        if tracer:
            tracer.uninstall()
    cpu_s = (_cpu(resource.RUSAGE_SELF) - cpu0) + _cpu(resource.RUSAGE_CHILDREN)
    # the yardstick's own time is not the repetition's; it runs on the CPU
    # throughout, so its wall time stands for its CPU time too
    wall_s -= sum(yard.samples)
    cpu_s -= sum(yard.samples)
    scale = yard_scale(yard.samples)
    out = {
        "t_first": t_first, "yard_scale": scale, "yard_samples": len(yard.samples),
        "wall_s": wall_s * scale, "cpu_s": cpu_s * scale,
        "wall_raw_s": wall_s, "cpu_raw_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted, "failed": failed, "examples": examples[:10],
        "job_order": [job.name for job in jobs], "job_s": job_s,
    }
    if tracer:
        out["layers"] = tracer.metrics(wall_s)
        out["spans"] = tracer.spans
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sizes", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.sizes, args.trace, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
