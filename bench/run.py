"""
The reproduction benchmark's runner.

    python3 bench/run.py --workload {sweep,enumerate,bijections} --seed N \
        --seconds S --trace {0,1} [--sizes {full,tiny}]

Run it from the root of a source checkout; it needs no build, since the
children put ``src`` on their import path.  The workloads, and why each
exists, are described in ``bench/workloads.py``.

A run is a closed loop of repetitions, one at a time: each repetition
is a fresh interpreter (``bench/child.py``) that runs every job of the
workload once, in the order the seed picks, and checks every output
against the constants in ``bench/expected.py``.  A new repetition starts
while the run's ``--seconds`` budget can still hold one more, judged by
the slowest so far.  Before each repetition, a few set-up probes time
interpreter start, ``import invpat`` and building the job list without
running anything: set-up is short and noisy, and one sample per
repetition would not be enough.

End-to-end metrics (``--trace 0``), each the median over the run:

- ``wall_s``: first job call to the last check, per repetition;
- ``cpu_s``: user plus system CPU time of the repetition over that window;
- ``peak_rss_mb``: the repetition's own peak resident memory;
- ``setup_s``: process spawn to the first job call, over the probes and
  the repetitions.

The three times are in reference seconds: each repetition and probe
times a yardstick alongside its work and scales its own times to the
speed at which the yardstick takes a fixed time, so that the drift of a
shared host's CPU speed between runs does not show as a change of the
package (see ``bench/child.py``).  The run record keeps the unscaled
times too.

With ``--trace 1`` the loop alternates untraced and traced repetitions.
The traced ones install the wrappers of ``bench/tracing.py``; their
per-layer metrics, in unscaled seconds, are reported as medians,
together with ``trace.overhead_s``, the traced wall time minus the
untraced one, both unscaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
and ``failed`` count output checks.  A failed check stops the run, which
is then reported as incorrect and exits with status 1.  The full run
record (machine, versions, sizes, seed, job order, every repetition's
values, and the median and quartiles of each metric) is written to
``bench/runs/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PROBES_PER_REPETITION = 3
CHILD_TIMEOUT_S = 150


class ChildFailed(Exception):
    pass


def spawn(workload: str, seed: int, sizes: str, trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run one child to completion and return its JSON line plus ``setup_s``."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, "--seed", str(seed),
           "--sizes", sizes]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    child_s = time.monotonic() - t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"repetition exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = (result.pop("t_first") - t_spawn) * result["yard_scale"]
    result["child_s"] = child_s
    result["traced"] = trace
    return result


def summary(values: list[float], unit: str) -> dict:
    # a count keeps a value some repetition really had
    median = statistics.median_low if unit == "count" else statistics.median
    out = {"n": len(values), "median": median(values), "unit": unit}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _invpat_version() -> str | None:
    import tomllib

    try:
        with open(ROOT / "pyproject.toml", "rb") as fh:
            return tomllib.load(fh)["project"]["version"]
    except (OSError, KeyError, tomllib.TOMLDecodeError):
        return None


def _source_digest() -> str:
    """Hash of the package sources, naming the code in a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "invpat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "invpat": _invpat_version(),
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes: str) -> dict:
    """The closed loop of one run; returns the run record."""
    reps: list[dict] = []
    probes: list[float] = []
    steps: list[float] = []  # duration of each round of probes plus repetition
    error = None
    t0 = time.monotonic()
    try:
        while True:
            start = time.monotonic()
            probes += [spawn(workload, seed, sizes, setup_only=True)["setup_s"]
                       for _ in range(PROBES_PER_REPETITION)]
            reps.append(spawn(workload, seed, sizes, trace=trace and len(reps) % 2 == 1))
            steps.append(time.monotonic() - start)
            if reps[-1]["failed"]:
                break
            if trace and len(reps) < 2:
                continue  # a traced run needs one repetition of each kind
            if time.monotonic() - t0 + max(steps) > seconds:
                break
    except ChildFailed as exc:
        error = str(exc)
    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    series: dict[str, tuple[list[float], str]] = {}
    if plain:
        series["wall_s"] = ([r["wall_s"] for r in plain], "s")
        series["cpu_s"] = ([r["cpu_s"] for r in plain], "s")
        series["peak_rss_mb"] = ([r["peak_rss_mb"] for r in plain], "MB")
    if probes:
        series["setup_s"] = (probes + [r["setup_s"] for r in plain], "s")
    if traced_reps:
        for name, (_, unit) in traced_reps[0]["layers"].items():
            series[name] = ([r["layers"][name][0] for r in traced_reps], unit)
        if plain:
            untraced = statistics.median(r["wall_raw_s"] for r in plain)
            series["trace.overhead_s"] = ([r["wall_s"] - untraced for r in traced_reps], "s")
    # a repetition that crashed counts as one failed check
    attempted = sum(r["attempted"] for r in reps) + (error is not None)
    failed = sum(r["failed"] for r in reps) + (error is not None)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes": sizes, "provenance": provenance(),
        "job_order": reps[0]["job_order"] if reps else None,
        "attempted": attempted, "failed": failed,
        "check_fail_rate": failed / attempted if attempted else None,
        "error": error,
        "setup_probes_s": probes,
        "repetitions": reps,
        "summary": {name: summary(values, unit) for name, (values, unit) in series.items()},
    }


END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--sizes", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if not (SRC / "invpat" / "__init__.py").is_file():
        print(f"error: no invpat sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.sizes)
    record["job_sizes"] = workloads.SIZES[args.sizes]
    out_dir = HERE / "runs"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-{args.sizes}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    if args.trace:
        wanted = [n for n in record["summary"] if n not in END_TO_END]
    else:
        wanted = [n for n in END_TO_END if n in record["summary"]]
    correct = record["failed"] == 0
    if record["error"]:
        print(record["error"], file=sys.stderr)
    for example in (e for r in record["repetitions"] for e in r["examples"]):
        print(f"check failed: {example}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {n: {"value": record["summary"][n]["median"],
                        "unit": record["summary"][n]["unit"]} for n in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
