"""
Self-tests of the benchmark at tiny sizes.

    python3 -m pytest bench -q

They show that each workload's checks pass on the real outputs, that a
corrupted output (a wrong count, a missing basis element, a broken
round trip, a wrong sweep row) raises the failure count, that the
yardstick's own time is taken out of a repetition's and the rest scaled,
that a traced run reports exactly the per-layer metrics
``BENCHMARK.json`` lists, and that the runner refuses a directory
without the package sources.
"""
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import child  # first: it puts src/ on the import path
import workloads
from invpat import bijections
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _job(workload: str, prefix: str) -> workloads.Job:
    return next(j for j in workloads.build_jobs(workload, 0, "tiny")
                if j.name.startswith(prefix))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_outputs_pass_every_check(workload):
    for job in workloads.build_jobs(workload, 0, "tiny"):
        outcome = job.check(job.run())
        assert outcome.attempted > 0, job.name
        assert outcome.failed == 0, (job.name, outcome.examples)


def test_seed_permutes_job_order_only():
    orders = {tuple(j.name for j in workloads.build_jobs("enumerate", s, "tiny"))
              for s in range(5)}
    assert len(orders) > 1
    assert len({frozenset(o) for o in orders}) == 1


def test_wrong_count_fails():
    job = _job("enumerate", "count.empty/I")
    code, text = job.run()
    wrong = text.replace("\n4\t10\n", "\n4\t11\n")
    assert wrong != text
    outcome = job.check((code, wrong))
    assert outcome.failed == 1 and outcome.failed / outcome.attempted > 0


def test_wrong_sweep_row_fails():
    job = _job("sweep", "verify-mcgovern.part1")
    code, text = job.run()
    wrong = text.replace("total=76 ", "total=77 ")
    assert wrong != text
    assert job.check((code, wrong)).failed == 1


def test_missing_basis_element_fails():
    job = _job("enumerate", "basis.123.I")
    code, text = job.run()
    lines = text.splitlines()
    assert len(lines) == 1 + 5
    outcome = job.check((code, "\n".join(lines[:-1])))
    assert outcome.failed == 1


def test_broken_round_trip_fails(monkeypatch):
    original = bijections.history_to_perm

    def corrupted(history):
        sigma = original(history)
        return sigma[::-1] if sigma == (1, 2, 3, 4) else sigma

    monkeypatch.setattr(bijections, "history_to_perm", corrupted)
    job = _job("bijections", "history")
    outcome = job.check(job.run())
    assert outcome.failed == 1 and outcome.attempted == 24 + 1


def test_yardstick_time_is_taken_out_and_the_rest_scaled(monkeypatch):
    def busy():
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass

    job = workloads.Job("busy", busy, lambda _: workloads.Outcome(1, 0, []))
    monkeypatch.setattr(workloads, "build_jobs", lambda *_: [job])
    result = child.run("sweep", 0, "tiny", traced=False, setup_only=False)
    # entry, exit and at least two timer ticks; the ticks fall inside the
    # busy loop's 0.35 s, so only their subtraction brings it below that
    assert result["yard_samples"] >= 4
    assert 0.2 < result["wall_raw_s"] < 0.35
    assert result["wall_s"] == pytest.approx(result["wall_raw_s"] * result["yard_scale"])
    assert result["cpu_s"] == pytest.approx(result["cpu_raw_s"] * result["yard_scale"])
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_add_up_to_traced_wall(workload):
    result = child.run(workload, 0, "tiny", traced=True, setup_only=False)
    layers = {name: value for name, (value, _) in result["layers"].items()}
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS) + layers["bench.self_s"]
    assert total == pytest.approx(layers["trace.wall_s"], rel=1e-6)
    # the wrappers are gone again
    assert bijections.perm_to_history.__module__ == "invpat.bijections"
    assert not hasattr(bijections.perm_to_history, "__wrapped__")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
                           "--sizes", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_runner_reports_the_listed_metrics(workload):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in listed}


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = _run(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
