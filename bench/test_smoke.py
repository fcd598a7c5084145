"""Smoke test of the benchmark: every workload's code path at toy sizes.

    python3 -m pytest -q bench/test_smoke.py

Runs in seconds.  Shows that the verdict gate passes on a fresh reference,
that one corrupted reference verdict is counted as a failed trial, that
the tracer covers each workload and restores the library afterwards, and
that the benchmark refuses to run where there are no jlkit sources.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.bootstrap(run.BLAS_THREADS)

from jlkit import kmeans  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, stirling2  # noqa: E402

TOY = {
    "verify-5k": dict(m=60, n=400, delta=0.9),
    "sandwich-500": dict(sizes=(20, 20, 10), dim=300, partitions=5, delta=0.6),
    "oracle-14": dict(sizes=(3, 3, 2), perturb_sizes=(2, 2, 2), perturbations=3),
}
DOMINANT = {
    "verify-5k": "geometry.pairwise_sq_dists",
    "sandwich-500": "kmeans.cluster_stats",
    "oracle-14": "kmeans.brute_force_optimum_sq_dists",
}


def _toy(name, tmp_path):
    wl = WORKLOADS[name](str(tmp_path), **TOY[name])
    wl.setup()
    return wl


def _flip(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, list):
        return [_flip(value[0])] + value[1:]
    return value * (1.0 + 1e-6) + 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_counts_a_corrupted_verdict(name, tmp_path):
    wl = _toy(name, tmp_path)
    reference = []
    for t in range(2):
        verdict, check = wl.trial(t)
        assert check() == []
        reference.append(json.loads(json.dumps(verdict)))

    clean = run.Loop(wl, [0, 1], reference)
    assert all(clean.trial() is not None for _ in range(4))
    assert (clean.attempted, clean.failed) == (4, 0)

    for key in reference[1]:
        corrupted = copy.deepcopy(reference)
        corrupted[1][key] = _flip(corrupted[1][key])
        loop = run.Loop(wl, [0, 1], corrupted)
        loop.trial()
        loop.trial()
        assert (loop.attempted, loop.failed) == (2, 1), key


class _HeldOut:
    """A workload whose consistency check always fails and notes whether timing had stopped."""

    def __init__(self):
        self.stopped = False
        self.checked_after_stop = []

    def trial(self, t):
        def check():
            self.checked_after_stop.append(self.stopped)
            return ["inconsistent"]

        return {}, check


def test_consistency_check_runs_after_timing_and_counts():
    wl = _HeldOut()
    loop = run.Loop(wl, [0], None)
    assert loop.trial(stop=lambda: setattr(wl, "stopped", True)) is not None
    assert (loop.attempted, loop.failed) == (1, 1)
    assert wl.checked_after_stop == [True]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_trials_cover_the_workload(name, tmp_path):
    original = kmeans.cluster_stats
    wl = WORKLOADS[name](str(tmp_path), **TOY[name])
    tracer = Tracer()
    tracer.install()
    assert kmeans.cluster_stats is not original
    wl.setup()
    tracer.uninstall()
    assert kmeans.cluster_stats is original

    loop = run.Loop(wl, [0, 1], None)
    traced, untraced = run.run_alternating(loop, tracer, seconds=0.0)
    assert loop.failed == 0 and len(traced) >= run.MIN_TRIALS
    metrics, detail = run.layer_metrics(tracer, traced, untraced)
    assert metrics["trace.covered_frac"][0] > 0.5
    assert metrics[f"{DOMINANT[name]}.self_s"][0] > 0.0
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert declared == set(metrics) | set(run.MULTI_THREAD)


def test_stirling_numbers():
    assert [stirling2(14, 3), stirling2(12, 3), stirling2(14, 2), stirling2(5, 5)] == [788970, 86526, 8191, 1]


def test_refuses_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sandwich-500", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_declared_metric(trace, capsys):
    assert run.main(["--workload", "sandwich-500", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_TRIALS
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end" if trace == 0 else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_reference_kernel_is_timed_after_each_trial_and_left_out_of_the_loop_time(tmp_path):
    wl = WORKLOADS["sandwich-500"](str(tmp_path), **TOY["sandwich-500"])
    wl.setup()
    kernel = run.ReferenceKernel()
    loop = run.Loop(wl, [0, 1], None)
    times, loop_s = run.run_untraced(loop, kernel, seconds=0.0)
    assert loop.failed == 0 and len(times) == run.MIN_TRIALS
    assert len(kernel.samples) >= len(times) and min(kernel.samples) > 0.0
    assert sum(times) <= loop_s
