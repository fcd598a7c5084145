"""jlkit benchmark: one workload per run, closed loop, verdicts gated.

Usage, from the root of a source checkout (jlkit is imported from src/):

    python3 bench/run.py --workload verify-5k --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates traced and untraced trials, reports per-layer
metrics from the traced ones and the tracing overhead from the pair, and
repeats one traced trial in a child process with min(2, available CPUs)
BLAS threads, beside the single-thread figures.  ``--seed`` picks the
order in which the pinned, reference-checked trials run; ``--offset``
shifts every workload seed to a held-out instance that has no reference,
where the gate checks internal consistency instead.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.

BLAS threads are pinned (environment variables set before numpy is
imported) to one: on a few shared vCPUs a second BLAS thread made the
run-to-run spread of trial times several times wider.  Only the
multi-thread child uses more.
Nothing pins CPUs, drops caches or touches cgroups: the figures are
medians on a shared machine.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "JLKIT_THREADS")

SETUP_REPEATS = 5       # setup_s is the median of this many cold set-ups
MIN_TRIALS = 3          # per timed group, even when --seconds runs out first
P90_MIN_TRIALS = 100    # trial_p90_s needs at least ten samples beyond it
CHILD_TIMEOUT_S = 170
REF_SHARE = 0.05        # share of each trial's time spent timing the reference kernel after it
# Relative tolerance for floats in a verdict; flags, counts and partitions
# must match the reference exactly.
REL_TOL = 1e-9

NOTE = ("Nothing pinned CPUs, dropped caches or touched cgroups; BLAS threads were pinned "
        "through environment variables only. Figures are medians on a shared machine.")

# Per-layer metrics, by the phase they are taken from.  Trial metrics are
# medians over traced trials of the per-trial sum; set-up metrics are the
# sum over the traced set-up.
TRIAL_SELF = (
    "projection.build_operator", "projection.project", "projection.save_dataset",
    "projection.load_dataset", "geometry.pairwise_sq_dists", "geometry.distortion_report",
    "kmeans.cluster_stats", "kmeans.cost_sandwich_check", "kmeans.is_lloyd_fixed_point",
    "kmeans.brute_force_optimum_sq_dists", "kmeans.brute_force_optimum",
    "kmeans.global_optimum_transfer_check", "clusterability.measure_sigma_separatedness",
    "clusterability.measure_centre_stability", "clusterability.measure_weak_deletion_stability",
    "clusterability.check_perturbation_robustness",
)
TRIAL_CALLS = ("geometry.pairwise_sq_dists", "kmeans.cluster_stats", "kmeans.brute_force_optimum_sq_dists")
SETUP_SELF = ("kmeans.lloyd", "datagen.generate", "dimension.explicit_dimension")
# name -> (span, scale): computed work over self time, divided by scale.
RATES = {
    "projection.build_operator.mb_per_s": ("projection.build_operator", 1e6),
    "projection.project.gflops": ("projection.project", 1e9),
    "geometry.pairwise_sq_dists.pairs_per_s": ("geometry.pairwise_sq_dists", 1.0),
}
MULTI_THREAD = {
    "projection.project.gflops_mt": "projection.project.gflops",
    "geometry.pairwise_sq_dists.pairs_per_s_mt": "geometry.pairwise_sq_dists.pairs_per_s",
}
ORACLE = "kmeans.brute_force_optimum_sq_dists"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("verify-5k", "sandwich-500", "oracle-14"))
    p.add_argument("--seed", type=int, default=0, help="order of the pinned trials")
    p.add_argument("--seconds", type=float, default=20.0, help="measured wall time of the trial loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--offset", type=int, default=0,
                   help="workload seed offset; nonzero means a held-out instance without reference")
    p.add_argument("--child", choices=("setup", "multi-thread"), default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.offset < 0:
        p.error("--offset must be >= 0")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def bootstrap(threads: int) -> None:
    """Pin BLAS threads and put the checkout's src/ first on the import path.

    Must run before numpy is imported; exits with code 2 when the checkout
    holds no jlkit sources.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "jlkit", "__init__.py")):
        print(f"error: no jlkit sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)


BLAS_THREADS = 1


def multi_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def provenance(wl, threads: int, seed: int, offset: int, numpy_preloaded: bool) -> dict:
    import jlkit
    import numpy as np

    try:
        # The ceiling keeps git from reporting an enclosing repository's commit.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "jlkit_version": jlkit.__version__, "git_commit": commit,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(), "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": threads, "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads_pinned_before_numpy": not numpy_preloaded,
        "workload": wl.name, "seed": seed, "offset": offset, "workload_seeds": wl.seeds(),
        "note": NOTE,
    }


def load_reference(name: str) -> list:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[name]["trials"]


def timed_setup(wl) -> float:
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def run_child(args, role: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--offset", str(args.offset), "--child", role]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Loop:
    """Closed loop of trials with the verdict gate; times exclude the gate.

    The gate, the reference comparison or the internal consistency check,
    runs after the trial's time is taken and after ``stop`` (if given) is
    called, so a tracer stopped there records no gate work either.
    """

    def __init__(self, wl, order, reference):
        self.wl, self.order, self.reference = wl, order, reference
        self.attempted = self.failed = 0
        self.used: list[int] = []

    def trial(self, stop=None) -> float | None:
        t = self.order[self.attempted % len(self.order)]
        self.attempted += 1
        self.used.append(t)
        try:
            try:
                t0 = time.perf_counter()
                verdict, check = self.wl.trial(t)
                elapsed = time.perf_counter() - t0
            finally:
                if stop is not None:
                    stop()
            problems = check() if self.reference is None else mismatches(verdict, self.reference[t])
        except Exception:  # a raising trial is a failed trial; the loop goes on
            self.failed += 1
            print(f"trial {t}: raised\n{traceback.format_exc()}", file=sys.stderr)
            return None
        if problems:
            self.failed += 1
            print(f"trial {t}: verdict mismatch: " + "; ".join(problems), file=sys.stderr)
        return elapsed


def mismatches(got: dict, want: dict) -> list[str]:
    """Differences between a trial's verdict and its reference."""
    out = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if isinstance(a, float) and isinstance(b, float):
            same = a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
        else:
            same = a == b
        if not same:
            out.append(f"{key}: got {a!r}, reference {b!r}")
    return out


def trial_order(seed: int, count: int) -> list[int]:
    import numpy as np

    return [int(i) for i in np.random.default_rng(seed).permutation(count)]


class ReferenceKernel:
    """A fixed mix of work that calls no jlkit code, timed between trials.

    The host's speed drifts by tens of percent within minutes, with no
    steal time to show for it, and trial times follow it.  This kernel's time
    follows it too, so trial time over kernel time, both medians over one
    run, cancels the drift while it still moves one for one with any change
    to jlkit.  The mix covers what the workloads do: 391,500 normal draws,
    reductions over them as a 500x783 block, a 300x300 GEMM and a Python
    loop; about 12 ms on one core.  Its arrays (about 7 MB) live only while
    it runs, between trials, so they stay under a trial's own peak RSS.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.samples: list[float] = []
        self.run()  # warm-up, not recorded

    def run(self) -> None:
        block = self.np.random.default_rng(5).standard_normal((500, 783))
        for _ in range(5):
            block.sum(axis=0)
            (block * block).sum(axis=1)
        square = block.reshape(-1)[:90_000].reshape(300, 300)
        square @ square
        sum(range(100_000))

    def time(self, budget_s: float) -> None:
        """Run the kernel once, then again while under budget_s; record each run."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.run()
            self.samples.append(time.perf_counter() - t0)
            if time.perf_counter() - start >= budget_s:
                return


def run_untraced(loop: Loop, kernel: ReferenceKernel, seconds: float) -> tuple[list[float], float]:
    """Trials in a closed loop, each followed by REF_SHARE of its time on the kernel.

    Returns the trial times and the loop's wall time without the kernel's.
    """
    times = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times) < MIN_TRIALS:
        dt = loop.trial()
        if dt is not None:
            times.append(dt)
            kernel.time(REF_SHARE * dt)
        if loop.attempted >= 10 * MIN_TRIALS and not times:
            break
    return times, time.perf_counter() - start - sum(kernel.samples)


def run_alternating(loop: Loop, tracer, seconds: float) -> tuple[dict, list[float]]:
    """Traced and untraced trials in turn, traced first; returns traced times by trial id."""
    traced, untraced = {}, []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or min(len(traced), len(untraced)) < MIN_TRIALS:
        if i % 2 == 0:
            tracer.trial = i
            tracer.install()
            dt = loop.trial(stop=tracer.uninstall)
            tracer.trial = -1
            if dt is not None:
                traced[i] = dt
        else:
            dt = loop.trial()
            if dt is not None:
                untraced.append(dt)
        i += 1
        if loop.attempted >= 10 * MIN_TRIALS and not (traced and untraced):
            break
    return traced, untraced


def layer_metrics(tracer, traced: dict, untraced: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics from the recorded spans; also returns per-trial detail."""
    from spans import self_times

    spans = tracer.spans
    selfs = self_times(spans)
    per_trial = {i: {} for i in traced}
    setup = {}
    for span, st in zip(spans, selfs):
        bucket = setup if span.trial < 0 else per_trial.get(span.trial)
        if bucket is None:
            continue
        agg = bucket.setdefault(span.name, {"self_s": 0.0, "calls": 0, "work": 0, "peak_rise_kb": 0})
        agg["self_s"] += st
        agg["calls"] += 1
        agg["work"] += span.work
        agg["peak_rise_kb"] = max(agg["peak_rise_kb"], span.peak_rise_kb)

    def med(name, key):
        return float(statistics.median(t.get(name, {}).get(key, 0) for t in per_trial.values()))

    out = {}
    for name in TRIAL_SELF:
        out[f"{name}.self_s"] = (med(name, "self_s"), "s")
    for name in TRIAL_CALLS:
        out[f"{name}.calls"] = (med(name, "calls"), "count")
    for metric, (name, scale) in RATES.items():
        work = sum(t.get(name, {}).get("work", 0) for t in per_trial.values())
        busy = sum(t.get(name, {}).get("self_s", 0.0) for t in per_trial.values())
        out[metric] = (work / busy / scale if busy > 0 else 0.0, _rate_unit(metric))
    rise = max((t.get("geometry.distortion_report", {}).get("peak_rise_kb", 0) for t in per_trial.values()),
               default=0)
    out["geometry.distortion_report.peak_rise_mb"] = (rise / 1024, "MiB")
    for name in SETUP_SELF:
        out[f"{name}.self_s"] = (setup.get(name, {}).get("self_s", 0.0), "s")
    first = next((s for s in spans if s.name == ORACLE), None)
    out[f"{ORACLE}.first_s"] = (first.duration if first else 0.0, "s")
    out[f"{ORACLE}.peak_rise_mb"] = ((first.peak_rise_kb if first else 0) / 1024, "MiB")
    covered = []
    for i, wall in traced.items():
        roots = sum(s.duration for s in spans if s.trial == i and s.parent < 0)
        covered.append(roots / wall)
    out["trace.covered_frac"] = (statistics.median(covered), "fraction")
    out["trace.overhead_frac"] = (statistics.median(traced.values()) / statistics.median(untraced) - 1.0,
                                  "fraction")
    ranked = sorted(((med(n, "self_s"), n) for n in {n for t in per_trial.values() for n in t}), reverse=True)
    return out, {"dominant_span": ranked[0][1] if ranked else None,
                 "trial_self_s_by_span": {n: v for v, n in ranked}}


def _rate_unit(metric: str) -> str:
    return {"mb_per_s": "MB/s", "gflops": "GFLOP/s", "pairs_per_s": "pairs/s"}[metric.rsplit(".", 1)[1]]


def main(argv=None) -> int:
    args = _parse(argv)
    threads = multi_threads() if args.child == "multi-thread" else BLAS_THREADS
    numpy_preloaded = "numpy" in sys.modules
    bootstrap(threads)
    from spans import Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        wl = WORKLOADS[args.workload](workdir, offset=args.offset)
        if args.child == "setup":
            print(json.dumps({"setup_s": timed_setup(wl)}))
            return 0
        reference = load_reference(wl.name) if args.offset == 0 else None
        order = trial_order(args.seed, len(reference) if reference else 64)
        loop = Loop(wl, order, reference)

        if args.child == "multi-thread":
            tracer = Tracer()
            wl.setup()
            tracer.trial = 0
            tracer.install()
            wall = loop.trial(stop=tracer.uninstall)
            if wall is None:
                print(json.dumps({"attempted": 1, "failed": 1, "metrics": {}}))
                return 0
            metrics, _ = layer_metrics(tracer, {0: wall}, [wall])
            print(json.dumps({"attempted": 1, "failed": loop.failed,
                              "metrics": {k: metrics[v][0] for k, v in MULTI_THREAD.items()}}))
            return 0

        info = {"provenance": provenance(wl, threads, args.seed, args.offset, numpy_preloaded)}
        if args.trace == 0:
            setups = [run_child(args, "setup")["setup_s"] for _ in range(SETUP_REPEATS - 1)]
            setups.append(timed_setup(wl))
            kernel = ReferenceKernel()
            times, loop_s = run_untraced(loop, kernel, args.seconds)
            if not times:
                print("error: every trial failed", file=sys.stderr)
                return 1
            kernel_s = statistics.median(kernel.samples)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "trial_p50_ref": (statistics.median(times) / kernel_s, "ref"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
            info["setup_s_samples"] = setups
            info["trial_s_samples"] = times
            info["reference_kernel_s_samples"] = kernel.samples
            info["wall"] = {"trial_p50_s": statistics.median(times), "trials_per_s": len(times) / loop_s,
                            "reference_kernel_s": kernel_s, "trials": len(times)}
            info["trial_p90_s"] = (statistics.quantiles(times, n=10)[-1] if len(times) >= P90_MIN_TRIALS
                                   else f"not reported: {len(times)} trials < {P90_MIN_TRIALS}")
        else:
            tracer = Tracer()
            tracer.install()
            wl.setup()
            tracer.uninstall()
            traced, untraced = run_alternating(loop, tracer, args.seconds)
            if not traced or not untraced:
                print("error: every trial failed", file=sys.stderr)
                return 1
            metrics, detail = layer_metrics(tracer, traced, untraced)
            multi = run_child(args, "multi-thread")
            loop.attempted += multi["attempted"]
            loop.failed += multi["failed"]
            for name, base in MULTI_THREAD.items():
                metrics[name] = (multi["metrics"].get(name, 0.0), metrics[base][1])
            info.update(detail)
            info["traced_trial_s"] = list(traced.values())
            info["untraced_trial_s"] = untraced
            info["spans"] = [vars(s) for s in tracer.spans]

        info["computed_work"] = wl.work()
        info["trials_used"] = loop.used
        info["fail_frac"] = loop.failed / loop.attempted
        result = {
            "correct": loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-offset{args.offset}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**info, "result": result}, fh, indent=1)
    print("provenance: " + json.dumps(info["provenance"]))
    print("computed work (from array sizes): " + json.dumps(info["computed_work"]))
    print(f"fail_frac: {info['fail_frac']} ({loop.failed}/{loop.attempted})")
    if args.trace == 0:
        print("wall times (not gated: they follow the host's speed): " + json.dumps(info["wall"]))
        print(f"trial_p90_s: {info['trial_p90_s']}")
    else:
        print(f"dominant span: {info['dominant_span']}")
    print(f"details -> {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
