"""The benchmark's workloads: inputs, set-up, one trial and its verdict.

Every workload is a closed loop of trials run from one process.  Set-up
builds the inputs once; a trial runs the work a user pays for per seed and
returns a JSON-able verdict, which the gate compares against the
reference recorded in ``reference.json``.  ``offset`` shifts every seed of
a workload by ``offset * OFFSET_STRIDE``; with a nonzero offset there is
no reference, so a trial also returns an internal consistency check,
which the caller runs after the trial's time is taken.

Each workload spends most of its time in a different layer:

- ``verify-5k``: geometry (all-pairs distances, twice per trial), then the
  projection GEMM.  Never touches kmeans.
- ``sandwich-500``: kmeans partition-cost evaluation, then the operator
  draw.  No pairwise distances.
- ``oracle-14``: the kmeans brute-force oracle and the clusterability
  measurements built on it.  Its one-time partition enumeration lands in
  set-up.

Library calls go through the module attribute (``kmeans.cluster_stats``,
not a name imported from it) so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import replace

import numpy as np

from jlkit import clusterability, datagen, dimension, geometry, kmeans, projection

OFFSET_STRIDE = 1_000_000

# Relative slack when checking that the exact optimum costs no more than
# Lloyd's local optimum on the same data.
LLOYD_SLACK = 1e-9


def _seed(base: int, offset: int) -> int:
    return base + offset * OFFSET_STRIDE


class VerifyWorkload:
    """The CLI ``gen -> project -> verify`` pipeline through binary files.

    Set-up writes m standard-normal points in R^n to a binary file; each
    trial loads it, draws an operator, projects, writes and re-reads the
    projection, and checks every pair against the band.
    """

    name = "verify-5k"

    def __init__(self, workdir: str, offset: int = 0, m: int = 5000, n: int = 5000,
                 epsilon: float = 0.1, delta: float = 0.2):
        self.m, self.n, self.epsilon, self.delta = m, n, epsilon, delta
        self.data_seed = _seed(2024, offset)
        self.trial_seed = _seed(1000, offset)
        self.original_path = os.path.join(workdir, "original.bin")
        self.projected_path = os.path.join(workdir, "projected.bin")
        self.n_prime = 0

    def setup(self) -> None:
        self.n_prime = dimension.explicit_dimension(self.m, self.epsilon, self.delta)
        points = np.random.default_rng(self.data_seed).standard_normal((self.m, self.n))
        projection.save_dataset(projection.Dataset(points), self.original_path)

    def trial(self, t: int) -> tuple[dict, Callable[[], list[str]]]:
        original = projection.load_dataset(self.original_path)
        op = projection.build_operator(self.n, self.n_prime, self.trial_seed + t)
        projection.save_dataset(projection.project(op, original), self.projected_path)
        projected = projection.load_dataset(self.projected_path)
        report = geometry.distortion_report(original, projected, self.delta)
        q = report.quotients
        verdict = {"violations": report.violations, "success": report.success,
                   "q_min": float(q.min()), "q_max": float(q.max())}

        def check() -> list[str]:
            problems = []
            lo, hi = report.band
            outside = int(np.count_nonzero((q < lo) | (q > hi)))
            if outside != report.violations:
                problems.append(f"violations={report.violations} but {outside} quotients lie outside the band")
            if report.success != (report.violations == 0):
                problems.append(f"success={report.success} with {report.violations} violations")
            return problems

        return verdict, check

    def work(self) -> dict:
        m, n, n_prime = self.m, self.n, self.n_prime
        return {"gemm_flop": 2 * m * n * n_prime, "operator_bytes": 8 * n_prime * n,
                "pairs_per_space": m * (m - 1) // 2, "pair_spaces": 2}

    def seeds(self) -> dict:
        return {"data": self.data_seed, "operator": f"{self.trial_seed} + t"}


class SandwichWorkload:
    """Cost sandwich and fixed-point transfer, as ``jlkit kmeans-compare`` runs them.

    Set-up draws the mixture, runs Lloyd, draws 100 random partitions with
    k in 2..5 and takes the cost of all 101 on the original data; each trial
    draws an operator, projects, and checks every partition's cost in the
    projected space against the band, plus the Lloyd fixed point.
    """

    name = "sandwich-500"

    def __init__(self, workdir: str, offset: int = 0, sizes=(200, 200, 100), dim: int = 2000,
                 partitions: int = 100, epsilon: float = 0.1, delta: float = 0.3):
        self.epsilon, self.delta, self.partitions = epsilon, delta, partitions
        self.spec = datagen.MixtureSpec(
            k=3, sizes=tuple(sizes), dim=dim, centre_distance=20.0,
            cluster_sigma=1.5, target_gap=0.5, seed=_seed(42, offset),
        )
        self.partition_seed = _seed(4242, offset)
        self.trial_seed = _seed(5000, offset)
        self.n_prime = 0

    def setup(self) -> None:
        self.data, _ = datagen.generate(self.spec)
        self.n_prime = dimension.explicit_dimension(self.data.m, self.epsilon, self.delta)
        self.lloyd_partition, _ = kmeans.lloyd(self.data, 3, init=0)
        rng = np.random.default_rng(self.partition_seed)
        self.all_partitions = [self.lloyd_partition]
        for _ in range(self.partitions):
            k = int(rng.integers(2, 6))
            while True:
                labels = rng.integers(0, k, size=self.data.m)
                if np.unique(labels).size == k:
                    break
            self.all_partitions.append(kmeans.Partition(assignments=labels, k=k))
        self.stats_original = [kmeans.cluster_stats(self.data, p) for p in self.all_partitions]

    def trial(self, t: int) -> tuple[dict, Callable[[], list[str]]]:
        op = projection.build_operator(self.data.dim, self.n_prime, self.trial_seed + t)
        projected = projection.project(op, self.data)
        results = [
            kmeans.cost_sandwich_check(s, kmeans.cluster_stats(projected, p),
                                       self.data.dim, self.n_prime, self.delta)
            for p, s in zip(self.all_partitions, self.stats_original)
        ]
        fixed = kmeans.is_lloyd_fixed_point(projected, self.lloyd_partition)
        verdict = {"sandwich": [r.passed for r in results], "fixed_point": fixed}

        def check() -> list[str]:
            return [f"partition {i}: passed={r.passed} with margins {r.lower_margin:.6g}, {r.upper_margin:.6g}"
                    for i, r in enumerate(results)
                    if r.passed != (r.lower_margin >= 0.0 and r.upper_margin >= 0.0)]

        return verdict, check

    def work(self) -> dict:
        m, n, n_prime = self.spec.m, self.spec.dim, self.n_prime
        return {"gemm_flop": 2 * m * n * n_prime, "operator_bytes": 8 * n_prime * n,
                "partitions_per_trial": len(self.all_partitions)}

    def seeds(self) -> dict:
        return {"mixture": self.spec.seed, "lloyd_init": 0, "partitions": self.partition_seed,
                "operator": f"{self.trial_seed} + t"}


class OracleWorkload:
    """Exact-oracle clusterability at the oracle's documented limit.

    Set-up draws the m-point mixture and a smaller instance of the same
    spec for the perturbation check (which refuses m > 12), then measures
    the original's parameters as the CLI does; the brute-force oracle's
    partition enumeration, done once per process, is paid there.  Each
    trial projects both instances with one operator and measures the
    parameters and transfer flags in the projected space.
    """

    name = "oracle-14"

    def __init__(self, workdir: str, offset: int = 0, sizes=(5, 5, 4), perturb_sizes=(4, 4, 4),
                 dim: int = 500, perturbations: int = 30, epsilon: float = 0.1, delta: float = 0.3):
        self.epsilon, self.delta, self.perturbations = epsilon, delta, perturbations
        self.spec = datagen.MixtureSpec(
            k=3, sizes=tuple(sizes), dim=dim, centre_distance=10.0,
            cluster_sigma=0.05, target_gap=1.0, seed=_seed(33, offset),
        )
        self.perturb_spec = replace(self.spec, sizes=tuple(perturb_sizes))
        self.perturb_setup_seed = _seed(1, offset)
        self.perturb_seed = _seed(100, offset)
        self.trial_seed = _seed(3000, offset)
        self.n_prime = 0
        self.shrink = (1.0 - delta) / (1.0 + delta)

    def setup(self) -> None:
        k = self.spec.k
        self.data, _ = datagen.generate(self.spec)
        self.small, _ = datagen.generate(self.perturb_spec)
        self.n_prime = dimension.explicit_dimension(self.data.m, self.epsilon, self.delta)
        self.sigma = clusterability.measure_sigma_separatedness(self.data, k)
        opt, _ = kmeans.brute_force_optimum(self.data, k)
        self.beta = clusterability.measure_centre_stability(self.data, opt)
        self.deletion = clusterability.measure_weak_deletion_stability(self.data, k)
        # Perturbation-robustness precondition in the original space, as in
        # the clusterability-transport acceptance criterion.
        s_sq = clusterability.required_mult_perturb_s(0.9, 0.95, self.delta)
        clusterability.check_perturbation_robustness(
            self.small, k, math.sqrt(s_sq), trials=self.perturbations, seed=self.perturb_setup_seed)

    def trial(self, t: int) -> tuple[dict, Callable[[], list[str]]]:
        k = self.spec.k
        op = projection.build_operator(self.spec.dim, self.n_prime, self.trial_seed + t)
        projected = projection.project(op, self.data)
        small = projection.project(op, self.small)
        sigma = clusterability.measure_sigma_separatedness(projected, k)
        part, stats = kmeans.brute_force_optimum(projected, k)
        beta = clusterability.measure_centre_stability(projected, part)
        deletion = clusterability.measure_weak_deletion_stability(projected, k)
        transfer = kmeans.global_optimum_transfer_check(self.data, projected, k, self.delta)
        robust = clusterability.check_perturbation_robustness(
            small, k, math.sqrt(0.9), trials=self.perturbations, seed=self.perturb_seed + t)
        verdict = {
            "partition": kmeans.canonical_labels(part.assignments).tolist(),
            "sigma": sigma, "beta": beta, "deletion": deletion,
            "sigma_ok": sigma <= self.sigma / math.sqrt(self.shrink),
            "beta_ok": beta >= self.beta * math.sqrt(self.shrink),
            "deletion_ok": deletion >= self.deletion * self.shrink,
            "forward_ok": transfer.forward_ok, "reverse_ok": transfer.reverse_ok,
            "perturbation_ok": robust,
        }

        def check() -> list[str]:
            _, lloyd_stats = kmeans.lloyd(projected, k, init=0)
            if stats.cost > lloyd_stats.cost * (1.0 + LLOYD_SLACK):
                return [f"oracle cost {stats.cost:.12g} exceeds Lloyd's {lloyd_stats.cost:.12g}"]
            return []

        return verdict, check

    def work(self) -> dict:
        m, n, n_prime = self.spec.m, self.spec.dim, self.n_prime
        k, small = self.spec.k, self.perturb_spec.m
        return {"gemm_flop": 2 * (m + small) * n * n_prime, "operator_bytes": 8 * n_prime * n,
                f"partitions_per_oracle_call_m{m}_k{k}": stirling2(m, k),
                f"partitions_per_oracle_call_m{small}_k{k}": stirling2(small, k)}

    def seeds(self) -> dict:
        return {"mixture": self.spec.seed, "perturbation_setup": self.perturb_setup_seed,
                "perturbation": f"{self.perturb_seed} + t", "operator": f"{self.trial_seed} + t"}


WORKLOADS = {w.name: w for w in (VerifyWorkload, SandwichWorkload, OracleWorkload)}


def stirling2(m: int, k: int) -> int:
    """Number of partitions of m items into k nonempty blocks, S(m, k)."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1)) // math.factorial(k)
