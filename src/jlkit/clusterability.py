"""Clusterability parameters: exact measurement and projection transport.

Five notions are covered.  sigma-separatedness (OPT_k < sigma^2 OPT_{k-1}),
(c, sigma)-approximation stability, beta-centre stability, (1+beta) weak
deletion stability, and s-multiplicative perturbation robustness of the
squared-distance metric.  Measurements rely on the exact brute-force
optimum, so they are limited to small instances; the transport formulas
predict how each parameter degrades after a random projection with
squared-distance distortion delta:

    sigma' = sigma sqrt((1+d)/(1-d))          (larger is worse)
    c'     = c (1-d)/(1+d)                    (smaller is worse)
    beta'  = beta sqrt((1-d)/(1+d))           (smaller is worse)
    (1+beta)' = (1+beta)(1-d)/(1+d)           (smaller is worse)

Perturbation robustness transports in the inverted direction: to obtain
s_p in the projected space with slack nu, the original space must satisfy
s <= s_p nu (1-d)^2 / (1+d); see ``required_mult_perturb_s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kmeans, oracle
from .errors import DegenerateDataError, DomainError
from .geometry import sq_dist_matrix, sq_dists_to
from .kmeans import Partition, brute_force_optimum, cluster_stats
from .projection import Dataset, projections

__all__ = [
    "ClusterabilityParams",
    "measure",
    "transport",
    "transport_trials",
    "required_mult_perturb_s",
    "measure_sigma_separatedness",
    "measure_centre_stability",
    "measure_weak_deletion_stability",
    "check_perturbation_robustness",
]


@dataclass
class ClusterabilityParams:
    """Any subset of the four transported parameters; None marks 'not specified'.

    One record serves an instance's parameters, their predicted values
    after projection and the values measured there; ``transport`` checks
    the domains of its input, since a prediction may leave them.
    """

    sigma_separatedness: float | None = None          # in (0, 1)
    approx_stability: tuple[float, float] | None = None  # (c > 1, sigma)
    centre_stability_beta: float | None = None        # > 1
    weak_deletion_beta: float | None = None           # beta > 0, ratio is 1 + beta


def transport(before: ClusterabilityParams, delta: float) -> ClusterabilityParams:
    """Predict every specified parameter after projection at distortion delta.

    ``before`` must lie in the parameters' domains (a ``DomainError``
    otherwise); the prediction may leave them (c' <= 1, beta' <= 1,
    (1+beta)' <= 1), the property then becoming vacuous.
    """
    if not 0.0 <= delta < 0.5:
        raise DomainError(f"delta must lie in [0, 1/2), got {delta}")
    b = before
    if b.sigma_separatedness is not None and not 0.0 < b.sigma_separatedness < 1.0:
        raise DomainError("sigma-separatedness must lie in (0, 1)")
    if b.approx_stability is not None and b.approx_stability[0] <= 1.0:
        raise DomainError("approximation-stability factor c must exceed 1")
    if b.centre_stability_beta is not None and b.centre_stability_beta <= 1.0:
        raise DomainError("centre-stability beta must exceed 1")
    if b.weak_deletion_beta is not None and b.weak_deletion_beta <= 0.0:
        raise DomainError("weak-deletion beta must be positive")
    shrink = (1.0 - delta) / (1.0 + delta)
    out = ClusterabilityParams()
    if b.sigma_separatedness is not None:
        out.sigma_separatedness = b.sigma_separatedness / math.sqrt(shrink)
    if b.approx_stability is not None:
        c, sig = b.approx_stability
        out.approx_stability = (c * shrink, sig)
    if b.centre_stability_beta is not None:
        out.centre_stability_beta = b.centre_stability_beta * math.sqrt(shrink)
    if b.weak_deletion_beta is not None:
        out.weak_deletion_beta = (1.0 + b.weak_deletion_beta) * shrink - 1.0
    return out


def required_mult_perturb_s(s_p: float, nu: float, delta: float) -> float:
    """Original-space s guaranteeing s_p-robustness after projection.

    Given the target squared-distance perturbation factor s_p and slack nu
    (both in (0, 1)), the original space must be sqrt(s)-multiplicative
    perturbation robust with s <= s_p * nu * (1-delta)^2 / (1+delta).
    Holds with probability at least 1 - 2 epsilon (two data sets are
    projected in the argument).
    """
    if not 0.0 < s_p < 1.0 or not 0.0 < nu < 1.0:
        raise DomainError("s_p and nu must lie in (0, 1)")
    if not 0.0 <= delta < 0.5:
        raise DomainError(f"delta must lie in [0, 1/2), got {delta}")
    return s_p * nu * (1.0 - delta) ** 2 / (1.0 + delta)


def measure_sigma_separatedness(data: Dataset, k: int) -> float:
    """sqrt(OPT_k / OPT_{k-1}); the instance is sigma-separated for any larger sigma."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    _, stats_k = brute_force_optimum(data, k)
    _, stats_k1 = brute_force_optimum(data, k - 1)
    if stats_k1.cost <= 0.0:
        raise DegenerateDataError(
            f"optimal cost at k-1={k - 1} is zero; the data occupy at most {k - 1} locations"
        )
    return math.sqrt(stats_k.cost / stats_k1.cost)


def measure_centre_stability(data: Dataset, partition: Partition) -> float:
    """beta = min over points of (distance to nearest foreign centroid) / (own distance).

    Points coincident with their centroid contribute no constraint.
    Returns inf when every point sits on its centroid.  A value <= 1
    means the partition is not centre-stable at all.
    """
    stats = cluster_stats(data, partition)
    if partition.k < 2:
        raise DomainError("centre stability needs at least two clusters")
    dist = np.sqrt(sq_dists_to(data.points, stats.centroids))
    own = dist[np.arange(data.m), partition.assignments]
    dist[np.arange(data.m), partition.assignments] = np.inf  # only foreign centroids remain
    with np.errstate(divide="ignore"):
        ratios = np.where(own > 0.0, dist.min(axis=1) / own, np.inf)
    return float(ratios.min())


def measure_weak_deletion_stability(data: Dataset, k: int) -> float:
    """Cheapest deletion-and-merge cost divided by OPT.

    Deletes each optimal centre j in turn, reassigns all of cluster j to a
    receiving cluster r and recomputes centroids.  That raises the cost by
    exactly m_j m_r / (m_j + m_r) ||mu_j - mu_r||^2 (the merge identity of
    ``kmeans.var_merge``), so the ratio is (OPT + smallest rise) / OPT,
    from the sizes and the k x k centroid distances of the optimum.  Those
    stats come from the points minus their first row: centroids near the
    origin keep the digits of their differences that centroids of data far
    from it lose.  The instance is (1+beta)-weak-deletion stable for any
    1 + beta below the returned ratio; coincident centroids give 1.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    partition, _ = brute_force_optimum(data, k)
    stats = cluster_stats(Dataset(points=data.points - data.points[0]), partition)
    if stats.cost <= 0.0:
        raise DegenerateDataError("optimal cost is zero; deletion ratio undefined")
    m = stats.sizes
    rise = m[:, None] * m / (m[:, None] + m) * sq_dist_matrix(stats.centroids)
    np.fill_diagonal(rise, np.inf)
    return (stats.cost + float(rise.min())) / stats.cost


def measure(data: Dataset, k: int) -> ClusterabilityParams:
    """sigma-separatedness, the optimum's centre stability and weak-deletion beta (ratio - 1)."""
    return ClusterabilityParams(
        sigma_separatedness=measure_sigma_separatedness(data, k),
        centre_stability_beta=measure_centre_stability(data, brute_force_optimum(data, k)[0]),
        weak_deletion_beta=measure_weak_deletion_stability(data, k) - 1.0,
    )


def transport_trials(
    data: Dataset, k: int, n_prime: int, trials: int, base_seed: int, orthonormalize: bool = False
) -> list[ClusterabilityParams]:
    """``measure`` of each projection that ``projections`` draws, in seed order base_seed + t."""
    return [measure(projected, k)
            for _, projected in projections(data, n_prime, trials, base_seed, orthonormalize)]


def check_perturbation_robustness(
    data: Dataset, k: int, s: float, trials: int, seed: int
) -> bool:
    """One-sided falsification test of s-multiplicative perturbation robustness.

    Draws ``trials`` random symmetric factor matrices with entries uniform
    in (s, 1/s), applies them to the pairwise distances, and recomputes
    the exact optimum under each perturbed metric (using the
    distance-matrix cost, since perturbed distances need not embed in
    Euclidean space).  Returns True when every trial reproduces the
    unperturbed optimal partition up to relabeling.

    Every perturbed squared distance lies within [s^2, 1/s^2] of its
    original, and so does every partition's cost.  The rivals, the
    partitions costing at most 1/s^4 times the optimum (1 + 1e-9), are
    counted once by ``oracle.count_within``; a non-rival costs more than
    the optimum under every perturbation, so it can never win a trial.
    When the optimum is its own only rival, True is a proof of robustness
    and no factors are drawn; otherwise it is evidence, not a proof.  Each
    trial takes ``oracle.optimum`` of the perturbed metric against a bound
    of 1/s^2 times the optimum, which the perturbed optimum never exceeds.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if data.m > 12:
        raise DomainError("perturbation check limited to m <= 12")
    sq = sq_dist_matrix(data.points)
    reference, best = kmeans.brute_force_optimum_sq_dists(sq, k)
    # Every cost term is non-negative, so rounding stays near m^2 eps of the
    # exact costs, far inside the 1e-9 slack.  s is divided out one factor at
    # a time: s**4 underflows to 0 from about s = 1e-81 down.
    bound = (1.0 + 1e-9) * best
    if oracle.count_within(sq, k, bound / s / s / s / s) <= 1:
        return True
    rng = np.random.default_rng(seed)
    m = data.m
    iu = np.triu_indices(m, 1)
    for _ in range(trials):
        factors = np.ones((m, m))
        factors[iu] = rng.uniform(s, min(1.0 / s, np.finfo(float).max), size=iu[0].size)  # 1/s may be inf
        with np.errstate(over="ignore"):  # an inf perturbed distance is valid oracle input
            # Factors act on distances, costs use squares; a zero distance stays 0, never 0 * inf.
            perturbed = np.multiply(sq, (factors * factors.T) ** 2, out=np.zeros_like(sq), where=sq > 0.0)
        if not np.array_equal(oracle.optimum(perturbed, k, bound / s / s)[0], reference.assignments):
            return False
    return True
