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

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import kmeans
from .errors import DegenerateDataError, DomainError
from .geometry import sq_dist_matrix, sq_dists_to
from .kmeans import Partition, brute_force_optimum, cluster_stats
from .projection import Dataset, build_operator, project

__all__ = [
    "ClusterabilityParams",
    "TransportReport",
    "TransportedParams",
    "TransportTrial",
    "transport",
    "transport_trials",
    "required_mult_perturb_s",
    "measure_sigma_separatedness",
    "measure_centre_stability",
    "measure_weak_deletion_stability",
    "check_perturbation_robustness",
    "write_transport_csv",
]


@dataclass
class ClusterabilityParams:
    """Any subset of the five parameters; None marks 'not specified'."""

    sigma_separatedness: float | None = None          # in (0, 1)
    approx_stability: tuple[float, float] | None = None  # (c > 1, sigma)
    centre_stability_beta: float | None = None        # > 1
    weak_deletion_beta: float | None = None           # beta > 0, ratio is 1 + beta
    mult_perturb_s: float | None = None               # in (0, 1)

    def __post_init__(self):
        if self.sigma_separatedness is not None and not 0.0 < self.sigma_separatedness < 1.0:
            raise DomainError("sigma-separatedness must lie in (0, 1)")
        if self.approx_stability is not None and self.approx_stability[0] <= 1.0:
            raise DomainError("approximation-stability factor c must exceed 1")
        if self.centre_stability_beta is not None and self.centre_stability_beta <= 1.0:
            raise DomainError("centre-stability beta must exceed 1")
        if self.weak_deletion_beta is not None and self.weak_deletion_beta <= 0.0:
            raise DomainError("weak-deletion beta must be positive")
        if self.mult_perturb_s is not None and not 0.0 < self.mult_perturb_s < 1.0:
            raise DomainError("perturbation-robustness s must lie in (0, 1)")


@dataclass
class TransportReport:
    before: ClusterabilityParams
    predicted_after: "TransportedParams"
    measured_after: "TransportedParams | None" = None


@dataclass
class TransportedParams:
    """Predicted post-projection values; fields can leave their definition domain.

    ``degraded`` flags parameters whose transported value no longer
    satisfies the defining threshold (c' <= 1, beta' <= 1, (1+beta)' <= 1):
    the property becomes vacuous rather than erroneous.
    """

    sigma_separatedness: float | None = None
    approx_stability: tuple[float, float] | None = None
    centre_stability_beta: float | None = None
    weak_deletion_beta: float | None = None
    mult_perturb_s: float | None = None
    degraded: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TransportTrial:
    seed: int               # operator seed of the projection
    sigma: float            # measured on the projection: sigma-separatedness,
    beta: float             # centre stability of its optimum,
    deletion_ratio: float   # and the weak-deletion ratio


def transport(before: ClusterabilityParams, delta: float) -> TransportedParams:
    """Predict every specified parameter after projection at distortion delta.

    Perturbation robustness has no forward map (the theorem states a
    precondition on the original space, see ``required_mult_perturb_s``),
    so ``mult_perturb_s`` is left unset in the prediction.
    """
    if not 0.0 <= delta < 0.5:
        raise DomainError(f"delta must lie in [0, 1/2), got {delta}")
    shrink = (1.0 - delta) / (1.0 + delta)
    out = TransportedParams()
    if before.sigma_separatedness is not None:
        out.sigma_separatedness = before.sigma_separatedness / math.sqrt(shrink)
        out.degraded["sigma_separatedness"] = out.sigma_separatedness >= 1.0
    if before.approx_stability is not None:
        c, sig = before.approx_stability
        out.approx_stability = (c * shrink, sig)
        out.degraded["approx_stability"] = out.approx_stability[0] <= 1.0
    if before.centre_stability_beta is not None:
        out.centre_stability_beta = before.centre_stability_beta * math.sqrt(shrink)
        out.degraded["centre_stability_beta"] = out.centre_stability_beta <= 1.0
    if before.weak_deletion_beta is not None:
        ratio = (1.0 + before.weak_deletion_beta) * shrink
        out.weak_deletion_beta = ratio - 1.0
        out.degraded["weak_deletion_beta"] = ratio <= 1.0
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


def transport_trials(
    data: Dataset, k: int, n_prime: int, trials: int, base_seed: int
) -> list[TransportTrial]:
    """Measure sigma, beta and the deletion ratio under projections with seeds base_seed + t."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    records = []
    for seed in range(base_seed, base_seed + trials):
        projected = project(build_operator(data.dim, n_prime, seed), data)
        sigma = measure_sigma_separatedness(projected, k)
        partition, _ = brute_force_optimum(projected, k)
        records.append(TransportTrial(seed, sigma, measure_centre_stability(projected, partition),
                                      measure_weak_deletion_stability(projected, k)))
    return records


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
    original, and so does every partition's cost.  A partition costing
    more than 1/s^4 times the optimum therefore costs more than the
    optimum under every perturbation: only the rest, the rivals, are
    costed per trial, from one enumeration of the unperturbed instance.
    When the optimum is its own only rival, True is a proof of
    robustness and no factors are drawn; otherwise it is evidence, not
    a proof.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if data.m > 12:
        raise DomainError("perturbation check limited to m <= 12")
    sq = sq_dist_matrix(data.points)
    _, best = kmeans.brute_force_optimum_sq_dists(sq, k)
    masks = kmeans._partition_masks(data.m, k)
    block_cost = kmeans._block_costs(sq)
    # Every cost term is non-negative, so rounding stays near m eps of the
    # exact costs, far inside the 1e-9 slack.
    near = [start + np.flatnonzero(s**4 * costs <= (1.0 + 1e-9) * best)
            for start, costs in kmeans._chunk_costs(block_cost, masks)]
    keep = np.concatenate(near)
    # Every partition a rival: use the cached table, not a copy (15.1 MiB at (12, 6)).
    rivals = masks if keep.size == masks.shape[1] else masks[:, keep]
    if rivals.shape[1] <= 1:
        return True
    # Rivals keep the enumeration order, so the first perturbed minimum
    # among them is the first overall, as a full enumeration finds it.
    reference = kmeans._first_minimum(block_cost, rivals)[0]
    rng = np.random.default_rng(seed)
    m = data.m
    iu = np.triu_indices(m, 1)
    for _ in range(trials):
        factors = np.ones((m, m))
        draw = rng.uniform(s, 1.0 / s, size=iu[0].size)
        factors[iu] = draw
        factors[(iu[1], iu[0])] = draw
        perturbed_sq = sq * factors**2  # factors act on distances, costs use squares
        if kmeans._first_minimum(kmeans._block_costs(perturbed_sq), rivals)[0] != reference:
            return False
    return True


def write_transport_csv(report: TransportReport, path: str) -> None:
    """Serialize a transport report: (parameter, before, predicted_after, measured_after, bound_ok)."""
    rows = []

    def add(name, before, predicted, measured, better_when):
        if before is None:
            return
        ok = ""
        if measured is not None and predicted is not None:
            ok = str(measured <= predicted if better_when == "low" else measured >= predicted)
        rows.append([name, _fmt(before), _fmt(predicted), _fmt(measured), ok])

    b, p = report.before, report.predicted_after
    meas = report.measured_after or TransportedParams()
    add("sigma_separatedness", b.sigma_separatedness, p.sigma_separatedness,
        meas.sigma_separatedness, "low")
    add("approx_stability_c", None if b.approx_stability is None else b.approx_stability[0],
        None if p.approx_stability is None else p.approx_stability[0],
        None if meas.approx_stability is None else meas.approx_stability[0], "high")
    add("centre_stability_beta", b.centre_stability_beta, p.centre_stability_beta,
        meas.centre_stability_beta, "high")
    add("weak_deletion_beta", b.weak_deletion_beta, p.weak_deletion_beta,
        meas.weak_deletion_beta, "high")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "before", "predicted_after", "measured_after",
                         "theorem_bound_satisfied"])
        writer.writerows(rows)


def _fmt(value) -> str:
    return "" if value is None else f"{value:.10g}"
