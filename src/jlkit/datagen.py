"""Synthetic mixtures with controllable balance, spread, and inter-cluster gap.

Centroids sit on a regular simplex with a common pairwise distance, so
per-pair gap and balance bookkeeping is uniform.  Points are isotropic
normal draws around their centroid, rejection-filtered so that no point's
scalar projection toward a foreign centroid exceeds alpha * d with
alpha = 1 - target_gap/2 and d half the centre distance; the measured gap
therefore comes out at or above the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError, check_bytes
from .kmeans import Partition, is_lloyd_fixed_point
from .projection import Dataset

__all__ = ["MixtureSpec", "generate"]

_MAX_FIXED_POINT_ATTEMPTS = 10


@dataclass(frozen=True)
class MixtureSpec:
    k: int
    sizes: tuple[int, ...]
    dim: int
    centre_distance: float
    cluster_sigma: float
    target_gap: float
    seed: int

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if len(self.sizes) != self.k or any(s < 1 for s in self.sizes):
            raise DomainError("sizes must list one positive count per cluster")
        if self.k > 1 and self.dim < self.k - 1:
            raise DomainError(f"dim >= k-1 required for a simplex layout, got dim={self.dim}")
        if self.k > 1 and self.centre_distance <= 0.0:
            raise DomainError("centre_distance must be positive")
        if self.cluster_sigma < 0.0:
            raise DomainError("cluster_sigma must be >= 0")
        if not 0.0 < self.target_gap <= 2.0:
            raise DomainError(f"target_gap must lie in (0, 2], got {self.target_gap}")

    @property
    def m(self) -> int:
        return sum(self.sizes)


def _simplex_centroids(k: int, dim: int, distance: float) -> np.ndarray:
    """k centroids in R^dim with every pairwise distance equal to ``distance``.

    Built from scaled standard basis vectors in R^k, centred, and expressed
    in the k-1 dimensions they actually span; fits any dim >= k-1.
    """
    if k == 1:
        return np.zeros((1, dim))
    verts = np.eye(k) * (distance / np.sqrt(2.0))
    verts -= verts.mean(axis=0)
    # Orthonormal basis of the (k-1)-dimensional span, deterministic.
    q, r = np.linalg.qr(verts.T)
    coords = (verts @ q[:, : k - 1]) * np.sign(np.diag(r)[: k - 1])
    out = np.zeros((k, dim))
    out[:, : k - 1] = coords
    return out


def _sample_cluster(rng, centre, foreign_dirs, limit, sigma, out):
    # Rejection sampling into the rows of out: keep points whose projection
    # toward every foreign centroid stays below the gap limit.
    size, dim = out.shape
    filled = accepted = proposed = 0
    while filled < size:
        batch = max(size, 128)
        pts = rng.standard_normal((batch, dim))
        pts *= sigma
        pts += centre  # bit for bit centre + sigma * z
        proposed += batch
        if foreign_dirs.size:
            proj = (pts - centre) @ foreign_dirs.T
            pts = pts[np.all(proj <= limit, axis=1)]
        accepted += len(pts)
        out[filled : filled + len(pts)] = pts[: size - filled]
        filled = min(size, accepted)
        if proposed >= 200 * size and accepted < max(1, proposed // 100):
            raise InfeasibleError(
                "rejection rate above 99%: cluster_sigma too large for the target gap"
            )


def generate(spec: MixtureSpec) -> tuple[Dataset, Partition]:
    """Draw a mixture instance and its ground-truth partition.

    Deterministic in spec.seed.  When the spread is positive the
    ground-truth partition is additionally required to be a Lloyd fixed
    point of the generated data; a failing draw is freed and redrawn, up to
    10 attempts, attempt a > 0 from streams of its own (spawn key (j, a) of
    spec.seed for cluster j), so no two seeds draw from the same streams.  The
    8 m dim bytes of the points are checked against physical memory before
    any draw; each cluster's sampler writes its rows into the one output,
    so the peak is the dataset plus two of its largest rejection rounds.
    """
    check_bytes(8 * spec.m * spec.dim, f"the generated dataset of {spec.m} x {spec.dim} points")
    for attempt in range(_MAX_FIXED_POINT_ATTEMPTS):
        data, partition = _generate_once(spec, attempt)
        if spec.cluster_sigma == 0.0 or spec.k == 1 or is_lloyd_fixed_point(data, partition):
            return data, partition
        del data, partition  # freed before the next attempt is drawn
    raise InfeasibleError(
        f"ground-truth partition is not a Lloyd fixed point after "
        f"{_MAX_FIXED_POINT_ATTEMPTS} attempts from seed {spec.seed}"
    )


def _generate_once(spec: MixtureSpec, attempt: int) -> tuple[Dataset, Partition]:
    centroids = _simplex_centroids(spec.k, spec.dim, spec.centre_distance)
    alpha = 1.0 - spec.target_gap / 2.0
    half = spec.centre_distance / 2.0
    points = np.empty((spec.m, spec.dim))
    for j, rows in enumerate(np.split(points, np.cumsum(spec.sizes)[:-1])):  # views, written in place
        if spec.cluster_sigma == 0.0:
            rows[:] = centroids[j]
            continue
        key = (j, attempt) if attempt else (j,)  # the first attempt keeps its original stream
        rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=key))
        dirs = np.delete(centroids, j, axis=0) - centroids[j]
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        _sample_cluster(rng, centroids[j], dirs, alpha * half, spec.cluster_sigma, rows)
    labels = np.repeat(np.arange(spec.k), spec.sizes)
    return Dataset(points=points), Partition(assignments=labels, k=spec.k)
