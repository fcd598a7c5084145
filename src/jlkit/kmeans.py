"""Lloyd's k-means, an exact small-instance oracle, and projection transfer checks.

Cost convention: J(Q, C) = sum_i ||x_i - mu(C(i))||^2, equivalently
sum_j |C_j| * VAR(C_j).  The brute-force oracle evaluates the same cost
through the pairwise identity sum_{i in C} ||x_i - mu||^2 =
(1/|C|) sum_{i<j in C} ||x_i - x_j||^2, which also generalizes k-means
to bare distance matrices (needed for metric perturbation checks).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DomainError, NumericalError, ShapeError
from .geometry import sq_dist_matrix, sq_dists_to
from .projection import Dataset, build_operator, project

__all__ = [
    "Partition",
    "ClusterStats",
    "PairBalance",
    "GapMeasure",
    "SandwichResult",
    "SandwichTrial",
    "GlobalTransferResult",
    "cluster_stats",
    "random_partition",
    "lloyd",
    "brute_force_optimum",
    "brute_force_optimum_sq_dists",
    "partition_cost_sq_dists",
    "cost_sandwich_check",
    "sandwich_trials",
    "var_merge",
    "var_merge_clusters",
    "balance_quotient",
    "pair_balance",
    "is_lloyd_fixed_point",
    "measure_gap",
    "global_optimum_transfer_check",
    "canonical_labels",
    "same_partition",
    "save_partition",
    "load_partition",
]

BRUTE_FORCE_MAX_POINTS = 14


@dataclass
class Partition:
    """Assignment of m points to clusters 0..k-1; every cluster nonempty."""

    assignments: np.ndarray
    k: int

    def __post_init__(self):
        self.assignments = np.asarray(self.assignments, dtype=np.int64)
        if self.assignments.ndim != 1:
            raise ShapeError("assignments must be a 1-D vector")
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        present = np.unique(self.assignments)
        if present.min() < 0 or present.max() >= self.k:
            raise DomainError("cluster indices must lie in [0, k)")
        if present.size != self.k:
            raise DomainError("every cluster must contain at least one point")

    @property
    def m(self) -> int:
        return self.assignments.size

    def members(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == j)


@dataclass(frozen=True)
class ClusterStats:
    """Per-cluster centroids, sizes and variances, plus the total cost."""

    centroids: np.ndarray   # k x d
    sizes: np.ndarray       # k
    variances: np.ndarray   # k, VAR(C_j) = mean squared deviation
    cost: float             # sum_j sizes[j] * variances[j]


@dataclass(frozen=True)
class PairBalance:
    p: float                # max of the pairwise quotient
    per_pair: np.ndarray    # k x k, upper triangle filled, NaN elsewhere


@dataclass(frozen=True)
class GapMeasure:
    per_pair_alpha: np.ndarray  # k x k, alpha of ordered pair (row -> col)
    g: float                    # 2 * (1 - max alpha)
    d_halfdist: np.ndarray      # k x k half distances between centroids


@dataclass(frozen=True)
class SandwichResult:
    passed: bool
    lower_margin: float   # (n/n') J' - (1-delta) J
    upper_margin: float   # (1+delta) J - (n/n') J'
    quotient: float       # (n/n') J' / J, inf when J == 0 and J' > 0


@dataclass(frozen=True)
class SandwichTrial:
    seed: int
    passed: bool                          # every partition's cost inside the band
    quotient_range: tuple[float, float]   # smallest and largest (n/n') J' / J
    first_cost: float                     # (n/n') J' of the first partition
    fixed_point: bool                     # the first partition is a Lloyd fixed point


@dataclass(frozen=True)
class GlobalTransferResult:
    forward_ok: bool      # (n/n') OPT' <= (1+delta) OPT
    forward_margin: float
    reverse_ok: bool      # (n'/n) OPT <= OPT' / (1-delta)
    reverse_margin: float


# Blocks whose sum of squared norms exceeds this multiple of the expanded
# cost are recomputed by direct difference: on random blocks the expansion
# is within 1e-12 relative of direct difference at a ratio of 1e2, not 1e3.
_CANCELLATION_RATIO = 100.0


def _block_sums(points: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The k x m 0/1 block indicator, the block sizes and each block's row
    # sum (one GEMM); no row is copied.
    onehot = (labels == np.arange(k)[:, None]).astype(np.float64)
    return onehot, np.bincount(labels, minlength=k), onehot @ points


def cluster_stats(data: Dataset, partition: Partition) -> ClusterStats:
    """Centroids, sizes, variances and cost of a partition.

    Each block's cost is sum |x|^2 - |sum x|^2 / n, from two passes over
    the data: a GEMM for the block sums, a matrix-vector product for the
    squared norms.  A block where that expansion cancels (sum |x|^2 more
    than 100 times the cost, as for tight clusters far from the origin)
    is recomputed by direct difference from its centroid, and a block of
    bitwise-equal rows gets that row as centroid and cost exactly 0
    (the detect-and-repair scheme of Chan, Golub and LeVeque, 1983).
    """
    if partition.m != data.m:
        raise ShapeError(f"partition covers {partition.m} points, dataset has {data.m}")
    points, labels = data.points, partition.assignments
    onehot, sizes, sums = _block_sums(points, labels, partition.k)
    centroids = sums / sizes[:, None]
    # Squared norms past the float range make total or costs inf or NaN;
    # the negated test below repairs those blocks too.
    with np.errstate(over="ignore", invalid="ignore"):
        total = onehot @ np.einsum("ij,ij->i", points, points)
        costs = np.maximum(total - np.einsum("ij,ij->i", sums, centroids), 0.0)
    for j in np.flatnonzero(~(total <= _CANCELLATION_RATIO * costs)):
        block = points[labels == j]
        if np.all(block == block[0]):
            centroids[j], costs[j] = block[0], 0.0
        else:
            diff = block - centroids[j]
            costs[j] = np.einsum("ij,ij->", diff, diff)
    variances = costs / sizes
    cost = float(np.dot(sizes, variances))
    return ClusterStats(centroids=centroids, sizes=sizes, variances=variances, cost=cost)


def random_partition(rng: np.random.Generator, m: int, k: int) -> Partition:
    """Uniform labels in 0..k-1 for m points, redrawn until every cluster is nonempty."""
    while True:
        labels = rng.integers(0, k, size=m)
        if np.unique(labels).size == k:
            return Partition(assignments=labels, k=k)


def _repair_empty(sq: np.ndarray, assignments: np.ndarray, k: int) -> np.ndarray:
    # Reseed each empty cluster with the point farthest from its own centroid
    # by the m x k squared distances sq; distinct points for distinct clusters.
    empties = [j for j in range(k) if not np.any(assignments == j)]
    if empties:
        own = sq[np.arange(len(sq)), assignments]
        assignments[np.argsort(-own)[: len(empties)]] = empties
    return assignments


def lloyd(
    data: Dataset,
    k: int,
    init: Partition | int | None = None,
    max_iters: int = 300,
) -> tuple[Partition, ClusterStats]:
    """Lloyd iteration until assignments stabilize or max_iters.

    ``init`` is either a Partition, an integer seed for plain uniform
    seeding (k distinct data points as starting centroids), or None for
    seed 0.  Cost is checked to be non-increasing at every step; a rise
    raises NumericalError.
    """
    if k > data.m:
        raise DomainError(f"k={k} exceeds number of points m={data.m}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    points = data.points
    if isinstance(init, Partition):
        if init.m != data.m or init.k != k:
            raise ShapeError("initial partition does not match data or k")
        assignments = init.assignments.copy()
        centroids = cluster_stats(data, init).centroids
    else:
        rng = np.random.default_rng(0 if init is None else init)
        centroids = points[rng.choice(data.m, size=k, replace=False)].copy()
        sq = sq_dists_to(points, centroids)
        assignments = _repair_empty(sq, np.argmin(sq, axis=1), k)

    prev_cost = math.inf
    for _ in range(max_iters):
        _, sizes, sums = _block_sums(points, assignments, k)
        filled = sizes > 0
        centroids[filled] = sums[filled] / sizes[filled, None]
        sq = sq_dists_to(points, centroids)
        cost = float(sq[np.arange(data.m), assignments].sum())
        if cost > prev_cost * (1 + 1e-12) + 1e-12:
            raise NumericalError(f"Lloyd cost increased from {prev_cost:.17g} to {cost:.17g}")
        prev_cost = cost
        # argmin breaks ties toward the lowest cluster index.
        new_assignments = _repair_empty(sq, np.argmin(sq, axis=1), k)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    partition = Partition(assignments=assignments, k=k)
    return partition, cluster_stats(data, partition)


# ---------------------------------------------------------------------------
# Exact oracle: exhaustive enumeration of set partitions into k blocks.

# Largest number of partitions S(m, k) the oracle enumerates: every m <= 12
# and (14, 3).  At m = 14, k in 4..9 has 5M-63M, too many to hold; larger k
# needs the subset dynamic program over the 2^m block costs.
PARTITION_CAP = 1 << 22
_COST_CHUNK = 1 << 16  # partitions costed at once


def _check_oracle_size(m: int, k: int) -> None:
    # Every limit of the exact oracle, checked before anything is allocated.
    if m > BRUTE_FORCE_MAX_POINTS:
        raise DomainError(f"brute force limited to m <= {BRUTE_FORCE_MAX_POINTS}, got m={m}")
    if not 1 <= k <= m:
        raise DomainError(f"need 1 <= k <= m, got k={k}, m={m}")
    count = sum((-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1)) // math.factorial(k)
    if count > PARTITION_CAP:
        raise DomainError(f"S({m}, {k}) = {count} partitions exceeds the cap {PARTITION_CAP}")


@functools.cache
def _partition_masks(m: int, k: int) -> np.ndarray:
    """All partitions of {0..m-1} into exactly k nonempty blocks.

    A read-only (k, count) array of bitmasks, cached per (m, k): column c
    is partition c in restricted growth string order (lexicographic in the
    assignment vector), row j the block whose smallest member appears j-th.
    The strings grow one element at a time, children in label order.
    """
    masks = np.zeros((k, 1), dtype=np.intp)
    masks[0, 0] = 1
    used = np.ones(1, dtype=np.int64)
    for i in range(1, m):
        # Labels lo..min(used, k-1) for element i; a row that needs every
        # remaining element to open a new block only takes the new label.
        lo = np.where(used + (m - 1 - i) >= k, 0, used)
        counts = np.minimum(used, k - 1) - lo + 1
        parent = np.repeat(np.arange(used.size), counts)
        child = np.arange(parent.size)
        label = lo[parent] + child - (np.cumsum(counts) - counts)[parent]
        masks = masks[:, parent]
        masks[label, child] |= 1 << i
        used = np.maximum(used[parent], label + 1)
    masks.flags.writeable = False
    return masks


def _pair_costs(sq: np.ndarray, members: np.ndarray) -> np.ndarray:
    # cost of each row's block of the 0/1 membership matrix: (1/|block|)
    # times the sum of sq[i, j] over unordered pairs i < j in it; 0 if empty.
    pair_sums = 0.5 * np.einsum("si,si->s", members @ sq, members)
    return pair_sums / np.maximum(members.sum(axis=1), 1.0)


def _block_costs(sq: np.ndarray) -> np.ndarray:
    # The cost of each of the 2^m subsets, indexed by bitmask.
    m = sq.shape[0]
    members = ((np.arange(1 << m)[:, None] >> np.arange(m)[None, :]) & 1).astype(np.float64)
    return _pair_costs(sq, members)


def partition_cost_sq_dists(sq: np.ndarray, partition: Partition) -> float:
    """k-means cost from a symmetric squared-distance matrix with zero diagonal.

    J = sum_j (1/|C_j|) sum_{i<i' in C_j} sq[i, i'].  Coincides with the
    coordinate form when sq holds Euclidean squared distances, and defines
    the cost for perturbed metrics that are not Euclidean-realizable.
    """
    members = (partition.assignments == np.arange(partition.k)[:, None]).astype(np.float64)
    return float(_pair_costs(sq, members).sum())


def brute_force_optimum_sq_dists(sq: np.ndarray, k: int) -> tuple[Partition, float]:
    """Global k-means optimum of a squared-distance matrix by enumeration.

    Ties break toward the lexicographically smallest assignment vector.
    Limited to m <= BRUTE_FORCE_MAX_POINTS and S(m, k) <= PARTITION_CAP.
    """
    m = sq.shape[0]
    _check_oracle_size(m, k)
    masks = _partition_masks(m, k)
    block_cost = _block_costs(sq)
    # Costs summed block by block, the order of numpy's row sum for k <= 7,
    # in chunks whose temporaries stay in cache.  The first minimum of the
    # chunk minima is the first minimum overall: the lexicographically first.
    firsts, minima = [], []
    for start in range(0, masks.shape[1], _COST_CHUNK):
        costs = block_cost[masks[0, start:start + _COST_CHUNK]]
        for j in range(1, k):
            costs += block_cost[masks[j, start:start + _COST_CHUNK]]
        i = int(np.argmin(costs))
        firsts.append(start + i)
        minima.append(costs[i])
    chunk = int(np.argmin(minima))
    labels = np.argmax((masks[:, firsts[chunk], None] >> np.arange(m)) & 1, axis=0)
    return Partition(assignments=labels, k=k), float(minima[chunk])


def brute_force_optimum(data: Dataset, k: int) -> tuple[Partition, ClusterStats]:
    """Global optimum over all partitions of the dataset into k clusters."""
    _check_oracle_size(data.m, k)
    partition, _ = brute_force_optimum_sq_dists(sq_dist_matrix(data.points), k)
    return partition, cluster_stats(data, partition)


# ---------------------------------------------------------------------------
# Transfer checks and structural measurements.


def cost_sandwich_check(
    stats_original: ClusterStats,
    stats_projected: ClusterStats,
    n: int,
    n_prime: int,
    delta: float,
) -> SandwichResult:
    """Check (1-d) J <= (n/n') J' <= (1+d) J for one partition in both spaces."""
    if stats_original.sizes.shape != stats_projected.sizes.shape or not np.array_equal(
        stats_original.sizes, stats_projected.sizes
    ):
        raise ShapeError("cluster sizes differ: stats were not computed for the same partition")
    adjusted = (n / n_prime) * stats_projected.cost
    j = stats_original.cost
    lower_margin = adjusted - (1.0 - delta) * j
    upper_margin = (1.0 + delta) * j - adjusted
    quotient = adjusted / j if j > 0 else (1.0 if adjusted == 0.0 else math.inf)
    return SandwichResult(
        passed=bool(lower_margin >= 0.0 and upper_margin >= 0.0),
        lower_margin=float(lower_margin),
        upper_margin=float(upper_margin),
        quotient=float(quotient),
    )


def sandwich_trials(
    data: Dataset, partitions: list[Partition], n_prime: int, delta: float, trials: int, base_seed: int
) -> list[SandwichTrial]:
    """``cost_sandwich_check`` of every partition under projections with seeds base_seed + t.

    The original-space stats are computed once.  Each trial also records
    whether ``partitions[0]`` is a Lloyd fixed point of the projected data.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    n = data.dim
    stats_orig = [cluster_stats(data, p) for p in partitions]
    records = []
    for seed in range(base_seed, base_seed + trials):
        projected = project(build_operator(n, n_prime, seed), data)
        stats = [cluster_stats(projected, p) for p in partitions]
        results = [cost_sandwich_check(so, sp, n, n_prime, delta) for so, sp in zip(stats_orig, stats)]
        quotients = [r.quotient for r in results]
        records.append(SandwichTrial(
            seed, all(r.passed for r in results), (min(quotients), max(quotients)),
            (n / n_prime) * stats[0].cost, is_lloyd_fixed_point(projected, partitions[0]),
        ))
    return records


def var_merge(size1: int, var1: float, mu1: np.ndarray, size2: int, var2: float, mu2: np.ndarray) -> float:
    """Variance of a merged cluster from the two parts' stats.

    VAR(C12) m12 = VAR(C1) m1 + VAR(C2) m2 + (m1 m2 / m12) ||mu1 - mu2||^2.
    """
    m12 = size1 + size2
    gap = float(np.sum((np.asarray(mu1, dtype=float) - np.asarray(mu2, dtype=float)) ** 2))
    return (var1 * size1 + var2 * size2 + size1 * size2 / m12 * gap) / m12


def var_merge_clusters(data: Dataset, partition: Partition, j1: int, j2: int) -> float:
    """Merged variance of two clusters of one partition, via the identity."""
    if j1 == j2:
        raise DomainError("clusters to merge must be distinct (disjoint membership)")
    stats = cluster_stats(data, partition)
    return var_merge(
        int(stats.sizes[j1]), float(stats.variances[j1]), stats.centroids[j1],
        int(stats.sizes[j2]), float(stats.variances[j2]), stats.centroids[j2],
    )


def balance_quotient(stats: ClusterStats, j1: int, j2: int) -> float:
    """(VAR(C1) m12/m2 + VAR(C2) m12/m1) / ||mu1 - mu2||^2 for one cluster pair."""
    if j1 == j2:
        raise DomainError("cluster pair must be distinct")
    sq_gap = float(np.sum((stats.centroids[j1] - stats.centroids[j2]) ** 2))
    if sq_gap == 0.0:
        raise DegenerateDataError(f"clusters {j1} and {j2} have coincident centroids")
    m1, m2 = int(stats.sizes[j1]), int(stats.sizes[j2])
    m12 = m1 + m2
    return (float(stats.variances[j1]) * m12 / m2 + float(stats.variances[j2]) * m12 / m1) / sq_gap


def pair_balance(stats: ClusterStats) -> PairBalance:
    """Balance quotient of every cluster pair; p is their maximum."""
    k = stats.sizes.size
    if k < 2:
        raise DomainError("balance needs at least two clusters")
    per_pair = np.full((k, k), np.nan)
    for j1 in range(k):
        for j2 in range(j1 + 1, k):
            per_pair[j1, j2] = balance_quotient(stats, j1, j2)
    return PairBalance(p=float(np.nanmax(per_pair)), per_pair=per_pair)


def is_lloyd_fixed_point(data: Dataset, partition: Partition) -> bool:
    """True iff every point is at least as close to its own centroid as to any other.

    Ties count as fixed; this is the operational meaning of a k-means
    local minimum everywhere in this package.
    """
    sq = sq_dists_to(data.points, cluster_stats(data, partition).centroids)
    own = sq[np.arange(data.m), partition.assignments]
    return bool(np.all(own <= sq.min(axis=1)))


def measure_gap(data: Dataset, partition: Partition, relative_to: str = "half") -> GapMeasure:
    """Relative gap g = 2 (1 - max alpha) between clusters.

    For the ordered pair (A, B), alpha is the largest scalar projection of
    a point of A (relative to A's centroid) onto the unit vector toward
    B's centroid, divided by the reference distance: half the centre
    distance for ``relative_to="half"`` (the default construction), or
    the full centre distance for the alternative reading
    ``relative_to="full"``.  Projections are clamped to [0, 1]: points
    behind their own centroid contribute no proximity to the border.
    """
    if partition.k < 2:
        raise DomainError("gap needs at least two clusters")
    if relative_to not in ("half", "full"):
        raise DomainError(f"relative_to must be 'half' or 'full', got {relative_to!r}")
    stats = cluster_stats(data, partition)
    k = partition.k
    alpha = np.full((k, k), np.nan)
    halfdist = np.full((k, k), np.nan)
    for a in range(k):
        pts = data.points[partition.members(a)] - stats.centroids[a]
        for b in range(k):
            if a == b:
                continue
            direction = stats.centroids[b] - stats.centroids[a]
            dist = float(np.linalg.norm(direction))
            if dist == 0.0:
                raise DegenerateDataError(f"clusters {a} and {b} have coincident centroids")
            halfdist[a, b] = dist / 2.0
            ref = dist / 2.0 if relative_to == "half" else dist
            proj = pts @ (direction / dist)
            alpha[a, b] = min(1.0, max(0.0, float(proj.max()) / ref))
    g = 2.0 * (1.0 - float(np.nanmax(alpha)))
    return GapMeasure(per_pair_alpha=alpha, g=g, d_halfdist=halfdist)


def global_optimum_transfer_check(
    original: Dataset, projected: Dataset, k: int, delta: float
) -> GlobalTransferResult:
    """Compare exact global optima across the projection.

    Forward: (n/n') OPT' <= (1+delta) OPT (a perfect solver in the
    projected space is a constant-factor approximation in the original).
    Reverse: (n'/n) OPT <= OPT' / (1-delta).
    """
    if original.m != projected.m:
        raise ShapeError("datasets differ in point count")
    n, n_prime = original.dim, projected.dim
    _, stats_orig = brute_force_optimum(original, k)
    _, stats_proj = brute_force_optimum(projected, k)
    forward_margin = (1.0 + delta) * stats_orig.cost - (n / n_prime) * stats_proj.cost
    reverse_margin = stats_proj.cost / (1.0 - delta) - (n_prime / n) * stats_orig.cost
    return GlobalTransferResult(
        forward_ok=bool(forward_margin >= 0.0),
        forward_margin=float(forward_margin),
        reverse_ok=bool(reverse_margin >= 0.0),
        reverse_margin=float(reverse_margin),
    )


def canonical_labels(assignments: np.ndarray) -> np.ndarray:
    """Relabel clusters in order of first appearance (restricted growth form)."""
    assignments = np.asarray(assignments)
    mapping: dict[int, int] = {}
    out = np.empty_like(assignments)
    for i, a in enumerate(assignments):
        out[i] = mapping.setdefault(int(a), len(mapping))
    return out


def same_partition(a: Partition, b: Partition) -> bool:
    """Partition equality up to cluster relabeling."""
    return a.k == b.k and np.array_equal(canonical_labels(a.assignments), canonical_labels(b.assignments))


def save_partition(partition: Partition, ids: list[str], path: str) -> None:
    """Write CSV rows (id, cluster)."""
    if len(ids) != partition.m:
        raise ShapeError(f"{len(ids)} ids for {partition.m} assignments")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "cluster"])
        for pid, label in zip(ids, partition.assignments):
            writer.writerow([pid, int(label)])


def load_partition(path: str, ids: list[str]) -> Partition:
    """Read a (id, cluster) CSV and align it to the given id order."""
    table: dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["id", "cluster"]:
            raise ShapeError(f"unexpected partition header {header!r}")
        for row in reader:
            table[row[0]] = int(row[1])
    missing = [pid for pid in ids if pid not in table]
    if missing:
        raise ShapeError(f"partition file lacks ids {missing[:5]}{'...' if len(missing) > 5 else ''}")
    labels = np.array([table[pid] for pid in ids], dtype=np.int64)
    return Partition(assignments=labels, k=int(labels.max()) + 1)
