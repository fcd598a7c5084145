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
from .geometry import _CANCELLATION_RATIO, sq_dist_matrix, sq_dists_to
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
LLOYD_MAX_ITERS = 300


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


# Most entries of the k x m block indicator built at once (16 MiB).
_INDICATOR_ENTRIES = 1 << 21


def _block_sums(labels: np.ndarray, k: int, *values: np.ndarray) -> list[np.ndarray]:
    # Each block's sum of the rows of every array in values: the k x m 0/1
    # block indicator times that array, one GEMM each; no row is copied.
    # The indicator is built _INDICATOR_ENTRIES // k rows at a time and the
    # chunks' products added; when all rows fit in one chunk, that is one
    # GEMM per array over the whole indicator.
    step = max(1, _INDICATOR_ENTRIES // k)
    sums = None
    for start in range(0, labels.size, step):
        rows = slice(start, start + step)
        onehot = (labels[rows] == np.arange(k)[:, None]).astype(np.float64)
        chunk = [onehot @ v[rows] for v in values]
        del onehot  # freed before the next chunk's is built
        sums = chunk if sums is None else [a + b for a, b in zip(sums, chunk)]
    return sums


def cluster_stats(data: Dataset, partition: Partition) -> ClusterStats:
    """Centroids, sizes, variances and cost of a partition.

    Each block's cost is sum |x|^2 - |sum x|^2 / n, from two passes over
    the data: a GEMM for the block sums, a matrix-vector product for the
    squared norms.  A block where that expansion cancels (sum |x|^2 more
    than 100 times the cost, as for tight clusters far from the origin)
    is recomputed by direct difference from its centroid, and a block of
    bitwise-equal rows gets that row as centroid and cost exactly 0
    (the detect-and-repair scheme of Chan, Golub and LeVeque, 1983).
    The pairwise kernel, ``geometry.pairwise_sq_dists``, uses the same
    guard with the same ratio.
    """
    if partition.m != data.m:
        raise ShapeError(f"partition covers {partition.m} points, dataset has {data.m}")
    points, labels = data.points, partition.assignments
    sizes = np.bincount(labels, minlength=partition.k)
    # Squared norms past the float range make total or costs inf or NaN;
    # the negated test below repairs those blocks too.
    with np.errstate(over="ignore", invalid="ignore"):
        sums, total = _block_sums(labels, partition.k, points, np.einsum("ij,ij->i", points, points))
        centroids = sums / sizes[:, None]
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


def lloyd(data: Dataset, k: int, init: Partition | int = 0) -> tuple[Partition, ClusterStats]:
    """Lloyd iteration until assignments stabilize or LLOYD_MAX_ITERS steps.

    ``init`` is either a Partition or an integer seed for plain uniform
    seeding (k distinct data points as starting centroids).  Cost is
    checked to be non-increasing at every step; a rise raises
    NumericalError.
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
        rng = np.random.default_rng(init)
        centroids = points[rng.choice(data.m, size=k, replace=False)].copy()
        sq = sq_dists_to(points, centroids)
        assignments = _repair_empty(sq, np.argmin(sq, axis=1), k)

    prev_cost = math.inf
    for _ in range(LLOYD_MAX_ITERS):
        sizes = np.bincount(assignments, minlength=k)
        sums = _block_sums(assignments, k, points)[0]
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
# and (14, 3).  At m = 14, k in 4..9 has 5M-63M, too many to hold even as
# uint16; larger k needs the subset dynamic program over the 2^m block costs.
PARTITION_CAP = 1 << 22
_COST_CHUNK = 1 << 14  # partitions costed at once; at 2^14 their temporaries stay in L2


def _check_oracle_size(m: int, k: int) -> None:
    # Every limit of the exact oracle, checked before anything is allocated.
    if m > BRUTE_FORCE_MAX_POINTS:
        raise DomainError(f"brute force limited to m <= {BRUTE_FORCE_MAX_POINTS}, got m={m}")
    if not 1 <= k <= m:
        raise DomainError(f"need 1 <= k <= m, got k={k}, m={m}")
    count = sum((-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1)) // math.factorial(k)
    if count > PARTITION_CAP:
        raise DomainError(f"S({m}, {k}) = {count} partitions exceeds the cap {PARTITION_CAP}")


@functools.lru_cache(maxsize=4)
def _partition_masks(m: int, k: int) -> np.ndarray:
    """All partitions of {0..m-1} into exactly k nonempty blocks.

    A read-only (k, count) uint16 array of bitmasks (room for m <= 16), cached for
    the four most recent (m, k) (the (14, 3) table is 4.5 MiB): column c
    is partition c in restricted growth string order (lexicographic in the
    assignment vector), row j the block whose smallest member appears j-th.
    The strings grow one element at a time, children in label order.
    """
    _check_oracle_size(m, k)
    masks = np.zeros((k, 1), dtype=np.uint16)
    masks[0, 0] = 1
    used = np.ones(1, dtype=np.int8)
    for i in range(1, m):
        # Labels lo..min(used, k-1) for element i; a row that needs every
        # remaining element to open a new block only takes the new label.
        lo = np.where(used + (m - 1 - i) >= k, 0, used)
        counts = np.minimum(used, k - 1) - lo + 1
        # A child's label: its parent's lo plus its rank among its siblings.
        ends = np.cumsum(counts, dtype=np.int32)
        label = np.arange(ends[-1], dtype=np.int32)
        label -= np.repeat(ends - counts - lo, counts)
        label = label.astype(np.int8)
        masks = np.repeat(masks, counts, axis=1)
        for j, row in enumerate(masks):
            np.bitwise_or(row, 1 << i, out=row, where=label == j)
        if i < m - 1:
            used = np.maximum(np.repeat(used, counts), label + 1)
    masks.flags.writeable = False
    return masks


def _pair_costs(sq: np.ndarray, members: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    # cost of each row's block of the 0/1 membership matrix: (1/size) times
    # the sum of sq[i, j] over unordered pairs i < j in it; sizes are the
    # row sums, at least 1 (an empty block costs 0 either way).
    return 0.5 * np.einsum("si,si->s", members @ sq, members) / sizes


@functools.lru_cache(maxsize=4)
def _subset_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    # Read-only, by bitmask: the 2^m x m 0/1 membership table of every
    # subset and every subset's size, 1 for the empty set.
    members = ((np.arange(1 << m)[:, None] >> np.arange(m)[None, :]) & 1).astype(np.float64)
    sizes = np.maximum(members.sum(axis=1), 1.0)
    members.flags.writeable = sizes.flags.writeable = False
    return members, sizes


def _block_costs(sq: np.ndarray) -> np.ndarray:
    # The cost of each of the 2^m subsets, indexed by bitmask.
    return _pair_costs(sq, *_subset_table(sq.shape[0]))


def _chunk_costs(block_cost: np.ndarray, masks: np.ndarray):
    # (first column, costs) per cache-sized chunk of the partitions in masks,
    # cast to intp once per chunk, not per gather.  Each cost is summed block
    # by block: the order of numpy's row sum for k <= 7.
    for start in range(0, masks.shape[1], _COST_CHUNK):
        chunk = masks[:, start:start + _COST_CHUNK].astype(np.intp)
        costs = block_cost[chunk[0]]
        for row in chunk[1:]:
            costs += block_cost[row]
        yield start, costs


def _first_minimum(block_cost: np.ndarray, masks: np.ndarray) -> tuple[int, float]:
    # Column and cost of the first cheapest partition of masks.  The first
    # minimum of the chunk minima is the first minimum overall.
    firsts, minima = [], []
    for start, costs in _chunk_costs(block_cost, masks):
        i = int(np.argmin(costs))
        firsts.append(start + i)
        minima.append(costs[i])
    chunk = int(np.argmin(minima))
    return firsts[chunk], float(minima[chunk])


def partition_cost_sq_dists(sq: np.ndarray, partition: Partition) -> float:
    """k-means cost from a symmetric squared-distance matrix with zero diagonal.

    J = sum_j (1/|C_j|) sum_{i<i' in C_j} sq[i, i'].  Coincides with the
    coordinate form when sq holds Euclidean squared distances, and defines
    the cost for perturbed metrics that are not Euclidean-realizable.
    """
    members = (partition.assignments == np.arange(partition.k)[:, None]).astype(np.float64)
    return float(_pair_costs(sq, members, members.sum(axis=1)).sum())


def brute_force_optimum_sq_dists(sq: np.ndarray, k: int) -> tuple[Partition, float]:
    """Global k-means optimum of a squared-distance matrix by enumeration.

    Ties break toward the lexicographically smallest assignment vector.
    Limited to m <= BRUTE_FORCE_MAX_POINTS and S(m, k) <= PARTITION_CAP.
    """
    m = sq.shape[0]
    masks = _partition_masks(m, k)
    first, cost = _first_minimum(_block_costs(sq), masks)
    labels = np.argmax((masks[:, first, None] >> np.arange(m)) & 1, axis=0)
    return Partition(assignments=labels, k=k), cost


@functools.lru_cache(maxsize=8)
def _optimum_labels(sq_bytes: bytes, m: int, k: int) -> np.ndarray:
    # The optimal labels of one squared-distance matrix, memoised on its
    # exact bytes, so a hit gives what a fresh enumeration would; read-only.
    # The memo sits above brute_force_optimum_sq_dists, so each call of that
    # is one enumeration; check_perturbation_robustness enumerates by itself.
    sq = np.frombuffer(sq_bytes).reshape(m, m)
    labels = brute_force_optimum_sq_dists(sq, k)[0].assignments
    labels.flags.writeable = False
    return labels


def brute_force_optimum(data: Dataset, k: int) -> tuple[Partition, ClusterStats]:
    """Global optimum over all partitions of the dataset into k clusters.

    The optima of the eight most recent (distance matrix, k) are kept, so
    the same points measured again (the several measurements of one
    projection, the original side of repeated transfer checks) are not
    enumerated again.  Every call returns a fresh partition and stats.
    """
    _check_oracle_size(data.m, k)
    labels = _optimum_labels(sq_dist_matrix(data.points).tobytes(), data.m, k)
    partition = Partition(assignments=labels.copy(), k=k)
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


def _centroid_sq_dists(centroids: np.ndarray) -> np.ndarray:
    # The k x k squared centre distances, refused when two centroids coincide:
    # such a pair has neither a balance quotient nor a gap.
    sq = sq_dist_matrix(centroids)
    coincident = np.argwhere(np.triu(sq == 0.0, 1))
    if coincident.size:
        a, b = coincident[0]
        raise DegenerateDataError(f"clusters {a} and {b} have coincident centroids")
    return sq


def pair_balance(stats: ClusterStats) -> PairBalance:
    """Balance quotient of every cluster pair; p is their maximum.

    For clusters C1, C2 of sizes m1, m2 and m12 = m1 + m2 the quotient is
    (VAR(C1) m12/m2 + VAR(C2) m12/m1) / ||mu1 - mu2||^2, all pairs at once
    from the k x k centre distances.  Coincident centroids raise
    DegenerateDataError.
    """
    k = stats.sizes.size
    if k < 2:
        raise DomainError("balance needs at least two clusters")
    sq_gap = _centroid_sq_dists(stats.centroids)
    sizes, var = stats.sizes, stats.variances
    i, j = np.triu_indices(k, 1)
    m12 = sizes[i] + sizes[j]
    per_pair = np.full((k, k), np.nan)
    per_pair[i, j] = (var[i] * m12 / sizes[j] + var[j] * m12 / sizes[i]) / sq_gap[i, j]
    return PairBalance(p=float(np.nanmax(per_pair)), per_pair=per_pair)


def is_lloyd_fixed_point(data: Dataset, partition: Partition) -> bool:
    """True iff every point is at least as close to its own centroid as to any other.

    Ties count as fixed; this is the operational meaning of a k-means
    local minimum everywhere in this package.
    """
    sq = sq_dists_to(data.points, cluster_stats(data, partition).centroids)
    own = sq[np.arange(data.m), partition.assignments]
    return bool(np.all(own <= sq.min(axis=1)))


def measure_gap(data: Dataset, partition: Partition) -> GapMeasure:
    """Relative gap g = 2 (1 - max alpha) between clusters.

    For the ordered pair (A, B), alpha is the largest scalar projection of
    a point of A (relative to A's centroid) onto the unit vector toward
    B's centroid, divided by half the centre distance:
    2 max_x (x - mu_A).(mu_B - mu_A) / ||mu_B - mu_A||^2, one product per
    cluster against every centre direction.  Projections are clamped to
    [0, 1]: points behind their own centroid contribute no proximity to
    the border.  Coincident centroids raise DegenerateDataError.
    """
    if partition.k < 2:
        raise DomainError("gap needs at least two clusters")
    centroids, k = cluster_stats(data, partition).centroids, partition.k
    sq = _centroid_sq_dists(centroids)
    reach = np.empty((k, k))
    for a in range(k):
        pts = data.points[partition.members(a)] - centroids[a]
        reach[a] = (pts @ (centroids - centroids[a]).T).max(axis=0)
    off = ~np.eye(k, dtype=bool)
    alpha = np.full((k, k), np.nan)
    alpha[off] = np.clip(2.0 * reach[off] / sq[off], 0.0, 1.0)
    halfdist = np.where(off, np.sqrt(sq) / 2.0, np.nan)
    g = 2.0 * (1.0 - float(np.nanmax(alpha)))
    return GapMeasure(per_pair_alpha=alpha, g=g, d_halfdist=halfdist)


def global_optimum_transfer_check(
    original: Dataset, projected: Dataset, k: int, delta: float
) -> GlobalTransferResult:
    """Compare exact global optima across the projection.

    Forward: (n/n') OPT' <= (1+delta) OPT (a perfect solver in the
    projected space is a constant-factor approximation in the original).
    Reverse: (n'/n) OPT <= OPT' / (1-delta).  Both optima come from
    ``brute_force_optimum``, so an original dataset checked against many
    projections is enumerated once.
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


def save_partition(partition: Partition, path: str) -> None:
    """Write CSV rows (id, cluster), the id being the point's row index."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "cluster"])
        writer.writerows(enumerate(partition.assignments.tolist()))


def load_partition(path: str, m: int) -> Partition:
    """Read an (id, cluster) CSV into the labels of rows 0..m-1, the id being the row index."""
    table: dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["id", "cluster"]:
            raise ShapeError(f"unexpected partition header {header!r}")
        for row in reader:
            table[row[0]] = int(row[1])
    missing = [i for i in range(m) if str(i) not in table]
    if missing:
        raise ShapeError(f"partition file lacks rows {missing[:5]}{'...' if len(missing) > 5 else ''}")
    labels = np.array([table[str(i)] for i in range(m)], dtype=np.int64)
    return Partition(assignments=labels, k=int(labels.max()) + 1)
