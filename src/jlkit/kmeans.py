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
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DomainError, NumericalError, ShapeError
from .geometry import _CANCELLATION_RATIO, sq_dist_matrix, sq_dists_to
from .projection import Dataset, projections

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
    "cost_sandwich_check",
    "sandwich_trials",
    "var_merge",
    "pair_balance",
    "is_lloyd_fixed_point",
    "measure_gap",
    "global_optimum_transfer_check",
    "canonical_labels",
    "save_partition",
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
        if self.assignments.size == 0:
            raise ShapeError("assignments must not be empty")
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

    Each block's cost is sum |x|^2 - |sum x|^2 / n, from a GEMM for the
    block sums and a matrix-vector product for those of ``data.sq_norms``,
    the squared norms the dataset computes once.  A block where that
    expansion cancels (sum |x|^2 more than 100 times the cost, as for tight
    clusters far from the origin) is recomputed by direct difference from
    its centroid, and a block of bitwise-equal rows gets that row as
    centroid and cost exactly 0 (the detect-and-repair scheme of Chan,
    Golub and LeVeque, 1983).  The pairwise kernel,
    ``geometry.pairwise_sq_dists``, uses the same guard with the same ratio.
    """
    if partition.m != data.m:
        raise ShapeError(f"partition covers {partition.m} points, dataset has {data.m}")
    points, labels = data.points, partition.assignments
    sizes = np.bincount(labels, minlength=partition.k)
    # Squared norms past the float range make total or costs inf or NaN;
    # the negated test below repairs those blocks too.
    with np.errstate(over="ignore", invalid="ignore"):
        sums, total = _block_sums(labels, partition.k, points, data.sq_norms)
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
    if not 1 <= k <= m:
        raise DomainError(f"need 1 <= k <= m, got k={k}, m={m}")
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
# and (14, 3).  At m = 14, k in 4..9 has 5M-63M, too many to cost one by
# one; larger k needs the subset dynamic program over the 2^m block costs.
# Pruning does not lift the cap: when no group can be ruled out (ties,
# duplicates, a non-metric input) every partition is still costed.
PARTITION_CAP = 1 << 22
_COST_CHUNK = 1 << 14  # partitions costed at once; at 2^14 their temporaries stay in L2
_PREFIX = 8  # a partition: a labelling of elements 0.._PREFIX-1 (its group) and one of the rest


def _check_oracle_size(m: int, k: int) -> None:
    # Every limit of the exact oracle, checked before anything is allocated.
    if m > BRUTE_FORCE_MAX_POINTS:
        raise DomainError(f"brute force limited to m <= {BRUTE_FORCE_MAX_POINTS}, got m={m}")
    if not 1 <= k <= m:
        raise DomainError(f"need 1 <= k <= m, got k={k}, m={m}")
    count = sum((-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1)) // math.factorial(k)
    if count > PARTITION_CAP:
        raise DomainError(f"S({m}, {k}) = {count} partitions exceeds the cap {PARTITION_CAP}")


def _grow(used: np.ndarray, elements: range, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    # Labels the elements in turn after rows with used blocks each, children in
    # label order, keeping rows that can still end with k blocks of {0..m-1}:
    # k x rows block bitmasks and used counts, in restricted growth string order.
    masks = np.zeros((k, used.size), dtype=np.intp)
    for i in elements:
        # Labels lo..min(used, k-1) for element i; a row that needs every
        # remaining element to open a new block only takes the new label.
        lo = np.where(used + (m - 1 - i) >= k, 0, used)
        counts = np.minimum(used, k - 1) - lo + 1
        # A child's label: its parent's lo plus its rank among its siblings.
        ends = np.cumsum(counts)
        label = np.arange(ends[-1]) - np.repeat(ends - counts - lo, counts)
        masks = np.repeat(masks, counts, axis=1)
        masks[label, np.arange(label.size)] |= 1 << i
        used = np.maximum(np.repeat(used, counts), label + 1)
    return masks, used


@functools.lru_cache(maxsize=4)
def _factors(m: int, k: int):
    # Read-only, the partitions into k blocks in RGS order: prefix q (k x groups
    # block bitmasks of elements below _PREFIX) with completion c < length[q], the
    # masks of the rest shifted down by _PREFIX in comps[:, base[q] + c], is
    # partition starts[q] + c.  weight: |P_b| / (|P_b| + m - _PREFIX) per block.
    _check_oracle_size(m, k)
    p = min(m, _PREFIX)
    prefix, used = _grow(np.zeros(1, dtype=np.intp), range(p), m, k)
    classes, cls = np.unique(used, return_inverse=True)
    comps = [_grow(np.array([u]), range(p, m), m, k)[0] >> _PREFIX for u in classes]
    bounds = np.cumsum([0] + [comp.shape[1] for comp in comps])
    base, length = bounds[cls], np.diff(bounds)[cls]
    comps, starts = np.concatenate(comps, axis=1), np.concatenate(([0], np.cumsum(length)))
    size = sum((prefix >> i) & 1 for i in range(p))
    weight = size / (size + (m - p))
    for table in (prefix, base, length, comps, starts, weight):
        table.flags.writeable = False
    return prefix, base, length, comps, starts, weight


@functools.lru_cache(maxsize=4)
def _subset_table(m: int) -> np.ndarray:
    # Read-only, by bitmask: every subset's size, 1 for the empty set.
    sizes = np.maximum(sum((np.arange(1 << m) >> i) & 1 for i in range(m)), 1).astype(np.float64)
    sizes.flags.writeable = False
    return sizes


def _block_costs(sq: np.ndarray) -> np.ndarray:
    # The cost of each of the 2^m subsets, indexed by bitmask: half the sum of
    # sq[i, j] over i, j in it, over its size (0 when empty).  Additions only;
    # rounding near m^2 eps of the exact sums, and an inf entry gives inf, not
    # NaN.  cross[h, S] = sq[h, h] / 2 + sum_{i in S} sym[i, h] for S below h,
    # filled by doubling over j; pair grows by each subset's highest element.
    m = sq.shape[0]
    sym = 0.5 * sq + 0.5 * sq.T
    cross = np.empty((m, 1 << (m - 1)))
    cross[:, 0] = 0.5 * np.diagonal(sym)
    for j in range(m - 1):
        cross[j + 1:, 1 << j:2 << j] = cross[j + 1:, :1 << j] + sym[j, j + 1:, None]
    pair = np.zeros(1 << m)
    for h in range(m):
        pair[1 << h:2 << h] = pair[:1 << h] + cross[h, :1 << h]
    return pair / _subset_table(m)


def _group_costs(factors, sq: np.ndarray, block_cost: np.ndarray, bound: float):
    # (offsets, costs) per chunk of at most _COST_CHUNK partitions of the groups
    # whose lower bound is at most bound (1 + 1e-9), or of all when it does not
    # hold (m <= _PREFIX, a negative entry, a non-finite cost).  costs[i, c] is
    # partition offsets[i] + c, summed block by block from the block costs laid
    # out as [prefix bits, completion bits]: prefix rows, completion columns.
    prefix, base, length, comps, starts, weight = factors
    groups = np.arange(prefix.shape[1])
    if sq.shape[0] > _PREFIX and sq.min() >= 0.0 and np.isfinite(block_cost).all():
        groups = np.flatnonzero((block_cost[prefix] * weight).sum(axis=0) <= bound * (1.0 + 1e-9))
    table = block_cost.reshape(-1, min(block_cost.size, 1 << _PREFIX)).T.copy()
    for first in dict.fromkeys(base[groups].tolist()):
        rows = groups[base[groups] == first]
        comp = comps[:, first:first + length[rows[0]]]
        step = max(1, _COST_CHUNK // comp.shape[1])
        for q in (rows[i:i + step] for i in range(0, rows.size, step)):
            costs = table[prefix[0, q]].take(comp[0], axis=1)
            for j in range(1, comp.shape[0]):
                costs += table[prefix[j, q]].take(comp[j], axis=1)
            yield starts[q], costs


def _chunk_costs(block_cost: np.ndarray, masks: np.ndarray):
    # (offsets, costs) as _group_costs gives them, per chunk of the uint16 masks.
    for start in range(0, masks.shape[1], _COST_CHUNK):
        chunk = masks[:, start:start + _COST_CHUNK].astype(np.intp)
        costs = block_cost[chunk[0]]
        for row in chunk[1:]:
            costs += block_cost[row]
        yield (start,), costs[None]


def _first_minimum(chunks) -> tuple[int, float]:
    # Index and cost of the first cheapest partition, whatever the chunks' order.
    found = sorted((int(offsets[i]) + c, costs[i, c]) for offsets, costs in chunks
                   for i, c in [divmod(int(np.argmin(costs)), costs.shape[1])])
    index, cost = found[int(np.argmin([cost for _, cost in found]))]
    return index, float(cost)


def _partitions_at(factors, index: np.ndarray) -> np.ndarray:
    # The k x len(index) uint16 block bitmasks of the partitions at the RGS indices index.
    prefix, base, _, comps, starts, _ = factors
    q = np.searchsorted(starts, index, side="right") - 1
    return (prefix[:, q] | comps[:, base[q] + index - starts[q]] << _PREFIX).astype(np.uint16)


def _greedy_cost(sq: np.ndarray, block_cost: np.ndarray, k: int) -> float:
    # The cost of a farthest-first partition (k centres from element 0, each
    # point with its nearest), added block by block in RGS order as a
    # partition's cost is; inf when a block comes out empty.
    centres, near = [0], sq[0]
    for _ in range(1, k):
        centres.append(int(np.argmax(near)))
        near = np.minimum(near, sq[centres[-1]])
    blocks = np.zeros(k, dtype=np.intp)
    np.bitwise_or.at(blocks, np.argmin(sq[centres], axis=0), 1 << np.arange(sq.shape[0]))
    if not blocks.all():
        return math.inf
    return float(sum(block_cost[blocks[np.argsort(blocks & -blocks)]]))


def _partitions_within(sq: np.ndarray, block_cost: np.ndarray, k: int, bound: float, scale: float):
    # The k x n uint16 block bitmasks, in RGS order, of every partition whose
    # cost times scale is at most bound, built chunk by chunk.
    factors = _factors(sq.shape[0], k)
    chunks = _group_costs(factors, sq, block_cost, bound / scale)
    index = np.concatenate([(offsets[:, None] + np.arange(costs.shape[1]))[scale * costs <= bound]
                            for offsets, costs in chunks])
    index.sort()
    masks = np.empty((k, index.size), dtype=np.uint16)
    for start in range(0, index.size, _COST_CHUNK):
        masks[:, start:start + _COST_CHUNK] = _partitions_at(factors, index[start:start + _COST_CHUNK])
    return masks


def brute_force_optimum_sq_dists(sq: np.ndarray, k: int) -> tuple[Partition, float]:
    """Global k-means optimum of a squared-distance matrix by enumeration.

    Ties break toward the lexicographically smallest assignment vector.
    Limited to m <= BRUTE_FORCE_MAX_POINTS and S(m, k) <= PARTITION_CAP.

    The partitions labelling elements 0..7 alike form one group, costed from
    small tables of prefixes and completions, not a table of all S(m, k).
    For m > 8 and every entry of sq non-negative, each partition of a group
    costs at least sum_b cost(P_b) |P_b| / (|P_b| + m - 8) over the prefix's
    blocks P_b: a block holds the pairs of its prefix and at most m - 8 more
    points.  A group is skipped when that bound exceeds, by more than 1e-9
    relative, the cost of a farthest-first partition.  The slack is far
    above the rounding of these sums of non-negative terms, so every optimal
    partition, tied ones included, is costed and the result is the full
    enumeration's, bit for bit.
    """
    factors = _factors(sq.shape[0], k)  # checks the size before any allocation
    block_cost = _block_costs(sq)
    first, cost = _first_minimum(_group_costs(factors, sq, block_cost, _greedy_cost(sq, block_cost, k)))
    labels = np.argmax((_partitions_at(factors, np.array([first])) >> np.arange(sq.shape[0])) & 1, axis=0)
    return Partition(assignments=labels, k=k), cost


# Per live dataset, weakly keyed: its sq_dist_matrix and, per k, the optimal
# labels and their stats.  Above brute_force_optimum_sq_dists, so each call of
# that is one enumeration; check_perturbation_robustness enumerates by itself.
_optima: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def brute_force_optimum(data: Dataset, k: int) -> tuple[Partition, ClusterStats]:
    """Global optimum over all partitions of the dataset into k clusters.

    The distance matrix and the optimum of each k are kept as long as the
    dataset object lives, so that object measured again (the several
    measurements of one projection, the original side of repeated transfer
    checks) builds no matrix and is not enumerated again; a hit needs the
    same object.  Writing into the array passed to ``Dataset`` leaves its
    entry stale, as it does ``sq_norms``.  An enumeration skips the
    partitions that a prefix lower bound rules out against a farthest-first
    partition, ties kept (see ``brute_force_optimum_sq_dists``).  Every call
    returns a fresh partition and stats.
    """
    _check_oracle_size(data.m, k)
    if data not in _optima:
        _optima[data] = sq_dist_matrix(data.points), {}
    sq, optima = _optima[data]
    if k not in optima:
        partition = brute_force_optimum_sq_dists(sq, k)[0]
        optima[k] = partition.assignments, cluster_stats(data, partition)
    labels, stats = optima[k]
    return Partition(assignments=labels.copy(), k=k), ClusterStats(
        stats.centroids.copy(), stats.sizes.copy(), stats.variances.copy(), stats.cost)


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
    data: Dataset, partitions: list[Partition], n_prime: int, delta: float, trials: int, base_seed: int,
    orthonormalize: bool = False,
) -> list[SandwichTrial]:
    """``cost_sandwich_check`` of every partition under ``projections`` with seeds base_seed + t.

    The original-space stats are computed once.  Each trial also records
    whether ``partitions[0]`` is a Lloyd fixed point of the projected data.
    """
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    draws = projections(data, n_prime, trials, base_seed, orthonormalize)
    n = data.dim
    stats_orig = [cluster_stats(data, p) for p in partitions]
    records = []
    for seed, projected in draws:
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


def save_partition(partition: Partition, path: str) -> None:
    """Write CSV rows (id, cluster), the id being the point's row index."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "cluster"])
        writer.writerows(enumerate(partition.assignments.tolist()))
