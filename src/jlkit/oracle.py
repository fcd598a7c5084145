"""Exact k-means optimum of a small squared-distance matrix, by enumeration.

A partition costs sum_B (1/|B|) sum_{i<j in B} sq[i, j] over its blocks B,
the k-means cost from pairwise squared distances alone, so perturbed,
non-Euclidean metrics are costed too.  Partitions are numbered in
restricted-growth-string (RGS) order, that of their assignment vectors
with each block labelled by its first point, and ties go to the first.

The partitions labelling points 0..7 alike form one group, costed from
small tables of prefixes and completions, not a table of all S(m, k).  For
m > 8 and sq non-negative, each partition of a group costs at least
sum_b cost(P_b) |P_b| / (|P_b| + m - 8) over the prefix's blocks P_b: a
block holds the pairs of its prefix and at most m - 8 more points.  A group
is skipped when that bound exceeds the caller's upper bound by more than
1e-9 relative, far above the rounding of these sums of non-negative terms:
every result is the full enumeration's, bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

__all__ = ["check_size", "optimum", "count_within"]

MAX_POINTS = 14
# Largest number of partitions S(m, k) the oracle enumerates: every m <= 12
# and (14, 3).  At m = 14, k in 4..9 has 5M-63M, too many to cost one by
# one; larger k needs the subset dynamic program over the 2^m block costs.
# Pruning does not lift the cap: when no group can be ruled out (ties,
# duplicates, a non-metric input) every partition is still costed.
PARTITION_CAP = 1 << 22
_COST_CHUNK = 1 << 14  # partitions costed at once; at 2^14 their temporaries stay in L2
_PREFIX = 8  # a partition: a labelling of elements 0.._PREFIX-1 (its group) and one of the rest


def check_size(m: int, k: int) -> None:
    """Raise ``DomainError`` unless m <= MAX_POINTS, 1 <= k <= m and S(m, k) <= PARTITION_CAP."""
    if m > MAX_POINTS:
        raise DomainError(f"brute force limited to m <= {MAX_POINTS}, got m={m}")
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
    check_size(m, k)
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


def optimum(sq: np.ndarray, k: int, bound: float | None = None) -> tuple[np.ndarray, float]:
    """Labels (in RGS form) and cost of the first cheapest partition of sq into k blocks.

    ``bound``, an upper bound on the optimum cost, prunes the groups; by
    default it is the cost of a farthest-first partition.
    """
    factors = _factors(sq.shape[0], k)  # checks the size before any allocation
    block_cost = _block_costs(sq)
    if bound is None:
        bound = _greedy_cost(sq, block_cost, k)
    first, cost = _first_minimum(_group_costs(factors, sq, block_cost, bound))
    masks = _partitions_at(factors, np.array([first]))
    return np.argmax((masks >> np.arange(sq.shape[0])) & 1, axis=0), cost


def count_within(sq: np.ndarray, k: int, bound: float) -> int:
    """The number of partitions of sq into k blocks that cost at most ``bound``."""
    chunks = _group_costs(_factors(sq.shape[0], k), sq, _block_costs(sq), bound)
    return sum(int(np.count_nonzero(costs <= bound)) for _, costs in chunks)
