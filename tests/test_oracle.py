"""The exact oracle's public surface, ``optimum`` and ``count_within``,
against the costs of every partition listed in RGS order."""

import math

import numpy as np
import pytest

from jlkit import oracle
from jlkit.geometry import sq_dist_matrix
from tests.test_kmeans import expand, pruning_matrices, reference_masks, stirling2


def check_counts(sq, k, masks):
    # masks: k x S(m, k) block bitmasks of every partition.  Their costs are
    # added block by block in label order, as the oracle adds them.
    costs = oracle._block_costs(sq)[masks].sum(axis=0)
    _, opt = oracle.optimum(sq, k)
    assert opt == costs.min()
    for bound in (opt, 1.5 * opt, math.inf):
        assert oracle.count_within(sq, k, bound) == np.count_nonzero(costs <= bound), bound


@pytest.mark.parametrize("m", range(1, 10))
def test_count_within_matches_full_enumeration(m):
    # Below m = 9 no group is pruned; a negative entry turns pruning off.
    rng = np.random.default_rng(m)
    for k in range(1, m + 1):
        masks = reference_masks(m, k).T
        sq = sq_dist_matrix(rng.standard_normal((m, 3)))
        check_counts(sq, k, masks)
        sq[0, m - 1] = sq[m - 1, 0] = -1e-3
        check_counts(sq, k, masks)


@pytest.mark.parametrize("m", [10, 12])
def test_count_within_skips_no_partition_within_the_bound(m):
    # Clustered, tied and non-Euclidean matrices, on which the group bound
    # prunes at OPT (down to 81 of the 86,526 partitions at m = 12).  The
    # factor tables list every partition (TestPartitionMasks checks them
    # against the RGS definition).
    masks = expand(m, 3)
    assert masks.shape[1] == stirling2(m, 3)
    for sq in pruning_matrices(m, 3, m).values():
        check_counts(sq, 3, masks)


@pytest.mark.parametrize("m", range(9, 15))
def test_tight_bound_gives_the_default_optimum(m):
    # A bound a hair above OPT prunes more groups than the farthest-first
    # bound; the first cheapest partition and its cost stay the same.
    for k in (2, 3):
        for name, sq in pruning_matrices(m, k, 10 * m + k).items():
            labels, cost = oracle.optimum(sq, k)
            tight, tight_cost = oracle.optimum(sq, k, (1.0 + 1e-9) * cost)
            assert np.array_equal(tight, labels), (k, name)
            assert tight_cost.hex() == cost.hex(), (k, name)

