"""The exact oracle's public surface, ``optimum`` and ``count_within``,
against the costs of every partition that an unpruned call yields."""

import math

import numpy as np
import pytest

from jlkit import oracle
from jlkit.geometry import sq_dist_matrix
from tests.reference import laid_out, pruning_matrices, seam_chunks, stirling2


def check_counts(sq, k, calls):
    # calls: the seam's record.  At an infinite bound every partition is
    # costed (test_kmeans checks those costs against the RGS reference).
    assert oracle.count_within(sq, k, math.inf) == stirling2(sq.shape[0], k)
    costs = laid_out(calls[-1])
    _, opt = oracle.optimum(sq, k)
    assert opt == costs.min()
    for bound in (opt, 1.5 * opt, math.inf):
        assert oracle.count_within(sq, k, bound) == np.count_nonzero(costs <= bound), bound


@pytest.mark.parametrize("m", range(1, 10))
def test_count_within_matches_full_enumeration(m, monkeypatch):
    # Below m = 9 no group is pruned; a negative entry turns pruning off.
    rng = np.random.default_rng(m)
    calls = seam_chunks(monkeypatch)
    for k in range(1, m + 1):
        sq = sq_dist_matrix(rng.standard_normal((m, 3)))
        check_counts(sq, k, calls)
        sq[0, m - 1] = sq[m - 1, 0] = -1e-3
        check_counts(sq, k, calls)


@pytest.mark.parametrize("m", [10, 12])
def test_count_within_skips_no_partition_within_the_bound(m, monkeypatch):
    # Clustered, tied and non-Euclidean matrices, on which the group bound
    # prunes at OPT (down to 81 of the 86,526 partitions at m = 12).
    calls = seam_chunks(monkeypatch)
    for sq in pruning_matrices(m, 3, m).values():
        check_counts(sq, 3, calls)

