import csv
import functools
import gc
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jlkit import kmeans
from jlkit.clusterability import measure_sigma_separatedness, measure_weak_deletion_stability
from jlkit.datagen import MixtureSpec, generate
from jlkit.errors import DegenerateDataError, DomainError, NumericalError, ShapeError
from jlkit.geometry import sq_dist_matrix
from jlkit.kmeans import (
    Partition,
    brute_force_optimum,
    brute_force_optimum_sq_dists,
    canonical_labels,
    cluster_stats,
    cost_sandwich_check,
    global_optimum_transfer_check,
    is_lloyd_fixed_point,
    lloyd,
    measure_gap,
    pair_balance,
    random_partition,
    sandwich_trials,
    save_partition,
    var_merge,
)
from jlkit.projection import Dataset, build_operator, project


def line_dataset(*coords):
    return Dataset(points=np.array([[float(c)] for c in coords]))


def same_partition(a, b):
    # Partition equality up to cluster relabelling.
    return a.k == b.k and np.array_equal(canonical_labels(a.assignments), canonical_labels(b.assignments))


def pair_cost(sq, partition):
    # The k-means cost from squared distances: each block's sum over its
    # unordered pairs, over its size.
    blocks = (partition.members(j) for j in range(partition.k))
    return float(sum(sq[np.ix_(b, b)].sum() / 2.0 / b.size for b in blocks))


class TestClusterStats:
    def test_single_cluster_closed_form(self):
        data = Dataset(points=np.random.default_rng(0).standard_normal((20, 4)))
        part = Partition(assignments=np.zeros(20, dtype=int), k=1)
        stats = cluster_stats(data, part)
        mean = data.points.mean(axis=0)
        expected = float(np.sum((data.points - mean) ** 2))
        assert stats.cost == pytest.approx(expected, rel=1e-12)
        assert np.allclose(stats.centroids[0], mean, atol=1e-12)

    def test_cost_equals_sizes_dot_variances(self):
        rng = np.random.default_rng(1)
        data = Dataset(points=rng.standard_normal((30, 3)))
        part = Partition(assignments=rng.integers(0, 3, 30) % 3, k=3) \
            if len(np.unique(rng.integers(0, 3, 30))) == 3 else None
        labels = np.array([i % 3 for i in range(30)])
        part = Partition(assignments=labels, k=3)
        stats = cluster_stats(data, part)
        assert stats.cost == pytest.approx(float(np.dot(stats.sizes, stats.variances)), rel=1e-9)

    def test_cost_identity_three_ways(self):
        # Direct sum, sizes . variances, and the pairwise-distance form
        # must all agree.
        rng = np.random.default_rng(2)
        for trial in range(20):
            m = int(rng.integers(4, 12))
            data = Dataset(points=rng.standard_normal((m, 3)))
            k = int(rng.integers(1, min(4, m) + 1))
            labels = np.concatenate([np.arange(k), rng.integers(0, k, m - k)])
            part = Partition(assignments=labels, k=k)
            stats = cluster_stats(data, part)
            direct = float(np.sum((data.points - stats.centroids[part.assignments]) ** 2))
            pairwise = pair_cost(sq_dist_matrix(data.points), part)
            assert stats.cost == pytest.approx(direct, rel=1e-9)
            assert stats.cost == pytest.approx(pairwise, rel=1e-9)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(3)
        data = Dataset(points=rng.standard_normal((12, 2)))
        labels = np.array([0, 1, 2] * 4)
        cost_a = cluster_stats(data, Partition(assignments=labels, k=3)).cost
        swapped = np.array([2, 0, 1] * 4)
        cost_b = cluster_stats(data, Partition(assignments=swapped, k=3)).cost
        assert cost_a == pytest.approx(cost_b, rel=1e-12)


def direct_costs(points, labels, k):
    # Reference: each block's cost by direct difference from its own mean.
    return np.array([np.sum((points[labels == j] - points[labels == j].mean(axis=0)) ** 2) for j in range(k)])


def per_call_norms_stats(points, labels, k):
    # cluster_stats's cost and centroids as computed when each call took
    # its own squared norms of the points; the dataset's sq_norms must
    # leave both unchanged bit for bit.
    sizes = np.bincount(labels, minlength=k)
    with np.errstate(over="ignore", invalid="ignore"):
        sums, total = kmeans._block_sums(labels, k, points, np.einsum("ij,ij->i", points, points))
        centroids = sums / sizes[:, None]
        costs = np.maximum(total - np.einsum("ij,ij->i", sums, centroids), 0.0)
    for j in np.flatnonzero(~(total <= 100.0 * costs)):
        block = points[labels == j]
        if np.all(block == block[0]):
            centroids[j], costs[j] = block[0], 0.0
        else:
            costs[j] = np.einsum("ij,ij->", block - centroids[j], block - centroids[j])
    return float(np.dot(sizes, costs / sizes)), centroids


def sum_sq_ratio(points, labels, k):
    # Each block's sum of squared norms over its cost.
    totals = np.array([np.sum(points[labels == j] ** 2) for j in range(k)])
    return totals / direct_costs(points, labels, k)


class TestClusterStatsAccuracy:
    # Per-block costs and variances within 1e-12 of direct difference,
    # including where the sum-of-squares expansion cancels.

    @staticmethod
    def check(points, labels, k):
        stats = cluster_stats(Dataset(points=points), Partition(assignments=labels, k=k))
        ref = direct_costs(points, labels, k)
        np.testing.assert_allclose(stats.sizes * stats.variances, ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(stats.variances, ref / stats.sizes, rtol=1e-12, atol=0.0)
        assert stats.cost == pytest.approx(ref.sum(), rel=1e-12)
        cost, centroids = per_call_norms_stats(points, labels, k)
        assert stats.cost.hex() == cost.hex()
        assert np.array_equal(stats.centroids, centroids)
        return stats

    @staticmethod
    def random_labels(rng, m, k):
        return np.concatenate([np.arange(k), rng.integers(0, k, m - k)])

    def test_random_data(self):
        rng = np.random.default_rng(10)
        self.check(rng.standard_normal((300, 20)), self.random_labels(rng, 300, 5), 5)

    def test_translated_by_1e7(self):
        rng = np.random.default_rng(10)
        points, labels = rng.standard_normal((300, 20)), self.random_labels(rng, 300, 5)
        assert np.all(sum_sq_ratio(points + 1e7, labels, 5) > 1e12)
        self.check(points + 1e7, labels, 5)

    def test_tight_clusters_far_apart(self):
        # sigma 1e-6 around centres 1e3 apart on a line.
        rng = np.random.default_rng(11)
        labels = np.repeat(np.arange(3), 40)
        centres = np.zeros((3, 6))
        centres[:, 0] = [0.0, 1e3, 2e3]
        self.check(centres[labels] + 1e-6 * rng.standard_normal((120, 6)), labels, 3)

    def test_ratio_just_under_the_guard(self):
        # 50 blocks, each centred and then shifted so that its sum of
        # squared norms is 99 times its cost: the expansion's own path.
        rng = np.random.default_rng(12)
        n, d, k = 8, 10, 50
        blocks = []
        for _ in range(k):
            z = rng.standard_normal((n, d))
            z -= z.mean(axis=0)
            direction = rng.standard_normal(d)
            shift = np.sqrt(98.0 * np.sum(z ** 2) / n) * direction / np.linalg.norm(direction)
            blocks.append(z + shift)
        points, labels = np.vstack(blocks), np.repeat(np.arange(k), n)
        ratio = sum_sq_ratio(points, labels, k)
        assert np.all((ratio > 98.0) & (ratio < 100.0))
        self.check(points, labels, k)

    def test_squares_past_the_float_range(self):
        # Squared norms overflow at 1e160; the deviations do not.
        rng = np.random.default_rng(14)
        self.check(1e160 + 1e150 * rng.standard_normal((30, 3)), self.random_labels(rng, 30, 3), 3)

    def test_entries_of_1e200(self):
        # Their squared norms overflow, yet the dataset is accepted; a block
        # holding such a row alone or with its copies costs exactly 0.
        rng = np.random.default_rng(17)
        points, labels = rng.standard_normal((20, 3)), self.random_labels(rng, 20, 3)
        points[4, 1], points[12, 0] = 1e200, -1e200
        points[9] = points[4]
        labels[[4, 9]], labels[12] = 3, 4
        stats = self.check(points, labels, 5)
        assert np.all(stats.variances[3:] == 0.0)

    def test_singletons_cost_exactly_zero(self):
        rng = np.random.default_rng(13)
        points = rng.standard_normal((10, 4)) + 1e3
        labels = np.array([0, 1, 2, 3, 3, 3, 4, 5, 5, 6])
        stats = self.check(points, labels, 7)
        singletons = [0, 1, 2, 4, 6]
        assert np.all(stats.variances[singletons] == 0.0)
        assert np.array_equal(stats.centroids[singletons], points[[0, 1, 2, 6, 9]])

    def test_duplicate_rows_cost_exactly_zero(self):
        # Three copies of each row: their sum rounds, so a centroid from
        # the sum is off the row and the cost is not 0 unless repaired.
        rows = np.array([[0.1, 0.7], [0.3, 0.9], [0.7, 0.1]])
        labels = np.repeat(np.arange(3), 3)
        stats = cluster_stats(Dataset(points=rows[labels]), Partition(assignments=labels, k=3))
        assert np.array_equal(stats.variances, np.zeros(3))
        assert stats.cost == 0.0
        assert np.array_equal(stats.centroids, rows)

    @pytest.mark.parametrize("entries", [5, 64, 1000])
    def test_chunked_indicator(self, monkeypatch, entries):
        # At most `entries` indicator entries at once: 1, 12 and 200 of
        # the 300 rows a chunk for k = 5.
        monkeypatch.setattr(kmeans, "_INDICATOR_ENTRIES", entries)
        rng = np.random.default_rng(15)
        points, labels = rng.standard_normal((300, 20)), self.random_labels(rng, 300, 5)
        self.check(points, labels, 5)
        self.check(points + 1e7, labels, 5)

    def test_indicator_memory_is_bounded(self):
        # A dense 50 x 200,000 float64 indicator alone would take 76 MiB
        # for 3 MiB of points.
        rng = np.random.default_rng(16)
        points, labels = rng.standard_normal((200_000, 2)), self.random_labels(rng, 200_000, 50)
        data, partition = Dataset(points=points), Partition(assignments=labels, k=50)
        tracemalloc.start()
        try:
            stats = cluster_stats(data, partition)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20
        ref = direct_costs(points, labels, 50)
        np.testing.assert_allclose(stats.sizes * stats.variances, ref, rtol=1e-12, atol=0.0)
        assert stats.cost == pytest.approx(ref.sum(), rel=1e-12)


class TestPartitionValidation:
    def test_empty_cluster_rejected(self):
        with pytest.raises(DomainError):
            Partition(assignments=np.array([0, 0, 2]), k=3)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            Partition(assignments=np.array([0, 1, 3]), k=3)

    def test_empty_assignments_rejected(self):
        with pytest.raises(ShapeError):
            Partition(assignments=[], k=1)


class StoppingRng:
    # A generator whose integers() raises after a few draws, so a call that
    # would redraw forever fails instead of hanging.
    def __init__(self, draws):
        self.rng, self.left = np.random.default_rng(0), draws

    def integers(self, *args, **kwargs):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("too many draws")
        return self.rng.integers(*args, **kwargs)


class TestRandomPartition:
    @pytest.mark.parametrize("m, k", [(3, 5), (0, 1), (4, 0), (4, -1)])
    def test_infeasible_k_raises_before_any_draw(self, m, k):
        rng = StoppingRng(draws=0)
        with pytest.raises(DomainError):
            random_partition(rng, m, k)

    def test_draws_unchanged(self):
        # Uniform labels redrawn until every cluster is used, from the
        # generator's integers() stream.
        for m, k in [(1, 1), (3, 3), (8, 2), (40, 4)]:
            rng, expected = np.random.default_rng(m + k), np.random.default_rng(m + k)
            labels = expected.integers(0, k, size=m)
            while np.unique(labels).size != k:
                labels = expected.integers(0, k, size=m)
            assert np.array_equal(random_partition(rng, m, k).assignments, labels)
            assert rng.integers(1 << 30) == expected.integers(1 << 30)


class TestLloyd:
    def test_k1_closed_form(self):
        data = Dataset(points=np.random.default_rng(4).standard_normal((15, 3)))
        _, stats = lloyd(data, 1)
        mean = data.points.mean(axis=0)
        assert stats.cost == pytest.approx(float(np.sum((data.points - mean) ** 2)), rel=1e-12)

    def test_k_equals_m_zero_cost(self):
        data = Dataset(points=np.arange(12, dtype=float).reshape(6, 2) ** 1.3)
        part, stats = lloyd(data, 6)
        assert stats.cost == pytest.approx(0.0, abs=1e-18)
        assert np.unique(part.assignments).size == 6

    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((50, 6)) + np.array([20.0] + [0.0] * 5)
        b = rng.standard_normal((50, 6))
        data = Dataset(points=np.vstack([a, b]))
        truth = Partition(assignments=np.array([0] * 50 + [1] * 50), k=2)
        part, stats = lloyd(data, 2, init=1)
        assert same_partition(part, truth)
        # Multi-restart agreement on the full instance.
        costs = {round(lloyd(data, 2, init=s)[1].cost, 6) for s in range(5)}
        assert len(costs) == 1
        # Exact agreement with the oracle on a subsample.
        sub = Dataset(points=np.vstack([a[:6], b[:6]]))
        _, sub_stats = brute_force_optimum(sub, 2)
        assert lloyd(sub, 2, init=0)[1].cost == pytest.approx(sub_stats.cost, rel=1e-12)

    def test_fixed_point_at_convergence(self):
        rng = np.random.default_rng(6)
        data = Dataset(points=rng.standard_normal((40, 3)))
        for seed in range(5):
            part, _ = lloyd(data, 4, init=seed)
            assert is_lloyd_fixed_point(data, part)

    def test_empty_cluster_repair(self):
        # Both initial centroids coincide, so the first reassignment
        # empties cluster 1; the farthest point must reseed it.
        data = line_dataset(0, 1, 2)
        part, stats = lloyd(data, 2, init=Partition(assignments=np.array([0, 1, 0]), k=2))
        assert np.unique(part.assignments).size == 2
        assert stats.cost == pytest.approx(0.5, rel=1e-12)

    def test_k_exceeding_m_rejected(self):
        with pytest.raises(DomainError):
            lloyd(line_dataset(0, 1), 3)

    def test_cost_rise_raises(self, monkeypatch):
        # A growing constant on every distance leaves each argmin alone but
        # makes the second iteration's cost exceed the first's.
        calls = []
        real = kmeans.sq_dists_to

        def rising(points, centres):
            calls.append(None)
            return real(points, centres) + 1e3 * len(calls)

        monkeypatch.setattr(kmeans, "sq_dists_to", rising)
        data = line_dataset(0, 1, 10, 11)
        with pytest.raises(NumericalError, match="Lloyd cost increased"):
            lloyd(data, 2, init=Partition(assignments=np.array([0, 1, 0, 1]), k=2))


class TestBruteForce:
    def test_hand_enumeration_three_points(self):
        # Two-block partitions of {0, 1, 10}: costs 0.5, 40.5, 50.
        data = line_dataset(0, 1, 10)
        sq = sq_dist_matrix(data.points)
        costs = {
            (0, 0, 1): 0.5,
            (0, 1, 1): 40.5,
            (0, 1, 0): 50.0,
        }
        for labels, expected in costs.items():
            part = Partition(assignments=np.array(labels), k=2)
            assert pair_cost(sq, part) == pytest.approx(expected, rel=1e-12)
        part, stats = brute_force_optimum(data, 2)
        assert stats.cost == pytest.approx(0.5, rel=1e-12)
        assert np.array_equal(canonical_labels(part.assignments), [0, 0, 1])

    def test_k_equals_m(self):
        data = line_dataset(3, 1, 4, 1.5)
        _, stats = brute_force_optimum(data, 4)
        assert stats.cost == pytest.approx(0.0, abs=1e-18)

    def test_lex_tie_break(self):
        # Unit square: the two axis-aligned splits tie; the
        # lexicographically first assignment vector [0,0,1,1] must win.
        data = Dataset(points=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        part, stats = brute_force_optimum(data, 2)
        assert stats.cost == pytest.approx(1.0, rel=1e-12)
        assert np.array_equal(part.assignments, [0, 0, 1, 1])

    def test_never_above_lloyd(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            data = Dataset(points=rng.standard_normal((10, 3)))
            _, opt = brute_force_optimum(data, 3)
            for seed in range(10):
                _, ll = lloyd(data, 3, init=seed)
                assert opt.cost <= ll.cost * (1 + 1e-9)

    def test_size_limit(self):
        with pytest.raises(DomainError):
            brute_force_optimum(Dataset(points=np.zeros((15, 2)) + np.arange(15)[:, None]), 2)

    def test_distance_matrix_route_is_translation_invariant(self):
        # The criterion-8 instance: at offset 1e7 the Gram expansion read a cost of 48.
        data, _ = generate(MixtureSpec(k=2, sizes=(5, 5), dim=500, centre_distance=10.0,
                                       cluster_sigma=0.05, target_gap=1.0, seed=33))
        _, cost = brute_force_optimum_sq_dists(sq_dist_matrix(data.points), 2)
        assert cost == pytest.approx(9.548920820, rel=1e-9)
        _, far = brute_force_optimum_sq_dists(sq_dist_matrix(data.points + 1e7), 2)
        assert far == pytest.approx(cost, rel=1e-6)

    def test_distance_matrix_route_matches_coordinates(self):
        rng = np.random.default_rng(8)
        data = Dataset(points=rng.standard_normal((9, 4)))
        part_a, stats = brute_force_optimum(data, 3)
        part_b, cost = brute_force_optimum_sq_dists(sq_dist_matrix(data.points), 3)
        assert same_partition(part_a, part_b)
        assert cost == pytest.approx(stats.cost, rel=1e-9)


def stirling2(m, k):
    # S(m, k) by the recurrence S(m, k) = k S(m-1, k) + S(m-1, k-1).
    if m == k:
        return 1
    if k == 0 or k > m:
        return 0
    return k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)


def rgs_by_definition(m):
    # Every assignment vector with a[0] = 0 and a[i] <= max(a[:i]) + 1, in
    # lexicographic order, filtered from all of range(1) x ... x range(m).
    return [
        labels for labels in itertools.product(*(range(i + 1) for i in range(m)))
        if all(a <= top + 1 for a, top in zip(labels[1:], itertools.accumulate(labels, max)))
    ]


@functools.cache
def restricted_growth_strings(m):
    # rgs_by_definition(m), built by extending each string with every label
    # it admits, in increasing order: Bell(m) strings, not m! candidates.
    strings = [((), -1)]
    for _ in range(m):
        strings = [(labels + (a,), max(top, a)) for labels, top in strings for a in range(top + 2)]
    return [labels for labels, _ in strings]


def test_restricted_growth_strings_match_definition():
    for m in range(8):
        assert restricted_growth_strings(m) == rgs_by_definition(m)


def partitions_into(m, k):
    return [labels for labels in restricted_growth_strings(m) if max(labels) + 1 == k]


def exact_optimum(points, k):
    # Lexicographically first optimal assignment and its cost, in exact
    # rational arithmetic over every partition.
    rows = [[Fraction(float(x)) for x in p] for p in points]
    sq = [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in rows] for p in rows]
    best = None
    for labels in partitions_into(len(rows), k):
        cost = Fraction(0)
        for j in range(k):
            idx = [i for i, a in enumerate(labels) if a == j]
            cost += Fraction(sum(sq[i][i2] for i, i2 in itertools.combinations(idx, 2)), len(idx))
        if best is None or cost < best[0]:
            best = (cost, labels)
    return best


def reference_masks(m, k):
    # One row of block bitmasks per partition, in restricted growth order.
    labels = np.array(partitions_into(m, k)).reshape(-1, m)
    return (labels[:, None, :] == np.arange(k)[:, None]) @ (1 << np.arange(m))


def expand(m, k):
    # Every partition the oracle's factor tables describe, group by group:
    # prefix q with each completion of its class, as k x S(m, k) bitmasks.
    prefix, base, length, comps, starts, _ = kmeans._factors(m, k)
    groups = [prefix[:, [q]] | comps[:, base[q]:base[q] + length[q]] << kmeans._PREFIX
              for q in range(prefix.shape[1])]
    assert np.array_equal(np.diff(starts), [g.shape[1] for g in groups])
    return np.concatenate(groups, axis=1)


class TestPartitionMasks:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_restricted_growth_reference(self, m):
        # From m = 9 the completions span one element, from m = 10 two.
        for k in range(1, m + 1):
            masks = expand(m, k)
            assert masks.shape == (k, stirling2(m, k))
            assert np.array_equal(masks.T, reference_masks(m, k))
            found = kmeans._partitions_at(kmeans._factors(m, k), np.arange(masks.shape[1]))
            assert found.dtype == np.uint16 and np.array_equal(found, masks)

    def test_cache_holds_at_most_four_tables(self):
        kmeans._factors.cache_clear()
        pairs = [(5, 2), (6, 3), (7, 2), (7, 4), (9, 3)]
        for m, k in pairs:
            kmeans._factors(m, k)
        assert kmeans._factors.cache_info().currsize <= 4
        for m, k in pairs:
            assert np.array_equal(expand(m, k).T, reference_masks(m, k))


class TestPartitionTableMemory:
    def test_uint16_and_read_only(self):
        factors = kmeans._factors(14, 3)
        for table in factors:
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0
        assert kmeans._partitions_at(factors, np.arange(3)).dtype == np.uint16

    @pytest.mark.parametrize("m, k, bound_mib", [(14, 3, 1), (12, 6, 2)])
    def test_cold_build_peak(self, m, k, bound_mib):
        # The factor tables peak at 0.3 and 1.2 MiB; the full partition
        # tables they replace took 4.5 and 15.1 MiB.
        kmeans._factors.cache_clear()
        tracemalloc.start()
        try:
            kmeans._factors(m, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20

    def test_cold_oracle_call_builds_no_partition_table(self):
        # The 5/5/4 mixture of the oracle-14 benchmark; a table of all
        # S(14, 3) = 788,970 partitions would take 4.5 MiB.
        data, _ = generate(MixtureSpec(k=3, sizes=(5, 5, 4), dim=500, centre_distance=10.0,
                                       cluster_sigma=0.05, target_gap=1.0, seed=33))
        sq = sq_dist_matrix(data.points)
        kmeans._factors.cache_clear()
        kmeans._subset_table.cache_clear()
        tracemalloc.start()
        try:
            brute_force_optimum_sq_dists(sq, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


# Integer coordinates in the tied cases: every pair sum is exact, so tied
# partitions tie in floating point too and the first one must win.
ORACLE_CASES = {
    **{f"random-{m}": np.random.default_rng(100 + m).standard_normal((m, 3)) for m in range(1, 9)},
    "unit-square": np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float),
    "duplicated-points": np.array([[0], [0], [3], [3], [7], [7], [7], [10]], dtype=float),
    "grid-with-duplicate": np.array([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1], [1, 1]], dtype=float),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_oracle_matches_exact_reference(case):
    points = ORACLE_CASES[case]
    for k in range(1, len(points) + 1):
        cost, labels = exact_optimum(points, k)
        part, found = brute_force_optimum_sq_dists(sq_dist_matrix(points), k)
        assert found == pytest.approx(float(cost), rel=1e-12, abs=1e-15)
        assert np.array_equal(part.assignments, labels)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [3, 4])
def test_overflowed_distances_keep_the_exact_optimum(seed, k):
    # Points 3 and 6 lie 1e200 from the rest, so every squared distance to
    # them overflows to inf: a block holding either with another point
    # costs inf, and the optimum keeps each of them alone at a finite cost.
    points = np.random.default_rng(seed).standard_normal((7, 2))
    points[3], points[6] = (-1e200, 0.0), (1e200, 0.0)
    cost, labels = exact_optimum(points, k)
    part, found = brute_force_optimum_sq_dists(sq_dist_matrix(points), k)
    assert np.array_equal(part.assignments, labels)
    assert found == pytest.approx(float(cost), rel=1e-12)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("points", [
    np.random.default_rng(7).standard_normal((12, 3)),
    np.repeat(np.array([[0.0], [1.0], [5.0], [6.0]]), 3, axis=0),
    np.zeros((12, 2)),
], ids=["random", "triplicated", "all-equal"])
def test_chunked_minimum_is_the_first_overall(points, k):
    # S(12, 3) = 86,526 and S(12, 4) = 611,501 partitions span more than one cost chunk.
    sq = sq_dist_matrix(points)
    masks = expand(12, k)
    assert masks.shape[1] > kmeans._COST_CHUNK
    # At an infinite bound every group is costed, in more than one chunk.
    assert len(list(kmeans._group_costs(kmeans._factors(12, k), sq, kmeans._block_costs(sq), math.inf))) > 1
    costs = kmeans._block_costs(sq)[masks].sum(axis=0)
    best = int(np.argmin(costs))
    expected = np.argmax((masks[:, best, None] >> np.arange(12)) & 1, axis=0)
    part, found = brute_force_optimum_sq_dists(sq, k)
    assert found == costs[best]
    assert np.array_equal(part.assignments, expected)


def full_scan(sq, k):
    # The oracle without pruning: the first cheapest partition of every
    # group, none of which has a lower bound above inf.
    factors = kmeans._factors(sq.shape[0], k)
    first, cost = kmeans._first_minimum(kmeans._group_costs(factors, sq, kmeans._block_costs(sq), math.inf))
    masks = kmeans._partitions_at(factors, np.array([first]))
    return np.argmax((masks >> np.arange(sq.shape[0])) & 1, axis=0), cost


def pruning_matrices(m, k, seed):
    # Squared distances of random, clustered, duplicated and integer-tied
    # points, plus two that are not Euclidean: the random ones under
    # factors in [1/2, 2], and "hubs", where points 8.. lie at 0.01 from
    # every point, so each lowers the cost of any block it joins.
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 20.0, size=(k, 4))
    points = {
        "random": rng.standard_normal((m, 3)),
        "clustered": centres[np.arange(m) % k] + 0.1 * rng.standard_normal((m, 4)),
        "duplicated": rng.standard_normal((m, 2))[np.arange(m) // 2],
        "integer-tied": rng.integers(0, 3, size=(m, 2)).astype(float),
    }
    out = {name: sq_dist_matrix(p) for name, p in points.items()}
    factors = np.triu(rng.uniform(0.5, 2.0, size=(m, m)), 1)
    out["perturbed"] = out["random"] * (factors + factors.T + np.eye(m)) ** 2
    hubs = out["clustered"].copy()
    hubs[8:, :] = hubs[:, 8:] = 0.01
    np.fill_diagonal(hubs, 0.0)
    out["hubs"] = hubs
    return out


def costed_columns(monkeypatch):
    # The number of partitions each oracle call costs, in call order.
    real, seen = kmeans._group_costs, []

    def counted(*args):
        seen.append(0)
        for offsets, costs in real(*args):
            seen[-1] += costs.size
            yield offsets, costs

    monkeypatch.setattr(kmeans, "_group_costs", counted)
    return seen


class TestPruning:
    @pytest.mark.parametrize("m", range(9, 15))
    def test_pruned_equals_full_scan(self, m):
        for k in range(1, m + 1):
            if stirling2(m, k) > kmeans.PARTITION_CAP:
                continue
            for name, sq in pruning_matrices(m, k, 100 * m + k).items():
                part, cost = brute_force_optimum_sq_dists(sq, k)
                labels, expected = full_scan(sq, k)
                assert np.array_equal(part.assignments, labels), (k, name)
                assert cost.hex() == expected.hex(), (k, name)

    def test_negative_entry_scans_the_whole_table(self, monkeypatch):
        sq = pruning_matrices(12, 3, 1)["clustered"]
        seen = costed_columns(monkeypatch)
        brute_force_optimum_sq_dists(sq, 3)
        assert seen[-1] < stirling2(12, 3)
        sq[0, 1] = sq[1, 0] = -1e-3
        part, cost = brute_force_optimum_sq_dists(sq, 3)
        assert seen[-1] == stirling2(12, 3)
        labels, expected = full_scan(sq, 3)
        assert np.array_equal(part.assignments, labels) and cost == expected

    def test_clustered_instance_costs_a_tenth(self, monkeypatch):
        # The 5/5/4 mixture of the oracle-14 benchmark.
        data, _ = generate(MixtureSpec(k=3, sizes=(5, 5, 4), dim=500, centre_distance=10.0,
                                       cluster_sigma=0.05, target_gap=1.0, seed=33))
        seen = costed_columns(monkeypatch)
        brute_force_optimum_sq_dists(sq_dist_matrix(data.points), 3)
        assert len(seen) == 1 and seen[0] <= stirling2(14, 3) // 10

    def test_slack_keeps_a_bound_met_exactly(self):
        # Points 0..6 form one block and point 8 lies at 0 from each of them,
        # so the optimum {0..6, 8}, {7} costs its group's bound exactly; in
        # floating point the bound reads one ulp above that cost: the optimum
        # is the pair sum of 0..6 over 8, exact, and for seed 66 the bound,
        # 7/8 of that sum over 7, rounds up.
        sq = np.zeros((9, 9))
        sq[:7, :7] = sq_dist_matrix(np.random.default_rng(66).standard_normal((7, 3)))
        sq[7, :] = sq[:, 7] = 100.0
        sq[7, 7] = 0.0
        block_cost = kmeans._block_costs(sq)
        optimum = block_cost[0b101111111] + block_cost[0b010000000]
        assert block_cost[0b001111111] * 7 / 8 + block_cost[0b010000000] / 2 > optimum
        part, cost = brute_force_optimum_sq_dists(sq, 2)
        assert np.array_equal(part.assignments, [0, 0, 0, 0, 0, 0, 0, 1, 0])
        assert cost == optimum


class TestOracleLimits:
    def test_size_checked_before_distance_matrix(self):
        # 4000 x 4000 float64 distances would take 122 MiB.
        data = Dataset(points=np.random.default_rng(0).standard_normal((4000, 20)))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError):
                brute_force_optimum(data, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("m, k", [(14, 4), (14, 6), (14, 9), (13, 5)])
    def test_partition_cap_raises_before_allocation(self, m, k):
        assert stirling2(m, k) > kmeans.PARTITION_CAP
        sq = np.zeros((m, m))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="partitions"):
                brute_force_optimum_sq_dists(sq, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_admits_every_m_up_to_12_and_14_3(self):
        admitted = [(m, k) for m in range(1, 13) for k in range(1, m + 1)] + [(14, 3)]
        for m, k in admitted:
            kmeans._check_oracle_size(m, k)
            assert stirling2(m, k) <= kmeans.PARTITION_CAP


class TestOracleMemo:
    @staticmethod
    def _matrix_builds(monkeypatch):
        # The points of every sq_dist_matrix call made in kmeans.
        built = []

        def recorded(points):
            built.append(points)
            return sq_dist_matrix(points)

        monkeypatch.setattr(kmeans, "sq_dist_matrix", recorded)
        return built

    def test_mutated_result_leaves_next_call_unchanged(self, oracle_calls):
        data = Dataset(points=np.random.default_rng(9).standard_normal((9, 4)))
        part, stats = brute_force_optimum(data, 3)
        labels, centroids = part.assignments.copy(), stats.centroids.copy()
        part.assignments[:] = 0
        stats.centroids[:] = 0.0
        again, again_stats = brute_force_optimum(data, 3)
        assert oracle_calls[0] == 1
        assert np.array_equal(again.assignments, labels)
        assert np.array_equal(again_stats.centroids, centroids)

    def test_one_ulp_apart_matches_uncached(self, oracle_calls):
        # The unit square's two splits tie; lengthening one horizontal side
        # by one ulp makes the vertical split the only optimum.
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        nudged = square.copy()
        nudged[1, 0] = np.nextafter(1.0, 2.0)
        assert np.array_equal(brute_force_optimum(Dataset(points=square), 2)[0].assignments, [0, 0, 1, 1])
        part, stats = brute_force_optimum(Dataset(points=nudged), 2)
        assert oracle_calls[0] == 2
        expected, _ = brute_force_optimum_sq_dists(sq_dist_matrix(nudged), 2)
        assert np.array_equal(part.assignments, [0, 1, 0, 1])
        assert np.array_equal(part.assignments, expected.assignments)
        assert stats.cost == cluster_stats(Dataset(points=nudged), expected).cost

    def test_transfer_check_enumerates_the_original_once(self, oracle_calls, monkeypatch):
        rng = np.random.default_rng(13)
        data = Dataset(points=rng.standard_normal((10, 30)))
        built = self._matrix_builds(monkeypatch)
        for seed in range(5):
            global_optimum_transfer_check(data, project(build_operator(30, 20, seed), data), 3, 0.5)
        assert oracle_calls[0] == 1 + 5
        assert sum(points is data.points for points in built) == 1
        assert len(built) == 1 + 5

    def test_one_projection_builds_its_matrix_once(self, oracle_calls, monkeypatch):
        data = Dataset(points=np.random.default_rng(21).standard_normal((14, 40)))
        brute_force_optimum(data, 3)
        projected = project(build_operator(40, 25, 0), data)
        built = self._matrix_builds(monkeypatch)
        measure_sigma_separatedness(projected, 3)
        brute_force_optimum(projected, 3)
        measure_weak_deletion_stability(projected, 3)
        global_optimum_transfer_check(data, projected, 3, 0.3)
        assert [points is projected.points for points in built] == [True]
        assert oracle_calls[0] == 1 + 2

    def test_entry_dies_with_its_dataset(self, oracle_calls):
        data = Dataset(points=np.random.default_rng(5).standard_normal((8, 3)))
        brute_force_optimum(data, 2)
        assert list(kmeans._optima) == [data]
        entry = weakref.ref(data)
        del data
        gc.collect()
        assert entry() is None
        assert len(kmeans._optima) == 0

    def test_second_dataset_over_the_same_array_matches(self, oracle_calls):
        points = np.random.default_rng(17).standard_normal((11, 6))
        first, first_stats = brute_force_optimum(Dataset(points=points), 3)
        second, second_stats = brute_force_optimum(Dataset(points=points), 3)
        assert oracle_calls[0] == 2
        assert np.array_equal(first.assignments, second.assignments)
        assert first_stats.cost.hex() == second_stats.cost.hex()

    def test_subset_table_is_shared_and_read_only(self):
        sizes = kmeans._subset_table(5)
        assert kmeans._subset_table(5) is sizes
        assert not sizes.flags.writeable
        assert sizes.tolist() == [max(bin(s).count("1"), 1) for s in range(32)]

    @pytest.mark.parametrize("kind", ["euclidean", "asymmetric", "integer"])
    def test_block_costs_match_exact_sums(self, kind):
        # Every subset's half sum of sq over its ordered pairs, diagonal
        # included, over its size: fsum rounds that sum once, so integer
        # input (every partial sum exact) matches bit for bit.
        for m in range(1, 11):
            rng = np.random.default_rng(m)
            sq = {
                "euclidean": sq_dist_matrix(rng.standard_normal((m, 3))),
                "asymmetric": rng.uniform(0.0, 5.0, size=(m, m)),
                "integer": rng.integers(0, 1000, size=(m, m)).astype(float),
            }[kind]
            expected = np.array([
                0.5 * math.fsum(sq[i, j] for i in members for j in members) / max(len(members), 1)
                for members in ([i for i in range(m) if s >> i & 1] for s in range(1 << m))
            ])
            found = kmeans._block_costs(sq)
            if kind == "integer":
                assert found.tobytes() == expected.tobytes()
            else:
                assert np.all(np.abs(found - expected) <= m * m * np.finfo(float).eps * expected)


class TestVarMerge:
    def test_coincident_singletons(self):
        assert var_merge(1, 0.0, np.array([2.0]), 1, 0.0, np.array([2.0])) == 0.0

    def test_two_singletons_hand_value(self):
        # {0} and {2}: merged mean 1, deviations 1 and 1, VAR = 1.
        assert var_merge(1, 0.0, np.array([0.0]), 1, 0.0, np.array([2.0])) == pytest.approx(1.0)

    def test_identity_matches_direct_recomputation(self):
        rng = np.random.default_rng(9)
        for trial in range(100):
            n1, n2 = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            d = int(rng.integers(1, 5))
            c1 = rng.standard_normal((n1, d)) * rng.uniform(0.5, 3)
            c2 = rng.standard_normal((n2, d)) + rng.uniform(-5, 5)
            v1 = float(np.mean(np.sum((c1 - c1.mean(0)) ** 2, axis=1)))
            v2 = float(np.mean(np.sum((c2 - c2.mean(0)) ** 2, axis=1)))
            merged = np.vstack([c1, c2])
            direct = float(np.mean(np.sum((merged - merged.mean(0)) ** 2, axis=1)))
            via_identity = var_merge(n1, v1, c1.mean(0), n2, v2, c2.mean(0))
            assert via_identity == pytest.approx(direct, rel=1e-9, abs=1e-12)


class TestBalance:
    def test_symmetric_clusters(self):
        # Equal sizes, equal variance v, centre distance D: p = 4v/D^2.
        rng = np.random.default_rng(10)
        base = rng.standard_normal((40, 3))
        base -= base.mean(axis=0)
        shift = np.array([6.0, 0.0, 0.0])
        data = Dataset(points=np.vstack([base - shift / 2, base + shift / 2]))
        part = Partition(assignments=np.array([0] * 40 + [1] * 40), k=2)
        stats = cluster_stats(data, part)
        v = float(stats.variances[0])
        expected = 4.0 * v / 36.0
        assert pair_balance(stats).per_pair[0, 1] == pytest.approx(expected, rel=1e-9)
        assert pair_balance(stats).p == pytest.approx(expected, rel=1e-9)

    def test_zero_variance_gives_zero(self):
        data = line_dataset(0, 0, 5, 5)
        stats = cluster_stats(data, Partition(assignments=np.array([0, 0, 1, 1]), k=2))
        assert pair_balance(stats).per_pair[0, 1] == 0.0

    def test_coincident_centroids_error(self):
        data = line_dataset(0, 2, 1, 1)
        stats = cluster_stats(data, Partition(assignments=np.array([0, 0, 1, 1]), k=2))
        with pytest.raises(DegenerateDataError):
            pair_balance(stats).per_pair[0, 1]

    def test_matches_per_pair_formula(self):
        rng = np.random.default_rng(14)
        for k in range(2, 7):
            data = Dataset(points=rng.standard_normal((30, 4)) * rng.uniform(0.1, 10, size=4))
            stats = cluster_stats(data, random_partition(rng, 30, k))
            per_pair = pair_balance(stats).per_pair
            for j1 in range(k):
                for j2 in range(k):
                    if j1 >= j2:
                        assert np.isnan(per_pair[j1, j2])
                        continue
                    m1, m2 = int(stats.sizes[j1]), int(stats.sizes[j2])
                    v1, v2 = float(stats.variances[j1]), float(stats.variances[j2])
                    sq_gap = float(np.sum((stats.centroids[j1] - stats.centroids[j2]) ** 2))
                    expected = (v1 * (m1 + m2) / m2 + v2 * (m1 + m2) / m1) / sq_gap
                    assert per_pair[j1, j2] == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestFixedPoint:
    def test_swapped_points_not_fixed(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((20, 2))
        b = rng.standard_normal((20, 2)) + np.array([30.0, 0.0])
        data = Dataset(points=np.vstack([a, b]))
        good = Partition(assignments=np.array([0] * 20 + [1] * 20), k=2)
        assert is_lloyd_fixed_point(data, good)
        swapped = good.assignments.copy()
        swapped[0], swapped[20] = 1, 0
        assert not is_lloyd_fixed_point(data, Partition(assignments=swapped, k=2))


def shifted_mixture():
    # Two tight clusters far from the origin: the |x|^2 + |c|^2 - 2 x.c
    # expansion loses every digit of their distances to rounding there.
    data, truth = generate(MixtureSpec(
        k=2, sizes=(20, 20), dim=50, centre_distance=1.0,
        cluster_sigma=0.05, target_gap=1.0, seed=3,
    ))
    return Dataset(points=data.points + 1e7), truth


class TestTranslatedData:
    def test_truth_is_a_fixed_point(self):
        data, truth = shifted_mixture()
        assert is_lloyd_fixed_point(data, truth)

    def test_lloyd_recovers_the_truth(self):
        data, truth = shifted_mixture()
        part, _ = lloyd(data, 2, init=0)
        assert same_partition(part, truth)


class TestMeasureGap:
    def test_point_clusters_full_gap(self):
        data = line_dataset(0, 0, 8, 8)
        part = Partition(assignments=np.array([0, 0, 1, 1]), k=2)
        gap = measure_gap(data, part)
        assert gap.g == pytest.approx(2.0)
        assert np.nanmax(gap.per_pair_alpha) == 0.0
        assert gap.d_halfdist[0, 1] == pytest.approx(4.0)

    def test_point_on_bisector_closes_gap(self):
        data = Dataset(points=np.array([[-1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 0.0]]))
        part = Partition(assignments=np.array([0, 0, 1, 1]), k=2)
        gap = measure_gap(data, part)
        assert gap.per_pair_alpha[0, 1] == pytest.approx(1.0)
        assert gap.g == pytest.approx(0.0)

    def test_generated_gap_close_to_target(self):
        spec = MixtureSpec(k=2, sizes=(60, 60), dim=12, centre_distance=10.0,
                           cluster_sigma=0.8, target_gap=1.0, seed=3)
        data, part = generate(spec)
        measured = measure_gap(data, part).g
        assert measured >= 1.0 - 0.05

    def test_matches_pair_loop(self):
        # Each ordered pair on its own: the unit vector toward B's centroid,
        # the largest projection on it over A, divided by half the distance.
        rng = np.random.default_rng(15)
        for trial in range(60):
            k = int(rng.integers(2, 6))
            points = rng.standard_normal((40, 3)) + rng.integers(0, 3, size=(40, 1)) * 2.0
            data = Dataset(points=points + (1e6 if trial % 3 == 0 else 0.0))
            part = random_partition(rng, 40, k)
            centroids = cluster_stats(data, part).centroids
            alpha = np.full((k, k), np.nan)
            halfdist = np.full((k, k), np.nan)
            for a in range(k):
                pts = data.points[part.members(a)] - centroids[a]
                for b in range(k):
                    if a != b:
                        direction = centroids[b] - centroids[a]
                        dist = float(np.linalg.norm(direction))
                        halfdist[a, b] = dist / 2.0
                        proj = pts @ (direction / dist)
                        alpha[a, b] = min(1.0, max(0.0, float(proj.max()) / halfdist[a, b]))
            gap = measure_gap(data, part)
            np.testing.assert_allclose(gap.per_pair_alpha, alpha, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(gap.d_halfdist, halfdist, rtol=1e-12, atol=0.0)
            assert gap.g == pytest.approx(2.0 * (1.0 - np.nanmax(alpha)), rel=0.0, abs=1e-12)

    def test_coincident_centroids_error(self):
        data = line_dataset(0, 2, 5, 1, 1, 7)
        part = Partition(assignments=np.array([0, 0, 1, 2, 2, 1]), k=3)
        with pytest.raises(DegenerateDataError, match="clusters 0 and 2"):
            measure_gap(data, part)


class TestCostSandwich:
    def test_identity_case(self):
        data = Dataset(points=np.random.default_rng(12).standard_normal((20, 5)))
        part = Partition(assignments=np.array([i % 2 for i in range(20)]), k=2)
        stats = cluster_stats(data, part)
        res = cost_sandwich_check(stats, stats, 5, 5, 0.1)
        assert res.passed and res.quotient == pytest.approx(1.0)

    def test_zero_cost_case(self):
        # All points coincide per cluster, so linearity forces the
        # projected points to coincide too and both costs are exactly 0.
        # Power-of-two cluster sizes keep the float mean of identical rows
        # exact; odd sizes would manufacture a ~1e-33 variance floor.
        pts = np.array([[1.0, 2.0, 3.0]] * 4 + [[-4.0, 0.0, 2.0]] * 4)
        data = Dataset(points=pts)
        part = Partition(assignments=np.array([0] * 4 + [1] * 4), k=2)
        op = build_operator(3, 2, seed=0)
        projected = project(op, data)
        res = cost_sandwich_check(
            cluster_stats(data, part), cluster_stats(projected, part), 3, 2, 0.2
        )
        assert res.passed
        assert res.quotient == pytest.approx(1.0)

    def test_detects_violation(self):
        data = line_dataset(0, 1, 10, 11)
        part = Partition(assignments=np.array([0, 0, 1, 1]), k=2)
        stats = cluster_stats(data, part)
        shrunk = cluster_stats(Dataset(points=0.5 * data.points), part)
        res = cost_sandwich_check(stats, shrunk, 1, 1, 0.1)
        assert not res.passed

    def test_trials_match_hand_loop(self):
        rng = np.random.default_rng(13)
        data = Dataset(points=rng.standard_normal((40, 30)))
        partitions = [random_partition(rng, 40, k) for k in (2, 3, 4)]
        records = sandwich_trials(data, partitions, 10, 0.1, trials=6, base_seed=7)
        for t, rec in enumerate(records):
            projected = project(build_operator(30, 10, 7 + t), data)
            stats = [cluster_stats(projected, p) for p in partitions]
            res = [cost_sandwich_check(cluster_stats(data, p), s, 30, 10, 0.1)
                   for p, s in zip(partitions, stats)]
            q = [r.quotient for r in res]
            fixed = is_lloyd_fixed_point(projected, partitions[0])
            assert rec == kmeans.SandwichTrial(7 + t, all(r.passed for r in res), (min(q), max(q)),
                                               3.0 * stats[0].cost, fixed)
        assert {r.passed for r in records} == {True, False}
        with pytest.raises(DomainError):
            sandwich_trials(data, partitions, 10, 0.1, trials=0, base_seed=7)

    @pytest.mark.parametrize("delta", [float("nan"), 0.0, 0.5, 0.7])
    def test_trials_delta_domain(self, delta):
        data = Dataset(points=np.random.default_rng(13).standard_normal((8, 30)))
        with pytest.raises(DomainError, match="delta"):
            sandwich_trials(data, [random_partition(np.random.default_rng(1), 8, 2)], 10, delta, 1, 0)


class TestGlobalTransfer:
    def test_k_equals_m(self):
        data = line_dataset(0, 3, 9)
        res = global_optimum_transfer_check(data, Dataset(points=data.points[:, :1]), 3, 0.2)
        assert res.forward_ok and res.reverse_ok

    def test_k1_reduces_to_sandwich(self):
        rng = np.random.default_rng(13)
        data = Dataset(points=rng.standard_normal((10, 30)))
        op = build_operator(30, 20, seed=1)
        projected = project(op, data)
        res = global_optimum_transfer_check(data, projected, 1, 0.9)
        part = Partition(assignments=np.zeros(10, dtype=int), k=1)
        sandwich = cost_sandwich_check(
            cluster_stats(data, part), cluster_stats(projected, part), 30, 20, 0.9
        )
        assert res.forward_ok == (sandwich.upper_margin >= 0)


class TestPartitionHelpers:
    def test_canonical_labels(self):
        assert np.array_equal(canonical_labels(np.array([2, 2, 0, 1, 0])), [0, 0, 1, 2, 1])

    def test_save_load_round_trip(self, tmp_path):
        part = Partition(assignments=np.array([0, 1, 1, 0]), k=2)
        path = tmp_path / "part.csv"
        save_partition(part, str(path))
        assert path.read_text().splitlines() == ["id,cluster", "0,0", "1,1", "2,1", "3,0"]
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert np.array_equal([int(c) for i, c in rows], part.assignments)
        assert [int(i) for i, c in rows] == list(range(4))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_lloyd_cost_never_increases_property(seed):
    rng = np.random.default_rng(seed)
    data = Dataset(points=rng.standard_normal((25, 3)))
    part, stats = lloyd(data, 3, init=int(seed % 100))
    # The in-loop check guards monotonicity; a converged run must be
    # a fixed point too.
    assert is_lloyd_fixed_point(data, part)
