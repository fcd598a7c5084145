import hashlib
from dataclasses import replace

import numpy as np
import pytest

from jlkit import datagen
from jlkit.datagen import MixtureSpec, generate
from jlkit.errors import DomainError, InfeasibleError
from jlkit.kmeans import cluster_stats, is_lloyd_fixed_point, measure_gap, pair_balance


def spec_with(**overrides):
    base = dict(k=2, sizes=(30, 30), dim=8, centre_distance=10.0,
                cluster_sigma=1.0, target_gap=1.0, seed=0)
    base.update(overrides)
    return MixtureSpec(**base)


class TestSimplexCentroids:
    @staticmethod
    def centroids(k, dim, distance):
        # With no spread, one point per cluster sits on its centroid.
        data, _ = generate(spec_with(k=k, sizes=(1,) * k, dim=dim, centre_distance=distance, cluster_sigma=0.0))
        return data.points

    @pytest.mark.parametrize("k,dim", [(2, 1), (3, 2), (4, 3), (5, 12)])
    def test_equidistant(self, k, dim):
        c = self.centroids(k, dim, 7.0)
        assert c.shape == (k, dim)
        for i in range(k):
            for j in range(i + 1, k):
                assert np.linalg.norm(c[i] - c[j]) == pytest.approx(7.0, rel=1e-9)

    def test_needs_enough_dims(self):
        with pytest.raises(DomainError):
            self.centroids(4, 2, 1.0)

    def test_single_centroid(self):
        assert np.array_equal(self.centroids(1, 5, 3.0), np.zeros((1, 5)))


class TestGenerate:
    def test_deterministic(self):
        d1, p1 = generate(spec_with())
        d2, p2 = generate(spec_with())
        assert np.array_equal(d1.points, d2.points)
        assert np.array_equal(p1.assignments, p2.assignments)

    def test_seed_changes_data(self):
        d1, _ = generate(spec_with(seed=1))
        d2, _ = generate(spec_with(seed=2))
        assert not np.array_equal(d1.points, d2.points)

    def test_sizes_and_labels(self):
        data, part = generate(spec_with(sizes=(10, 25), k=2))
        assert data.m == 35
        assert np.count_nonzero(part.assignments == 0) == 10
        assert np.count_nonzero(part.assignments == 1) == 25

    def test_zero_sigma_collapses_to_centroids(self):
        data, part = generate(spec_with(cluster_sigma=0.0))
        assert measure_gap(data, part) == pytest.approx(2.0)
        stats = cluster_stats(data, part)
        assert np.all(stats.variances == 0.0)

    def test_gap_honoured(self):
        # Rejection keeps every projection toward the foreign centroid at
        # or below alpha*d of the design geometry; measured gap tracks the
        # target closely.
        data, part = generate(spec_with(sizes=(50, 50), cluster_sigma=1.0, target_gap=1.0, seed=7))
        assert measure_gap(data, part) >= 1.0

    def test_ground_truth_is_fixed_point(self):
        for seed in range(5):
            data, part = generate(spec_with(seed=seed, k=3, sizes=(20, 20, 20), dim=6))
            assert is_lloyd_fixed_point(data, part)

    def test_rejection_rate_guard(self):
        # At a full gap demand the acceptance probability is the orthant
        # probability of k-1 equicorrelated projections, exactly 1/k; by
        # k = 240 collecting a cluster costs more than 200 proposals per
        # kept point, which is the abort threshold.
        with pytest.raises(InfeasibleError):
            generate(spec_with(k=240, sizes=(50,) * 240, dim=239, cluster_sigma=1.0,
                               target_gap=2.0, centre_distance=10.0))

    def test_overlapping_blobs_fail_fixed_point_retries(self):
        # Spread 8x the centre distance: the ground truth is essentially
        # never a Lloyd fixed point, so all retries are exhausted.
        with pytest.raises(InfeasibleError):
            generate(spec_with(cluster_sigma=8.0, target_gap=0.01, centre_distance=1.0))

    def test_balanced_ball_clusters_have_small_balance_quotient(self):
        # VAR close to (centre_distance/4)^2 gives p near 1/4, well under 1.
        dim = 8
        distance = 10.0
        sigma = distance / 4.0 / np.sqrt(dim)
        data, part = generate(spec_with(cluster_sigma=sigma, target_gap=0.2,
                                        centre_distance=distance, sizes=(100, 100), seed=2))
        stats = cluster_stats(data, part)
        assert pair_balance(stats) <= 1.0

    # Computed before the sampler wrote into its output, "retried" after each
    # attempt drew from its own streams; "several rounds" takes three
    # rejection rounds for its second cluster, "retried" three attempts.
    @pytest.mark.parametrize("overrides, sha1", [
        (dict(k=4, sizes=(3, 5, 2, 7), dim=9, centre_distance=4.0, cluster_sigma=0.0, seed=1),
         "1723354df0405517fd83dbc70e8429aa92b99b8b"),
        (dict(k=1, sizes=(40,), dim=7, centre_distance=1.0, cluster_sigma=0.5, seed=3),
         "faac6b0690e24484e486ae761cf842cc07cfd98d"),
        (dict(k=4, sizes=(10, 300, 7, 50), dim=5, centre_distance=3.0, target_gap=1.6, seed=5),
         "8791446a1ec8a1e1a00d7be13f68fd21d7288244"),
        (dict(sizes=(1000, 1000), dim=200, cluster_sigma=2.0, target_gap=0.02, seed=1),
         "e64023cdc76c7a2938c1606dc49cde1486fc1320"),
    ], ids=["sigma zero", "one cluster", "several rounds", "retried"])
    def test_pinned_output(self, overrides, sha1):
        data, part = generate(spec_with(**overrides))
        assert hashlib.sha1(data.points.tobytes() + part.assignments.tobytes()).hexdigest() == sha1

    @pytest.mark.parametrize("overrides", [
        dict(k=3, sizes=(200, 200, 100), dim=2000, centre_distance=20.0, cluster_sigma=1.5, target_gap=0.5, seed=42),
        dict(k=4, sizes=(1000, 500, 2000, 1500), dim=300, cluster_sigma=0.5, seed=2),
    ])
    def test_peak_is_the_dataset_and_two_rounds(self, overrides, traced_peak):
        # Each cluster's sampler writes into the one output; a round holds
        # its draw and the rows it keeps.  Stacking the rounds and then the
        # clusters peaked at 3.0x the dataset.
        spec = spec_with(**overrides)
        generate(spec_with())
        (data, _), peak = traced_peak(lambda: generate(spec))
        round_bytes = 8 * max(*spec.sizes, 128) * spec.dim
        assert peak <= data.points.nbytes + 2 * round_bytes + 2**20

    def test_failed_attempt_freed_before_the_next(self, traced_peak, monkeypatch):
        # Seed 1 of this spread returns its third draw, the first two not
        # Lloyd fixed points.  Kept alive, the last failed dataset would add
        # its own 3 MiB to the peak.
        verdicts = []

        def recorded(data, partition):
            verdicts.append(is_lloyd_fixed_point(data, partition))
            return verdicts[-1]

        monkeypatch.setattr(datagen, "is_lloyd_fixed_point", recorded)
        spec = spec_with(sizes=(1000, 1000), dim=200, cluster_sigma=2.0, target_gap=0.02, seed=1)
        generate(spec_with())
        verdicts.clear()
        (data, _), peak = traced_peak(lambda: generate(spec))
        assert verdicts == [False, False, True]
        assert peak <= data.points.nbytes + 2 * 8 * 1000 * 200 + 2**20

    def test_distinct_seeds_give_distinct_datasets(self):
        # About one draw in three of this spread is a Lloyd fixed point.  Each
        # retry draws from streams of its own, so no two seeds share a
        # dataset; retried from seed + attempt, seeds 0-9 gave five.  Seed 7
        # fails all ten of its attempts.
        spec = spec_with(sizes=(1000, 1000), dim=200, cluster_sigma=2.0, target_gap=0.02)
        digests = []
        for seed in range(10):
            try:
                digests.append(hashlib.sha1(generate(replace(spec, seed=seed))[0].points.tobytes()).hexdigest())
            except InfeasibleError:
                assert seed == 7
        assert len(set(digests)) == len(digests) == 9

    def test_validation(self):
        with pytest.raises(DomainError):
            spec_with(sizes=(10,))
        with pytest.raises(DomainError):
            spec_with(target_gap=0.0)
        with pytest.raises(DomainError):
            spec_with(k=5, sizes=(1, 1, 1, 1, 1), dim=3)
