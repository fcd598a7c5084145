import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from jlkit import clusterability, kmeans
from jlkit.clusterability import (
    ClusterabilityParams,
    check_perturbation_robustness,
    measure,
    measure_centre_stability,
    measure_sigma_separatedness,
    measure_weak_deletion_stability,
    required_mult_perturb_s,
    transport,
    transport_trials,
)
from jlkit.datagen import MixtureSpec, generate
from jlkit.errors import DegenerateDataError, DomainError
from jlkit.geometry import sq_dist_matrix
from jlkit.kmeans import Partition, brute_force_optimum, brute_force_optimum_sq_dists
from jlkit.projection import Dataset, build_operator, project
from tests.reference import evict_oracle_tables, seam_chunks


def line_dataset(*coords):
    return Dataset(points=np.array([[float(c)] for c in coords]))


# Three copies of each of three rows whose sum of three rounds: every
# optimal block is one row's copies, so OPT_3 is exactly 0.
DUPLICATE_TRIPLES = Dataset(points=np.repeat([[0.1, 0.7], [0.3, 0.9], [0.7, 0.1]], 3, axis=0))


class TestTransport:
    def test_identity_at_zero_delta(self):
        before = ClusterabilityParams(
            sigma_separatedness=0.4,
            approx_stability=(1.5, 0.2),
            centre_stability_beta=2.0,
            weak_deletion_beta=0.7,
        )
        after = transport(before, 0.0)
        assert after.sigma_separatedness == pytest.approx(0.4, rel=1e-15)
        assert after.approx_stability[0] == pytest.approx(1.5, rel=1e-15)
        assert after.centre_stability_beta == pytest.approx(2.0, rel=1e-15)
        assert after.weak_deletion_beta == pytest.approx(0.7, rel=1e-15)

    def test_sigma_factor(self):
        before = ClusterabilityParams(sigma_separatedness=0.3)
        after = transport(before, 0.05)
        assert after.sigma_separatedness == pytest.approx(0.3 * math.sqrt(1.05 / 0.95), rel=1e-12)
        assert after.sigma_separatedness == pytest.approx(0.31539, abs=1e-5)

    def test_beta_degradation_flagged(self):
        before = ClusterabilityParams(centre_stability_beta=1.01)
        after = transport(before, 0.05)
        assert after.centre_stability_beta == pytest.approx(1.01 * math.sqrt(0.95 / 1.05), rel=1e-12)
        assert after.centre_stability_beta == pytest.approx(0.9607, abs=1e-4)
        # The prediction leaves the domain (beta' <= 1) without raising: the property is vacuous.
        assert after.centre_stability_beta <= 1.0

    def test_monotone_degradation_in_delta(self):
        before = ClusterabilityParams(
            sigma_separatedness=0.4,
            approx_stability=(2.0, 0.3),
            centre_stability_beta=3.0,
            weak_deletion_beta=1.0,
        )
        grid = [transport(before, d) for d in (0.0, 0.1, 0.2, 0.3, 0.4, 0.49)]
        sigmas = [t.sigma_separatedness for t in grid]
        cs = [t.approx_stability[0] for t in grid]
        betas = [t.centre_stability_beta for t in grid]
        wds = [t.weak_deletion_beta for t in grid]
        assert sigmas == sorted(sigmas)
        assert cs == sorted(cs, reverse=True)
        assert betas == sorted(betas, reverse=True)
        assert wds == sorted(wds, reverse=True)

    def test_required_s_formula(self):
        assert required_mult_perturb_s(0.9, 0.95, 0.3) == pytest.approx(
            0.9 * 0.95 * 0.49 / 1.3, rel=1e-15
        )
        with pytest.raises(DomainError):
            required_mult_perturb_s(1.1, 0.9, 0.1)

    def test_param_domain_validation(self):
        # The record holds any value (a prediction may leave the domain);
        # transport checks the domains of its input, one message each.
        for params, message in [
            (dict(sigma_separatedness=1.5), "sigma-separatedness must lie in (0, 1)"),
            (dict(approx_stability=(1.0, 0.2)), "approximation-stability factor c must exceed 1"),
            (dict(centre_stability_beta=0.9), "centre-stability beta must exceed 1"),
            (dict(weak_deletion_beta=0.0), "weak-deletion beta must be positive"),
        ]:
            before = ClusterabilityParams(**params)
            with pytest.raises(DomainError) as err:
                transport(before, 0.1)
            assert str(err.value) == message


class TestSigmaSeparatedness:
    def test_point_clusters_give_zero(self):
        data = line_dataset(0, 0, 10, 10)
        assert measure_sigma_separatedness(data, 2) == 0.0

    def test_hand_value_line_instance(self):
        # OPT_2 = 1.0 ({0,1} | {10,11}), OPT_1 = 101.
        data = line_dataset(0, 1, 10, 11)
        assert measure_sigma_separatedness(data, 2) == pytest.approx(math.sqrt(1.0 / 101.0), rel=1e-12)

    def test_degenerate_opt_zero(self):
        for data, k in ((line_dataset(5, 5, 5, 5), 2), (DUPLICATE_TRIPLES, 4)):
            with pytest.raises(DegenerateDataError):
                measure_sigma_separatedness(data, k)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.standard_normal((5, 2)), rng.standard_normal((5, 2)) + 8.0])
        a = measure_sigma_separatedness(Dataset(points=pts), 2)
        b = measure_sigma_separatedness(Dataset(points=4.0 * pts), 2)
        assert a == pytest.approx(b, rel=1e-12)

    def test_translation_far_from_origin(self):
        # At 1e8 the Gram expansion loses the distances: another optimum, sigma 0.944.
        pts = np.random.default_rng(5).standard_normal((12, 30))
        base, _ = brute_force_optimum(Dataset(points=pts), 3)
        far = Dataset(points=pts + 1e8)
        assert np.array_equal(brute_force_optimum(far, 3)[0].assignments, base.assignments)
        assert measure_sigma_separatedness(far, 3) == pytest.approx(0.921344, abs=1e-6)


class TestCentreStability:
    def test_hand_value(self):
        # Optimal 2-clustering of {-1, 1, 3, 3}: centroids 0 and 3.  The
        # point at 1 gives the binding ratio 2/1.
        data = line_dataset(-1, 1, 3, 3)
        part, _ = brute_force_optimum(data, 2)
        assert measure_centre_stability(data, part) == pytest.approx(2.0, rel=1e-12)

    def test_collapsed_clusters_unbounded(self):
        data = line_dataset(0, 0, 7, 7)
        part = Partition(assignments=np.array([0, 0, 1, 1]), k=2)
        assert measure_centre_stability(data, part) == np.inf
        triples = Partition(assignments=np.repeat(np.arange(3), 3), k=3)
        assert measure_centre_stability(DUPLICATE_TRIPLES, triples) == np.inf

    def test_not_stable_when_ratio_below_one(self):
        # Force a partition whose member sits closer to the foreign centroid.
        data = line_dataset(0, 1, 2, 10)
        part = Partition(assignments=np.array([0, 0, 1, 1]), k=2)
        assert measure_centre_stability(data, part) < 1.0

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(1)
        pts = np.vstack([rng.standard_normal((5, 2)), rng.standard_normal((5, 2)) + 6.0])
        data = Dataset(points=pts)
        part, _ = brute_force_optimum(data, 2)
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = Dataset(points=pts @ rot.T + np.array([100.0, -3.0]))
        a = measure_centre_stability(data, part)
        b = measure_centre_stability(moved, part)
        assert a == pytest.approx(b, rel=1e-9)


class TestWeakDeletion:
    def test_hand_value(self):
        data = line_dataset(0, 1, 10, 11)
        assert measure_weak_deletion_stability(data, 2) == pytest.approx(101.0, rel=1e-12)

    def test_zero_opt_is_error(self):
        for data, k in ((line_dataset(0, 0, 10, 10), 2), (DUPLICATE_TRIPLES, 3)):
            with pytest.raises(DegenerateDataError):
                measure_weak_deletion_stability(data, k)

    def test_three_clusters_takes_cheapest_merge(self):
        # Clusters at 0, 10, 100 with small spread: the cheapest deletion
        # merges 0 into 10 (or back), far cheaper than moving to 100.
        data = line_dataset(0, 0.5, 10, 10.5, 100, 100.5)
        ratio = measure_weak_deletion_stability(data, 3)
        # Merge {0, 0.5} with {10, 10.5}: mean 5.25, cost 2*(5.25-0.25)^2
        # + 2*(5.25-10.25)^2 = 100.125... plus residual 0.125 of cluster 3.
        opt = 3 * 0.125
        merged_cost = 50.0 + 50.25 + 0.125
        assert ratio == pytest.approx(merged_cost / opt, rel=1e-9)

    @pytest.mark.parametrize("offset", [0.0, 1e7, 1e12])
    def test_matches_exact_rationals(self, offset):
        # Far from the origin the centroids' digits are gone, so the ratio
        # is checked against exact arithmetic on the same float points, for
        # the optimal partition the measurement picks.
        rng = np.random.default_rng(16)
        for _ in range(40):
            m, k, d = int(rng.integers(4, 9)), int(rng.integers(2, 4)), int(rng.integers(1, 4))
            data = Dataset(points=rng.standard_normal((m, d)) + offset)
            ratio = measure_weak_deletion_stability(data, k)
            part, _ = brute_force_optimum(data, k)
            rows = [[Fraction(v) for v in row] for row in data.points.tolist()]
            blocks = [part.members(j).tolist() for j in range(k)]
            opt = exact_cost(rows, blocks)
            merged = min(
                exact_cost(rows, [blocks[j] + blocks[r]] + [b for t, b in enumerate(blocks) if t not in (j, r)])
                for j in range(k) for r in range(j + 1, k)
            )
            assert abs(Fraction(ratio) - merged / opt) <= Fraction(1, 10**12) * merged / opt

    @pytest.mark.parametrize("k", [3, 4])
    def test_at_most_two_cluster_stats_calls(self, k, monkeypatch):
        # The merges come from the optimum's stats, not from re-costing
        # each of the k(k-1) merged partitions.
        data = Dataset(points=np.random.default_rng(17).standard_normal((9, 2)))
        real = kmeans.cluster_stats
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(kmeans, "cluster_stats", counted)
        monkeypatch.setattr(clusterability, "cluster_stats", counted)
        measure_weak_deletion_stability(data, k)
        assert calls[0] <= 2


def exact_cost(rows, blocks):
    # The k-means cost of the blocks of rows (lists of Fractions), exactly.
    total = Fraction(0)
    for block in blocks:
        pts = [rows[i] for i in block]
        mean = [sum(column) / len(pts) for column in zip(*pts)]
        total += sum((x - c) ** 2 for p in pts for x, c in zip(p, mean))
    return total


def enumerate_every_trial(data, k, s, trials, seed):
    # The perturbation check as one full enumeration per perturbed metric.
    sq = sq_dist_matrix(data.points)
    reference, _ = brute_force_optimum_sq_dists(sq, k)
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(data.m, 1)
    for _ in range(trials):
        factors = np.ones((data.m, data.m))
        draw = rng.uniform(s, 1.0 / s, size=iu[0].size)
        factors[iu] = draw
        factors[(iu[1], iu[0])] = draw
        candidate, _ = brute_force_optimum_sq_dists(sq * factors**2, k)
        if not np.array_equal(reference.assignments, candidate.assignments):  # both in RGS form
            return False
    return True


class TestPerturbationRobustness:
    def test_tight_band_always_true(self):
        data = line_dataset(0, 1, 10, 11)
        assert check_perturbation_robustness(data, 2, s=0.999, trials=40, seed=0)

    def test_separated_instance_robust(self):
        rng = np.random.default_rng(2)
        pts = np.vstack([rng.standard_normal((5, 3)) * 0.1,
                         rng.standard_normal((5, 3)) * 0.1 + 20.0])
        assert check_perturbation_robustness(Dataset(points=pts), 2, s=0.9, trials=200, seed=1)

    def test_near_tied_instance_flips(self):
        # Second-best partition within a factor ~1.8; a band of 0.5 on
        # distances (0.25..4 on squares) flips the optimum quickly.
        data = line_dataset(0, 1, 1.9, 2.9)
        assert not check_perturbation_robustness(data, 2, s=0.5, trials=50, seed=3)

    def test_composition_law(self):
        # Squared-distance budget: s = nu * s_p.  A set robust at the full
        # budget stays robust at s_p after any nu-bounded squared-distance
        # perturbation (here: an additive jitter small against the
        # closest pair, so every distance ratio stays inside the nu band).
        from jlkit.geometry import sq_dist_matrix

        nu_sq, s_p_sq = 0.9, 0.8
        s_sq = nu_sq * s_p_sq
        rng = np.random.default_rng(4)
        pts = np.vstack([rng.standard_normal((5, 3)) * 0.05,
                         rng.standard_normal((5, 3)) * 0.05 + 15.0])
        data = Dataset(points=pts)
        assert check_perturbation_robustness(data, 2, s=math.sqrt(s_sq), trials=100, seed=5)
        iu = np.triu_indices(10, 1)
        d_min = math.sqrt(sq_dist_matrix(pts)[iu].min())
        noise = rng.standard_normal(pts.shape)
        noise /= np.linalg.norm(noise, axis=1, keepdims=True)
        jitter = Dataset(points=pts + 0.02 * d_min * noise)
        ratio = sq_dist_matrix(jitter.points)[iu] / sq_dist_matrix(pts)[iu]
        assert ratio.min() > nu_sq and ratio.max() < 1.0 / nu_sq
        assert check_perturbation_robustness(jitter, 2, s=math.sqrt(s_p_sq), trials=100, seed=6)

    @pytest.mark.parametrize("s_sq, expected", [
        (0.9, "TTTTTTTTTTTTTTTTTTTT"),
        (0.01, "TTTFTTFTTTTFFTTTTTFF"),
    ])
    def test_projected_mixture_verdicts(self, s_sq, expected):
        # The 4/4/4 mixture of the oracle-14 benchmark, projected to
        # n' = 403 with operator seeds 3000-3019, perturbation seeds 100 + t.
        small, _ = generate(MixtureSpec(k=3, sizes=(4, 4, 4), dim=500, centre_distance=10.0,
                                        cluster_sigma=0.05, target_gap=1.0, seed=33))
        verdicts = "".join(
            "T" if check_perturbation_robustness(project(build_operator(500, 403, 3000 + t), small), 3,
                                                 math.sqrt(s_sq), trials=30, seed=100 + t) else "F"
            for t in range(20)
        )
        assert verdicts == expected

    def test_matches_enumerating_every_trial(self):
        rng = np.random.default_rng(17)
        instances = [(line_dataset(0, 1, 1.9, 2.9), 2),
                     (line_dataset(0, 0, 0, 5, 5, 9), 3)]  # duplicates: optimum costs exactly 0
        for _ in range(12):
            m, k = int(rng.integers(4, 11)), int(rng.integers(2, 5))
            centres = rng.uniform(0.0, 6.0, size=(k, 2))
            instances.append((Dataset(points=centres[np.arange(m) % k] + rng.standard_normal((m, 2))), k))
        # Two (12, 3) instances, where the group bound prunes in every trial:
        # three tight clusters, and four evenly spaced ones whose three merges
        # nearly tie.
        centres = rng.uniform(0.0, 20.0, size=(3, 2))
        instances.append((Dataset(points=centres[np.arange(12) % 3] + 0.3 * rng.standard_normal((12, 2))), 3))
        row = np.repeat([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0]], 3, axis=0)
        instances.append((Dataset(points=row + 0.3 * rng.standard_normal((12, 2))), 3))
        assert brute_force_optimum_sq_dists(sq_dist_matrix(instances[1][0].points), 3)[1] == 0.0
        verdicts = {}
        for s in (0.999, 0.95, 0.7, 0.5, 0.1):
            for i, (data, k) in enumerate(instances):
                verdicts[s, i] = enumerate_every_trial(data, k, s, trials=30, seed=i)
                assert check_perturbation_robustness(data, k, s, trials=30, seed=i) == verdicts[s, i]
        assert verdicts[0.5, 0] is False and verdicts[0.1, 1] is True
        assert verdicts[0.1, 14] is True and verdicts[0.7, 15] is False
        assert sum(verdicts.values()) not in (0, len(verdicts))

    def test_one_enumeration_per_call(self, oracle_calls):
        small, _ = generate(MixtureSpec(k=3, sizes=(4, 4, 4), dim=500, centre_distance=10.0,
                                        cluster_sigma=0.05, target_gap=1.0, seed=33))
        for t, expected in ((0, True), (3, False)):  # the s^2 = 0.01 verdicts below
            oracle_calls[0] = 0
            data = project(build_operator(500, 403, 3000 + t), small)
            assert check_perturbation_robustness(data, 3, 0.1, trials=30, seed=100 + t) is expected
            assert oracle_calls[0] == 1

    def test_trials_prune_at_their_own_bound(self, monkeypatch):
        # The oracle-14 benchmark's set-up call: 25 rivals, so all 30 trials
        # run, each pruned at its perturbed metric's farthest-first cost.
        # 133,288 partitions are costed in all, 184,383 with trials pruned at 1/s^2 OPT.
        small, _ = generate(MixtureSpec(k=3, sizes=(4, 4, 4), dim=500, centre_distance=10.0,
                                        cluster_sigma=0.05, target_gap=1.0, seed=33))
        calls = seam_chunks(monkeypatch)
        s = math.sqrt(required_mult_perturb_s(0.9, 0.95, 0.3))
        assert check_perturbation_robustness(small, 3, s, trials=30, seed=1) is True
        assert len(calls) == 32
        assert sum(costs.size for chunks in calls for _, costs in chunks) <= 150_000

    def test_every_partition_a_rival_copies_no_mask_table(self, traced_peak):
        # At (12, 6) and s = 0.1 every one of the 1,323,652 partitions is a
        # rival: their costs take 10.1 MiB at set-up, and no mask table is
        # built.  Measured cold, the factor tables built while tracing.
        data = Dataset(points=np.random.default_rng(0).standard_normal((12, 3)))
        evict_oracle_tables()
        _, peak = traced_peak(lambda: check_perturbation_robustness(data, 6, 0.1, trials=2, seed=0))
        assert peak < 16 * 2**20

    def test_s_whose_powers_underflow(self):
        # s**4 underflows to 0.0 at both s: s is divided out of the bounds one
        # factor at a time, so each gives a verdict, not a ZeroDivisionError.
        data = Dataset(points=np.random.default_rng(0).standard_normal((6, 2)))
        for s in (1e-90, 1e-150):
            assert check_perturbation_robustness(data, 2, s, trials=30, seed=0) is False

    def test_s_whose_reciprocal_overflows(self):
        # 1/s is inf at 1e-320: the factors' upper end is clamped to the float
        # maximum.  Squared factor products overflow at both s; the inf
        # distances they give go to the oracle without a warning.
        data = Dataset(points=np.random.default_rng(0).standard_normal((6, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (1e-300, 1e-320):
                assert check_perturbation_robustness(data, 2, s, trials=30, seed=0) is False

    def test_duplicate_rows_where_factor_products_overflow(self):
        # The squared factor products overflow to inf at both s; the equal
        # rows' zero distance must stay 0, not become 0 * inf = NaN.
        pts = np.random.default_rng(0).standard_normal((6, 2))
        pts[1] = pts[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (1e-160, 1e-300):
                assert check_perturbation_robustness(Dataset(points=pts), 2, s, trials=30, seed=0) is False

    def test_size_limit(self):
        with pytest.raises(DomainError):
            check_perturbation_robustness(
                Dataset(points=np.arange(26, dtype=float).reshape(13, 2)), 2, 0.9, 5, 0
            )


class TestMeasure:
    def test_fields_are_the_three_measurements(self):
        rng = np.random.default_rng(4)
        data = Dataset(points=rng.standard_normal((9, 40)) + np.repeat([[0.0], [4.0], [8.0]], 3, axis=0))
        record = measure(data, 3)
        partition, _ = brute_force_optimum(data, 3)
        ratio = measure_weak_deletion_stability(data, 3)
        assert record == ClusterabilityParams(
            sigma_separatedness=measure_sigma_separatedness(data, 3),
            centre_stability_beta=measure_centre_stability(data, partition),
            weak_deletion_beta=ratio - 1.0,
        )
        assert 1.0 + record.weak_deletion_beta == ratio


class TestTransportTrials:
    def test_records_match_direct_measurements(self):
        rng = np.random.default_rng(4)
        data = Dataset(points=rng.standard_normal((9, 40)) + np.repeat([[0.0], [4.0], [8.0]], 3, axis=0))
        records = transport_trials(data, 3, 12, trials=3, base_seed=5)
        assert records == [measure(project(build_operator(40, 12, 5 + t), data), 3) for t in range(3)]
        with pytest.raises(DomainError):
            transport_trials(data, 3, 12, trials=0, base_seed=5)

    def test_two_oracle_calls_per_trial(self, oracle_calls):
        # sigma-separatedness enumerates k and k-1; the optimum and the
        # deletion ratio reuse the enumeration at k.
        rng = np.random.default_rng(4)
        data = Dataset(points=rng.standard_normal((10, 40)) + np.repeat([[0.0], [4.0], [8.0]], [3, 3, 4], axis=0))
        transport_trials(data, 3, 12, trials=3, base_seed=5)
        assert oracle_calls[0] == 2 * 3
