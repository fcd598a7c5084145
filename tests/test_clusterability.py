import csv
import math

import numpy as np
import pytest

from jlkit.clusterability import (
    ClusterabilityParams,
    TransportReport,
    TransportTrial,
    check_perturbation_robustness,
    measure_centre_stability,
    measure_sigma_separatedness,
    measure_weak_deletion_stability,
    required_mult_perturb_s,
    transport,
    transport_trials,
    write_transport_csv,
)
from jlkit.errors import DegenerateDataError, DomainError
from jlkit.kmeans import Partition, brute_force_optimum
from jlkit.projection import Dataset, build_operator, project


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
        assert not any(after.degraded.values())

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
        assert after.degraded["centre_stability_beta"]

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

    def test_perturbation_not_forward_mapped(self):
        after = transport(ClusterabilityParams(mult_perturb_s=0.5), 0.1)
        assert after.mult_perturb_s is None

    def test_required_s_formula(self):
        assert required_mult_perturb_s(0.9, 0.95, 0.3) == pytest.approx(
            0.9 * 0.95 * 0.49 / 1.3, rel=1e-15
        )
        with pytest.raises(DomainError):
            required_mult_perturb_s(1.1, 0.9, 0.1)

    def test_param_domain_validation(self):
        with pytest.raises(DomainError):
            ClusterabilityParams(sigma_separatedness=1.5)
        with pytest.raises(DomainError):
            ClusterabilityParams(centre_stability_beta=0.9)
        with pytest.raises(DomainError):
            ClusterabilityParams(mult_perturb_s=1.0)


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

    def test_size_limit(self):
        with pytest.raises(DomainError):
            check_perturbation_robustness(
                Dataset(points=np.arange(26, dtype=float).reshape(13, 2)), 2, 0.9, 5, 0
            )


class TestTransportTrials:
    def test_records_match_direct_measurements(self):
        rng = np.random.default_rng(4)
        data = Dataset(points=rng.standard_normal((9, 40)) + np.repeat([[0.0], [4.0], [8.0]], 3, axis=0))
        records = transport_trials(data, 3, 12, trials=3, base_seed=5)
        for t, rec in enumerate(records):
            projected = project(build_operator(40, 12, 5 + t), data)
            partition, _ = brute_force_optimum(projected, 3)
            assert rec == TransportTrial(5 + t, measure_sigma_separatedness(projected, 3),
                                         measure_centre_stability(projected, partition),
                                         measure_weak_deletion_stability(projected, 3))
        with pytest.raises(DomainError):
            transport_trials(data, 3, 12, trials=0, base_seed=5)


class TestTransportCsv:
    def test_round_trip(self, tmp_path):
        before = ClusterabilityParams(sigma_separatedness=0.2, centre_stability_beta=2.0)
        report = TransportReport(
            before=before,
            predicted_after=transport(before, 0.1),
            measured_after=ClusterabilityParams(sigma_separatedness=0.21, centre_stability_beta=1.9),
        )
        path = str(tmp_path / "transport.csv")
        write_transport_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "parameter"
        names = [r[0] for r in rows[1:]]
        assert names == ["sigma_separatedness", "centre_stability_beta"]
        sigma_row = rows[1]
        assert sigma_row[4] == "True"  # 0.21 <= predicted 0.2 * sqrt(1.1/0.9)
