import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jlkit import geometry
from jlkit.datagen import MixtureSpec, generate
from jlkit.dimension import implicit_dimension
from jlkit.errors import DegenerateDataError, DomainError, ShapeError
from jlkit.geometry import (
    _wilson_interval,
    distortion_report,
    estimate_failure_rate,
    export_histogram,
    pairwise_sq_dists,
    sq_dist_matrix,
    sq_dists_to,
)
from jlkit.projection import Dataset, build_operator, project


def brute_sq_dists(points):
    m = points.shape[0]
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            out.append(float(np.sum((points[i] - points[j]) ** 2)))
    return np.array(out)


class TestPairwiseSqDists:
    def test_matches_brute_force(self):
        pts = np.random.default_rng(0).standard_normal((23, 7))
        assert np.allclose(pairwise_sq_dists(pts), brute_sq_dists(pts), rtol=1e-10, atol=1e-12)

    def test_block_size_independent(self, monkeypatch):
        # Each pair is computed from its own norms and dot product, so the
        # value is a function of (x_i, x_j) alone; BLAS kernel selection
        # may still wiggle the last ulp between block shapes.
        pts = np.random.default_rng(1).standard_normal((31, 5))
        monkeypatch.setattr(geometry, "_BLOCK", 31)
        ref = pairwise_sq_dists(pts)
        for block in (1, 2, 7, 16, 100):
            monkeypatch.setattr(geometry, "_BLOCK", block)
            assert np.allclose(pairwise_sq_dists(pts), ref, rtol=1e-12, atol=0)

    def test_repeat_call_bitwise_identical(self):
        pts = np.random.default_rng(1).standard_normal((31, 5))
        assert np.array_equal(pairwise_sq_dists(pts), pairwise_sq_dists(pts))

    def test_length(self):
        pts = np.zeros((9, 2))
        assert pairwise_sq_dists(pts).size == 36


class TestSqDistsTo:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        pts, centres = rng.standard_normal((17, 5)), rng.standard_normal((4, 5))
        expected = [[float(np.sum((p - c) ** 2)) for c in centres] for p in pts]
        np.testing.assert_allclose(sq_dists_to(pts, centres), expected, rtol=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 1e7])
    def test_point_on_its_centre_is_exactly_zero(self, offset):
        pts = np.random.default_rng(1).standard_normal((12, 30)) + offset
        sq = sq_dists_to(pts, pts[[3, 8]])
        assert sq[3, 0] == 0.0 and sq[8, 1] == 0.0
        assert np.count_nonzero(sq == 0.0) == 2

    def test_translation_invariant(self):
        rng = np.random.default_rng(2)
        pts, centres = rng.standard_normal((20, 40)), rng.standard_normal((3, 40))
        base = sq_dists_to(pts, centres)
        shifted = sq_dists_to(pts + 1e7, centres + 1e7)
        np.testing.assert_allclose(shifted, base, rtol=1e-6)

    # (m, d) at the edges of the row chunks: one row; a chunk's row count
    # (2^15 // d) less one, itself and plus one; d over 8192, where einsum sums
    # a single row in pieces, with a lone last row (10000 -> 3 rows a chunk,
    # 40000 -> 2); d = 1.
    @pytest.mark.parametrize("m, d", [(1, 5), (4095, 8), (4096, 8), (4097, 8), (8193, 8), (1, 40000),
                                      (3, 40000), (5, 40000), (4, 10000), (7, 10000), (32769, 1)])
    @pytest.mark.parametrize("offset", [0.0, 1e5])
    def test_bitwise_the_whole_array_difference(self, m, d, offset):
        rng = np.random.default_rng(m + d)
        pts, centres = rng.standard_normal((m, d)) + offset, rng.standard_normal((3, d)) + offset
        centres[1] = pts[-1]
        expected = np.empty((m, 3))
        for j, centre in enumerate(centres):
            diff = pts - centre
            expected[:, j] = np.einsum("ij,ij->i", diff, diff)
        sq = sq_dists_to(pts, centres)
        assert sq.tobytes() == expected.tobytes()
        assert sq[-1, 1] == 0.0

    def test_transient_is_one_chunk(self, traced_peak):
        # The whole-array difference took one m x d temporary per centre,
        # 61.6 MiB here.
        pts, centres = np.random.default_rng(3).standard_normal((20_000, 200)), np.zeros((3, 200))
        sq_dists_to(pts[:10], centres)
        sq, peak = traced_peak(lambda: sq_dists_to(pts, centres))
        assert peak <= sq.nbytes + 2**20


class TestSqDistMatrix:
    def test_direct_difference(self):
        # Translated by 1e7, the Gram expansion lost every digit of these distances.
        pts = np.random.default_rng(0).standard_normal((9, 4))
        expected = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        for offset, rtol in ((0.0, 1e-12), (1e7, 1e-6)):
            sq = sq_dist_matrix(pts + offset)
            np.testing.assert_allclose(sq, expected, rtol=rtol)
            assert np.array_equal(sq, sq.T)
            assert np.all(np.diag(sq) == 0.0)

    def test_duplicated_rows_are_exactly_zero(self):
        # On these rows the Gram expansion leaves the duplicate pairs at
        # about 7e-15 rather than 0.
        pts = np.random.default_rng(2).standard_normal((10, 30))
        pts = np.vstack([pts, pts[[2, 5]]])
        sq = sq_dist_matrix(pts)
        assert sq[2, 10] == sq[10, 2] == 0.0
        assert sq[5, 11] == sq[11, 5] == 0.0
        assert np.count_nonzero(sq == 0.0) == 12 + 4


class TestDistortionReport:
    def test_identity_diagnostic(self):
        data = Dataset(points=np.random.default_rng(2).standard_normal((20, 6)))
        report = distortion_report(data, data, delta=0.1)
        assert np.all(report.quotients == 1.0)
        assert report.success and report.violations == 0
        assert report.pair_count == 190

    def test_band_boundary_violation(self):
        delta = 0.1
        # One pair; original in 2-D at squared distance 1, projected in 1-D.
        # Quotient is (2/1) * sq'; make it exceed 1 + delta by 1e-9.
        target = (1.0 + delta + 1e-9) / 2.0
        original = Dataset(points=np.array([[0.0, 0.0], [1.0, 0.0]]))
        projected = Dataset(points=np.array([[0.0], [np.sqrt(target)]]))
        report = distortion_report(original, projected, delta)
        assert report.violations == 1
        assert not report.success

    def test_inside_band_passes(self):
        delta = 0.1
        target = (1.0 + delta - 1e-9) / 2.0
        original = Dataset(points=np.array([[0.0, 0.0], [1.0, 0.0]]))
        projected = Dataset(points=np.array([[0.0], [np.sqrt(target)]]))
        assert distortion_report(original, projected, delta).success

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((30, 40))
        op = build_operator(40, 10, seed=5)
        shift = 13.75 * np.ones(40)
        r1 = distortion_report(Dataset(points=pts), project(op, Dataset(points=pts)), 0.5)
        r2 = distortion_report(
            Dataset(points=pts + shift), project(op, Dataset(points=pts + shift)), 0.5
        )
        assert np.allclose(r1.quotients, r2.quotients, rtol=1e-9)

    def test_scale_invariance_exact_for_powers_of_two(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((15, 30))
        op = build_operator(30, 8, seed=6)
        r1 = distortion_report(Dataset(points=pts), project(op, Dataset(points=pts)), 0.5)
        r2 = distortion_report(
            Dataset(points=4.0 * pts), project(op, Dataset(points=4.0 * pts)), 0.5
        )
        assert np.array_equal(r1.quotients, r2.quotients)

    def test_zero_pairs_excluded_and_counted(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
        proj = pts[:, :1]
        report = distortion_report(Dataset(points=pts), Dataset(points=proj), 0.9)
        assert report.zero_pairs == 1
        assert report.quotients.size == 2
        assert report.pair_count == 3

    def test_all_coincident_rejected(self):
        pts = np.ones((4, 3))
        with pytest.raises(DegenerateDataError):
            distortion_report(Dataset(points=pts), Dataset(points=pts[:, :2]), 0.1)

    @pytest.mark.parametrize("delta", [0.0, -0.1, float("nan"), float("inf"), 1e308, 1e-17])
    def test_band_width_domain(self, delta):
        # 1e308 overflows the band width, 1e-17 rounds it to zero.
        pts = np.random.default_rng(1).standard_normal((4, 3))
        with pytest.raises(DomainError):
            distortion_report(Dataset(points=pts), Dataset(points=pts[:, :2]), delta)

    def test_wrong_m_rejected(self):
        a = Dataset(points=np.zeros((3, 3)))
        b = Dataset(points=np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            distortion_report(a, b, 0.1)


class TestFailureRate:
    def test_deterministic(self):
        data = Dataset(points=np.random.default_rng(7).standard_normal((12, 60)))
        a = estimate_failure_rate(data, 20, 0.3, trials=10, base_seed=11)
        b = estimate_failure_rate(data, 20, 0.3, trials=10, base_seed=11)
        assert a == b

    # delta = 3 puts the band edge some 15 quotient deviations (~sqrt(2/n')) out.
    @pytest.mark.parametrize("n_prime, delta, failures", [(50, 3.0, 0), (4, 0.5, 3)])
    def test_extremes_match_distortion_report(self, n_prime, delta, failures):
        # Two row blocks, and duplicate rows whose zero-distance pairs are left out.
        points = np.random.default_rng(10).standard_normal((300, 60))
        points[[5, 150, 299]] = points[0]
        data = Dataset(points=points)
        est = estimate_failure_rate(data, n_prime, delta, trials=3, base_seed=11)
        assert est.failures == failures and (est.wilson_interval[0] == 0.0) == (failures == 0)
        for t, extremes in enumerate(est.extremes):
            op = build_operator(60, n_prime, 11 + t)
            q = distortion_report(data, project(op, data), delta).quotients
            assert extremes == (q.min(), q.max())

    def test_orthonormal_rows_hold_the_n_aware_bound(self):
        # The CLI pipeline instance, 60 points in n = 400: n' = 299 is the
        # n-aware bound's at eps 0.1, delta 0.2, a bound on orthonormal rows.
        # Normalized rows fail every one of these seeds.
        data, _ = generate(MixtureSpec(k=2, sizes=(30, 30), dim=400, centre_distance=10.0,
                                       cluster_sigma=1.0, target_gap=1.0, seed=7))
        assert implicit_dimension(60, 0.1, 0.2, 400) == 299
        est = estimate_failure_rate(data, 299, 0.2, 50, 0, orthonormalize=True)
        assert est.rate <= 0.1 + 3 * math.sqrt(0.1 * 0.9 / 50)


class TestWilson:
    def test_known_value(self):
        lo, hi = _wilson_interval(5, 10)
        assert lo == pytest.approx(0.2365, abs=2e-4)
        assert hi == pytest.approx(0.7635, abs=2e-4)

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=50))
    @settings(max_examples=100)
    def test_contains_point_estimate(self, f, t):
        f = min(f, t)
        lo, hi = _wilson_interval(f, t)
        assert 0.0 <= lo <= f / t <= hi <= 1.0


class TestHistogram:
    def test_export(self, tmp_path):
        data = Dataset(points=np.random.default_rng(10).standard_normal((40, 80)))
        op = build_operator(80, 30, seed=2)
        report = distortion_report(data, project(op, data), 0.2)
        path = str(tmp_path / "hist.csv")
        export_histogram(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_lo", "bin_hi", "count"]
        counts = [int(r[2]) for r in rows[1:]]
        assert sum(counts) == report.quotients.size
        widths = [float(r[1]) - float(r[0]) for r in rows[1:]]
        assert all(abs(w - 0.01) < 1e-9 for w in widths)  # delta/20 = 0.01

    def test_bin_count_is_capped(self, tmp_path):
        # delta/20-wide bins would number 140,729 here; they widen to a whole
        # multiple of delta/20 instead, and every quotient is still counted.
        data = Dataset(points=np.random.default_rng(0).standard_normal((10, 60)))
        report = distortion_report(data, Dataset(points=data.points[:, :20]), 1e-4)
        path = str(tmp_path / "hist.csv")
        export_histogram(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert 0 < len(rows) <= 1000
        assert sum(int(r[2]) for r in rows) == report.quotients.size
        multiple = (float(rows[0][1]) - float(rows[0][0])) / (1e-4 / 20)
        assert multiple > 1 and abs(multiple - round(multiple)) < 1e-3


def brute_quotients(original, projected):
    """Per-pair loop in condensed i < j order; equal original rows are zero pairs."""
    adjust = original.shape[1] / projected.shape[1]
    quotients, zero_pairs = [], 0
    m = original.shape[0]
    for i in range(m):
        for j in range(i + 1, m):
            if np.array_equal(original[i], original[j]):
                zero_pairs += 1
                continue
            sq_orig = np.sum((original[i] - original[j]) ** 2)
            sq_proj = np.sum((projected[i] - projected[j]) ** 2)
            quotients.append(adjust * sq_proj / sq_orig)
    return np.array(quotients), zero_pairs


def _instance_with_duplicates():
    rng = np.random.default_rng(21)
    pts = rng.standard_normal((40, 30))
    pts[[7, 19, 33]] = pts[3]
    pts[25] = pts[12]
    data = Dataset(points=pts)
    return data, project(build_operator(30, 12, seed=4), data)


class TestBlockKernel:
    def test_quotients_match_brute_force_loop(self):
        data, proj = _instance_with_duplicates()
        report = distortion_report(data, proj, 0.5)
        expected, zero_pairs = brute_quotients(data.points, proj.points)
        assert report.zero_pairs == zero_pairs == 7
        assert report.quotients.shape == expected.shape
        assert np.allclose(report.quotients, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("block", [1, 7, 39, 40, 41, 1000])
    def test_block_size_independent(self, monkeypatch, block):
        data, proj = _instance_with_duplicates()
        ref = distortion_report(data, proj, 0.5)
        ref_sq = pairwise_sq_dists(data.points)
        monkeypatch.setattr(geometry, "_BLOCK", block)
        report = distortion_report(data, proj, 0.5)
        assert (report.violations, report.zero_pairs) == (ref.violations, ref.zero_pairs)
        assert np.allclose(report.quotients, ref.quotients, rtol=1e-12, atol=0)
        sq = pairwise_sq_dists(data.points)
        assert np.count_nonzero(sq == 0.0) == 7
        assert np.allclose(sq, ref_sq, rtol=1e-12, atol=0)

    def test_repeat_call_bitwise_identical(self):
        data, proj = _instance_with_duplicates()
        a = distortion_report(data, proj, 0.5)
        b = distortion_report(data, proj, 0.5)
        assert np.array_equal(a.quotients, b.quotients)
        assert (a.violations, a.zero_pairs) == (b.violations, b.zero_pairs)

    def test_exact_duplicates_are_zero_pairs(self):
        # 200 points plus exact copies of 50 of them.  The Gram expansion
        # leaves a copy's squared distance to its original as rounding
        # noise, which must not become a quotient.
        rng = np.random.default_rng(0)
        base = rng.standard_normal((200, 300))
        copied = rng.choice(200, 50, replace=False)
        data = Dataset(points=np.vstack([base, base[copied]]))
        op = build_operator(300, 150, seed=1)
        report = distortion_report(data, project(op, data), 0.45)
        assert report.zero_pairs == 50
        assert report.quotients.size == report.pair_count - 50
        sq = pairwise_sq_dists(data.points)
        copy_pairs = [i * 250 - i * (i + 1) // 2 + (200 + k - i - 1) for k, i in enumerate(copied)]
        assert np.all(sq[copy_pairs] == 0.0)
        # Violations match the de-duplicated data, where a violating pair
        # counts once per copy of each of its points.
        dedup = distortion_report(Dataset(points=base), project(op, Dataset(points=base)), 0.45)
        copies = np.ones(200, dtype=int)
        copies[copied] += 1
        i, j = np.triu_indices(200, 1)
        outside = (dedup.quotients < 0.55) | (dedup.quotients > 1.45)
        assert dedup.violations == 4
        assert report.violations == int(np.sum(copies[i] * copies[j] * outside)) == 8


    def test_transient_peak_is_under_two_gram_blocks(self, traced_peak):
        # Beyond its output, each call holds one 8 x block x m Gram block at
        # a time and a few rows of scratch.
        m = 3000
        data = Dataset(points=np.random.default_rng(5).standard_normal((m, 300)))
        proj = project(build_operator(300, 100, seed=1), data)
        block, out = 8 * geometry._BLOCK * m, 8 * (m * (m - 1) // 2)
        for call in (lambda: pairwise_sq_dists(data.points), lambda: distortion_report(data, proj, 0.3)):
            _, peak = traced_peak(call)
            assert peak - out <= 2 * block


class TestFailureRateStreaming:
    # Failure counts recorded with the previous full-Gram implementation.
    @pytest.mark.parametrize(
        "seed, shape, n_prime, delta, trials, base_seed, failures",
        [
            (7, (12, 60), 20, 0.3, 10, 11, 10),
            (8, (10, 50), 45, 3.0, 15, 0, 0),
            (9, (30, 100), 1, 0.05, 20, 3, 20),
            (12, (300, 80), 60, 0.9, 12, 21, 5),
        ],
    )
    def test_same_failures_as_before(self, seed, shape, n_prime, delta, trials, base_seed, failures):
        data = Dataset(points=np.random.default_rng(seed).standard_normal(shape))
        assert estimate_failure_rate(data, n_prime, delta, trials, base_seed).failures == failures

    @pytest.mark.parametrize("block", [1, 7, 299, 300, 301])
    def test_block_size_independent(self, monkeypatch, block):
        monkeypatch.setattr(geometry, "_BLOCK", block)
        data = Dataset(points=np.random.default_rng(12).standard_normal((300, 80)))
        assert estimate_failure_rate(data, 60, 0.9, 12, 21).failures == 5


def direct_quotients(original, projected):
    """Quotients from direct differences of the stored points, in condensed order."""
    iu = np.triu_indices(original.shape[0], 1)
    adjust = original.shape[1] / projected.shape[1]
    return adjust * sq_dist_matrix(projected)[iu] / sq_dist_matrix(original)[iu]


def _report(points, n_prime=1000, seed=3, delta=0.3):
    data = Dataset(points=points)
    return distortion_report(data, project(build_operator(data.dim, n_prime, seed), data), delta)


class TestCancellation:
    # Pairs whose squared norms dwarf their distance: there the Gram
    # expansion alone loses most of its digits, enough to change the
    # verdict, so the kernel must recompute them.

    def test_translated_data_keep_the_unshifted_verdict(self):
        pts = np.random.default_rng(0).standard_normal((200, 2000)) * 0.01
        base, shifted = _report(pts), _report(pts + 1e5)
        assert shifted.violations == base.violations == 0
        assert shifted.quotients.min() == pytest.approx(base.quotients.min(), abs=1e-9)
        assert shifted.quotients.max() == pytest.approx(base.quotients.max(), abs=1e-9)

    def test_tight_pair_of_clusters_matches_direct_difference(self):
        a = np.random.default_rng(1).standard_normal((100, 2000)) * 0.01
        pts = np.vstack([a + 1e5, 1.3 * a[::-1] - 1e5])
        data = Dataset(points=pts)
        projected = project(build_operator(2000, 1000, 3), data)
        report = distortion_report(data, projected, 0.3)
        assert report.violations == 0
        np.testing.assert_allclose(report.quotients, direct_quotients(pts, projected.points), rtol=1e-12)

    def test_far_near_duplicates_are_not_noise(self):
        # Rows 1e-3 apart at scale 1e6: the expansion's rounding is some
        # 1e5 times their squared distance.
        rng = np.random.default_rng(4)
        base = rng.standard_normal((40, 200)) * 1e6
        pts = np.vstack([base, base + 1e-3 * rng.standard_normal((40, 200))])
        sq = pairwise_sq_dists(pts)
        twins = [i * 80 - i * (i + 1) // 2 + (40 - 1) for i in range(40)]  # condensed (i, i + 40)
        expected = np.sum((pts[40:] - pts[:40]) ** 2, axis=1)
        assert np.all(sq[twins] > 0.0)
        np.testing.assert_allclose(sq[twins], expected, rtol=1e-12)

    def test_two_far_clusters_match_direct_difference(self):
        pts = np.random.default_rng(2).standard_normal((600, 300))
        pts[:300] += 1e5
        pts[300:] -= 1e5
        expected = sq_dist_matrix(pts)[np.triu_indices(600, 1)]
        np.testing.assert_allclose(pairwise_sq_dists(pts), expected, rtol=1e-12)

    def test_recomputation_needs_only_block_sized_temporaries(self, traced_peak):
        # Every pair of the translated data is recomputed; beyond what the
        # unshifted data need, that may take the re-expansion's own arrays:
        # two block x d differences and four block x block floats.
        m, d = 1000, 300
        pts = np.random.default_rng(5).standard_normal((m, d)) * 0.01

        def peak(points):
            return traced_peak(lambda: pairwise_sq_dists(points))[1]

        extra = peak(pts + 1e5) - peak(pts)
        assert extra <= 8 * geometry._BLOCK * (2 * d + 4 * geometry._BLOCK)
