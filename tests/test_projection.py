import dataclasses
import os
import struct
import threading
import warnings

import numpy as np
import pytest

from jlkit import errors, projection
from jlkit.errors import DomainError, ShapeError
from jlkit.projection import (
    Dataset,
    build_operator,
    load_dataset,
    project,
    read_operator,
    save_dataset,
    save_operator,
)


def _write_bytes(path, payload):
    with open(path, "wb") as fh:
        fh.write(payload)


class TestProjections:
    @pytest.mark.parametrize("orthonormalize", [False, True])
    def test_seeds_and_projections(self, orthonormalize):
        data = Dataset(points=np.random.default_rng(8).standard_normal((7, 30)))
        draws = list(projection.projections(data, 12, 4, 5, orthonormalize=orthonormalize))
        assert [seed for seed, _ in draws] == [5, 6, 7, 8]
        for seed, projected in draws:
            expected = project(build_operator(30, 12, seed, orthonormalize=orthonormalize), data)
            assert np.array_equal(projected.points, expected.points)

    @pytest.mark.parametrize("n_prime, trials, error", [
        (12, 0, DomainError), (12, -1, DomainError), (30, 3, ShapeError), (31, 3, ShapeError), (0, 3, ShapeError),
    ])
    def test_checked_at_the_call(self, monkeypatch, n_prime, trials, error):
        def no_draw(*args, **kwargs):
            raise AssertionError("an operator was drawn")

        monkeypatch.setattr(projection, "build_operator", no_draw)
        data = Dataset(points=np.random.default_rng(8).standard_normal((7, 30)))
        with pytest.raises(error):
            projection.projections(data, n_prime, trials, 0)


class TestBuildOperator:
    def test_deterministic(self):
        a = build_operator(40, 10, seed=123)
        b = build_operator(40, 10, seed=123)
        assert np.array_equal(a.rows, b.rows)

    def test_different_seeds_differ(self):
        a = build_operator(40, 10, seed=1)
        b = build_operator(40, 10, seed=2)
        assert not np.array_equal(a.rows, b.rows)

    def test_rows_unit_norm(self):
        op = build_operator(500, 60, seed=7)
        norms = np.linalg.norm(op.rows, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)

    @pytest.mark.parametrize("n, n_prime", [(2000, 783), (500, 403), (16385, 5), (20000, 3), (130, 65), (2, 1)])
    def test_rows_are_the_linalg_norm_rows(self, n, n_prime):
        # Normalised a block at a time, the rows are bit for bit those of one
        # np.linalg.norm over the whole draw: n > 2^14 takes one row a block,
        # and 783 and 403 rows are not whole numbers of 8- and 32-row blocks.
        seq = np.random.SeedSequence(11, spawn_key=(projection._OPERATOR_STREAM,))
        rows = np.random.default_rng(seq).standard_normal((n_prime, n))
        expected = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        assert build_operator(n, n_prime, seed=11).rows.tobytes() == expected.tobytes()

    def test_peak_is_the_operator_and_one_buffer(self, traced_peak):
        build_operator(40, 10, seed=0)  # the first call's one-off allocations are not the draw's
        op, peak = traced_peak(lambda: build_operator(2000, 783, seed=0))
        assert peak <= op.rows.nbytes + 2**20

    def test_refused_before_the_draw_beyond_physical_memory(self, monkeypatch):
        # 8 n' n bytes for unit-norm rows, twice that for the QR's copy.
        monkeypatch.setattr(errors, "_PHYSICAL_BYTES", 2 * 8 * 10 * 40 - 1)
        assert build_operator(40, 10, seed=0).rows.shape == (10, 40)
        with pytest.raises(DomainError, match="6400 bytes"):
            build_operator(40, 10, seed=0, orthonormalize=True)

    def test_scale(self):
        op = build_operator(200, 50, seed=0)
        assert op.scale == pytest.approx(2.0)
        assert op.n / op.n_prime == pytest.approx(4.0)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            build_operator(10, 10, seed=0)
        with pytest.raises(ShapeError):
            build_operator(10, 11, seed=0)
        with pytest.raises(DomainError):
            build_operator(10, 5, seed=-1)

    def test_decoupled_from_data_stream_with_same_seed(self):
        # A dataset drawn from default_rng(seed) and an operator built
        # with the same integer seed must not share random streams;
        # otherwise rows align with points and distances blow up.
        seed = 5
        data = np.random.default_rng(seed).standard_normal((10, 60))
        op = build_operator(60, 10, seed=seed)
        raw = data / np.linalg.norm(data, axis=1, keepdims=True)
        assert not np.allclose(op.rows, raw[: op.n_prime])
        assert np.abs(np.einsum("ij,ij->i", op.rows[:10], raw[:10])).max() < 0.9

    def test_rows_not_orthogonalized_by_default(self):
        # In 30 dimensions, 20 random unit rows are measurably non-orthogonal.
        op = build_operator(30, 20, seed=5)
        gram = op.rows @ op.rows.T
        off = gram - np.eye(20)
        assert np.abs(off).max() > 0.01

    def test_orthonormal_variant(self):
        op = build_operator(30, 20, seed=5, orthonormalize=True)
        gram = op.rows @ op.rows.T
        assert np.allclose(gram, np.eye(20), atol=1e-10)
        assert op.orthonormal

    def test_near_orthogonality_in_high_dimension(self):
        # Max |row_i . row_j| concentrates at O(1/sqrt(n)); 0.05 is ~11
        # standard deviations out at n = 5e4, so nearly every seed stays
        # below it.
        hits = 0
        seeds = 100
        for seed in range(seeds):
            op = build_operator(50_000, 100, seed=seed)
            gram = op.rows @ op.rows.T
            np.fill_diagonal(gram, 0.0)
            if np.abs(gram).max() < 0.05:
                hits += 1
        assert hits >= 99


class TestProject:
    def test_zero_maps_to_zero(self):
        op = build_operator(20, 5, seed=0)
        out = project(op, Dataset(points=np.zeros((3, 20))))
        assert np.all(out.points == 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(42)
        op = build_operator(50, 12, seed=3)
        x = rng.standard_normal((8, 50))
        y = rng.standard_normal((8, 50))
        a, b = 2.5, -1.25
        lhs = project(op, Dataset(points=a * x + b * y)).points
        rhs = a * project(op, Dataset(points=x)).points + b * project(op, Dataset(points=y)).points
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_doubling(self):
        op = build_operator(30, 6, seed=1)
        x = np.random.default_rng(0).standard_normal((4, 30))
        p1 = project(op, Dataset(points=x)).points
        p2 = project(op, Dataset(points=2.0 * x)).points
        assert np.array_equal(p2, 2.0 * p1)

    def test_dimension_mismatch(self):
        op = build_operator(10, 3, seed=0)
        with pytest.raises(ShapeError):
            project(op, Dataset(points=np.zeros((2, 11))))

    def test_squared_length_unbiased(self):
        # Mean of (n/n') ||u' - v'||^2 / ||u - v||^2 over many seeds should
        # sit within 3 standard errors of 1.
        rng = np.random.default_rng(9)
        u = rng.standard_normal(200)
        v = rng.standard_normal(200)
        sq = float(np.sum((u - v) ** 2))
        quotients = []
        for seed in range(300):
            op = build_operator(200, 50, seed=seed)
            du = (u - v) @ op.rows.T
            quotients.append(op.n / op.n_prime * float(du @ du) / sq)
        mean = np.mean(quotients)
        se = np.std(quotients, ddof=1) / np.sqrt(len(quotients))
        assert abs(mean - 1.0) <= 3.0 * se


class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            Dataset(points=np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinite(self, bad):
        with pytest.raises(DomainError):
            Dataset(points=np.array([[1.0, 2.0], [3.0, bad]]))

    def test_accepts_entries_whose_squares_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = Dataset(points=np.array([[1e200, 0.0], [0.0, -1e200], [1.0, 2.0]]))
        assert np.array_equal(data.sq_norms, [np.inf, np.inf, 5.0])

    def test_sq_norms_are_the_row_einsum(self):
        points = np.random.default_rng(5).standard_normal((50, 783))
        data = Dataset(points=points)
        assert data.sq_norms.tobytes() == np.einsum("ij,ij->i", points, points).tobytes()
        assert not data.sq_norms.flags.writeable
        with pytest.raises(ValueError):
            data.sq_norms[0] = 0.0

    def test_points_read_only_caller_array_untouched(self):
        points = np.random.default_rng(6).standard_normal((4, 3))
        data = Dataset(points=points)
        assert np.shares_memory(data.points, points)
        with pytest.raises(ValueError):
            data.points[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.points = points
        assert points.flags.writeable
        points[0, 0] = 0.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            Dataset(points=np.zeros(3))


class TestFileFormats:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        data = Dataset(points=rng.standard_normal((7, 5)))
        path = str(tmp_path / "d.bin")
        save_dataset(data, path, fmt="binary")
        back = load_dataset(path)
        assert np.array_equal(back.points, data.points)

    def test_binary_layout(self, tmp_path):
        data = Dataset(points=np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = str(tmp_path / "d.bin")
        save_dataset(data, path, fmt="binary")
        raw = open(path, "rb").read()
        assert raw[:16] == b"JLKIT-DATASET-01"
        assert struct.unpack("<QQ", raw[16:32]) == (2, 2)
        assert np.frombuffer(raw[32:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        data = Dataset(points=rng.standard_normal((6, 3)))
        path = str(tmp_path / "d.csv")
        save_dataset(data, path, fmt="csv")
        back = load_dataset(path)
        assert np.allclose(back.points, data.points, rtol=0, atol=0)

    def test_csv_header_row_tolerated(self, tmp_path):
        path = str(tmp_path / "h.csv")
        with open(path, "w") as fh:
            fh.write("x0,x1,x2\n1.5,2.0,-3.25\n0.0,1.0,2.0\n")
        back = load_dataset(path)
        assert back.points.shape == (2, 3)
        assert back.points[0, 2] == -3.25

    def test_csv_first_row_with_a_number_is_data(self, tmp_path):
        # Not a header: its non-numeric cell is rejected like one on any later row.
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("1,x\n3,4\n")
        with pytest.raises(ShapeError, match="malformed CSV dataset"):
            load_dataset(path)

    def test_truncated_binary_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        with open(path, "wb") as fh:
            fh.write(b"JLKIT-DATASET-01")
            fh.write(struct.pack("<QQ", 4, 4))
            fh.write(b"\0" * 16)
        with pytest.raises(ShapeError):
            load_dataset(path)

    def test_binary_bytes_match_previous_writer(self, tmp_path):
        points = np.random.default_rng(5).standard_normal((9, 4))
        path = str(tmp_path / "d.bin")
        save_dataset(Dataset(points=points), path)
        previous = b"JLKIT-DATASET-01" + struct.pack("<QQ", 9, 4) + points.astype("<f8").tobytes(order="C")
        assert open(path, "rb").read() == previous

    def test_oversized_header_rejected_before_allocation(self, tmp_path):
        # 2^20 x 2^20 float64 would be 8 TiB; the file holds 16 bytes of data.
        path = str(tmp_path / "huge.bin")
        with open(path, "wb") as fh:
            fh.write(b"JLKIT-DATASET-01")
            fh.write(struct.pack("<QQ", 2**20, 2**20))
            fh.write(b"\0" * 16)
        with pytest.raises(ShapeError, match="1048576x1048576"):
            load_dataset(path)

    def test_trailing_bytes_ignored(self, tmp_path):
        points = np.random.default_rng(6).standard_normal((3, 2))
        path = str(tmp_path / "d.bin")
        save_dataset(Dataset(points=points), path)
        with open(path, "ab") as fh:
            fh.write(b"\0" * 5)
        assert np.array_equal(load_dataset(path).points, points)

    def test_binary_read_from_pipe(self, tmp_path):
        points = np.random.default_rng(7).standard_normal((5, 3))
        src = str(tmp_path / "d.bin")
        save_dataset(Dataset(points=points), src)
        raw = open(src, "rb").read()
        fifo = str(tmp_path / "fifo")
        os.mkfifo(fifo)
        for payload, ok in ((raw, True), (raw[:-8], False)):
            writer = threading.Thread(target=_write_bytes, args=(fifo, payload), daemon=True)
            writer.start()
            if ok:
                assert np.array_equal(load_dataset(fifo).points, points)
            else:
                with pytest.raises(ShapeError, match="truncated"):
                    load_dataset(fifo)
            writer.join(timeout=10)
            assert not writer.is_alive()

    def test_operator_round_trip(self, tmp_path):
        op = build_operator(25, 8, seed=99, orthonormalize=True)
        path = str(tmp_path / "op.json")
        save_operator(op, path)
        assert read_operator(path) == (25, 8, 99, True)
        back = build_operator(*read_operator(path))
        assert np.array_equal(back.rows, op.rows)
        assert back.orthonormal
