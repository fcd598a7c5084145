import csv
import json
import math
import struct

import numpy as np
import pytest

from jlkit import kmeans, projection
from jlkit.cli import main
from jlkit.clusterability import measure_sigma_separatedness
from jlkit.dimension import explicit_dimension, implicit_dimension
from jlkit.geometry import estimate_failure_rate
from jlkit.projection import Dataset, build_operator, load_dataset, project, read_operator, save_dataset
from tests.test_dimension import mp_pair_bound
from tests.test_kmeans import shifted_mixture


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDim:
    def test_reference_row(self, capsys):
        code, out, _ = run(
            capsys, "dim", "--m", "10", "--epsilon", "0.01", "--delta", "0.05",
            "--n", "500000", "--dg",
        )
        assert code == 0
        assert out.startswith("config: dim")
        assert "n' explicit: 15226" in out
        assert "n' implicit: 14205" in out
        assert "ratio explicit/implicit: 1.07" in out
        assert "DG n': 3879" in out
        assert "DG repetitions: 44" in out

    def test_domain_corner_no_crash(self, capsys):
        code, out, _ = run(capsys, "dim", "--m", "2", "--epsilon", "0.5", "--delta", "0.499999")
        assert code == 0
        assert "n' explicit:" in out

    def test_invalid_domain_exit_2(self, capsys):
        code, _, err = run(capsys, "dim", "--m", "1", "--epsilon", "0.1", "--delta", "0.1")
        assert code == 2
        assert "error" in err

    def test_capped_row_solved_below_n(self, capsys):
        # The published table prints the explicit cap 1,353,859 at these
        # parameters; the solver finds a smaller n' inside the bound's domain.
        code, out, _ = run(
            capsys, "dim", "--m", "2000000", "--epsilon", "0.01", "--delta", "0.01", "--n", "500000",
        )
        assert code == 0
        implicit = int(out.split("n' implicit: ")[1].split()[0])
        assert implicit < 500_000 / 1.01
        assert 2_000_000 * 1_999_999 / 2 * mp_pair_bound(implicit, 500_000, 0.01) <= 0.01

    def test_domain_edge_where_the_ratio_rounds_to_one(self, capsys):
        # At n' = 255000, n'(1 + delta) < n in float but n' delta / (n - n')
        # rounds to exactly 1, so the bound is undefined there.
        code, out, _ = run(capsys, "dim", "--m", "2", "--epsilon", "0.5", "--delta", "0.001",
                           "--n", "255255")
        assert code == 0
        assert "n' implicit: 244022" in out

    def test_infeasible_exit_2(self, capsys):
        # At n = 10 no n' below n/(1+delta) makes 45 pairs fail with probability <= 0.01.
        code, _, err = run(capsys, "dim", "--m", "10", "--epsilon", "0.01", "--delta", "0.05",
                           "--n", "10")
        assert code == 2
        assert err.startswith("error: no n' <= ")


class TestReproduce:
    def test_table_to_csv(self, capsys, tmp_path):
        out_path = str(tmp_path / "t3.csv")
        code, out, _ = run(capsys, "reproduce", "table3", "--out", out_path)
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 15  # header + 14 sweep rows
        assert rows[0][0] == "delta"

    def test_unknown_id_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "reproduce", "table99")
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("gen", "--k", "1", "--sizes", "3", "--dim", "2", "--out", "out.bin"),
    ("kmeans-compare", "--input", "data.bin", "--k", "2", "--delta", "0.2", "--nprime", "2"),
    ("reproduce", "fig-distortion", "--out", "out.csv"),
], ids=["gen", "kmeans-compare", "fig-distortion"])
def test_negative_seed_exit_2(capsys, tmp_path, monkeypatch, argv):
    # Refused while parsing, before any clustering or projection.
    monkeypatch.chdir(tmp_path)
    save_dataset(Dataset(points=np.random.default_rng(0).standard_normal((6, 4))), "data.bin")
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv, "--seed", "-1")
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


class TestPipeline:
    def test_gen_project_verify(self, capsys, tmp_path):
        data_path = str(tmp_path / "data.bin")
        part_path = str(tmp_path / "part.csv")
        proj_path = str(tmp_path / "proj.bin")
        hist_path = str(tmp_path / "hist.csv")

        code, out, _ = run(
            capsys, "gen", "--k", "2", "--sizes", "30,30", "--dim", "400",
            "--distance", "10", "--sigma", "1", "--gap", "1", "--seed", "7",
            "--out", data_path, "--partition-out", part_path,
        )
        assert code == 0
        assert "config: gen" in out and "seed=7" in out
        data = load_dataset(data_path)
        assert data.m == 60 and data.dim == 400

        # Explicit n' at m=60, eps=0.1, delta=0.2 exceeds n=400, so the
        # n-aware bound takes over, and with it orthonormal rows.
        code, out, _ = run(
            capsys, "project", "--input", data_path, "--out", proj_path,
            "--epsilon", "0.1", "--delta", "0.2", "--seed", "3",
        )
        assert code == 0
        projected = load_dataset(proj_path)
        assert projected.dim < 400

        code, out, _ = run(
            capsys, "verify", "--original", data_path, "--projected", proj_path,
            "--delta", "0.2", "--histogram", hist_path,
        )
        assert code == 0
        assert "success: True" in out
        assert "violations: 0" in out
        with open(hist_path, newline="") as fh:
            assert next(csv.reader(fh)) == ["bin_lo", "bin_hi", "count"]

    def test_dim_prints_the_resolved_n_prime(self, capsys, tmp_path):
        # The explicit n' (1187) exceeds n = 400; dim and project agree on the implicit one.
        data_path = str(tmp_path / "data.bin")
        run(capsys, "gen", "--k", "2", "--sizes", "30,30", "--dim", "400", "--distance", "10",
            "--sigma", "1", "--gap", "1", "--seed", "7", "--out", data_path)
        code, out, _ = run(capsys, "project", "--input", data_path, "--out", str(tmp_path / "p.bin"),
                           "--epsilon", "0.1", "--delta", "0.2")
        assert code == 0
        resolved = out.split("resolved_nprime=")[1].split()[0]
        code, out, _ = run(capsys, "dim", "--m", "60", "--epsilon", "0.1", "--delta", "0.2",
                           "--n", "400")
        assert code == 0
        assert f"n' implicit: {resolved}\n" in out

    def test_n_aware_route_holds_the_band(self, capsys, tmp_path):
        # The n-aware bound is that of an orthogonal projection: at n' = 299
        # normalized rows miss the band here on every seed.
        data_path = str(tmp_path / "data.bin")
        run(capsys, "gen", "--k", "2", "--sizes", "30,30", "--dim", "400", "--distance", "10",
            "--sigma", "1", "--gap", "1", "--seed", "7", "--out", data_path)
        for seed in range(10):
            proj_path = str(tmp_path / f"proj{seed}.bin")
            code, out, _ = run(capsys, "project", "--input", data_path, "--out", proj_path,
                               "--epsilon", "0.1", "--delta", "0.2", "--seed", str(seed))
            assert code == 0
            config = out.split("config: project ")[1].splitlines()[0].split()
            assert "resolved_nprime=299" in config and "operator=orthonormal" in config
            code, out, _ = run(capsys, "verify", "--original", data_path, "--projected", proj_path,
                               "--delta", "0.2")
            assert code == 0
            assert "violations: 0\n" in out

    @pytest.mark.parametrize("route", ["explicit", "implicit"])
    def test_route_picks_the_operator(self, capsys, tmp_path, route):
        # 20 points in n = 2000: the explicit n' (939) lies below n, so only
        # --implicit takes the n-aware bound.  The saved operator regenerates
        # the written projection bit for bit.
        data_path, proj_path, op_path = (str(tmp_path / name) for name in ("d.bin", "p.bin", "op.json"))
        save_dataset(Dataset(points=np.random.default_rng(4).standard_normal((20, 2000))), data_path)
        flags = ("--implicit",) if route == "implicit" else ()
        code, out, _ = run(capsys, "project", "--input", data_path, "--out", proj_path, "--seed", "2",
                           "--epsilon", "0.1", "--delta", "0.2", "--save-operator", op_path, *flags)
        assert code == 0
        assert "note:" not in out
        explicit = explicit_dimension(20, 0.1, 0.2)
        n_prime = implicit_dimension(20, 0.1, 0.2, 2000) if flags else explicit
        operator = "orthonormal" if flags else "normalized"
        assert explicit < 2000 and f"resolved_nprime={n_prime} operator={operator}\n" in out
        with open(op_path) as fh:
            assert json.load(fh)["orthonormal"] == bool(flags)
        expected = project(build_operator(*read_operator(op_path)), load_dataset(data_path)).points
        assert np.array_equal(expected, load_dataset(proj_path).points)

    def test_translated_dataset_same_verdict(self, capsys, tmp_path):
        # Tight clusters (sigma 0.01) moved to +1e5: every pair's squared
        # norms dwarf its distance, and the verdict must not notice.
        data_path = str(tmp_path / "data.bin")
        shifted_path = str(tmp_path / "shifted.bin")
        code, _, _ = run(
            capsys, "gen", "--k", "2", "--sizes", "30,30", "--dim", "400",
            "--distance", "10", "--sigma", "0.01", "--gap", "1", "--seed", "7",
            "--out", data_path,
        )
        assert code == 0
        save_dataset(Dataset(points=load_dataset(data_path).points + 1e5), shifted_path)
        lines = []
        for path in (data_path, shifted_path):
            proj_path = path + ".proj"
            code, _, _ = run(
                capsys, "project", "--input", path, "--out", proj_path,
                "--epsilon", "0.1", "--delta", "0.2", "--seed", "3",
            )
            assert code == 0
            code, out, _ = run(
                capsys, "verify", "--original", path, "--projected", proj_path, "--delta", "0.2",
            )
            assert code == 0
            lines.append([line for line in out.splitlines() if line.startswith("violations:")])
        assert lines[0] == lines[1] == ["violations: 0"]

    def test_gen_partition_out_bytes(self, capsys, tmp_path):
        # The id column is the point's row index in the dataset file.
        part_path = tmp_path / "part.csv"
        code, _, _ = run(
            capsys, "gen", "--k", "3", "--sizes", "3,2,2", "--dim", "5", "--seed", "1",
            "--out", str(tmp_path / "data.bin"), "--partition-out", str(part_path),
        )
        assert code == 0
        assert part_path.read_bytes() == b"id,cluster\r\n0,0\r\n1,0\r\n2,0\r\n3,1\r\n4,1\r\n5,2\r\n6,2\r\n"

    def test_verify_mismatched_m_exit_2(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_dataset(Dataset(points=np.random.default_rng(0).standard_normal((5, 4))), a)
        save_dataset(Dataset(points=np.random.default_rng(1).standard_normal((4, 3))), b)
        code, _, err = run(capsys, "verify", "--original", a, "--projected", b, "--delta", "0.1")
        assert code == 2
        assert "error" in err

    def test_verify_oversized_header_exit_2(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        with open(a, "wb") as fh:
            fh.write(b"JLKIT-DATASET-01")
            fh.write(struct.pack("<QQ", 2**20, 2**20))
            fh.write(b"\0" * 16)
        save_dataset(Dataset(points=np.zeros((2, 2))), b)
        code, _, err = run(capsys, "verify", "--original", a, "--projected", b, "--delta", "0.1")
        assert code == 2
        assert "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", ["1,2\n3,x\n", "1,2\n3,4,5\n"], ids=["non-numeric", "ragged"])
    def test_malformed_csv_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        for argv in (("project", "--input", str(path), "--out", str(tmp_path / "p.bin"), "--nprime", "1"),
                     ("verify", "--original", str(path), "--projected", str(path), "--delta", "0.1")):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert err.startswith("error: malformed CSV dataset")

    def test_malformed_first_csv_row_exit_2(self, capsys, tmp_path):
        # A first row with a number in it is data, not a header to drop.
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("1,x\n3,4\n")
        code, _, err = run(capsys, "verify", "--original", path, "--projected", path, "--delta", "0.1")
        assert code == 2
        assert err.startswith("error: malformed CSV dataset")

    def test_gen_non_integer_sizes_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--k", "2", "--sizes", "3,x", "--dim", "3",
                           "--out", str(tmp_path / "g.bin"))
        assert code == 2
        assert err.startswith("error: --sizes")

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "verify", "--original", str(tmp_path / "nope.bin"),
            "--projected", str(tmp_path / "nope2.bin"), "--delta", "0.1",
        )
        assert code == 1
        assert "i/o error" in err

    def test_verify_failure_rate_estimate(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        data = Dataset(points=rng.standard_normal((10, 60)))
        save_dataset(data, a)
        save_dataset(Dataset(points=data.points[:, :20]), b)
        code, out, _ = run(
            capsys, "verify", "--original", a, "--projected", b, "--delta", "3.0",
            "--estimate-trials", "5", "--base-seed", "2",
        )
        assert code == 0
        assert "failure rate: 0/5" in out
        assert "Wilson" in out
        est = estimate_failure_rate(data, 20, 3.0, 5, 2)
        lo, hi = min(e[0] for e in est.extremes), max(e[1] for e in est.extremes)
        assert f"quotient range over trials: [{lo:.6g}, {hi:.6g}]\n" in out
        assert 0.0 < lo < 1.0 < hi

    @pytest.mark.parametrize("delta", ["inf", "1e308"])
    def test_verify_infinite_band_exit_2(self, capsys, tmp_path, delta):
        # The histogram bins are the band width over 40, so that width must be finite.
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        data = Dataset(points=np.random.default_rng(5).standard_normal((10, 60)))
        save_dataset(data, a)
        save_dataset(Dataset(points=data.points[:, :20]), b)
        code, _, err = run(capsys, "verify", "--original", a, "--projected", b, "--delta", delta,
                           "--histogram", str(tmp_path / "h.csv"))
        assert code == 2
        assert err.startswith("error: delta must give the band a positive finite width")

    def test_verify_estimate_draws_the_saved_operator(self, capsys, tmp_path):
        # project saves orthonormal rows at the n-aware n' = 299; drawn as
        # normalized rows, every one of the 50 estimate trials failed.
        data_path, proj_path = str(tmp_path / "data.bin"), str(tmp_path / "proj.bin")
        op_path = str(tmp_path / "op.json")
        run(capsys, "gen", "--k", "2", "--sizes", "30,30", "--dim", "400", "--distance", "10",
            "--sigma", "1", "--gap", "1", "--seed", "7", "--out", data_path)
        code, _, _ = run(capsys, "project", "--input", data_path, "--out", proj_path,
                         "--epsilon", "0.1", "--delta", "0.2", "--save-operator", op_path)
        assert code == 0
        code, out, _ = run(capsys, "verify", "--original", data_path, "--projected", proj_path,
                           "--delta", "0.2", "--operator", op_path, "--estimate-trials", "50")
        assert code == 0
        failures = int(out.split("failure rate: ")[1].split("/")[0])
        assert failures / 50 <= 0.1 + 3 * math.sqrt(0.1 * 0.9 / 50)

    def test_verify_operator_reads_without_drawing(self, capsys, tmp_path, monkeypatch):
        # n, n' and the row kind come from the file: no operator is drawn
        # unless --estimate-trials asks for fresh projections.
        data_path, proj_path = str(tmp_path / "data.bin"), str(tmp_path / "proj.bin")
        op_path = str(tmp_path / "op.json")
        save_dataset(Dataset(points=np.random.default_rng(5).standard_normal((10, 60))), data_path)
        run(capsys, "project", "--input", data_path, "--out", proj_path, "--nprime", "20",
            "--save-operator", op_path)
        real, calls = projection.build_operator, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(projection, "build_operator", counted)
        code, out, _ = run(capsys, "verify", "--original", data_path, "--projected", proj_path,
                           "--delta", "0.9", "--operator", op_path)
        assert code == 0 and "violations:" in out
        assert calls == []

    @pytest.mark.parametrize("text", ['{"n": 60, "n_prime": 20, "seed": 0}', '{"n": 59, "n_prime": 20, "seed": 0}',
                                      '{"n": 60}', "not json"],
                             ids=["n-prime", "n", "missing-keys", "not-json"])
    def test_verify_operator_must_fit_the_data_exit_2(self, capsys, tmp_path, text):
        a, b, op = str(tmp_path / "a.bin"), str(tmp_path / "b.bin"), tmp_path / "op.json"
        data = Dataset(points=np.random.default_rng(5).standard_normal((10, 60)))
        save_dataset(data, a)
        save_dataset(Dataset(points=data.points[:, :21]), b)
        op.write_text(text)
        code, out, err = run(capsys, "verify", "--original", a, "--projected", b, "--delta", "0.3",
                             "--operator", str(op), "--estimate-trials", "5")
        assert code == 2
        assert err.startswith("error: ") and "violations" not in out

    def test_verify_zero_estimate_trials_exit_2(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        data = Dataset(points=np.random.default_rng(5).standard_normal((10, 60)))
        save_dataset(data, a)
        save_dataset(Dataset(points=data.points[:, :20]), b)
        code, _, err = run(capsys, "verify", "--original", a, "--projected", b, "--delta", "0.3",
                           "--estimate-trials", "0")
        assert code == 2
        assert err.startswith("error: trials")


@pytest.mark.parametrize("command", ["project", "kmeans-compare", "clusterability"])
@pytest.mark.parametrize("delta", ["0", "0.7", "-0.2"])
def test_delta_domain_on_every_route(capsys, tmp_path, oracle_calls, command, delta):
    # An --nprime run is refused too, before the exact oracle or any projection.
    data_path = str(tmp_path / "tiny.bin")
    run(capsys, "gen", "--k", "2", "--sizes", "5,5", "--dim", "200", "--seed", "33", "--out", data_path)
    extra = ("--out", str(tmp_path / "p.bin")) if command == "project" else ("--k", "2", "--trials", "2")
    code, _, err = run(capsys, command, "--input", data_path, "--delta", delta, "--nprime", "50", *extra)
    assert code == 2
    assert err.startswith("error: delta must lie in (0, 1/2)")
    assert oracle_calls[0] == 0 and not (tmp_path / "p.bin").exists()


class TestKmeansCompare:
    def test_translated_data_exit_0(self, capsys, tmp_path):
        data_path = str(tmp_path / "shifted.bin")
        save_dataset(shifted_mixture()[0], data_path)
        code, out, _ = run(
            capsys, "kmeans-compare", "--input", data_path, "--k", "2",
            "--delta", "0.3", "--nprime", "40", "--trials", "3", "--partitions", "2",
        )
        assert code == 0
        assert "sandwich pass rate:" in out and "fixed-point transfer rate:" in out

    def _mixture(self, capsys, tmp_path):
        data_path = str(tmp_path / "data.bin")
        run(capsys, "gen", "--k", "2", "--sizes", "20,20", "--dim", "300",
            "--distance", "12", "--sigma", "1", "--gap", "1", "--seed", "1",
            "--out", data_path)
        return data_path

    @pytest.mark.parametrize("delta", ["nan", "0.7"])
    def test_delta_outside_domain_exit_2(self, capsys, tmp_path, delta):
        data_path = self._mixture(capsys, tmp_path)
        code, _, err = run(
            capsys, "kmeans-compare", "--input", data_path, "--k", "2", "--delta", delta,
            "--nprime", "20", "--trials", "2", "--partitions", "1",
        )
        assert code == 2
        assert err.startswith("error: delta must lie in (0, 1/2)")

    def test_negative_partitions_exit_2(self, capsys, tmp_path):
        data_path = self._mixture(capsys, tmp_path)
        code, _, err = run(
            capsys, "kmeans-compare", "--input", data_path, "--k", "2", "--delta", "0.2",
            "--nprime", "20", "--trials", "2", "--partitions", "-3",
        )
        assert code == 2
        assert err.startswith("error: --partitions must be >= 0")

    def test_n_aware_route_draws_orthonormal_rows(self, capsys, tmp_path):
        # The pipeline instance: the n-aware n' = 299 with normalized rows
        # keeps the Lloyd fixed point on 3 of these 20 seeds.
        data_path = str(tmp_path / "data.bin")
        run(capsys, "gen", "--k", "2", "--sizes", "30,30", "--dim", "400", "--distance", "10",
            "--sigma", "1", "--gap", "1", "--seed", "7", "--out", data_path)
        code, out, _ = run(capsys, "kmeans-compare", "--input", data_path, "--k", "2", "--epsilon", "0.1",
                           "--delta", "0.2", "--trials", "20", "--seed", "0")
        assert code == 0
        assert out.split("config: kmeans-compare ")[1].splitlines()[0].endswith(
            " resolved_nprime=299 operator=orthonormal")
        assert "fixed-point transfer rate: 13/20 " in out

    def test_csv_matches_fresh_stats(self, capsys, tmp_path):
        # Every CSV byte from stats computed afresh for each use.
        data_path = self._mixture(capsys, tmp_path)
        results = str(tmp_path / "results.csv")
        code, _, _ = run(
            capsys, "kmeans-compare", "--input", data_path, "--k", "2",
            "--delta", "0.2", "--nprime", "100", "--trials", "4",
            "--partitions", "3", "--seed", "5", "--out", results,
        )
        assert code == 0
        data = load_dataset(data_path)
        lloyd_partition, _ = kmeans.lloyd(data, 2, init=5)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(1,)))
        partitions = [lloyd_partition] + [kmeans.random_partition(rng, data.m, 2) for _ in range(3)]
        lloyd_cost = kmeans.cluster_stats(data, lloyd_partition).cost
        lines = ["seed,cost_original,cost_projected_adjusted,lower_bound,upper_bound,pass"]
        for t in range(4):
            projected = project(build_operator(300, 100, 5 + t), data)
            sandwich = all(
                kmeans.cost_sandwich_check(kmeans.cluster_stats(data, p),
                                           kmeans.cluster_stats(projected, p), 300, 100, 0.2).passed
                for p in partitions
            )
            fixed = kmeans.is_lloyd_fixed_point(projected, lloyd_partition)
            adjusted = (300 / 100) * kmeans.cluster_stats(projected, lloyd_partition).cost
            lines.append(f"{5 + t},{lloyd_cost:.10g},{adjusted:.10g},{(1 - 0.2) * lloyd_cost:.10g},"
                         f"{(1 + 0.2) * lloyd_cost:.10g},{sandwich and fixed}")
        with open(results, "rb") as fh:
            assert fh.read() == ("\r\n".join(lines) + "\r\n").encode()

    def test_cluster_stats_calls_per_trial(self, capsys, tmp_path, monkeypatch):
        # One call per partition in the projected space, plus the one inside
        # is_lloyd_fixed_point; the CSV row reuses the Lloyd partition's.
        data_path = self._mixture(capsys, tmp_path)
        real = kmeans.cluster_stats
        counts = []

        def counted(*args):
            counts[-1] += 1
            return real(*args)

        monkeypatch.setattr(kmeans, "cluster_stats", counted)
        for trials in ("1", "2"):
            counts.append(0)
            code, _, _ = run(
                capsys, "kmeans-compare", "--input", data_path, "--k", "2", "--delta", "0.4",
                "--nprime", "200", "--trials", trials, "--partitions", "5",
                "--out", str(tmp_path / "results.csv"),
            )
            assert code == 0
        assert counts[1] - counts[0] == 5 + 2


class TestClusterability:
    @pytest.mark.parametrize("route, n_prime, operator", [
        (("--epsilon", "0.1"), 161, "orthonormal"), (("--nprime", "50"), 50, "normalized"),
    ])
    def test_trials_draw_the_routes_operator(self, capsys, tmp_path, route, n_prime, operator):
        # 10 points in n = 200: the explicit n' (782) exceeds n, so --epsilon
        # takes the n-aware bound and its orthonormal rows, which the trials draw.
        data_path, report = str(tmp_path / "tiny.bin"), str(tmp_path / "transport.csv")
        run(capsys, "gen", "--k", "2", "--sizes", "5,5", "--dim", "200", "--distance", "10",
            "--sigma", "0.05", "--gap", "1", "--seed", "33", "--out", data_path)
        code, out, _ = run(capsys, "clusterability", "--input", data_path, "--k", "2", "--delta", "0.2",
                           *route, "--trials", "2", "--seed", "0", "--out", report)
        assert code == 0
        assert f" resolved_nprime={n_prime} operator={operator}\n" in out
        data = load_dataset(data_path)
        sigma = max(measure_sigma_separatedness(project(build_operator(
            200, n_prime, seed, orthonormalize=operator == "orthonormal"), data), 2) for seed in (0, 1))
        with open(report, newline="") as fh:
            rows = {r[0]: r for r in csv.reader(fh)}
        assert rows["sigma_separatedness"][3] == f"{sigma:.10g}"

    def test_sigma_row_before_is_the_measured_sigma(self, capsys, tmp_path):
        # The README instance: the row's `before` cell is the measured sigma as it is.
        data_path, report = str(tmp_path / "tiny.bin"), str(tmp_path / "transport.csv")
        run(capsys, "gen", "--k", "2", "--sizes", "5,5", "--dim", "500", "--distance", "10",
            "--sigma", "0.05", "--gap", "1", "--seed", "33", "--out", data_path)
        code, _, _ = run(capsys, "clusterability", "--input", data_path, "--k", "2", "--delta", "0.3",
                         "--epsilon", "0.1", "--nprime", "368", "--trials", "20", "--seed", "0",
                         "--out", report)
        assert code == 0
        with open(report, newline="") as fh:
            rows = {r[0]: r for r in csv.reader(fh)}
        sigma = measure_sigma_separatedness(load_dataset(data_path), 2)
        assert rows["sigma_separatedness"][1] == f"{sigma:.10g}"

    def test_partition_cap_exit_2(self, capsys, tmp_path):
        # S(14, 6) = 63,436,373 partitions: refused before any enumeration.
        data_path = str(tmp_path / "fourteen.bin")
        run(capsys, "gen", "--k", "2", "--sizes", "7,7", "--dim", "20", "--seed", "2",
            "--out", data_path)
        code, _, err = run(
            capsys, "clusterability", "--input", data_path, "--k", "6",
            "--delta", "0.3", "--nprime", "10", "--trials", "1",
        )
        assert code == 2
        assert "partitions" in err

    def test_two_oracle_calls_per_projection(self, capsys, tmp_path, oracle_calls):
        # sigma-separatedness enumerates k and k-1 on the input and on each
        # projection; the optimum and the deletion ratio reuse those.
        data_path = str(tmp_path / "fourteen.bin")
        run(capsys, "gen", "--k", "3", "--sizes", "5,5,4", "--dim", "60",
            "--distance", "10", "--sigma", "0.5", "--gap", "1", "--seed", "2",
            "--out", data_path)
        counts = []
        for trials in ("1", "3"):
            kmeans._optima.clear()
            oracle_calls[0] = 0
            code, _, _ = run(
                capsys, "clusterability", "--input", data_path, "--k", "3",
                "--delta", "0.3", "--nprime", "40", "--trials", trials, "--seed", "0",
            )
            assert code == 0
            counts.append(oracle_calls[0])
        assert counts == [2 + 2 * 1, 2 + 2 * 3]

    def test_small_instance_report(self, capsys, tmp_path):
        data_path = str(tmp_path / "tiny.bin")
        report = str(tmp_path / "transport.csv")
        run(capsys, "gen", "--k", "2", "--sizes", "5,5", "--dim", "200",
            "--distance", "10", "--sigma", "0.5", "--gap", "1", "--seed", "2",
            "--out", data_path)
        code, out, _ = run(
            capsys, "clusterability", "--input", data_path, "--k", "2",
            "--delta", "0.3", "--epsilon", "0.2", "--nprime", "120",
            "--trials", "3", "--seed", "0", "--out", report,
        )
        assert code == 0
        assert "measured: sigma=" in out
        assert "sigma bound satisfied:" in out
        with open(report, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header[0] == "parameter"
        # Each row holds the worst value over the trials; its flag says all trials met the bound.
        names = {"sigma_separatedness": "sigma", "centre_stability_beta": "beta",
                 "weak_deletion_beta": "deletion"}
        assert [r[0] for r in rows] == list(names)
        for name, _, _, measured, flag in rows:
            count = out.split(f"{names[name]} bound satisfied: ")[1].split("/")[0]
            assert measured and flag == str(count == "3")
