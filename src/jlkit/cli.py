"""Command-line frontend.

Subcommands: dim, reproduce, gen, project, verify, kmeans-compare,
clusterability.  Every command prints its resolved configuration
(including seeds) before computing, so any output can be regenerated.
Exit codes: 0 success, 1 I/O error, 2 validation error or failed allocation.

The BLAS thread count is the BLAS library's own: set
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS before starting jlkit.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import clusterability as clus
from . import datagen, dimension, geometry, kmeans, reproduce
from .errors import DomainError, JlkitError
from .projection import (Dataset, build_operator, load_dataset, project, read_operator, save_dataset,
                         save_operator)

__all__ = ["main"]


def _print_config(command: str, args: argparse.Namespace, **extra) -> None:
    skip = {"func"}
    fields = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    fields.update(extra)
    print("config:", command, " ".join(f"{k}={v}" for k, v in fields.items()), flush=True)


def _seed(text: str) -> int:
    # Every seed option: numpy refuses a negative seed with a traceback.
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _check_delta(delta: float) -> None:
    # The guarantee's domain; explicit_dimension also takes delta < 1 for the published sweeps.
    if not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")


def _resolve_n_prime(args, m: int, n: int) -> tuple[int, bool]:
    """n' and whether its operator needs orthonormal rows.

    The n-aware bound is the tail bound of an orthogonal projection, so an
    n' taken from it comes with orthonormal rows; an explicit or --nprime
    n' comes with normalized rows.
    """
    if args.nprime is not None:
        return args.nprime, False
    if args.epsilon is None or args.delta is None:
        raise JlkitError("give --nprime, or --epsilon and --delta for the automatic dimension")
    if not getattr(args, "implicit", False):
        explicit = dimension.explicit_dimension(m, args.epsilon, args.delta)
        if explicit < n:
            return explicit, False
        # The n-free bound is no reduction at all here; refine with the
        # n-aware bound over the valid domain instead.
        print(f"note: explicit n'={explicit} >= n={n}; using the n-dependent bound", flush=True)
    return dimension.implicit_dimension(m, args.epsilon, args.delta, n), True


def _load_input(command: str, args) -> tuple[Dataset, int, bool]:
    # --input, its n' and whether that n' takes orthonormal rows; prints the
    # config line.  A given --delta is checked on every route, before any read.
    if args.delta is not None:
        _check_delta(args.delta)
    data = load_dataset(args.input)
    n_prime, orthonormal = _resolve_n_prime(args, m=data.m, n=data.dim)
    _print_config(command, args, m=data.m, n=data.dim, resolved_nprime=n_prime,
                  operator="orthonormal" if orthonormal else "normalized")
    return data, n_prime, orthonormal


def _cmd_dim(args) -> int:
    _print_config("dim", args)
    _check_delta(args.delta)
    explicit = dimension.explicit_dimension(args.m, args.epsilon, args.delta)
    print(f"n' explicit: {explicit}")
    if args.n is not None:
        implicit = dimension.implicit_dimension(args.m, args.epsilon, args.delta, args.n)
        print(f"n' implicit: {implicit}")
        print(f"ratio explicit/implicit: {round(explicit / implicit, 2):g}")
    if args.dg:
        print(f"DG n': {dimension.dg_n_prime(args.m, args.delta)}")
        print(f"DG repetitions: {dimension.dg_repetitions(args.m, args.epsilon)}")
    return 0


def _cmd_reproduce(args) -> int:
    out = args.out or f"{args.id}.csv"
    _print_config("reproduce", args, out=out)
    print(reproduce.write_csv(args.id, out, seed=args.seed))
    return 0


def _cmd_gen(args) -> int:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        raise DomainError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    spec = datagen.MixtureSpec(
        k=args.k, sizes=sizes, dim=args.dim, centre_distance=args.distance,
        cluster_sigma=args.sigma, target_gap=args.gap, seed=args.seed,
    )
    _print_config("gen", args, m=spec.m)
    data, partition = datagen.generate(spec)
    save_dataset(data, args.out, fmt=args.format)
    print(f"dataset: {data.m} x {data.dim} -> {args.out}")
    if args.partition_out:
        kmeans.save_partition(partition, args.partition_out)
        print(f"partition -> {args.partition_out}")
    gap = kmeans.measure_gap(data, partition) if args.k > 1 else 2.0
    print(f"measured gap: {gap:.4f}")
    return 0


def _cmd_project(args) -> int:
    data, n_prime, orthonormal = _load_input("project", args)
    op = build_operator(data.dim, n_prime, args.seed, orthonormalize=orthonormal)
    save_dataset(project(op, data), args.out, fmt=args.format)
    print(f"projected: {data.m} x {n_prime} -> {args.out} (distance scale {op.scale:.6f})")
    if args.save_operator:
        save_operator(op, args.save_operator)
        print(f"operator -> {args.save_operator}")
    return 0


def _cmd_verify(args) -> int:
    original = load_dataset(args.original)
    projected = load_dataset(args.projected)
    # The saved operator's kind is what --estimate-trials redraws, at its n';
    # its file is read, its matrix not drawn.
    orthonormal = False
    if args.operator is not None:
        n, n_prime, _, orthonormal = read_operator(args.operator)
        if (n, n_prime) != (original.dim, projected.dim):
            raise DomainError(f"operator maps n={n} to n'={n_prime}, "
                              f"the data n={original.dim} to n'={projected.dim}")
    _print_config("verify", args, m=original.m, n=original.dim, nprime=projected.dim)
    report = geometry.distortion_report(original, projected, args.delta)
    print(f"pairs: {report.pair_count} (zero-distance excluded: {report.zero_pairs})")
    print(f"band: [{report.band[0]:.6g}, {report.band[1]:.6g}]")
    print(f"violations: {report.violations}")
    print(f"success: {report.success}")
    if args.histogram:
        geometry.export_histogram(report, args.histogram)
        print(f"histogram -> {args.histogram}")
    del report  # the trials build their own original distances
    if args.estimate_trials is not None:
        est = geometry.estimate_failure_rate(
            original, projected.dim, args.delta, args.estimate_trials, args.base_seed, orthonormal
        )
        lo, hi = est.wilson_interval
        print(
            f"failure rate: {est.failures}/{est.trials} = {est.rate:.4f} "
            f"(95% Wilson [{lo:.4f}, {hi:.4f}])"
        )
        q_lo, q_hi = min(e[0] for e in est.extremes), max(e[1] for e in est.extremes)
        print(f"quotient range over trials: [{q_lo:.6g}, {q_hi:.6g}]")
    return 0


def _cmd_kmeans_compare(args) -> int:
    if args.partitions < 0:
        raise DomainError(f"--partitions must be >= 0, got {args.partitions}")
    data, n_prime, orthonormal = _load_input("kmeans-compare", args)
    lloyd_partition, lloyd_stats = kmeans.lloyd(data, args.k, init=args.seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(1,)))
    partitions = [lloyd_partition] + [
        kmeans.random_partition(rng, data.m, args.k) for _ in range(args.partitions)
    ]
    records = kmeans.sandwich_trials(data, partitions, n_prime, args.delta, args.trials, args.seed, orthonormal)
    sandwich_pass = sum(r.passed for r in records)
    fixed_pass = sum(r.fixed_point for r in records)
    if args.out:
        cost, delta = lloyd_stats.cost, args.delta
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "cost_original", "cost_projected_adjusted",
                             "lower_bound", "upper_bound", "pass"])
            writer.writerows([r.seed, f"{cost:.10g}", f"{r.first_cost:.10g}", f"{(1 - delta) * cost:.10g}",
                              f"{(1 + delta) * cost:.10g}", r.passed and r.fixed_point] for r in records)
        print(f"results -> {args.out}")
    print(f"sandwich pass rate: {sandwich_pass}/{args.trials} = {sandwich_pass / args.trials:.4f}")
    print(f"fixed-point transfer rate: {fixed_pass}/{args.trials} = {fixed_pass / args.trials:.4f}")
    return 0


def _cmd_clusterability(args) -> int:
    data, n_prime, orthonormal = _load_input("clusterability", args)
    before = clus.measure(data, args.k)
    print(f"measured: sigma={before.sigma_separatedness:.6g} beta={before.centre_stability_beta:.6g} "
          f"deletion_ratio={1.0 + before.weak_deletion_beta:.6g}")
    predicted = clus.transport(before, args.delta)
    records = clus.transport_trials(data, args.k, n_prime, args.trials, args.seed, orthonormal)
    # Per parameter: its printed name and which of two values is the worse
    # (sigma is better low, the others high).  A trial meets the predicted
    # bound when the worse of its value and the bound is the bound; the CSV
    # row holds the worst trial.
    checks = [("sigma", "sigma_separatedness", max), ("beta", "centre_stability_beta", min),
              ("deletion", "weak_deletion_beta", min)]
    rows = []
    for label, name, worst in checks:
        bound = getattr(predicted, name)
        values = [getattr(r, name) for r in records]
        met = [worst(v, bound) == bound for v in values]
        print(f"{label} bound satisfied: {sum(met)}/{args.trials} = {sum(met) / args.trials:.4f}")
        rows.append([name, f"{getattr(before, name):.10g}", f"{bound:.10g}",
                     f"{worst(values):.10g}", all(met)])
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["parameter", "before", "predicted_after", "measured_after",
                             "theorem_bound_satisfied"])
            writer.writerows(rows)
        print(f"transport report -> {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jlkit",
        description="One-shot random projection with set-level distance guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="target-dimension calculators")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, default=None, help="enables the implicit solver")
    p.add_argument("--dg", action="store_true", help="add repeat-until-success comparison columns")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("reproduce", help="regenerate a published table or figure dataset")
    p.add_argument("id", choices=reproduce.TABLE_IDS + reproduce.FIGURE_IDS)
    p.add_argument("--out", default=None, help="output CSV path (default <id>.csv)")
    p.add_argument("--seed", type=_seed, default=None, help="override the fig-distortion seed")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("gen", help="generate a synthetic mixture instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sizes", required=True, help="comma-separated cluster sizes")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--distance", type=float, default=10.0, help="pairwise centre distance")
    p.add_argument("--sigma", type=float, default=1.0, help="isotropic cluster spread")
    p.add_argument("--gap", type=float, default=1.0, help="target relative gap in (0, 2]")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--partition-out", default=None)
    p.add_argument("--format", choices=["binary", "csv"], default="binary")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("project", help="project a dataset with a seeded operator")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--nprime", type=int, default=None, help="default: from --epsilon/--delta")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--implicit", action="store_true", help="n' by the n-dependent bound, orthonormal rows")
    p.add_argument("--save-operator", default=None)
    p.add_argument("--format", choices=["binary", "csv"], default="binary")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("verify", help="distortion-band verification")
    p.add_argument("--original", required=True)
    p.add_argument("--projected", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--histogram", default=None, help="write quotient histogram CSV")
    p.add_argument("--estimate-trials", type=int, default=None,
                   help="Monte-Carlo failure-rate estimate with this many fresh projections")
    p.add_argument("--base-seed", type=_seed, default=0)
    p.add_argument("--operator", default=None,
                   help="operator file from project --save-operator; the estimate redraws its row kind")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("kmeans-compare", help="cost-sandwich and fixed-point harnesses")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--nprime", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--partitions", type=int, default=20, help="random partitions per trial")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="per-trial results CSV")
    p.set_defaults(func=_cmd_kmeans_compare)

    p = sub.add_parser("clusterability", help="measure parameters and validate transport")
    p.add_argument("--input", required=True,
                   help="small dataset (exact oracle: m <= 14, S(m, k) <= 2^22)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--nprime", type=int, default=None)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="transport report CSV")
    p.set_defaults(func=_cmd_clusterability)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (JlkitError, MemoryError) as err:  # numpy's MemoryError names the size it could not get
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
