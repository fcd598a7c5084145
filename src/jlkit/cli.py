"""Command-line frontend.

Subcommands: dim, reproduce, gen, project, verify, kmeans-compare,
clusterability.  Every command prints its resolved configuration
(including seeds) before computing, so any output can be regenerated.
Exit codes: 0 success, 1 I/O error, 2 validation error.

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
from .projection import build_operator, load_dataset, project, save_dataset, save_operator

__all__ = ["main"]


def _print_config(command: str, args: argparse.Namespace, **extra) -> None:
    skip = {"func"}
    fields = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    fields.update(extra)
    print("config:", command, " ".join(f"{k}={v}" for k, v in fields.items()), flush=True)


def _resolve_n_prime(args, m: int, n: int) -> int:
    if args.nprime is not None:
        return args.nprime
    if args.epsilon is None or args.delta is None:
        raise JlkitError("give --nprime, or --epsilon and --delta for the automatic dimension")
    # Sanity-check the domain once through the request type.
    dimension.DimensionRequest(m=m, epsilon=args.epsilon, delta=args.delta, n=n)
    if not getattr(args, "implicit", False):
        explicit = dimension.explicit_dimension(m, args.epsilon, args.delta)
        if explicit < n:
            return explicit
        # The n-free bound is no reduction at all here; refine with the
        # n-aware bound over the valid domain instead.
        print(f"note: explicit n'={explicit} >= n={n}; using the n-dependent bound", flush=True)
    return dimension.implicit_dimension(m, args.epsilon, args.delta, n, strict=True)


def _cmd_dim(args) -> int:
    _print_config("dim", args)
    dimension.DimensionRequest(m=args.m, epsilon=args.epsilon, delta=args.delta, n=args.n)
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
    gap = kmeans.measure_gap(data, partition).g if args.k > 1 else 2.0
    print(f"measured gap: {gap:.4f}")
    return 0


def _cmd_project(args) -> int:
    data = load_dataset(args.input)
    n_prime = _resolve_n_prime(args, m=data.m, n=data.dim)
    _print_config("project", args, m=data.m, n=data.dim, resolved_nprime=n_prime)
    op = build_operator(data.dim, n_prime, args.seed, orthonormalize=args.orthonormal)
    save_dataset(project(op, data), args.out, fmt=args.format)
    print(f"projected: {data.m} x {n_prime} -> {args.out} (distance scale {op.scale:.6f})")
    if args.save_operator:
        save_operator(op, args.save_operator)
        print(f"operator -> {args.save_operator}")
    return 0


def _cmd_verify(args) -> int:
    original = load_dataset(args.original)
    projected = load_dataset(args.projected)
    _print_config("verify", args, m=original.m, n=original.dim, nprime=projected.dim)
    report = geometry.distortion_report(original, projected, args.delta)
    print(f"pairs: {report.pair_count} (zero-distance excluded: {report.zero_pairs})")
    print(f"band: [{report.band[0]:.6g}, {report.band[1]:.6g}]")
    print(f"violations: {report.violations}")
    print(f"success: {report.success}")
    if args.histogram:
        geometry.export_histogram(report, args.histogram)
        print(f"histogram -> {args.histogram}")
    if args.estimate_trials:
        est = geometry.estimate_failure_rate(
            original, projected.dim, args.delta, args.estimate_trials, args.base_seed
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
    data = load_dataset(args.input)
    n_prime = _resolve_n_prime(args, m=data.m, n=data.dim)
    _print_config("kmeans-compare", args, m=data.m, n=data.dim, resolved_nprime=n_prime)
    lloyd_partition, lloyd_stats = kmeans.lloyd(data, args.k, init=args.seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(1,)))
    partitions = [lloyd_partition] + [
        kmeans.random_partition(rng, data.m, args.k) for _ in range(args.partitions)
    ]
    records = kmeans.sandwich_trials(data, partitions, n_prime, args.delta, args.trials, args.seed)
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
    data = load_dataset(args.input)
    n_prime = _resolve_n_prime(args, m=data.m, n=data.dim)
    _print_config("clusterability", args, m=data.m, n=data.dim, resolved_nprime=n_prime)
    sigma = clus.measure_sigma_separatedness(data, args.k)
    opt_partition, _ = kmeans.brute_force_optimum(data, args.k)
    beta = clus.measure_centre_stability(data, opt_partition)
    deletion = clus.measure_weak_deletion_stability(data, args.k)
    print(f"measured: sigma={sigma:.6g} beta={beta:.6g} deletion_ratio={deletion:.6g}")
    before = clus.ClusterabilityParams(
        sigma_separatedness=min(sigma + 1e-9, 1.0 - 1e-12) if sigma < 1.0 else None,
        centre_stability_beta=beta if 1.0 < beta < np.inf else None,
        weak_deletion_beta=deletion - 1.0 if 1.0 < deletion < np.inf else None,
    )
    predicted = clus.transport(before, args.delta)
    shrink = (1.0 - args.delta) / (1.0 + args.delta)
    records = clus.transport_trials(data, args.k, n_prime, args.trials, args.seed)
    ok = {
        "sigma": sum(r.sigma <= sigma / np.sqrt(shrink) for r in records),
        "beta": sum(r.beta >= beta * np.sqrt(shrink) for r in records),
        "deletion": sum(r.deletion_ratio >= deletion * shrink for r in records),
    }
    for name, count in ok.items():
        print(f"{name} bound satisfied: {count}/{args.trials} = {count / args.trials:.4f}")
    if args.out:
        # The worst value over the trials: the largest sigma, the smallest beta and ratio.
        worst = clus.TransportedParams(
            sigma_separatedness=max(r.sigma for r in records),
            centre_stability_beta=min(r.beta for r in records),
            weak_deletion_beta=min(r.deletion_ratio for r in records) - 1.0,
        )
        report = clus.TransportReport(before=before, predicted_after=predicted, measured_after=worst)
        clus.write_transport_csv(report, args.out)
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
    p.add_argument("--seed", type=int, default=None, help="override the fig-distortion seed")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("gen", help="generate a synthetic mixture instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sizes", required=True, help="comma-separated cluster sizes")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--distance", type=float, default=10.0, help="pairwise centre distance")
    p.add_argument("--sigma", type=float, default=1.0, help="isotropic cluster spread")
    p.add_argument("--gap", type=float, default=1.0, help="target relative gap in (0, 2]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--partition-out", default=None)
    p.add_argument("--format", choices=["binary", "csv"], default="binary")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("project", help="project a dataset with a seeded operator")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nprime", type=int, default=None, help="default: from --epsilon/--delta")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--implicit", action="store_true", help="derive n' by the n-dependent bound")
    p.add_argument("--orthonormal", action="store_true", help="orthonormalize operator rows")
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
    p.add_argument("--base-seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("kmeans-compare", help="cost-sandwich and fixed-point harnesses")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--nprime", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--partitions", type=int, default=20, help="random partitions per trial")
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="transport report CSV")
    p.set_defaults(func=_cmd_clusterability)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except JlkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
