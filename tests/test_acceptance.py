"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

All Monte-Carlo harnesses run with pinned seeds: every number below is
reproducible bit-for-bit on one platform.  Monte-Carlo thresholds follow
the rate >= 1 - eps - 3 sqrt(eps (1-eps) / trials) template.
"""

import math
import time

import numpy as np
import pytest

from jlkit import clusterability as clus
from jlkit.datagen import MixtureSpec, generate
from jlkit.dimension import explicit_dimension, gap_delta_bound
from jlkit.geometry import estimate_failure_rate
from jlkit.kmeans import (
    Partition,
    brute_force_optimum,
    cluster_stats,
    global_optimum_transfer_check,
    is_lloyd_fixed_point,
    lloyd,
    measure_gap,
    pair_balance,
    random_partition,
    sandwich_trials,
    var_merge,
)
from jlkit.projection import Dataset, projections
from jlkit.reproduce import reproduce
from tests.test_dimension import mp_pair_bound
from tests.test_reproduce import (
    REF_TABLE1,
    REF_TABLE2,
    REF_TABLE3,
    REF_TABLE4,
    REF_TABLE5,
    REF_TABLE6_REPS,
    REF_TABLE7_DG,
)


def report(name, ok, detail):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def mc_threshold(eps, trials, factor=1.0):
    return 1.0 - factor * eps - 3.0 * math.sqrt(factor * eps * (1.0 - factor * eps) / trials)


# The four dimension tables each sweep one parameter away from the
# baseline m=2e6, epsilon=0.01, delta=0.05, n=5e5.
DIMENSION_BASELINE = {"m": 2_000_000, "epsilon": 0.01, "delta": 0.05, "n": 500_000}
DIMENSION_TABLES = {
    "table1": (REF_TABLE1, "m"),
    "table2": (REF_TABLE2, "epsilon"),
    "table3": (REF_TABLE3, "delta"),
    "table4": (REF_TABLE4, "n"),
}


def union_bound_oracle(swept, x):
    """(lhs, epsilon) at a table row, lhs(n') = C(m,2) * B(n') at 60 digits.

    lhs is None where the tail bound is undefined, n'(1+delta) >= n: the
    capped row, where the table builder prints the explicit cap (the
    paper's convention).
    """
    params = dict(DIMENSION_BASELINE, **{swept: x})
    m, delta, n = params["m"], params["delta"], params["n"]
    pairs = m * (m - 1) // 2

    def lhs(n_prime):
        if n_prime * (1.0 + delta) >= n:
            return None
        return pairs * mp_pair_bound(n_prime, n, delta)

    return lhs, params["epsilon"]


def test_criterion_1_table_reproduction():
    """Tables of n' formulas: explicit exact, implicit within +-1.

    The implicit n' is the smallest n' with C(m,2) * B(n') <= eps.  Its
    +-1 is measured from that boundary as the 60-digit oracle
    ``mp_pair_bound`` gives it: lhs(n'+1) <= eps and lhs(n'-2) > eps.
    The published implicit column is kept as the paper's record, but the
    oracle shows it is not that boundary: of its 48 refined entries only
    3 are the minimum, 21 are insufficient (lhs > eps) and 24 lie above
    the minimum.  So every published entry more than 1 away from the
    program (24: 13 insufficient, 11 non-minimal) must be shown by the
    oracle not to solve the inequality; one that is the boundary fails
    the test.  The capped row (table 3, delta=0.01), where the tail bound
    is undefined, must equal the published cap exactly.
    """
    t0 = time.time()
    by_table = {tid: {r[0]: r for r in reproduce(tid)[1]} for tid in DIMENSION_TABLES}
    elapsed = time.time() - t0
    explicit_bad, implicit_bad, capped = [], [], []
    published_off = {"insufficient": [], "non-minimal": [], "boundary": []}
    within = {}
    for tid, (ref, swept) in DIMENSION_TABLES.items():
        for x, explicit, implicit in ref:
            row = by_table[tid][x]
            if row[1] != explicit:
                explicit_bad.append((tid, x, row[1], explicit))
            lhs, eps = union_bound_oracle(swept, x)
            if lhs(row[2]) is None:
                capped.append((tid, x, row[2], implicit))
                continue
            within[tid, x] = lhs(row[2] + 1) <= eps and lhs(row[2] - 2) > eps
            if not within[tid, x]:
                implicit_bad.append((tid, x, row[2]))
            if abs(row[2] - implicit) > 1:
                if lhs(implicit) > eps:
                    kind = "insufficient"
                elif lhs(implicit - 1) <= eps:
                    kind = "non-minimal"
                else:
                    kind = "boundary"
                published_off[kind].append((tid, x, row[2], implicit))
    explicit_anchors_ok = (
        by_table["table1"][10][1] == 15226
        and by_table["table3"][0.01][1] == 1353858
        and by_table["table3"][0.01][2] == 1353859
        and by_table["table4"][1_000_000][1] == 55582
    )
    # Oracle boundaries 14205 and 51701; the published entries are
    # 14209 and 51703, both above the minimum.
    implicit_anchors_ok = within.get(("table1", 10), False) and within.get(
        ("table4", 1_000_000), False
    )
    capped_ok = capped == [("table3", 0.01, 1353859, 1353859)]
    ok = (
        not explicit_bad and explicit_anchors_ok and elapsed < 5.0
        and not implicit_bad and implicit_anchors_ok
        and not published_off["boundary"] and capped_ok
    )
    report(
        "criterion 1: table reproduction",
        ok,
        f"explicit mismatches={len(explicit_bad)}/49, implicit within +-1 of the "
        f"oracle boundary={sum(within.values())}/{len(within)}, published implicit "
        f"beyond +-1 of ours={sum(map(len, published_off.values()))} "
        f"({len(published_off['insufficient'])} insufficient, "
        f"{len(published_off['non-minimal'])} non-minimal, "
        f"{len(published_off['boundary'])} at the boundary), capped row exact="
        f"{capped_ok}, explicit anchors ok={explicit_anchors_ok}, implicit anchors "
        f"ok={implicit_anchors_ok}, {elapsed:.2f}s",
    )
    assert not explicit_bad, f"explicit column must match exactly: {explicit_bad[:5]}"
    assert explicit_anchors_ok
    assert elapsed < 5.0
    assert not implicit_bad and implicit_anchors_ok, (
        f"implicit entries beyond +-1 of the 60-digit oracle boundary: {implicit_bad}"
    )
    assert not published_off["boundary"], (
        "published implicit entries beyond +-1 of ours that the oracle shows to "
        f"be the exact boundary: {published_off['boundary']}"
    )
    assert capped_ok, f"capped rows must equal the published cap: {capped}"


def test_criterion_2_dg_comparison():
    """Repeat-until-success comparison tables: both columns within +-1."""
    t0 = time.time()
    bad = []
    t5 = {r[0]: r for r in reproduce("table5")[1]}
    for m, gupta, reps in REF_TABLE5:
        if abs(t5[m][3] - gupta) > 1 or abs(t5[m][4] - reps) > 1:
            bad.append(("table5", m, t5[m][3], gupta, t5[m][4], reps))
    t6 = {r[0]: r for r in reproduce("table6")[1]}
    for e, reps in REF_TABLE6_REPS:
        if abs(t6[e][4] - reps) > 1:
            bad.append(("table6", e, t6[e][4], reps))
    t7 = {r[0]: r for r in reproduce("table7")[1]}
    for d, gupta in REF_TABLE7_DG:
        if abs(t7[d][3] - gupta) > 1:
            bad.append(("table7", d, t7[d][3], gupta))
    t8 = reproduce("table8")[1]
    anchors_ok = (
        t5[10][3] == 3879 and t5[10][4] == 44
        and t5[1_000_000][4] == 4605168
        and t7[0.5][3] == 465
    )
    elapsed = time.time() - t0
    ok = not bad and anchors_ok and elapsed < 5.0 and len(t8) == 7
    report(
        "criterion 2: repeat-until-success comparison",
        ok,
        f"mismatches={len(bad)}, anchors_ok={anchors_ok}, {elapsed:.2f}s",
    )
    assert ok, f"mismatches: {bad[:5]}"


@pytest.mark.slow
def test_criterion_3_distortion_figure():
    """5000 standard-normal points at the published figure parameters."""
    t0 = time.time()
    n_prime = explicit_dimension(5000, 0.1, 0.2)
    assert n_prime == 2188
    data = Dataset(points=np.random.default_rng(2024).standard_normal((5000, 5000)))
    est = estimate_failure_rate(data, n_prime, 0.2, trials=50, base_seed=1000)
    clean = est.trials - est.failures
    worst = (min(lo for lo, _ in est.extremes), max(hi for _, hi in est.extremes))
    slack_ok = 0.75 <= worst[0] and worst[1] <= 1.25
    elapsed = time.time() - t0
    ok = n_prime == 2188 and clean >= 45 and slack_ok and elapsed < 600
    report(
        "criterion 3: distortion figure",
        ok,
        f"n'={n_prime}, clean seeds={clean}/50 (need >= 45), quotient range "
        f"[{worst[0]:.4f}, {worst[1]:.4f}] within slack band=[0.75, 1.25]: "
        f"{slack_ok}, {elapsed:.1f}s",
    )
    assert ok


@pytest.mark.slow
def test_criterion_4_cost_sandwich():
    """Theorem-sized n' keeps every partition's cost in the (1 +- delta) band."""
    t0 = time.time()
    eps, delta, trials = 0.1, 0.3, 100
    data, truth = generate(MixtureSpec(
        k=3, sizes=(200, 200, 100), dim=2000, centre_distance=20.0,
        cluster_sigma=1.5, target_gap=0.5, seed=42,
    ))
    n, m = data.dim, data.m
    n_prime = explicit_dimension(m, eps, delta)
    assert n_prime < n
    lloyd_part, _ = lloyd(data, 3, init=0)
    rng = np.random.default_rng(4242)
    partitions = [lloyd_part] + [random_partition(rng, m, int(rng.integers(2, 6))) for _ in range(100)]
    records = sandwich_trials(data, partitions, n_prime, delta, trials, base_seed=5000)
    rate = sum(r.passed for r in records) / trials
    threshold = mc_threshold(eps, trials)
    elapsed = time.time() - t0
    ok = rate >= threshold
    report(
        "criterion 4: cost sandwich",
        ok,
        f"m=500 n=2000 n'={n_prime} delta={delta}: rate={rate:.3f} >= "
        f"threshold={threshold:.3f} over {trials} trials x 101 partitions, {elapsed:.1f}s",
    )
    assert ok


@pytest.mark.slow
def test_criterion_5_fixed_point_transfer():
    """Lloyd fixed points survive projection (and back) under the gap condition."""
    t0 = time.time()
    eps, trials = 0.1, 200
    # Full-dimensional variance is dim * sigma^2; sigma is sized to keep
    # the balance quotient p = 4 VAR / D^2 well under 1 so the admissible
    # delta stays large enough for n' < n.
    data, truth = generate(MixtureSpec(
        k=2, sizes=(50, 50), dim=1000, centre_distance=10.0,
        cluster_sigma=0.1, target_gap=1.2, seed=7,
    ))
    assert is_lloyd_fixed_point(data, truth)
    g = measure_gap(data, truth)
    p = pair_balance(cluster_stats(data, truth))
    bound = gap_delta_bound(g, p)
    delta_fwd = min(0.45, bound)
    # Converse direction: delta/(1-delta) must stay below the bound as
    # measured in the projected space; small haircuts on g and p
    # pre-cover the projection's own distortion of both.
    bound_conv = gap_delta_bound(0.95 * g, 1.2 * p)
    delta_conv = min(0.45, bound_conv / (1.0 + bound_conv))
    forward_hits = conv_hits = conv_condition_hits = 0
    np_fwd = explicit_dimension(data.m, eps, delta_fwd)
    np_conv = explicit_dimension(data.m, eps, delta_conv)
    for (_, projected), (_, projected2) in zip(
        projections(data, np_fwd, trials, 9000), projections(data, np_conv, trials, 90_000)
    ):
        if is_lloyd_fixed_point(projected, truth):
            forward_hits += 1
        part_p, stats_p = lloyd(projected2, 2, init=truth)
        g_p = measure_gap(projected2, part_p)
        p_p = pair_balance(stats_p)
        if delta_conv / (1.0 - delta_conv) <= gap_delta_bound(g_p, p_p):
            conv_condition_hits += 1
        if is_lloyd_fixed_point(data, part_p):
            conv_hits += 1
    threshold = mc_threshold(eps, trials)
    fwd_rate, conv_rate = forward_hits / trials, conv_hits / trials
    elapsed = time.time() - t0
    ok = fwd_rate >= threshold and conv_rate >= threshold
    report(
        "criterion 5: fixed-point transfer",
        ok,
        f"g={g:.3f} p={p:.4f} delta_fwd={delta_fwd:.3f} (n'={np_fwd}) "
        f"delta_conv={delta_conv:.3f} (n'={np_conv}): forward={fwd_rate:.3f}, "
        f"converse={conv_rate:.3f} (condition held {conv_condition_hits}/{trials}) "
        f">= {threshold:.3f}, {elapsed:.1f}s",
    )
    assert ok


@pytest.mark.slow
def test_criterion_6_global_optimum_oracle():
    """Exact optima transfer at oracle scale; oracle lower-bounds Lloyd."""
    t0 = time.time()
    eps, delta, trials = 0.3, 0.4, 100
    n = 200
    n_prime = explicit_dimension(10, eps, delta)
    assert n_prime < n
    threshold = mc_threshold(eps, trials)
    rates = {}
    oracle_ok = True
    for k, sizes, seed in ((2, (5, 5), 21), (3, (4, 3, 3), 22)):
        data, _ = generate(MixtureSpec(
            k=k, sizes=sizes, dim=n, centre_distance=8.0,
            cluster_sigma=0.7, target_gap=0.5, seed=seed,
        ))
        hits = 0
        for _, projected in projections(data, n_prime, trials, 7000):
            hits += global_optimum_transfer_check(data, projected, k, delta).forward_ok
        rates[k] = hits / trials
        _, opt_stats = brute_force_optimum(data, k)
        best_lloyd = min(lloyd(data, k, init=s)[1].cost for s in range(50))
        if opt_stats.cost > best_lloyd * (1 + 1e-9):
            oracle_ok = False
    elapsed = time.time() - t0
    ok = all(r >= threshold for r in rates.values()) and oracle_ok
    report(
        "criterion 6: global-optimum transfer at oracle scale",
        ok,
        f"n'={n_prime}, rates k=2: {rates[2]:.3f}, k=3: {rates[3]:.3f} >= "
        f"{threshold:.3f}; oracle <= 50 Lloyd restarts: {oracle_ok}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_algebraic_identities():
    """Merge/cost identities at 1e-9 relative; closed forms exact."""
    t0 = time.time()
    rng = np.random.default_rng(777)
    worst_merge = worst_cost = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        n1, n2 = int(rng.integers(1, 15)), int(rng.integers(1, 15))
        c1 = rng.standard_normal((n1, d)) * rng.uniform(0.1, 4.0)
        c2 = rng.standard_normal((n2, d)) + rng.uniform(-8.0, 8.0, size=d)
        v1 = float(np.mean(np.sum((c1 - c1.mean(0)) ** 2, axis=1)))
        v2 = float(np.mean(np.sum((c2 - c2.mean(0)) ** 2, axis=1)))
        merged = np.vstack([c1, c2])
        direct = float(np.mean(np.sum((merged - merged.mean(0)) ** 2, axis=1)))
        via = var_merge(n1, v1, c1.mean(0), n2, v2, c2.mean(0))
        if direct > 0:
            worst_merge = max(worst_merge, abs(via - direct) / direct)
        # cost identity: sum over points == sizes . variances
        labels = np.array([0] * n1 + [1] * n2)
        data = Dataset(points=merged)
        part = Partition(assignments=labels, k=2)
        stats = cluster_stats(data, part)
        direct_cost = float(np.sum((merged - stats.centroids[labels]) ** 2))
        if direct_cost > 0:
            worst_cost = max(worst_cost, abs(stats.cost - direct_cost) / direct_cost)
    before = clus.ClusterabilityParams(
        sigma_separatedness=0.25, approx_stability=(1.8, 0.3),
        centre_stability_beta=2.5, weak_deletion_beta=0.9,
    )
    after = clus.transport(before, 0.0)
    transport_identity = (
        after.sigma_separatedness == pytest.approx(0.25, rel=1e-15)
        and after.approx_stability[0] == pytest.approx(1.8, rel=1e-15)
        and after.centre_stability_beta == pytest.approx(2.5, rel=1e-15)
        and after.weak_deletion_beta == pytest.approx(0.9, rel=1e-14)
    )
    gap_exact = gap_delta_bound(2.0, 1.0) == 1.0 / 3.0
    elapsed = time.time() - t0
    ok = worst_merge <= 1e-9 and worst_cost <= 1e-9 and transport_identity and gap_exact
    report(
        "criterion 7: algebraic identities",
        ok,
        f"worst merge error={worst_merge:.2e}, worst cost error={worst_cost:.2e} "
        f"(1000 instances), transport identity={transport_identity}, "
        f"gap(2,1)==1/3 exactly={gap_exact}, {elapsed:.1f}s",
    )
    assert ok


@pytest.mark.slow
def test_criterion_8_clusterability_transport():
    """Measured post-projection parameters respect the transport bounds."""
    t0 = time.time()
    eps, delta, seeds = 0.1, 0.3, 100
    # sigma keeps the full-dimensional spread (dim * sigma^2 = 1.25) small
    # against the centre distance so the instance is genuinely separated:
    # all five parameters are then comfortably defined before projection.
    data, truth = generate(MixtureSpec(
        k=2, sizes=(5, 5), dim=500, centre_distance=10.0,
        cluster_sigma=0.05, target_gap=1.0, seed=33,
    ))
    n_prime = explicit_dimension(data.m, eps, delta)
    before = clus.measure(data, 2)
    sigma, beta = before.sigma_separatedness, before.centre_stability_beta
    deletion = 1.0 + before.weak_deletion_beta  # the ratio, as measured
    assert 0.0 < sigma < 1.0 and beta > 1.0 and deletion > 1.0
    # The bounds come from transport, as the clusterability command reads them.
    predicted = clus.transport(before, delta)
    # Perturbation-robustness precondition in the original space.
    s_p_sq, nu_sq = 0.9, 0.95
    s_sq = clus.required_mult_perturb_s(s_p_sq, nu_sq, delta)
    assert clus.check_perturbation_robustness(data, 2, math.sqrt(s_sq), trials=50, seed=1)
    records = clus.transport_trials(data, 2, n_prime, seeds, base_seed=3000)
    counts = {
        "sigma": sum(r.sigma_separatedness <= predicted.sigma_separatedness for r in records),
        "beta": sum(r.centre_stability_beta >= predicted.centre_stability_beta for r in records),
        "deletion": sum(r.weak_deletion_beta >= predicted.weak_deletion_beta for r in records),
        "perturbation": 0,
    }
    for t, (_, projected) in enumerate(projections(data, n_prime, seeds, 3000)):
        counts["perturbation"] += clus.check_perturbation_robustness(
            projected, 2, math.sqrt(s_p_sq), trials=30, seed=100 + t
        )
    threshold = mc_threshold(eps, seeds)
    threshold_2eps = mc_threshold(eps, seeds, factor=2.0)
    rates = {k: v / seeds for k, v in counts.items()}
    elapsed = time.time() - t0
    ok = (
        rates["sigma"] >= threshold
        and rates["beta"] >= threshold
        and rates["deletion"] >= threshold
        and rates["perturbation"] >= threshold_2eps
    )
    report(
        "criterion 8: clusterability transport",
        ok,
        f"n'={n_prime} sigma={sigma:.4f} beta={beta:.3f} deletion={deletion:.2f}; "
        f"rates sigma={rates['sigma']:.2f} beta={rates['beta']:.2f} "
        f"deletion={rates['deletion']:.2f} (>= {threshold:.3f}), "
        f"perturbation={rates['perturbation']:.2f} (>= {threshold_2eps:.3f}), {elapsed:.1f}s",
    )
    assert ok
