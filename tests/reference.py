"""References shared by the test files: the one place they import from.

The partition enumerator and the oracle's test matrices, the seam through
which tests watch the oracle cost its partitions, the 60-digit pair bound,
a translated mixture, the README's claim map and the published tables.
Not collected (no ``test_`` prefix); no test file imports another.
"""

import functools
import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

from jlkit import oracle
from jlkit.datagen import MixtureSpec, generate
from jlkit.geometry import sq_dist_matrix
from jlkit.projection import Dataset

README = Path(__file__).resolve().parent.parent / "README.md"


def stirling2(m, k):
    # S(m, k) by the recurrence S(m, k) = k S(m-1, k) + S(m-1, k-1).
    if m == k:
        return 1
    if k == 0 or k > m:
        return 0
    return k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)


@functools.cache
def _growth_strings(m):
    # (labels, top label) of every assignment vector with a[0] = 0 and
    # a[i] <= max(a[:i]) + 1, in lexicographic order, built by extending each
    # string with every label it admits, in increasing order: Bell(m)
    # strings, not m! candidates.
    strings = [((), -1)]
    for _ in range(m):
        strings = [(labels + (a,), max(top, a)) for labels, top in strings for a in range(top + 2)]
    return strings


def restricted_growth_strings(m):
    return [labels for labels, _ in _growth_strings(m)]


@functools.cache
def partitions_into(m, k):
    return [labels for labels, top in _growth_strings(m) if top + 1 == k]


def reference_masks(m, k):
    # One row of block bitmasks per partition, in restricted growth order.
    labels = np.array(partitions_into(m, k)).reshape(-1, m)
    return (labels[:, None, :] == np.arange(k)[:, None]) @ (1 << np.arange(m))


def rgs_rank(labels, k):
    # The index of an RGS among those of its length with k blocks, in RGS order.
    m = len(labels)

    @functools.cache
    def completions(i, used):
        # Ways to label points i.. after used blocks, ending with k blocks.
        if i == m:
            return int(used == k)
        return used * completions(i + 1, used) + (completions(i + 1, used + 1) if used < k else 0)

    rank = used = 0
    for i, a in enumerate(labels):
        rank += sum(completions(i + 1, max(used, b + 1)) for b in range(a))
        used = max(used, a + 1)
    return rank


def reference_costs(sq):
    # {k: the cost of every partition into k blocks, in RGS order}.  A block
    # costs half the fsum of sq over its ordered pairs, diagonal included,
    # over its size; the blocks are added in label order.  Integer sq makes
    # every cost exact, bit for bit.
    m = sq.shape[0]
    members = (np.flatnonzero(s >> np.arange(m) & 1) for s in range(1 << m))
    block = np.array([0.5 * math.fsum(sq[np.ix_(b, b)].ravel()) / max(b.size, 1) for b in members])
    out = {}
    for k in range(1, m + 1):
        masks = reference_masks(m, k)
        out[k] = block[masks[:, 0]]
        for j in range(1, k):
            out[k] += block[masks[:, j]]
    return out


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


def seam_chunks(monkeypatch):
    # The (offsets, costs) chunks that oracle._group_costs yields, one list
    # per oracle call, in call order: costs[i, c] is partition offsets[i] + c.
    real, calls = oracle._group_costs, []

    def recorded(*args):
        calls.append([])
        for offsets, costs in real(*args):
            calls[-1].append((offsets, costs))
            yield offsets, costs

    monkeypatch.setattr(oracle, "_group_costs", recorded)
    return calls


def laid_out(chunks):
    # The recorded costs by partition index; every index in range once.
    index = np.concatenate([(offsets[:, None] + np.arange(costs.shape[1])).ravel() for offsets, costs in chunks])
    assert np.array_equal(np.sort(index), np.arange(index.size))
    costs = np.empty(index.size)
    costs[index] = np.concatenate([costs.ravel() for _, costs in chunks])
    return costs


def evict_oracle_tables():
    # Calls at five other sizes, so that the next call at m > 6 builds its tables cold.
    for m in range(2, 7):
        oracle.optimum(np.zeros((m, m)), 1)


# Integer coordinates in the tied cases: every pair sum is exact, so tied
# partitions tie in floating point too and the first one must win.
ORACLE_CASES = {
    **{f"random-{m}": np.random.default_rng(100 + m).standard_normal((m, 3)) for m in range(1, 9)},
    "unit-square": np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float),
    "duplicated-points": np.array([[0], [0], [3], [3], [7], [7], [7], [10]], dtype=float),
    "grid-with-duplicate": np.array([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1], [1, 1]], dtype=float),
}


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


def mp_pair_bound(n_prime, n, delta):
    """Independent high-precision evaluation of the two-tail bound."""
    from mpmath import mp, mpf

    mp.dps = 60
    d, npr, nn = mpf(delta), mpf(n_prime), mpf(n)
    r = npr * d / (nn - npr)
    t1 = (1 - d) ** (npr / 2) * (1 + r) ** ((nn - npr) / 2)
    t2 = (1 + d) ** (npr / 2) * (1 - r) ** ((nn - npr) / 2)
    return float(t1 + t2)


def shifted_mixture():
    # Two tight clusters far from the origin: the |x|^2 + |c|^2 - 2 x.c
    # expansion loses every digit of their distances to rounding there.
    data, truth = generate(MixtureSpec(
        k=2, sizes=(20, 20), dim=50, centre_distance=1.0,
        cluster_sigma=0.05, target_gap=1.0, seed=3,
    ))
    return Dataset(points=data.points + 1e7), truth


def claim_map_functions():
    """(module, function) for each backticked ``module.function`` in the claim map's functions column."""
    section = README.read_text().split("### Claim map", 1)[1].split("\n#", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| ") and "`" in line]
    return [tuple(name.split(".")) for row in rows for name in re.findall(r"`(\w+\.\w+)`", row[1])]


# The published reference tables.  (x, explicit, implicit) sweep values.
REF_TABLE1 = [
    (10, 15226, 14209), (20, 17518, 16389), (50, 20547, 19191), (100, 22839, 21269),
    (200, 25131, 23323), (500, 28160, 26016), (1000, 30452, 28030), (2000, 32744, 30027),
    (5000, 35773, 32648), (10_000, 38065, 34609), (20_000, 40357, 36554),
    (50_000, 43386, 39097), (100_000, 45678, 41017), (200_000, 47970, 42910),
    (500_000, 50999, 45392), (1_000_000, 53291, 47250), (2_000_000, 55582, 49099),
    (5_000_000, 58612, 51515), (20_000_000, 63195, 55127), (50_000_000, 66225, 57480),
    (100_000_000, 68516, 59243),
]
REF_TABLE2 = [
    (0.1, 51776, 46020), (0.05, 52922, 46955), (0.02, 54437, 48180), (0.01, 55582, 49099),
    (0.005, 56728, 50014), (0.002, 58243, 51221), (0.001, 59389, 52134),
]
REF_TABLE3 = [
    (0.5, 712, 697), (0.4, 1059, 1032), (0.3, 1787, 1745), (0.2, 3804, 3692),
    (0.1, 14339, 13640), (0.09, 17593, 16631), (0.08, 22128, 20742), (0.07, 28721, 26604),
    (0.06, 38846, 35329), (0.05, 55582, 49099), (0.04, 86291, 72387), (0.03, 152415, 115298),
    (0.02, 340701, 201059), (0.01, 1353858, 1353859),
]
REF_TABLE4 = [
    (400_000, 55582, 47891), (500_000, 55582, 49099), (600_000, 55582, 49933),
    (700_000, 55582, 50551), (800_000, 55582, 51025), (900_000, 55582, 51399),
    (1_000_000, 55582, 51703),
]
# (x, gupta_n_prime, repetitions)
REF_TABLE5 = [
    (10, 3879, 44), (20, 5046, 90), (50, 6589, 228), (100, 7757, 459), (200, 8924, 919),
    (500, 10467, 2301), (1000, 11635, 4603), (2000, 12802, 9209), (5000, 14345, 23024),
    (10_000, 15513, 46050), (20_000, 16680, 92102), (50_000, 18223, 230257),
    (100_000, 19391, 460515), (200_000, 20558, 921032), (500_000, 22101, 2302583),
    (1_000_000, 23269, 4605168), (2_000_000, 24436, 9210339), (5_000_000, 25979, 23025849),
    (20_000_000, 28314, 92103402), (50_000_000, 29857, 230258508),
    (100_000_000, 31025, 460517014),
]
REF_TABLE6_REPS = [
    (0.1, 4605170), (0.05, 5991464), (0.02, 7824045), (0.01, 9210339),
    (0.005, 10596633), (0.002, 12429214), (0.001, 13815508),
]
REF_TABLE7_DG = [
    (0.5, 465), (0.4, 605), (0.3, 922), (0.2, 1814), (0.1, 6449), (0.09, 7874),
    (0.08, 9857), (0.07, 12736), (0.06, 17150), (0.05, 24436), (0.04, 37783),
    (0.03, 66478), (0.02, 148048), (0.01, 586209),
]
