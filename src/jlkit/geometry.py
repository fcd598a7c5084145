"""Distance kernels, pairwise distortion verification and failure-rate estimation.

Both distance kernels of the package live here: pairwise squared distances
(``pairwise_sq_dists``) and point-to-centre squared distances
(``sq_dists_to``, also the small-m square form ``sq_dist_matrix``).

A projection "succeeds" when every adjusted squared-distance quotient
(n/n') ||u'-v'||^2 / ||u-v||^2 stays inside the band [1-delta, 1+delta];
a single excursion counts as failure.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DomainError, ShapeError
from .projection import Dataset, projections

__all__ = [
    "DistortionReport",
    "FailureRateEstimate",
    "pairwise_sq_dists",
    "sq_dist_matrix",
    "sq_dists_to",
    "distortion_report",
    "estimate_failure_rate",
    "export_histogram",
]


@dataclass(frozen=True)
class DistortionReport:
    quotients: np.ndarray       # one entry per pair with nonzero original distance
    band: tuple[float, float]
    violations: int
    pair_count: int             # m (m-1) / 2, including excluded zero pairs
    zero_pairs: int             # pairs with coincident original points (excluded)
    success: bool


@dataclass(frozen=True)
class FailureRateEstimate:
    trials: int
    failures: int
    rate: float
    wilson_interval: tuple[float, float]
    extremes: tuple[tuple[float, float], ...]  # per trial: min, max quotient; (inf, -inf) if m = 1


# Rows per block of the pairwise kernel: at m = 5000 each of a block's
# temporaries stays near 10 MB, and the per-block Python overhead is small
# against its GEMM.
_BLOCK = 256

# The expansion |x|^2 + |y|^2 - 2 x.y of a pair (here), or of a block's
# cost (in kmeans.cluster_stats), counts as cancelled when it falls below
# the sum of squared norms divided by this ratio, and is then recomputed:
# on random data the expansion is within 1e-12 relative of direct
# difference at a ratio of 1e2, not 1e3.
_CANCELLATION_RATIO = 100.0

_MAX_BINS = 1000  # the most bins export_histogram writes, whatever delta is


def _reexpand(points: np.ndarray, s: int, sq: np.ndarray, near: np.ndarray) -> None:
    # Recompute the flagged pairs of the row block starting at s about a
    # centre of their own, the block's first flagged row x0, at most one
    # block-width of its flagged columns at a time: |a|^2 + |b|^2 - 2 a.b
    # with a = X[rows] - x0, b = X[cols] - x0.  Pairs that no longer cancel
    # are kept; the centre row's own pairs are direct differences, so each
    # pass clears some, and equal rows come out exactly 0.
    width = near.shape[0]
    while near.any():
        r0 = near.any(axis=1).argmax()
        cols = np.flatnonzero(near[r0])[:width]
        rows = np.flatnonzero(near[:, cols].any(axis=1))
        a = points[s + rows]
        a -= points[s + r0]
        b = points[s + cols]
        b -= points[s + r0]
        nsum = np.einsum("ij,ij->i", a, a)[:, None] + np.einsum("ij,ij->i", b, b)
        sub = a @ b.T
        sub *= -2.0
        sub += nsum
        np.maximum(sub, 0.0, out=sub)
        still = sub * _CANCELLATION_RATIO < nsum
        blk = np.ix_(rows, cols)
        flagged = near[blk]
        sq[blk] = np.where(flagged & ~still, sub, sq[blk])
        near[blk] = flagged & still


def _upper_blocks(points: np.ndarray, norms: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the condensed squared distances of pairs i < j, one row block at a time.

    For rows [s, e) only the Gram block X[s:e] @ X[s:].T is computed.  Its
    strict upper triangle (column > row), read in row-major order, is the
    run of the condensed i < j vector that belongs to those rows, so the
    yielded arrays, concatenated, are that vector.  Each pair is ||x_i||^2
    + ||x_j||^2 - 2 x_i.x_j, the squared row norms given as ``norms``,
    clamped at 0, unless that expansion cancels (see ``_CANCELLATION_RATIO``):
    such pairs are recomputed about a point near them (``_reexpand``), which
    makes equal rows exactly 0.
    """
    m = points.shape[0]
    upper = np.arange(min(_BLOCK, m))[:, None] < np.arange(m)
    for s in range(0, m, _BLOCK):
        e = min(s + _BLOCK, m)
        upper_blk = upper[: e - s, : m - s]
        nsum = norms[s:e, None] + norms[s:]
        sq = points[s:e] @ points[s:].T
        sq *= -2.0
        sq += nsum
        np.maximum(sq, 0.0, out=sq)
        near = sq * _CANCELLATION_RATIO < nsum
        del nsum
        near &= upper_blk
        if near.any():
            _reexpand(points, s, sq, near)
        seg = sq[upper_blk]
        del sq, near  # only the upper triangle stays alive while the caller works
        yield seg


def pairwise_sq_dists(points: np.ndarray) -> np.ndarray:
    """Condensed vector of squared Euclidean distances over all pairs i < j.

    Computed in row blocks of the upper triangle: rows [s, s+block) are
    multiplied only against rows s.. onward, so the Gram work is half of a
    full product.  Every pair is ||x_i||^2 + ||x_j||^2 - 2 x_i.x_j from its
    own norms and dot product, clamped at 0, so the result does not depend
    on the block size beyond BLAS rounding.  Where that expansion cancels,
    as for data translated far from the origin or tight clusters far from
    it, the pair is recomputed about a nearby point, which brings it
    within rounding of direct difference and makes equal rows exactly 0.
    """
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    out = np.empty(m * (m - 1) // 2, dtype=np.float64)
    pos = 0
    for seg in _upper_blocks(points, np.einsum("ij,ij->i", points, points)):
        out[pos : pos + seg.size] = seg
        pos += seg.size
    return out


def sq_dist_matrix(points: np.ndarray) -> np.ndarray:
    """Symmetric m x m squared distances for small m, by direct difference (``sq_dists_to``)."""
    return sq_dists_to(points, points)


def sq_dists_to(points: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """m x k squared distances from every point to every centre, by direct difference.

    Not by the |x|^2 + |c|^2 - 2 x.c expansion: a point on a centre is at
    exactly 0, and a common translation moves nothing but its own rounding.
    """
    out = np.empty((len(points), len(centres)))
    for j, centre in enumerate(centres):
        diff = points - centre
        out[:, j] = np.einsum("ij,ij->i", diff, diff)
    return out


def _block_quotients(sq_orig: np.ndarray, projected: Dataset, adjust: float) -> Iterator[np.ndarray]:
    # adjust * projected / original squared distance per row block, pairs with a
    # zero original distance dropped.  Each block reads its slice of the condensed
    # sq_orig before its quotients are yielded, so the caller may overwrite it.
    read = 0
    for sq_proj in _upper_blocks(projected.points, projected.sq_norms):
        sq_o = sq_orig[read : read + sq_proj.size]
        read += sq_proj.size
        nonzero = sq_o > 0.0
        if not nonzero.all():
            sq_o, sq_proj = sq_o[nonzero], sq_proj[nonzero]
        q = np.multiply(adjust, sq_proj)
        q /= sq_o
        yield q


def distortion_report(original: Dataset, projected: Dataset, delta: float) -> DistortionReport:
    """Check every pair against the distortion band [1-delta, 1+delta].

    Quotients are adjusted by n/n' and kept in condensed i < j order.  The
    original distances come from ``pairwise_sq_dists`` and the projected
    ones are streamed through the same upper-triangle row blocks, each
    block's quotients overwriting its slice of the original distances, so
    the one condensed array is the returned quotients.  Pairs whose original
    points coincide carry no information (the band is vacuous there); they
    are excluded from the quotients and counted in ``zero_pairs``.  In
    both spaces the pairs where the Gram expansion cancels are
    recomputed, so bitwise-equal original rows always give zero pairs,
    and translating the data moves the quotients by rounding only.  The
    identity case n' == n is allowed as a diagnostic mode.
    """
    if original.m != projected.m:
        raise ShapeError(f"point counts differ: {original.m} vs {projected.m}")
    if projected.dim > original.dim:
        raise ShapeError(f"projected dimension {projected.dim} exceeds original {original.dim}")
    if not 0.0 < (1.0 + delta) - (1.0 - delta) < math.inf:
        raise DomainError(f"delta must give the band a positive finite width, got {delta}")
    m = original.m
    pair_count = m * (m - 1) // 2
    adjust = original.dim / projected.dim
    band = (1.0 - delta, 1.0 + delta)
    # The original distances fill the buffer that becomes the quotients:
    # pairs with a nonzero original distance are compacted towards the
    # front, never ahead of the slice still to be read.
    quotients = pairwise_sq_dists(original.points)
    pos = violations = 0
    for q in _block_quotients(quotients, projected, adjust):
        violations += int(np.count_nonzero((q < band[0]) | (q > band[1])))
        quotients[pos : pos + q.size] = q
        pos += q.size
    zero_pairs = pair_count - pos
    if zero_pairs == pair_count and pair_count > 0:
        raise DegenerateDataError("all point pairs coincide in the original data")
    return DistortionReport(
        quotients=quotients[:pos],
        band=band,
        violations=violations,
        pair_count=pair_count,
        zero_pairs=zero_pairs,
        success=violations == 0,
    )


def estimate_failure_rate(
    data: Dataset, n_prime: int, delta: float, trials: int, base_seed: int, orthonormalize: bool = False
) -> FailureRateEstimate:
    """Fraction of independent projections (``projections``, seeds base_seed + t) that fail the band.

    The original pairwise distances are computed once; each trial streams
    its projected distances block by block against them and keeps only its
    smallest and largest quotient (bit for bit those of ``distortion_report``
    on the same projection); it fails when either leaves the band.
    """
    draws = projections(data, n_prime, trials, base_seed, orthonormalize)
    sq_orig = pairwise_sq_dists(data.points)
    if sq_orig.size > 0 and not np.any(sq_orig > 0.0):
        raise DegenerateDataError("all point pairs coincide in the original data")
    adjust = data.dim / n_prime
    extremes = []
    for _, projected in draws:
        lo, hi = math.inf, -math.inf
        for q in _block_quotients(sq_orig, projected, adjust):
            if q.size:
                lo, hi = min(lo, float(q.min())), max(hi, float(q.max()))
        del projected  # freed before the next trial's projection is built
        extremes.append((lo, hi))
    failures = sum(lo < 1.0 - delta or hi > 1.0 + delta for lo, hi in extremes)
    return FailureRateEstimate(
        trials=trials,
        failures=failures,
        rate=failures / trials,
        wilson_interval=_wilson_interval(failures, trials),
        extremes=tuple(extremes),
    )


def _wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval of successes/trials; well-behaved at small trial counts."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise DomainError("successes must lie in [0, trials]")
    p = successes / trials
    z = 1.959963984540054  # the standard normal quantile of a two-sided 95% interval
    z2 = z * z
    centre = (p + z2 / (2 * trials)) / (1 + z2 / trials)
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / (1 + z2 / trials)
    # Clamp away the last-ulp float wobble: the interval must contain p.
    return (min(p, max(0.0, centre - half)), max(p, min(1.0, centre + half)))


def export_histogram(report: DistortionReport, path: str) -> None:
    """Write the quotient histogram as CSV rows (bin_lo, bin_hi, count).

    The bins are delta/20 wide, delta being the band's half-width, or the
    smallest whole multiple of that which keeps them at most ``_MAX_BINS``.
    """
    width = (report.band[1] - report.band[0]) / 2.0 / 20.0
    q = report.quotients
    if q.size:  # aligning both ends to the bin grid adds up to two bins
        width *= max(1, math.ceil((q.max() - q.min()) / width / (_MAX_BINS - 2)))
    lo = math.floor(q.min() / width) * width if q.size else 0.0
    hi = math.ceil(q.max() / width) * width if q.size else width
    nbins = max(1, round((hi - lo) / width))
    while q.size and lo + nbins * width < q.max():  # guard the top edge
        nbins += 1
    counts, edges = np.histogram(q, bins=nbins, range=(lo, lo + nbins * width))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count"])
        for i, c in enumerate(counts):
            writer.writerow([f"{edges[i]:.10g}", f"{edges[i + 1]:.10g}", int(c)])
