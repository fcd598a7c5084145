"""Regeneration of the published reference tables and figure datasets.

Every table is a pure formula sweep with its parameters baked in; the
distortion figure runs one seeded projection at its stated size.  The
published sample-size sweep contains a duplicated, out-of-order 1e+08
row where 1e+07 was clearly intended; the regenerated sweep emits the
mathematically ordered grid including 1e+07.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .dimension import (
    dg_n_prime,
    dg_repetitions,
    domain_edge,
    explicit_dimension,
    gap_delta_bound,
    implicit_dimension,
)
from .errors import DomainError
from .geometry import distortion_report, export_histogram
from .projection import Dataset, build_operator, project

__all__ = ["TABLE_IDS", "FIGURE_IDS", "reproduce", "write_csv"]

# Baseline parameters shared by the sweeps, and the grid of each swept one.
_BASE = dict(m=2_000_000, epsilon=0.01, delta=0.05, n=500_000)
_GRIDS = dict(
    m=[
        10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000,
        10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
        1_000_000, 2_000_000, 5_000_000, 10_000_000, 20_000_000,
        50_000_000, 100_000_000,
    ],
    epsilon=[0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001],
    delta=[0.5, 0.4, 0.3, 0.2, 0.1, 0.09, 0.08, 0.07, 0.06, 0.05, 0.04, 0.03, 0.02, 0.01],
    n=[400_000, 500_000, 600_000, 700_000, 800_000, 900_000, 1_000_000],
)
# Each dimension sweep: its swept parameter and the columns after n' implicit.
_RATIO = ["explicit/implicit"]
_REPEAT = ["Gupta n'", "Their Repetitions", "Our n' to their n'"]
_SWEEPS = {
    "table1": ("m", _RATIO), "table2": ("epsilon", _RATIO),
    "table3": ("delta", _RATIO), "table4": ("n", _RATIO),
    "table5": ("m", _REPEAT), "table6": ("epsilon", _REPEAT),
    "table7": ("delta", _REPEAT), "table8": ("n", _REPEAT),
    "fig-samplesize": ("m", []), "fig-epsilon": ("epsilon", []),
    "fig-delta": ("delta", []), "fig-orign": ("n", []),
}

_DISTORTION_PARAMS = dict(m=5_000, epsilon=0.1, delta=0.2, n=5_000, seed=1)
_GAP_P_VALUES = [0.5, 1.0, 2.0]

TABLE_IDS = [f"table{i}" for i in range(1, 9)]
FIGURE_IDS = ["fig-samplesize", "fig-epsilon", "fig-delta", "fig-orign", "fig-distortion", "fig-gap"]


def _sweep_table(ident: str):
    swept, extra = _SWEEPS[ident]
    rows = []
    for x in _GRIDS[swept]:
        m, eps, delta, n = {**_BASE, swept: x}.values()
        explicit = explicit_dimension(m, eps, delta)
        # Where the explicit cap lies outside the tail bound's domain
        # n' (1 + delta) < n, the paper prints the cap, not the solver's n'.
        capped = explicit + 1 > domain_edge(n, delta)
        implicit = explicit + 1 if capped else implicit_dimension(m, eps, delta, n)
        row = [x, explicit, implicit]
        if extra == _RATIO:
            row.append(f"{round(explicit / implicit, 2):g}")
        elif extra == _REPEAT:
            gupta = dg_n_prime(m, delta)
            row += [gupta, dg_repetitions(m, eps), f"{math.ceil(implicit / gupta * 10.0) / 10.0:g}"]
        rows.append(row)
    return [swept, "n' explicit", "n' implicit"] + extra, rows


def _figure_gap():
    header = ["g"] + [f"delta_max_p{p:g}" for p in _GAP_P_VALUES]
    rows = []
    for i in range(1, 41):  # g in (0, 2] on a 0.05 grid
        g = i * 0.05
        rows.append([f"{g:g}"] + [f"{gap_delta_bound(g, p):.6f}" for p in _GAP_P_VALUES])
    return header, rows


def _figure_distortion(path: str, seed: int | None = None):
    p = dict(_DISTORTION_PARAMS)
    if seed is not None:
        p["seed"] = seed
    n_prime = explicit_dimension(p["m"], p["epsilon"], p["delta"])
    rng = np.random.default_rng(np.random.SeedSequence(entropy=p["seed"], spawn_key=(0,)))
    data = Dataset(points=rng.standard_normal((p["m"], p["n"])))
    op = build_operator(p["n"], n_prime, p["seed"])
    report = distortion_report(data, project(op, data), p["delta"])
    export_histogram(report, path)
    return n_prime, report


def reproduce(ident: str):
    """Rows for one table/figure id; see ``write_csv`` for file output.

    Returns (header, rows) for the formula-driven ids.  ``fig-distortion``
    is file-only (the histogram depends on a full projection run) and is
    handled by ``write_csv`` directly.
    """
    if ident in _SWEEPS:
        return _sweep_table(ident)
    if ident == "fig-gap":
        return _figure_gap()
    if ident == "fig-distortion":
        raise DomainError("fig-distortion is generated straight to file; use write_csv")
    raise DomainError(f"unknown reproduction id {ident!r}")


def write_csv(ident: str, path: str, seed: int | None = None):
    """Generate one table or figure dataset and write it to ``path``.

    Returns a short human-readable summary string.
    """
    if ident == "fig-distortion":
        n_prime, report = _figure_distortion(path, seed=seed)
        return (
            f"fig-distortion: n'={n_prime}, pairs={report.pair_count}, "
            f"violations={report.violations}, success={report.success} -> {path}"
        )
    header, rows = reproduce(ident)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return f"{ident}: {len(rows)} rows -> {path}"
