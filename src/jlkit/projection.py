"""Seeded Gaussian projection operators, the trial source, and dataset I/O.

The operator starts as an n' x n standard normal matrix.  The route to
n' picks its rows: unit-norm for an explicit or given n', orthonormal for
an n' from the n-aware bound, the tail bound of an orthogonal projection.
Projected coordinates are left unscaled; every distance comparison
multiplies squared distances by n/n' instead.  ``projections`` is the
one seed loop of every Monte-Carlo harness.
"""

from __future__ import annotations

import json
import os
import stat
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "Dataset",
    "ProjectionOperator",
    "build_operator",
    "project",
    "projections",
    "save_dataset",
    "load_dataset",
    "save_operator",
    "read_operator",
]

_MAGIC = b"JLKIT-DATASET-01"  # exactly 16 bytes: magic + version

# Domain tag for the operator's seed stream: decouples it from any other
# generator a caller may have seeded with the same integer (e.g. the
# dataset itself), which would otherwise correlate operator rows with
# data points and wreck the distance guarantees.
_OPERATOR_STREAM = 0x6F70


@dataclass(frozen=True, eq=False)
class Dataset:
    """An m x d matrix of points; a point is named by its row index.

    Read-only, as are ``sq_norms``, the squared row norms, computed once:
    writing later into the array passed in leaves them stale.  Equality and
    hash are by identity.
    """

    points: np.ndarray
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = np.ascontiguousarray(self.points, dtype=np.float64).view()
        if points.ndim != 2 or points.shape[0] < 1:
            raise ShapeError(f"points must be a non-empty 2-D array, got shape {points.shape}")
        # Finite norms mean finite entries; entries whose squares overflow pass.
        sq_norms = np.einsum("ij,ij->i", points, points)
        if not np.all(np.isfinite(sq_norms)) and not np.all(np.isfinite(points)):
            raise DomainError("dataset contains non-finite entries")
        for name, value in (("points", points), ("sq_norms", sq_norms)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class ProjectionOperator:
    """Immutable n' x n Gaussian matrix, its rows unit-norm or ``orthonormal``, plus its provenance."""

    n: int
    n_prime: int
    seed: int
    rows: np.ndarray
    orthonormal: bool = False

    @property
    def scale(self) -> float:
        """sqrt(n/n'), the factor applied to distances (not coordinates)."""
        return float(np.sqrt(self.n / self.n_prime))

    @property
    def sq_scale(self) -> float:
        """n/n', the factor applied to squared distances."""
        return self.n / self.n_prime


def build_operator(n: int, n_prime: int, seed: int, orthonormalize: bool = False) -> ProjectionOperator:
    """Draw a seeded n' x n operator with unit-norm rows, or orthonormal ones.

    Deterministic in (n, n_prime, seed, orthonormalize).  Orthonormal rows
    come from QR with a deterministic sign fix.
    """
    if not 0 < n_prime < n:
        raise ShapeError(f"need 0 < n' < n, got n'={n_prime}, n={n}")
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_OPERATOR_STREAM,)))
    rows = rng.standard_normal((n_prime, n))
    if orthonormalize:
        q, r = np.linalg.qr(rows.T)
        rows = (q * np.sign(np.diag(r))).T
    else:
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows.setflags(write=False)
    return ProjectionOperator(n=n, n_prime=n_prime, seed=seed, rows=rows, orthonormal=orthonormalize)


def project(op: ProjectionOperator, data: Dataset) -> Dataset:
    """Apply x -> Mx to every point; row order is kept, coordinates unscaled."""
    if data.dim != op.n:
        raise ShapeError(f"dataset dimension {data.dim} != operator source dimension {op.n}")
    return Dataset(points=data.points @ op.rows.T)


def projections(
    data: Dataset, n_prime: int, trials: int, base_seed: int, orthonormalize: bool = False
) -> Iterator[tuple[int, Dataset]]:
    """Yield (seed, ``project(build_operator(n, n', seed, orthonormalize), data)``), seed = base_seed + t.

    trials >= 1 and 0 < n' < n are checked at the call, before any draw.  Each
    projection is built when the next item is asked for, so a caller that
    deletes its loop variable first holds one projection at a time.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not 0 < n_prime < data.dim:
        raise ShapeError(f"need 0 < n' < n, got n'={n_prime}, n={data.dim}")
    return (
        (seed, project(build_operator(data.dim, n_prime, seed, orthonormalize), data))
        for seed in range(base_seed, base_seed + trials)
    )


def save_dataset(data: Dataset, path: str, fmt: str = "binary") -> None:
    """Write a dataset as CSV (one point per row) or the bit-exact binary format.

    Binary layout: 16-byte magic+version, two little-endian uint64 (m, d),
    then m*d little-endian float64 values row-major.  Neither format
    names its points: a point is its row.
    """
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<QQ", data.m, data.dim))
            fh.write(memoryview(np.ascontiguousarray(data.points, dtype="<f8")))
    elif fmt == "csv":
        np.savetxt(path, data.points, delimiter=",", fmt="%.17g")
    else:
        raise DomainError(f"unknown dataset format {fmt!r}")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_dataset(path: str) -> Dataset:
    """Read a dataset file, auto-detecting binary magic vs CSV.

    A regular binary file must hold at least the 8*m*d data bytes its
    header's (m, d) implies (later bytes are ignored); that is checked
    before the m x d array is allocated, so a corrupt header is a
    ``ShapeError``, not a huge allocation.  A pipe has no size to check and
    is read up to the data's end, a short read being a ``ShapeError``.  So
    is a CSV cell that is not a number or a CSV row of another length; only
    a first row without a single number in it is skipped, as a header.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
        if head == _MAGIC:
            header = fh.read(16)
            if len(header) != 16:
                raise ShapeError("truncated binary dataset header")
            m, d = struct.unpack("<QQ", header)
            expected = len(_MAGIC) + 16 + 8 * m * d
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode) and st.st_size < expected:
                raise ShapeError(
                    f"binary dataset header claims {m}x{d} float64 ({expected} bytes), "
                    f"but the file has {st.st_size} bytes"
                )
            points = np.empty((m, d), dtype="<f8")
            if fh.readinto(points.reshape(-1).view(np.uint8)) != points.nbytes:
                raise ShapeError(f"truncated binary dataset: expected {m}x{d} float64")
            return Dataset(points=points)
    with open(path) as fh:
        first = fh.readline().strip().split(",")
    header = not any(_is_number(cell) for cell in first)
    try:
        points = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=int(header))
    except ValueError as err:
        raise ShapeError(f"malformed CSV dataset {path}: {err}") from None
    return Dataset(points=points)


def save_operator(op: ProjectionOperator, path: str) -> None:
    """Persist only (n, n', seed, orthonormal); ``read_operator`` reads them back."""
    with open(path, "w") as fh:
        json.dump(
            {"n": op.n, "n_prime": op.n_prime, "seed": op.seed, "orthonormal": op.orthonormal},
            fh,
        )


def read_operator(path: str) -> tuple[int, int, int, bool]:
    """(n, n', seed, orthonormal) as ``save_operator`` wrote them; a malformed file raises ShapeError.

    Nothing is drawn: ``build_operator(*read_operator(path))`` redraws the operator.
    """
    try:
        with open(path) as fh:
            meta = json.load(fh)
        return int(meta["n"]), int(meta["n_prime"]), int(meta["seed"]), bool(meta.get("orthonormal", False))
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        raise ShapeError(f"malformed operator file {path}: {err!r}") from None
