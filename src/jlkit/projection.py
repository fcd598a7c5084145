"""Seeded row-normalized Gaussian projection operators and dataset I/O.

The operator is an n' x n matrix whose rows are independent standard
normal draws scaled to unit Euclidean norm.  Rows are deliberately *not*
orthogonalized: with thousands of coordinates they are close to
orthogonal anyway, and this is the construction the distance guarantees
are stated for.  Projected coordinates are left unscaled; every distance
comparison multiplies squared distances by n/n' instead.
"""

from __future__ import annotations

import json
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "Dataset",
    "ProjectionOperator",
    "build_operator",
    "project",
    "save_dataset",
    "load_dataset",
    "save_operator",
    "load_operator",
]

_MAGIC = b"JLKIT-DATASET-01"  # exactly 16 bytes: magic + version

# Domain tag for the operator's seed stream: decouples it from any other
# generator a caller may have seeded with the same integer (e.g. the
# dataset itself), which would otherwise correlate operator rows with
# data points and wreck the distance guarantees.
_OPERATOR_STREAM = 0x6F70


@dataclass
class Dataset:
    """An m x d matrix of points; a point is named by its row index."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ShapeError(f"points must be a non-empty 2-D array, got shape {self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise DomainError("dataset contains non-finite entries")

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class ProjectionOperator:
    """Immutable n' x n row-normalized Gaussian matrix plus its provenance."""

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
    """Draw a seeded n' x n operator with unit-norm rows.

    Deterministic in (n, n_prime, seed).  With ``orthonormalize=True`` the
    rows are additionally orthonormalized (QR with a deterministic sign
    fix), for measuring whether the distinction matters empirically; the
    default keeps the plain normalized construction.
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


def load_dataset(path: str) -> Dataset:
    """Read a dataset file, auto-detecting binary magic vs CSV (header optional).

    A regular binary file must hold at least the 8*m*d data bytes its
    header's (m, d) implies (later bytes are ignored); that is checked
    before the m x d array is allocated, so a corrupt header is a
    ``ShapeError``, not a huge allocation.  A pipe has no size to check and
    is read up to the data's end, a short read being a ``ShapeError``.  So
    is a CSV cell that is not a number or a CSV row of another length.
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
        first = fh.readline()
    skip = 0
    try:
        [float(tok) for tok in first.strip().split(",")]
    except ValueError:
        skip = 1
    try:
        points = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=skip)
    except ValueError as err:
        raise ShapeError(f"malformed CSV dataset {path}: {err}") from None
    return Dataset(points=points)


def save_operator(op: ProjectionOperator, path: str) -> None:
    """Persist only (n, n', seed, orthonormal); the matrix is regenerated on load."""
    with open(path, "w") as fh:
        json.dump(
            {"n": op.n, "n_prime": op.n_prime, "seed": op.seed, "orthonormal": op.orthonormal},
            fh,
        )


def load_operator(path: str) -> ProjectionOperator:
    with open(path) as fh:
        meta = json.load(fh)
    return build_operator(
        n=int(meta["n"]),
        n_prime=int(meta["n_prime"]),
        seed=int(meta["seed"]),
        orthonormalize=bool(meta.get("orthonormal", False)),
    )
