"""One-shot Gaussian random projection with set-level distance guarantees.

Pick the target dimension once (``dimension``), project (``projection``),
verify the distortion band (``geometry``), and check what survives the
projection: k-means costs and fixed points (``kmeans``) and clusterability
parameters (``clusterability``), exact optima from ``oracle``.  ``datagen``
builds synthetic instances; ``reproduce`` regenerates the published tables.
"""

from . import clusterability, datagen, dimension, geometry, kmeans, oracle, projection, reproduce
from .errors import (
    DegenerateDataError,
    DomainError,
    InfeasibleError,
    JlkitError,
    NumericalError,
    ShapeError,
)

__version__ = "0.1.0"

__all__ = [
    "clusterability",
    "datagen",
    "dimension",
    "geometry",
    "kmeans",
    "oracle",
    "projection",
    "reproduce",
    "JlkitError",
    "DomainError",
    "ShapeError",
    "InfeasibleError",
    "DegenerateDataError",
    "NumericalError",
]
