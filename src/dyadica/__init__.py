"""Desk-scale numerics for dyadic sequence spaces, matrix weights,
compactly supported wavelets, trace/extension re-indexing, and
singular-kernel condition checks."""

__version__ = "0.1.0"

from .dyadic import DyadicCube, LatticeWindow, children, distance_term
from .errors import DyadicaError, PreconditionError, SingularWeightError
from .params import SpaceParams, derived_indices, rounding_profile
from .seq import (
    CoeffField,
    la_norm,
    la_norms,
    seq_norm_averaged,
    seq_norm_weighted,
    seq_norms_averaged,
    seq_norms_weighted,
)
from .wavelets import FunctionSample, WaveletSystem, analyze, daubechies_filter, synthesize
from .weights import MatrixWeight, QuadratureSpec, ReducingFamily

__all__ = [
    "__version__",
    "DyadicCube",
    "LatticeWindow",
    "children",
    "distance_term",
    "DyadicaError",
    "PreconditionError",
    "SingularWeightError",
    "SpaceParams",
    "derived_indices",
    "rounding_profile",
    "CoeffField",
    "la_norm",
    "la_norms",
    "seq_norm_averaged",
    "seq_norm_weighted",
    "seq_norms_averaged",
    "seq_norms_weighted",
    "FunctionSample",
    "WaveletSystem",
    "analyze",
    "daubechies_filter",
    "synthesize",
    "MatrixWeight",
    "QuadratureSpec",
    "ReducingFamily",
]
