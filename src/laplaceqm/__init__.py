"""Laplace contour-integral solver for the time-independent Schrodinger equation.

Bound states come from a single residue at z = -lambda; continuum states are
evaluated along three independent contour routes (real segment, circle with
tracked phases, series around infinity) that cross-validate one another.

The package exports the documented entry points, the types they take and
return, and the exceptions they raise; every other layer stays importable
from its own module.
"""

from .potential_catalog import (
    DomainError,
    InvalidQuantumNumbers,
    Kind,
    NotBoundProblem,
    ProblemSpec,
    QuantumNumbers,
    RegimeMismatch,
    bound_energy,
)
from .contour_eval import (
    ContourConfig,
    Method,
    MethodRegimeMismatch,
    NonIntegerOrder,
    PrecisionLoss,
    WavefunctionGrid,
    sample_wavefunction,
)
from .validation import ComparisonReport, cross_method_report, spectrum_table

__version__ = "0.1.0"

__all__ = [
    # entry points and the types they take or return
    "ComparisonReport",
    "ContourConfig",
    "Kind",
    "Method",
    "ProblemSpec",
    "QuantumNumbers",
    "WavefunctionGrid",
    "bound_energy",
    "cross_method_report",
    "sample_wavefunction",
    "spectrum_table",
    # exceptions and warnings
    "DomainError",
    "InvalidQuantumNumbers",
    "MethodRegimeMismatch",
    "NonIntegerOrder",
    "NotBoundProblem",
    "PrecisionLoss",
    "RegimeMismatch",
]
