"""The quantization condition, inverted: an oracle for the catalog's bound energies.

bound_energy writes each kind's levels in closed form; quantization_check
reads the quantum numbers back from the canonical exponents alone, where
-alpha_minus must land on a nonnegative integer.
"""

from typing import Optional

from laplaceqm.core_laplace import exponents
from laplaceqm.potential_catalog import (
    BOUND_KINDS,
    Kind,
    NotBoundProblem,
    ProblemSpec,
    QuantumNumbers,
    canonicalize,
    n_start,
)

_QUANT_TOL = 1e-9


def quantization_check(spec: ProblemSpec, energy: float) -> Optional[QuantumNumbers]:
    """Quantum numbers of E when it sits on the kind's quantization lattice.

    The condition is -alpha_minus equal to a nonnegative integer N (for the
    Hermite route, E/omega - 1/2 = N). Returns None when E is off the
    lattice.
    """
    if spec.kind not in BOUND_KINDS:
        raise NotBoundProblem(f"{spec.kind.value} is not a bound problem")
    if spec.kind is Kind.SHO1D_HERMITE:
        raw = energy / spec.omega - 0.5
        n = round(raw)
        if abs(raw - n) > _QUANT_TOL * max(1.0, abs(raw)) or n < 0:
            return None
        return QuantumNumbers(n=n, N=n)
    exps = exponents(canonicalize(spec, energy))
    raw = -exps.alpha_minus.real
    N = round(raw)
    if abs(raw - N) > _QUANT_TOL * max(1.0, abs(raw)) or N < 0:
        return None
    return QuantumNumbers(n=N + n_start(spec), N=N)
