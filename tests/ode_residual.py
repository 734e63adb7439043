"""Finite-difference residuals of the canonical ODE, an oracle for every route.

The routes evaluate Phi by residues, quadrature, series or Tricomi U and
never differentiate it; these sweeps check the sampled values against the
equation they must solve, by centered differences.
"""

from typing import Sequence

import numpy as np

from laplaceqm.contour_eval import Method, phi_values
from laplaceqm.core_laplace import CanonicalODE
from laplaceqm.potential_catalog import (
    BOUND_KINDS,
    Kind,
    ProblemSpec,
    QuantumNumbers,
    canonicalize,
    n_start,
    residue_lattice_energy,
)


def _residual_from_samples(
    phi_minus: np.ndarray,
    phi_center: np.ndarray,
    phi_plus: np.ndarray,
    a,
    b,
    c,
    h: float,
) -> float:
    """Max relative defect of a*Phi'' + b*Phi' + c*Phi (scalar or per-point a, b, c).

    Derivatives are centered differences at spacing h; the defect at each
    point is scaled by max(|Phi|, |Phi'|, |Phi''|) there.  An identically
    zero sample set has zero defect by convention.
    """
    d1 = (phi_plus - phi_minus) / (2.0 * h)
    d2 = (phi_plus - 2.0 * phi_center + phi_minus) / (h * h)
    resid = a * d2 + b * d1 + c * phi_center
    scale = np.maximum(
        np.abs(phi_center), np.maximum(np.abs(d1), np.abs(d2))
    )
    scale = np.where(scale > 0.0, scale, 1.0)
    return float(np.max(np.abs(resid) / scale))


def ode_residual_sweep(
    spec: ProblemSpec,
    energy_or_qn,
    method: Method,
    grid: Sequence[float],
    h: float = 1e-4,
) -> float:
    """Check sampled Phi against its defining equation by finite differences.

    energy_or_qn is a float energy, or for bound kinds an int n or a
    QuantumNumbers pair (resolved on the residue lattice).  Returns the max
    pointwise relative residual over the grid.  h trades finite-difference
    truncation against amplified evaluation noise (4/h^2), so quadrature
    routes want a larger h than the closed-form ones.
    """
    if isinstance(energy_or_qn, QuantumNumbers):
        energy = residue_lattice_energy(spec, energy_or_qn.n - n_start(spec))
    elif isinstance(energy_or_qn, (int, np.integer)) and spec.kind in BOUND_KINDS:
        energy = residue_lattice_energy(spec, int(energy_or_qn) - n_start(spec))
    else:
        energy = float(energy_or_qn)

    xi = np.asarray(list(grid), dtype=float)
    stacked = np.concatenate([xi - h, xi, xi + h])
    phi = phi_values(spec, energy, stacked, method)
    m = len(xi)
    phi_minus, phi_center, phi_plus = phi[:m], phi[m : 2 * m], phi[2 * m :]

    if spec.kind is Kind.SHO1D_HERMITE:
        # Phi'' - 2 xi Phi' + (2E/omega - 1) Phi = 0 for the direct Hermite route
        coeffs = (1.0, -2.0 * xi, 2.0 * (energy / spec.omega) - 1.0)
    else:
        ode: CanonicalODE = canonicalize(spec, energy)
        coeffs = (xi, ode.beta, ode.delta - ode.lam * ode.lam * xi)
    return _residual_from_samples(phi_minus, phi_center, phi_plus, *coeffs, h)
