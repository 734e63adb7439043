"""Catalog of solvable potentials and their reduction to canonical form.

Thirteen problem kinds: eight bound (seven Laguerre-type plus the direct
Hermite route for the 1D oscillator) and five continuum. Internally hbar and
the mass enter only through ProblemSpec.mu; hbar itself is fixed at 1, so
energies come out in the natural units of the chosen parameters.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core_laplace import CanonicalODE, Regime, exponents

HBAR = 1.0  # internal unit choice; all catalog formulas assume it


class RegimeMismatch(ValueError):
    """Energy sign (or equation family) contradicts the requested kind."""


class NotBoundProblem(ValueError):
    """Bound-state operation requested for a continuum kind."""


class InvalidQuantumNumbers(ValueError):
    """Quantum numbers outside the kind's admissible lattice."""


class DomainError(ValueError):
    """Coordinate outside the kind's physical domain."""


class Kind(enum.Enum):
    SHO1D_EVEN = "sho1d_even"
    SHO1D_ODD = "sho1d_odd"
    SHO2D = "sho2d"
    SHO3D = "sho3d"
    COULOMB2D = "coulomb2d"
    COULOMB3D = "coulomb3d"
    MORSE = "morse"
    SHO1D_HERMITE = "sho1d_hermite"
    FREE2D = "free2d"
    FREE3D = "free3d"
    COULOMB2D_CONT = "coulomb2d_cont"
    COULOMB3D_CONT = "coulomb3d_cont"
    MORSE_CONT = "morse_cont"


LAGUERRE_BOUND_KINDS = frozenset(
    {
        Kind.SHO1D_EVEN,
        Kind.SHO1D_ODD,
        Kind.SHO2D,
        Kind.SHO3D,
        Kind.COULOMB2D,
        Kind.COULOMB3D,
        Kind.MORSE,
    }
)
BOUND_KINDS = LAGUERRE_BOUND_KINDS | {Kind.SHO1D_HERMITE}
CONTINUUM_KINDS = frozenset(
    {Kind.FREE2D, Kind.FREE3D, Kind.COULOMB2D_CONT, Kind.COULOMB3D_CONT}
)
RADIAL_KINDS = frozenset(
    {
        Kind.SHO2D,
        Kind.SHO3D,
        Kind.COULOMB2D,
        Kind.COULOMB3D,
        Kind.FREE2D,
        Kind.FREE3D,
        Kind.COULOMB2D_CONT,
        Kind.COULOMB3D_CONT,
    }
)


@dataclass(frozen=True)
class ProblemSpec:
    """A potential kind plus its physical parameters (hbar = 1 units).

    m_quantum is the planar azimuthal number (m = 0 admitted), l_quantum the
    spherical orbital number; each kind reads only the ones it needs.
    """

    kind: Kind
    mu: float = 1.0
    omega: float = 1.0
    a0: float = 1.0
    morse_a: float = 1.0
    morse_v0: float = 1.0
    m_quantum: int = 0
    l_quantum: int = 0

    def __post_init__(self):
        for name in ("mu", "omega", "a0", "morse_a", "morse_v0"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.l_quantum < 0:
            raise InvalidQuantumNumbers("l must be >= 0")


@dataclass(frozen=True)
class QuantumNumbers:
    """Printed label n and residue order N; the kind fixes their relation."""

    n: int
    N: int


def n_start(spec: ProblemSpec) -> int:
    """Smallest admissible printed label n."""
    if spec.kind is Kind.COULOMB2D:
        return abs(spec.m_quantum) + 1
    if spec.kind is Kind.COULOMB3D:
        return spec.l_quantum + 1
    return 0


def _beta(spec: ProblemSpec) -> float:
    if spec.kind in (Kind.SHO1D_EVEN,):
        return 0.5
    if spec.kind is Kind.SHO1D_ODD:
        return 1.5
    if spec.kind in (Kind.SHO2D,):
        return abs(spec.m_quantum) + 1.0
    if spec.kind is Kind.SHO3D:
        return spec.l_quantum + 1.5
    if spec.kind in (Kind.COULOMB2D, Kind.COULOMB2D_CONT, Kind.FREE2D):
        return 2.0 * abs(spec.m_quantum) + 1.0
    if spec.kind in (Kind.COULOMB3D, Kind.COULOMB3D_CONT, Kind.FREE3D):
        return 2.0 * (spec.l_quantum + 1.0)
    raise ValueError(f"no static beta for {spec.kind}")


def morse_delta(spec: ProblemSpec) -> float:
    """sqrt(2 mu V0)/a: the well-depth parameter of the Morse reductions."""
    return math.sqrt(2.0 * spec.mu * spec.morse_v0) / spec.morse_a


def canonicalize(spec: ProblemSpec, energy: float) -> CanonicalODE:
    """The (beta, delta, lambda) triple for this kind at this energy.

    Energy sign is policed: bound Coulomb/Morse need E < 0, the oscillator
    rows accept E >= 0, continuum kinds need E > 0, and E must be finite.
    The Hermite-route kind has no triple (its kernel is quadratic-exponential,
    not of this family) and is rejected here.
    """
    kind = spec.kind
    if not math.isfinite(energy):
        raise RegimeMismatch(f"energy must be finite, got {energy!r}")
    if kind is Kind.SHO1D_HERMITE:
        raise RegimeMismatch(
            "sho1d_hermite solves the derivative-form equation; no (beta, delta, lambda) triple exists"
        )
    if kind in (Kind.SHO1D_EVEN, Kind.SHO1D_ODD, Kind.SHO2D, Kind.SHO3D):
        if energy < 0:
            raise RegimeMismatch("oscillator bound kinds require E >= 0")
        return CanonicalODE(
            beta=complex(_beta(spec)),
            delta=energy / (2.0 * spec.omega),
            lam=0.5 + 0j,
            regime=Regime.BOUND,
        )
    if kind in (Kind.COULOMB2D, Kind.COULOMB3D):
        if energy >= 0:
            raise RegimeMismatch("bound Coulomb kinds require E < 0")
        kappa = math.sqrt(-2.0 * spec.mu * energy)
        return CanonicalODE(
            beta=complex(_beta(spec)),
            delta=2.0 / (spec.a0 * kappa),
            lam=1.0 + 0j,
            regime=Regime.BOUND,
        )
    if kind is Kind.MORSE:
        if energy >= 0:
            raise RegimeMismatch("bound Morse requires E < 0")
        s = math.sqrt(-2.0 * spec.mu * energy) / spec.morse_a
        return CanonicalODE(
            beta=complex(2.0 * s + 1.0),
            delta=morse_delta(spec),
            lam=0.5 + 0j,
            regime=Regime.BOUND,
        )
    if kind in CONTINUUM_KINDS:
        if energy <= 0:
            raise RegimeMismatch("continuum kinds require E > 0")
        if kind in (Kind.FREE2D, Kind.FREE3D):
            delta = 0.0
        else:
            delta = 2.0 / (spec.a0 * math.sqrt(2.0 * spec.mu * energy))
        return CanonicalODE(
            beta=complex(_beta(spec)), delta=delta, lam=1j, regime=Regime.CONTINUUM
        )
    if kind is Kind.MORSE_CONT:
        if energy <= 0:
            raise RegimeMismatch("morse continuum requires E > 0")
        kbar = math.sqrt(2.0 * spec.mu * energy) / spec.morse_a
        return CanonicalODE(
            beta=1.0 + 2j * kbar,
            delta=morse_delta(spec),
            lam=0.5 + 0j,
            regime=Regime.MORSE_CONTINUUM,
        )
    raise ValueError(f"unhandled kind {kind}")


def hermite_exponent(spec: ProblemSpec, energy: float) -> float:
    """alpha = 1/2 - E/(hbar omega) of the derivative-form kernel."""
    if spec.kind is not Kind.SHO1D_HERMITE:
        raise RegimeMismatch("hermite exponent only defined for sho1d_hermite")
    return 0.5 - energy / spec.omega


class CoordinateMap:
    """Monotone physical-coordinate -> xi map plus the ansatz prefactor.

    xi(coord) >= 0 everywhere except the Hermite route (xi real); the Morse
    map is strictly decreasing in x. Prefactors are the non-Phi factor of
    the ansatz with symbolic angular parts (e^{i m phi}, Y_l^m) left out.
    """

    def __init__(self, spec: ProblemSpec, energy: float):
        self.spec = spec
        self.energy = energy
        kind = spec.kind
        if kind in (Kind.SHO1D_EVEN, Kind.SHO1D_ODD, Kind.SHO2D, Kind.SHO3D):
            self._scale = spec.mu * spec.omega
        elif kind in (Kind.COULOMB2D, Kind.COULOMB3D):
            self._scale = math.sqrt(-2.0 * spec.mu * energy)
        elif kind in CONTINUUM_KINDS:
            self._scale = math.sqrt(2.0 * spec.mu * energy)
        elif kind in (Kind.MORSE, Kind.MORSE_CONT):
            self._scale = 2.0 * morse_delta(spec)
        elif kind is Kind.SHO1D_HERMITE:
            self._scale = math.sqrt(spec.mu * spec.omega)
        else:
            raise ValueError(f"unhandled kind {kind}")

    def _check_domain(self, coords: np.ndarray):
        if self.spec.kind in RADIAL_KINDS and np.any(coords < 0):
            raise DomainError("radial coordinate must be >= 0")

    def xi(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        self._check_domain(coords)
        kind = self.spec.kind
        if kind in (Kind.SHO1D_EVEN, Kind.SHO1D_ODD, Kind.SHO2D, Kind.SHO3D):
            return self._scale * coords * coords
        if kind in (Kind.MORSE, Kind.MORSE_CONT):
            return self._scale * np.exp(-self.spec.morse_a * coords)
        return self._scale * coords  # Coulomb/free radial and the Hermite line

    def prefactor(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        self._check_domain(coords)
        spec = self.spec
        kind = spec.kind
        if kind is Kind.SHO1D_EVEN:
            return np.ones_like(coords, dtype=complex)
        if kind is Kind.SHO1D_ODD:
            return coords.astype(complex)
        if kind in (Kind.SHO2D, Kind.COULOMB2D, Kind.COULOMB2D_CONT, Kind.FREE2D):
            return (coords ** abs(spec.m_quantum)).astype(complex)
        if kind in (Kind.SHO3D, Kind.COULOMB3D, Kind.COULOMB3D_CONT, Kind.FREE3D):
            return (coords ** spec.l_quantum).astype(complex)
        if kind is Kind.SHO1D_HERMITE:
            return np.exp(-0.5 * spec.mu * spec.omega * coords * coords).astype(complex)
        xi = self.xi(coords)
        if kind is Kind.MORSE:
            s = math.sqrt(-2.0 * spec.mu * self.energy) / spec.morse_a
            return (xi ** s).astype(complex)
        if kind is Kind.MORSE_CONT:
            kbar = math.sqrt(2.0 * spec.mu * self.energy) / spec.morse_a
            return np.exp(1j * kbar * np.log(xi))
        raise ValueError(f"unhandled kind {kind}")


def coordinate_map(spec: ProblemSpec, energy: float) -> CoordinateMap:
    return CoordinateMap(spec, energy)


def _as_n(spec: ProblemSpec, qn: Union[int, QuantumNumbers]) -> int:
    n = qn.n if isinstance(qn, QuantumNumbers) else int(qn)
    if n < n_start(spec):
        raise InvalidQuantumNumbers(
            f"n={n} below the smallest admissible label {n_start(spec)} for {spec.kind.value}"
        )
    return n


def bound_energy(spec: ProblemSpec, qn: Union[int, QuantumNumbers]) -> float:
    """Closed-form level E_n of the catalog."""
    if spec.kind not in BOUND_KINDS:
        raise NotBoundProblem(f"{spec.kind.value} is not a bound problem")
    n = _as_n(spec, qn)
    kind, w = spec.kind, spec.omega
    if kind is Kind.SHO1D_EVEN:
        return w * (2 * n + 0.5)
    if kind is Kind.SHO1D_ODD:
        return w * (2 * n + 1.5)
    if kind is Kind.SHO2D:
        return w * (2 * n + abs(spec.m_quantum) + 1)
    if kind is Kind.SHO3D:
        return w * (2 * n + spec.l_quantum + 1.5)
    if kind is Kind.SHO1D_HERMITE:
        return w * (n + 0.5)
    if kind is Kind.COULOMB2D:
        return -1.0 / (2.0 * spec.mu * spec.a0**2 * (n - 0.5) ** 2)
    if kind is Kind.COULOMB3D:
        return -1.0 / (2.0 * spec.mu * spec.a0**2 * n**2)
    # Morse: finitely many levels, n strictly below the depth parameter
    delta = morse_delta(spec)
    if n >= delta:
        raise InvalidQuantumNumbers(
            f"Morse well with delta={delta:.6g} holds no level n={n}"
        )
    return -(spec.morse_a**2 / (2.0 * spec.mu)) * (n - delta) ** 2


def residue_lattice_energy(spec: ProblemSpec, N: int) -> float:
    """Energy at which the residue order -alpha_minus equals the integer N.

    Identical to bound_energy(n_start + N) for every kind except the Morse
    well, whose catalog energies sit half a step off this lattice; there the
    residue route needs E = -(a^2/2mu)(delta - N - 1/2)^2.
    """
    if spec.kind not in BOUND_KINDS:
        raise NotBoundProblem(f"{spec.kind.value} is not a bound problem")
    if N < 0:
        raise InvalidQuantumNumbers("N must be >= 0")
    if spec.kind is not Kind.MORSE:
        return bound_energy(spec, n_start(spec) + N)
    s = morse_delta(spec) - N - 0.5
    if s <= 0:
        raise InvalidQuantumNumbers(
            f"Morse residue lattice exhausted: delta - N - 1/2 = {s:.6g} <= 0"
        )
    return -(spec.morse_a**2 / (2.0 * spec.mu)) * s * s


_QUANT_TOL = 1e-9


def quantization_check(spec: ProblemSpec, energy: float) -> Optional[QuantumNumbers]:
    """Quantum numbers of E when it sits on the kind's quantization lattice.

    The generic condition is -alpha_minus equal to a nonnegative integer N.
    The Morse catalog's closed-form levels correspond to -alpha_minus =
    n - 1/2, so for that kind the half step is absorbed before rounding,
    making the check the exact inverse of bound_energy. Returns None when
    E is off the lattice.
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
    if spec.kind is Kind.MORSE:
        raw += 0.5
        n = round(raw)
        if abs(raw - n) > _QUANT_TOL * max(1.0, abs(raw)) or n < 0 or n >= morse_delta(spec):
            return None
        return QuantumNumbers(n=n, N=n)
    N = round(raw)
    if abs(raw - N) > _QUANT_TOL * max(1.0, abs(raw)) or N < 0:
        return None
    return QuantumNumbers(n=N + n_start(spec), N=N)


def assemble_wavefunction(spec: ProblemSpec, qn_or_energy, coordinates):
    """Full (unnormalized) wavefunction psi = prefactor * Phi on a grid.

    Bound kinds take quantum numbers, continuum kinds a positive energy.
    Evaluation is delegated to the reference contour route of the regime:
    residues for bound states, the real-segment integral for the continuum,
    and the ray representation for the Morse continuum.
    """
    from . import contour_eval  # late import; contour_eval depends on this module

    method = contour_eval.ROUTES[spec.kind][0]
    return contour_eval.sample_wavefunction(spec, qn_or_energy, coordinates, method)
