"""Catalog of solvable potentials and their reduction to canonical form.

Thirteen problem kinds: eight bound (seven Laguerre-type plus the direct
Hermite route for the 1D oscillator) and five continuum, each a row of
_KINDS (family, dimension, angular number); each family a row of _FAMILIES
(the fields it reads, the energies it admits). Internally hbar and the mass
enter only through ProblemSpec.mu; hbar itself is fixed at 1, so energies
come out in the natural units of the chosen parameters.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .core_laplace import CanonicalODE, Regime


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


class _Family(NamedTuple):
    fields: frozenset  # the ProblemSpec fields read, besides the angular number
    energies: str  # the energies admitted: "E >= 0", "E < 0" or "E > 0"


_FAMILIES = {
    "oscillator": _Family(frozenset({"mu", "omega"}), "E >= 0"),
    "hermite": _Family(frozenset({"mu", "omega"}), "E >= 0"),
    "coulomb": _Family(frozenset({"mu", "a0"}), "E < 0"),
    "morse": _Family(frozenset({"mu", "morse_a", "morse_v0"}), "E < 0"),
    "free": _Family(frozenset({"mu"}), "E > 0"),
    "coulomb_cont": _Family(frozenset({"mu", "a0"}), "E > 0"),
    "morse_cont": _Family(frozenset({"mu", "morse_a", "morse_v0"}), "E > 0"),
}

_ADMITS = {
    "E >= 0": lambda e: 0.0 <= e < math.inf,
    "E < 0": lambda e: -math.inf < e < 0.0,
    "E > 0": lambda e: 0.0 < e < math.inf,
}


class _Row(NamedTuple):
    family: str
    d: int  # the dimension; 2 and 3 are radial
    ell: Union[int, str, None]  # the 1D parity, or the field holding m or l


_KINDS = {
    Kind.SHO1D_EVEN: _Row("oscillator", 1, 0),
    Kind.SHO1D_ODD: _Row("oscillator", 1, 1),
    Kind.SHO2D: _Row("oscillator", 2, "m_quantum"),
    Kind.SHO3D: _Row("oscillator", 3, "l_quantum"),
    Kind.COULOMB2D: _Row("coulomb", 2, "m_quantum"),
    Kind.COULOMB3D: _Row("coulomb", 3, "l_quantum"),
    Kind.MORSE: _Row("morse", 1, None),
    Kind.SHO1D_HERMITE: _Row("hermite", 1, None),
    Kind.FREE2D: _Row("free", 2, "m_quantum"),
    Kind.FREE3D: _Row("free", 3, "l_quantum"),
    Kind.COULOMB2D_CONT: _Row("coulomb_cont", 2, "m_quantum"),
    Kind.COULOMB3D_CONT: _Row("coulomb_cont", 3, "l_quantum"),
    Kind.MORSE_CONT: _Row("morse_cont", 1, None),
}

# bound: a family that admits a nonpositive energy; the radial continua are
# the kinds the three continuum routes check against one another
BOUND_KINDS = frozenset(
    k for k, row in _KINDS.items() if _FAMILIES[row.family].energies != "E > 0"
)
LAGUERRE_BOUND_KINDS = BOUND_KINDS - {Kind.SHO1D_HERMITE}
RADIAL_KINDS = frozenset(k for k, row in _KINDS.items() if row.d > 1)
CONTINUUM_KINDS = RADIAL_KINDS - BOUND_KINDS

# The ProblemSpec fields each kind reads: canonicalize, coordinate_map and
# bound_energy are unchanged by every other field.
SPEC_FIELDS = {
    k: _FAMILIES[row.family].fields | ({row.ell} if isinstance(row.ell, str) else set())
    for k, row in _KINDS.items()
}


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
        for name in ("m_quantum", "l_quantum"):
            if not float(getattr(self, name)).is_integer():
                raise InvalidQuantumNumbers(f"{name} must be an integer, got {getattr(self, name)}")
        if self.l_quantum < 0:
            raise InvalidQuantumNumbers("l must be >= 0")


@dataclass(frozen=True)
class QuantumNumbers:
    """Printed label n and residue order N; the kind fixes their relation."""

    n: int
    N: int


def _ell(spec: ProblemSpec) -> Optional[int]:
    """The angular number: the 1D parity, |m| or l; None for Morse and Hermite."""
    ell = _KINDS[spec.kind].ell
    return abs(getattr(spec, ell)) if isinstance(ell, str) else ell


def n_start(spec: ProblemSpec) -> int:
    """Smallest admissible printed label n."""
    return _ell(spec) + 1 if _KINDS[spec.kind].family == "coulomb" else 0


def _beta(spec: ProblemSpec) -> float:
    """d/2 + l for the oscillators, 2l + d - 1 for the Coulomb and free kinds."""
    family, d, _ = _KINDS[spec.kind]
    if family == "oscillator":
        return d / 2 + _ell(spec)
    return 2.0 * _ell(spec) + (d - 1)


def _check_energy(spec: ProblemSpec, energy: float) -> None:
    admitted = _FAMILIES[_KINDS[spec.kind].family].energies
    if not _ADMITS[admitted](energy):
        raise RegimeMismatch(f"{spec.kind.value} needs finite {admitted}, got E = {energy}")


def _wavenumber(spec: ProblemSpec, energy: float) -> float:
    """sqrt(2 mu |E|): kappa of a bound level, k of a continuum state."""
    return math.sqrt(2.0 * spec.mu * abs(energy))


def morse_delta(spec: ProblemSpec) -> float:
    """sqrt(2 mu V0)/a: the well-depth parameter of the Morse reductions."""
    return math.sqrt(2.0 * spec.mu * spec.morse_v0) / spec.morse_a


def canonicalize(spec: ProblemSpec, energy: float) -> CanonicalODE:
    """The (beta, delta, lambda) triple for this kind at this energy.

    The energy must be finite and of the family's sign: bound Coulomb/Morse
    need E < 0, the oscillator rows accept E >= 0, continuum kinds need E > 0.
    The Hermite-route kind has no triple (its kernel is quadratic-exponential,
    not of this family) and is rejected here.
    """
    _check_energy(spec, energy)
    family = _KINDS[spec.kind].family
    if family == "hermite":
        raise RegimeMismatch(
            "sho1d_hermite solves the derivative-form equation; no (beta, delta, lambda) triple exists"
        )
    if family == "oscillator":
        return CanonicalODE(
            beta=complex(_beta(spec)),
            delta=energy / (2.0 * spec.omega),
            lam=0.5 + 0j,
            regime=Regime.BOUND,
        )
    k = _wavenumber(spec, energy)
    if family in ("morse", "morse_cont"):
        s = k / spec.morse_a  # kbar on the continuum
        return CanonicalODE(
            beta=complex(2.0 * s + 1.0) if family == "morse" else 1.0 + 2j * s,
            delta=morse_delta(spec),
            lam=0.5 + 0j,
            regime=Regime.BOUND if family == "morse" else Regime.MORSE_CONTINUUM,
        )
    bound = family == "coulomb"
    return CanonicalODE(
        beta=complex(_beta(spec)),
        delta=0.0 if family == "free" else 2.0 / (spec.a0 * k),
        lam=1.0 + 0j if bound else 1j,
        regime=Regime.BOUND if bound else Regime.CONTINUUM,
    )


class CoordinateMap:
    """Monotone physical-coordinate -> xi map plus the ansatz prefactor.

    xi(coord) >= 0 everywhere except the Hermite route (xi real); the Morse
    map is strictly decreasing in x. Prefactors are the non-Phi factor of
    the ansatz with symbolic angular parts (e^{i m phi}, Y_l^m) left out.
    """

    def __init__(self, spec: ProblemSpec, energy: float):
        _check_energy(spec, energy)
        self.spec = spec
        self.energy = energy
        self._family = family = _KINDS[spec.kind].family
        if family == "oscillator":
            self._scale = spec.mu * spec.omega
        elif family == "hermite":
            self._scale = math.sqrt(spec.mu * spec.omega)
        elif family in ("morse", "morse_cont"):
            self._scale = 2.0 * morse_delta(spec)
        else:
            self._scale = _wavenumber(spec, energy)

    def _check_domain(self, coords: np.ndarray):
        if self.spec.kind in RADIAL_KINDS and np.any(coords < 0):
            raise DomainError("radial coordinate must be nonnegative")

    def xi(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        self._check_domain(coords)
        if self._family == "oscillator":
            return self._scale * coords * coords
        if self._family in ("morse", "morse_cont"):
            return self._scale * np.exp(-self.spec.morse_a * coords)
        return self._scale * coords  # Coulomb/free radial and the Hermite line

    def prefactor(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        self._check_domain(coords)
        spec = self.spec
        if self._family == "hermite":
            return np.exp(-0.5 * spec.mu * spec.omega * coords * coords).astype(complex)
        if self._family == "morse":
            s = _wavenumber(spec, self.energy) / spec.morse_a
            return (self.xi(coords) ** s).astype(complex)
        if self._family == "morse_cont":
            kbar = _wavenumber(spec, self.energy) / spec.morse_a
            return np.exp(1j * kbar * np.log(self.xi(coords)))
        return (coords ** _ell(spec)).astype(complex)  # r^l, the 1D parity as l


def coordinate_map(spec: ProblemSpec, energy: float) -> CoordinateMap:
    return CoordinateMap(spec, energy)


def bound_energy(spec: ProblemSpec, qn: Union[int, QuantumNumbers]) -> float:
    """Closed-form level E_n of the catalog."""
    if spec.kind not in BOUND_KINDS:
        raise NotBoundProblem(f"{spec.kind.value} is not a bound problem")
    n = qn.n if isinstance(qn, QuantumNumbers) else int(qn)
    if n < n_start(spec):
        raise InvalidQuantumNumbers(
            f"n={n} below the smallest admissible label {n_start(spec)} for {spec.kind.value}"
        )
    family, d, _ = _KINDS[spec.kind]
    if family == "oscillator":
        return spec.omega * (2 * n + _beta(spec))
    if family == "hermite":
        return spec.omega * (n + 0.5)
    if family == "coulomb":
        return -1.0 / (2.0 * spec.mu * spec.a0**2 * (n + (d - 3) / 2) ** 2)
    # Morse: the residue lattice -alpha_minus = n, which holds the finitely
    # many levels with s = delta - n - 1/2 > 0
    delta = morse_delta(spec)
    s = delta - n - 0.5
    if s <= 0:
        raise InvalidQuantumNumbers(
            f"Morse well with delta={delta:.6g} holds no level n={n}"
        )
    return -(spec.morse_a**2 / (2.0 * spec.mu)) * s * s


def residue_lattice_energy(spec: ProblemSpec, N: int) -> float:
    """Energy at which the residue order -alpha_minus equals the integer N."""
    if N < 0:
        raise InvalidQuantumNumbers("N must be >= 0")
    return bound_energy(spec, n_start(spec) + N)
