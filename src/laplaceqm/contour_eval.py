"""Contour evaluation of the canonical-form solutions.

Bound states come from an N-th derivative residue at z = -lambda (closed
form, no quadrature). Continuum states are computed three independent ways
so they can police each other: a real segment integral, a radius-R circle
with explicitly tracked branch phases, and a power series; the Morse
continuum uses a ray off the left branch point instead.
"""

from __future__ import annotations

import cmath
import enum
import math
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import potential_catalog as catalog
from .core_laplace import (
    CanonicalODE,
    Exponents,
    PhaseConvention,
    Regime,
    default_phase_convention,
    degenerate_free,
    exponents,
    log_integrand,
)
from .special_fn import (
    _adaptive_gauss,
    gamma_complex,
    hermite,
    kummer_m,
    tricomi_u,
)


class NonIntegerOrder(ValueError):
    """Residue route invoked where -alpha_minus is not a nonnegative integer."""


class MethodRegimeMismatch(ValueError):
    """Evaluation method incompatible with the problem's regime."""


class PrecisionLoss(RuntimeWarning):
    """Result returned, but cancellation has likely eaten the tolerance."""


class Method(enum.Enum):
    RESIDUE = "residue"
    REAL_INTEGRAL = "real_integral"
    CIRCLE = "circle"
    SERIES = "series"
    MORSE_RAY = "morse_ray"


# kind -> admissible routes, the default (reference) route first
ROUTES: Dict[catalog.Kind, Tuple[Method, ...]] = {
    **dict.fromkeys(catalog.BOUND_KINDS, (Method.RESIDUE,)),
    **dict.fromkeys(
        catalog.CONTINUUM_KINDS, (Method.REAL_INTEGRAL, Method.CIRCLE, Method.SERIES)
    ),
    catalog.Kind.MORSE_CONT: (Method.MORSE_RAY,),
}


@dataclass(frozen=True)
class ContourConfig:
    """Radius and step count of the circle route."""

    radius_R: float = 1.1
    steps: int = 100_000

    def __post_init__(self):
        if not 1.0 < self.radius_R < math.inf:
            raise ValueError(
                "circle radius must be finite and exceed 1 (outside both branch points)"
            )
        if self.steps < 1000:
            raise ValueError("circle rule needs at least 1000 steps")


@dataclass(frozen=True, eq=False)
class WavefunctionGrid:
    """Coordinate-sorted samples of one state: coordinate, xi, Phi and psi."""

    coordinates: np.ndarray
    xi: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    method: Method
    problem: catalog.ProblemSpec
    energy: float


# ---------------------------------------------------------------------------
# Bound routes

def _falling(a: complex, j: int) -> complex:
    out = 1.0 + 0j
    for i in range(j):
        out *= a - i
    return out


def bound_phi_residue(ode: CanonicalODE, N: int, xi):
    """Phi from the order-N residue at z = -lambda.

    Equals (2 pi i / N!) d^N/dz^N [e^{xi z} (z-lambda)^(alpha_plus - 1)] at
    z = -lambda, expanded by Leibniz.  (-2 lambda)^w is taken as
    (2 lambda)^w e^{i pi w}, the counterclockwise principal phase.
    """
    exps = exponents(ode)
    target = -exps.alpha_minus
    if N < 0 or abs(target - N) > 1e-9 * max(1.0, abs(N)):
        raise NonIntegerOrder(
            f"-alpha_minus = {target:.6g} is not the nonnegative integer {N}"
        )
    lam = ode.lam.real
    a = exps.alpha_plus - 1.0
    coeffs = []
    for k in range(N + 1):
        w = a - (N - k)
        coeffs.append(
            math.comb(N, k)
            * _falling(a, N - k)
            * cmath.exp(w * math.log(2.0 * lam) + 1j * math.pi * w)
            / math.factorial(N)
        )
    xs = np.asarray(xi, dtype=float)
    acc = np.zeros_like(xs, dtype=complex) + coeffs[N]
    for k in range(N - 1, -1, -1):
        acc = acc * xs + coeffs[k]
    out = 2j * math.pi * np.exp(-lam * xs) * acc
    return out if np.ndim(xi) else complex(out)


def hermite_phi_residue(n: int, xi):
    """Phi of the derivative-form oscillator route: exactly H_n(xi)."""
    return hermite(n, xi)


# ---------------------------------------------------------------------------
# Continuum: real segment integral

def _bracket_coefficient(ode: CanonicalODE, exps: Exponents) -> complex:
    """Edge-combination factor i(e^{-pi delta/2} -+ e^{pi delta/2}).

    Minus sign when Re(alpha_plus) is an integer, plus when half-odd. In the
    degenerate free case the bracket vanishes identically: the two edges
    cancel, so the open segment between the branch points is used instead
    with unit coefficient.
    """
    if degenerate_free(ode, exps):
        return 1j
    re_ap = exps.alpha_plus.real
    if abs(re_ap - round(re_ap)) < 1e-9:
        sign = -1.0
    elif abs(2.0 * re_ap - round(2.0 * re_ap)) < 1e-9:
        sign = 1.0
    else:
        raise MethodRegimeMismatch(
            f"edge combination undefined for Re(alpha_plus) = {re_ap:.6g}"
        )
    half = 0.5 * math.pi * ode.delta
    return 1j * (math.exp(-half) + sign * math.exp(half))


def continuum_phi_real_integral(
    ode: CanonicalODE, exps: Exponents, xi: float, tol: float = 1e-11
) -> complex:
    """Phi from the segment integral along the branch cut.

    Phi(xi) = C * 2^(beta-1) * e^{-i xi} * int_0^1 e^{2 i xi x}
    (1-x)^(alpha_plus - 1) x^(alpha_minus - 1) dx, with C the edge factor.
    Endpoint singularities are flattened by power substitutions before the
    adaptive Gauss rule sees them.
    """
    if ode.regime is not Regime.CONTINUUM:
        raise MethodRegimeMismatch("segment integral applies to the continuum regime")
    ap, am = exps.alpha_plus, exps.alpha_minus
    beta = ap + am
    xi = float(xi)

    def half_integral(a_near: complex, a_far: complex, phase_sign: float) -> complex:
        # int over the half of [0,1] nearest the x^(a_near-1) endpoint,
        # substituted x = (1/2) u^p so the u-exponent has real part >= 1
        p = max(1.0, 1.0 / a_near.real)

        def f(u):
            x = 0.5 * u**p
            logv = (
                2j * xi * (x if phase_sign > 0 else 1.0 - x)
                + (a_far - 1.0) * np.log1p(-x)
                + (p * a_near - 1.0) * np.log(u)
                - (a_near - 1.0) * math.log(2.0)
            )
            return (p / 2.0) * np.exp(logv)

        return _adaptive_gauss(f, 0.0, 1.0, tol)

    near_zero = half_integral(am, ap, +1.0)
    near_one = half_integral(ap, am, -1.0)
    integral = near_zero + near_one
    pref = _bracket_coefficient(ode, exps) * cmath.exp((beta - 1.0) * math.log(2.0))
    return pref * cmath.exp(-1j * xi) * integral


# ---------------------------------------------------------------------------
# Continuum: circle with tracked phases

def phase_phi1(theta, radius):
    """Winding angle of the arrow from -i to the circle point z(theta).

    z(theta) = R e^{i(theta + pi/2)}; the angle starts at 0 on the cut's
    right edge and grows monotonically to 2 pi, assembled from the arcsine
    principal value corrected to the scheduled quadrant.
    """
    r = float(radius)
    th = np.asarray(theta, dtype=float)
    sin_val = r * np.sin(th) / np.sqrt(r * r + 1.0 + 2.0 * r * np.cos(th))
    sigma = np.arcsin(np.clip(sin_val, -1.0, 1.0))
    lo = math.acos(-1.0 / r)
    hi = math.pi + math.acos(1.0 / r)
    out = np.where(th < lo, sigma, np.where(th < hi, math.pi - sigma, 2.0 * math.pi + sigma))
    return out if np.ndim(theta) else float(out)


def phase_phi2(theta, radius):
    """Winding angle of the arrow from +i; starts at pi (already flipped)."""
    r = float(radius)
    th = np.asarray(theta, dtype=float)
    sin_val = -r * np.sin(th) / np.sqrt(r * r + 1.0 - 2.0 * r * np.cos(th))
    sigma = np.arcsin(np.clip(sin_val, -1.0, 1.0))
    lo = math.acos(1.0 / r)
    hi = math.pi + math.acos(-1.0 / r)
    out = np.where(
        th < lo,
        math.pi - sigma,
        np.where(th < hi, 2.0 * math.pi + sigma, 3.0 * math.pi - sigma),
    )
    return out if np.ndim(theta) else float(out)


_PRECISION_EXPONENT_LIMIT = 700.0


def continuum_phi_circle(
    ode: CanonicalODE,
    exps: Exponents,
    convention: PhaseConvention,
    xi: float,
    config: Optional[ContourConfig] = None,
) -> complex:
    """Phi from the uniform-step rule on the circle |z| = R.

    The integrand is smooth and periodic, so the plain trapezoid converges
    spectrally; accuracy is instead lost to cancellation once R*xi grows,
    which is flagged (not fatal) above R*xi = 700. In the degenerate free
    case the closed loop encloses nothing and vanishes identically, so the
    rule integrates straight across the branch-point segment instead; that
    value is what the closed contour degenerates to and is independent of R.
    """
    if ode.regime is not Regime.CONTINUUM:
        raise MethodRegimeMismatch("circle rule applies to the continuum regime")
    cfg = config or ContourConfig()
    r, n = cfg.radius_R, cfg.steps
    xi = float(xi)
    if r * xi > _PRECISION_EXPONENT_LIMIT:
        warnings.warn(
            f"R*xi = {r * xi:.3g} exceeds the overflow/cancellation budget",
            PrecisionLoss,
            stacklevel=2,
        )
    if degenerate_free(ode, exps):
        # here alpha_+- are the same integer, so the moduli combine exactly
        power = int(round(exps.alpha_plus.real)) - 1
        y, h = np.linspace(-1.0, 1.0, n + 1, retstep=True)
        vals = np.exp(1j * xi * y) * (1.0 - y * y) ** power
        weights = np.full(n + 1, h, dtype=float)
        weights[0] = weights[-1] = 0.5 * h
        return 1j * complex(np.sum(weights * vals))
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    z = r * np.exp(1j * (theta + 0.5 * math.pi))
    logf = log_integrand(ode, exps, xi, z, (phase_phi1(theta, r), phase_phi2(theta, r)))
    with np.errstate(over="ignore", invalid="ignore"):
        summand = 1j * z * np.exp(logf)
        total = np.sum(summand) * (2.0 * math.pi / n)
    return complex(total * convention.reference_point_phase)


# ---------------------------------------------------------------------------
# Continuum: series route

_SERIES_PRECISION_XI = 20.0


def continuum_phi_series(
    ode: CanonicalODE, exps: Exponents, xi: float, tol: float = 1e-15
) -> complex:
    """Phi as -2 pi i times the residue at infinity of the cut integrand.

    The Laurent tail sums to a Kummer function, leaving
    -2 pi i e^{-pi delta/2} (e^{2 pi i alpha_plus} - 1)/(4 pi) 2^beta
    * Gamma(alpha_plus)Gamma(alpha_minus)/Gamma(beta) e^{-i xi}
    * M(alpha_minus, beta, 2 i xi), identical to the segment result. The
    monodromy factor vanishes in the degenerate free case, where the same
    unit-coefficient segment convention as the other routes applies.
    """
    if ode.regime is not Regime.CONTINUUM:
        raise MethodRegimeMismatch("series route applies to the continuum regime")
    ap, am = exps.alpha_plus, exps.alpha_minus
    beta = ap + am
    xi = float(xi)
    if xi > _SERIES_PRECISION_XI:
        warnings.warn(
            f"series cancellation beyond xi = {_SERIES_PRECISION_XI:g} "
            "typically exceeds a relative 1e-3",
            PrecisionLoss,
            stacklevel=2,
        )
    if degenerate_free(ode, exps):
        pref = 1j * cmath.exp((beta - 1.0) * math.log(2.0))
    else:
        pref = (
            -2j
            * math.pi
            * math.exp(-0.5 * math.pi * ode.delta)
            * (cmath.exp(2j * math.pi * ap) - 1.0)
            / (4.0 * math.pi)
            * cmath.exp(beta * math.log(2.0))
        )
    ratio = gamma_complex(ap) * gamma_complex(am) / gamma_complex(beta)
    return pref * ratio * cmath.exp(-1j * xi) * kummer_m(am, beta, 2j * xi, tol)


# ---------------------------------------------------------------------------
# Morse continuum: ray route

def morse_continuum_phi(
    ode: CanonicalODE, exps: Exponents, xi: float, tol: float = 1e-10
) -> complex:
    """Phi from the ray z = -lambda - t, t in (0, inf).

    Collapses to (-1)^(beta-1) Gamma(alpha_minus) e^{-xi/2}
    U(alpha_minus, beta, xi) with (-1)^(beta-1) = e^{i pi (beta-1)}.
    Re(alpha_minus) may be nonpositive; the U evaluator continues its
    integral analytically rather than falling back to the cancellation-prone
    two-term expansion.
    """
    if ode.regime is not Regime.MORSE_CONTINUUM:
        raise MethodRegimeMismatch("ray route applies to the Morse continuum")
    xi = float(xi)
    if xi <= 0:
        raise ValueError("Morse xi must be positive")
    pref = cmath.exp(1j * math.pi * (ode.beta - 1.0)) * gamma_complex(exps.alpha_minus)
    return pref * math.exp(-0.5 * xi) * tricomi_u(exps.alpha_minus, ode.beta, xi, tol)


# ---------------------------------------------------------------------------
# Grid sampling

def _check_method(spec: catalog.ProblemSpec, method: Method):
    if method not in ROUTES[spec.kind]:
        raise MethodRegimeMismatch(f"method {method.value} not valid for {spec.kind.value}")


def _point_route(ode: CanonicalODE, exps: Exponents, method: Method,
                 config: Optional[ContourConfig], tol: Optional[float]):
    """The quadrature or series route as a function of one xi."""
    if method is Method.CIRCLE:
        conv = default_phase_convention(ode)
        return lambda x: continuum_phi_circle(ode, exps, conv, x, config)
    route = {
        Method.REAL_INTEGRAL: continuum_phi_real_integral,
        Method.SERIES: continuum_phi_series,
        Method.MORSE_RAY: morse_continuum_phi,
    }[method]
    kw = {} if tol is None else {"tol": tol}
    return lambda x: route(ode, exps, x, **kw)


def phi_values(
    spec: catalog.ProblemSpec,
    energy: float,
    xi_values,
    method: Method,
    config: Optional[ContourConfig] = None,
    tol: Optional[float] = None,
) -> np.ndarray:
    """Phi(xi) on an array of xi values by the chosen method.

    The one loop over grid points. The residue routes are closed forms
    evaluated on the whole array; every other route is called once per xi,
    in order. Evaluation stops at the first point that fails, and a
    non-finite value is a failure (FloatingPointError naming the route and
    xi). That point's exception propagates with its index in ``.point``.
    """
    _check_method(spec, method)
    xs = np.asarray(xi_values, dtype=float)
    route = None
    if spec.kind is catalog.Kind.SHO1D_HERMITE:
        n = round(energy / spec.omega - 0.5)
        values = np.asarray(hermite_phi_residue(n, xs), dtype=complex)
    else:
        ode = catalog.canonicalize(spec, energy)
        exps = exponents(ode)
        if method is Method.RESIDUE:
            N = round(-exps.alpha_minus.real)
            values = np.asarray(bound_phi_residue(ode, N, xs), dtype=complex)
        else:
            route = _point_route(ode, exps, method, config, tol)
            values = np.empty(xs.shape, dtype=complex)
    for i, x in enumerate(xs):
        try:
            if route is not None:
                values[i] = route(x)
            if not cmath.isfinite(values[i]):
                raise FloatingPointError(
                    f"{method.value} route gave {values[i]} at xi = {x:.6g}"
                )
        except Exception as exc:
            exc.point = i
            raise
    return values


def sample_wavefunction(
    spec: catalog.ProblemSpec,
    qn_or_energy,
    coordinates,
    method: Method,
    config: Optional[ContourConfig] = None,
) -> WavefunctionGrid:
    """psi = prefactor * Phi over a coordinate grid, entries coordinate-sorted.

    Bound kinds take quantum numbers and evaluate at the residue-lattice
    energy (the catalog energy for every kind but the Morse well, whose
    closed-form levels sit half a step off the residue condition); continuum
    kinds take E > 0 directly.
    """
    _check_method(spec, method)
    if spec.kind in catalog.BOUND_KINDS:
        n = catalog._as_n(spec, qn_or_energy)
        energy = catalog.residue_lattice_energy(spec, n - catalog.n_start(spec))
    else:
        energy = float(qn_or_energy)
    coords = np.sort(np.asarray(coordinates, dtype=float))
    cmap = catalog.coordinate_map(spec, energy)
    xi = cmap.xi(coords)
    phi = phi_values(spec, energy, xi, method, config)
    psi = cmap.prefactor(coords) * phi
    return WavefunctionGrid(coords, xi, phi, psi, method=method, problem=spec, energy=energy)
