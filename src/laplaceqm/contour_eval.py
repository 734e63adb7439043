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
import functools
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
    log_terms,
)
from .special_fn import (
    _GL_NODES,
    _GL_WEIGHTS,
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
    """Radius and finest step count of the circle route.

    steps is the finest rule: the circle halves it down to the coarsest
    integer level >= 1000 and stops at the first level that agrees with the
    one below it, and the degenerate free segment uses at most steps
    Gauss-Legendre nodes.
    """

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

def _integer_re_alpha_plus(exps: Exponents) -> bool:
    """True for an integer Re(alpha_plus), False for a half-odd one.

    These are the two cases where e^{2 pi i Re(alpha_plus)} = +-1 exactly,
    which the edge factor and the monodromy use in closed form; any other
    Re(alpha_plus) raises.
    """
    re_ap = exps.alpha_plus.real
    if abs(re_ap - round(re_ap)) < 1e-9:
        return True
    if abs(2.0 * re_ap - round(2.0 * re_ap)) < 1e-9:
        return False
    raise MethodRegimeMismatch(
        f"edge combination undefined for Re(alpha_plus) = {re_ap:.6g}"
    )


def _bracket_coefficient(ode: CanonicalODE, exps: Exponents) -> complex:
    """Edge-combination factor i(e^{-pi delta/2} -+ e^{pi delta/2}).

    Minus sign when Re(alpha_plus) is an integer, plus when half-odd, taken
    as -2i sinh(pi delta/2) and 2i cosh(pi delta/2) so a tiny delta keeps
    its digits. In the degenerate free case the bracket vanishes
    identically: the two edges cancel, so the open segment between the
    branch points is used instead with unit coefficient.
    """
    if degenerate_free(ode, exps):
        return 1j
    half = 0.5 * math.pi * ode.delta
    if _integer_re_alpha_plus(exps):
        return -2j * math.sinh(half)
    return 2j * math.cosh(half)


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


_EPS = float(np.finfo(float).eps)
_PRECISION_LOSS = 1e-6  # eps * sum|summand| / |sum| above this warns


@functools.lru_cache(maxsize=8)
def _circle_terms(ode: CanonicalODE, exps: Exponents, radius_R: float, steps: int):
    """The xi-independent arrays of the steps-node circle rule, read-only.

    (z, t_plus, t_minus): the nodes and the two log_terms at the tracked
    winding phases.  One entry per rule level suffices because a grid's
    points are evaluated back to back with the same ode and R.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, steps, endpoint=False)
    z = radius_R * np.exp(1j * (theta + 0.5 * math.pi))
    phases = (phase_phi1(theta, radius_R), phase_phi2(theta, radius_R))
    terms = (z, *log_terms(ode, exps, z, phases)[:2])
    for a in terms:
        a.flags.writeable = False
    return terms


@functools.lru_cache(maxsize=16)
def _segment_panels(panels: int):
    """Nodes and weights of `panels` 20-point Gauss-Legendre panels on [-1, 1], read-only."""
    half = 1.0 / panels
    mids = half * (2.0 * np.arange(panels) + 1.0) - 1.0
    y = (mids[:, None] + half * _GL_NODES).ravel()
    w = np.tile(half * _GL_WEIGHTS, panels)
    for a in (y, w):
        a.flags.writeable = False
    return y, w


def _circle_levels(steps: int):
    """steps, steps/2, steps/4, ... down to the last integer >= 1000, coarsest first."""
    levels = [steps]
    while levels[-1] % 2 == 0 and levels[-1] // 2 >= 1000:
        levels.append(levels[-1] // 2)
    return levels[::-1]


def _converged(estimate, sizes):
    """(sum, sum of |summand|) of the first size that agrees with the one before.

    estimate(size) returns both sums of one rule.  Two successive sums agree
    when they differ by at most 1e-13 relative or by the rounding floor
    8 eps * sum|summand| that the finer sum already carries.  A non-finite
    sum stops at once; without agreement the last size is the answer.
    """
    total = None
    for size in sizes:
        prev = total
        total, mass = estimate(size)
        if not cmath.isfinite(total):
            break
        if prev is not None and abs(total - prev) <= max(1e-13 * abs(total), 8.0 * _EPS * mass):
            break
    return total, mass


def _circle_sum(ode: CanonicalODE, exps: Exponents, radius_R: float, steps: int, xi: float):
    z, t_plus, t_minus = _circle_terms(ode, exps, radius_R, steps)
    h = 2.0 * math.pi / steps
    with np.errstate(over="ignore", invalid="ignore"):
        logf = xi * z + t_plus + t_minus
        summand = 1j * z * np.exp(logf)
        return np.sum(summand) * h, np.sum(np.abs(summand)) * h


def _segment_sum(power: int, xi: float, panels: int):
    y, w = _segment_panels(panels)
    summand = w * np.exp(1j * xi * y) * (1.0 - y * y) ** power
    return np.sum(summand), np.sum(np.abs(summand))


def continuum_phi_circle(
    ode: CanonicalODE,
    exps: Exponents,
    convention: PhaseConvention,
    xi: float,
    config: Optional[ContourConfig] = None,
) -> complex:
    """Phi from the uniform-step rule on the circle |z| = R.

    The integrand is smooth and periodic, so the plain trapezoid converges
    geometrically: the rule runs at steps/2^k nodes, from the coarsest
    level that is still an integer >= 1000 up to config.steps, and stops at
    the first level that agrees with the one below it (see _converged).
    Accuracy is instead lost to cancellation once R*xi grows; when the
    rounding error eps * sum|summand| exceeds 1e-6 of the sum, or the sum
    is not finite, PrecisionLoss is warned. In the degenerate free case the
    closed loop encloses nothing and vanishes identically, so the rule
    integrates straight across the branch-point segment instead, with
    composite 20-point Gauss-Legendre panels doubled until two estimates
    agree (at most config.steps nodes); that value is what the closed
    contour degenerates to and is independent of R.  Only the factor
    e^{xi z} is computed per call; the rest comes from _circle_terms, built
    once per (ode, R, level), or from the panel tables.
    """
    if ode.regime is not Regime.CONTINUUM:
        raise MethodRegimeMismatch("circle rule applies to the continuum regime")
    cfg = config or ContourConfig()
    r, n = cfg.radius_R, cfg.steps
    xi = float(xi)
    if degenerate_free(ode, exps):
        # here alpha_+- are the same integer, so the moduli combine exactly
        power = int(round(exps.alpha_plus.real)) - 1
        panel_counts = [2**k for k in range(n.bit_length()) if 20 * 2**k <= n]
        total, mass = _converged(lambda k: _segment_sum(power, xi, k), panel_counts)
        value = 1j * total
    else:
        total, mass = _converged(
            lambda m: _circle_sum(ode, exps, r, m, xi), _circle_levels(n)
        )
        value = total * convention.reference_point_phase
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        loss = _EPS * mass / np.abs(total)
    if not loss <= _PRECISION_LOSS:
        detail = (f"carries a relative rounding error of {loss:.2g}"
                  if cmath.isfinite(total) else "is not finite")
        warnings.warn(f"circle sum at R*xi = {r * xi:.3g} {detail}", PrecisionLoss, stacklevel=2)
    return complex(value)


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
    monodromy e^{2 pi i alpha_plus} - 1 is taken as expm1(-2 pi Im alpha_plus)
    for an integer Re(alpha_plus) and -e^{-2 pi Im alpha_plus} - 1 for a
    half-odd one, so a tiny delta keeps its digits. The monodromy factor
    vanishes in the degenerate free case, where the same
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
        damp = -2.0 * math.pi * ap.imag
        if _integer_re_alpha_plus(exps):
            monodromy = math.expm1(damp)
        else:
            monodromy = -math.exp(damp) - 1.0
        pref = (
            -2j
            * math.pi
            * math.exp(-0.5 * math.pi * ode.delta)
            * monodromy
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
