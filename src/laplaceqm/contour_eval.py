"""Contour evaluation of the canonical-form solutions.

Bound states come from an N-th derivative residue at z = -lambda (closed
form, no quadrature). Continuum states are computed three independent ways
so they can police each other: the real segment integral (moved onto two
steepest-descent rays for xi >= 1), a radius-R circle
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


# sinh and cosh of pi delta / 2 overflow a double past this |delta|
_EDGE_DELTA_MAX = 2.0 * (math.log(np.finfo(float).max) + math.log(2.0)) / math.pi


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
    integer = _integer_re_alpha_plus(exps)
    try:
        return -2j * math.sinh(half) if integer else 2j * math.cosh(half)
    except OverflowError:
        raise OverflowError(
            f"edge factor overflows at delta = {ode.delta:.6g}: |delta| must stay below "
            f"{_EDGE_DELTA_MAX:.6g} (the continuum energy is too low)"
        ) from None


_EPS = float(np.finfo(float).eps)
_PRECISION_LOSS = 1e-6  # eps * sum|summand| / |sum| above this warns
_HALVINGS = 6  # a double-exponential rule halves its step at most this often


def _de_abscissae(lo: float, hi: float, h0: float):
    """s nodes of a rule on [lo, hi], nested level by level.

    Level 0 holds every multiple of h0 from lo; level k holds only the odd
    multiples of h0 / 2^k, the nodes the halving adds.
    """
    n0 = round((hi - lo) / h0)
    levels = [lo + h0 * np.arange(n0 + 1)]
    for k in range(1, _HALVINGS + 1):
        h = h0 / 2**k
        levels.append(lo + h * np.arange(1, n0 * 2**k, 2))
    return levels


def _frozen(*arrays):
    """The arrays, made read-only, as a tuple."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _ray_nodes(s):
    """exp-sinh log u and log du/ds, from s, with u = 2 xi t = e^{(pi/2) sinh s}.

    t = u / (2 xi), so both logs shift by -log(2 xi) per xi.
    """
    log_u = 0.5 * math.pi * np.sinh(s)
    return _frozen(log_u, log_u + np.log(0.5 * math.pi * np.cosh(s)))


_RAY_H0 = 0.2
_RAY_LEVELS = tuple(_ray_nodes(s) for s in _de_abscissae(-6.0, 4.0, _RAY_H0))


def _segment_nodes(s):
    """tanh-sinh x in (0, 1), log x, log(1 - x) and log dx/ds, from s."""
    v = math.pi * np.sinh(s)
    log_x = -np.log1p(np.exp(-v))
    log_1mx = -np.log1p(np.exp(v))
    return _frozen(np.exp(log_x), log_x, log_1mx,
                   np.log(math.pi * np.cosh(s)) + log_x + log_1mx)


_SEGMENT_H0 = 0.1
_SEGMENT_LEVELS = tuple(_segment_nodes(s) for s in _de_abscissae(-5.0, 5.0, _SEGMENT_H0))


def _segment_log_integrand(exps: Exponents, xi: float, x, log_x, log_1mx):
    """2 i xi x + (alpha_- - 1) Log x + (alpha_+ - 1) Log(1 - x), principal logs."""
    return (2j * xi * x + (exps.alpha_minus - 1.0) * log_x
            + (exps.alpha_plus - 1.0) * log_1mx)


def _ray_sum(exps: Exponents, xi: float, level: int):
    """(sum, sum of |summand|) of one level's new nodes on the two rays.

    int_0^1 = i int_0^inf [f(it) - f(1 + it)] dt; on x = it, Log x =
    ln t + i pi/2, and on x = 1 + it, Log(1 - x) = ln t - i pi/2.
    """
    log_u, log_du = _RAY_LEVELS[level]
    shift = math.log(2.0 * xi)
    log_t = log_u - shift
    t = np.exp(log_t)
    with np.errstate(under="ignore"):
        left = np.exp(_segment_log_integrand(
            exps, xi, 1j * t, log_t + 0.5j * math.pi, np.log(1.0 - 1j * t)) + (log_du - shift))
        right = np.exp(_segment_log_integrand(
            exps, xi, 1.0 + 1j * t, np.log(1.0 + 1j * t), log_t - 0.5j * math.pi)
            + (log_du - shift))
    return 1j * (np.sum(left) - np.sum(right)), np.sum(np.abs(left)) + np.sum(np.abs(right))


def _tanh_sinh_sum(exps: Exponents, xi: float, level: int):
    """(sum, sum of |summand|) of one level's new nodes on the segment."""
    x, log_x, log_1mx, log_dx = _SEGMENT_LEVELS[level]
    with np.errstate(under="ignore"):
        summand = np.exp(_segment_log_integrand(exps, xi, x, log_x, log_1mx) + log_dx)
    return np.sum(summand), np.sum(np.abs(summand))


def _nested(levels):
    """Running (sum, sum of |summand|) of a rule whose step halves per level.

    levels yields (h, sum, sum of |summand|) over the nodes each level adds,
    coarsest first: T_2m = T_m / 2 + h_2m * sum over the new nodes.
    """
    total = mass = None
    for h, part, part_mass in levels:
        if total is None:
            total, mass = part * h, part_mass * h
        else:
            total, mass = 0.5 * total + h * part, 0.5 * mass + h * part_mass
        yield total, mass


def _converged(estimates):
    """(sum, sum of |summand|, converged) at the first estimate agreeing with the one before.

    estimates yields both sums of successively finer rules.  Two successive
    sums agree when they differ by at most 1e-13 relative or by the rounding
    floor 8 eps * sum|summand| that the finer sum already carries.  A
    non-finite sum stops at once; without agreement the last estimate is the
    answer, with converged False.
    """
    prev = None
    for total, mass in estimates:
        if not cmath.isfinite(total):
            return total, mass, False
        if prev is not None and abs(total - prev) <= max(1e-13 * abs(total), 8.0 * _EPS * mass):
            return total, mass, True
        prev = total
    return total, mass, False


def _rounding_loss(total, mass) -> float:
    """eps * sum|summand| / |sum|: the relative rounding error a sum carries."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return float(_EPS * mass / np.abs(total))


def continuum_phi_real_integral(ode: CanonicalODE, exps: Exponents, xi: float) -> complex:
    """Phi from the segment integral between the branch points.

    Phi(xi) = C * 2^(beta-1) * e^{-i xi} * I, with C the edge factor and
    I = int_0^1 e^{2 i xi x} (1-x)^(alpha_plus - 1) x^(alpha_minus - 1) dx.
    For xi >= 1 the segment is moved onto the steepest-descent rays x = it
    and x = 1 + it, where the oscillation becomes the decay e^{-2 xi t}
    (DLMF 13.4(i)), and summed with an exp-sinh rule; below xi = 1 it stays
    on the segment with a tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9
    (1974) 721-741).  Either rule halves its step up to six times, each
    level adding only the new nodes, and stops at the first level that
    agrees with the one before (see _converged): the Coulomb phase
    x^(-i eta) oscillates faster as the energy falls.  PrecisionLoss is
    warned when the rounding error eps * sum|summand| exceeds 1e-6 of the
    sum, or when the finest level does not converge.
    """
    if ode.regime is not Regime.CONTINUUM:
        raise MethodRegimeMismatch("segment integral applies to the continuum regime")
    edge = _bracket_coefficient(ode, exps)
    xi = float(xi)
    if xi >= 1.0:
        rule, level_sum = _RAY_H0, _ray_sum
    else:
        rule, level_sum = _SEGMENT_H0, _tanh_sinh_sum
    levels = ((rule / 2**k, *level_sum(exps, xi, k)) for k in range(_HALVINGS + 1))
    total, mass, converged = _converged(_nested(levels))
    loss = _rounding_loss(total, mass)
    if not (converged and loss <= _PRECISION_LOSS):
        if not cmath.isfinite(total):
            detail = "is not finite"
        elif not converged:
            detail = "did not converge at the finest step"
        else:
            detail = f"carries a relative rounding error of {loss:.2g}"
        warnings.warn(f"real integral at xi = {xi:.3g} {detail}", PrecisionLoss, stacklevel=2)
    beta = exps.alpha_plus + exps.alpha_minus
    pref = edge * cmath.exp((beta - 1.0) * math.log(2.0))
    return pref * cmath.exp(-1j * xi) * total


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


@functools.lru_cache(maxsize=8)
def _circle_terms(ode: CanonicalODE, exps: Exponents, radius_R: float, steps: int,
                  shift: float = 0.0):
    """The xi-independent arrays of steps circle nodes, read-only.

    (z, t_plus, t_minus): the nodes at theta = 2 pi (j + shift) / steps and
    the two log_terms at the tracked winding phases.  shift = 1/2 gives the
    nodes a halving adds.  One entry per rule level suffices because a
    grid's points are evaluated back to back with the same ode and R.
    """
    theta = (np.arange(steps) + shift) * (2.0 * math.pi / steps)
    z = radius_R * np.exp(1j * (theta + 0.5 * math.pi))
    phases = (phase_phi1(theta, radius_R), phase_phi2(theta, radius_R))
    return _frozen(z, *log_terms(ode, exps, z, phases)[:2])


@functools.lru_cache(maxsize=16)
def _segment_panels(panels: int):
    """Nodes and weights of `panels` 20-point Gauss-Legendre panels on [-1, 1], read-only."""
    half = 1.0 / panels
    mids = half * (2.0 * np.arange(panels) + 1.0) - 1.0
    y = (mids[:, None] + half * _GL_NODES).ravel()
    w = np.tile(half * _GL_WEIGHTS, panels)
    return _frozen(y, w)


def _circle_levels(steps: int):
    """steps, steps/2, steps/4, ... down to the last integer >= 1000, coarsest first."""
    levels = [steps]
    while levels[-1] % 2 == 0 and levels[-1] // 2 >= 1000:
        levels.append(levels[-1] // 2)
    return levels[::-1]


def _circle_level_sums(ode: CanonicalODE, exps: Exponents, radius_R: float, levels, xi: float):
    """(h, sum, sum of |summand|) per level: every node of the coarsest, then the new ones."""
    for k, steps in enumerate(levels):
        if k == 0:
            z, t_plus, t_minus = _circle_terms(ode, exps, radius_R, steps)
        else:
            z, t_plus, t_minus = _circle_terms(ode, exps, radius_R, steps // 2, 0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            logf = xi * z + t_plus + t_minus
            summand = 1j * z * np.exp(logf)
            sums = np.sum(summand), np.sum(np.abs(summand))
        yield (2.0 * math.pi / steps, *sums)


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
    level that is still an integer >= 1000 up to config.steps, each level
    adding only the odd nodes to the one below it, and stops at the first
    level that agrees with the one below it (see _converged).
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
        total, mass, _ = _converged(_segment_sum(power, xi, k) for k in panel_counts)
        value = 1j * total
    else:
        levels = _circle_level_sums(ode, exps, r, _circle_levels(n), xi)
        total, mass, _ = _converged(_nested(levels))
        value = total * convention.reference_point_phase
    loss = _rounding_loss(total, mass)
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


# the routes whose accuracy a caller's tol sets
_TOL_METHODS = (Method.SERIES, Method.MORSE_RAY)


def _point_route(ode: CanonicalODE, exps: Exponents, method: Method,
                 config: Optional[ContourConfig], tol: Optional[float]):
    """The quadrature or series route as a function of one xi."""
    if method is Method.CIRCLE:
        conv = default_phase_convention(ode)
        return lambda x: continuum_phi_circle(ode, exps, conv, x, config)
    if method is Method.REAL_INTEGRAL:
        return lambda x: continuum_phi_real_integral(ode, exps, x)
    route = continuum_phi_series if method is Method.SERIES else morse_continuum_phi
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
    tol is the series' or the Morse ray's tolerance; any other method
    sizes its own rule and rejects it (ValueError).
    """
    _check_method(spec, method)
    if tol is not None and method not in _TOL_METHODS:
        raise ValueError(f"method {method.value} takes no tol")
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
