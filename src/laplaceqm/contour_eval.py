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
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

import numpy as np

from . import potential_catalog as catalog
from .core_laplace import (
    CanonicalODE,
    Exponents,
    Regime,
    default_phase_convention,
    degenerate_free,
    exponents,
    log_terms,
)
from .special_fn import (
    _RAY_H0,
    _RAY_LEVELS,
    _RAY_SIZES,
    PrecisionLoss,  # noqa: F401  (raised by every route; importable from here)
    _de_abscissae,
    _frozen,
    _refine,
    _segment_panels,
    _warn_inexact,
    gamma_complex,
    hermite,
    kummer_m,
    tricomi_u,
)


class NonIntegerOrder(ValueError):
    """Residue route invoked where -alpha_minus is not a nonnegative integer."""


class MethodRegimeMismatch(ValueError):
    """Evaluation method incompatible with the problem's regime."""


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
    """Radius of the circle route, the one choice the contour leaves open.

    Any radius_R > 1 encloses both branch points and, by Cauchy's theorem,
    gives the same Phi.  steps is a class constant, not a setting: the
    finest of the circle's trapezoid levels (see continuum_phi_circle).
    """

    radius_R: float = 1.1
    steps: ClassVar[int] = 100_000

    def __post_init__(self):
        if not 1.0 < self.radius_R < math.inf:
            raise ValueError(
                "circle radius must be finite and exceed 1 (outside both branch points)"
            )


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


def _each_point(xi, point):
    """point(i, x) at each x = xi[i] in order, as a complex array; a scalar xi gives a complex.

    The one loop over a route's grid points.  It stops at the first point
    that raises, its exception carrying its index in ``.point``, or that is
    not finite; point is not called after it, and the later points read NaN.
    """
    xs = np.asarray(xi, dtype=float)
    values = np.empty(xs.size, dtype=complex)
    for i, x in enumerate(xs.ravel().tolist()):
        try:
            value = values[i] = point(i, x)
        except Exception as exc:
            exc.point = i
            raise
        if not cmath.isfinite(value):
            values[i + 1:] = complex(math.nan, math.nan)
            break
    return values.reshape(xs.shape) if xs.ndim else complex(values[0])


# ---------------------------------------------------------------------------
# Bound routes

def _check_order(what: str, order, N: int) -> None:
    """Raise NonIntegerOrder unless order is the nonnegative integer N (to 1e-9)."""
    if N < 0 or abs(order - N) > 1e-9 * max(1.0, abs(N)):
        raise NonIntegerOrder(f"{what} = {order:.6g} is not the nonnegative integer {N}")


def _half_turns(w: float) -> complex:
    """e^{i pi w} for real w: exactly 1, i, -1 or -i whenever 2w is an integer."""
    if 2.0 * w == round(2.0 * w):
        return (1 + 0j, 1j, -1 + 0j, -1j)[round(2.0 * w) % 4]
    return cmath.exp(1j * math.pi * w)


# a w_j past this is scaled down by it; 2^600 leaves room for any one step
_RESIDUE_RESCALE_BITS = 600
_RESIDUE_RESCALE = 2.0**_RESIDUE_RESCALE_BITS
# a w_j past 2^16384, the 80-bit exponent range, has overflowed
_RESIDUE_SCALE_MAX = 16384


def bound_phi_residue(ode: CanonicalODE, N: int, xi):
    """Phi from the order-N residue at z = -lambda.

    2 pi i times the N-th Taylor coefficient about -lambda of the kernel
    f = e^{xi z} (z-lambda)^a, a = alpha_plus - 1, read off its first-order
    equation (z-lambda) f' = (xi (z-lambda) + a) f: with x = 2 lambda xi the
    coefficients f(-lambda) (-2 lambda)^(-j) w_j obey (j+1) w_{j+1} =
    (a - j - x) w_j - x w_{j-1}, w_0 = 1, so Phi = 2 pi i (-2 lambda)^(beta-1)
    e^{-x/2} w_N, with (-2 lambda)^w = (2 lambda)^w e^{i pi w}.  Each step
    multiplies w_j by e^{-x/(2N)} and w_{j-1} by its square, spreading
    e^{-x/2}.  Near xi = 0, w_j ~ C(alpha_plus - 1, j) outgrows a double
    long before w_N does, so a point whose w_j passes 2^600 has w_j and
    w_{j-1} scaled by 2^-600, exactly, and by 2^600 again once both fall
    below 2^-600; the scale is put back once at the end with ldexp.  A w_j
    past 2^16384, the 80-bit exponent range, counts as overflowed, so a level
    far past it fails within a few thousand steps instead of running all N.
    """
    exps = exponents(ode)
    _check_order("-alpha_minus", -exps.alpha_minus, N)
    lam = ode.lam.real
    a = exps.alpha_plus.real - 1.0
    x = 2.0 * lam * np.asarray(xi, dtype=float)
    damp = np.exp(-0.5 * x / max(N, 1))
    prev, cur = np.zeros_like(x), damp if N == 0 else np.ones_like(x)
    scale = np.zeros(x.shape, dtype=int)  # cur stands for cur * 2^scale
    w = ode.beta.real - 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # phi_values names the point
        for j in range(N):
            prev, cur = cur, ((a - j - x) * damp * cur - x * damp * damp * prev) / (j + 1)
            size = np.abs(cur)
            shift = np.where(size > _RESIDUE_RESCALE, _RESIDUE_RESCALE_BITS, 0)
            if scale.any():  # scaled points whose w_j and w_{j-1} shrank are scaled back up
                small = (scale > 0) & (size < 1.0 / _RESIDUE_RESCALE) & (
                    np.abs(prev) < 1.0 / _RESIDUE_RESCALE)
                shift -= np.where(small, _RESIDUE_RESCALE_BITS, 0)
            if shift.any():
                scale += shift
                prev, cur = (np.where(scale > _RESIDUE_SCALE_MAX, math.inf, np.ldexp(v, -shift))
                             for v in (prev, cur))
            elif not np.isfinite(cur).any():  # an overflow is final
                break
        out = (2j * math.pi * math.exp(w * math.log(2.0 * lam)) * _half_turns(w)
               * np.ldexp(cur, scale))
    return out if np.ndim(xi) else complex(out)


def hermite_phi_residue(n: int, xi):
    """Phi of the derivative-form oscillator route: H_n(xi)."""
    with np.errstate(over="ignore", invalid="ignore"):  # phi_values names the point
        return hermite(n, xi)


# ---------------------------------------------------------------------------
# Continuum: real segment integral

# sinh and cosh of pi delta / 2 overflow a double past this |delta|
_EDGE_DELTA_MAX = 2.0 * (math.log(np.finfo(float).max) + math.log(2.0)) / math.pi


def _edge_prefactor(ode: CanonicalODE, exps: Exponents) -> complex:
    """Edge-combination factor i(e^{-pi delta/2} - c e^{pi delta/2}) times 2^(beta-1).

    The prefactor the real integral and the series share, c = e^{i pi beta},
    as i[(1 - c) cosh(pi delta/2) - (1 + c) sinh(pi delta/2)]: for the
    catalog's integer beta one term is exactly 0, so a tiny delta keeps its
    digits. In the degenerate free case the bracket vanishes identically:
    the two edges cancel, so the open segment between the branch points is
    used instead with unit coefficient.
    """
    scale = cmath.exp((exps.alpha_plus + exps.alpha_minus - 1.0) * math.log(2.0))
    if degenerate_free(ode, exps):
        return 1j * scale
    half = 0.5 * math.pi * ode.delta
    c = _half_turns(ode.beta.real)
    try:
        return 1j * ((1.0 - c) * math.cosh(half) - (1.0 + c) * math.sinh(half)) * scale
    except OverflowError:
        raise OverflowError(
            f"edge factor overflows at delta = {ode.delta:.6g}: |delta| must stay below "
            f"{_EDGE_DELTA_MAX:.6g} (the continuum energy is too low)"
        ) from None


def _segment_nodes(s):
    """tanh-sinh x in (0, 1), log x, log(1 - x) and log dx/ds, from s."""
    v = math.pi * np.sinh(s)
    log_x = -np.log1p(np.exp(-v))
    log_1mx = -np.log1p(np.exp(v))
    return _frozen(np.exp(log_x), log_x, log_1mx,
                   np.log(math.pi * np.cosh(s)) + log_x + log_1mx)


_SEGMENT_H0 = 0.1
_SEGMENT_LEVELS = tuple(_segment_nodes(s) for s in _de_abscissae(-5.0, 5.0, _SEGMENT_H0))
_SEGMENT_SIZES = tuple(x.size for x, *_ in _SEGMENT_LEVELS)


def _segment_log_integrand(exps: Exponents, xi, x, log_x, log_1mx):
    """2 i xi x + (alpha_- - 1) Log x + (alpha_+ - 1) Log(1 - x), principal logs."""
    return (2j * xi * x + (exps.alpha_minus - 1.0) * log_x
            + (exps.alpha_plus - 1.0) * log_1mx)


def _ray_level(exps: Exponents, xi, k: int):
    """(sums, sums of |summand|), shape (1, xi.size), of level k's new ray nodes, t = u / (2 xi).

    int_0^1 = i int_0^inf [f(it) - f(1 + it)] dt; on x = it, Log x =
    ln t + i pi/2, and on x = 1 + it, Log(1 - x) = ln t - i pi/2.
    """
    log_u, log_du = _RAY_LEVELS[k]
    xi, shift = xi[:, None], np.array([math.log(2.0 * x) for x in xi.tolist()])[:, None]
    log_t = log_u - shift
    t = np.exp(log_t)
    with np.errstate(under="ignore"):
        left = np.exp(_segment_log_integrand(
            exps, xi, 1j * t, log_t + 0.5j * math.pi, np.log(1.0 - 1j * t)) + (log_du - shift))
        right = np.exp(_segment_log_integrand(
            exps, xi, 1.0 + 1j * t, np.log(1.0 + 1j * t), log_t - 0.5j * math.pi)
            + (log_du - shift))
    return (1j * (np.sum(left, axis=1) - np.sum(right, axis=1)))[None], (
        np.sum(np.abs(left), axis=1) + np.sum(np.abs(right), axis=1))[None]


def _tanh_sinh_level(exps: Exponents, xi, k: int):
    """(sums, sums of |summand|) of level k's new nodes on the segment, one row per xi."""
    x, log_x, log_1mx, log_dx = _SEGMENT_LEVELS[k]
    with np.errstate(under="ignore"):
        summand = np.exp(_segment_log_integrand(exps, xi[:, None], x, log_x, log_1mx) + log_dx)
    return np.sum(summand, axis=1)[None], np.sum(np.abs(summand), axis=1)[None]


def continuum_phi_real_integral(ode: CanonicalODE, exps: Exponents, xi):
    """Phi from the segment integral between the branch points, at each xi.

    Phi(xi) = C * 2^(beta-1) * e^{-i xi} * I, with C the edge factor and
    I = int_0^1 e^{2 i xi x} (1-x)^(alpha_plus - 1) x^(alpha_minus - 1) dx.
    For xi >= 1 the segment is moved onto the steepest-descent rays x = it
    and x = 1 + it, where the oscillation becomes the decay e^{-2 xi t}
    (DLMF 13.4(i)), and summed with an exp-sinh rule; below xi = 1 it stays
    on the segment with a tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9
    (1974) 721-741).  Either rule halves its step up to six times, a level
    adding only the new nodes, one array for all live points, and stops a
    point at its first level that agrees with the one before (see _refine):
    the Coulomb phase x^(-i eta) oscillates faster as E falls.  PrecisionLoss
    is warned in point order, index in ``.point``, where eps * sum|summand|
    exceeds 1e-6 of the sum or the finest level does not converge, up to the
    first non-finite value; the points after it read NaN.  C is built once a call.
    """
    if ode.regime is not Regime.CONTINUUM:
        raise MethodRegimeMismatch("segment integral applies to the continuum regime")
    pref = _edge_prefactor(ode, exps)
    xs = np.ravel(np.asarray(xi, dtype=float))
    total, mass, converged = np.empty(xs.size, complex), np.empty(xs.size), np.empty(xs.size, bool)
    for pick, level, sizes, h0 in ((xs >= 1.0, _ray_level, _RAY_SIZES, _RAY_H0),
                                   (~(xs >= 1.0), _tanh_sinh_level, _SEGMENT_SIZES, _SEGMENT_H0)):
        if pick.any():
            total[pick], mass[pick], converged[pick] = (v[0] for v in _refine(
                lambda k, rows: level(exps, xs[pick][rows], k), np.count_nonzero(pick), sizes, h0))

    def point(i, x):
        _warn_inexact(f"real integral at xi = {x:.3g}", total[i], mass[i], converged[i], i)
        return pref * cmath.exp(-1j * x) * total[i]

    return _each_point(xi, point)


# ---------------------------------------------------------------------------
# Continuum: circle with tracked phases

def phase_phi1(theta, radius):
    """Winding angle of the arrow from -i to z(theta) = R e^{i(theta + pi/2)}.

    theta + Arg(1 + w), w = e^{-i theta}/R, grows from 0 on the cut's right
    edge to 2 pi; |w| < 1 keeps Re(1 + w) > 0, so the principal Arg never wraps.
    """
    th = np.asarray(theta, dtype=float)
    out = th + np.angle(1.0 + np.exp(-1j * th) / float(radius))
    return out if np.ndim(theta) else float(out)


def phase_phi2(theta, radius):
    """Winding angle of the arrow from +i, pi + theta + Arg(1 - w); pi (flipped) to 3 pi."""
    th = np.asarray(theta, dtype=float)
    out = math.pi + th + np.angle(1.0 - np.exp(-1j * th) / float(radius))
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
    return _frozen(z, *log_terms(ode, exps, z, phases))


# node counts of the circle's trapezoid levels, 3125 to 100000, coarsest first
_CIRCLE_LEVELS = tuple(ContourConfig.steps // 2**k for k in range(5, -1, -1))


def _circle_level_sums(ode: CanonicalODE, exps: Exponents, radius_R: float, xi: float):
    """1 x 1 (sum, sum of |summand|) per level: every node of the coarsest, then the new ones."""
    for k, steps in enumerate(_CIRCLE_LEVELS):
        z, t_plus, t_minus = (_circle_terms(ode, exps, radius_R, steps) if k == 0
                              else _circle_terms(ode, exps, radius_R, steps // 2, 0.5))
        with np.errstate(over="ignore", invalid="ignore"):
            summand = 1j * z * np.exp(xi * z + t_plus + t_minus)
            sums = [[np.sum(summand)]], [[np.sum(np.abs(summand))]]
        yield sums


def _segment_sum(power: int, xi: float, panels: int):
    y, w = _segment_panels(panels)
    summand = w * np.exp(1j * xi * y) * (1.0 - y * y) ** power
    return [[np.sum(summand)]], [[np.sum(np.abs(summand))]]


def continuum_phi_circle(
    ode: CanonicalODE,
    exps: Exponents,
    convention: complex,
    xi,
    config: Optional[ContourConfig] = None,
):
    """Phi from the uniform-step rule on the circle |z| = R, at each xi.

    The winding phases (phase_phi1, phase_phi2) are closed forms, so the
    integrand is smooth and periodic and the plain trapezoid converges
    geometrically: the rule runs at 3125, 6250, ..., 100000 nodes, each level
    adding only the odd nodes, and stops at the first level that agrees with
    the one below it (see _refine), one point at a time, since a level holds
    thousands of nodes; a point that converges at once evaluates 6250
    summands.  config sets only R; convention is the reference-point phase.
    Accuracy is lost to cancellation once R*xi grows; PrecisionLoss is warned,
    its index in ``.point``, when eps * sum|summand| exceeds 1e-6 of the sum,
    the sum is not finite, or the finest level does not converge.  In the
    degenerate free case the closed loop encloses nothing, so the rule
    integrates straight across the branch-point segment instead, with
    composite 20-point Gauss-Legendre panels doubled until two estimates
    agree (at most 4096 panels), warned alike; that value is what the closed
    contour degenerates to, independent of R.  Only e^{xi z} is computed per
    point; the rest comes from _circle_terms, built once per (ode, R, level).
    """
    if ode.regime is not Regime.CONTINUUM:
        raise MethodRegimeMismatch("circle rule applies to the continuum regime")
    r = (config or ContourConfig()).radius_R
    free = degenerate_free(ode, exps)
    power = int(round(exps.alpha_plus.real)) - 1  # free: alpha_+- one integer, moduli combine
    sizes, h0 = (([20 * 2**k for k in range(13)], None) if free  # 1 to 4096 panels
                 else (_CIRCLE_LEVELS, 2.0 * math.pi / _CIRCLE_LEVELS[0]))

    def point(i, x):
        levels = ((_segment_sum(power, x, 2**k) for k in range(13)) if free
                  else _circle_level_sums(ode, exps, r, x))
        total, mass, ok = (v[0, 0] for v in _refine(lambda k, _: next(levels), 1, sizes, h0))
        _warn_inexact(f"circle sum at R*xi = {r * x:.3g}", total, mass, ok, i)
        return complex(1j * total if free else total * convention)

    return _each_point(xi, point)


# ---------------------------------------------------------------------------
# Continuum: series route

def continuum_phi_series(ode: CanonicalODE, exps: Exponents, xi):
    """Phi as -2 pi i times the residue at infinity of the cut integrand, at each xi.

    The Laurent tail sums to a Kummer function, leaving
    -2 pi i e^{-pi delta/2} (e^{2 pi i alpha_plus} - 1)/(4 pi) 2^beta
    * Gamma(alpha_plus)Gamma(alpha_minus)/Gamma(beta) e^{-i xi}
    * M(alpha_minus, beta, 2 i xi), identical to the segment result.  The
    factor before the Gammas is the real integral's edge factor times
    2^(beta-1), so it keeps its digits as delta -> 0, stays finite up to
    the same |delta| and raises the same OverflowError past it.  Everything
    but the last two factors is computed once per call.  kummer_m warns
    PrecisionLoss when its measured rounding error exceeds 1e-6 of M.
    """
    if ode.regime is not Regime.CONTINUUM:
        raise MethodRegimeMismatch("series route applies to the continuum regime")
    ap, am = exps.alpha_plus, exps.alpha_minus
    beta = ap + am
    pref = _edge_prefactor(ode, exps)
    ratio = gamma_complex(ap) * gamma_complex(am) / gamma_complex(beta)
    return _each_point(
        xi, lambda i, x: pref * ratio * cmath.exp(-1j * x) * kummer_m(am, beta, 2j * x))


# ---------------------------------------------------------------------------
# Morse continuum: ray route

def morse_continuum_phi(ode: CanonicalODE, exps: Exponents, xi):
    """Phi from the ray z = -lambda - t, t in (0, inf), at each xi > 0.

    Collapses to (-1)^(beta-1) Gamma(alpha_minus) e^{-xi/2}
    U(alpha_minus, beta, xi) with (-1)^(beta-1) = e^{i pi (beta-1)}.
    Re(alpha_minus) may be far below 0 (a deep well): past its Kummer
    crossover tricomi_u sums this same ray at alpha_minus + m, m steps up
    to Re > 3 + 2 k-bar, and recurs down to alpha_minus, sizing its rule by
    convergence, so the route takes no tolerance.  Where a Gamma factor
    leaves the double range (Gamma(alpha_minus) past about delta = 141 or
    k-bar = 226, U's ray past about k-bar = 69), gamma_complex raises an
    OverflowError naming its argument.  The factor before e^{-xi/2} is
    computed once per call, and tricomi_u is called once with the whole grid,
    so U's Gamma factors are built once and its Kummer series and its ray
    are summed for every point at once.
    """
    if ode.regime is not Regime.MORSE_CONTINUUM:
        raise MethodRegimeMismatch("ray route applies to the Morse continuum")
    pref = cmath.exp(1j * math.pi * (ode.beta - 1.0)) * gamma_complex(exps.alpha_minus)
    u = np.ravel(tricomi_u(exps.alpha_minus, ode.beta, xi)).tolist()
    return _each_point(xi, lambda i, x: pref * math.exp(-0.5 * x) * u[i])


# ---------------------------------------------------------------------------
# Grid sampling

def _check_method(spec: catalog.ProblemSpec, method: Method, energy=None, config=None):
    """MethodRegimeMismatch unless the kind has this route and a config a circle reads."""
    if method not in ROUTES[spec.kind]:
        raise MethodRegimeMismatch(f"method {method.value} not valid for {spec.kind.value}")
    if config is not None and (method is not Method.CIRCLE or degenerate_free(
            ode := catalog.canonicalize(spec, energy), exponents(ode))):
        raise MethodRegimeMismatch(
            f"the {method.value} route for {spec.kind.value} reads no circle radius")


def _check_finite(values: np.ndarray, message) -> None:
    """FloatingPointError(message(i)), with ``.point`` = i, at the first non-finite value i."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:
        i = int(finite.argmin())
        exc = FloatingPointError(message(i))
        exc.point = i
        raise exc


def phi_values(
    spec: catalog.ProblemSpec,
    energy: float,
    xi_values,
    method: Method,
    config: Optional[ContourConfig] = None,
) -> np.ndarray:
    """Phi(xi) on an array of xi values by the chosen method.

    Calls the route once with the whole grid.  The residue routes are
    closed forms, at lattice energies only (NonIntegerOrder otherwise); the
    others size their own rule per point and stop at the first point that
    raises, its exception carrying the index in ``.point``, or that is not
    finite.  The values are then checked for finiteness at once: the first
    non-finite one raises FloatingPointError naming the route and xi, with
    its index in ``.point``.  config sets the circle's radius; one that no
    circle reads (another route, or free3d's segment) is a MethodRegimeMismatch.
    """
    _check_method(spec, method, energy, config)
    xs = np.asarray(xi_values, dtype=float)
    if spec.kind is catalog.Kind.SHO1D_HERMITE:
        order = energy / spec.omega - 0.5
        n = round(order)
        _check_order("E/omega - 1/2", order, n)
        values = np.asarray(hermite_phi_residue(n, xs), dtype=complex)
    else:
        ode = catalog.canonicalize(spec, energy)
        exps = exponents(ode)
        if method is Method.RESIDUE:
            values = bound_phi_residue(ode, round(-exps.alpha_minus.real), xs)
        elif method is Method.CIRCLE:
            values = continuum_phi_circle(ode, exps, default_phase_convention(ode), xs, config)
        else:
            route = {Method.REAL_INTEGRAL: continuum_phi_real_integral,
                     Method.SERIES: continuum_phi_series}.get(method, morse_continuum_phi)
            values = route(ode, exps, xs)
    _check_finite(values, lambda i: f"{method.value} route gave {values[i]} at xi = {xs[i]:.6g}")
    return values


def sample_wavefunction(
    spec: catalog.ProblemSpec,
    qn_or_energy,
    coordinates,
    method: Method,
    config: Optional[ContourConfig] = None,
) -> WavefunctionGrid:
    """psi = prefactor * Phi over a coordinate grid, entries coordinate-sorted.

    Bound kinds take quantum numbers and evaluate at the catalog energy,
    where the residue order -alpha_minus is an integer; continuum kinds take
    E > 0 directly.  A non-finite psi raises FloatingPointError with its
    index in ``.point``, as a non-finite Phi does.
    """
    _check_method(spec, method)
    if spec.kind in catalog.BOUND_KINDS:
        energy = catalog.bound_energy(spec, qn_or_energy)
    else:
        energy = float(qn_or_energy)
    coords = np.sort(np.asarray(coordinates, dtype=float))
    cmap = catalog.coordinate_map(spec, energy)
    xi = cmap.xi(coords)
    phi = phi_values(spec, energy, xi, method, config)
    with np.errstate(over="ignore", invalid="ignore"):  # _check_finite names the point
        psi = cmap.prefactor(coords) * phi
    _check_finite(psi, lambda i: f"prefactor * Phi gave {psi[i]} at coordinate {coords[i]:.6g}")
    return WavefunctionGrid(coords, xi, phi, psi, method=method, problem=spec, energy=energy)
