"""Special functions backing the contour solver.

Hermite polynomials by their three-term recurrence, a Lanczos complex
Gamma, the confluent hypergeometric pair M and U, and the quadrature engine
that Tricomi U and the continuum routes share: nested exp-sinh node tables,
Gauss-Legendre panels, a stop at the first two estimates that agree, and a
PrecisionLoss warning from the measured rounding error.
"""

from __future__ import annotations

import cmath
import heapq
import math
import warnings
from functools import lru_cache

import numpy as np


class PoleError(ValueError):
    """Gamma evaluated at a nonpositive integer."""


class InvalidB(ValueError):
    """Kummer M with nonpositive-integer second parameter."""


class SeriesDivergence(ArithmeticError):
    """Hypergeometric series failed to settle within the iteration cap."""


class QuadratureFailure(ArithmeticError):
    """Adaptive quadrature could not reach the requested tolerance."""


class PrecisionLoss(RuntimeWarning):
    """Result returned, but cancellation has likely eaten the tolerance."""


class _Cancelled(ArithmeticError):
    """The two terms of U's connection formula cancel past _U_CANCELLATION."""


# ---------------------------------------------------------------------------
# Gamma

_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_complex(z) -> complex:
    """Gamma(z) for complex z via Lanczos (g=7, 9 terms) plus reflection.

    Relative accuracy is ~1e-12 for |z| <= 20, degrading smoothly outside.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleError(f"gamma pole at z={z.real:g}")
    if z.real < 0.5:
        # reflection keeps the Lanczos sum on the well-conditioned half-plane
        return math.pi / (cmath.sin(math.pi * z) * gamma_complex(1.0 - z))
    z -= 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


# ---------------------------------------------------------------------------
# Hermite polynomials

def hermite(n: int, x):
    """Physicists' H_n(x) = n! [z^n] e^{2xz - z^2}, by the kernel's f' = (2x - 2z) f.

    That equation is H_{j+1} = 2x H_j - 2j H_{j-1}, exact where 2x is an
    integer and every H_j fits a double's mantissa.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    xs = np.asarray(x, dtype=float)
    prev, cur = np.zeros_like(xs), np.ones_like(xs)
    for j in range(n):
        prev, cur = cur, 2.0 * xs * cur - 2.0 * j * prev
        if not np.isfinite(cur).any():  # an overflow is final
            break
    return cur if np.ndim(x) else float(cur)


# ---------------------------------------------------------------------------
# Confluent hypergeometric M (Kummer) and U (Tricomi)

_MAX_KUMMER_TERMS = 1000
_KUMMER_STOP = 1e-15  # a term this small relative to the sum is quiet
_EPS_X = float(np.finfo(np.longdouble).eps)


def kummer_m(a, b, z) -> complex:
    """Kummer's M(a, b, z) by direct series.

    Accumulates in 80-bit scalars: for oscillatory z the partial terms reach
    ~e^{|z|} while the sum stays O(1), and the extra mantissa bits push the
    cancellation wall out by roughly a factor e^3 in |z|.  It stops after
    three terms in a row below 1e-15 of the sum, and warns PrecisionLoss when
    eps_x * sum|term| exceeds 1e-6 of |M|, eps_x the 80-bit epsilon.
    """
    b = complex(b)
    if b.imag == 0.0 and b.real <= 0.0 and b.real == round(b.real):
        raise InvalidB(f"M undefined for b={b.real:g}")
    a_x = np.clongdouble(complex(a))
    b_x = np.clongdouble(b)
    z_x = np.clongdouble(complex(z))
    term = np.clongdouble(1.0)
    total = np.clongdouble(1.0)
    mass = np.longdouble(1.0)
    quiet = 0
    for j in range(_MAX_KUMMER_TERMS):
        term = term * (a_x + j) / (b_x + j) * z_x / (j + 1)
        total = total + term
        size = abs(term)
        mass = mass + size
        # three quiet terms in a row, not one: parity cancellations can make
        # a single term dip below tolerance long before the tail is spent
        if size <= _KUMMER_STOP * abs(total):
            quiet += 1
            if quiet >= 3:
                if _EPS_X * mass > _PRECISION_LOSS * abs(total):
                    _warn_inexact(f"kummer_m at a = {complex(a):.6g}, b = {b:.6g}, "
                                  f"z = {complex(z):.6g}", total, mass, eps=_EPS_X)
                return complex(total)
        else:
            quiet = 0
    raise SeriesDivergence(
        f"Kummer series not settled after {_MAX_KUMMER_TERMS} terms (|z|={abs(z):.3g})"
    )


# ---------------------------------------------------------------------------
# Quadrature engine: nested double-exponential levels, Gauss-Legendre panels

_EPS = float(np.finfo(float).eps)
_PRECISION_LOSS = 1e-6  # eps * sum|summand| / |sum| above this warns
_HALVINGS = 6  # a double-exponential rule halves its step at most this often
# U's connection formula hands a point to the integrals above this rounding
# loss: the Morse continuum's Kummer points in perfbench's morse_scan stay
# below 5.3e-12, while U(2.5+6i, 0.5, 12.5), off by 0.20, measures 1.3e-2
_U_CANCELLATION = 1e-10


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
    """exp-sinh log u and log du/ds, from s, with u = e^{(pi/2) sinh s} in (0, inf)."""
    log_u = 0.5 * math.pi * np.sinh(s)
    return _frozen(log_u, log_u + np.log(0.5 * math.pi * np.cosh(s)))


_RAY_H0 = 0.2
_RAY_LEVELS = tuple(_ray_nodes(s) for s in _de_abscissae(-6.0, 4.0, _RAY_H0))

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


@lru_cache(maxsize=16)
def _segment_panels(panels: int):
    """Nodes and weights of `panels` 20-point Gauss-Legendre panels on [-1, 1], read-only."""
    half = 1.0 / panels
    mids = half * (2.0 * np.arange(panels) + 1.0) - 1.0
    y = (mids[:, None] + half * _GL_NODES).ravel()
    w = np.tile(half * _GL_WEIGHTS, panels)
    return _frozen(y, w)


def _refine(levels, h0=None):
    """(sum, sum of |summand|, converged) at the first estimate agreeing with the one before.

    levels yields (sum, sum of |summand|) per level, coarsest first.  Given
    h0, the rule halves its step per level and level k sums only the nodes
    it adds, at step h0 / 2^k: T_2m = T_m / 2 + h_2m * sum over the new
    nodes.  Without h0 each level is a whole estimate.  Two successive sums
    agree when they differ by at most 1e-13 relative or by the rounding
    floor 8 eps * sum|summand| that the finer sum already carries.  A
    non-finite sum stops at once; without agreement the last estimate is the
    answer, with converged False.
    """
    prev = None
    for k, (total, mass) in enumerate(levels):
        if h0 is not None:
            h = h0 / 2**k
            total, mass = ((total * h, mass * h) if prev is None
                           else (0.5 * prev + h * total, 0.5 * prev_mass + h * mass))
        if not cmath.isfinite(total):
            return total, mass, False
        if prev is not None and abs(total - prev) <= max(1e-13 * abs(total), 8.0 * _EPS * mass):
            return total, mass, True
        prev, prev_mass = total, mass
    return total, mass, False


def _warn_inexact(what: str, total, mass, converged: bool = True, eps: float = _EPS) -> None:
    """Warn PrecisionLoss about what, at the caller's caller, for an inexact sum.

    Inexact means not finite, not converged, or carrying a relative rounding
    error eps * sum|summand| / |sum| above 1e-6, eps that of the sum's type.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        loss = float(eps * mass / np.abs(total))
    if converged and loss <= _PRECISION_LOSS:
        return
    if not cmath.isfinite(total):
        detail = "is not finite"
    elif not converged:
        detail = "did not converge at the finest step"
    else:
        detail = f"carries a relative rounding error of {loss:.2g}"
    warnings.warn(f"{what} {detail}", PrecisionLoss, stacklevel=3)


# ---------------------------------------------------------------------------
# Adaptive composite Gauss-Legendre (no caller in the package; the
# benchmark's tracer in perfbench/ wraps it by name)

def _panel(f, lo: float, hi: float):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * np.sum(_GL_WEIGHTS * f(mid + half * _GL_NODES))


def _adaptive_gauss(f, lo: float, hi: float, rel_tol: float, max_panels: int = 6000):
    """Globally adaptive bisection; f must map node arrays to value arrays.

    Convergence is declared against rel_tol * |I| with a floor at the
    roundoff of the gross (unsigned) mass, so oscillatory integrands that
    cancel to near zero cannot demand sub-machine absolute accuracy.
    """
    def estimate(a, b):
        whole = _panel(f, a, b)
        m = 0.5 * (a + b)
        halves = _panel(f, a, m) + _panel(f, m, b)
        return halves, abs(whole - halves)

    value, err = estimate(lo, hi)
    counter = 0
    heap = [(-err, counter, lo, hi, value, err)]
    total = value
    total_err = err
    gross = abs(value)
    n_panels = 1
    while heap:
        bound = max(rel_tol * abs(total), 4e-16 * gross, 1e-300)
        if total_err <= bound:
            return total
        if n_panels >= max_panels:
            raise QuadratureFailure(
                f"adaptive quadrature stalled at {n_panels} panels "
                f"(err={total_err:.3g}, target={bound:.3g})"
            )
        _, _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        v1, e1 = estimate(a, m)
        v2, e2 = estimate(m, b)
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        gross += abs(v1) + abs(v2) - abs(v)
        counter += 1
        heapq.heappush(heap, (-e1, counter, a, m, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, m, b, v2, e2))
        n_panels += 1
    return total


def _tricomi_u_kummer(a: complex, b: complex, x: float) -> complex:
    """U through the two-M connection formula, summed in extended precision.

    U = G(1-b)/G(a-b+1) M(a,b,x) + G(b-1)/G(a) x^(1-b) M(a-b+1,2-b,x).
    Both M values grow like e^x while U may stay O(x^-Re(a)), so this form
    is only trustworthy for moderate x; the caller picks the crossover.
    Where the two terms cancel, eps * (|t1| + |t2|) above _U_CANCELLATION of
    |t1 + t2|, it raises _Cancelled and the caller takes U's integrals.
    """
    t1 = gamma_complex(1.0 - b) / gamma_complex(a - b + 1.0) * kummer_m(a, b, complex(x))
    try:
        inv_gamma_a = 1.0 / gamma_complex(a)
    except PoleError:
        inv_gamma_a = 0.0  # 1/Gamma vanishes at the poles, the term drops out
    t2 = (
        gamma_complex(b - 1.0)
        * inv_gamma_a
        * cmath.exp((1.0 - b) * math.log(x))
        * kummer_m(a - b + 1.0, 2.0 - b, complex(x))
    )
    total = t1 + t2
    if _EPS * (abs(t1) + abs(t2)) > _U_CANCELLATION * abs(total):
        raise _Cancelled(f"U's two M terms cancel at a = {a:.6g}, b = {b:.6g}, x = {x:.6g}")
    return total


def _u_ray_sum(a: complex, b: complex, x: float, r: float, level: int):
    """(sum, sum of |summand|) of one level's new nodes on the ray t = r + u / x, arg t = 0.

    The summand is e^{-x t} t^(a-1) (1+t)^(b-a-1) dt/ds, taken as exp(log).
    """
    log_u, log_du = _RAY_LEVELS[level]
    log_x = math.log(x)
    t = r + np.exp(log_u - log_x)
    with np.errstate(under="ignore"):
        summand = np.exp(-x * t + (a - 1.0) * np.log(t) + (b - a - 1.0) * np.log1p(t)
                         + (log_du - log_x))
    return np.sum(summand), np.sum(np.abs(summand))


def _u_circle_sum(a: complex, b: complex, x: float, r: float, panels: int):
    """(sum, sum of |summand|) of Gauss-Legendre panels on t = r e^{i theta}, theta in [0, 2 pi].

    The summand is i e^{-x t} t^a (1+t)^(b-a-1) d theta, log t = ln r + i theta.
    """
    y, w = _segment_panels(panels)
    theta = math.pi * (1.0 + y)
    t = r * np.exp(1j * theta)
    with np.errstate(under="ignore"):
        summand = (1j * math.pi) * w * np.exp(
            -x * t + a * (math.log(r) + 1j * theta) + (b - a - 1.0) * np.log1p(t))
    return np.sum(summand), np.sum(np.abs(summand))


def tricomi_u(a, b, x) -> complex:
    """Tricomi's U(a, b, x) for real x > 0.

    Up to the crossover x = 13 + 1.5 |Im(b - a)| (and b not near an integer)
    the two-M connection formula is used, M summed in extended precision.
    Past it, or where that raises, U's Hankel loop (DLMF 13.4.14)
    U = e^{-i pi a} Gamma(1-a) / (2 pi i) int_inf^(0+) f dt, with
    f(t) = e^{-x t} t^(a-1) (1+t)^(b-a-1), runs on the quadrature engine: the
    ray t = r + u / x, weighted by e^{2 pi i a} - 1, plus the circle |t| = r,
    r = min(1/2, |a-1| / x), through the saddle point (a-1)/x of
    e^{-x t} t^(a-1) and clear of t = -1.  It holds for any a but a positive
    integer, where Gamma(1-a) raises PoleError.  The ray halves its step
    and the circle doubles its panels until two estimates agree;
    PrecisionLoss is warned when either does not, or when the rounding error
    eps * sum|summand| exceeds 1e-6 of the sum (small x with Re a << 0, where
    the circle is held at r = 1/2, far from the saddle point).
    """
    if not x > 0.0:
        raise ValueError("x must be positive")
    a, b, x = complex(a), complex(b), float(x)
    crossover = 13.0 + 1.5 * abs((b - a).imag)
    b_near_pole = abs(b - complex(round(b.real))) < 0.05
    if x <= crossover and not b_near_pole:
        try:
            return _tricomi_u_kummer(a, b, x)
        except (PoleError, SeriesDivergence, _Cancelled):
            pass  # fall through to the integral

    pref = cmath.exp(-1j * math.pi * a) * gamma_complex(1.0 - a) / (2j * math.pi)
    r = min(0.5, abs(a - 1.0) / x)
    line, line_mass, line_ok = _refine(
        (_u_ray_sum(a, b, x, r, k) for k in range(_HALVINGS + 1)), _RAY_H0)
    circle, circle_mass, circle_ok = _refine(
        _u_circle_sum(a, b, x, r, 2**k) for k in range(_HALVINGS + 1))
    weight = cmath.exp(2j * math.pi * a) - 1.0
    total, mass = weight * line + circle, abs(weight) * line_mass + circle_mass
    _warn_inexact(f"tricomi_u at a = {a:.6g}, b = {b:.6g}, x = {x:.6g}", total, mass,
                  line_ok and circle_ok)
    return pref * total
