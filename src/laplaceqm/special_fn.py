"""Special functions backing the contour solver.

Closed-form Laguerre/Hermite polynomials (valid for arbitrary real
superscript, including values at and below -1), a Lanczos complex Gamma,
the confluent hypergeometric pair M and U, and a small adaptive
Gauss-Legendre engine that Tricomi U integrates with.
"""

from __future__ import annotations

import cmath
import heapq
import math
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
# Orthogonal-polynomial closed forms

@lru_cache(maxsize=None)
def _laguerre_coeff_tuple(order: int, superscript: float):
    out = []
    for k in range(order + 1):
        binom = 1.0  # C(order+b, order-k) as a running product: safe for b <= -1
        for i in range(1, order - k + 1):
            binom *= (superscript + k + i) / i
        out.append((-1.0) ** k / math.factorial(k) * binom)
    return tuple(out)


def laguerre_coefficients(order: int, superscript: float) -> np.ndarray:
    """Ascending coefficients of L_N^(b); b may be any real number."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return np.array(_laguerre_coeff_tuple(order, float(superscript)))


def laguerre(order: int, superscript: float, x):
    """Generalized Laguerre L_N^(b)(x) from the closed-form coefficients."""
    c = _laguerre_coeff_tuple(order, float(superscript))
    acc = 0.0 * np.asarray(x, dtype=float) + c[-1]
    for k in range(order - 1, -1, -1):
        acc = acc * x + c[k]
    return acc if np.ndim(x) else float(acc)


@lru_cache(maxsize=None)
def hermite_coefficients(n: int):
    """Ascending integer coefficients of the physicists' H_n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        # n!/(k!(n-2k)!) is integral, so // is exact here
        coeffs[n - 2 * k] = (
            (-1) ** k
            * (math.factorial(n) // (math.factorial(k) * math.factorial(n - 2 * k)))
            * 2 ** (n - 2 * k)
        )
    return tuple(coeffs)


def hermite(n: int, x):
    """Physicists' Hermite H_n(x)."""
    c = hermite_coefficients(n)
    acc = 0.0 * np.asarray(x, dtype=float) + c[-1]
    for k in range(n - 1, -1, -1):
        acc = acc * x + c[k]
    return acc if np.ndim(x) else float(acc)


def laguerre_hermite_identity_residual(n: int, x):
    """Pointwise defect of both halves of the Hermite-Laguerre reduction.

    Even half: H_{2n}(x) - (-4)^n n! L_n^(-1/2)(x^2); odd half:
    H_{2n+1}(x) - 2(-4)^n n! x L_n^(1/2)(x^2). Returns the larger |defect|.
    """
    scale = (-4.0) ** n * math.factorial(n)
    xs = np.asarray(x, dtype=float)
    even = hermite(2 * n, xs) - scale * laguerre(n, -0.5, xs * xs)
    odd = hermite(2 * n + 1, xs) - 2.0 * scale * xs * laguerre(n, 0.5, xs * xs)
    res = np.maximum(np.abs(even), np.abs(odd))
    return res if np.ndim(x) else float(res)


# ---------------------------------------------------------------------------
# Confluent hypergeometric M (Kummer) and U (Tricomi)

_MAX_KUMMER_TERMS = 1000


def kummer_m(a, b, z, tol: float = 1e-15) -> complex:
    """Kummer's M(a, b, z) by direct series.

    Accumulates in 80-bit scalars: for oscillatory z the partial terms reach
    ~e^{|z|} while the sum stays O(1), and the extra mantissa bits push the
    cancellation wall out by roughly a factor e^3 in |z|.
    """
    b = complex(b)
    if b.imag == 0.0 and b.real <= 0.0 and b.real == round(b.real):
        raise InvalidB(f"M undefined for b={b.real:g}")
    a_x = np.clongdouble(complex(a))
    b_x = np.clongdouble(b)
    z_x = np.clongdouble(complex(z))
    term = np.clongdouble(1.0)
    total = np.clongdouble(1.0)
    quiet = 0
    for j in range(_MAX_KUMMER_TERMS):
        term = term * (a_x + j) / (b_x + j) * z_x / (j + 1)
        total = total + term
        # three quiet terms in a row, not one: parity cancellations can make
        # a single term dip below tolerance long before the tail is spent
        if abs(term) <= tol * abs(total):
            quiet += 1
            if quiet >= 3:
                return complex(total)
        else:
            quiet = 0
    raise SeriesDivergence(
        f"Kummer series not settled after {_MAX_KUMMER_TERMS} terms (|z|={abs(z):.3g})"
    )


# ---------------------------------------------------------------------------
# Adaptive composite Gauss-Legendre (Tricomi U's integral)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


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
    return t1 + t2


def tricomi_u(a, b, x, tol: float = 1e-10) -> complex:
    """Tricomi's U(a, b, x) for real x > 0.

    Two complementary evaluations, switched on x.  For moderate x the
    two-M connection formula is used (M summed in extended precision); its
    e^x-sized cancellation is harmless there.  For large x the Laplace-type
    integral takes over: after t = s/(1-s),
        Gamma(a) U(a, b, x) = int_0^1 e^{-x s/(1-s)} s^{a-1} (1-s)^{-b} ds,
    with the s=0 end continued to Re(a) <= 0 by subtracting a short Taylor
    polynomial of the regular factor and integrating it in closed form.
    The crossover grows with Im(b - a) because the integral's subtraction
    pieces stay O(1) while U itself shrinks like e^{-pi Im(b-a)/2}.
    """
    if not x > 0.0:
        raise ValueError("x must be positive")
    a = complex(a)
    b = complex(b)
    x = float(x)

    crossover = 13.0 + 1.5 * abs((b - a).imag)
    b_near_pole = abs(b - complex(round(b.real))) < 0.05
    if x <= crossover and not b_near_pole:
        try:
            return _tricomi_u_kummer(a, b, x)
        except (PoleError, SeriesDivergence):
            pass  # fall through to the integral
    n_sub = max(0, math.ceil(1.5 - a.real))
    for j in range(n_sub):
        if abs(a + j) < 1e-12:
            raise QuadratureFailure(
                f"continuation pole at a={a:g}; integer-a continuation not provided"
            )

    # Taylor coefficients of g(s) = e^{-x s/(1-s)} (1-s)^{-b} at s=0:
    # (j+1) c_{j+1} = (b - x + 2j) c_j - (b + j - 1) c_{j-1}
    c = [complex(1.0)]
    for j in range(n_sub):
        prev = c[j - 1] if j >= 1 else 0.0
        c.append(((b - x + 2.0 * j) * c[j] - (b + j - 1.0) * prev) / (j + 1.0))

    split = 0.5 if x <= 2.0 * max(n_sub, 1) else max(n_sub, 1) / x

    def g_log(s):
        return -x * s / (1.0 - s) - b * np.log1p(-s)

    def integrand_main(s):
        logv = g_log(s) + (a - 1.0) * np.log(s)
        out = np.exp(np.where(logv.real < -745.0, -745.0, logv))
        out[logv.real < -745.0] = 0.0
        return out

    def integrand_subtracted(s):
        s_x = s.astype(np.longdouble)
        g = np.exp((-x * s_x / (1.0 - s_x)).astype(np.clongdouble)
                   - np.clongdouble(b) * np.log1p(-s_x).astype(np.clongdouble))
        taylor = np.zeros_like(g)
        for j in range(n_sub - 1, -1, -1):
            taylor = taylor * s_x + np.clongdouble(c[j])
        power = np.exp(np.clongdouble(a - 1.0) * np.log(s_x).astype(np.clongdouble))
        return ((g - taylor) * power).astype(complex)

    analytic = complex(0.0)
    for j in range(n_sub):
        analytic += c[j] * cmath.exp((a + j) * math.log(split)) / (a + j)

    if n_sub:
        near = _adaptive_gauss(integrand_subtracted, 0.0, split, tol)
    else:
        near = _adaptive_gauss(integrand_main, 0.0, split, tol)
        analytic = 0.0
    far = _adaptive_gauss(integrand_main, split, 1.0, tol)
    return (analytic + near + far) / gamma_complex(a)
