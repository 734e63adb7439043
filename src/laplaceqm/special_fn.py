"""Special functions backing the contour solver.

Hermite polynomials by their three-term recurrence, a Lanczos complex
Gamma that names z when it leaves the double range, the confluent
hypergeometric pair M and U, and the quadrature engine that Tricomi U and
the continuum routes share: nested exp-sinh node tables, Gauss-Legendre
panels, one array level driver that stops each point at its first two
estimates that agree, and a PrecisionLoss warning from the measured
rounding error.  U is the connection formula up to its crossover, and past
it U's plain Laplace ray at a shifted a and a downward recurrence in a.  M
and U take arrays, bit for bit as one point at a time: M sums its series
for every point at once, and U its ray, one array per level.
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
    """Result returned, but cancellation has likely eaten the tolerance; ``.point``: grid index."""


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
    Where Gamma or a factor of its form leaves the double range, it raises
    OverflowError naming z and that range: about |Re z| < 141, and
    |Im z| < 226 for Re z < 1/2 (the reflection's sin(pi z)), < 457 elsewhere.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleError(f"gamma pole at z={z.real:g}")
    try:
        if z.real < 0.5:
            # reflection keeps the Lanczos sum on the well-conditioned half-plane
            value = math.pi / (cmath.sin(math.pi * z) * gamma_complex(1.0 - z))
        else:
            w = z - 1.0
            acc = _LANCZOS[0]
            for i in range(1, len(_LANCZOS)):
                acc += _LANCZOS[i] / (w + i)
            t = w + _LANCZOS_G + 0.5
            value = math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * acc
        if value != 0.0 and cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    raise OverflowError(
        f"Gamma leaves the double range at z = {z:.6g}: its Lanczos form holds for about "
        "|Re z| < 141, and |Im z| < 226 for Re z < 1/2, < 457 elsewhere")


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
_KUMMER_BLOCK = 16  # terms an array call makes per point before its stop rule runs
_EPS_X = float(np.finfo(np.longdouble).eps)


def kummer_m(a, b, z):
    """Kummer's M(a, b, z) by direct series; arrays give M at every point at once.

    Accumulates in 80-bit scalars: for oscillatory z the partial terms reach
    ~e^{|z|} while the sum stays O(1), and the extra mantissa bits push the
    cancellation wall out by roughly a factor e^3 in |z|.  It stops after
    three terms in a row below 1e-15 of the sum, and warns PrecisionLoss when
    eps_x * sum|term| exceeds 1e-6 of |M|, eps_x the 80-bit epsilon.

    a, b and z broadcast together; any array among them gives a complex
    array, equal bit for bit to the scalar calls one point at a time, and
    warning point by point as they would.  If a point does not settle, it
    raises SeriesDivergence for the first such point, before any warning.
    """
    if np.ndim(a) or np.ndim(b) or np.ndim(z):
        return _kummer_grid(a, b, z)
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


def _kummer_grid(a, b, z):
    """kummer_m at every point of the broadcast a, b and z, as a complex array."""
    shape = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(z))
    a, b, z = (np.broadcast_to(np.asarray(v, dtype=complex), shape).ravel() for v in (a, b, z))
    pole = np.flatnonzero((b.imag == 0.0) & (b.real <= 0.0) & (b.real == np.round(b.real)))
    if pole.size:
        raise InvalidB(f"M undefined for b={b[pole[0]].real:g}")
    total, mass, settled = _kummer_block(*(v.astype(np.clongdouble) for v in (a, b, z)))
    if not settled.all():
        raise SeriesDivergence(f"Kummer series not settled after {_MAX_KUMMER_TERMS} terms "
                               f"(|z|={abs(z[settled.argmin()]):.3g})")
    for i in np.flatnonzero(_EPS_X * mass > _PRECISION_LOSS * np.abs(total)).tolist():
        _warn_inexact(f"kummer_m at a = {a[i]:.6g}, b = {b[i]:.6g}, z = {z[i]:.6g}",
                      total[i], mass[i], eps=_EPS_X)
    return total.astype(complex).reshape(shape)


def _kummer_block(a, b, z):
    """(total, mass, settled) of M's series at each point of the clongdouble vectors a, b, z.

    The scalar loop of kummer_m, run for the points still summing, a block
    of _KUMMER_BLOCK terms at a time: each term is made by the same
    statement, and np.add.accumulate sums totals and masses in order, so
    every point's sums are the scalar loop's bit for bit.  A point leaves
    at its third quiet term in a row; one that never does is not settled.
    """
    total, mass = np.ones(z.size, np.clongdouble), np.ones(z.size, np.longdouble)
    settled = np.zeros(z.size, bool)
    live = np.arange(z.size)
    term, quiet = total.copy(), np.zeros(z.size, int)  # quiet terms in a row, per live point
    for start in range(0, _MAX_KUMMER_TERMS, _KUMMER_BLOCK):
        js = np.arange(start, min(start + _KUMMER_BLOCK, _MAX_KUMMER_TERMS))
        a_j, b_j = a[live] + js[:, None], b[live] + js[:, None]
        z_live = z[live]
        terms = np.empty(a_j.shape, np.clongdouble)
        for r, j in enumerate(js.tolist()):
            term = term * a_j[r] / b_j[r] * z_live / (j + 1)
            terms[r] = term
        sizes = np.abs(terms)
        totals = np.add.accumulate(np.vstack([total[live], terms]), axis=0)[1:]
        masses = np.add.accumulate(np.vstack([mass[live], sizes]), axis=0)[1:]
        # rows -2 and -1 carry the quiet run the block starts with
        quiet_rows = np.vstack([quiet >= 2, quiet >= 1, sizes <= _KUMMER_STOP * np.abs(totals)])
        stops = quiet_rows[2:] & quiet_rows[1:-1] & quiet_rows[:-2]
        done = stops.any(axis=0)
        row = np.where(done, stops.argmax(axis=0), js.size - 1)
        col = np.arange(live.size)
        total[live], mass[live] = totals[row, col], masses[row, col]
        settled[live[done]] = True
        quiet = np.where(quiet_rows[-1], np.where(quiet_rows[-2], 2, 1), 0)[~done]
        live, term = live[~done], term[~done]
        if not live.size:
            break
    return total, mass, settled


# ---------------------------------------------------------------------------
# Quadrature engine: nested double-exponential levels, Gauss-Legendre panels

_EPS = float(np.finfo(float).eps)
_PRECISION_LOSS = 1e-6  # eps * sum|summand| / |sum| above this warns
_HALVINGS = 6  # a double-exponential rule halves its step at most this often
_LEVEL_SUMMANDS = 2**16  # _refine asks for a level in blocks of rows of at most this many nodes
# U's connection formula hands a point to U's ray above this rounding
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
_RAY_SIZES = tuple(log_u.size for log_u, _ in _RAY_LEVELS)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


@lru_cache(maxsize=16)
def _segment_panels(panels: int):
    """Nodes and weights of `panels` 20-point Gauss-Legendre panels on [-1, 1], read-only."""
    half = 1.0 / panels
    mids = half * (2.0 * np.arange(panels) + 1.0) - 1.0
    y = (mids[:, None] + half * _GL_NODES).ravel()
    w = np.tile(half * _GL_WEIGHTS, panels)
    return _frozen(y, w)


def _refine(level, n: int, sizes, h0=None):
    """Per stream and point, (sum, sum of |summand|, converged) at the first two sums that agree.

    level(k, rows) gives level k's (sums, sums of |summand|), each of shape
    (streams, rows.size), at the points rows of range(n), asked for in blocks
    of at most _LEVEL_SUMMANDS nodes, rows times sizes[k], or one row.  Given h0,
    level k adds the nodes of step h0 / 2^k: T_2m = T_m / 2 + h_2m * sum;
    else it is a whole estimate.  Sums agree within 1e-13 relative or 8 eps *
    sum|summand|, the finer one's rounding floor.  A stream stops at agreement
    or a non-finite sum, a point once all its streams have, the rest at the end.
    """
    live = np.arange(n)
    for k, nodes in enumerate(sizes):
        step = max(1, _LEVEL_SUMMANDS // nodes)
        total, mass = (np.concatenate(part, axis=-1) for part in zip(
            *(level(k, live[i:i + step]) for i in range(0, live.size, step))))
        if k == 0:
            out = [np.empty((len(total), n), v.dtype) for v in (total, mass, mass > 0)]
            stopped = np.zeros(total.shape, bool)
        with np.errstate(invalid="ignore", over="ignore"):  # a stopped stream's sums are dropped
            if h0 is not None:
                h = h0 / 2**k
                total, mass = ((total * h, mass * h) if k == 0
                               else (0.5 * prev + h * total, 0.5 * prev_mass + h * mass))
            finite = np.isfinite(total)
            agree = finite & (np.abs(total - prev) <= np.maximum(
                1e-13 * np.abs(total), 8.0 * _EPS * mass)) if k else finite & False
        ends = ~stopped & (agree | ~finite | (k == len(sizes) - 1))
        if np.count_nonzero(ends):  # record the streams that stop, drop the points where all have
            for whole, part in zip(out, (total, mass, agree)):
                whole[:, live] = np.where(ends, part, whole[:, live])
            stopped |= ends
            keep = ~stopped.all(axis=0)
            if not keep.any():
                return out
            live, stopped, total, mass = (v[..., keep] for v in (live, stopped, total, mass))
        prev, prev_mass = total, mass


def _warn_inexact(what: str, total, mass, converged=True, point=None, eps=_EPS) -> None:
    """Warn PrecisionLoss about what, at the caller's caller, for an inexact sum.

    Inexact means not finite, not converged, or carrying a relative rounding
    error eps * sum|summand| / |sum| above 1e-6, eps that of the sum's type;
    point, the sum's grid index, goes in the warning's ``.point``.
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
    warning = PrecisionLoss(f"{what} {detail}")
    warning.point = point
    warnings.warn(warning, stacklevel=3)


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


def _tricomi_u_kummer(a: complex, b: complex, xs) -> list:
    """U through the two-M connection formula at each x of xs, summed in extended precision.

    U = G(1-b)/G(a-b+1) M(a,b,x) + G(b-1)/G(a) x^(1-b) M(a-b+1,2-b,x).
    Both M values grow like e^x while U may stay O(x^-Re(a)), so this form
    is only trustworthy for moderate x; the caller picks the crossover.  The
    two Gamma ratios are built once a call, and one kummer_m call sums both
    series at every x, the pairs interleaved so its warnings come point by
    point.  A point whose two terms cancel, eps * (|t1| + |t2|) above
    _U_CANCELLATION of |t1 + t2|, reads None, and the caller takes U's ray
    there.  If a series does not settle, every x is summed alone, and a point
    whose series does not settle reads None.
    """
    ratio1 = gamma_complex(1.0 - b) / gamma_complex(a - b + 1.0)
    try:
        inv_gamma_a = 1.0 / gamma_complex(a)
    except PoleError:
        inv_gamma_a = 0.0  # 1/Gamma vanishes at the poles, the term drops out
    ratio2 = gamma_complex(b - 1.0) * inv_gamma_a

    def connect(x, m1, m2):
        t1 = ratio1 * m1
        t2 = ratio2 * cmath.exp((1.0 - b) * math.log(x)) * m2
        total = t1 + t2
        return None if _EPS * (abs(t1) + abs(t2)) > _U_CANCELLATION * abs(total) else total

    def alone(x):
        z = complex(x)
        try:  # a first series that does not settle skips the second
            return connect(x, kummer_m(a, b, z), kummer_m(a - b + 1.0, 2.0 - b, z))
        except SeriesDivergence:
            return None

    xs = np.asarray(xs, dtype=float)
    try:
        m = kummer_m(np.tile([a, a - b + 1.0], xs.size), np.tile([b, 2.0 - b], xs.size),
                     np.repeat(xs, 2)).tolist()
    except SeriesDivergence:
        return [alone(x) for x in xs.tolist()]
    return [connect(x, m1, m2) for x, m1, m2 in zip(xs.tolist(), m[0::2], m[1::2])]


def _u_ray_level(c: complex, b: complex, log_x, up: bool, k: int):
    """(sums, sums of |summand|), shape (1 + up, log_x.size), of level k's new nodes of U's ray.

    The summand at c, t = u / x, is e^{-x t} t^(c-1) (1+t)^(b-c-1) dt/ds, as
    exp(log); if up, the same nodes give c + 1's, that times t / (1+t).
    """
    log_u, log_du = _RAY_LEVELS[k]
    log_x = log_x[:, None]
    log_t = log_u - log_x
    t = np.exp(log_t)
    with np.errstate(under="ignore"):
        summand = np.exp(-np.exp(log_u) + (c - 1.0) * log_t + (b - c - 1.0) * np.log1p(t)
                         + (log_du - log_x))
    summands = (summand, summand * (t / (1.0 + t))) if up else (summand,)
    return [np.array([np.sum(f(s), axis=1) for s in summands]) for f in (np.asarray, np.abs)]


def tricomi_u(a, b, x):
    """Tricomi's U(a, b, x) for real x > 0; an array of x gives U at each x.

    Up to the crossover x = 13 + 1.5 |Im(b - a)| (and b not near an integer)
    the two-M connection formula is used, M summed in extended precision,
    for all such x of the array at once (see _tricomi_u_kummer).
    Past it, or where that hands a point over, U comes from its Laplace
    integral (DLMF 13.4.4) U(c, b, x) = int_0^inf e^{-x t} t^(c-1)
    (1+t)^(b-c-1) dt / Gamma(c) on the quadrature engine's ray, at
    c = a + m and c + 1, every such point's level summed as one array (see
    _refine), and then from m steps of the recurrence
    U(c-1) = (2c - b + x) U(c) - c (c - b + 1) U(c+1) (DLMF 13.3.7), stable
    downwards in c.  m is the least count with Re c > 3 + 2 |Im a|, where
    t^(Re c - 1) damps the oscillation t^(i Im a) near t = 0; m = 0 skips
    the ray at c + 1.  Gamma(c) is built once a call, so U holds for any a
    where Gamma(c) stays inside the double range (about |Im a| < 69).  The
    ray warns PrecisionLoss where it does not converge or eps * sum|summand|
    exceeds 1e-6 of the sum.  Each point has the value it has alone; the
    connection formula's warnings come first, then the ray's in point order,
    and the first point that raises stops the ray; both carry its ``.point``.
    """
    a, b = complex(a), complex(b)
    xs = np.asarray(x, dtype=float).ravel()
    crossover = 13.0 + 1.5 * abs((b - a).imag)
    b_near_pole = abs(b - complex(round(b.real))) < 0.05
    kummer = [None] * xs.size
    branch = [] if b_near_pole else np.flatnonzero((xs > 0.0) & (xs <= crossover)).tolist()
    if branch:
        try:
            for i, value in zip(branch, _tricomi_u_kummer(a, b, xs[branch])):
                kummer[i] = value
        except PoleError:
            pass  # every point takes the ray
    values = np.array([0j if v is None else v for v in kummer], dtype=complex)
    ray = [i for i, v in enumerate(kummer) if v is None]
    m = max(0, math.floor(3.0 + 2.0 * abs(a.imag) - a.real) + 1)
    c, up = a + m, m > 0  # U(c + 1) is needed only to recur
    x_ray = xs[ray]
    u = np.zeros((2, len(ray)), dtype=complex)  # U(c) and U(c + 1) at each ray point
    for j, i in enumerate(ray):
        try:
            if not xs[i] > 0.0:
                raise ValueError("x must be positive")
            if j == 0:  # Gamma(c), then the levels of every ray point at once; x <= 0 raises above
                inv_gamma = 1.0 / gamma_complex(c)
                log_x = np.array([math.log(v) if v > 0.0 else 0.0 for v in x_ray.tolist()])
                u[:1 + up], mass, ok = _refine(lambda k, rows: _u_ray_level(
                    c, b, log_x[rows], up, k), len(ray), _RAY_SIZES, _RAY_H0)
            for s in range(1 + up):
                _warn_inexact(f"tricomi_u at a = {a:.6g}, b = {b:.6g}, x = {xs[i]:.6g} (ray at "
                              f"c = {c + s:.6g})", u[s, j], mass[s, j], ok[s, j], i)
        except Exception as exc:
            exc.point = i
            raise
    if ray:
        u_c, u_up = u * np.array([[inv_gamma], [inv_gamma / c]])
        for k in range(m, 0, -1):  # from (U(a+k), U(a+k+1)) to (U(a+k-1), U(a+k))
            c_k = a + k
            u_c, u_up = (2.0 * c_k - b + x_ray) * u_c - c_k * (c_k - b + 1.0) * u_up, u_c
        values[ray] = u_c
    return values.reshape(np.shape(x)) if np.ndim(x) else complex(values[0])
