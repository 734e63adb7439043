"""Cross-checks that the contour routes must pass.

Route-against-route comparison on a shared grid, spectrum tables, and
Bessel-series oracles implemented independently of the code under test.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .contour_eval import (
    ROUTES, ContourConfig, Method, MethodRegimeMismatch, _check_method, phi_values)
from .potential_catalog import (
    BOUND_KINDS,
    CONTINUUM_KINDS,
    InvalidQuantumNumbers,
    NotBoundProblem,
    ProblemSpec,
    QuantumNumbers,
    bound_energy,
    canonicalize,
    n_start,
)
from .special_fn import PrecisionLoss

_REFERENCE_FLOOR = 1e-12  # below this the reference is treated as a zero crossing
_ONSET_THRESHOLD = 1e-3
_ONSET_RUN = 3  # consecutive exceedances that count as persistent failure


@dataclass(frozen=True)
class ComparisonReport:
    """Route-against-route comparison on one grid.

    Deviations are measured against the reference route (the real segment
    integral) and only where its magnitude exceeds a floor and it neither
    failed nor warned PrecisionLoss, so zero crossings and garbage do not
    inflate the statistics.  pairwise_rel_dev[(a, b)] holds
    |Phi_a - Phi_b| / |Phi_ref| at each grid point, NaN where the reference or
    either value is unusable; pairwise_max_rel_dev is its maximum over all
    pairs, NaN when no point is usable (a comparison of nothing shows no
    agreement).  failure_onset_xi[m] is the smallest grid xi at which route m
    deviates from the reference by more than 1e-3 relative at three
    consecutive usable points, or None if it never does; for the reference
    itself it is the first grid xi where it failed or warned PrecisionLoss.
    """

    problem: ProblemSpec
    energy: float
    grid: Tuple[float, ...]
    values: Dict[Method, np.ndarray]
    pairwise_rel_dev: Dict[Tuple[Method, Method], np.ndarray]
    pairwise_max_rel_dev: float
    failure_onset_xi: Dict[Method, Optional[float]]
    reference: Method = Method.REAL_INTEGRAL


def _onset(
    grid: Sequence[float], vals: np.ndarray, ref: np.ndarray
) -> Optional[float]:
    run = 0
    for i in range(len(grid)):
        r, v = ref[i], vals[i]
        if not np.isfinite(r) or abs(r) < _REFERENCE_FLOOR:
            run = 0
            continue
        dev = abs(v - r) / abs(r) if np.isfinite(v) else math.inf  # a failure exceeds
        run = run + 1 if dev > _ONSET_THRESHOLD else 0
        if run == _ONSET_RUN:
            return float(grid[i - (_ONSET_RUN - 1)])
    return None


def _route_phi(spec, energy, xi, method, config) -> Tuple[np.ndarray, np.ndarray]:
    """(Phi by method at each xi, NaN where it fails; where a PrecisionLoss's ``.point`` is).

    After a call fails at ``.point``, the points before it are taken again, silenced as they
    warned already, and the next resumes after it; a failure naming no point fails the rest.
    """
    start, values, warned = 0, np.full(xi.shape, complex(np.nan, np.nan)), np.zeros(xi.shape, bool)
    while start < xi.size:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", PrecisionLoss)
            try:
                values[start:] = phi_values(spec, energy, xi[start:], method, config)
                failed = xi.size
            except Exception as exc:
                failed = start + getattr(exc, "point", xi.size - start)
        for w in caught:
            if getattr(w.message, "point", None) is not None:
                warned[start + w.message.point] = True
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
        if start < failed < xi.size:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                values[start:failed] = phi_values(spec, energy, xi[start:failed], method, config)
        start = failed + 1
    return values, warned


def cross_method_report(
    spec: ProblemSpec,
    energy: float,
    grid: Sequence[float],
    cfg: Optional[ContourConfig] = None,
) -> ComparisonReport:
    """Evaluate the three continuum routes on one grid and compare them.

    Each route is called once per grid and once after each failed point (see
    _route_phi).  Evaluation errors are recorded as NaN at the offending point
    rather than aborting the report; they count as failures for onset
    detection.  An energy the kind does not admit raises RegimeMismatch, and a
    cfg the circle does not read MethodRegimeMismatch, before any route runs.
    """
    if spec.kind not in CONTINUUM_KINDS:
        raise MethodRegimeMismatch(
            "cross-method comparison needs a non-Morse continuum kind, "
            f"got {spec.kind.value}"
        )
    canonicalize(spec, energy)  # input errors propagate; route errors become NaN
    _check_method(spec, Method.CIRCLE, energy, cfg)
    methods = ROUTES[spec.kind]
    xi = np.asarray(list(grid), dtype=float)
    values, warned = {}, {}  # per route: Phi, and where it warned PrecisionLoss
    for m in methods:
        values[m], warned[m] = _route_phi(spec, energy, xi, m, cfg if m is Method.CIRCLE else None)

    ref = values[Method.REAL_INTEGRAL]
    reliable = np.isfinite(ref) & ~warned[Method.REAL_INTEGRAL]
    ok = reliable & (np.abs(ref) > _REFERENCE_FLOOR)
    deviations: Dict[Tuple[Method, Method], np.ndarray] = {}
    for i, a in enumerate(methods):
        for b in methods[i + 1 :]:
            va, vb = values[a], values[b]
            both = ok & np.isfinite(va) & np.isfinite(vb)
            dev = np.full(xi.shape, np.nan)
            dev[both] = np.abs(va[both] - vb[both]) / np.abs(ref[both])
            deviations[(a, b)] = dev
    stacked = np.stack(list(deviations.values()))
    usable = stacked[~np.isnan(stacked)]
    worst = float(np.max(usable)) if usable.size else math.nan

    first_unreliable = np.flatnonzero(~reliable)
    onsets: Dict[Method, Optional[float]] = {
        Method.REAL_INTEGRAL: float(xi[first_unreliable[0]]) if first_unreliable.size else None
    }
    for m in (Method.CIRCLE, Method.SERIES):
        onsets[m] = _onset(xi, values[m], np.where(reliable, ref, np.nan))

    return ComparisonReport(
        problem=spec,
        energy=float(energy),
        grid=tuple(float(x) for x in xi),
        values=values,
        pairwise_rel_dev=deviations,
        pairwise_max_rel_dev=worst,
        failure_onset_xi=onsets,
    )


# ---------------------------------------------------------------------------
# Spectrum enumeration


def spectrum_table(
    spec: ProblemSpec, n_max: int
) -> List[Tuple[QuantumNumbers, float]]:
    """Bound energies for n from the lowest admissible value up to n_max.

    The Morse list stops at the last level below the dissociation threshold
    even when n_max asks for more.
    """
    if spec.kind not in BOUND_KINDS:
        raise NotBoundProblem(f"{spec.kind.value} is not a bound problem")
    lo = n_start(spec)
    rows: List[Tuple[QuantumNumbers, float]] = []
    for n in range(lo, max(n_max, lo - 1) + 1):
        try:
            e = bound_energy(spec, n)
        except InvalidQuantumNumbers:
            break  # past the Morse well depth
        rows.append((QuantumNumbers(n=n, N=n - lo), e))
    return rows


# ---------------------------------------------------------------------------
# Independent Bessel oracles (ascending series, no shared code with the
# routes under test)

_SERIES_TERMS = 200  # a cap: each series stops once its term is below 1e-18 of the sum


def bessel_j_series(m: int, x: float) -> float:
    """J_m(x) by its ascending series; adequate for moderate x."""
    if m < 0:
        raise ValueError("order must be nonnegative")
    term = (0.5 * x) ** m / math.factorial(m)
    acc = term
    q = -0.25 * x * x
    for j in range(1, _SERIES_TERMS):
        term *= q / (j * (j + m))
        acc += term
        if abs(term) < 1e-18 * max(abs(acc), 1e-300):
            break
    return acc


def spherical_j_series(l: int, x: float) -> float:
    """j_l(x) by its ascending series."""
    if l < 0:
        raise ValueError("order must be nonnegative")
    dfact = 1.0  # (2l+1)!!
    for k in range(1, 2 * l + 2, 2):
        dfact *= k
    term = x**l / dfact
    acc = term
    for j in range(1, _SERIES_TERMS):
        term *= -0.5 * x * x / (j * (2 * l + 2 * j + 1))
        acc += term
        if abs(term) < 1e-18 * max(abs(acc), 1e-300):
            break
    return acc
