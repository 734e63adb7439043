"""Seeded operation lists for the three benchmark workloads.

An operation is one ``laplaceqm`` command line.  Each workload is one pass:
a fixed layout of strata whose parameters the seed draws inside narrow
ranges, then shuffles.  The layout, not the seed, fixes how many operations
of each shape a pass holds, so cost and failure mix do not swing with the
seed while the inputs still change.  The program sees only ``Op.argv``;
``Op.params`` is what the oracle needs to know about the same inputs.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, NamedTuple, Tuple


class Op(NamedTuple):
    argv: Tuple[str, ...]
    params: Dict[str, object]


def _op(command: str, kind: str, params: Dict[str, object], grid=None) -> Op:
    """One command line; params keep the values exactly as the CLI parses them."""
    params = {k: round(v, 6) if isinstance(v, float) else v for k, v in params.items()}
    argv = [command, "--kind", kind]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    if grid is not None:
        lo, hi, count = round(grid[0], 6), round(grid[1], 6), grid[2]
        argv.append(f"--grid={lo},{hi},{count}")
        params["grid"] = (lo, hi, count)
    return Op(tuple(argv), dict(params, command=command, kind=kind))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng: random.Random, k: int, lo: float, hi: float, log: bool = False) -> List[float]:
    """k draws, the i-th uniform inside the i-th of k equal slices of [lo, hi]."""
    if log:
        return [math.exp(v) for v in _strata(rng, k, math.log(lo), math.log(hi))]
    width = (hi - lo) / k
    return [lo + width * (i + rng.random()) for i in range(k)]


# ---------------------------------------------------------------------------
# continuum_validate: the three-route cross-check on the four non-Morse
# continuum kinds.  free3d's circle takes the degenerate segment shortcut;
# free2d (half-odd alpha_plus) and the Coulomb kinds take the full
# tracked-phase circle.  Point counts are fixed per band because the circle's
# cost is a fixed 100000 steps per point.


CONTINUUM_KINDS = ("free2d", "free3d", "coulomb2d_cont", "coulomb3d_cont")


def _validate_op(rng: random.Random, kind: str, q: int, energy: float, band: str) -> Op:
    key = "m" if kind in ("free2d", "coulomb2d_cont") else "l"
    if band == "window":  # trusted window, all three routes must agree
        grid = (rng.uniform(0.5, 1.0), rng.uniform(8.0, 10.0), 5)
    else:  # into the onset region, where only the real integral holds
        grid = (rng.uniform(0.5, 2.0), rng.uniform(30.0, 40.0), 8)
    return _op("validate", kind, {"E": energy, key: q}, grid)


def continuum_validate(rng: random.Random) -> Tuple[Op, List[Op]]:
    warm = _validate_op(rng, "coulomb3d_cont", 1, _log_uniform(rng, 0.25, 4.0), "window")
    ops = []
    for k, kind in enumerate(CONTINUUM_KINDS):
        energies = _strata(rng, 6, 0.25, 4.0, log=True)
        for j, (q, band) in enumerate((q, b) for q in (0, 1, 2) for b in ("window", "onset")):
            ops.append(_validate_op(rng, kind, q, energies[(5 * j + k) % 6], band))
    rng.shuffle(ops)
    return warm, ops


# ---------------------------------------------------------------------------
# morse_scan: Morse continuum states by the ray route (mu = a = 1, so
# xi = 2 sqrt(2 V0) e^{-x}).  Grids are placed by their xi end points.
# An operation's time is nearly proportional to its point count, so point
# counts come from log-spaced strata, each tied to one slot.  The latencies
# of a pass then spread smoothly over a decade instead of piling up in a
# narrow cluster, and the median and the 90th percentile move in proportion
# when the machine slows for part of a run, instead of jumping from the
# cluster's fast edge to its slow one.  The grid ends are drawn in narrow
# ranges because they set the share of costly barrier-side points, so that
# the seed does not reorder the costliest operations, where p90 falls.


def _morse_op(rng: random.Random, v0: float, energy: float, xi_first: float,
              count: int = 61) -> Op:
    two_delta = 2.0 * math.sqrt(2.0 * v0)
    xi_last = rng.uniform(0.05, 0.08)
    grid = (math.log(two_delta / xi_first), math.log(two_delta / xi_last), count)
    return _op("wavefunction", "morse_cont", {"E": energy, "V0": v0}, grid)


def morse_scan(rng: random.Random) -> Tuple[Op, List[Op]]:
    warm = _morse_op(rng, 1.2, 1.0, 60.0)
    ops = []
    # wells up to the deep V0 = 40, free side only (xi <= 10: Kummer branch),
    # 11 to 91 points.  The most numerous operations: the median falls
    # among them.
    v0s, energies = _strata(rng, 48, 2.0, 40.0, log=True), _strata(rng, 48, 0.1, 10.0, log=True)
    counts = _strata(rng, 48, 11.0, 92.0, log=True)
    for i in range(48):
        ops.append(_morse_op(rng, v0s[(5 * i) % 48], energies[(11 * i) % 48],
                             rng.uniform(8.0, 10.0), int(counts[i])))
    # shallow wells from the barrier side to the free side: tricomi_u on
    # both branches (continued integral past xi ~ 13, Kummer below), 11 to
    # 81 points.  The 90th percentile falls among them, so there are enough
    # of them that neighbouring latencies there lie a few percent apart.
    v0s, energies = _strata(rng, 30, 1.0, 1.4), _strata(rng, 30, 0.1, 10.0, log=True)
    counts = _strata(rng, 30, 11.0, 82.0, log=True)
    for i in range(30):
        ops.append(_morse_op(rng, v0s[(7 * i) % 30], energies[(11 * i) % 30],
                             rng.uniform(78.0, 82.0), int(counts[i])))
    # the deep well V0 = 40, E = 1 reaching the barrier side, where the ray
    # route stalls at the 6000-panel cap and fails with QuadratureFailure.
    # Fixed, not drawn, because that one operation is most of a pass's time.
    ops.append(_morse_op(rng, 40.0, 1.0, 45.0))
    rng.shuffle(ops)
    return warm, ops


# ---------------------------------------------------------------------------
# bound_cli: spectrum plus two states on each kind's default route, for all
# eight bound kinds.  Grid sizes come from 16 strata over 81..1001 points,
# each tied to one (kind, level band) slot, so the per-point CLI cost of a
# pass and its latency percentiles do not hinge on how the seed pairs them.


BOUND_KINDS = ("sho1d_even", "sho1d_odd", "sho2d", "sho3d",
               "coulomb2d", "coulomb3d", "morse", "sho1d_hermite")


def _bound_params(rng: random.Random, kind: str) -> Tuple[Dict[str, object], int]:
    """Physical parameters and the smallest printed level label."""
    if kind == "morse":  # V0 >= 8 and a <= 1.25 hold at least two levels
        return {"V0": rng.uniform(8.0, 40.0), "a": rng.uniform(0.8, 1.25)}, 0
    if kind.startswith("coulomb"):
        q = rng.randint(0, 2)
        key = "m" if kind == "coulomb2d" else "l"
        return {key: q, "a0": rng.uniform(0.8, 1.25)}, q + 1
    params: Dict[str, object] = {"omega": rng.uniform(0.5, 2.0), "mu": rng.uniform(0.5, 2.0)}
    if kind == "sho2d":
        params["m"] = rng.randint(0, 2)
    elif kind == "sho3d":
        params["l"] = rng.randint(0, 2)
    return params, 0


def _extent(kind: str, params: Dict[str, object], n: int) -> Tuple[float, float]:
    """A coordinate window that holds the state and some of its tail."""
    if kind == "morse":
        a = params["a"]
        two_delta = 2.0 * math.sqrt(2.0 * params["V0"]) / a
        return math.log(two_delta / 60.0) / a, math.log(two_delta / 0.05) / a
    if kind.startswith("coulomb"):
        return 0.0, params["a0"] * (2.0 * n * n + 6.0)
    width = math.sqrt((4.0 * n + 10.0) / (params["mu"] * params["omega"]))
    if kind in ("sho2d", "sho3d"):
        return 0.0, width
    return -width, width


def bound_cli(rng: random.Random) -> Tuple[Op, List[Op]]:
    counts = [int(c) for c in _strata(rng, 16, 81.0, 1002.0)]
    ops = []
    warm = None
    for k, kind in enumerate(BOUND_KINDS):
        params, lo = _bound_params(rng, kind)
        ops.append(_op("spectrum", kind, dict(params, n_max=lo + rng.randint(3, 8))))
        # a lower-level state on a smaller grid, a higher one on a larger grid
        bands = ((0,), (1,)) if kind == "morse" else ((0, 1), (2, 3))
        for band, count in zip(bands, (counts[(5 * k) % 8], counts[8 + (3 * k) % 8])):
            n = lo + rng.choice(band)
            ops.append(_op("wavefunction", kind, dict(params, n=n),
                           _extent(kind, params, n) + (count,)))
        if kind == "coulomb3d":
            warm = _op("wavefunction", kind, dict(params, n=lo + 1),
                       _extent(kind, params, lo + 1) + (81,))
    rng.shuffle(ops)
    return warm, ops


WORKLOADS: Dict[str, Callable[[random.Random], Tuple[Op, List[Op]]]] = {
    "continuum_validate": continuum_validate,
    "morse_scan": morse_scan,
    "bound_cli": bound_cli,
}


def generate(workload: str, seed: int) -> Tuple[Op, List[Op]]:
    """(warm-up op, one pass of ops) for a workload; same seed, same ops."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
