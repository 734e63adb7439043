"""Full-system acceptance gate.

Nine end-to-end checks, one per headline capability. Each test prints a
single ``ACCEPTANCE n PASS|FAIL`` line (run with ``pytest -s`` to see them
on success) and enforces the stated runtime budget where one applies.
"""

import cmath
import math
import time
import warnings

import numpy as np
import pytest

from laplaceqm.contour_eval import (
    Method,
    bound_phi_residue,
    hermite_phi_residue,
    phase_phi1,
    phase_phi2,
    phi_values,
    sample_wavefunction,
)
from laplaceqm.core_laplace import exponents
from laplaceqm.potential_catalog import (
    BOUND_KINDS,
    Kind,
    ProblemSpec,
    canonicalize,
    morse_delta,
    residue_lattice_energy,
)
from laplaceqm.special_fn import kummer_m
from laplaceqm.validation import (
    bessel_j_series,
    cross_method_report,
    spherical_j_series,
)

from ode_residual import ode_residual_sweep


class _Gate:
    """Prints the ACCEPTANCE verdict line even when an assert trips."""

    def __init__(self, number):
        self.number = number

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {verdict}")
        return False


def laguerre_by_recurrence(order, b, y):
    """Three-term-recurrence evaluation of L_order^(b)(y), used as oracle."""
    prev = 1.0 + 0j
    if order == 0:
        return prev
    cur = 1.0 + b - y
    for k in range(1, order):
        prev, cur = cur, ((2 * k + 1 + b - y) * cur - (k + b) * prev) / (k + 1)
    return cur


def hermite_by_recurrence(n):
    """Integer coefficient rows of H_n from H_{k+1} = 2xH_k - 2kH_{k-1}."""
    rows = [[1], [0, 2]]
    while len(rows) <= n:
        k = len(rows) - 1
        nxt = [0] + [2 * c for c in rows[-1]]
        for j, c in enumerate(rows[-2]):
            nxt[j] -= 2 * k * c
        rows.append(nxt)
    return rows[n]


_LAGUERRE_BOUND_CASES = [
    (Kind.SHO1D_EVEN, {}),
    (Kind.SHO1D_ODD, {}),
    (Kind.SHO2D, {"m_quantum": 1}),
    (Kind.SHO3D, {"l_quantum": 2}),
    (Kind.COULOMB2D, {"m_quantum": 1}),
    (Kind.COULOMB3D, {"l_quantum": 1}),
    (Kind.MORSE, {"morse_v0": 40.0}),
]


def test_bound_spectra_match_closed_forms():
    """1: every catalog level formula, n <= 10, |m| <= 3, l <= 3, under 1 s."""
    with _Gate(1):
        start = time.perf_counter()
        param_sets = [
            dict(mu=1.0, omega=1.0, a0=1.0, morse_a=1.0, morse_v0=72.0),
            dict(mu=1.7, omega=2.3, a0=0.8, morse_a=1.4, morse_v0=75.0),
        ]
        checked = 0
        for p in param_sets:
            mu, w, a0 = p["mu"], p["omega"], p["a0"]
            aa, v0 = p["morse_a"], p["morse_v0"]
            delta = math.sqrt(2.0 * mu * v0) / aa

            def close(spec, n, want):
                got = spec_energy(spec, n)
                assert got == pytest.approx(want, rel=1e-12)

            def spec_energy(spec, n):
                from laplaceqm.potential_catalog import bound_energy
                return bound_energy(spec, n)

            for n in range(11):
                close(ProblemSpec(Kind.SHO1D_EVEN, mu=mu, omega=w), n,
                      w * (2 * n + 0.5))
                close(ProblemSpec(Kind.SHO1D_ODD, mu=mu, omega=w), n,
                      w * (2 * n + 1.5))
                close(ProblemSpec(Kind.SHO1D_HERMITE, mu=mu, omega=w), n,
                      w * (n + 0.5))
                assert n + 0.5 < delta
                close(ProblemSpec(Kind.MORSE, mu=mu, morse_a=aa, morse_v0=v0),
                      n, -(aa**2 / (2.0 * mu)) * (delta - n - 0.5) ** 2)
                checked += 4
                for m in range(-3, 4):
                    close(ProblemSpec(Kind.SHO2D, mu=mu, omega=w, m_quantum=m),
                          n, w * (2 * n + abs(m) + 1))
                    checked += 1
                    if n >= abs(m) + 1:
                        close(ProblemSpec(Kind.COULOMB2D, mu=mu, a0=a0,
                                          m_quantum=m),
                              n, -1.0 / (2.0 * mu * a0**2 * (n - 0.5) ** 2))
                        checked += 1
                for l in range(4):
                    close(ProblemSpec(Kind.SHO3D, mu=mu, omega=w, l_quantum=l),
                          n, w * (2 * n + l + 1.5))
                    checked += 1
                    if n >= l + 1:
                        close(ProblemSpec(Kind.COULOMB3D, mu=mu, a0=a0,
                                          l_quantum=l),
                              n, -1.0 / (2.0 * mu * a0**2 * n**2))
                        checked += 1
        assert checked > 500
        assert time.perf_counter() - start < 1.0


def test_residue_route_reduces_to_laguerre_times_exponential():
    """2: residue result / (e^{-lam xi} L_N) is xi-independent, under 10 s."""
    with _Gate(2):
        start = time.perf_counter()
        xis = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
        for kind, params in _LAGUERRE_BOUND_CASES:
            spec = ProblemSpec(kind=kind, **params)
            for N in range(9):
                ode = canonicalize(spec, residue_lattice_energy(spec, N))
                lam = complex(ode.lam)
                phi = bound_phi_residue(ode, N, xis)
                oracle = np.array([
                    cmath.exp(-lam * x)
                    * laguerre_by_recurrence(N, ode.beta - 1.0, 2.0 * lam * x)
                    for x in xis
                ])
                # a sample xi can land on a polynomial node (both sides
                # vanish); compare the ratio away from nodes and make the
                # residue route share each node it skips
                keep = np.abs(oracle) > 1e-8 * np.max(np.abs(oracle))
                assert np.count_nonzero(keep) >= 3
                ratio = phi[keep] / oracle[keep]
                mean = ratio.mean()
                spread = np.max(np.abs(ratio - mean)) / abs(mean)
                assert spread <= 1e-9, (kind, N, spread)
                if not np.all(keep):
                    node_phi = np.max(np.abs(phi[~keep]))
                    assert node_phi <= 1e-9 * np.max(np.abs(phi))
        assert time.perf_counter() - start < 10.0


def test_hermite_route_exact_and_identity_holds():
    """3: Hermite route integer-exact at integer xi; reduction identity to 1e-9."""
    with _Gate(3):
        for n in range(13):
            for x in range(-3, 4):
                coeffs = hermite_by_recurrence(n)
                horner = 0
                for c in reversed(coeffs):
                    horner = horner * x + c
                assert hermite_phi_residue(n, float(x)) == horner

        # identity residual, normalized by the polynomial magnitude: the
        # raw defect on values of size ~1e8 is pure float64 roundoff
        from laguerre_closed_form import laguerre_hermite_identity_residual
        from laplaceqm.special_fn import hermite
        xs = np.linspace(-3.0, 3.0, 61)
        for n in range(7):
            defect = laguerre_hermite_identity_residual(n, xs)
            scale = np.maximum.reduce([
                np.abs(hermite_phi_residue(2 * n, xs)),
                np.abs(hermite_phi_residue(2 * n + 1, xs)),
                np.ones_like(xs),
            ])
            assert np.max(defect / scale) <= 1e-9, n


def test_three_continuum_routes_cross_validate():
    """4: routes agree to 1e-6 on xi <= 10; known failure onsets, under 2 min."""
    with _Gate(4):
        start = time.perf_counter()
        spec = ProblemSpec(kind=Kind.COULOMB3D_CONT)
        for energy in (0.1, 1.0, 10.0):
            agree = cross_method_report(spec, energy,
                                        np.linspace(0.1, 10.0, 41))
            assert agree.pairwise_max_rel_dev <= 1e-6, energy
            assert all(v is None for v in agree.failure_onset_xi.values())

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                onset = cross_method_report(spec, energy,
                                            np.arange(10.0, 40.01, 0.25))
            series_onset = onset.failure_onset_xi[Method.SERIES]
            circle_onset = onset.failure_onset_xi[Method.CIRCLE]
            assert series_onset is not None and 15.0 <= series_onset <= 25.0
            assert circle_onset is not None and 25.0 <= circle_onset <= 40.0
        assert time.perf_counter() - start < 120.0


def test_every_kind_method_pair_solves_its_equation():
    """5: finite-difference residual below 1e-4 for all 21 route pairings."""
    with _Gate(5):
        grid = np.linspace(0.1, 10.0, 12)
        for kind, params in _LAGUERRE_BOUND_CASES:
            spec = ProblemSpec(kind=kind, **params)
            n = 2 if kind is not Kind.COULOMB2D else 3
            if kind is Kind.COULOMB3D:
                n = 3
            assert ode_residual_sweep(spec, n, Method.RESIDUE, grid) <= 1e-4
        hermite_spec = ProblemSpec(kind=Kind.SHO1D_HERMITE)
        assert ode_residual_sweep(hermite_spec, 3, Method.RESIDUE, grid) <= 1e-4
        for kind in (Kind.FREE2D, Kind.FREE3D,
                     Kind.COULOMB2D_CONT, Kind.COULOMB3D_CONT):
            spec = ProblemSpec(kind=kind)
            for method in (Method.REAL_INTEGRAL, Method.CIRCLE, Method.SERIES):
                resid = ode_residual_sweep(spec, 1.0, method, grid, h=5e-3)
                assert resid <= 1e-4, (kind, method)
        morse = ProblemSpec(kind=Kind.MORSE_CONT)
        resid = ode_residual_sweep(morse, 1.0, Method.MORSE_RAY, grid, h=5e-4)
        assert resid <= 1e-4


def test_continuum_kummer_combination_is_real():
    """6: Im(e^{-i xi} M(a-, b, 2i xi)) vanishes for non-Morse continua."""
    with _Gate(6):
        for kind in (Kind.FREE2D, Kind.FREE3D,
                     Kind.COULOMB2D_CONT, Kind.COULOMB3D_CONT):
            for energy in (0.5, 2.0):
                ode = canonicalize(ProblemSpec(kind=kind), energy)
                exps = exponents(ode)
                for xi in (0.3, 1.0, 2.7, 6.0, 12.0):
                    v = cmath.exp(-1j * xi) * kummer_m(exps.alpha_minus,
                                                       ode.beta, 2j * xi)
                    assert abs(v.imag) <= 1e-9 * abs(v), (kind, energy, xi)


def test_morse_scattering_profile():
    """7: barrier-side decay and flat oscillation amplitude, under 1 min."""
    with _Gate(7):
        start = time.perf_counter()
        spec = ProblemSpec(kind=Kind.MORSE_CONT, morse_v0=1.0)
        for energy in (0.1, 1.0, 10.0):
            # forbidden side: monotone drop of >= 4 orders over two units,
            # windowed past the classical turning point -ln(1 + sqrt(1+E/V0))
            turn = -math.log(1.0 + math.sqrt(1.0 + energy))
            xs = np.linspace(turn - 3.0, turn - 1.0, 9)
            amp = np.abs(sample_wavefunction(spec, energy, xs,
                                             Method.MORSE_RAY).psi)
            assert np.all(np.diff(amp) > 0), energy
            assert amp[-1] / amp[0] >= 1e4, energy

            # far side: standing-wave amplitude via the quadrature pair
            # |psi(x)|^2 + |psi(x + pi/2k)|^2 stays flat to 5 percent
            k = math.sqrt(2.0 * energy)
            xs = np.linspace(6.0, 10.0, 41)
            a = np.abs(sample_wavefunction(spec, energy, xs,
                                           Method.MORSE_RAY).psi)
            b = np.abs(sample_wavefunction(spec, energy,
                                           xs + math.pi / (2.0 * k),
                                           Method.MORSE_RAY).psi)
            envelope = np.sqrt(a * a + b * b)
            flatness = (envelope.max() - envelope.min()) / envelope.mean()
            assert flatness <= 0.05, (energy, flatness)
        assert time.perf_counter() - start < 60.0


def test_free_particle_reduces_to_bessel():
    """8: free kinds proportional to independent Bessel series to 1e-7."""
    with _Gate(8):
        xis = np.linspace(0.5, 8.0, 16)
        energy = 0.5
        for order in range(3):
            planar = ProblemSpec(kind=Kind.FREE2D, m_quantum=order)
            phi = phi_values(planar, energy, xis, Method.REAL_INTEGRAL)
            oracle = np.array([bessel_j_series(order, x) / x**order
                               for x in xis])
            _assert_ratio_constant(phi, oracle)

            spherical = ProblemSpec(kind=Kind.FREE3D, l_quantum=order)
            phi = phi_values(spherical, energy, xis, Method.REAL_INTEGRAL)
            oracle = np.array([spherical_j_series(order, x) / x**order
                               for x in xis])
            _assert_ratio_constant(phi, oracle)


def _assert_ratio_constant(phi, oracle):
    keep = np.abs(oracle) > 1e-2 * np.max(np.abs(oracle))
    ratio = phi[keep] / oracle[keep]
    mean = ratio.mean()
    assert np.max(np.abs(ratio - mean)) / abs(mean) <= 1e-7


def test_winding_phase_geometry():
    """9: phase schedules: anchors, ends, continuity, monotonicity."""
    with _Gate(9):
        two_pi = 2.0 * math.pi
        for radius in (1.1, 2.0, 5.0):
            assert abs(phase_phi1(0.0, radius)) <= 1e-12
            assert abs(phase_phi2(0.0, radius) - math.pi) <= 1e-12
            assert abs(phase_phi1(math.pi, radius) - math.pi) <= 1e-12
            assert abs(phase_phi2(math.pi, radius) - two_pi) <= 1e-12
            assert abs(phase_phi1(two_pi, radius) - two_pi) <= 1e-12
            assert abs(phase_phi2(two_pi, radius) - 3.0 * math.pi) <= 1e-12

            thetas = np.linspace(0.0, two_pi, 4001)
            slope_cap = radius / (radius - 1.0)
            for schedule in (phase_phi1, phase_phi2):
                vals = np.array([schedule(t, radius) for t in thetas])
                steps = np.diff(vals)
                assert np.all(steps >= -1e-12)
                assert np.max(steps) <= slope_cap * (thetas[1] - thetas[0]) * (
                    1.0 + 1e-6)
