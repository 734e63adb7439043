"""Tests for cross-route comparison, residual sweeps, spectra, and Bessel oracles."""

import math

import numpy as np
import pytest

from laplaceqm.contour_eval import ContourConfig, Method, MethodRegimeMismatch, phi_values
import laplaceqm.validation as validation
from laplaceqm.potential_catalog import (
    BOUND_KINDS,
    Kind,
    NotBoundProblem,
    ProblemSpec,
    QuantumNumbers,
    RegimeMismatch,
)
from laplaceqm.validation import (
    ComparisonReport,
    _onset,
    bessel_j_series,
    cross_method_report,
    spectrum_table,
    spherical_j_series,
)

from ode_residual import ode_residual_sweep


class TestBesselOracles:
    def test_cylindrical_frozen_values(self):
        assert bessel_j_series(0, 0.5) == pytest.approx(0.9384698072408129, rel=1e-14)
        assert bessel_j_series(1, 3.0) == pytest.approx(0.33905895852593646, rel=1e-13)
        assert bessel_j_series(2, 5.0) == pytest.approx(0.046565116277752216, rel=1e-12)
        assert bessel_j_series(3, 8.0) == pytest.approx(-0.29113220706595225, rel=1e-11)

    def test_spherical_frozen_values(self):
        assert spherical_j_series(0, 0.5) == pytest.approx(0.958851077208406, rel=1e-14)
        assert spherical_j_series(1, 3.0) == pytest.approx(0.34567749976235595, rel=1e-13)
        assert spherical_j_series(2, 8.0) == pytest.approx(-0.11105244576683509, rel=1e-11)

    def test_spherical_elementary_identity(self):
        for x in (0.3, 1.1, 4.0):
            assert spherical_j_series(0, x) == pytest.approx(math.sin(x) / x, rel=1e-13)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            bessel_j_series(-1, 1.0)
        with pytest.raises(ValueError):
            spherical_j_series(-2, 1.0)


class TestOnsetDetector:
    def make(self, n=12):
        grid = np.arange(float(n))
        ref = np.ones(n, dtype=complex)
        vals = np.ones(n, dtype=complex)
        return grid, vals, ref

    def test_three_consecutive_exceedances(self):
        grid, vals, ref = self.make()
        vals[5:8] = 1.01  # 1e-2 relative, over the 1e-3 bar
        assert _onset(grid, vals, ref) == 5.0

    def test_two_exceedances_do_not_count(self):
        grid, vals, ref = self.make()
        vals[5:7] = 1.01
        assert _onset(grid, vals, ref) is None

    def test_zero_crossing_resets_the_run(self):
        grid, vals, ref = self.make()
        vals[4:9] = 1.01
        ref[6] = 0.0  # below the reference floor: not a valid comparison point
        assert _onset(grid, vals, ref) is None

    def test_nan_counts_as_failure(self):
        grid, vals, ref = self.make()
        vals[3:6] = complex(np.nan, np.nan)
        assert _onset(grid, vals, ref) == 3.0

    def test_clean_agreement(self):
        grid, vals, ref = self.make()
        assert _onset(grid, vals, ref) is None


class TestCrossMethodReport:
    def test_routes_agree_inside_the_trusted_window(self):
        spec = ProblemSpec(kind=Kind.COULOMB3D_CONT)
        grid = [0.5, 1.0, 2.0, 4.0, 6.5]
        report = cross_method_report(spec, 1.0, grid)
        assert isinstance(report, ComparisonReport)
        assert report.reference is Method.REAL_INTEGRAL
        assert report.pairwise_max_rel_dev < 1e-6
        assert report.failure_onset_xi[Method.CIRCLE] is None
        assert report.failure_onset_xi[Method.SERIES] is None
        assert report.grid == tuple(grid)
        assert set(report.values) == {Method.REAL_INTEGRAL, Method.CIRCLE, Method.SERIES}

    def test_series_onset_detected_past_its_wall(self):
        spec = ProblemSpec(kind=Kind.COULOMB3D_CONT)
        grid = [19.0, 19.5, 20.0, 20.5, 21.0, 21.5, 22.0]
        with pytest.warns(Warning):
            report = cross_method_report(spec, 1.0, grid)
        onset = report.failure_onset_xi[Method.SERIES]
        assert onset == 19.0
        assert report.failure_onset_xi[Method.CIRCLE] is None
        assert report.pairwise_max_rel_dev > 1e-3

    def test_config_is_forwarded(self):
        spec = ProblemSpec(kind=Kind.FREE2D)
        report = cross_method_report(spec, 1.0, [0.5, 1.5],
                                     cfg=ContourConfig(radius_R=1.3))
        assert report.pairwise_max_rel_dev < 1e-6

    def test_config_goes_to_the_circle_only(self, monkeypatch):
        seen = []

        def recording(spec, energy, xi, method, config=None):
            seen.append((method, config))
            return phi_values(spec, energy, xi, method, config)

        monkeypatch.setattr(validation, "phi_values", recording)
        cfg = ContourConfig(radius_R=1.3)
        cross_method_report(ProblemSpec(kind=Kind.FREE2D), 1.0, [0.5, 1.5], cfg=cfg)
        assert sorted(set(seen), key=lambda p: p[0].value) == [
            (Method.CIRCLE, cfg), (Method.REAL_INTEGRAL, None), (Method.SERIES, None)]

    def test_config_the_circle_does_not_read_is_rejected(self):
        # free3d's circle runs the segment between the branch points: no radius
        with pytest.raises(MethodRegimeMismatch,
                           match="^the circle route for free3d reads no circle radius$"):
            cross_method_report(ProblemSpec(kind=Kind.FREE3D), 1.0, [0.5, 3.0],
                                cfg=ContourConfig(radius_R=3.0))

    def test_no_usable_point_is_not_agreement(self):
        # |Phi_ref| ~ 1e-13 stays below the 1e-12 floor at every point
        report = cross_method_report(ProblemSpec(kind=Kind.COULOMB3D_CONT), 1e26,
                                     [0.5, 2.25, 4.0])
        assert all(np.isfinite(v).all() for v in report.values.values())
        assert all(np.isnan(dev).all() for dev in report.pairwise_rel_dev.values())
        assert math.isnan(report.pairwise_max_rel_dev)

    @pytest.mark.filterwarnings("ignore::laplaceqm.special_fn.PrecisionLoss")
    def test_a_failed_point_leaves_the_others_as_they_are_alone(self):
        # the circle is not finite and the series diverges at xi = 2000 and
        # 1500 only; every other value is that point's own one-point value,
        # the real integral's on its tanh-sinh rule (xi = 0.5) and its rays
        spec = ProblemSpec(kind=Kind.COULOMB3D_CONT)
        grid = [0.5, 1.0, 2000.0, 2.0, 1500.0, 3.0]
        report = cross_method_report(spec, 1.0, grid)
        for m, values in report.values.items():
            failed = [] if m is Method.REAL_INTEGRAL else [2, 4]
            assert np.flatnonzero(np.isnan(values)).tolist() == failed
            for i, x in enumerate(grid):
                if i not in failed:
                    assert values[i] == phi_values(spec, 1.0, np.array([x]), m)[0]

    def test_rejects_non_continuum_kinds(self):
        with pytest.raises(MethodRegimeMismatch):
            cross_method_report(ProblemSpec(kind=Kind.SHO2D), 1.0, [1.0])
        with pytest.raises(MethodRegimeMismatch):
            cross_method_report(ProblemSpec(kind=Kind.MORSE_CONT), 1.0, [1.0])

    @pytest.mark.parametrize("kind,energy", [
        (Kind.FREE2D, 0.0),
        (Kind.FREE3D, -1.0),
        (Kind.COULOMB2D_CONT, -0.5),
        (Kind.COULOMB3D_CONT, math.nan),
    ])
    def test_inadmissible_energy_raises_before_any_route(self, kind, energy, monkeypatch):
        # an input error, not a NaN at every grid point
        calls = []
        monkeypatch.setattr(validation, "phi_values", lambda *args, **kw: calls.append(args))
        with pytest.raises(RegimeMismatch, match=f"{kind.value} needs finite E > 0"):
            cross_method_report(ProblemSpec(kind=kind), energy, [1.0, 2.0])
        assert calls == []


# grids chosen inside each kind's physically interesting xi range
_BOUND_SWEEPS = [
    (Kind.SHO1D_EVEN, {}, 2),
    (Kind.SHO1D_ODD, {}, 2),
    (Kind.SHO2D, {"m_quantum": 1}, 2),
    (Kind.SHO3D, {"l_quantum": 2}, 1),
    (Kind.COULOMB2D, {"m_quantum": 1}, 3),
    (Kind.COULOMB3D, {"l_quantum": 1}, 3),
    (Kind.MORSE, {"morse_v0": 31.0}, 2),
]


class TestOdeResidualSweep:
    @pytest.mark.parametrize("kind,params,n", _BOUND_SWEEPS)
    def test_residue_route_solves_its_equation(self, kind, params, n):
        spec = ProblemSpec(kind=kind, **params)
        grid = np.linspace(0.2, 6.0, 13)
        resid = ode_residual_sweep(spec, n, Method.RESIDUE, grid)
        assert resid < 1e-5

    def test_hermite_route_solves_its_equation(self):
        spec = ProblemSpec(kind=Kind.SHO1D_HERMITE)
        resid = ode_residual_sweep(spec, 3, Method.RESIDUE, np.linspace(-2.0, 2.0, 9))
        assert resid < 1e-6

    def test_hermite_ground_state_residual_is_exactly_zero(self):
        # H_0 = 1: both derivative terms vanish and the potential term cancels
        spec = ProblemSpec(kind=Kind.SHO1D_HERMITE)
        assert ode_residual_sweep(spec, 0, Method.RESIDUE, [0.0, 0.7]) == 0.0

    def test_quantum_numbers_object_accepted(self):
        spec = ProblemSpec(kind=Kind.COULOMB3D)
        grid = [0.5, 1.5]
        a = ode_residual_sweep(spec, 2, Method.RESIDUE, grid)
        b = ode_residual_sweep(spec, QuantumNumbers(n=2, N=1), Method.RESIDUE, grid)
        assert a == b

    @pytest.mark.parametrize("method", [Method.REAL_INTEGRAL, Method.CIRCLE,
                                        Method.SERIES])
    def test_continuum_routes_solve_the_equation(self, method):
        spec = ProblemSpec(kind=Kind.COULOMB3D_CONT)
        grid = [0.3, 1.0, 2.5, 5.0]
        resid = ode_residual_sweep(spec, 1.0, method, grid, h=5e-3)
        assert resid < 1e-3

    def test_morse_ray_solves_the_equation(self):
        spec = ProblemSpec(kind=Kind.MORSE_CONT, morse_v0=1.0)
        resid = ode_residual_sweep(spec, 1.0, Method.MORSE_RAY, [0.5, 1.0, 2.0], h=5e-4)
        assert resid < 1e-3


class TestSpectrumTable:
    def test_hermite_ladder(self):
        rows = spectrum_table(ProblemSpec(kind=Kind.SHO1D_HERMITE), 3)
        assert [e for _, e in rows] == [0.5, 1.5, 2.5, 3.5]
        assert [qn.n for qn, _ in rows] == [0, 1, 2, 3]

    def test_hydrogen_ladder(self):
        rows = spectrum_table(ProblemSpec(kind=Kind.COULOMB3D), 3)
        assert [qn.n for qn, _ in rows] == [1, 2, 3]
        assert [qn.N for qn, _ in rows] == [0, 1, 2]
        assert [e for _, e in rows] == pytest.approx([-0.5, -0.125, -1.0 / 18.0])

    def test_morse_truncates_at_the_well_depth(self):
        spec = ProblemSpec(kind=Kind.MORSE, morse_v0=3.125)  # depth parameter 2.5
        rows = spectrum_table(spec, 10)
        assert [qn.n for qn, _ in rows] == [0, 1]
        assert [e for _, e in rows] == pytest.approx([-2.0, -0.5])

    def test_label_window_below_start_is_empty(self):
        assert spectrum_table(ProblemSpec(kind=Kind.COULOMB3D), 0) == []

    def test_not_bound(self):
        with pytest.raises(NotBoundProblem):
            spectrum_table(ProblemSpec(kind=Kind.FREE2D), 3)

    def test_only_the_well_depth_ends_the_table(self, monkeypatch):
        def broken(spec, n):
            raise RuntimeError("not a quantum-number error")

        monkeypatch.setattr("laplaceqm.validation.bound_energy", broken)
        with pytest.raises(RuntimeError, match="not a quantum-number error"):
            spectrum_table(ProblemSpec(kind=Kind.MORSE, morse_v0=3.125), 10)

    @pytest.mark.parametrize("kind", sorted(BOUND_KINDS, key=lambda k: k.value))
    def test_monotone_increasing(self, kind):
        spec = ProblemSpec(kind=kind, mu=1.3, omega=0.7, a0=1.1,
                           morse_v0=9.0, m_quantum=1, l_quantum=1)
        energies = [e for _, e in spectrum_table(spec, 10)]
        assert len(energies) >= 3
        assert all(a < b for a, b in zip(energies, energies[1:]))


class TestPhysicalOracles:
    def test_free2d_matches_cylindrical_bessel(self):
        from laplaceqm.contour_eval import phi_values

        spec = ProblemSpec(kind=Kind.FREE2D)
        xi = np.linspace(0.5, 8.0, 16)
        phi = phi_values(spec, 1.0, xi, Method.REAL_INTEGRAL)
        ratio = phi / np.array([bessel_j_series(0, x) for x in xi])
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-7
        # and the constant itself is 2 pi i
        assert ratio[0] == pytest.approx(2j * math.pi, rel=1e-9)

    def test_free2d_higher_azimuthal_channel(self):
        from laplaceqm.contour_eval import phi_values

        spec = ProblemSpec(kind=Kind.FREE2D, m_quantum=1)
        xi = np.array([0.5, 1.5, 3.0, 6.0])
        phi = phi_values(spec, 1.0, xi, Method.REAL_INTEGRAL)
        # Phi carries J_m(xi)/xi^m; the prefactor restores rho^m
        ratio = phi * xi / np.array([bessel_j_series(1, x) for x in xi])
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-7

    def test_free3d_higher_orbital_channel(self):
        from laplaceqm.contour_eval import phi_values

        spec = ProblemSpec(kind=Kind.FREE3D, l_quantum=1)
        xi = np.array([0.4, 1.0, 2.2, 5.0])
        phi = phi_values(spec, 1.0, xi, Method.SERIES)
        ratio = phi * xi / np.array([spherical_j_series(1, x) for x in xi])
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-8

    def test_hydrogen_tail_with_rescaled_bohr_radius(self):
        from laplaceqm.contour_eval import sample_wavefunction

        spec = ProblemSpec(kind=Kind.COULOMB3D, a0=2.0)
        r = np.array([0.5, 1.0, 2.5, 4.0, 7.0])
        grid = sample_wavefunction(spec, 1, r, Method.RESIDUE)
        ratio = grid.psi / np.exp(-r / 2.0)
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-9
