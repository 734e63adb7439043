"""Tests for the residue, segment, circle, series, and ray evaluators.

The bound-route oracle is the Rodrigues reduction of the N-th derivative:
Phi = 2 pi i e^{i pi (beta-1)} (2 lambda)^{beta-1} e^{-lambda xi}
L_N^{(beta-1)}(2 lambda xi), evaluated with the independently tested
Laguerre coefficients. Continuum routes are checked against each other,
against closed elementary forms, and against frozen high-precision values.
"""

import cmath
import math

import numpy as np
import pytest

from laplaceqm.contour_eval import (
    ContourConfig,
    Method,
    MethodRegimeMismatch,
    NonIntegerOrder,
    PrecisionLoss,
    bound_phi_residue,
    continuum_phi_circle,
    continuum_phi_real_integral,
    continuum_phi_series,
    hermite_phi_residue,
    morse_continuum_phi,
    phase_phi1,
    phase_phi2,
    phi_values,
    sample_wavefunction,
)
from laplaceqm.core_laplace import default_phase_convention, exponents
from laplaceqm.potential_catalog import (
    Kind,
    ProblemSpec,
    canonicalize,
    residue_lattice_energy,
)
from laplaceqm.special_fn import SeriesDivergence, laguerre


def continuum_setup(kind: Kind, energy: float, **params):
    spec = ProblemSpec(kind=kind, **params)
    ode = canonicalize(spec, energy)
    exps = exponents(ode)
    return spec, ode, exps


class TestBoundResidue:
    def test_order_zero_is_pure_exponential(self):
        # hydrogen ground state: beta=2, lambda=1: Phi = -4 pi i e^{-xi}
        ode = canonicalize(ProblemSpec(kind=Kind.COULOMB3D), -0.5)
        xi = np.array([0.0, 0.5, 2.0])
        got = bound_phi_residue(ode, 0, xi)
        assert np.allclose(got, -4j * math.pi * np.exp(-xi), rtol=1e-13)

    def test_hydrogen_first_excited_node(self):
        # n=2, l=0: Phi = 8 pi i e^{-xi} (xi - 1), with its node at xi = 1
        ode = canonicalize(ProblemSpec(kind=Kind.COULOMB3D), -0.125)
        got_half = bound_phi_residue(ode, 1, 0.5)
        assert got_half == pytest.approx(-4j * math.pi * math.exp(-0.5), rel=1e-12)
        assert abs(bound_phi_residue(ode, 1, 1.0)) <= 1e-12 * abs(got_half)

    def test_even_oscillator_second_level_literal(self):
        # beta=1/2, N=2: Phi = pi e^{-xi/2} (xi^2 - 3 xi + 3/4)
        ode = canonicalize(ProblemSpec(kind=Kind.SHO1D_EVEN), 4.5)
        xi = np.array([0.0, 0.3, 1.0, 2.6])
        want = math.pi * np.exp(-0.5 * xi) * (xi * xi - 3.0 * xi + 0.75)
        assert np.allclose(bound_phi_residue(ode, 2, xi), want, rtol=1e-12)

    @pytest.mark.parametrize("kind,params,big_n", [
        (Kind.SHO1D_EVEN, {}, 3),
        (Kind.SHO1D_ODD, {}, 2),
        (Kind.SHO2D, {"m_quantum": 2}, 2),
        (Kind.SHO3D, {"l_quantum": 1}, 3),
        (Kind.COULOMB2D, {"m_quantum": 1}, 2),
        (Kind.COULOMB3D, {"l_quantum": 2}, 2),
        (Kind.MORSE, {"morse_v0": 31.0}, 2),
    ])
    def test_rodrigues_reduction(self, kind, params, big_n):
        """Leibniz-expanded residue equals the Laguerre closed form everywhere."""
        spec = ProblemSpec(kind=kind, mu=1.2, omega=0.8, a0=1.1, morse_a=0.9, **params)
        ode = canonicalize(spec, residue_lattice_energy(spec, big_n))
        beta, lam = ode.beta.real, ode.lam.real
        xi = np.array([0.3, 0.7, 1.3, 2.1, 4.9])
        want = (
            2j * math.pi
            * cmath.exp(1j * math.pi * (beta - 1.0))
            * (2.0 * lam) ** (beta - 1.0)
            * np.exp(-lam * xi)
            * laguerre(big_n, beta - 1.0, 2.0 * lam * xi)
        )
        got = bound_phi_residue(ode, big_n, xi)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_off_lattice_energy_rejected(self):
        ode = canonicalize(ProblemSpec(kind=Kind.SHO1D_EVEN), 1.3)
        with pytest.raises(NonIntegerOrder):
            bound_phi_residue(ode, 0, 1.0)
        with pytest.raises(NonIntegerOrder):
            bound_phi_residue(canonicalize(ProblemSpec(kind=Kind.SHO1D_EVEN), 4.5), -1, 1.0)

    def test_scalar_and_array_returns(self):
        ode = canonicalize(ProblemSpec(kind=Kind.COULOMB3D), -0.5)
        assert isinstance(bound_phi_residue(ode, 0, 1.0), complex)
        assert bound_phi_residue(ode, 0, np.array([1.0])).shape == (1,)

    def test_hermite_route_is_the_polynomial(self):
        xi = np.linspace(-2.0, 2.0, 7)
        assert np.array_equal(hermite_phi_residue(1, xi), 2.0 * xi)
        assert hermite_phi_residue(4, 0.0) == 12.0


class TestRealIntegral:
    def test_free3d_elementary_form(self):
        _, ode, exps = continuum_setup(Kind.FREE3D, 2.0)
        for xi in (0.4, 1.0, 3.7, 9.0):
            want = 2j * math.sin(xi) / xi
            got = continuum_phi_real_integral(ode, exps, xi)
            assert got == pytest.approx(want, rel=1e-10)

    def test_free2d_constant_against_bessel(self):
        from laplaceqm.validation import bessel_j_series

        _, ode, exps = continuum_setup(Kind.FREE2D, 1.0)
        for xi in (0.5, 2.0, 5.5):
            got = continuum_phi_real_integral(ode, exps, xi)
            assert got == pytest.approx(2j * math.pi * bessel_j_series(0, xi), rel=1e-10)

    def test_regime_guard(self):
        ode = canonicalize(ProblemSpec(kind=Kind.SHO1D_EVEN), 0.5)
        with pytest.raises(MethodRegimeMismatch):
            continuum_phi_real_integral(ode, exponents(ode), 1.0)

    def test_fractional_edge_exponent_rejected(self):
        # synthetic beta = 1.4: Re(alpha_plus) is neither integer nor half-odd
        from laplaceqm.core_laplace import CanonicalODE, Regime

        ode = CanonicalODE(beta=1.4 + 0j, delta=0.3, lam=1j, regime=Regime.CONTINUUM)
        with pytest.raises(MethodRegimeMismatch):
            continuum_phi_real_integral(ode, exponents(ode), 1.0)


class TestSeries:
    def test_agrees_with_segment_integral(self):
        for kind, e, params in [
            (Kind.FREE2D, 1.0, {}),
            (Kind.FREE3D, 2.0, {"l_quantum": 1}),
            (Kind.COULOMB2D_CONT, 1.0, {"m_quantum": 1}),
            (Kind.COULOMB3D_CONT, 0.7, {}),
        ]:
            _, ode, exps = continuum_setup(kind, e, **params)
            for xi in (0.3, 1.7, 6.0):
                a = continuum_phi_real_integral(ode, exps, xi)
                b = continuum_phi_series(ode, exps, xi)
                assert b == pytest.approx(a, rel=1e-9)

    def test_precision_warning_past_onset_budget(self):
        _, ode, exps = continuum_setup(Kind.COULOMB3D_CONT, 1.0)
        with pytest.warns(PrecisionLoss):
            continuum_phi_series(ode, exps, 21.0)

    def test_regime_guard(self):
        ode = canonicalize(ProblemSpec(kind=Kind.MORSE_CONT), 1.0)
        with pytest.raises(MethodRegimeMismatch):
            continuum_phi_series(ode, exponents(ode), 1.0)


class TestCircle:
    def test_degenerate_free_case_matches_closed_form_any_radius(self):
        _, ode, exps = continuum_setup(Kind.FREE3D, 2.0)
        conv = default_phase_convention(ode)
        for r in (1.1, 1.7):
            cfg = ContourConfig(radius_R=r)
            got = continuum_phi_circle(ode, exps, conv, 2.0, cfg)
            assert got == pytest.approx(1j * math.sin(2.0), rel=1e-9)

    def test_radius_invariance_with_cuts(self):
        _, ode, exps = continuum_setup(Kind.COULOMB3D_CONT, 1.0)
        conv = default_phase_convention(ode)
        vals = [
            continuum_phi_circle(ode, exps, conv, 1.0, ContourConfig(radius_R=r))
            for r in (1.1, 1.5, 2.0)
        ]
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-7)

    def test_agrees_with_segment_integral(self):
        _, ode, exps = continuum_setup(Kind.COULOMB2D_CONT, 1.0, m_quantum=1)
        conv = default_phase_convention(ode)
        for xi in (0.5, 2.5, 8.0):
            a = continuum_phi_real_integral(ode, exps, xi)
            b = continuum_phi_circle(ode, exps, conv, xi)
            assert b == pytest.approx(a, rel=1e-8)

    def test_overflow_budget_warning(self):
        _, ode, exps = continuum_setup(Kind.COULOMB3D_CONT, 1.0)
        conv = default_phase_convention(ode)
        with pytest.warns(PrecisionLoss):
            continuum_phi_circle(ode, exps, conv, 700.0, ContourConfig(radius_R=1.1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ContourConfig(radius_R=1.0)
        with pytest.raises(ValueError):
            ContourConfig(steps=999)
        for radius in (math.inf, math.nan):
            with pytest.raises(ValueError):
                ContourConfig(radius_R=radius)

    def test_regime_guard(self):
        ode = canonicalize(ProblemSpec(kind=Kind.COULOMB3D), -0.5)
        # a bound ODE has no phase convention of its own; borrow a continuum one
        conv = default_phase_convention(canonicalize(ProblemSpec(kind=Kind.COULOMB3D_CONT), 1.0))
        with pytest.raises(MethodRegimeMismatch):
            continuum_phi_circle(ode, exponents(ode), conv, 1.0)


class TestPhaseSchedules:
    def test_anchors(self):
        for r in (1.1, 2.0, 5.0):
            assert phase_phi1(0.0, r) == pytest.approx(0.0, abs=1e-14)
            assert phase_phi2(0.0, r) == pytest.approx(math.pi, rel=1e-14)
            assert phase_phi1(math.pi, r) == pytest.approx(math.pi, rel=1e-12)
            assert phase_phi2(math.pi, r) == pytest.approx(2.0 * math.pi, rel=1e-12)
            assert phase_phi1(2.0 * math.pi - 1e-12, r) == pytest.approx(
                2.0 * math.pi, rel=1e-9
            )
            assert phase_phi2(2.0 * math.pi - 1e-12, r) == pytest.approx(
                3.0 * math.pi, rel=1e-9
            )

    def test_quarter_turn_literal(self):
        # R=2, theta=pi/2: arrow from -i has swung by arcsin(2/sqrt(5))
        assert phase_phi1(0.5 * math.pi, 2.0) == pytest.approx(
            math.asin(2.0 / math.sqrt(5.0)), rel=1e-13
        )

    @pytest.mark.parametrize("r", [1.1, 1.6, 3.0])
    def test_monotone_with_bounded_slope(self, r):
        theta, dth = np.linspace(0.0, 2.0 * math.pi, 20001, retstep=True)
        for fn in (phase_phi1, phase_phi2):
            vals = fn(theta, r)
            steps = np.diff(vals)
            assert np.all(steps >= -1e-12)
            assert np.max(steps) / dth <= r / (r - 1.0) + 1e-6

    @pytest.mark.parametrize("r", [1.1, 2.0])
    def test_against_unwrapped_principal_angle(self, r):
        theta = np.linspace(0.0, 2.0 * math.pi, 4001, endpoint=False)
        z = r * np.exp(1j * (theta + 0.5 * math.pi))
        want1 = np.unwrap(np.angle(z + 1j)) - 0.5 * math.pi
        want2 = np.unwrap(np.angle(z - 1j)) + 0.5 * math.pi
        assert np.max(np.abs(phase_phi1(theta, r) - want1)) < 1e-10
        assert np.max(np.abs(phase_phi2(theta, r) - want2)) < 1e-10


class TestMorseRay:
    def setup_method(self):
        self.spec = ProblemSpec(kind=Kind.MORSE_CONT, mu=1.0, morse_a=1.0, morse_v0=1.0)
        self.ode = canonicalize(self.spec, 1.0)
        self.exps = exponents(self.ode)

    def test_frozen_values(self):
        got1 = morse_continuum_phi(self.ode, self.exps, 1.0, tol=1e-12)
        assert got1 == pytest.approx(
            complex(3.1211462528182341e-06, -2.1811987387935216e-06), rel=1e-8
        )
        got40 = morse_continuum_phi(self.ode, self.exps, 40.0, tol=1e-12)
        assert got40 == pytest.approx(
            complex(-9.7416060625580352e-13, -4.7825190007098144e-13), rel=1e-7
        )

    def test_decay_into_the_well(self):
        # xi grows to the classically forbidden side; Phi must die fast
        inner = abs(morse_continuum_phi(self.ode, self.exps, 50.0))
        outer = abs(morse_continuum_phi(self.ode, self.exps, 1.0))
        assert inner < 1e-8 * outer

    def test_positive_xi_required(self):
        with pytest.raises(ValueError):
            morse_continuum_phi(self.ode, self.exps, 0.0)

    def test_regime_guard(self):
        _, ode, exps = continuum_setup(Kind.FREE3D, 1.0)
        with pytest.raises(MethodRegimeMismatch):
            morse_continuum_phi(ode, exps, 1.0)


class TestPhiValuesDispatch:
    def test_method_tables(self):
        bound = ProblemSpec(kind=Kind.SHO2D)
        cont = ProblemSpec(kind=Kind.FREE3D)
        morse = ProblemSpec(kind=Kind.MORSE_CONT)
        with pytest.raises(MethodRegimeMismatch):
            phi_values(bound, 2.0, [1.0], Method.SERIES)
        with pytest.raises(MethodRegimeMismatch):
            phi_values(cont, 1.0, [1.0], Method.RESIDUE)
        with pytest.raises(MethodRegimeMismatch):
            phi_values(cont, 1.0, [1.0], Method.MORSE_RAY)
        with pytest.raises(MethodRegimeMismatch):
            phi_values(morse, 1.0, [1.0], Method.REAL_INTEGRAL)

    def test_tolerance_forwarding(self):
        spec = ProblemSpec(kind=Kind.COULOMB3D_CONT)
        loose = phi_values(spec, 1.0, [1.0], Method.REAL_INTEGRAL, tol=1e-6)
        tight = phi_values(spec, 1.0, [1.0], Method.REAL_INTEGRAL, tol=1e-12)
        assert loose[0] == pytest.approx(tight[0], rel=1e-5)

    def test_three_continuum_routes_cross_agree(self):
        spec = ProblemSpec(kind=Kind.COULOMB3D_CONT)
        xi = [0.25, 1.0, 4.0]
        real = phi_values(spec, 1.0, xi, Method.REAL_INTEGRAL)
        circ = phi_values(spec, 1.0, xi, Method.CIRCLE)
        ser = phi_values(spec, 1.0, xi, Method.SERIES)
        assert np.max(np.abs(circ - real) / np.abs(real)) < 1e-8
        assert np.max(np.abs(ser - real) / np.abs(real)) < 1e-9

    def test_near_free_coulomb_is_not_degenerate(self):
        # delta ~ 1.4e-13 is not the free case: every route must keep the
        # edge combination, whose value is ~ -7.5e-13 i at xi = 1
        spec = ProblemSpec(kind=Kind.COULOMB3D_CONT)
        real = phi_values(spec, 1e26, [1.0], Method.REAL_INTEGRAL)[0]
        assert abs(real) < 1e-11
        for method in (Method.CIRCLE, Method.SERIES):
            got = phi_values(spec, 1e26, [1.0], method)[0]
            assert got == pytest.approx(real, rel=1e-2)

    @pytest.mark.filterwarnings("ignore::laplaceqm.contour_eval.PrecisionLoss")
    def test_first_failing_point_stops_the_grid(self, monkeypatch):
        import laplaceqm.contour_eval as ce

        seen = []

        def counted(ode, exps, xi, **kw):
            seen.append(xi)
            return series(ode, exps, xi, **kw)

        series = ce.continuum_phi_series
        monkeypatch.setattr(ce, "continuum_phi_series", counted)
        spec = ProblemSpec(kind=Kind.COULOMB3D_CONT)
        with pytest.raises(SeriesDivergence) as info:
            phi_values(spec, 1.0, [1.0, 2000.0, 2.0], Method.SERIES)
        assert info.value.point == 1
        assert seen == [1.0, 2000.0]

    @pytest.mark.filterwarnings("ignore::laplaceqm.contour_eval.PrecisionLoss")
    def test_non_finite_value_fails_its_point(self):
        # R*xi = 1.1 * 1000 overflows the circle sum to NaN
        spec = ProblemSpec(kind=Kind.COULOMB3D_CONT)
        with pytest.raises(FloatingPointError, match="circle route .* xi = 1000") as info:
            phi_values(spec, 1.0, [1.0, 1000.0], Method.CIRCLE)
        assert info.value.point == 1

    def test_hermite_kind_takes_energy(self):
        spec = ProblemSpec(kind=Kind.SHO1D_HERMITE)
        got = phi_values(spec, 2.5, np.array([0.0]), Method.RESIDUE)  # n = 2
        assert got[0] == pytest.approx(-2.0)  # H_2(0)


class TestSampleWavefunction:
    def test_grid_shape_and_metadata(self):
        spec = ProblemSpec(kind=Kind.FREE3D)
        grid = sample_wavefunction(spec, 2.0, [1.0, 0.25, 0.5], Method.REAL_INTEGRAL)
        assert grid.energy == 2.0
        assert grid.method is Method.REAL_INTEGRAL
        assert grid.problem is spec
        for samples in (grid.coordinates, grid.xi, grid.phi, grid.psi):
            assert samples.shape == (3,)
        assert grid.coordinates.tolist() == [0.25, 0.5, 1.0]
        assert grid.xi == pytest.approx(2.0 * grid.coordinates)  # k = 2
        assert grid.psi == pytest.approx(grid.phi)  # l = 0 prefactor is 1

    def test_bound_takes_label_not_energy(self):
        spec = ProblemSpec(kind=Kind.COULOMB3D)
        grid = sample_wavefunction(spec, 2, [0.5, 1.0], Method.RESIDUE)
        assert grid.energy == pytest.approx(-0.125)

    def test_morse_bound_sits_on_residue_lattice(self):
        spec = ProblemSpec(kind=Kind.MORSE, morse_v0=3.125)  # delta = 2.5
        grid = sample_wavefunction(spec, 0, [0.0, 1.0], Method.RESIDUE)
        assert grid.energy == pytest.approx(-2.0)  # -(delta - 1/2)^2 / 2
