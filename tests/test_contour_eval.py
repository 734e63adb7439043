"""Tests for the residue, segment, circle, series, and ray evaluators.

The bound-route oracle is the Rodrigues reduction of the N-th derivative:
Phi = 2 pi i e^{i pi (beta-1)} (2 lambda)^{beta-1} e^{-lambda xi}
L_N^{(beta-1)}(2 lambda xi), evaluated with the independently tested
Laguerre coefficients. Continuum routes are checked against each other,
against closed elementary forms, and against frozen high-precision values.
"""

import cmath
import dataclasses
import math
import warnings
from functools import partial

import numpy as np
import pytest

import laplaceqm.contour_eval as ce
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
from laplaceqm import special_fn
from laplaceqm.special_fn import SeriesDivergence, hermite

from laguerre_closed_form import laguerre


# (Im Phi, scale) with Re Phi = 0 and scale = sqrt(|Phi|^2 + |dPhi/dxi|^2),
# from mpmath at 40 digits by Euler's integral for M (see tests/test_golden.py):
# free3d at l = 0, 1, 2 (beta = 2l + 2, delta = 0) on FREE3D_XI, and on
# WINDOW_XI the window state of each other continuum kind with the largest
# circle error among q = 0, 1, 2 and E = 0.25, 1, 4 (q = 2, E = 4; free2d E = 1)
FREE3D_XI = (0.5, 5.0, 10.0, 20.0, 40.0)
FREE3D_TRUTH = {
    0: ((1.9177021544168120e+00, 1.9450590475270515e+00),
        (-3.8356970986525540e-01, 4.2812814021213846e-01),
        (-1.0880422217787396e-01, 1.9096230671189227e-01),
        (9.1294525072762769e-02, 9.8225659303111723e-02),
        (3.7255658023967436e-02, 5.0625937333588798e-02)),
    1: ((1.3002962450885325e+00, 1.3068753442512546e+00),
        (-7.6071526463336633e-02, 1.3192602654481603e-01),
        (3.1386776719500617e-02, 4.4239433093801704e-02),
        (-3.6243479927701061e-03, 1.0329804113808088e-02),
        (1.7139147266606138e-03, 2.4382554477491822e-03)),
    2: ((1.0477508229115784e+00, 1.0504415958496554e+00),
        (8.6227974454480147e-02, 1.7049726786846456e-01),
        (1.2470750980569991e-02, 1.3980473073467239e-02),
        (-1.9346209412383585e-03, 1.9496006143088407e-03),
        (-1.7342392966988260e-04, 2.5952201691387540e-04)),
}
WINDOW_XI = (0.5, 5.0, 10.0)
WINDOW_TRUTH = (
    (Kind.FREE2D, {"m_quantum": 2}, 1.0, (
        (2.3074890064340901e+00, 2.3155713486398763e+00),
        (3.5109270530817804e-02, 2.7730779601047495e-01),
        (4.7996683371266370e-02, 4.9242006612333557e-02))),
    (Kind.COULOMB2D_CONT, {"m_quantum": 2}, 4.0, (
        (3.4016827238170917e+00, 3.4894707645470340e+00),
        (-1.0777189413581906e-01, 2.0386809268999020e-01),
        (3.1114150058029859e-02, 5.0421884133948137e-02))),
    (Kind.COULOMB3D_CONT, {"l_quantum": 2}, 4.0, (
        (-2.5446712980130850e+00, 2.5909860648388849e+00),
        (-3.9713053311405629e-02, 2.1398163417169741e-01),
        (-2.4168036731948110e-02, 2.5522412514138521e-02))),
)

# (Im Phi, scale) as above on REAL_XI, which straddles the real integral's
# switch from the segment to the two rays at xi = 1 and reaches xi = 300:
# one state per kind at E = 0.25, and the two Coulomb kinds' s-states at
# E = 0.05, whose Coulomb phase x^(-i eta) oscillates faster
REAL_XI = (1e-3, 0.5, 0.99, 1.0, 5.0, 40.0, 300.0)
REAL_TRUTH = (
    (Kind.FREE2D, {"m_quantum": 1}, (
        (3.1415922608907279e+00, 3.1415923590654926e+00),
        (3.0444352273116544e+00, 3.0686297893788401e+00),
        (2.7721089629145408e+00, 2.8630709374896099e+00),
        (2.7649193747683372e+00, 2.8576223034608783e+00),
        (-4.1164808485065091e-01, 4.1578624767234423e-01),
        (1.9798052700884548e-02, 1.9798759438322450e-02),
        (-6.6784880104935008e-04, 9.6239445021546017e-04))),
    (Kind.FREE3D, {"l_quantum": 2}, (
        (1.0666665904761925e+00, 1.0666666013605459e+00),
        (1.0477508229115784e+00, 1.0504415958496554e+00),
        (9.9399548088375922e-01, 1.0042039704911923e+00),
        (9.9256083218198177e-01, 1.0029672688862208e+00),
        (8.6227974454480147e-02, 1.7049726786846456e-01),
        (-1.7342392966988260e-04, 2.5952201691387540e-04),
        (5.9255909979216175e-07, 5.9256040450985633e-07))),
    (Kind.COULOMB2D_CONT, {"m_quantum": 0}, (
        (6.2654247695198544e+00, 1.8822908834085659e+01),
        (-6.2006366342180839e-02, 8.0656982611555250e+00),
        (-2.2763649950204483e+00, 2.7184878444784468e+00),
        (-2.2907135474223601e+00, 2.6762805568559411e+00),
        (-8.8260959225615732e-01, 1.5844115311175566e+00),
        (-3.8512335306129319e-01, 5.5754792811344234e-01),
        (5.8231225128354248e-02, 2.0517504844666345e-01))),
    (Kind.COULOMB3D_CONT, {"l_quantum": 1}, (
        (-3.5517934319182103e+01, 4.3506562107389435e+01),
        (-2.3956644641744973e+01, 3.1895416071764746e+01),
        (-1.4753045362117216e+01, 2.2102865017169680e+01),
        (-1.4588939588609845e+01, 2.1921941500044536e+01),
        (-5.2099401333955382e-03, 9.0942543590159586e-01),
        (8.0086486337141872e-04, 1.3163195889966761e-02),
        (2.0895763981514613e-04, 2.2967098490920792e-04))),
)
LOW_E_XI = (0.2, 0.99, 1.0, 20.0, 100.0)
LOW_E_TRUTH = (
    (Kind.COULOMB2D_CONT, {"m_quantum": 0}, (
        (4.9475287478775198e-01, 1.9521106060199219e+01),
        (-8.3741574204642222e-01, 5.7223463686165958e+00),
        (-7.8079181448772761e-01, 5.7169250587246179e+00),
        (5.1568860986562659e-01, 7.8935036105440237e-01),
        (-2.6401369765382759e-01, 3.5293961995358242e-01))),
    (Kind.COULOMB3D_CONT, {"l_quantum": 0}, (
        (-1.9210340557238336e+01, 8.3900198183923692e+01),
        (5.2643505893181626e+00, 5.2645712132040661e+00),
        (5.2629016005330174e+00, 5.2736248516300215e+00),
        (2.8497002758486600e-01, 4.6018667603460972e-01),
        (-5.4673832297068799e-02, 8.9903706470944048e-02))),
)


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
        """The residue's recurrence equals the Laguerre closed form everywhere."""
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

    @pytest.mark.parametrize("kind,params,big_n", [
        *((kind, {}, big_n) for kind in (Kind.COULOMB3D, Kind.SHO3D, Kind.SHO1D_EVEN)
          for big_n in (30, 100, 400)),
        (Kind.MORSE, {"morse_v0": 20000.0}, 150),  # delta = 200
    ])
    def test_high_orders_against_mpmath(self, kind, params, big_n):
        # a power series in xi cancels here (1e-2 of max|Phi| at N = 30), and
        # its integer coefficients no longer fit a double from N = 171
        mp = pytest.importorskip("mpmath")
        spec = ProblemSpec(kind=kind, **params)
        ode = canonicalize(spec, residue_lattice_energy(spec, big_n))
        b, lam = ode.beta.real - 1.0, ode.lam.real
        # x = 2 lambda xi runs past the last turning point, x = 4N + 2b + 2
        xi = np.linspace(0.0, (4 * big_n + 2 * b + 60) / (2 * lam), 17)
        with mp.workdps(40):
            want = np.array([complex(
                2j * mp.pi * mp.expjpi(b) * (2 * lam) ** mp.mpf(b) * mp.exp(-lam * mp.mpf(x))
                * mp.laguerre(big_n, b, 2 * lam * mp.mpf(x))) for x in xi])
        got = bound_phi_residue(ode, big_n, xi)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # 40-digit mpmath values of 2 pi i e^{i pi b} (2 lambda)^b e^{-lambda xi}
    # L_N^(b)(2 lambda xi) at xi = 0 and 0.0049, where the intermediate
    # w_j ~ C(alpha_+ - 1, j) leaves the double range although Phi does not
    PAST_INTERMEDIATE_OVERFLOW = (
        (Kind.COULOMB3D, 1020, (-12830.264397260715j, 816.3092445423036j)),
        (Kind.COULOMB3D, 1499, (-18849.55592153876j, -857.8079860681997j)),
        (Kind.SHO1D_EVEN, 1500, (0.09152149617737823, 0.059673389020085045)),
    )

    @pytest.mark.parametrize("kind,big_n,want", PAST_INTERMEDIATE_OVERFLOW)
    def test_intermediate_overflow_near_zero_is_scaled_away(self, kind, big_n, want):
        spec = ProblemSpec(kind=kind)
        ode = canonicalize(spec, residue_lattice_energy(spec, big_n))
        got = bound_phi_residue(ode, big_n, np.array([0.0, 0.0049]))
        assert np.max(np.abs(got - np.array(want))) <= 2e-13 * np.max(np.abs(want))

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

    def test_half_turns_are_exact(self):
        for k in range(-8, 9):
            assert ce._half_turns(0.5 * k) == (1, 1j, -1, -1j)[k % 4]
        assert ce._half_turns(0.3) == cmath.exp(0.3j * math.pi)

    def test_hermite_route_is_the_polynomial(self):
        xi = np.linspace(-2.0, 2.0, 7)
        assert np.array_equal(hermite_phi_residue(1, xi), 2.0 * xi)
        assert hermite_phi_residue(4, 0.0) == 12.0

    def test_hermite_route_holds_to_its_last_level_and_stops_past_it(self):
        # the recurrence reads 1.0e-14 of max|H_n e^{-xi^2/2}| on
        # [0, sqrt(2n+1) + 3] at n = 192 against mpmath; 192 is the last n
        # whose H_n stays finite there
        mp = pytest.importorskip("mpmath")
        for level in (45, 100, 170, 192):
            xi = np.linspace(0.0, math.sqrt(2 * level + 1) + 3.0, 201)
            with mp.workdps(50):
                want = np.array([float(mp.hermite(level, mp.mpf(x))
                                       * mp.exp(-mp.mpf(x) ** 2 / 2)) for x in xi])
            got = hermite_phi_residue(level, xi) * np.exp(-0.5 * xi * xi)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), level
        # one level past it, H_n overflows 3 past its turning point; the
        # finiteness check names the first point that overflowed
        xi = np.linspace(0.0, math.sqrt(2 * 193 + 1) + 3.0, 201)
        with pytest.raises(FloatingPointError, match="residue route gave") as info:
            phi_values(ProblemSpec(kind=Kind.SHO1D_HERMITE), 193.5, xi, Method.RESIDUE)
        assert 0 < info.value.point < xi.size
        assert math.isfinite(hermite(193, xi[info.value.point - 1]))


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

    @pytest.mark.parametrize("energy,cases,xis,bound", [
        (0.25, REAL_TRUTH, REAL_XI, 1e-12),
        (0.05, LOW_E_TRUTH, LOW_E_XI, 1e-11),
    ])
    def test_against_mpmath(self, energy, cases, xis, bound):
        for kind, params, truth in cases:
            _, ode, exps = continuum_setup(kind, energy, **params)
            for xi, (im_phi, scale) in zip(xis, truth):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = continuum_phi_real_integral(ode, exps, xi)
                assert abs(got - 1j * im_phi) <= bound * scale, (kind, xi)

    def test_low_energy_warns(self):
        # at E = 1e-3 the rounding of the sum swamps Phi (it read ~1e14 where
        # Phi is O(1)), and at E = 1e-5 the finest step does not resolve
        # the Coulomb phase; both points still return, with a warning
        _, ode, exps = continuum_setup(Kind.COULOMB3D_CONT, 1e-3)
        with pytest.warns(PrecisionLoss, match="relative rounding error"):
            continuum_phi_real_integral(ode, exps, 0.0447)
        _, ode, exps = continuum_setup(Kind.COULOMB3D_CONT, 1e-5)
        with pytest.warns(PrecisionLoss, match="did not converge"):
            continuum_phi_real_integral(ode, exps, 0.0134)

    def test_edge_factor_overflow_names_delta(self):
        # delta = 2 / sqrt(2E) = 14142 at E = 1e-8: sinh(pi delta / 2)
        # overflows a double past delta = 452.3
        _, ode, exps = continuum_setup(Kind.COULOMB3D_CONT, 1e-8)
        with pytest.raises(OverflowError, match=r"delta = 14142\.1.*below 452\.303"):
            continuum_phi_real_integral(ode, exps, 1.0)

    def test_node_tables_are_nested_and_read_only(self):
        for levels in (ce._RAY_LEVELS, ce._SEGMENT_LEVELS):
            assert len(levels) == 7
            first = levels[0][0]
            for k, arrays in enumerate(levels[1:], 1):
                # each halving adds one node between every pair of the level below
                assert arrays[0].size == (first.size - 1) * 2 ** (k - 1)
                for array in arrays:
                    with pytest.raises(ValueError):
                        array[0] = 0.0

    def test_regime_guard(self):
        ode = canonicalize(ProblemSpec(kind=Kind.SHO1D_EVEN), 0.5)
        with pytest.raises(MethodRegimeMismatch):
            continuum_phi_real_integral(ode, exponents(ode), 1.0)

    def test_fractional_edge_exponent_takes_the_general_edge_factor(self):
        # synthetic beta = 1.4, outside the catalog: c = e^{i pi beta} is
        # neither 1 nor -1. Truth is i(e^{-pi delta/2} - c e^{pi delta/2})
        # 2^(beta-1) e^{-i xi} B(alpha_-, alpha_+) M(alpha_-, beta, 2 i xi)
        # from 30-digit mpmath; xi = 0.5 is on the segment, 2 and 5.5 on the rays
        from laplaceqm.core_laplace import CanonicalODE, Regime

        ode = CanonicalODE(beta=1.4 + 0j, delta=0.3, lam=1j, regime=Regime.CONTINUUM)
        for xi, want in ((0.5, -3.0410080707720804 + 2.2340268965311654j),
                         (2.0, -0.45418568979970325 + 0.33366009672394104j),
                         (5.5, -0.15449460514072244 + 0.11349693760125643j)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = continuum_phi_real_integral(ode, exponents(ode), xi)
            assert abs(got - want) <= 1e-13 * abs(want), xi


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

    def test_measured_rounding_warns_where_the_series_is_garbage(self):
        # against mpmath the series is off by 0.25 at (E = 1e-3, xi = 10) and
        # by 6.5 at (E = 5e-5, xi = 3), both well below xi = 20
        for energy, xi in ((1e-3, 10.0), (5e-5, 3.0)):
            _, ode, exps = continuum_setup(Kind.COULOMB3D_CONT, energy)
            with pytest.warns(PrecisionLoss, match="kummer_m at a = .* z = "):
                continuum_phi_series(ode, exps, xi)
        _, ode, exps = continuum_setup(Kind.COULOMB3D_CONT, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for xi in (0.5, 2.0, 5.0, 10.0):
                continuum_phi_series(ode, exps, xi)

    def test_low_energy_prefactor_against_mpmath(self):
        # delta = 316.2: e^{pi delta} overflows a double, the edge factor
        # 2i sinh(pi delta / 2) does not; mpmath at 50 digits gives
        # Phi = -126.98387360572795 i (Re Phi ~ 3e-50)
        _, ode, exps = continuum_setup(Kind.COULOMB3D_CONT, 2e-5)
        got = continuum_phi_series(ode, exps, 0.01)
        assert abs(got + 126.98387360572795j) <= 1e-12 * 126.98387360572795

    def test_edge_factor_overflow_names_delta(self):
        # the same bound as the real integral: |delta| below 452.3
        _, ode, exps = continuum_setup(Kind.COULOMB3D_CONT, 1e-8)
        with pytest.raises(OverflowError, match=r"delta = 14142\.1.*below 452\.303"):
            continuum_phi_series(ode, exps, 1.0)

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
        # at E = 1.5e-3 the Coulomb phase's cancellation on the circle is
        # measured at xi = 0.5 and warned
        _, ode, exps = continuum_setup(Kind.COULOMB3D_CONT, 1.5e-3)
        with pytest.warns(PrecisionLoss, match="R\\*xi = 0.55 carries a relative rounding"):
            continuum_phi_circle(ode, exps, default_phase_convention(ode), 0.5)

    def test_low_energy_point_against_mpmath(self):
        # coulomb3d_cont at E = 3e-3, xi = 0.5 converges with no warning;
        # (Im Phi, scale), scale as in WINDOW_TRUTH, from mpmath hyp1f1 at 40 digits
        im_phi, scale = -2.5643097735028338e+00, 9.1061833285249683e+01
        _, ode, exps = continuum_setup(Kind.COULOMB3D_CONT, 3e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = continuum_phi_circle(ode, exps, default_phase_convention(ode), 0.5)
        assert abs(got - 1j * im_phi) <= 2e-9 * scale

    def test_config_validation(self):
        # the radius is the one setting; the finest circle level is a constant
        assert [f.name for f in dataclasses.fields(ContourConfig)] == ["radius_R"]
        assert ContourConfig().steps == ContourConfig.steps == 100_000
        assert ce._CIRCLE_LEVELS == (3125, 6250, 12500, 25000, 50000, 100000)
        with pytest.raises(ValueError):
            ContourConfig(radius_R=1.0)
        for radius in (math.inf, math.nan):
            with pytest.raises(ValueError):
                ContourConfig(radius_R=radius)

    def test_memo_keying_is_bit_exact(self):
        # interleaved energies and radii of the circle's level memo, and the
        # degenerate free segment's panel tables, must each read exactly what
        # a cold cache gives for the same call
        states = ((Kind.COULOMB3D_CONT, 0.7), (Kind.COULOMB3D_CONT, 2.0), (Kind.FREE3D, 2.0))
        keys = [(kind, e, r) for r in (1.1, 1.6) for kind, e in states]

        def phi(kind, energy, radius, xi):
            _, ode, exps = continuum_setup(kind, energy)
            cfg = ContourConfig(radius_R=radius)
            return continuum_phi_circle(ode, exps, default_phase_convention(ode), xi, cfg)

        cold = {}
        for key in keys:
            cache = ce._segment_panels if key[0] is Kind.FREE3D else ce._circle_terms
            for xi in (0.5, 3.0):
                cache.cache_clear()
                cold[key, xi] = phi(*key, xi)
        for key in keys + keys[::-1]:
            for xi in (0.5, 3.0, 0.5):
                assert phi(*key, xi) == cold[key, xi]

    def test_memo_arrays_are_read_only(self):
        _, ode, exps = continuum_setup(Kind.COULOMB3D_CONT, 1.0)
        for arrays in (ce._circle_terms(ode, exps, 1.1, 1000), ce._segment_panels(4)):
            for array in arrays:
                with pytest.raises(ValueError):
                    array[0] = 0.0

    def test_degenerate_free_segment_against_mpmath(self):
        # the segment integrand is entire, so the Gauss-Legendre panels reach
        # rounding at every l and xi, far past the tracked-phase window
        for l, truth in FREE3D_TRUTH.items():
            _, ode, exps = continuum_setup(Kind.FREE3D, 1.0, l_quantum=l)
            conv = default_phase_convention(ode)
            for xi, (im_phi, scale) in zip(FREE3D_XI, truth):
                got = continuum_phi_circle(ode, exps, conv, xi)
                assert abs(got - 1j * im_phi) <= 1e-12 * scale, (l, xi)

    def test_tracked_phase_circle_against_mpmath(self):
        # the step count sized by convergence keeps the trusted window (xi <= 10)
        for kind, params, energy, truth in WINDOW_TRUTH:
            _, ode, exps = continuum_setup(kind, energy, **params)
            conv = default_phase_convention(ode)
            for xi, (im_phi, scale) in zip(WINDOW_XI, truth):
                got = continuum_phi_circle(ode, exps, conv, xi)
                assert abs(got - 1j * im_phi) <= 1e-9 * scale, (kind, xi)

    def test_no_warning_inside_the_window(self):
        _, ode, exps = continuum_setup(Kind.COULOMB3D_CONT, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            continuum_phi_circle(ode, exps, default_phase_convention(ode), 5.0)

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
        # the grid, plus points just either side of the four angles where the
        # arrow from -i or +i is horizontal: an arcsine form loses sqrt(eps) there
        turns = (math.acos(-1.0 / r), math.acos(1.0 / r),
                 math.pi + math.acos(1.0 / r), math.pi + math.acos(-1.0 / r))
        near = [t + s * d for t in turns for d in (1e-12, 1e-9, 1e-6) for s in (-1.0, 1.0)]
        theta = np.sort(np.concatenate(
            [np.linspace(0.0, 2.0 * math.pi, 4001, endpoint=False), near]))
        z = r * np.exp(1j * (theta + 0.5 * math.pi))
        want1 = np.unwrap(np.angle(z + 1j)) - 0.5 * math.pi
        want2 = np.unwrap(np.angle(z - 1j)) + 0.5 * math.pi
        assert np.max(np.abs(phase_phi1(theta, r) - want1)) < 1e-13
        assert np.max(np.abs(phase_phi2(theta, r) - want2)) < 1e-13


class TestMorseRay:
    def setup_method(self):
        self.spec = ProblemSpec(kind=Kind.MORSE_CONT, mu=1.0, morse_a=1.0, morse_v0=1.0)
        self.ode = canonicalize(self.spec, 1.0)
        self.exps = exponents(self.ode)

    def test_frozen_values(self):
        got1 = morse_continuum_phi(self.ode, self.exps, 1.0)
        assert got1 == pytest.approx(
            complex(3.1211462528182341e-06, -2.1811987387935216e-06), rel=1e-8
        )
        got40 = morse_continuum_phi(self.ode, self.exps, 40.0)
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

    @pytest.mark.parametrize("kind,energy,method", [
        (Kind.COULOMB3D_CONT, 1.0, Method.REAL_INTEGRAL),
        (Kind.COULOMB3D_CONT, 1.0, Method.CIRCLE),
        (Kind.COULOMB3D, -0.5, Method.RESIDUE),
        (Kind.SHO1D_HERMITE, 2.5, Method.RESIDUE),
        (Kind.MORSE_CONT, 1.0, Method.MORSE_RAY),
        (Kind.COULOMB3D_CONT, 1.0, Method.SERIES),
    ])
    def test_tolerance_rejected_where_ignored(self, kind, energy, method):
        # every route sizes its own rule or is a closed form: none takes a tol
        with pytest.raises(TypeError, match="tol"):
            phi_values(ProblemSpec(kind=kind), energy, [1.0], method, tol=1e-12)

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

    def test_free_limit_keeps_its_digits(self):
        # Phi ~ delta ~ E^(-1/2): the edge factor must not round to 0 (it did
        # at E = 1e34) nor the monodromy to e^(2 pi i) - 1 != 0 (E = 1e26)
        spec = ProblemSpec(kind=Kind.COULOMB3D_CONT)
        real = {}
        for energy in (1e26, 1e34):
            real[energy] = phi_values(spec, energy, [1.0], Method.REAL_INTEGRAL)[0]
            series = phi_values(spec, energy, [1.0], Method.SERIES)[0]
            assert series == pytest.approx(real[energy], rel=1e-8)
        assert real[1e34] / real[1e26] == pytest.approx(1e-4, rel=1e-6)

    @pytest.mark.filterwarnings("ignore::laplaceqm.contour_eval.PrecisionLoss")
    def test_first_failing_point_stops_the_grid(self, monkeypatch):
        # the series evaluates one Kummer M per point, at z = 2 i xi
        seen = []

        def counted(a, b, z):
            seen.append(z.imag / 2.0)
            return kummer_m(a, b, z)

        kummer_m = ce.kummer_m
        monkeypatch.setattr(ce, "kummer_m", counted)
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

    def test_closed_form_fails_at_its_first_non_finite_point(self, monkeypatch):
        def broken(ode, N, xi):
            values = np.asarray(residue(ode, N, xi), dtype=complex)
            values[2], values[3] = complex(math.inf, 0.0), complex(math.nan, 0.0)
            return values

        residue = ce.bound_phi_residue
        monkeypatch.setattr(ce, "bound_phi_residue", broken)
        spec = ProblemSpec(kind=Kind.COULOMB3D)
        with pytest.raises(FloatingPointError, match=r"residue route gave \(inf\+0j\) at xi = 3$") as info:
            phi_values(spec, -0.5, [1.0, 2.0, 3.0, 4.0], Method.RESIDUE)
        assert info.value.point == 2

    def test_a_config_no_circle_reads_is_rejected(self):
        # free3d's circle integrates the segment between the branch points,
        # which has no radius, and no other route reads one
        cases = ((Kind.FREE3D, 1.0, Method.CIRCLE), (Kind.FREE3D, 1.0, Method.SERIES),
                 (Kind.COULOMB3D_CONT, 1.0, Method.REAL_INTEGRAL),
                 (Kind.MORSE_CONT, 1.0, Method.MORSE_RAY), (Kind.COULOMB3D, -0.5, Method.RESIDUE),
                 (Kind.SHO1D_HERMITE, 0.5, Method.RESIDUE))
        for kind, energy, method in cases:
            spec = ProblemSpec(kind=kind)
            with pytest.raises(MethodRegimeMismatch, match=(
                    f"^the {method.value} route for {kind.value} reads no circle radius$")):
                phi_values(spec, energy, [0.5, 3.0, 10.0], method, ContourConfig(3.0))
            phi_values(spec, energy, [0.5, 3.0, 10.0], method)  # no config: runs
        spec = ProblemSpec(kind=Kind.FREE2D)  # half-odd alpha: the circle reads R
        grid = [0.5, 3.0]
        assert (phi_values(spec, 1.0, grid, Method.CIRCLE, ContourConfig(1.1)).tolist()
                == phi_values(spec, 1.0, grid, Method.CIRCLE).tolist())
        assert (phi_values(spec, 1.0, grid, Method.CIRCLE, ContourConfig(3.0)).tolist()
                != phi_values(spec, 1.0, grid, Method.CIRCLE).tolist())

    def test_hermite_kind_takes_energy(self):
        spec = ProblemSpec(kind=Kind.SHO1D_HERMITE)
        got = phi_values(spec, 2.5, np.array([0.0]), Method.RESIDUE)  # n = 2
        assert got[0] == pytest.approx(-2.0)  # H_2(0)

    def test_hermite_kind_takes_only_lattice_energies(self):
        # E = 2.7 is no oscillator level: no Hermite polynomial solves it
        spec = ProblemSpec(kind=Kind.SHO1D_HERMITE)
        for energy in (2.7, 2.5 + 1e-6, -0.5):
            with pytest.raises(NonIntegerOrder, match="E/omega - 1/2"):
                phi_values(spec, energy, [0.3], Method.RESIDUE)
        got = phi_values(spec, 2.5 + 1e-10, [0.3], Method.RESIDUE)
        assert got[0] == pytest.approx(4 * 0.3**2 - 2)


class TestGridContract:
    """Every route takes the whole xi grid and evaluates its points in order."""

    def routes(self):
        """(route as a function of xi, grid) for every route and rule."""
        out = []
        for kind, energy, grid in ((Kind.COULOMB3D_CONT, 1.0, [0.3, 0.99, 1.0, 4.0]),
                                   (Kind.FREE3D, 2.0, [0.5, 3.0])):
            _, ode, exps = continuum_setup(kind, energy)
            conv = default_phase_convention(ode)
            out += [(partial(continuum_phi_real_integral, ode, exps), grid),
                    (partial(continuum_phi_circle, ode, exps, conv,
                             config=ContourConfig(1.3)), grid),
                    (partial(continuum_phi_series, ode, exps), grid)]
        _, ode, exps = continuum_setup(Kind.MORSE_CONT, 1.0, morse_v0=1.2)
        return out + [(partial(morse_continuum_phi, ode, exps), [0.5, 9.0, 20.0])]

    def test_grid_equals_point_by_point(self):
        for route, grid in self.routes():
            on_grid = route(np.array(grid))
            assert on_grid.dtype == complex and on_grid.shape == (len(grid),), route
            assert on_grid.tolist() == [route(x) for x in grid], route

    def test_scalar_xi_gives_a_complex(self):
        for route, grid in self.routes():
            for x in (grid[0], np.float64(grid[0]), np.array(grid[0])):
                assert type(route(x)) is complex, route

    @pytest.mark.filterwarnings("ignore::laplaceqm.contour_eval.PrecisionLoss")
    def test_no_point_after_the_first_non_finite_one(self, monkeypatch):
        # R*xi = 1.1 * 1000 overflows the circle sum to NaN; xi = 2 is never summed
        seen = []

        def counted(ode, exps, radius_R, xi):
            seen.append(xi)
            return level_sums(ode, exps, radius_R, xi)

        level_sums = ce._circle_level_sums
        monkeypatch.setattr(ce, "_circle_level_sums", counted)
        _, ode, exps = continuum_setup(Kind.COULOMB3D_CONT, 1.0)
        got = continuum_phi_circle(ode, exps, default_phase_convention(ode), [1.0, 1000.0, 2.0])
        assert seen == [1.0, 1000.0]
        assert np.isfinite(got[0]) and not np.isfinite(got[1]) and np.isnan(got[2])

    def test_edge_prefactor_once_per_grid(self, monkeypatch):
        calls = []

        def counted(ode, exps):
            calls.append(ode)
            return edge(ode, exps)

        edge = ce._edge_prefactor
        monkeypatch.setattr(ce, "_edge_prefactor", counted)
        spec = ProblemSpec(kind=Kind.COULOMB3D_CONT)
        phi_values(spec, 1.0, [0.5, 1.0, 2.0, 5.0], Method.REAL_INTEGRAL)
        assert len(calls) == 1


    def test_morse_gammas_once_per_grid(self, monkeypatch):
        # V0 = 1, E = 10: U's Kummer branch ends at x = 19.7, so both grids
        # hold Kummer points and ray points; Gamma is called by the route
        # and by tricomi_u, each by its own module's name
        calls = []

        def counted(z):
            calls.append(z)
            return gamma(z)

        gamma = special_fn.gamma_complex
        monkeypatch.setattr(special_fn, "gamma_complex", counted)
        monkeypatch.setattr(ce, "gamma_complex", counted)
        spec = ProblemSpec(kind=Kind.MORSE_CONT, morse_v0=1.0)
        counts = []
        for points in (3, 60):
            calls.clear()
            phi_values(spec, 10.0, np.linspace(1.0, 40.0, points), Method.MORSE_RAY)
            counts.append(len(calls))
        # Gamma(alpha_-), U's four Kummer Gammas and its ray's Gamma(c)
        # (Gamma(c + 1) = c Gamma(c)), five of them by reflection, which
        # calls Gamma once more
        assert counts == [11, 11]


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
