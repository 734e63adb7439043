"""Tests for the canonical ODE data, exponent pair, and phase-tracked log terms."""

import cmath
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laplaceqm.core_laplace import (
    CanonicalODE,
    Exponents,
    Regime,
    default_phase_convention,
    exponents,
    log_terms,
)


def bound_ode(beta: float, delta: float, lam: float) -> CanonicalODE:
    return CanonicalODE(beta=complex(beta), delta=delta, lam=complex(lam),
                        regime=Regime.BOUND)


def continuum_ode(beta: float, delta: float) -> CanonicalODE:
    return CanonicalODE(beta=complex(beta), delta=delta, lam=1j,
                        regime=Regime.CONTINUUM)


def morse_ode(kbar: float, delta: float) -> CanonicalODE:
    return CanonicalODE(beta=1.0 + 2j * kbar, delta=delta, lam=0.5 + 0j,
                        regime=Regime.MORSE_CONTINUUM)


class TestCanonicalODE:
    def test_bound_rejects_complex_beta(self):
        with pytest.raises(ValueError):
            CanonicalODE(beta=1 + 1j, delta=0.5, lam=0.5 + 0j, regime=Regime.BOUND)

    # lambda = 0 (coincident characteristic roots, no exponent pair) is
    # rejected in every regime
    def test_bound_rejects_odd_lambda(self):
        for lam in (0.3 + 0j, 0j):
            with pytest.raises(ValueError):
                CanonicalODE(beta=0.5 + 0j, delta=0.5, lam=lam, regime=Regime.BOUND)

    def test_continuum_rejects_real_lambda(self):
        for lam in (1.0 + 0j, 0j):
            with pytest.raises(ValueError):
                CanonicalODE(beta=2.0 + 0j, delta=0.0, lam=lam, regime=Regime.CONTINUUM)

    def test_morse_rejects_imaginary_lambda(self):
        for lam in (1j, 0j):
            with pytest.raises(ValueError):
                CanonicalODE(beta=1 + 2j, delta=1.0, lam=lam, regime=Regime.MORSE_CONTINUUM)

    def test_morse_rejects_beta_off_the_critical_line(self):
        with pytest.raises(ValueError):
            CanonicalODE(beta=2 + 2j, delta=1.0, lam=0.5 + 0j,
                         regime=Regime.MORSE_CONTINUUM)

    def test_frozen(self):
        ode = continuum_ode(2.0, 0.0)
        with pytest.raises(FrozenInstanceError):
            ode.delta = 1.0


def kernel_pair_defect(ode: CanonicalODE, z: complex) -> complex:
    """P(z) - Q(z) (a+/(z - lambda) + a-/(z + lambda)) for P = beta z + delta, Q = z^2 - lambda^2."""
    exps = exponents(ode)
    p = ode.beta * z + ode.delta
    q = z * z - ode.lam * ode.lam
    return p - q * (exps.alpha_plus / (z - ode.lam) + exps.alpha_minus / (z + ode.lam))


class TestBuildPQ:
    """The kernel pair P = beta z + delta, Q = z^2 - lambda^2 as the exponents encode it:
    P/Q has simple poles at +-lambda with residues alpha_+-."""

    def test_sho_even_row(self):
        # beta=1/2, delta=1/4, lambda=1/2: P/Q = (z/2 + 1/4)/(z^2 - 1/4) = (1/2)/(z - 1/2)
        exps = exponents(bound_ode(0.5, 0.25, 0.5))
        assert exps.alpha_plus == pytest.approx(0.5, abs=1e-15)
        assert exps.alpha_minus == pytest.approx(0.0, abs=1e-15)

    def test_free_3d_row(self):
        # beta=2, delta=0, lambda=i: P/Q = 2z/(z^2 + 1) = 1/(z - i) + 1/(z + i)
        exps = exponents(continuum_ode(2.0, 0.0))
        assert exps.alpha_plus == pytest.approx(1.0, abs=1e-15)
        assert exps.alpha_minus == pytest.approx(1.0, abs=1e-15)

    def test_zero_p(self):
        # beta = 0 bound is synthetic but well-formed; P collapses to zero
        exps = exponents(bound_ode(0.0, 0.0, 1.0))
        assert exps.alpha_plus == 0j
        assert exps.alpha_minus == 0j

    @pytest.mark.parametrize("make", [
        lambda: bound_ode(0.5, 0.25, 0.5),
        lambda: continuum_ode(3.0, 1.7),
        lambda: morse_ode(2.0, 1.5),
    ])
    def test_q_roots_are_pm_lambda(self, make):
        ode = make()
        for z in (0.3 + 0.7j, -1.9 + 0.1j, 2.4 - 1.2j):
            assert abs(kernel_pair_defect(ode, z)) < 1e-13


class TestExponents:
    def test_sho_2d_closed_form(self):
        # beta=|m|+1, delta=E/2w, lambda=1/2 gives a_pm = (|m|+1 +- E/w)/2
        m_abs, e_over_w = 2, 3.0
        exps = exponents(bound_ode(m_abs + 1, e_over_w / 2.0, 0.5))
        assert exps.alpha_plus == pytest.approx(0.5 * (m_abs + 1 + e_over_w))
        assert exps.alpha_minus == pytest.approx(0.5 * (m_abs + 1 - e_over_w))

    def test_symmetric_continuum(self):
        exps = exponents(continuum_ode(2.0, 0.0))
        assert exps.alpha_plus == 1 + 0j
        assert exps.alpha_minus == 1 + 0j

    def test_coulomb_continuum_unit_strength(self):
        # beta=2, delta=2: a_pm = 1 -+ i
        exps = exponents(continuum_ode(2.0, 2.0))
        assert exps.alpha_plus == pytest.approx(1 - 1j)
        assert exps.alpha_minus == pytest.approx(1 + 1j)

    @given(beta=st.floats(0.1, 9.0), delta=st.floats(-4.0, 4.0),
           lam=st.sampled_from([0.5, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_sum_is_beta_bound(self, beta, delta, lam):
        exps = exponents(bound_ode(beta, delta, lam))
        assert abs(exps.alpha_plus + exps.alpha_minus - beta) <= 1e-12 * abs(beta)

    @given(beta=st.floats(1.0, 9.0), delta=st.floats(0.0, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_sum_is_beta_continuum(self, beta, delta):
        exps = exponents(continuum_ode(beta, delta))
        assert abs(exps.alpha_plus + exps.alpha_minus - beta) <= 1e-12 * beta

    @given(kbar=st.floats(0.1, 6.0), delta=st.floats(0.0, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_sum_is_beta_morse(self, kbar, delta):
        ode = morse_ode(kbar, delta)
        exps = exponents(ode)
        assert abs(exps.alpha_plus + exps.alpha_minus - ode.beta) <= 1e-12 * abs(ode.beta)

    @given(beta=st.floats(0.5, 8.0), delta=st.floats(0.01, 4.0),
           lam=st.sampled_from([0.5, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_bound_ordering(self, beta, delta, lam):
        exps = exponents(bound_ode(beta, delta, lam))
        assert exps.alpha_plus.imag == 0.0
        assert exps.alpha_plus.real > exps.alpha_minus.real

    @given(beta=st.integers(1, 9), delta=st.floats(0.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_continuum_conjugate_pair(self, beta, delta):
        exps = exponents(continuum_ode(float(beta), delta))
        assert abs(exps.alpha_minus - exps.alpha_plus.conjugate()) <= 1e-12 * max(
            1.0, abs(exps.alpha_plus)
        )


class TestPhaseConvention:
    def test_continuum_reference_value(self):
        delta = 1.2
        conv = default_phase_convention(continuum_ode(3.0, delta))
        assert conv == pytest.approx(
            math.exp(-0.5 * math.pi * delta), rel=1e-12
        )

    def test_bound_regime_rejected(self):
        with pytest.raises(ValueError, match="continuum"):
            default_phase_convention(bound_ode(0.5, 0.25, 0.5))

    def test_morse_regime_rejected(self):
        with pytest.raises(ValueError, match="continuum"):
            default_phase_convention(morse_ode(1.5, 2.0))


def integrand(ode, exps, conv, xi, z, phases):
    """The single-valued integrand at z: e^{xi z + t_plus + t_minus} times the reference phase."""
    t_plus, t_minus = log_terms(ode, exps, z, phases)
    return complex(np.exp(xi * z + t_plus + t_minus) * conv)


class TestIntegrand:
    def setup_method(self):
        self.ode = continuum_ode(3.0, 1.4)
        self.exps = exponents(self.ode)
        self.conv = default_phase_convention(self.ode)

    def test_reference_edge_value(self):
        # at the dog-bone right edge, xi=0, zero winding: exp(-pi delta/2)
        got = integrand(self.ode, self.exps, self.conv, 0.0, 0j, (0.0, 0.0))
        assert got == pytest.approx(math.exp(-0.5 * math.pi * self.ode.delta), rel=1e-12)

    def test_zero_winding_is_modulus_product_times_reference(self):
        z = 2.5 + 0j
        got = integrand(self.ode, self.exps, self.conv, 0.0, z, (0.0, 0.0))
        m2, m1 = abs(z - self.ode.lam), abs(z + self.ode.lam)
        want = (
            cmath.exp((self.exps.alpha_plus - 1) * math.log(m2)
                      + (self.exps.alpha_minus - 1) * math.log(m1))
            * self.conv
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_xi_enters_as_exponential(self):
        z = 0.4 + 0.9j
        base = integrand(self.ode, self.exps, self.conv, 0.0, z, (0.3, 1.1))
        shifted = integrand(self.ode, self.exps, self.conv, 2.0, z, (0.3, 1.1))
        assert shifted == pytest.approx(base * cmath.exp(2.0 * z), rel=1e-12)

    def test_winding_phase_factor(self):
        z = 0.4 + 0.9j
        phi1, phi2 = 0.7, -1.3
        base = integrand(self.ode, self.exps, self.conv, 1.0, z, (0.0, 0.0))
        wound = integrand(self.ode, self.exps, self.conv, 1.0, z, (phi1, phi2))
        factor = cmath.exp(1j * phi2 * (self.exps.alpha_plus - 1)
                           + 1j * phi1 * (self.exps.alpha_minus - 1))
        assert wound == pytest.approx(base * factor, rel=1e-12)

    def test_full_turn_multiplies_by_beta_monodromy(self):
        """Winding both cuts once multiplies by e^{2 pi i (beta - 2)}."""
        z = 1.7 - 0.2j
        base = integrand(self.ode, self.exps, self.conv, 0.5, z, (0.2, 0.9))
        turned = integrand(
            self.ode, self.exps, self.conv, 0.5, z,
            (0.2 + 2 * math.pi, 0.9 + 2 * math.pi),
        )
        want = base * cmath.exp(2j * math.pi * (self.ode.beta - 2.0))
        assert turned == pytest.approx(want, rel=1e-11)

    @given(phi1=st.floats(-6.0, 6.0), phi2=st.floats(-6.0, 6.0))
    @settings(max_examples=40, deadline=None)
    def test_integer_exponents_are_single_valued(self, phi1, phi2):
        ode = continuum_ode(4.0, 0.0)  # a_pm = 2, both integers
        exps = exponents(ode)
        conv = default_phase_convention(ode)
        z = 0.3 + 1.8j
        a = integrand(ode, exps, conv, 1.0, z, (phi1, phi2))
        b = integrand(ode, exps, conv, 1.0, z,
                      (phi1 + 2 * math.pi, phi2 + 2 * math.pi))
        assert b == pytest.approx(a, rel=1e-11)

    def test_exponents_frozen(self):
        with pytest.raises(FrozenInstanceError):
            self.exps.alpha_plus = 0j
