"""Oracle tests for the special-function layer.

The polynomial oracles are three-term recurrences run in exact rational
(or integer) arithmetic, deliberately different from the closed-form
binomial products of the Hermite implementation and of the Laguerre
closed forms in laguerre_closed_form.py (the residue route's oracle).  Transcendental values are frozen
high-precision literals.
"""

import math
import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laplaceqm.special_fn import (
    InvalidB,
    PoleError,
    PrecisionLoss,
    QuadratureFailure,
    SeriesDivergence,
    _adaptive_gauss,
    _Cancelled,
    _tricomi_u_kummer,
    gamma_complex,
    hermite,
    hermite_coefficients,
    kummer_m,
    tricomi_u,
)

from laguerre_closed_form import (
    laguerre,
    laguerre_coefficients,
    laguerre_hermite_identity_residual,
)


def laguerre_recurrence_coeffs(order: int, b: Fraction):
    """Exact ascending coefficients of L_order^(b) by the k-step recurrence.

    (k+1) L_{k+1} = (2k+1+b-x) L_k - (k+b) L_{k-1}, polynomials held as
    Fraction coefficient lists.
    """
    prev = [Fraction(1)]
    if order == 0:
        return prev
    cur = [Fraction(1) + b, Fraction(-1)]
    for k in range(1, order):
        shifted = [Fraction(0)] + cur  # x * L_k
        nxt = []
        for i in range(k + 2):
            term = Fraction(0)
            if i < len(cur):
                term += (2 * k + 1 + b) * cur[i]
            term -= shifted[i] if i < len(shifted) else Fraction(0)
            if i < len(prev):
                term -= (k + b) * prev[i]
            nxt.append(term / (k + 1))
        prev, cur = cur, nxt
    return cur


def hermite_recurrence_coeffs(n: int):
    # H_{k+1} = 2x H_k - 2k H_{k-1}, exact ints
    prev = [1]
    if n == 0:
        return prev
    cur = [0, 2]
    for k in range(1, n):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= 2 * k * c
        prev, cur = cur, nxt
    return cur


class TestLaguerre:
    @pytest.mark.parametrize("b", [Fraction(-1, 2), Fraction(1, 2), Fraction(0),
                                   Fraction(1), Fraction(3), Fraction(-3, 2)])
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 8])
    def test_coefficients_match_recurrence(self, order, b):
        got = laguerre_coefficients(order, float(b))
        want = laguerre_recurrence_coeffs(order, b)
        assert len(got) == order + 1
        for g, w in zip(got, want):
            assert g == pytest.approx(float(w), rel=1e-13, abs=1e-13)

    def test_known_row(self):
        # L_2^(1)(x) = 3 - 3x + x^2/2
        assert list(laguerre_coefficients(2, 1.0)) == pytest.approx([3.0, -3.0, 0.5])

    def test_negative_integer_superscript(self):
        # L_1^(-1)(x) = -x: the b = -1 column must not blow up
        assert list(laguerre_coefficients(1, -1.0)) == pytest.approx([0.0, -1.0])

    def test_evaluation_horner_consistency(self):
        xs = np.linspace(-2.0, 9.0, 11)
        c = laguerre_coefficients(4, -0.5)
        direct = sum(c[k] * xs**k for k in range(5))
        assert np.max(np.abs(laguerre(4, -0.5, xs) - direct)) < 1e-11

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            laguerre_coefficients(-1, 0.0)

    @given(order=st.integers(0, 10), b=st.floats(-1.9, 4.0))
    @settings(max_examples=80, deadline=None)
    def test_ode_coefficient_identity(self, order, b):
        """x L'' + (b+1-x) L' + order * L = 0, written per power of x.

        Collecting x^m gives (m+1)(m+b+1) c_{m+1} + (order-m) c_m = 0 for
        every m, which pins the whole coefficient vector up to scale.
        """
        c = laguerre_coefficients(order, b)
        for m in range(order):
            lhs = (m + 1) * (m + b + 1) * c[m + 1] + (order - m) * c[m]
            assert abs(lhs) <= 1e-12 * max(abs(c[m]), abs(c[m + 1]), 1e-30)


class TestHermite:
    @pytest.mark.parametrize("n", range(13))
    def test_coefficients_match_recurrence(self, n):
        assert list(hermite_coefficients(n)) == hermite_recurrence_coeffs(n)

    def test_h4(self):
        assert hermite(4, 0.0) == 12.0
        assert list(hermite_coefficients(4)) == [12, 0, -48, 0, 16]

    def test_parity(self):
        xs = np.linspace(0.1, 3.0, 7)
        assert np.allclose(hermite(6, -xs), hermite(6, xs))
        assert np.allclose(hermite(5, -xs), -hermite(5, xs))

    def test_identity_residual_examples(self):
        # both reductions collapse to zero defect in exact arithmetic
        assert laguerre_hermite_identity_residual(1, 1.0) == 0.0
        x = 0.7
        assert laguerre_hermite_identity_residual(2, x) <= 1e-9 * abs(hermite(4, x))

    @pytest.mark.parametrize("n", range(7))
    def test_identity_residual_sweep(self, n):
        xs = np.linspace(-3.0, 3.0, 61)
        scale = np.maximum(np.abs(hermite(2 * n, xs)), 1.0)
        assert np.max(laguerre_hermite_identity_residual(n, xs) / scale) <= 1e-9


class TestGamma:
    def test_factorials(self):
        for n in range(1, 11):
            assert gamma_complex(n) == pytest.approx(math.factorial(n - 1), rel=1e-13)

    def test_half_integer(self):
        assert gamma_complex(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_frozen_values(self):
        frozen = {
            3.7 + 0j: complex(4.1706517837966040, 0.0),
            2.5 + 1.3j: complex(0.49165633901835104, 0.75282593348509702),
            -1.2 + 0.4j: complex(0.81133189492909510, 1.5355543668434897),
            0.5 - 4.0j: complex(7.0977146671664229e-5, -0.0046804466130938050),
        }
        for z, want in frozen.items():
            assert gamma_complex(z) == pytest.approx(want, rel=5e-13)

    def test_poles(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                gamma_complex(z)

    @given(
        z=st.complex_numbers(
            min_magnitude=0.1, max_magnitude=8.0, allow_nan=False, allow_infinity=False
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_reflection(self, z):
        if abs(z.imag) < 1e-3 and abs(z.real - round(z.real)) < 1e-3:
            return  # too close to a pole for a meaningful residual
        lhs = gamma_complex(z) * gamma_complex(1.0 - z)
        rhs = math.pi / cmath.sin(math.pi * z)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    @staticmethod
    def _pole_distance(w: complex) -> float:
        n = round(w.real)
        return abs(w - n) if n <= 0 else math.inf

    @given(z=st.complex_numbers(min_magnitude=0.2, max_magnitude=6.0,
                                allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_duplication(self, z):
        if min(map(self._pole_distance, (z, z + 0.5, 2.0 * z))) < 1e-2:
            return  # cancellation near a pole swamps the identity
        lhs = gamma_complex(z) * gamma_complex(z + 0.5)
        rhs = 2.0 ** (1.0 - 2.0 * z.real) * cmath.exp(
            -2j * z.imag * math.log(2.0)
        ) * math.sqrt(math.pi) * gamma_complex(2.0 * z)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


class TestKummerM:
    def test_exponential_case(self):
        # M(1,1,z) = e^z
        for z in (0.3, -2.0, 1.5j, 2.0 + 3.0j):
            assert kummer_m(1.0, 1.0, z) == pytest.approx(cmath.exp(z), rel=1e-13)

    def test_frozen_values(self):
        assert kummer_m(0.5 + 0.5j, 1.5, 2j) == pytest.approx(
            complex(0.32587738822521142, 0.16087535269431279), rel=1e-12
        )
        assert kummer_m(-0.3, 0.7, -3.0) == pytest.approx(
            complex(1.8084717376299574, 0.0), rel=1e-12
        )
        assert kummer_m(2.0, 3.0, 10.0) == pytest.approx(
            complex(3964.7838430652090, 0.0), rel=1e-12
        )

    @given(
        a=st.floats(-3.0, 3.0),
        z=st.complex_numbers(max_magnitude=6.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_kummer_relation(self, a, z):
        """M(a,b,z) = e^z M(b-a, b, -z) with b fixed off the pole set."""
        b = 1.7
        lhs = kummer_m(a, b, z)
        rhs = cmath.exp(z) * kummer_m(b - a, b, -z)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)

    def test_conjugation(self):
        a, b, z = 0.5 - 0.25j, 1.25, 1.0 + 2.0j
        left = kummer_m(a, b, z)
        right = kummer_m(a.conjugate(), b, z.conjugate())
        assert left == pytest.approx(right.conjugate(), rel=1e-13)

    def test_invalid_b(self):
        for b in (0.0, -1.0, -5.0):
            with pytest.raises(InvalidB):
                kummer_m(0.5, b, 1.0)

    def test_divergence_guard(self):
        with pytest.raises(SeriesDivergence):
            kummer_m(1.0, 1.5, 2500.0)


class TestTricomiU:
    def test_frozen_values(self):
        cases = [
            (0.3, 0.7, 1.0, complex(0.89536270712923974, 0.0)),
            (-0.5 + 1.5j, 1 + 3j, 5.0, complex(-0.99861247174254720, -0.88907492419300000)),
            (-0.5 + 1.5j, 1 + 3j, 30.0, complex(1.9129749818535166, 4.6616767794661399)),
            (
                -0.9142135623730951 + 4.47213595499958j,
                1 + 8.94427190999916j,
                0.5,
                complex(-0.0055654166931339284, 0.00023245905021213804),
            ),
        ]
        for a, b, x, want in cases:
            assert tricomi_u(a, b, x) == pytest.approx(want, rel=1e-9)

    # (a, b, x, U) past the Kummer crossover, from mpmath hyperu at 40 digits:
    # the deep Morse well V0 = 40, E = 1 and V0 = 1, E = 10 (mu = a = 1) on
    # the Hankel loop, and two real a > 1/2, also on the loop
    MPMATH = (
        (-8.44 + 1.41j, 1 + 2.83j, 15.2, complex(-24970525.502817813, 20805731.185032953)),
        (-8.44 + 1.41j, 1 + 2.83j, 17.8, complex(18531325.111323938, -26048779.7573399)),
        (-8.44 + 1.41j, 1 + 2.83j, 30.0, complex(5836662377.080154, 64655351441.793755)),
        (-8.44 + 1.41j, 1 + 2.83j, 45.0, complex(7076221221541.727, 9159611265459.111)),
        (-8.44 + 1.41j, 1 + 2.83j, 60.0, complex(212600860073044.62, 118455730106337.97)),
        (-8.44 + 1.41j, 1 + 2.83j, 82.0, complex(5232175323715094.0, 358878118684346.94)),
        (-8.44 + 1.41j, 1 + 2.83j, 120.0,
         complex(1.6372188390932285e+17, -8.274665441653872e+16)),
        (-1.17 + 4.47j, 1 + 8.94j, 17.8, complex(7.728935811633859, -2.4217553591685084)),
        (-1.17 + 4.47j, 1 + 8.94j, 45.0, complex(-13.78077128993933, 51.18907958599728)),
        (-1.17 + 4.47j, 1 + 8.94j, 120.0, complex(-188.00304868335968, -126.16746281849078)),
        (1.5, 2.5, 20.0, complex(0.011180339887498949, 0.0)),
        (1.5, 2.5, 200.0, complex(0.00035355339059327376, 0.0)),
        (1.5, 2.5, 400.0, complex(0.000125, 0.0)),
        (0.75, 1.3, 20.0, complex(0.10405500253359473, 0.0)),
        (0.75, 1.3, 200.0, complex(0.01877148444009002, 0.0)),
        (0.75, 1.3, 400.0, complex(0.011170936230668772, 0.0)),
    )

    @pytest.mark.filterwarnings("error::laplaceqm.special_fn.PrecisionLoss")
    def test_against_mpmath(self):
        for a, b, x, want in self.MPMATH:
            assert abs(tricomi_u(a, b, x) - want) <= 1e-12 * abs(want), (a, b, x)

    @pytest.mark.filterwarnings("error::laplaceqm.special_fn.PrecisionLoss")
    @pytest.mark.parametrize("b", [0.5, 1 + 0.4j])
    def test_cancelled_connection_formula_hands_over(self, b):
        # below the crossover the two M terms cancel to a rounding loss of
        # 1.3e-2 (b = 0.5) and 4.2e-3: their sum was off by 0.20 and 5.5e-2
        mpmath = pytest.importorskip("mpmath")
        a, x = 2.5 + 6j, 12.5
        with pytest.raises(_Cancelled):
            _tricomi_u_kummer(a, b, x)
        with mpmath.workdps(40):
            want = complex(mpmath.hyperu(a, b, x))
        assert abs(tricomi_u(a, b, x) - want) <= 1e-13 * abs(want)

    def test_connection_formula_kept_below_the_threshold(self):
        # rounding loss 2.8e-13: the Kummer branch answers, to 6e-13
        mpmath = pytest.importorskip("mpmath")
        a, b, x = 1 + 0.5j, 0.5, 3.0
        got = tricomi_u(a, b, x)
        assert got == _tricomi_u_kummer(a, b, x)
        with mpmath.workdps(40):
            want = complex(mpmath.hyperu(a, b, x))
        assert abs(got - want) <= 1e-11 * abs(want)

    def test_cancelled_loop_warns(self):
        # b = 1 sends small x past the Kummer form; the loop's circle is held
        # at r = 1/2, far inside the saddle point |a - 1| / x = 15.6, and its
        # sum cancels: U(-30 + 3i, 1, 2) is off by 6e-2
        with pytest.warns(PrecisionLoss, match=r"tricomi_u at a = -30\+3j, b = 1\+0j, x = 2 "
                                               r"carries a relative rounding error"):
            tricomi_u(-30 + 3j, 1.0, 2.0)

    def test_power_law_case(self):
        # U(a, a+1, x) = x^(-a) exactly
        assert tricomi_u(1.5, 2.5, 20.0) == pytest.approx(20.0**-1.5, rel=1e-10)

    def test_large_x_decay_exponent(self):
        # U ~ x^(-a): doubling x scales by 2^(-a)
        a, b = 0.75, 1.3
        hi, lo = tricomi_u(a, b, 400.0), tricomi_u(a, b, 200.0)
        assert abs(hi / lo) == pytest.approx(2.0**-a, rel=3e-3)

    def test_small_x_stays_bounded(self):
        a, b = -0.5 + 1.5j, 1 + 3j
        vals = [abs(tricomi_u(a, b, x)) for x in (1e-3, 1e-2, 0.1, 0.5)]
        assert all(np.isfinite(vals))
        assert max(vals) < 1e3

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            tricomi_u(0.5, 1.5, 0.0)


class TestAdaptiveGauss:
    def test_smooth(self):
        got = _adaptive_gauss(lambda u: np.exp(-u) + 0j, 0.0, 1.0, 1e-13)
        assert got == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_endpoint_algebraic_singularity(self):
        # int_0^1 u^(-1/2) du = 2, integrable but unbounded at 0
        got = _adaptive_gauss(lambda u: u**-0.5 + 0j, 0.0, 1.0, 1e-10)
        assert got == pytest.approx(2.0, rel=1e-8)

    def test_unresolvable_oscillation_raises(self):
        with pytest.raises(QuadratureFailure):
            _adaptive_gauss(lambda u: np.cos(1e9 * u) + 0j, 0.0, 1.0, 1e-12)
