"""Oracle tests for the special-function layer.

The polynomial oracles are three-term recurrences run in exact rational
(or integer) arithmetic, deliberately different from the closed-form
binomial products of the Hermite implementation and of the Laguerre
closed forms in laguerre_closed_form.py (the residue route's oracle).  Transcendental values are frozen
high-precision literals.
"""

import csv
import math
import re
import cmath
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import laplaceqm.special_fn as special_fn
from laplaceqm.special_fn import (
    InvalidB,
    PoleError,
    PrecisionLoss,
    QuadratureFailure,
    SeriesDivergence,
    _adaptive_gauss,
    _tricomi_u_kummer,
    gamma_complex,
    hermite,
    kummer_m,
    tricomi_u,
)

from laplaceqm.core_laplace import exponents
from laplaceqm.potential_catalog import Kind, ProblemSpec, canonicalize

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
        # n + 1 distinct points pin a degree-n polynomial's coefficients; at
        # half-integer x every H_j is an integer, so the values are exact
        coeffs = hermite_recurrence_coeffs(n)
        for k in range(-6, 7):
            x = Fraction(k, 2)
            assert hermite(n, float(x)) == sum(c * x**i for i, c in enumerate(coeffs))

    def test_h4(self):
        assert hermite(4, 0.0) == 12.0

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

    @pytest.mark.parametrize("z, shown", [
        (142.5, "142.5+0j"),  # Lanczos' t^(z+1/2) overflows
        (-141.3 + 0.2j, "-141.3+0.2j"),  # the same factor, at 1 - z
        (0.3 + 230j, "0.3+230j"),  # the reflection's sin(pi z) overflows
        (1.0 + 470j, "1+470j"),  # Gamma itself underflows
    ])
    def test_past_the_double_range_names_z(self, z, shown):
        with pytest.raises(OverflowError, match=rf"^Gamma leaves the double range at "
                                                rf"z = {re.escape(shown)}: .*\|Re z\| < 141"):
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


def _exponents(kind, energy, **params):
    """(alpha_minus, beta) of a catalog kind at an energy."""
    ode = canonicalize(ProblemSpec(kind=kind, **params), energy)
    return exponents(ode).alpha_minus, ode.beta


def _grid_cases():
    """About 200 (a, b, z) on which the array kummer_m must equal its scalar calls.

    U's two series for the Morse continuum on its Kummer branch, the series
    route's (alpha_-, beta, 2 i xi) up to xi = 20, some of which warn, and
    real z of either sign.
    """
    cases = []
    for v0, energy in ((1.0, 10.0), (40.0, 1.0), (5.0, 0.3)):
        a, b = _exponents(Kind.MORSE_CONT, energy, morse_v0=v0)
        for x in np.linspace(0.1, 13.0, 12).tolist():
            cases += [(a, b, complex(x)), (a - b + 1.0, 2.0 - b, complex(x))]
    for kind, energy in ((Kind.COULOMB3D_CONT, 0.5), (Kind.COULOMB3D_CONT, 4.0),
                         (Kind.FREE2D, 1.0)):
        a, b = _exponents(kind, energy)
        cases += [(a, b, 2j * xi) for xi in np.linspace(0.0, 20.0, 21).tolist()]
    for a, b in ((0.3, 0.7), (-2.5 + 1j, 1.5), (1 + 0.5j, 0.5)):
        cases += [(a, b, complex(z)) for z in np.linspace(-10.0, 30.0, 20).tolist()]
    return cases


class TestKummerGrid:
    def test_array_equals_scalar_calls_bit_for_bit(self):
        cases = _grid_cases()
        a, b, z = (np.array(column) for column in zip(*cases))
        with warnings.catch_warnings(record=True) as one_by_one:
            warnings.simplefilter("always")
            want = [kummer_m(*case) for case in cases]
        with warnings.catch_warnings(record=True) as at_once:
            warnings.simplefilter("always")
            got = kummer_m(a, b, z)
        assert len(cases) >= 190
        assert got.tolist() == want
        assert one_by_one, "no case warns"
        assert ([(w.category, str(w.message)) for w in at_once]
                == [(w.category, str(w.message)) for w in one_by_one])

    def test_broadcast_shape(self):
        z = np.linspace(0.0, 3.0, 6).reshape(2, 3)
        got = kummer_m(0.5, 1.5, z)
        assert got.shape == (2, 3)
        assert got[1, 2] == kummer_m(0.5, 1.5, 3.0)

    def test_unsettled_point_raises(self):
        with pytest.raises(SeriesDivergence, match=r"\|z\|=2\.5e\+03"):
            kummer_m(1.0, 1.5, np.array([1.0, 2500.0, 2.0]))

    def test_invalid_b_raises(self):
        with pytest.raises(InvalidB, match="b=-2"):
            kummer_m(0.5, np.array([1.5, -2.0]), 1.0)


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
    # the ray and the recurrence, and two real a > 1/2, on the ray alone
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

    # a Morse well's U(alpha_-, beta, x) at mu = a = 1, V0 in {1.2, 5, 40,
    # 200, 2000} and E in {1e-4, 0.1, 1, 10, 30, 60, 100}: six x a well from
    # 1.01 times the crossover to 120, or from 0.05 to 90 where b is within
    # 0.05 of an integer, every one on the ray; mpmath hyperu at 30 digits,
    # equal to 50 digits within 1e-16.  The two points that warn hold 4e-13
    MORSE_TABLE = Path(__file__).parent / "golden" / "tricomi_u_morse.csv"

    @pytest.mark.filterwarnings("ignore::laplaceqm.special_fn.PrecisionLoss")
    def test_morse_wells_against_frozen_mpmath(self):
        with self.MORSE_TABLE.open() as f:
            rows = [tuple(map(float, r)) for r in list(csv.reader(f))[1:]]
        wells = {}
        for v0, e, x, re_u, im_u in rows:
            wells.setdefault((v0, e), []).append((x, complex(re_u, im_u)))
        worst = 0.0
        for (v0, e), points in wells.items():
            delta, kbar = math.sqrt(2.0 * v0), math.sqrt(2.0 * e)
            xs, want = (np.array(v) for v in zip(*points))
            got = tricomi_u(complex(0.5 - delta, kbar), complex(1.0, 2.0 * kbar), xs)
            worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
        assert len(rows) == 210 and worst <= 2e-12

    @pytest.mark.filterwarnings("error::laplaceqm.special_fn.PrecisionLoss")
    @pytest.mark.parametrize("b", [0.5, 1 + 0.4j])
    def test_cancelled_connection_formula_hands_over(self, b):
        # below the crossover the two M terms cancel to a rounding loss of
        # 1.3e-2 (b = 0.5) and 4.2e-3: their sum was off by 0.20 and 5.5e-2
        mpmath = pytest.importorskip("mpmath")
        a, x = 2.5 + 6j, 12.5
        assert _tricomi_u_kummer(a, b, [x]) == [None]
        with mpmath.workdps(40):
            want = complex(mpmath.hyperu(a, b, x))
        assert abs(tricomi_u(a, b, x) - want) <= 1e-13 * abs(want)

    def test_connection_formula_kept_below_the_threshold(self):
        # rounding loss 2.8e-13: the Kummer branch answers, to 6e-13
        mpmath = pytest.importorskip("mpmath")
        a, b, x = 1 + 0.5j, 0.5, 3.0
        got = tricomi_u(a, b, x)
        assert [got] == _tricomi_u_kummer(a, b, [x])
        with mpmath.workdps(40):
            want = complex(mpmath.hyperu(a, b, x))
        assert abs(got - want) <= 1e-11 * abs(want)

    def test_mixed_grid_equals_its_points_alone(self):
        # crossover 22: x = 2 and 0.7 keep the Kummer branch, x = 12.5
        # cancels there and takes U's ray, x = 30 is past the crossover
        a, b = 2.5 + 6j, 0.5
        grid = [2.0, 12.5, 30.0, 0.7]
        assert [v is None for v in _tricomi_u_kummer(a, b, [2.0, 12.5, 0.7])] == [
            False, True, False]
        assert tricomi_u(a, b, np.array(grid)).tolist() == [tricomi_u(a, b, x) for x in grid]
        # crossover 16, m = 11: from just past it to 8 times it, the ray
        # points stop at two levels, 3 and 4, and each row's sums are still
        # that point's own
        a, b = -3 + 2j, 1 + 4j
        grid = np.geomspace(16.32, 128.0, 8)
        assert tricomi_u(a, b, grid).tolist() == [tricomi_u(a, b, x) for x in grid]

    def test_unsettled_point_alone_takes_the_ray(self, monkeypatch):
        # with a 40-term cap, M(1 + i/2, 1/2, x) settles at x = 3 but not at
        # x = 8, so each point is summed alone and only x = 8 takes U's ray
        monkeypatch.setattr(special_fn, "_MAX_KUMMER_TERMS", 40)
        a, b = 1 + 0.5j, 0.5
        kummer = _tricomi_u_kummer(a, b, [3.0, 8.0])
        assert kummer[1] is None and kummer[0] == _tricomi_u_kummer(a, b, [3.0])[0]
        assert tricomi_u(a, b, [3.0, 8.0]).tolist() == [tricomi_u(a, b, 3.0),
                                                       tricomi_u(a, b, 8.0)]

    def test_failing_point_is_named(self):
        # x = 40 is past the crossover 13, on the ray at c = a + 2 = 4;
        # a negative x raises, its index in .point
        got = tricomi_u(2.0, 0.5, [1.0, 40.0])
        want = 0.00055581273573945466738  # mpmath hyperu at 40 digits
        assert abs(got[1] - want) <= 1e-13 * want
        with pytest.raises(ValueError, match="x must be positive") as info:
            tricomi_u(0.5, 1.5, [1.0, 2.0, -1.0])
        assert info.value.point == 2

    @pytest.mark.filterwarnings("error::laplaceqm.special_fn.PrecisionLoss")
    def test_deep_a_at_small_x_recurs_from_the_ray(self):
        # b = 1 sends small x past the Kummer form: the ray at c = a + 40
        # and the recurrence down to a read U(-30 + 3i, 1, 2) to rounding
        want = complex(3.5977303814525861314e+35, 3.457828670135294512e+34)  # mpmath, 40 digits
        assert abs(tricomi_u(-30 + 3j, 1.0, 2.0) - want) <= 1e-14 * abs(want)

    def test_gamma_past_the_double_range_is_named(self):
        # Gamma(a - b + 1) of the connection formula underflows at x = 1, and
        # Gamma(c) of the ray, c = a + 143, overflows at its first point
        with pytest.raises(OverflowError, match=r"at z = 1\.5\+500j"):
            tricomi_u(1 + 500j, 0.5, 1.0)
        with pytest.raises(OverflowError, match=r"at z = 143\.5\+70j") as info:
            tricomi_u(0.5 + 70j, 1.5, [200.0, 300.0])
        assert info.value.point == 0

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
