"""Canonical second-order form and its contour-integral kernel.

Every supported problem reduces to xi*Phi'' + beta*Phi' + (delta - lambda^2*xi)*Phi = 0,
whose solutions are contour integrals of e^{xi z} (z-lambda)^{a+-1} (z+lambda)^{a--1}.
This module owns the (beta, delta, lambda) data, the exponent pair, and the
log terms of the single-valued integrand, built from moduli and explicitly
tracked phases.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np


class DegenerateLambda(ValueError):
    """Coincident characteristic roots: lambda = 0 has no exponent pair."""


class BranchPointEvaluation(ValueError):
    """Integrand requested exactly at z = +-lambda with a divergent exponent."""


class Regime(enum.Enum):
    BOUND = "bound"
    CONTINUUM = "continuum"
    MORSE_CONTINUUM = "morse_continuum"


@dataclass(frozen=True)
class CanonicalODE:
    """The (beta, delta, lambda) triple of the canonical equation.

    beta may be complex (the Morse continuum needs Re(beta) = 1 with an
    imaginary part carrying the wavenumber); delta is always real; lam is
    stored complex so the continuum's purely imaginary value fits the same
    slot as the bound problems' 1/2 or 1.
    """

    beta: complex
    delta: float
    lam: complex
    regime: Regime

    def __post_init__(self):
        if self.regime is Regime.BOUND:
            if abs(self.beta.imag) > 1e-12 or abs(self.lam.imag) > 1e-12:
                raise ValueError("bound regime requires real beta and lambda")
            if not (abs(self.lam.real - 0.5) < 1e-12 or abs(self.lam.real - 1.0) < 1e-12):
                raise ValueError("bound lambda must be 1/2 or 1")
        elif self.regime is Regime.CONTINUUM:
            if abs(self.lam.real) > 1e-12 or abs(abs(self.lam.imag) - 1.0) > 1e-12:
                raise ValueError("continuum lambda must be purely imaginary, |lambda| = 1")
        elif self.regime is Regime.MORSE_CONTINUUM:
            if abs(self.lam.imag) > 1e-12 or abs(self.lam.real - 0.5) > 1e-12:
                raise ValueError("morse continuum lambda must be the real 1/2")
            if abs(self.beta.real - 1.0) > 1e-12:
                raise ValueError("morse continuum requires Re(beta) = 1")


@dataclass(frozen=True)
class Exponents:
    alpha_plus: complex
    alpha_minus: complex


@dataclass(frozen=True)
class PhaseConvention:
    """Phase bookkeeping for the multivalued integrand.

    reference_point_phase is the full phase bundle of the integrand factors
    at the reference point with zero winding; winding angles supplied later
    multiply on top of it.
    """

    reference_point_phase: complex


def exponents(ode: CanonicalODE) -> Exponents:
    """alpha_+- = (beta*lambda +- delta) / (2 lambda); their sum is beta."""
    if ode.lam == 0:
        raise DegenerateLambda("lambda = 0: characteristic roots coincide")
    two_lam = 2.0 * ode.lam
    return Exponents(
        alpha_plus=(ode.beta * ode.lam + ode.delta) / two_lam,
        alpha_minus=(ode.beta * ode.lam - ode.delta) / two_lam,
    )


def default_phase_convention(ode: CanonicalODE) -> PhaseConvention:
    """Reference phase of the continuum dog-bone around the segment [-lambda, lambda].

    The reference point sits on the segment's right edge at the origin,
    where both moduli are 1 and the factor phases combine to
    exp(-pi*delta/2). Only the continuum circle route has a reference point.
    """
    if ode.regime is not Regime.CONTINUUM:
        raise ValueError("phase convention is defined for the continuum regime only")
    exps = exponents(ode)
    return PhaseConvention(
        reference_point_phase=cmath.exp(0.5j * math.pi * (exps.alpha_minus - exps.alpha_plus))
    )


def degenerate_free(ode: CanonicalODE, exps: Exponents) -> bool:
    """delta == 0 exactly and Re(alpha_plus) an integer: the free integer case.

    There alpha_+ = alpha_- is an integer, the integrand is single-valued, and
    every continuum route integrates straight across the branch-point segment
    with unit coefficient instead of combining the two cut edges.  Any
    nonzero delta, however small, takes the general edge combination.
    """
    re_ap = exps.alpha_plus.real
    return ode.delta == 0.0 and abs(re_ap - round(re_ap)) < 1e-9


def log_terms(ode: CanonicalODE, exps: Exponents, z, phases=(0.0, 0.0)):
    """The two xi-independent log terms of the integrand, elementwise over z.

    Returns (t_plus, t_minus) with
    t_plus = (alpha_+ - 1)(ln|z - lambda| + i phi2) and
    t_minus = (alpha_- - 1)(ln|z + lambda| + i phi1), where phases =
    (phi1, phi2) are winding angles accumulated from the reference point.
    Moduli are raised to the full complex exponents as
    m^(a+ib) = m^a * e^{i b ln m} on the positive real m.  The integrand is
    e^{xi z + t_plus + t_minus} times the reference phase.  A divergent
    factor at a branch point raises; no route evaluates there (R > 1).
    """
    phi1, phi2 = phases
    z = np.asarray(z, dtype=complex)
    m2 = np.abs(z - ode.lam)
    m1 = np.abs(z + ode.lam)
    for mod, alpha in ((m2, exps.alpha_plus), (m1, exps.alpha_minus)):
        if (alpha - 1.0).real < 0.0 and np.any(mod == 0.0):
            raise BranchPointEvaluation(
                "integrand evaluated at a branch point with divergent exponent"
            )
    with np.errstate(divide="ignore", invalid="ignore"):
        t_plus = (exps.alpha_plus - 1.0) * (np.log(m2) + 1j * phi2)
        t_minus = (exps.alpha_minus - 1.0) * (np.log(m1) + 1j * phi1)
    return t_plus, t_minus
