"""Closed-form Laguerre polynomials, an oracle for the residue route.

The residue route reads its coefficient off the kernel's first-order
equation, one recurrence over j, and never calls these; the tests compare
it, and the Hermite-Laguerre reduction, against them.
"""

import math
from functools import lru_cache

import numpy as np

from laplaceqm.special_fn import hermite


@lru_cache(maxsize=None)
def _laguerre_coeff_tuple(order: int, superscript: float):
    out = []
    for k in range(order + 1):
        binom = 1.0  # C(order+b, order-k) as a running product: safe for b <= -1
        for i in range(1, order - k + 1):
            binom *= (superscript + k + i) / i
        out.append((-1.0) ** k / math.factorial(k) * binom)
    return tuple(out)


def laguerre_coefficients(order: int, superscript: float) -> np.ndarray:
    """Ascending coefficients of L_N^(b); b may be any real number."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return np.array(_laguerre_coeff_tuple(order, float(superscript)))


def laguerre(order: int, superscript: float, x):
    """Generalized Laguerre L_N^(b)(x) from the closed-form coefficients."""
    c = _laguerre_coeff_tuple(order, float(superscript))
    acc = 0.0 * np.asarray(x, dtype=float) + c[-1]
    for k in range(order - 1, -1, -1):
        acc = acc * x + c[k]
    return acc if np.ndim(x) else float(acc)


def laguerre_hermite_identity_residual(n: int, x):
    """Pointwise defect of both halves of the Hermite-Laguerre reduction.

    Even half: H_{2n}(x) - (-4)^n n! L_n^(-1/2)(x^2); odd half:
    H_{2n+1}(x) - 2(-4)^n n! x L_n^(1/2)(x^2). Returns the larger |defect|.
    """
    scale = (-4.0) ** n * math.factorial(n)
    xs = np.asarray(x, dtype=float)
    even = hermite(2 * n, xs) - scale * laguerre(n, -0.5, xs * xs)
    odd = hermite(2 * n + 1, xs) - 2.0 * scale * xs * laguerre(n, 0.5, xs * xs)
    res = np.maximum(np.abs(even), np.abs(odd))
    return res if np.ndim(x) else float(res)
