"""Closed-form kernels of the modal series and of their integrals.

The hyperbolic ratios of the surface and wall series are overflow-safe:
each is written in shifted exponentials whose arguments are never positive
on the stated domain, so no term overflows for any scale parameter (raw
cosh/sinh overflow 64-bit floats near an argument of 710, which the
truncations in use reach). The scale parameter and the coordinate broadcast
against each other: pass ``k[:, None]`` and a row of points to get one
kernel row per mode. The kernels convert nothing: an int ``k`` gives the
bits of its float copy. The wall series' growing half at x = 0 alone,
e^{a pi}/sinh(a pi) = 2/(1 - e^{-2 a pi}), is not a kernel here: the Hilbert
form forms it in place. :func:`exp_integral` is the one closed form of integral
e^{i(p y + q)} dy over an interval, behind the profiles' wall moments and
the open loop's input integrals.
"""

import numpy as np


def cosh_over_cosh(k, y) -> np.ndarray:
    """cosh[k(y+1)] / cosh(k) for y in [-1, 0], positive k.

    Shifted form: e^{ky} (1 + e^{-2k(y+1)}) / (1 + e^{-2k}); equals 1
    exactly at y = 0. Every exponent is at most 0; a reflected term below
    2^-54 underflows harmlessly or rounds away in the sum with 1.
    """
    out = np.exp(-2.0 * k * (y + 1.0))
    out += 1.0
    out *= np.exp(k * y)
    out /= 1.0 + np.exp(-2.0 * k)
    return out


def sinh_over_cosh(k, y) -> np.ndarray:
    """sinh[k(y+1)] / cosh(k) for y in [-1, 0], positive k.

    Shifted form: -expm1(-2k(y+1)) e^{ky} / (1 + e^{-2k}); 0 at y = -1 and
    tanh(k) at y = 0.
    """
    return -np.expm1(-2.0 * k * (y + 1.0)) * np.exp(k * y) / (1.0 + np.exp(-2.0 * k))


def cosh_ratio_side(a, x) -> np.ndarray:
    """cosh[a(x - pi)] / sinh(a pi) for x in [0, pi], positive a.

    Shifted form: (e^{a(x - 2 pi)} + e^{-a x}) / (1 - e^{-2 a pi}).
    """
    return (np.exp(a * (x - 2.0 * np.pi)) + np.exp(-a * x)) / (-np.expm1(-2.0 * a * np.pi))


def exp_integral(p, q, lo, hi) -> np.ndarray:
    """integral_lo^hi e^{i(p y + q)} dy = w e^{i(p m + q)} sinc(p w/2 pi), for the
    midpoint m and width w; finite at p = 0 with no branch (sinc(0) = 1). The
    arguments broadcast against each other."""
    m, w = 0.5 * (lo + hi), hi - lo
    return w * np.exp(1j * (p * m + q)) * np.sinc(p * (0.5 * w / np.pi))
