"""References for the closed forms of the package, for the tests only.

The package integrates every profile in closed form. These are what it must
reproduce, computed apart from it with mpmath at 50 digits: the strategic
integrals and wall coefficients of any profile by quadrature, panel by
panel, and those of the two built-in profiles from their textbook
antiderivatives. A profile is given by its pieces, the knots and values of
a piecewise-linear interpolant plus c cos(pi y/2 + 3 pi/4).

Two certificates get references at 30 digits: the Hilbert ratio by
quadrature of |g|^2 itself, with the coefficients of g at x = 0, and the
gap constant from the second-smallest distance to the signed frequencies,
found among the nearby ones.
"""

import functools
import math

import mpmath as mp
import numpy as np

DPS = 50


def _panels(knots, values, c):
    """(lo, hi, h) per panel, h the profile on that panel as an mpmath function."""
    y = [mp.mpf(float(t)) for t in knots]
    v = [mp.mpf(float(t)) for t in values]
    c = mp.mpf(float(c))

    def piece(j):
        slope = (v[j + 1] - v[j]) / (y[j + 1] - y[j])
        if not c:
            return lambda t: v[j] + slope * (t - y[j])
        return lambda t: v[j] + slope * (t - y[j]) + c * mp.cos(mp.pi * t / 2 + 3 * mp.pi / 4)

    return [(y[j], y[j + 1], piece(j)) for j in range(len(y) - 1)]


@functools.lru_cache(maxsize=2)
def _rule(n):
    """The n-point Gauss-Legendre rule on [-1, 1], at 50 digits."""
    with mp.workdps(DPS):
        return mp.gauss_quadrature(n, "legendre")


def _integral(panels, kernel, rate):
    """integral of h(t) kernel(t) over the panels, for a kernel like e^{rate t} or
    sin(rate t): Gauss-Legendre on each panel, 16 points where rate * width <= 2,
    else 48 points on pieces of it with rate * width <= 24. The rule's error on a
    piece is then below 1e-44 of the kernel's size there."""
    total = []
    for lo, hi, h in panels:
        span = float(rate * (hi - lo))
        nodes, weights = _rule(16 if span <= 2.0 else 48)
        cuts = mp.linspace(lo, hi, 1 + math.ceil(span / 24.0))
        for a, b in zip(cuts[:-1], cuts[1:]):
            m, r = (a + b) / 2, (b - a) / 2
            total.append(r * mp.fsum(w * h(t) * kernel(t) for t, w in zip((m + r * x for x in nodes), weights)))
    return mp.fsum(total)


def strategic_quadrature(knots, values, c, ks) -> np.ndarray:
    """I_k / cosh k for each k in ``ks``, by quadrature on every panel."""
    with mp.workdps(DPS):
        panels = _panels(knots, values, c)
        out = []
        for k in map(int, ks):
            two_cosh = 2 * mp.cosh(k)

            def kernel(t):
                e = mp.exp(k * (t + 1))
                return (e + 1 / e) / two_cosh

            out.append(_integral(panels, kernel, k))
        return np.array([float(x) for x in out])


def side_quadrature(knots, values, c, ks) -> np.ndarray:
    """sqrt(2) (-1)^k integral h(y) sin(a_k y) dy, a_k = (2k-1) pi/2, for each k in
    ``ks``, by quadrature on every panel."""
    with mp.workdps(DPS):
        panels = _panels(knots, values, c)
        out = []
        for k in map(int, ks):
            a = (2 * k - 1) * mp.pi / 2
            out.append(mp.sqrt(2) * (-1) ** k * _integral(panels, lambda t: mp.sin(a * t), a))
        return np.array([float(x) for x in out])


def strategic_builtins(kmax, r) -> dict:
    """I_k / cosh k for k = 1..kmax of the built-in profiles, from their
    antiderivatives: for h1(y) = y + 1/2, tanh k / (2k) - (1 - sech k) / k^2; for
    h2(y) = cos(p y + q), p = pi/2, q = 3 pi/4, (e^k E(k) + e^{-k} E(-k)) / 2 with
    E(s) = [e^{s y} (s cos(p y + q) + p sin(p y + q))] / (s^2 + p^2) from -1 to 0;
    and for the non-strategic profile h2 - r h1. Pass the double ``r`` the profile
    was built with: its I_2 / cosh 2 is 7e-5, so one ulp of r moves that by
    3e-13 relative."""
    with mp.workdps(DPS):
        p, q = mp.pi / 2, 3 * mp.pi / 4
        top, bottom = (mp.cos(q), mp.sin(q)), (mp.cos(q - p), mp.sin(q - p))

        def e(s, exp_minus_s):
            return (s * top[0] + p * top[1] - exp_minus_s * (s * bottom[0] + p * bottom[1])) / (s * s + p * p)

        h1, h2 = [], []
        for k in (mp.mpf(k) for k in range(1, kmax + 1)):
            grow, decay = mp.exp(k), mp.exp(-k)
            cosh = (grow + decay) / 2
            h1.append((grow - decay) / (2 * cosh) / (2 * k) - (1 - 1 / cosh) / k**2)
            h2.append((grow * e(k, decay) + decay * e(-k, grow)) / 2 / cosh)
        r = mp.mpf(float(r))
        as_float = lambda xs: np.array([float(x) for x in xs])
        return {"h1": as_float(h1), "h2": as_float(h2), "nonstrategic": as_float(b - r * a for a, b in zip(h1, h2)),
                "pieces": as_float(abs(b) + abs(r * a) for a, b in zip(h1, h2))}


def side_linear(n_modes) -> np.ndarray:
    """sqrt(2) (-1)^k integral (y + 1/2) sin(a_k y) dy for k = 1..n_modes, from the
    antiderivative -(y + 1/2) cos(a y) / a + sin(a y) / a^2."""
    with mp.workdps(DPS):
        out = []
        for k in range(1, n_modes + 1):
            a = (2 * k - 1) * mp.pi / 2
            prim = lambda t: -(t + mp.mpf(1) / 2) * mp.cos(a * t) / a + mp.sin(a * t) / a**2
            out.append(mp.sqrt(2) * (-1) ** k * (prim(0) - prim(-1)))
        return np.array([float(x) for x in out])


def hilbert_quadrature(v) -> float:
    """integral_0^pi |g|^2 / sum v_k^2 for g(x) = sum_k (-1)^k sqrt(2) v_k
    e^{a_k (pi - x)} / sinh(a_k pi), a_k = (2k-1) pi/2, by tanh-sinh quadrature at
    30 digits on [0, pi] split where the fastest exponentials have decayed; a
    zero v_k adds no term."""
    with mp.workdps(30):
        terms = []
        for k, vk in enumerate(map(float, v), start=1):
            if not vk:
                continue
            a = (2 * k - 1) * mp.pi / 2
            terms.append(((-1) ** k * mp.sqrt(2) * vk / mp.sinh(a * mp.pi), a))

        def g2(x):
            return mp.fsum(c * mp.exp(a * (mp.pi - x)) for c, a in terms) ** 2

        total = mp.quad(g2, [0, mp.mpf("1e-4"), mp.mpf("1e-3"), mp.mpf("1e-2"), mp.mpf("0.1"), 1, mp.pi])
        return float(total / mp.fsum(mp.mpf(float(x)) ** 2 for x in v))


def hilbert_coefficients(n_modes) -> np.ndarray:
    """|c_k| = sqrt(2) e^{a_k pi} / sinh(a_k pi), a_k = (2k-1) pi/2, for k = 1..n_modes:
    the growing family of the top trace at x = 0, at 30 digits."""
    with mp.workdps(30):
        a = [(2 * k - 1) * mp.pi / 2 for k in range(1, n_modes + 1)]
        return np.array([float(mp.sqrt(2) * mp.exp(t * mp.pi) / mp.sinh(t * mp.pi)) for t in a])


def separation_minimum(kmax) -> tuple[float, float]:
    """min of d2(s) (|s| + 1) over s = 0, the midpoints of consecutive positive
    frequencies up to H = mu_kmax + 1, and H, at 30 digits, with the centre
    that attains it; d2(s) is the second-smallest distance from s to the signed
    frequencies mu_{+-k} = +-sqrt(k tanh k), taken among k within 3 of s^2."""
    with mp.workdps(30):
        mu = lambda k: mp.sqrt(k * mp.tanh(k))
        hi = mu(kmax) + 1
        centres = [mp.mpf(0)]
        k = 1
        while (mid := (mu(k) + mu(k + 1)) / 2) <= hi:
            centres.append(mid)
            k += 1
        centres.append(hi)

        def product(s):
            near = range(max(1, int(s * s) - 3), int(s * s) + 5)
            return sorted(abs(sign * mu(j) - s) for j in near for sign in (1, -1))[1] * (s + 1)

        value, centre = min((product(s), s) for s in centres)
        return float(value), float(centre)


def jittered_profile(panels=200, seed=1):
    """Increasing zero-mean piecewise-linear profile on a jittered grid."""
    rng = np.random.default_rng(seed)
    cuts = np.cumsum(0.5 + rng.random(panels))
    y = np.concatenate([[-1.0], -1.0 + cuts / cuts[-1]])
    y[-1] = 0.0
    h = np.concatenate([[0.0], np.cumsum(0.1 + rng.random(panels))])
    h -= np.sum(0.5 * (h[1:] + h[:-1]) * np.diff(y))
    return y, h
