"""References for the integrators, for the tests only.

The package samples both loops exactly, a block of samples per call; these
are what it must reproduce, written out apart from it: the closed loop by
the matrix exponential of its dense generator, the open loop's Duhamel
integral by quadrature, and classical RK4 on the full right-hand side of
either loop.
"""

import bisect
import math

import numpy as np

from wavetank.simulate import ModalState
from wavetank.spectral import eigenvalues, frequencies


def expm_states(b: np.ndarray, state0: ModalState, times) -> np.ndarray:
    """States [zeta; w] of the closed loop u = -b.w at each of ``times``, one row
    per time, from the dense generator's exponential.

    In energy coordinates y = [mu zeta; w] the generator [[0, M], [-M, -b b^T]],
    M = diag(mu), is skew less a positive rank-one part, so e^{G t} is a
    contraction and repeated squaring keeps its rounding small. e^{G t} is the
    Taylor sum of degree 20 at G t / 2^s, |G t / 2^s|_1 <= 1/2, squared s times."""
    n = state0.n_modes
    mu = frequencies(n)
    gen = np.zeros((2 * n, 2 * n))
    gen[:n, n:], gen[n:, :n], gen[n:, n:] = np.diag(mu), -np.diag(mu), -np.outer(b, b)
    y0 = np.concatenate([mu * state0.zeta, state0.w])
    rows = []
    for t in times:
        x = gen * t
        s = max(0, math.ceil(math.log2(max(np.abs(x).sum(axis=0).max(), 1e-300) / 0.5)))
        x = x / 2.0**s
        term = total = np.eye(2 * n)
        for k in range(1, 21):
            term = term @ x / k
            total = total + term
        for _ in range(s):
            total = total @ total
        y = total @ y0
        rows.append(np.concatenate([y[:n] / mu, y[n:]]))
    return np.array(rows)


def open_loop_states(state0: ModalState, b: np.ndarray, signal, config) -> np.ndarray:
    """States [zeta; w] of the driven open loop at each sample step, one row
    per sample, from the Duhamel integral in the rotating frame,

        y(t) = y0 + int_0^t u(s) [-(b/mu) sin(mu s); b cos(mu s)] ds,

    by 16-point Gauss-Legendre quadrature on panels of at most 0.5 time
    units, cut at every seam and sample time. Each panel takes its input from
    the segment holding its midpoint."""
    mu = frequencies(config.n_modes)
    times = config.sample_steps() * config.dt
    seams = [seg.t_start for seg in signal.segments[1:]]
    nodes, weights = np.polynomial.legendre.leggauss(16)
    y_zeta, y_w = state0.zeta, state0.w
    rows = []
    lo = 0.0
    for t in times.tolist():
        cuts = [lo, *(seam for seam in seams if lo < seam < t), t]
        for start, end in zip(cuts, cuts[1:]):
            edges = np.linspace(start, end, math.ceil((end - start) / 0.5) + 1)
            for p, q in zip(edges, edges[1:]):
                seg = signal.segments[bisect.bisect_right(seams, (p + q) / 2)]
                at = (p + q) / 2 + (q - p) / 2 * nodes
                wu = (q - p) / 2 * weights * seg(at)
                y_zeta = y_zeta - (b / mu) * (wu @ np.sin(np.outer(at, mu)))
                y_w = y_w + b * (wu @ np.cos(np.outer(at, mu)))
        lo = t
        c, s = np.cos(mu * t), np.sin(mu * t)
        rows.append(np.concatenate([y_zeta * c + (y_w / mu) * s, -mu * y_zeta * s + y_w * c]))
    return np.array(rows)


def rk4_states(state0: ModalState, b: np.ndarray, control, dt: float, steps) -> np.ndarray:
    """States [zeta; w] at each of the increasing ``steps``, one row per step,
    by classical RK4 in steps of ``dt`` on zeta' = w, w' = -lambda zeta + u b
    with the input u = control(t, w)."""
    neg_lam = -eigenvalues(state0.n_modes)

    def rhs(t, zeta, w):
        return w, neg_lam * zeta + control(t, w) * b

    zeta, w = state0.zeta, state0.w
    rows = []
    done = 0
    for step in steps:
        for k in range(done, step):
            t = k * dt
            k1z, k1w = rhs(t, zeta, w)
            k2z, k2w = rhs(t + dt / 2, zeta + dt / 2 * k1z, w + dt / 2 * k1w)
            k3z, k3w = rhs(t + dt / 2, zeta + dt / 2 * k2z, w + dt / 2 * k2w)
            k4z, k4w = rhs(t + dt, zeta + dt * k3z, w + dt * k3w)
            zeta = zeta + dt / 6 * (k1z + 2 * k2z + 2 * k3z + k4z)
            w = w + dt / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        done = step
        rows.append(np.concatenate([zeta, w]))
    return np.array(rows)
