"""References for the integrators, for the tests only.

The package advances both loops a block of samples per call; these are
what it must reproduce, written out apart from it: the exact closed-loop
substeps, the one-step matrix built by driving them with unit basis states,
the open loop's Duhamel integral by quadrature, and classical RK4 on the
full right-hand side of either loop.
"""

import bisect
import math

import numpy as np

from wavetank.simulate import ModalState
from wavetank.spectral import eigenvalues, frequencies


def rotation_substep(state: ModalState, tau: float) -> ModalState:
    """Exact free oscillation of every mode for time tau.

    Per mode: zeta <- zeta cos(mu tau) + (w/mu) sin(mu tau),
              w    <- -mu zeta sin(mu tau) + w cos(mu tau),
    an isometry of the energy norm.
    """
    mu = frequencies(state.n_modes)
    c = np.cos(mu * tau)
    s = np.sin(mu * tau)
    zeta = state.zeta * c + (state.w / mu) * s
    w = -mu * state.zeta * s + state.w * c
    return ModalState(zeta, w)


def damping_substep(state: ModalState, coupling, tau: float) -> ModalState:
    """Exact flow of the rank-one damping w' = -b (b.w) for time tau.

    With s = b.w and q = |b|^2: w <- w + ((e^{-q tau} - 1)/q) s b; zeta is
    untouched and the energy norm never increases.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    b = coupling.b
    if b.size != state.n_modes:
        raise ValueError("coupling length does not match the state truncation")
    q = coupling.q
    if q == 0.0:
        return ModalState(state.zeta.copy(), state.w.copy())
    s = float(np.dot(b, state.w))
    factor = math.expm1(-q * tau) / q
    return ModalState(state.zeta.copy(), state.w + factor * s * b)


def strang_step_matrix(coupling, n_modes: int, dt: float) -> np.ndarray:
    """Matrix of one splitting step, built by driving the substeps above
    with unit basis states: the reference for the block propagator."""
    dim = 2 * n_modes
    m = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        state = ModalState(e[:n_modes], e[n_modes:])
        state = rotation_substep(state, dt / 2.0)
        state = damping_substep(state, coupling, dt)
        state = rotation_substep(state, dt / 2.0)
        m[:n_modes, j] = state.zeta
        m[n_modes:, j] = state.w
    return m


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
