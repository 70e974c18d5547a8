"""Reference steps of the splitting integrators, for the tests only.

The package advances both loops a block of samples per call; these are the
exact per-step flows it must reproduce, written out one mode at a time: the
closed-loop substeps, the one-step matrix built by driving them with unit
basis states, and the open loop stepped one midpoint impulse at a time.
"""

import bisect
import math

import numpy as np

from wavetank.simulate import ModalState
from wavetank.spectral import frequencies


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


def open_splitting_states(state0: ModalState, b: np.ndarray, signal, config) -> np.ndarray:
    """States [zeta; w] of the open splitting at each sample step, one row per
    sample, advanced one midpoint-forced step at a time in the rotating frame.
    Step k takes its input from the segment of its midpoint k - 1/2 in step
    units, a seam within 4 ulps of that midpoint counting as on it."""
    dt = config.dt
    mu = frequencies(config.n_modes)
    seams = []
    for seg in signal.segments[1:]:
        sigma = seg.t_start / dt
        mid = math.floor(sigma) + 0.5
        seams.append(mid if abs(sigma - mid) <= 4 * math.ulp(mid) else sigma)
    b_over_mu = b / mu
    y_zeta, y_w = state0.zeta, state0.w
    rows = []
    done = 0
    for step in config.sample_steps().tolist():
        for k in range(done + 1, step + 1):
            t_mid = (k - 0.5) * dt
            u_mid = float(signal.segments[bisect.bisect_right(seams, k - 0.5)](t_mid))
            if u_mid != 0.0:
                theta = mu * t_mid
                y_zeta = y_zeta - (dt * u_mid) * b_over_mu * np.sin(theta)
                y_w = y_w + (dt * u_mid) * b * np.cos(theta)
        done = step
        c, s = np.cos(mu * (step * dt)), np.sin(mu * (step * dt))
        rows.append(np.concatenate([y_zeta * c + (y_w / mu) * s, -mu * y_zeta * s + y_w * c]))
    return np.array(rows)
