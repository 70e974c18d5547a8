"""Reference substeps of the closed-loop splitting, for the tests only.

The package advances the closed loop with a block propagator; these are the
exact per-step flows it must reproduce, written out one mode at a time, and
the one-step matrix built by driving them with unit basis states.
"""

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
