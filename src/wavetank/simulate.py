"""Time integration of the truncated surface-wave dynamics.

The retained modes obey

    zeta_k'' = -lambda_k zeta_k + b_k u(t),        k = 1..N,

with b from the wavemaker coupling. The open loop is driven by a piecewise
input signal; the closed loop applies the collocated feedback
u = -sum_k b_k w_k, which damps the energy norm through a rank-one
perturbation of an otherwise norm-preserving oscillation.

The splitting integrator composes exact flows: a half-step rotation of each
mode pair (zeta_k, w_k), the exact rank-one damping (or the forcing impulse
in open loop), and a second half rotation. Both substeps are non-expansive.
The closed loop advances in blocks of steps and propagates the energy
through the exact per-step dissipation identity, so the recorded norm
sequence is non-increasing by construction. A classical Runge-Kutta
integrator is included as an independent cross-check.
"""

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from ._table import read_table, write_table
from .profiles import KERNEL_BLOCK, CouplingVector, coupling_vector
from .spectral import eigenvalues, frequencies

__all__ = [
    "ModalState",
    "SimConfig",
    "Segment",
    "InputSignal",
    "TimeSeries",
    "x_norm",
    "x_norm_sq",
    "domain_norm",
    "simulate_closed",
    "simulate_open",
]


@dataclass
class ModalState:
    """Truncated state (zeta_k, w_k) of the surface elevation and its velocity."""

    zeta: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.zeta = np.atleast_1d(np.asarray(self.zeta, dtype=float))
        self.w = np.atleast_1d(np.asarray(self.w, dtype=float))
        if self.zeta.shape != self.w.shape or self.zeta.ndim != 1:
            raise ValueError("zeta and w must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(self.zeta)) and np.all(np.isfinite(self.w))):
            raise ValueError("state holds non-finite entries")

    @property
    def n_modes(self) -> int:
        return self.zeta.size

    @classmethod
    def zero(cls, n_modes: int) -> "ModalState":
        return cls(np.zeros(n_modes), np.zeros(n_modes))

    @classmethod
    def single_mode(cls, k: int, n_modes: int, zeta: float = 1.0, w: float = 0.0) -> "ModalState":
        if not 1 <= k <= n_modes:
            raise ValueError(f"mode index {k} outside 1..{n_modes}")
        state = cls.zero(n_modes)
        state.zeta[k - 1] = zeta
        state.w[k - 1] = w
        return state


def x_norm_sq(state: ModalState) -> float:
    """Energy functional sum_k lambda_k zeta_k^2 + sum_k w_k^2."""
    lam = eigenvalues(state.n_modes)
    return float(np.dot(lam, state.zeta**2) + np.dot(state.w, state.w))


def x_norm(state: ModalState) -> float:
    """Energy (state-space) norm of the state."""
    return math.sqrt(x_norm_sq(state))


def domain_norm(state: ModalState) -> float:
    """Graph norm: adds the generator image sum_k lambda_k w_k^2 + lambda_k^2 zeta_k^2."""
    lam = eigenvalues(state.n_modes)
    extra = float(np.dot(lam, state.w**2) + np.dot(lam**2, state.zeta**2))
    return math.sqrt(x_norm_sq(state) + extra)


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; ``dt=None`` resolves to min(1e-2, 0.1/mu_N).

    The default step keeps at least ~60 steps per period of the fastest
    retained mode. The explicit Runge-Kutta cross-check additionally
    requires dt * mu_N <= 0.5.
    """

    n_modes: int
    t_final: float
    dt: float | None = None
    integrator: str = "splitting"
    sample_every: int = 1
    record_modes: bool = False

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        mu_max = float(frequencies(self.n_modes)[-1])
        if self.dt is None:
            object.__setattr__(self, "dt", min(1e-2, 0.1 / mu_max))
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.t_final):
            raise ValueError(f"t_final must be finite, got {self.t_final}")
        if self.t_final < self.dt:
            raise ValueError(f"t_final must be >= dt, got {self.t_final} < {self.dt}")
        if self.integrator not in ("splitting", "rk4-crosscheck"):
            raise ValueError(
                f"integrator must be 'splitting' or 'rk4-crosscheck', got {self.integrator!r}"
            )
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.integrator == "rk4-crosscheck" and self.dt * mu_max > 0.5:
            raise ValueError(
                f"rk4-crosscheck needs dt * mu_N <= 0.5, got {self.dt * mu_max:.3g}"
            )

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))

    def sample_steps(self) -> list[int]:
        """The recorded steps: every ``sample_every``-th from 0, and always the last."""
        return [*range(0, self.n_steps, self.sample_every), self.n_steps]


@dataclass(frozen=True)
class Segment:
    """One piece of a piecewise input: zero, constant, or a*cos(omega t + phase).

    The time argument of a sinusoid is absolute simulation time.
    """

    t_start: float
    t_end: float
    form: str
    value: float = 0.0
    amplitude: float = 0.0
    omega: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.form not in ("zero", "constant", "sinusoid"):
            raise ValueError(f"unknown segment form {self.form!r}")
        if not self.t_end > self.t_start:
            raise ValueError(f"segment needs t_end > t_start, got [{self.t_start}, {self.t_end}]")
        if not all(map(math.isfinite, (self.value, self.amplitude, self.omega, self.phase))):
            raise ValueError("segment value, amplitude, omega and phase must be finite")

    def __call__(self, t: float) -> float:
        if self.form == "constant":
            return self.value
        if self.form == "sinusoid":
            return self.amplitude * math.cos(self.omega * t + self.phase)
        return 0.0

    def shifted(self, tau: float) -> "Segment":
        # shifting a sinusoid in time adjusts its phase: cos(w(t-tau)+p)
        phase = self.phase - self.omega * tau if self.form == "sinusoid" else self.phase
        return replace(self, t_start=self.t_start + tau, t_end=self.t_end + tau, phase=phase)


@dataclass(frozen=True)
class InputSignal:
    """Piecewise input: contiguous segments from t = 0, in any order.

    Construction sorts the segments by start and rejects an empty list, a
    start after t = 0, and overlaps or gaps between neighbours (beyond
    1e-12). Segment i serves [t_start_i, t_start_{i+1}); the last one also
    serves every later time.
    """

    segments: tuple

    def __post_init__(self):
        segs = tuple(sorted(self.segments, key=lambda s: s.t_start))
        if not segs:
            raise ValueError("input signal has no segments")
        if segs[0].t_start > 1e-12:
            raise ValueError(f"input signal must start at t=0, first segment at {segs[0].t_start}")
        for prev, cur in zip(segs, segs[1:]):
            if cur.t_start < prev.t_end - 1e-12:
                raise ValueError(
                    f"overlapping segments: [{prev.t_start}, {prev.t_end}] and "
                    f"[{cur.t_start}, {cur.t_end}]"
                )
            if cur.t_start > prev.t_end + 1e-12:
                raise ValueError(f"gap in input coverage between t={prev.t_end} and t={cur.t_start}")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "_seams", [seg.t_start for seg in segs[1:]])

    @classmethod
    def zero(cls, t_final: float) -> "InputSignal":
        return cls([Segment(0.0, t_final, "zero")])

    @classmethod
    def constant(cls, value: float, t_final: float) -> "InputSignal":
        return cls([Segment(0.0, t_final, "constant", value=value)])

    @classmethod
    def sinusoid(cls, amplitude: float, omega: float, t_final: float, phase: float = 0.0) -> "InputSignal":
        return cls([Segment(0.0, t_final, "sinusoid", amplitude=amplitude, omega=omega, phase=phase)])

    def validate(self, t_final: float) -> None:
        """Check the signal reaches t_final."""
        if self.segments[-1].t_end < t_final - 1e-12:
            raise ValueError(f"input signal ends at {self.segments[-1].t_end} before t_final={t_final}")

    def __call__(self, t: float) -> float:
        return self.segments[bisect.bisect_right(self._seams, t)](t)

    def concat(self, tau: float, other: "InputSignal") -> "InputSignal":
        """Concatenation: this signal on [0, tau), then ``other`` delayed by tau."""
        if tau < 0:
            raise ValueError(f"tau must be >= 0, got {tau}")
        head = []
        for seg in self.segments:
            if seg.t_start >= tau:
                break
            head.append(replace(seg, t_end=min(seg.t_end, tau)))
        tail = [seg.shifted(tau) for seg in other.segments]
        return InputSignal(head + tail)


@dataclass
class TimeSeries:
    """Sampled trajectory: times, energy norm, energy, and input/feedback value."""

    t: np.ndarray
    x_norm: np.ndarray
    energy: np.ndarray
    u: np.ndarray
    zeta: np.ndarray | None = None
    w: np.ndarray | None = None
    final_state: ModalState | None = None

    def __post_init__(self):
        n = len(self.t)
        if not (len(self.x_norm) == len(self.energy) == len(self.u) == n):
            raise ValueError("time series columns must have equal length")
        for name in ("t", "x_norm", "energy", "u"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"time series column {name} has non-finite values")
        if np.any(self.t[1:] <= self.t[:-1]):  # no overflow at the extremes of float64
            raise ValueError("sample times must be strictly increasing")

    def to_csv(self, path) -> None:
        """Write ``t,x_norm,energy,u`` (plus mode columns when recorded), 17 digits."""
        header = ["t", "x_norm", "energy", "u"]
        columns = [self.t, self.x_norm, self.energy, self.u]
        if self.zeta is not None:
            ks = range(1, self.zeta.shape[1] + 1)
            header += [f"zeta_{k}" for k in ks] + [f"w_{k}" for k in ks]
            columns += [self.zeta, self.w]
        write_table(path, header, columns)

    @classmethod
    def from_csv(cls, path) -> "TimeSeries":
        header, data = read_table(path, "time-series", ("t", "x_norm", "energy", "u"))
        if not len(data):
            raise ValueError(f"time-series CSV {path} has no samples")
        zeta_cols = [i for i, name in enumerate(header) if name.startswith("zeta_")]
        w_cols = [i for i, name in enumerate(header) if name.startswith("w_")]
        series = cls(
            t=data[:, 0],
            x_norm=data[:, 1],
            energy=data[:, 2],
            u=data[:, 3],
            zeta=data[:, zeta_cols] if zeta_cols else None,
            w=data[:, w_cols] if w_cols else None,
        )
        if zeta_cols and w_cols:
            series.final_state = ModalState(data[-1, zeta_cols], data[-1, w_cols])
        return series


class _Propagator:
    """Powers of the closed-loop splitting step S = R(dt/2) D R(dt/2), in blocks of L.

    With e = [0; b] and kick = (e^{-q dt} - 1)/q, S = R(dt) + kick R(dt/2) e
    e^T R(dt/2), so S^k z = R(k dt) z + F[:, L-k:] (O[:k] z) for k <= L. Row
    j of O, e^T R(dt/2) S^(j-1) by an O(N) recurrence, observes b.w at the
    damping of step j, which sheds (O z)_j^2 (1 - e^{-2 q dt})/q >= 0 of
    energy; column j of F is kick R((L-j+1/2) dt) e. When L > 2N, a full
    block is the dense A = R(L dt) + F O, with |O z| from the triangular
    factor of O.
    """

    def __init__(self, coupling: CouplingVector, config: SimConfig):
        n, dt = config.n_modes, config.dt
        b, q = coupling.b, coupling.q
        mu = frequencies(n)
        shed = -math.expm1(-q * dt)  # 1 - e^{-q dt} in [0, 1)
        kick, self.loss = (-shed / q, shed * (2.0 - shed) / q) if q > 0.0 else (0.0, 0.0)
        # O and F stay within KERNEL_BLOCK entries each
        self.block = L = min(config.sample_every, config.n_steps, max(1, KERNEL_BLOCK // (2 * n)))
        self.mu, self.dt = mu, dt
        self.swap = np.r_[n : 2 * n, 0:n]
        self.full = self._turn(L)

        ch, sh = np.cos(mu * (dt / 2)), np.sin(mu * (dt / 2))
        kicked = np.concatenate([b * sh / mu, b * ch])  # R(dt/2) e
        observe = np.concatenate([-mu * b * sh, b * ch])  # e^T R(dt/2)
        keep, cross = self._turn(1)
        cross = cross[self.swap]  # a row turns as row R(dt) = row * keep + row[swap] * cross
        self.obs = np.empty((L, 2 * n))
        row = observe
        for j in range(L):
            self.obs[j] = row
            row = row * keep + row[self.swap] * cross + (kick * float(row @ kicked)) * observe
        theta = np.outer(mu, (np.arange(L, 0, -1) - 0.5) * dt)
        self.gain = kick * np.concatenate([(b / mu)[:, None] * np.sin(theta), b[:, None] * np.cos(theta)])
        self.dense = self.tri = None
        if L > 2 * n:
            keep, cross = self.full
            eye = np.eye(2 * n)
            self.dense = keep[:, None] * eye + cross[:, None] * eye[self.swap] + self.gain @ self.obs
            self.tri = np.linalg.qr(self.obs, mode="r")

    def _turn(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(keep, cross) with R(k dt) z = z * keep + z[swap] * cross."""
        mu = self.mu
        c, s = np.cos(mu * (k * self.dt)), np.sin(mu * (k * self.dt))
        return np.concatenate([c, c]), np.concatenate([s / mu, -mu * s])

    def advance(self, z: np.ndarray, energy: float, steps: int) -> tuple[np.ndarray, float]:
        """State and tracked energy ``steps`` steps after (z, energy)."""
        while steps:
            k = min(self.block, steps)
            if k == self.block and self.dense is not None:
                seen = self.tri @ z
                z = self.dense @ z
            else:
                keep, cross = self.full if k == self.block else self._turn(k)
                seen = self.obs[:k] @ z
                z = z * keep + z[self.swap] * cross + self.gain[:, self.block - k :] @ seen
            energy = max(energy - self.loss * float(seen @ seen), 0.0)
            steps -= k
        return z, energy


def _closed_splitting(state0: ModalState, coupling: CouplingVector, config: SimConfig):
    """(z, energy, u) of the closed splitting at each sample step."""
    n = config.n_modes
    prop = _Propagator(coupling, config)
    z = np.concatenate([state0.zeta, state0.w])
    energy = x_norm_sq(state0)
    done = 0
    for step in config.sample_steps():
        z, energy = prop.advance(z, energy, step - done)
        done = step
        yield z, energy, -float(np.dot(coupling.b, z[n:]))


def _open_splitting(state0: ModalState, b: np.ndarray, signal: InputSignal, config: SimConfig):
    """(z, energy, u) of the open splitting at each sample step."""
    dt = config.dt
    mu = frequencies(config.n_modes)
    b_over_mu = b / mu
    y_zeta, y_w = state0.zeta, state0.w
    done = 0
    for step in config.sample_steps():
        for k in range(done + 1, step + 1):
            t_mid = (k - 0.5) * dt
            u_mid = signal(t_mid)
            if u_mid != 0.0:
                theta = mu * t_mid
                y_zeta = y_zeta - (dt * u_mid) * b_over_mu * np.sin(theta)
                y_w = y_w + (dt * u_mid) * b * np.cos(theta)
        done = step
        zeta, w = y_zeta, y_w
        if step:  # R(0) is the identity, and applying it would turn -0.0 into 0.0
            c, s = np.cos(mu * (step * dt)), np.sin(mu * (step * dt))
            zeta, w = y_zeta * c + (y_w / mu) * s, -mu * y_zeta * s + y_w * c
        state = ModalState(zeta, w)
        yield np.concatenate([state.zeta, state.w]), x_norm_sq(state), signal(step * dt)


def _rk4(state0: ModalState, b: np.ndarray, control, config: SimConfig):
    """(z, energy, u) at each sample step of classical RK4 on the full
    right-hand side, with the input u = control(t, w); independent cross-check."""
    lam = eigenvalues(config.n_modes)
    dt = config.dt

    def rhs(t, zeta, w):
        return w, -lam * zeta + control(t, w) * b

    zeta, w = state0.zeta, state0.w
    done = 0
    for step in config.sample_steps():
        for k in range(done, step):
            t = k * dt
            k1z, k1w = rhs(t, zeta, w)
            k2z, k2w = rhs(t + dt / 2, zeta + dt / 2 * k1z, w + dt / 2 * k1w)
            k3z, k3w = rhs(t + dt / 2, zeta + dt / 2 * k2z, w + dt / 2 * k2w)
            k4z, k4w = rhs(t + dt, zeta + dt * k3z, w + dt * k3w)
            zeta = zeta + dt / 6 * (k1z + 2 * k2z + 2 * k3z + k4z)
            w = w + dt / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        done = step
        yield np.concatenate([zeta, w]), x_norm_sq(ModalState(zeta, w)), control(step * dt, w)


def _sampled(config: SimConfig, samples) -> TimeSeries:
    """The series of a run whose ``samples`` yield (z, energy, u), z = [zeta; w],
    at each of ``config.sample_steps()``; the last z is the final state."""
    steps = config.sample_steps()
    n = config.n_modes
    energy, u = np.empty(len(steps)), np.empty(len(steps))
    zeta = w = None
    if config.record_modes:
        zeta, w = np.empty((len(steps), n)), np.empty((len(steps), n))
    for i, (z, energy_i, u_i) in enumerate(samples):
        energy[i], u[i] = energy_i, u_i
        if zeta is not None:
            zeta[i], w[i] = z[:n], z[n:]
    return TimeSeries(
        t=np.array(steps) * config.dt,
        x_norm=np.sqrt(energy),
        energy=energy,
        u=u,
        zeta=zeta,
        w=w,
        final_state=ModalState(z[:n], z[n:]),
    )


def _checked_coupling(state0: ModalState, h, config: SimConfig) -> CouplingVector:
    if state0.n_modes != config.n_modes:
        raise ValueError("initial state truncation does not match config.n_modes")
    return coupling_vector(h, config.n_modes)


def simulate_closed(state0: ModalState, h, config: SimConfig) -> TimeSeries:
    """Integrate the collocated closed loop u = -b.w from ``state0``.

    ``h`` is a profile or a :class:`CouplingVector` of at least
    ``config.n_modes`` entries. The splitting integrator advances blocks of
    steps between samples and propagates the recorded energy through the
    exact dissipation identity of each damping substep,

        E <- E - s^2 (1 - e^{-q dt})(2 - (1 - e^{-q dt})) / q,

    whose decrement is a product of non-negative factors, so the energy and
    norm columns are non-increasing by construction. The rk4-crosscheck
    integrator recomputes norms from the state instead and carries no
    monotonicity guarantee.
    """
    coupling = _checked_coupling(state0, h, config)
    if config.integrator == "rk4-crosscheck":
        b = coupling.b
        return _sampled(config, _rk4(state0, b, lambda t, w: -float(np.dot(b, w)), config))
    return _sampled(config, _closed_splitting(state0, coupling, config))


def simulate_open(state0: ModalState, h, signal: InputSignal, config: SimConfig) -> TimeSeries:
    """Integrate the driven open loop with the input sampled at step midpoints.

    One splitting step is z_{n+1} = R(dt) z_n + dt u(t_mid) R(dt/2) B, the
    midpoint-forced composition of exact rotations. It is evaluated in
    rotating coordinates y_n = R(-t_n) z_n, where it reads

        y_{n+1} = y_n + dt u(t_mid) R(-t_mid) B,

    so free flight accumulates no roundoff: each recorded state rotates the
    accumulator once by the exact total angle mu t_n, and with a zero signal
    the energy norm is conserved to a couple of ulps over any horizon.
    Norms are recomputed from the state at every sample.
    """
    coupling = _checked_coupling(state0, h, config)
    signal.validate(config.t_final)
    if config.integrator == "rk4-crosscheck":
        return _sampled(config, _rk4(state0, coupling.b, lambda t, w: signal(t), config))
    return _sampled(config, _open_splitting(state0, coupling.b, signal, config))
