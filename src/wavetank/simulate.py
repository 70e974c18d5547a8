"""Time integration of the truncated surface-wave dynamics.

The retained modes obey

    zeta_k'' = -lambda_k zeta_k + b_k u(t),        k = 1..N,

with b from the wavemaker coupling. The open loop is driven by a piecewise
input signal; the closed loop applies the collocated feedback
u = -sum_k b_k w_k, which damps the energy norm through a rank-one
perturbation of an otherwise norm-preserving oscillation.

Both loops are exact to rounding at any time, so each is a function of
time: it does its once-per-run work and then gives the states at any array
of times. A run's schedule is one increasing array of sample times,
:attr:`SimConfig.times`, and one sampler walks it, a block of times at a
time (:mod:`wavetank._blocks`), filling the columns of the series. The
closed loop is built from its spectrum, whose pairs of roots
:mod:`wavetank.spectral` owns: it forms them, their real invariant planes
and the states, a sum of closed-form time functions of the pairs, and this
module only samples them. Its energy column is the running minimum of the
sampled energies, non-increasing by construction. The open loop integrates
every segment of its input against the rotation in closed form.
"""

import math

import numpy as np

from ._blocks import blocks
from ._hyper import exp_integral
from ._record import Frozen, Record
from ._table import read_table, write_table
from .profiles import coupling_vector
from .spectral import _check_count, _closed_exact, _finite_array, _number, _real_array, eigenvalues, frequencies

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


class ModalState(Record):
    """Truncated state (zeta_k, w_k) of the surface elevation and its velocity."""

    __slots__ = ("zeta", "w")

    def __init__(self, zeta: np.ndarray, w: np.ndarray):
        self.zeta, self.w = _finite_array(zeta, "zeta"), _finite_array(w, "w")
        if self.zeta.shape != self.w.shape:
            raise ValueError("zeta and w must be 1-D arrays of equal length")
        if not self.zeta.size:
            raise ValueError("state needs at least one mode")

    @property
    def n_modes(self) -> int:
        return self.zeta.size

    @classmethod
    def zero(cls, n_modes: int) -> "ModalState":
        _check_count(n_modes, "n_modes")
        return cls(np.zeros(n_modes), np.zeros(n_modes))

    @classmethod
    def single_mode(cls, k: int, n_modes: int) -> "ModalState":
        _check_count(k, "mode index")
        if not k <= n_modes:
            raise ValueError(f"mode index {k} outside 1..{n_modes}")
        state = cls.zero(n_modes)
        state.zeta[k - 1] = 1.0
        return state


def _energies(zeta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Energy functional sum_k lambda_k zeta_k^2 + sum_k w_k^2 of every row of
    ``zeta`` and ``w`` (of a single state, when they are 1-D)."""
    lam = eigenvalues(zeta.shape[-1])
    return np.einsum("...j,...j,j->...", zeta, zeta, lam) + np.einsum("...j,...j->...", w, w)


def x_norm_sq(state: ModalState) -> float:
    """Energy functional sum_k lambda_k zeta_k^2 + sum_k w_k^2."""
    return float(_energies(state.zeta, state.w))


def x_norm(state: ModalState) -> float:
    """Energy (state-space) norm of the state."""
    return math.sqrt(x_norm_sq(state))


def domain_norm(state: ModalState) -> float:
    """Graph norm: adds the generator image sum_k lambda_k w_k^2 + lambda_k^2 zeta_k^2."""
    lam = eigenvalues(state.n_modes)
    extra = float(np.dot(lam, state.w**2) + np.dot(lam**2, state.zeta**2))
    return math.sqrt(x_norm_sq(state) + extra)


class SimConfig(Frozen):
    """Simulation parameters; ``dt=None`` resolves to min(1e-2, 0.1/mu_N).

    The schedule of a run is :attr:`times`: the grid of spacing ``dt`` from 0
    to its last point at or before t_final (within the rounding of k dt),
    thinned to every ``sample_every``-th point, and always that last one.
    ``dt`` is no integration step, since both loops are exact at any time;
    the default gives about 60 points per period of the fastest retained
    mode. The grid count t_final / dt must stay below 2^63. ``t_final`` and
    ``dt`` are ints or floats, stored as floats, and ``record_modes`` is a bool.
    """

    __slots__ = ("n_modes", "t_final", "dt", "sample_every", "record_modes")

    def __init__(
        self,
        n_modes: int,
        t_final: float,
        dt: float | None = None,
        sample_every: int = 1,
        record_modes: bool = False,
    ):
        _check_count(n_modes, "n_modes")
        if dt is None:
            dt = min(1e-2, 0.1 / float(frequencies(n_modes)[-1]))
        if not isinstance(record_modes, bool):
            raise ValueError(f"record_modes must be a bool, got {record_modes!r}")
        t_final, dt = _number(t_final, "t_final", finite=True), _number(dt, "dt", positive=True)
        self._freeze(n_modes, t_final, dt, sample_every, record_modes)
        if self.t_final < self.dt:
            raise ValueError(f"t_final must be >= dt, got {self.t_final} < {self.dt}")
        # outside input: t_final / dt, the grid's last index, must fit the int64 arange of `times`
        if not self.t_final / self.dt < 2.0**63:
            raise ValueError(f"t_final / dt must be below 2**63, got {self.t_final / self.dt:.3g}")
        _check_count(self.sample_every, "sample_every")

    @property
    def n_steps(self) -> int:
        # the grid's last index k, the largest with k dt <= t_final up to 4 ulps; the benchmark's tracer
        # (perfbench/spans.py) reads it as a run's work
        k = round(self.t_final / self.dt)
        return k - 1 if k * self.dt > self.t_final * (1 + 2.0**-50) else k

    @property
    def times(self) -> np.ndarray:
        """The sample times: every ``sample_every``-th point of the grid from 0, and always the last."""
        return np.r_[np.arange(0, self.n_steps, min(self.sample_every, self.n_steps)), self.n_steps] * self.dt


# each form's row (A, omega, phase) of A cos(omega t + phase): the field that gives each entry, or None
# for 0. A form reads only the fields of its row; the others must stay 0
_FORM_ROW = {"zero": (None, None, None), "constant": ("value", None, None), "sinusoid": ("amplitude", "omega", "phase")}


def _cosine(amp, omega, phase, t):
    """A cos(omega t + phase) at the times ``t``; ValueError naming t where
    the phase omega t + phase is not finite."""
    with np.errstate(over="ignore"):
        angle = omega * t + phase
    bad = ~np.isfinite(angle)
    if bad.any():
        raise ValueError(f"t = {np.broadcast_to(t, angle.shape)[bad][0]:g} is too large: "
                         "the phase omega t + phase is not finite")
    return amp * np.cos(angle)


class Segment(Frozen):
    """One piece of a piecewise input: zero, constant, or a*cos(omega t + phase).

    The time argument of a sinusoid is absolute simulation time. A constant
    reads ``value`` and a sinusoid ``amplitude``, ``omega`` and ``phase``; a
    nonzero parameter that the form does not read is an error. The times and
    parameters are ints or floats, numpy's included, and are stored as
    floats; a bool, None or text is an error that names the field, and so is
    a parameter that is not finite. The times may be infinite.
    """

    __slots__ = ("t_start", "t_end", "form", "value", "amplitude", "omega", "phase", "_wave")

    def __init__(
        self,
        t_start: float,
        t_end: float,
        form: str,
        value: float = 0.0,
        amplitude: float = 0.0,
        omega: float = 0.0,
        phase: float = 0.0,
    ):
        given = dict(zip(self.__slots__, (t_start, t_end, form, value, amplitude, omega, phase)))
        self._freeze(*(x if name == "form" else _number(x, f"segment {name}", finite=name not in ("t_start", "t_end"))
                       for name, x in given.items()))
        if self.form not in _FORM_ROW:
            raise ValueError(f"unknown segment form {self.form!r}")
        if not self.t_end > self.t_start:
            raise ValueError(f"segment needs t_end > t_start, got [{self.t_start}, {self.t_end}]")
        ignored = [f"{name}={getattr(self, name)}" for name in ("value", "amplitude", "omega", "phase")
                   if name not in _FORM_ROW[self.form] and getattr(self, name) != 0.0]
        if ignored:
            raise ValueError(f"a {self.form} segment ignores {', '.join(ignored)}")
        # a constant's omega and phase are 0, so cos 0 = 1 gives its value exactly
        self._freeze(*self._values(), tuple(getattr(self, name) if name else 0.0 for name in _FORM_ROW[self.form]))

    def __call__(self, t):
        """Value at ``t``, a finite time or an array of them, as if this segment served them all."""
        return _cosine(*self._wave, _real_array(t, "t", finite=True))


class InputSignal(Frozen):
    """Piecewise input: contiguous segments from t = 0, in any order.

    Construction sorts the segments by start and rejects an empty list, a
    start after t = 0, and overlaps or gaps between neighbours (beyond
    1e-12). Segment i serves [t_start_i, t_start_{i+1}); the last one also
    serves every later time. :meth:`at` evaluates the signal.
    """

    __slots__ = ("segments", "_seams", "_wave")

    def __init__(self, segments):
        segs = tuple(sorted(segments, key=lambda s: s.t_start))
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
        # the waveform table: column i is segment i's row (A, omega, phase)
        self._freeze(segs, np.array([seg.t_start for seg in segs[1:]]), np.array([seg._wave for seg in segs]).T)

    @classmethod
    def zero(cls, t_final: float) -> "InputSignal":
        return cls([Segment(0.0, t_final, "zero")])

    @classmethod
    def constant(cls, value: float, t_final: float) -> "InputSignal":
        return cls([Segment(0.0, t_final, "constant", value=value)])

    @classmethod
    def sinusoid(cls, amplitude: float, omega: float, t_final: float, phase: float = 0.0) -> "InputSignal":
        return cls([Segment(0.0, t_final, "sinusoid", amplitude=amplitude, omega=omega, phase=phase)])

    def at(self, t) -> np.ndarray:
        """Values at the finite times ``t`` (any shape), each from the segment serving it."""
        t = _real_array(t, "t", finite=True)
        return _cosine(*self._wave[:, np.searchsorted(self._seams, t, side="right")], t)

    def concat(self, tau: float, other: "InputSignal") -> "InputSignal":
        """Concatenation: this signal on [0, tau), then ``other`` delayed by tau."""
        tau = _number(tau, "tau", finite=True)
        if tau < 0:
            raise ValueError(f"tau must be >= 0, got {tau}")
        head = [Segment(seg.t_start, min(seg.t_end, tau), seg.form, seg.value, seg.amplitude, seg.omega, seg.phase)
                for seg in self.segments if seg.t_start < tau]
        # the delayed row cos(w (t - tau) + p) has the phase p - w tau, which a w of 0 leaves as it is
        tail = [Segment(seg.t_start + tau, seg.t_end + tau, seg.form, seg.value, seg.amplitude, seg.omega,
                        seg.phase - seg.omega * tau) for seg in other.segments]
        return InputSignal(head + tail)


class TimeSeries(Record):
    """Sampled trajectory: finite real columns of times, energy norm, energy and
    input/feedback value, and the recorded modes zeta and w, one row per sample."""

    __slots__ = ("t", "x_norm", "energy", "u", "zeta", "w", "final_state")

    def __init__(
        self,
        t: np.ndarray,
        x_norm: np.ndarray,
        energy: np.ndarray,
        u: np.ndarray,
        zeta: np.ndarray | None = None,
        w: np.ndarray | None = None,
        final_state: ModalState | None = None,
    ):
        for name, column in zip(("t", "x_norm", "energy", "u"), (t, x_norm, energy, u)):
            setattr(self, name, _finite_array(column, f"time series column {name}"))
        n = self.t.size
        if not (self.x_norm.size == self.energy.size == self.u.size == n):
            raise ValueError("time series columns must have equal length")
        if zeta is not None or w is not None:  # one of them None is refused, as not a real array
            zeta, w = _finite_array(zeta, "zeta", 2), _finite_array(w, "w", 2)
            if zeta.shape[0] != n or w.shape != zeta.shape:
                raise ValueError(f"zeta and w must both have shape ({n}, N), got {zeta.shape} and {w.shape}")
        self.zeta, self.w, self.final_state = zeta, w, final_state
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
    def from_csv(cls, path, modes: bool = True) -> "TimeSeries":
        """The series that :meth:`to_csv` wrote to ``path``. Every row's cell
        count is checked, and the names after ``u`` must be exactly
        ``zeta_1..zeta_N, w_1..w_N``; with ``modes=False`` only
        ``t,x_norm,energy,u`` are parsed, and the series holds no mode columns."""
        names = ("t", "x_norm", "energy", "u")
        header, data = read_table(path, "time-series", names, None if modes else len(names))
        n = (len(header) - 4) // 2
        if header[4:] != [f"zeta_{k}" for k in range(1, n + 1)] + [f"w_{k}" for k in range(1, n + 1)]:
            raise ValueError(f"malformed time-series CSV {path}: expected zeta_1..zeta_N, w_1..w_N after u")
        if not len(data):
            raise ValueError(f"time-series CSV {path} has no samples")
        zeta, w = (data[:, 4 : 4 + n], data[:, 4 + n :]) if n else (None, None)
        series = cls(t=data[:, 0], x_norm=data[:, 1], energy=data[:, 2], u=data[:, 3], zeta=zeta, w=w)
        if n:
            series.final_state = ModalState(zeta[-1].copy(), w[-1].copy())
        return series


def _integrals(wave, lo, hi, mu: np.ndarray) -> np.ndarray:
    """int_lo^hi A cos(omega s + phase) e^{-i mu s} ds: one row per column
    (A, omega, phase) of ``wave`` with its own lo and hi, one column per mu.
    Each half e^{+-i(omega s + phase)} of the cosine is
    :func:`~wavetank._hyper.exp_integral` of the rate +-omega - mu, exact at
    resonance with no branch."""
    amp, omega, phase = (col[:, None] for col in wave)
    lo, hi = lo[:, None], hi[:, None]
    return amp / 2 * (exp_integral(omega - mu, phase, lo, hi) + exp_integral(-omega - mu, -phase, lo, hi))


def _open_exact(state0: ModalState, b: np.ndarray, signal: InputSignal):
    """The exact open loop from ``state0`` driven by ``signal`` as a function
    of time: it gives the states z = [zeta; w] at a 1-D array of times, one
    row per time, each the rotating-frame y0 + [(b/mu) Im E; b Re E] turned
    by R(t). E at t sums the whole segments before the one serving t, whose
    prefix sums are formed once, here, and that one up to t."""
    n = b.size
    mu = frequencies(n)
    wave = signal._wave
    starts = np.maximum(np.r_[0.0, signal._seams], 0.0)  # where the integral enters each segment
    whole = _integrals(wave[:, :-1], starts[:-1], starts[1:], mu)
    prefix = np.vstack([np.zeros((1, n)), np.cumsum(whole, axis=0)])
    y0 = np.concatenate([state0.zeta, state0.w])

    def states(t: np.ndarray) -> np.ndarray:
        i = np.searchsorted(signal._seams, t, side="right")
        e, live = prefix[i], wave[0, i] != 0  # a row in a zero segment adds nothing to its prefix
        e[live] += _integrals(wave[:, i[live]], starts[i[live]], t[live], mu)
        ys = y0 + np.hstack([(b / mu) * e.imag, b * e.real])
        theta = np.outer(t, mu)
        c, s = np.cos(theta), np.sin(theta)
        return np.hstack([ys[:, :n] * c + (ys[:, n:] / mu) * s, -mu * ys[:, :n] * s + ys[:, n:] * c])

    return states


def _sampled(config: SimConfig, state0: ModalState, states, inputs, monotone: bool = False) -> TimeSeries:
    """The series of a run at ``config.times``, the one walk of a schedule:
    ``states`` is a loop as a function of time (:func:`_open_exact`, or
    :func:`wavetank.spectral._closed_exact`), ``inputs(t, w)`` the input at
    the times ``t``, whose velocities are the rows of ``w``. The times go a
    block at a time (:mod:`wavetank._blocks`, sized by the loops' N-wide time
    functions). Row 0, at t = 0, is ``state0`` as given, since e^{A 0} or
    R(0) would round it and turn -0.0 into 0.0. With ``monotone`` the energy
    column is the running minimum of the sampled energies. Only the recorded
    modes are kept; the last state is the final one. A state whose phases
    or growth pass the float range is refused by its energy, naming its time."""
    n, times = config.n_modes, config.times
    energy, u = np.empty(times.size), np.empty(times.size)
    zeta, w = (np.empty((times.size, n)), np.empty((times.size, n))) if config.record_modes else (None, None)
    for rows in blocks(times.size, n):
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            z = states(times[rows])
            if rows.start == 0:
                z[0, :n], z[0, n:] = state0.zeta, state0.w
            energy[rows] = _energies(z[:, :n], z[:, n:])
        bad = times[rows][~np.isfinite(energy[rows])]
        if bad.size:
            raise ValueError(f"t_final = {config.t_final:g} is too large: the state at t = {bad[0]:g} is not finite")
        u[rows] = inputs(times[rows], z[:, n:])
        if zeta is not None:
            zeta[rows], w[rows] = z[:, :n], z[:, n:]
    if monotone:
        np.minimum.accumulate(energy, out=energy)
    final = ModalState(z[-1, :n].copy(), z[-1, n:].copy())
    return TimeSeries(times, np.sqrt(energy), energy, u, zeta, w, final)


def _checked_coupling(state0: ModalState, h, config: SimConfig) -> np.ndarray:
    if state0.n_modes != config.n_modes:
        raise ValueError("initial state truncation does not match config.n_modes")
    return coupling_vector(h, config.n_modes)


def simulate_closed(state0: ModalState, h, config: SimConfig) -> TimeSeries:
    """Sample the collocated closed loop u = -b.w from ``state0`` at
    ``config.times``, exact to rounding at every sample.

    ``h`` is a profile or a 1-D coupling array of at least ``config.n_modes``
    entries (see :func:`coupling_vector`). The state is the sum over the pairs
    of closed-loop roots of two closed-form time functions times the part of
    ``state0`` in the pair's real invariant plane, a closed form at any time
    (see :func:`wavetank.spectral._closed_exact`). The energy column is the
    running minimum of the sampled energies: the exact energy never
    increases, so the energy and norm columns are non-increasing by
    construction and keep their relative accuracy in the tail. Raises
    LinAlgError (a ValueError) where the root finder does not converge.
    """
    b = _checked_coupling(state0, h, config)
    z0 = np.concatenate([state0.zeta, state0.w])
    return _sampled(config, state0, _closed_exact(b, z0), lambda t, w: -(w @ b), monotone=True)


def simulate_open(state0: ModalState, h, signal: InputSignal, config: SimConfig) -> TimeSeries:
    """Sample the driven open loop at ``config.times``, exact to rounding at
    every sample.

    In rotating coordinates y(t) = R(-t) z(t) = y0 + [(b/mu) Im E(t); b Re E(t)]
    with E(t) = int_0^t u(s) e^{-i mu s} ds. Every segment is A cos(omega s +
    phase) (a constant has omega = phase = 0, a zero segment A = 0), whose
    integral has a closed form. A sample adds the whole segments before its
    own, the one :meth:`InputSignal.at` picks, to its own up to its time, a
    closed form at any time. With a zero signal y stays y0 and the energy
    norm is conserved to a couple of ulps over any horizon. ``h`` is a
    profile or a 1-D coupling array, as for :func:`simulate_closed`. The
    signal must reach ``config.t_final`` (within 1e-12).
    """
    b = _checked_coupling(state0, h, config)
    end = signal.segments[-1].t_end
    if end < config.t_final - 1e-12:
        raise ValueError(f"input signal ends at {end} before t_final={config.t_final}")
    return _sampled(config, state0, _open_exact(state0, b, signal), lambda t, w: signal.at(t))
