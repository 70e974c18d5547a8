"""Decay quantification for closed-loop trajectories.

Fits exponential or power-law decay models to sampled norm histories,
measures the smallest constant closing the (1+t)^{-1/6} envelope over a
run, and sweeps the truncation size to exhibit non-uniform stabilizability:
every truncation is exponentially stable, but the fitted rates sink toward
zero as modes are added. The closed-loop eigenvalues, found as the roots of
the secular equation of the rank-one damping, provide the independent
spectral-abscissa oracle for the sweep.
"""

import math
from typing import NamedTuple

import numpy as np

from ._table import write_table
from .profiles import coupling_vector
from .simulate import (
    ModalState,
    SimConfig,
    TimeSeries,
    domain_norm,
    simulate_closed,
)
from .spectral import eigenvalues, frequencies

__all__ = [
    "DecayFit",
    "EnvelopeReport",
    "RateStudyEntry",
    "decay_fit",
    "envelope_check",
    "smooth_initial_state",
    "spectral_abscissa",
    "rate_vs_n_study",
    "study_to_csv",
]


class DecayFit(NamedTuple):
    """Least-squares decay fit over a time window.

    For the exponential model ``fitted_value`` is the decay rate sigma in
    x_norm ~ e^{-sigma t} (positive for decay); for the power model it is
    the slope p in log x_norm vs log(1+t) (negative for decay).
    """

    window: tuple[float, float]
    model: str
    fitted_value: float
    residual_rms: float


class EnvelopeReport(NamedTuple):
    """Smallest M with x_norm(t) <= M (1+t)^{-1/6} domain_norm(0) over the samples."""

    M_min: float
    attained_at: float


class RateStudyEntry(NamedTuple):
    """Fitted tail rate for one truncation size, with fit residual and the
    wave-package coupling floor min_k |beta_k| (mu_k + 1)^2 as a diagnostic."""

    n_modes: int
    rate: float
    residual_rms: float
    gamma_floor: float


def decay_fit(series: TimeSeries, window: tuple[float, float], model: str) -> DecayFit:
    """Fit log x_norm against t (exponential) or log(1+t) (power) on a window.

    Requires at least 10 samples inside the window, all with positive norm,
    and for the power model all at t > -1.
    """
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError(f"window must satisfy t_lo < t_hi, got {window}")
    if model not in ("exponential", "power"):
        raise ValueError(f"model must be 'exponential' or 'power', got {model!r}")
    mask = (series.t >= t_lo) & (series.t <= t_hi)
    if int(mask.sum()) < 10:
        raise ValueError(f"window {window} holds {int(mask.sum())} samples; need >= 10")
    xs = series.x_norm[mask]
    if np.any(xs <= 0.0):
        raise ValueError("window contains non-positive norms; decay fit undefined")
    ts = series.t[mask]
    if model == "power" and ts[0] <= -1.0:
        raise ValueError(f"power model needs t > -1, window holds t = {ts[0]:g}")
    logx = np.log(xs)
    abscissa = ts if model == "exponential" else np.log1p(ts)
    slope, intercept = np.polyfit(abscissa, logx, 1)
    resid = logx - (slope * abscissa + intercept)
    fitted = -slope if model == "exponential" else slope
    return DecayFit(
        window=(float(t_lo), float(t_hi)),
        model=model,
        fitted_value=float(fitted),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


def envelope_check(series: TimeSeries, domain_norm0: float) -> EnvelopeReport:
    """Envelope constant max_t x_norm(t) (1+t)^{1/6} / domain_norm0 and its argmax."""
    if not (domain_norm0 > 0 and math.isfinite(domain_norm0)):
        raise ValueError(f"domain_norm0 must be positive and finite, got {domain_norm0}")
    weighted = series.x_norm * (1.0 + series.t) ** (1.0 / 6.0) / domain_norm0
    i = int(np.argmax(weighted))
    return EnvelopeReport(M_min=float(weighted[i]), attained_at=float(series.t[i]))


def smooth_initial_state(n_modes: int, decay_power: float) -> ModalState:
    """State zeta_k = k^{-decay_power}, w = 0, normalized to unit graph norm."""
    if not decay_power >= 2:  # NaN fails here, not later as a non-finite state
        raise ValueError(f"decay_power must be >= 2, got {decay_power}")
    zeta = np.arange(1, n_modes + 1, dtype=float) ** (-float(decay_power))
    state = ModalState(zeta, np.zeros(n_modes))
    scale = domain_norm(state)
    return ModalState(zeta / scale, np.zeros(n_modes))


_SEED_NUDGE = 2.0**-10  # relative shift of the lower seeds off conjugate symmetry
_STALL = 1e-10  # a correction below this share of its offset that stops shrinking is rounding
_MAX_SWEEPS = 500  # Aberth sweeps before the root finder gives up
# entries of the rows x 2N complex temporaries of one Aberth chunk, exclusive:
# 2^13 complex entries are 128 KiB, glibc's mmap threshold, at which each chunk's
# temporaries go back to the system and fault in again. In a fresh process the
# roots at N = 100, 200 and 400 took 27,204 page faults with chunks of 2^18
# entries, 44 with these
ROOT_CHUNK = 1 << 13


def _closed_loop_roots(b) -> np.ndarray:
    """All 2N eigenvalues of the closed loop with coupling ``b``.

    The rank-one damping factors the characteristic polynomial as
    prod_k (s^2 + lambda_k) f(s), with the secular function
    f(s) = 1 + s sum_k b_k^2 / (s^2 + lambda_k). Its 2N roots are found by
    the Aberth-Ehrlich iteration on that form, seeded at the first-order
    values +-i mu_k - b_k^2/2; the lower seeds are nudged off conjugate
    symmetry so that a strongly damped pair can split onto the real axis.
    Each root is held as its home pole p = +-i mu_k plus an offset d, so its
    real part is exactly Re d, and the home denominator is formed as
    d (d + 2p), never as s^2 + lambda_k, whose cancellation would hide
    couplings below eps mu_k. Modes with b_k^2 zero or below the normal
    float64 range are deflated: their roots are exactly +-i mu_k.

    Returns the roots homed at i mu_1, ..., i mu_N, then those homed at
    -i mu_1, ..., -i mu_N. Raises LinAlgError when the iteration does not
    converge, or when the roots miss the trace identity
    sum Re s = -|b|^2 by more than 1e-13 |b|^2.
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("coupling coefficients must be finite")
    n = b.size
    lam = eigenvalues(n)
    mu = np.sqrt(lam)
    roots = np.concatenate([1j * mu, -1j * mu])
    eps = np.finfo(float).eps
    rows = max(1, (ROOT_CHUNK - 1) // (2 * n))  # roots per chunk
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            b2 = b * b
            live = np.flatnonzero(b2 >= np.finfo(float).tiny)
            iterated = np.concatenate([live, n + live])
            q = b2[live]
            pole = roots[iterated]
            lam_live, lam_home = lam[live], lam[np.concatenate([live, live])]
            off = np.concatenate([-0.5 * q, -0.5 * (1.0 + _SEED_NUDGE) * q]).astype(complex)
            last = np.full(off.size, np.inf)
            todo = np.arange(off.size)
            for _ in range(_MAX_SWEEPS):
                if not todo.size:
                    break
                chunks = np.array_split(todo, -(-todo.size // rows))
                step = np.concatenate([_aberth_step(i, pole, off, lam_live, lam_home[i], q) for i in chunks])
                off[todo] -= step
                size, scale = np.abs(step), np.abs(off[todo])
                done = (size <= 4.0 * eps * scale) | ((size >= last[todo]) & (size <= _STALL * scale))
                last[todo] = size
                todo = todo[~done]
    except FloatingPointError as exc:
        raise np.linalg.LinAlgError(f"closed-loop root finder broke down: {exc}") from exc
    if todo.size:
        raise np.linalg.LinAlgError(
            f"closed-loop root finder left {todo.size} roots unconverged after {_MAX_SWEEPS} sweeps"
        )
    gap = abs(math.fsum(off.real) + math.fsum(q))
    if gap > 1e-13 * math.fsum(q):
        raise np.linalg.LinAlgError(f"closed-loop roots miss the trace identity by {gap:.3g}")
    roots[iterated] = pole + off
    return roots


def _aberth_step(i, pole, off, lam, lam_home, q):
    """Aberth corrections to the offsets of rows ``i``: N / (1 - N sum_j 1/(z_i - z_j))
    with the Newton correction N of the characteristic polynomial,
    P'/P = sum_k 2z/(z^2 + lambda_k) + f'/f and f' = sum_k b_k^2 (lambda_k - z^2)/(z^2 + lambda_k)^2."""
    z = pole[i] + off[i]
    # z^2 + lambda_k = (lambda_k - lambda_home) + d (d + 2p), exact zero shift at home
    inv = 1.0 / ((lam[None, :] - lam_home[:, None]) + (off[i] * (off[i] + 2.0 * pole[i]))[:, None])
    terms = inv * q
    g = terms.sum(axis=1)
    f = 1.0 + z * g
    df = g - 2.0 * z * z * (terms * inv).sum(axis=1)
    gaps = (pole[i][:, None] - pole[None, :]) + (off[i][:, None] - off[None, :])
    gaps[np.arange(i.size), i] = np.inf
    repel = (1.0 / gaps).sum(axis=1)
    return f / (f * (2.0 * z * inv.sum(axis=1) - repel) + df)


def spectral_abscissa(h, n_modes: int) -> float:
    """Largest real part of the closed-loop eigenvalues, the roots of the
    secular equation of the rank-one damping (see :func:`_closed_loop_roots`).

    Independent oracle for the fitted rates: the trajectory decay rate of the
    truncated loop equals minus this abscissa asymptotically.
    """
    return float(_closed_loop_roots(coupling_vector(h, n_modes).b).real.max())


def rate_vs_n_study(h, n_values, t_final=40000.0, dt=1e-2, sample_every=1000) -> list[RateStudyEntry]:
    """Fitted tail decay rates of the closed loop for strictly increasing truncations.

    Each run starts from the evenly spread state zeta_k = w_k = 1/sqrt(N),
    is advanced to ``t_final`` by :func:`simulate_closed` in steps of ``dt``,
    with the modes recorded every ``sample_every``-th step, and fits
    the exponential model to norms recomputed from the recorded modes on the
    last half of the samples. Long horizons are required to out-wait the
    slowest mode, and over them the tracked energy, a running difference of
    O(1) numbers, loses the relative accuracy the tail fit needs.

    Every truncation is exponentially stable (positive rate); the rates
    shrink as modes are added, the finite shadow of non-uniform
    stabilizability.
    """
    n_values = list(n_values)
    if not n_values:
        raise ValueError("the study needs at least one truncation size")
    if any(n < 2 for n in n_values):
        raise ValueError("every truncation in the study must be >= 2")
    if any(lo >= hi for lo, hi in zip(n_values, n_values[1:])):
        raise ValueError("truncation sizes must be strictly increasing")
    entries = []
    for n in n_values:
        coupling = coupling_vector(h, n)
        gamma_floor = float(np.min(np.abs(coupling.beta) * (frequencies(n) + 1.0) ** 2))
        cfg = SimConfig(n_modes=n, t_final=t_final, dt=dt, sample_every=sample_every, record_modes=True)
        v = np.ones(n) / math.sqrt(n)
        run = simulate_closed(ModalState(v, v.copy()), coupling, cfg)
        x = np.sqrt(run.zeta**2 @ eigenvalues(n) + np.sum(run.w**2, axis=1))
        series = TimeSeries(t=run.t, x_norm=x, energy=x**2, u=run.u)
        fit = decay_fit(series, (run.t[len(run.t) // 2], run.t[-1]), "exponential")
        entries.append(RateStudyEntry(n, fit.fitted_value, fit.residual_rms, gamma_floor))
    return entries


def study_to_csv(entries, path=None) -> None:
    """Write study rows ``N,rate,residual_rms`` (17 significant digits) to
    ``path``, or to standard output when it is empty or None."""
    rows = [(e.n_modes, e.rate, e.residual_rms) for e in entries]
    write_table(path, ["N", "rate", "residual_rms"], [np.reshape(rows, (-1, 3))])
