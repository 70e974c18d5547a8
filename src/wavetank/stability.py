"""Decay quantification for closed-loop trajectories.

Fits exponential or power-law decay models to sampled norm histories,
measures the smallest constant closing the (1+t)^{-1/6} envelope over a
run, and sweeps the truncation size to exhibit non-uniform stabilizability:
every truncation is exponentially stable, but the fitted rates sink toward
zero as modes are added. The closed-loop eigenvalues, the roots of the
secular equation of the rank-one damping, give the spectral abscissa that
the fitted rates approach (and, through :mod:`wavetank.simulate`, the
trajectories themselves).
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
from .spectral import _closed_loop_roots, frequencies

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
    wave-package coupling floor min_k |b_k| / sqrt(2) (mu_k + 1)^2 as a diagnostic."""

    n_modes: int
    rate: float
    residual_rms: float
    gamma_floor: float


def decay_fit(series: TimeSeries, window: tuple[float, float], model: str) -> DecayFit:
    """Fit log x_norm against t (exponential) or log(1+t) (power) on a window.

    Requires at least 10 samples inside the window, all with positive norm,
    and for the power model all at t > -1.
    """
    t_lo, t_hi = window = tuple(map(float, window))
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
        window=window,
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


def spectral_abscissa(h, n_modes: int) -> float:
    """Largest real part of the closed-loop eigenvalues of a profile or a 1-D
    coupling array ``h`` (see :func:`wavetank.profiles.coupling_vector`), the
    roots of the secular equation of the rank-one damping (see
    :func:`wavetank.spectral._closed_loop_pairs`).

    Independent oracle for the fitted rates: the trajectory decay rate of the
    truncated loop equals minus this abscissa asymptotically.
    """
    return float(_closed_loop_roots(coupling_vector(h, n_modes)).real.max())


def rate_vs_n_study(h, n_values, t_final=40000.0, dt=1e-2, sample_every=1000) -> list[RateStudyEntry]:
    """Fitted tail decay rates of the closed loop of a profile or a 1-D coupling
    array ``h`` for strictly increasing truncations.

    Each run starts from the evenly spread state zeta_k = w_k = 1/sqrt(N), is
    sampled by :func:`simulate_closed` every ``sample_every``-th point of the
    grid of spacing ``dt`` up to ``t_final``, and fits the exponential model
    to the norms on the last half of the samples, so it needs >= 19 of them,
    checked before any run. Long horizons are required to out-wait the
    slowest mode; the exact samples keep the norms' relative accuracy in the tail.

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
    configs = [SimConfig(n_modes=n, t_final=t_final, dt=dt, sample_every=sample_every) for n in n_values]
    samples = min(cfg.times.size for cfg in configs)
    if samples < 19:
        raise ValueError(f"t_final {t_final}, dt {dt} and sample_every {sample_every} give {samples} "
                         "samples; the fit on their last half needs >= 19")
    entries = []
    for n, cfg in zip(n_values, configs):
        b = coupling_vector(h, n)
        gamma_floor = float(np.min(np.abs(b) / math.sqrt(2.0) * (frequencies(n) + 1.0) ** 2))
        v = np.ones(n) / math.sqrt(n)
        run = simulate_closed(ModalState(v, v.copy()), b, cfg)
        fit = decay_fit(run, (run.t[len(run.t) // 2], run.t[-1]), "exponential")
        entries.append(RateStudyEntry(n, fit.fitted_value, fit.residual_rms, gamma_floor))
    return entries


def study_to_csv(entries, path=None) -> None:
    """Write study rows ``N,rate,residual_rms`` (17 significant digits) to
    ``path``, or to standard output when it is empty or None."""
    rows = [(e.n_modes, e.rate, e.residual_rms) for e in entries]
    write_table(path, ["N", "rate", "residual_rms"], [np.reshape(rows, (-1, 3))])
