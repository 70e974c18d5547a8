"""Decay quantification for closed-loop trajectories.

Fits exponential or power-law decay models to sampled norm histories,
measures the smallest constant closing the (1+t)^{-1/6} envelope over a
run, and sweeps the truncation size to exhibit non-uniform stabilizability:
every truncation is exponentially stable, but the fitted rates sink toward
zero as modes are added. A dense eigensolve of the closed-loop block matrix
provides the independent spectral-abscissa oracle for the sweep.
"""

import json
import math
from dataclasses import dataclass, replace

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
    "closed_loop_matrix",
    "spectral_abscissa",
    "rate_vs_n_study",
]


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay fit over a time window.

    For the exponential model ``fitted_value`` is the decay rate sigma in
    x_norm ~ e^{-sigma t} (positive for decay); for the power model it is
    the slope p in log x_norm vs log(1+t) (negative for decay).
    """

    window: tuple[float, float]
    model: str
    fitted_value: float
    residual_rms: float


@dataclass(frozen=True)
class EnvelopeReport:
    """Smallest M with x_norm(t) <= M (1+t)^{-1/6} domain_norm(0) over the samples."""

    M_min: float
    attained_at: float

    def to_json(self) -> str:
        return json.dumps({"M_min": self.M_min, "attained_at": self.attained_at})


@dataclass(frozen=True)
class RateStudyEntry:
    """Fitted tail rate for one truncation size, with fit residual and the
    wave-package coupling floor min_k |beta_k| (mu_k + 1)^2 as a diagnostic."""

    n_modes: int
    rate: float
    residual_rms: float
    gamma_floor: float


def decay_fit(series: TimeSeries, window: tuple[float, float], model: str) -> DecayFit:
    """Fit log x_norm against t (exponential) or log(1+t) (power) on a window.

    Requires at least 10 samples inside the window, all with positive norm.
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
    if not domain_norm0 > 0:
        raise ValueError(f"domain_norm0 must be positive, got {domain_norm0}")
    weighted = series.x_norm * (1.0 + series.t) ** (1.0 / 6.0) / domain_norm0
    i = int(np.argmax(weighted))
    return EnvelopeReport(M_min=float(weighted[i]), attained_at=float(series.t[i]))


def smooth_initial_state(n_modes: int, decay_power: float) -> ModalState:
    """State zeta_k = k^{-decay_power}, w = 0, normalized to unit graph norm."""
    if decay_power < 2:
        raise ValueError(f"decay_power must be >= 2, got {decay_power}")
    zeta = np.arange(1, n_modes + 1, dtype=float) ** (-float(decay_power))
    state = ModalState(zeta, np.zeros(n_modes))
    scale = domain_norm(state)
    return ModalState(zeta / scale, np.zeros(n_modes))


def closed_loop_matrix(h, n_modes: int) -> np.ndarray:
    """Dense block matrix [[0, I], [-diag(lambda), -b b^T]] of the closed loop."""
    lam = eigenvalues(n_modes)
    b = coupling_vector(h, n_modes).b if not hasattr(h, "b") else h.b[:n_modes]
    m = np.zeros((2 * n_modes, 2 * n_modes))
    m[:n_modes, n_modes:] = np.eye(n_modes)
    m[n_modes:, :n_modes] = -np.diag(lam)
    m[n_modes:, n_modes:] = -np.outer(b, b)
    return m


def spectral_abscissa(h, n_modes: int) -> float:
    """Largest eigenvalue real part of the closed-loop matrix (dense QR eigensolve).

    Independent oracle for the fitted rates: the trajectory decay rate of the
    truncated loop equals minus this abscissa asymptotically.
    """
    return float(np.linalg.eigvals(closed_loop_matrix(h, n_modes)).real.max())


def rate_vs_n_study(h, n_values, config: SimConfig | None = None) -> list[RateStudyEntry]:
    """Fitted tail decay rates of the closed loop for increasing truncations.

    Each run starts from the evenly spread state zeta_k = w_k = 1/sqrt(N),
    is advanced by :func:`simulate_closed` with the modes recorded, and fits
    the exponential model to norms recomputed from the recorded modes on the
    last half of the samples. Long horizons are required to out-wait the
    slowest mode, and over them the tracked energy, a running difference of
    O(1) numbers, loses the relative accuracy the tail fit needs.

    Every truncation is exponentially stable (positive rate); the rates
    shrink as modes are added, the finite shadow of non-uniform
    stabilizability.
    """
    n_values = list(n_values)
    if any(n < 2 for n in n_values):
        raise ValueError("every truncation in the study must be >= 2")
    if sorted(n_values) != n_values:
        raise ValueError("truncation sizes must be increasing")
    if config is None:
        config = SimConfig(n_modes=2, t_final=40000.0, dt=1e-2, sample_every=1000)
    entries = []
    for n in n_values:
        coupling = coupling_vector(h, n)
        gamma_floor = float(np.min(np.abs(coupling.beta) * (frequencies(n) + 1.0) ** 2))
        cfg = replace(config, n_modes=n, feedback="collocated", integrator="splitting", record_modes=True)
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
