"""Eigenstructure of the surface-wave generator on the unit-depth tank.

The Dirichlet-to-Neumann operator of the rectangle (0, pi) x (-1, 0) is
diagonal in the cosine basis with eigenvalues

    lambda_k = k * tanh(k),        k = 1, 2, ...

The second-order wave dynamics therefore oscillates at the frequencies
mu_k = sqrt(lambda_k), extended to negative indices by mu_{-k} = -mu_k.
This module evaluates the dispersion data, certifies the asymptotic
spectral-gap property mu_k (mu_{k+1} - mu_k) -> 1/2, and resolves
wave-package membership queries used by the non-uniform stability
diagnostics.
"""

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "WavePackageResult",
    "GapViolationError",
    "eigenvalue",
    "frequency",
    "frequencies",
    "eigenvalues",
    "gap_products",
    "wave_package",
    "separation_certificate",
]


class GapViolationError(ValueError):
    """Raised when a wave package of the requested width holds two or more modes."""

    def __init__(self, s, delta, indices):
        self.s = s
        self.delta = delta
        self.indices = tuple(indices)
        super().__init__(
            f"gap violation: frequencies {self.indices} all within "
            f"{delta:.6g} of s={s:.6g}"
        )


class WavePackageResult(NamedTuple):
    """Outcome of a wave-package lookup around center frequency ``center_s``.

    ``member`` is the unique signed mode index whose frequency lies within
    ``width_delta`` of the center, or ``None`` when no frequency is that close.
    """

    center_s: float
    width_delta: float
    member: int | None


def _check_count(value, name: str) -> None:
    """Raise ValueError unless ``value`` is an integer >= 1; a bool or a float is not."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def eigenvalue(k: int) -> float:
    """Eigenvalue k*tanh(k) of the Dirichlet-to-Neumann operator.

    Strictly increasing in k and exponentially close to k for large k.
    """
    _check_count(k, "mode index")
    return k * math.tanh(k)


def frequency(k: int) -> float:
    """Signed oscillation frequency sign(k)*sqrt(|k| tanh|k|), k != 0."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k == 0:
        raise ValueError(f"mode index must be a nonzero integer, got {k!r}")
    return math.copysign(math.sqrt(eigenvalue(abs(k))), k)


def eigenvalues(n: int) -> np.ndarray:
    """Vector (lambda_1, ..., lambda_n)."""
    _check_count(n, "n")
    k = np.arange(1, n + 1, dtype=float)
    return k * np.tanh(k)


def frequencies(n: int) -> np.ndarray:
    """Vector (mu_1, ..., mu_n)."""
    return np.sqrt(eigenvalues(n))


def gap_products(kmax: int) -> np.ndarray:
    """Products p_k = mu_k * (mu_{k+1} - mu_k) for k = 1..kmax-1.

    The sequence converges to 1/2; the tanh correction dies exponentially
    while the sqrt spacing contributes an algebraic -1/(8k) + O(k^-2) tail.
    """
    if kmax < 2:
        raise ValueError(f"kmax must be >= 2, got {kmax}")
    mu = frequencies(kmax)
    return mu[:-1] * np.diff(mu)


def _candidate_indices(m: float, delta: float) -> np.ndarray:
    # mu_k^2 = k tanh k lies in (k - 2k e^(-2k), k] and 2k e^(-2k) <= 2/e^2 < 1
    # for k >= 1, so |mu_k - m| < delta (or, on the mirrored branch,
    # mu_k < delta - m) forces (m - delta)^2 <= k < (m + delta)^2 + 1: a
    # bracket of about 4 m delta + 5 indices, padded by 2 on each side.
    lo = max(1, int(math.floor(max(m - delta, 0.0) ** 2)) - 2)
    hi = int(math.ceil((m + delta) ** 2)) + 2
    return lo + np.arange(hi - lo + 1, dtype=float)


def wave_package(s: float, eps: float) -> WavePackageResult:
    """Locate the unique mode inside the wave package of center s, width eps/(|s|+1).

    Returns a result with ``member=None`` when no frequency mu_k
    (k ranging over all nonzero integers) lies strictly within the width.
    Raises :class:`GapViolationError` when two or more qualify, certifying
    that the requested ``eps`` exceeds the spectral-gap threshold at s.
    Raises ValueError where |s| is so large (from about 5e7 on) that doubles
    no longer separate neighbouring frequencies.
    """
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    delta = eps / (abs(s) + 1.0)
    cand = _candidate_indices(abs(s), delta)
    mu = np.sqrt(cand * np.tanh(cand))
    if np.any(np.diff(mu) <= 0.0):
        raise ValueError(f"|s| = {abs(s):.6g} is too large: doubles do not separate the frequencies near it")
    members = []
    for sign in (1, -1):
        hits = np.nonzero(np.abs(sign * mu - s) < delta)[0]
        members.extend(int(sign * cand[i]) for i in hits)
    if len(members) > 1:
        raise GapViolationError(s, delta, sorted(members, key=abs))
    return WavePackageResult(
        center_s=float(s),
        width_delta=float(delta),
        member=members[0] if members else None,
    )


def _scan_passes(eps: float, s_grid: np.ndarray, mu_ext: np.ndarray) -> bool:
    # A violation at s needs the two nearest frequencies both within
    # delta(s) = eps/(|s|+1); equivalently eps > d2(s) * (|s|+1) with d2 the
    # second-smallest distance from s to the extended frequency set.
    idx = np.searchsorted(mu_ext, s_grid)
    idx = np.clip(idx, 2, len(mu_ext) - 2)
    # distances to the four neighbours around the insertion point
    d = np.abs(mu_ext[idx[:, None] + np.array([-2, -1, 0, 1])] - s_grid[:, None])
    d.sort(axis=1)
    return bool(np.all(eps <= d[:, 1] * (np.abs(s_grid) + 1.0)))


def separation_certificate(
    kmax: int,
    grid_step: float = 1e-3,
    resolution: float = 1e-6,
) -> float:
    """Largest certified eps such that no wave package on the scan grid holds two modes.

    Scans s over a grid of [-mu_kmax - 1, mu_kmax + 1] with the given step and
    binary-searches eps to the given resolution. The candidate frequency set is
    extended beyond kmax until it covers the scan interval, so packages near the
    upper end of the range see their true neighbours. This is a finite-range
    surrogate for the existential gap constant; it claims nothing beyond the
    scanned interval.
    """
    _check_count(kmax, "kmax")
    for name, value in (("grid_step", grid_step), ("resolution", resolution)):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    hi_s = frequency(kmax) + 1.0
    # extend the mode set until its frequencies pass the scan boundary
    kext = kmax
    while frequency(kext) < hi_s + 1.0:
        kext = max(kext + 8, int(1.1 * kext))
    mu_pos = frequencies(kext)
    mu_ext = np.concatenate([-mu_pos[::-1], mu_pos])
    s_grid = np.arange(-hi_s, hi_s + grid_step, grid_step)

    lo, hi = 0.0, 1.0
    if not _scan_passes(hi, s_grid, mu_ext):
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if _scan_passes(mid, s_grid, mu_ext):
                lo = mid
            else:
                hi = mid
    else:  # pragma: no cover - eps=1 never passes: delta(0)=1 > mu_1
        lo = hi
    return lo
