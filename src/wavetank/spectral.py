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

It also holds the spectrum of the collocated closed loop, the generator
less the rank-one damping b b^T: the 2N roots of its secular equation,
found as N real quadratic factors (:func:`_closed_loop_pairs`). The
spectral abscissa in ``stability`` reads their real parts, and the exact
closed loop in ``simulate`` is built from them.
"""

import math
from typing import NamedTuple

import numpy as np

from ._blocks import blocks

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
        self.s, self.delta, self.indices = s, delta, tuple(indices)
        super().__init__(f"gap violation: frequencies {self.indices} all within {delta:.6g} of s={s:.6g}")


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


def _real_array(values, name: str, what: str = "a real array") -> np.ndarray:
    """``values`` as a float array; ValueError unless they are integers or floats (not bool, complex or text)."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be {what}, got dtype {array.dtype}")
    return array.astype(float, copy=False)


def eigenvalue(k: int) -> float:
    """Eigenvalue k*tanh(k) of the Dirichlet-to-Neumann operator.

    Strictly increasing in k and exponentially close to k for large k.
    """
    _check_count(k, "mode index")
    k = float(k)
    return float(k * np.tanh(k))  # numpy's tanh, as in eigenvalues(): the two agree bit for bit


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
    too_large = f"|s| = {abs(s):.6g} is too large: doubles do not separate the frequencies near it"
    # every |s| >= 2^26.5 fails the check below (neighbouring frequencies are then
    # within half an ulp); rejected first, it also spares the bracket, whose
    # squares overflow from about 1.3e154
    if abs(s) >= 2.0**26.5:
        raise ValueError(too_large)
    cand = _candidate_indices(abs(s), delta)
    mu = np.sqrt(cand * np.tanh(cand))
    if np.any(np.diff(mu) <= 0.0):
        raise ValueError(too_large)
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


_SEED_NUDGE = 2.0**-10  # relative shift of the lower seeds off conjugate symmetry
# a correction below this share of its value that stops shrinking is as far as
# an iteration gets: rounding for a simple root, about sqrt(eps) for a double one
_STALL = 1e-6
_MAX_SWEEPS = 500  # sweeps of either iteration before the root finder gives up


def _closed_loop_pairs(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closed-loop spectrum of the float coupling array ``b`` as N real quadratic factors.

    The characteristic polynomial is prod_k (s^2 + lambda_k) f(s), with the
    secular function f(s) = 1 + s sum_k b_k^2 / (s^2 + lambda_k). Pair k is
    the factor s^2 - P_k s + Q_k, Q_k = lambda_k - rho_k, and (P, rho) is
    returned; a mode with b_k^2 zero or below the normal float64 range is
    deflated to P_k = rho_k = 0, the roots +-i mu_k.

    The Aberth-Ehrlich iteration finds the 2N roots from the seeds
    +-i mu_k - b_k^2/2, the lower ones nudged off conjugate symmetry so that
    a strongly damped pair can split onto the real axis. A seed's real part
    is capped at half the distance from mu_k to the nearest live frequency
    (to 0 below the first, to mu_N + 1 above the last): strongly damped
    roots go between the poles and onto the real axis, not to -b_k^2/2.
    A root is held as its home pole p = +-i mu_k plus an offset d, with the
    home denominator d (d + 2p), since s^2 + lambda_k would cancel couplings
    below eps mu_k; rho is formed from the offsets for the same reason. The
    roots homed at +-i mu_k are pair k when each is the root nearest the
    other's conjugate; the rest are paired again, largest imaginary part
    first, each with the root nearest its conjugate. Near a double root
    Aberth stalls at about sqrt(eps), so every pair is then polished by
    Newton's method (Bairstow's) on its real equations f(s+) + f(s-) = 0 and
    f[s+, s-] = 0, regular there.

    Raises LinAlgError when an iteration does not converge, or when the pairs
    miss the trace identity sum P = -|b|^2 by more than 1e-13 |b|^2.
    """
    n = b.size
    lam = eigenvalues(n)
    total, rho = np.zeros(n), np.zeros(n)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            b2 = b * b
            live = np.flatnonzero(b2 >= np.finfo(float).tiny)
            if not live.size:
                return total, rho
            q, lam_live = b2[live], lam[live]
            mu = np.sqrt(lam_live)
            lam_home = np.concatenate([lam_live, lam_live])
            pole = np.concatenate([1j * mu, -1j * mu])
            edges = np.concatenate([[0.0], mu, [mu[-1] + 1.0]])
            cap = np.minimum(q, np.minimum(np.diff(edges[:-1]), np.diff(edges[1:])))
            off = np.concatenate([-0.5 * cap, -0.5 * (1.0 + _SEED_NUDGE) * cap]).astype(complex)
            _converge(off, lambda i: _aberth_step(i, pole, off, lam_live, lam_home[i], q), "roots")
            # pair k is held as P + i rho / mu_k, about twice the conjugate of
            # its upper offset when the coupling is weak
            pairs = _pair_start(pole, off, mu)
            _converge(pairs, lambda i: _polish_step(i, pairs, lam_live, mu, q), "root pairs")
    except FloatingPointError as exc:
        raise np.linalg.LinAlgError(f"closed-loop root finder broke down: {exc}") from exc
    gap = abs(math.fsum(pairs.real) + math.fsum(q))
    if gap > 1e-13 * math.fsum(q):
        raise np.linalg.LinAlgError(f"closed-loop roots miss the trace identity by {gap:.3g}")
    total[live], rho[live] = pairs.real, pairs.imag * mu
    return total, rho


def _converge(x, correction, what: str) -> None:
    """Subtract ``correction(i)`` from the rows i of ``x`` in place, sweep after
    sweep in blocks of rows, until each row's correction falls below 4 eps of
    its value, or stops shrinking below ``_STALL`` of it."""
    eps = np.finfo(float).eps
    last = np.full(x.size, np.inf)
    todo = np.arange(x.size)
    for _ in range(_MAX_SWEEPS):
        if not todo.size:
            return
        step = np.concatenate([correction(todo[rows]) for rows in blocks(todo.size, x.size)])
        x[todo] -= step
        size, scale = np.abs(step), np.abs(x[todo])
        done = (size <= 4.0 * eps * scale) | ((size >= last[todo]) & (size <= _STALL * scale))
        last[todo] = size
        todo = todo[~done]
    if todo.size:
        raise np.linalg.LinAlgError(
            f"closed-loop root finder left {todo.size} {what} unconverged after {_MAX_SWEEPS} sweeps"
        )


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


def _pair_start(pole, off, mu) -> np.ndarray:
    """Pairs P + i rho / mu_k of the roots pole + off, whose first half is homed
    at +i mu_k and second at -i mu_k."""
    m = mu.size
    roots = pole + off
    nearest = np.empty(2 * m, dtype=int)
    for rows in blocks(2 * m, 2 * m):
        gaps = np.abs(roots[rows].conj()[:, None] - roots[None, :])
        np.fill_diagonal(gaps[:, rows], np.inf)  # not the root itself
        nearest[rows] = gaps.argmin(axis=1)
    up, down = off[:m].copy(), off[m:].copy()
    loose = np.flatnonzero((nearest[:m] != np.arange(m, 2 * m)) | (nearest[m:] != np.arange(m)))
    if loose.size:
        # largest imaginary part first, with the root nearest its conjugate
        left = np.concatenate([loose, m + loose]).tolist()
        for k in loose:
            z = roots[left]
            i = int(np.argmax(z.imag))
            gaps = np.abs(z - z[i].conj())
            gaps[i] = np.inf
            j = int(np.argmin(gaps))
            up[k], down[k] = roots[left[i]] - pole[k], roots[left[j]] - pole[m + k]
            for at in sorted((i, j), reverse=True):
                del left[at]
    total = up + down
    rho = 1j * mu * (up - down) - up * down  # lambda_k - s+ s-
    return total.real + 1j * (rho.real / mu)


def _pair_ratios(p, r, mu):
    """P/D and R/D for D = R^2 + mu^2 P^2, through h = hypot(R, mu P) and never D,
    whose squares under- or overflow for a coupling near the float64 range's floor."""
    inv = 1.0 / np.hypot(r, mu * p)
    return p * inv * inv, r * inv * inv


def _polish_step(i, pairs, lam, mu, q):
    """Newton corrections to the pairs of rows ``i``, held as P + i rho / mu_k.

    With R_j = lambda_j - Q, S_j = lambda_j + Q and D_j = R_j^2 + lambda_j P^2,
    the pair's roots are roots of f when E1 = 2 + sum_j q_j S_j P / D_j and
    E2 = sum_j q_j R_j / D_j vanish. The Jacobian's columns are scaled by |P|,
    which keeps them finite for a coupling near the float64 range's floor."""
    p, rho = pairs.real[i, None], (pairs.imag[i] * mu[i])[:, None]
    r = (lam[None, :] - lam[i, None]) + rho  # from lambda_home - Q = rho, exact at home
    s = lam[None, :] + (lam[i, None] - rho)
    a, c = _pair_ratios(p, r, mu[None, :])  # P/D, R/D
    scale = np.abs(p)
    qa, qc, a_s, c_s = q * a, q * c, a * scale, c * scale
    e1 = 2.0 + (s * qa).sum(axis=1)
    e2 = qc.sum(axis=1)
    j11 = (s * (qc * c_s - lam * (qa * a_s))).sum(axis=1)
    j12 = -(qa * (scale + 2.0 * s * c_s)).sum(axis=1)
    j21 = -2.0 * (lam * (qa * c_s)).sum(axis=1)
    j22 = (lam * (qa * a_s) - qc * c_s).sum(axis=1)
    det = j11 * j22 - j12 * j21
    scale = scale[:, 0]
    d_total = scale * (e1 * j22 - e2 * j12) / det
    d_rho = scale * (j11 * e2 - j21 * e1) / det
    return d_total + 1j * (d_rho / mu[i])


def _closed_loop_roots(b) -> np.ndarray:
    """All 2N eigenvalues of the closed loop with coupling ``b``: the roots of
    the pairs of :func:`_closed_loop_pairs`, by :func:`_pair_roots`."""
    return _pair_roots(*_closed_loop_pairs(b))


def _pair_roots(total: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The roots of the pairs s^2 - P s + Q, Q = lambda_k - rho: pair k's at k
    and N + k. A complex pair is P/2 +- i omega, so a deflated mode's roots
    are exactly +-i mu_k. A real pair (delta^2 = P^2/4 - Q >= 0) has the
    slower root first, formed as Q / (the faster one), without the
    cancellation of P/2 + delta."""
    quad, m = eigenvalues(total.size) - rho, total / 2.0
    width2 = quad - m * m  # omega^2 of a complex pair, -delta^2 of a real one
    over = width2 <= 0.0
    omega = np.sqrt(np.where(over, 0.0, width2))
    up, down = m + 1j * omega, m - 1j * omega
    fast = m[over] - np.sqrt(-width2[over])
    up[over], down[over] = quad[over] / fast, fast
    return np.concatenate([up, down])


def separation_certificate(kmax: int) -> float:
    """Largest eps such that no wave package centred in [-H, H] holds two modes.

    Here H = mu_kmax + 1. A package of center s and width eps/(|s|+1) holds two
    modes exactly when eps > d2(s) (|s|+1), d2(s) the second-smallest distance
    from s to the signed frequencies. Over consecutive frequencies with gap g_i
    and midpoint m_i, d2(s) = min_i (g_i/2 + |s - m_i|), and each term times
    (|s|+1) is monotone or concave between 0, m_i and +-H, so least at one of
    them. The product is even: its infimum on [-H, H] is its minimum over 0,
    the midpoints up to H and H. A finite-range surrogate for the existential
    gap constant, it claims nothing beyond [-H, H].
    """
    _check_count(kmax, "kmax")
    hi_s = frequency(kmax) + 1.0
    # mu_k^2 > k - 2/e^2 (see _candidate_indices), so the frequencies run past hi_s + 1
    mu_pos = frequencies(math.ceil((hi_s + 1.0) ** 2) + 1)
    mu_ext = np.concatenate([-mu_pos[::-1], mu_pos])
    mid = 0.5 * (mu_pos[:-1] + mu_pos[1:])
    s = np.concatenate([[0.0], mid[mid <= hi_s], [hi_s]])
    # the two nearest frequencies are among the four around the insertion point
    idx = np.clip(np.searchsorted(mu_ext, s), 2, len(mu_ext) - 2)
    d = np.abs(mu_ext[idx[:, None] + np.array([-2, -1, 0, 1])] - s[:, None])
    d.sort(axis=1)
    return float(np.min(d[:, 1] * (s + 1.0)))
