"""Reference values computed apart from wavetank, with numpy and mpmath only.

Nothing here imports the package under test. Each function states the
closed form or exact construction it uses, so a disagreement with the
program points at one of the two computations, never at shared code.
"""

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
SC_CONSTANT = math.tanh(1.0) / (1.0 - 2.0 / math.e)


def dispersion(kmax):
    """lambda_k = k tanh k, mu_k = sqrt(lambda_k) and mu_k (mu_{k+1} - mu_k), at 40 digits."""
    lam = [mp.mpf(k) * mp.tanh(k) for k in range(1, kmax + 2)]
    mu = [mp.sqrt(v) for v in lam]
    gaps = [mu[i] * (mu[i + 1] - mu[i]) for i in range(kmax - 1)]
    as_float = lambda xs: np.array([float(x) for x in xs])
    return as_float(lam[:kmax]), as_float(mu[:kmax]), as_float(gaps)


def scaled_linear(kmax):
    """I_k / cosh k for h(y) = y + 1/2: tanh k / (2k) - (1 - sech k) / k^2."""
    return np.array(
        [float(mp.tanh(k) / (2 * k) - (1 - mp.sech(k)) / mp.mpf(k) ** 2) for k in range(1, kmax + 1)]
    )


def scaled_cosine(kmax):
    """I_k / cosh k for h2(y) = cos(alpha y + beta), alpha = pi/2, beta = 3 pi/4, from the exponential antiderivative.

    With G(s) = integral_{-1}^0 e^{sy} cos(alpha y + beta) dy in closed form,
    I_k = (e^k G(k) + e^{-k} G(-k)) / 2.
    """
    a, b = mp.pi / 2, 3 * mp.pi / 4

    def g(s):
        prim = lambda y: mp.e ** (s * y) * (s * mp.cos(a * y + b) + a * mp.sin(a * y + b)) / (s * s + a * a)
        return prim(0) - prim(-1)

    return np.array(
        [float((mp.e ** k * g(mp.mpf(k)) + mp.e ** (-k) * g(-mp.mpf(k))) / 2 / mp.cosh(k)) for k in range(1, kmax + 1)]
    )


def cosh_ratio(k, y):
    """cosh[k(y+1)] / cosh k for y in [-1, 0], k > 0, as (e^{ky} + e^{-k(y+2)}) / (1 + e^{-2k})."""
    k = np.asarray(k, dtype=float)[:, None]
    return (np.exp(k * y) + np.exp(-k * (y + 2.0))) / (1.0 + np.exp(-2.0 * k))


def scaled_piecewise_linear(y, h, kmax):
    """I_k / cosh k of the piecewise-linear interpolant of (y, h), exactly per panel.

    On a panel with slope s, integral h cosh[k(y+1)] = [h sinh[k(y+1)]/k] - s [cosh[k(y+1)]/k^2];
    the first bracket telescopes over the panels to h(0) tanh(k)/k.
    """
    y, h = np.asarray(y, dtype=float), np.asarray(h, dtype=float)
    k = np.arange(1, kmax + 1, dtype=float)
    slopes = np.diff(h) / np.diff(y)
    c = cosh_ratio(k, y)
    return h[-1] * np.tanh(k) / k - (np.diff(c, axis=1) @ slopes) / k**2


def margins(scaled):
    """Uniform-margin sequence m_k = k |I_k / cosh k|."""
    return np.arange(1, len(scaled) + 1) * np.abs(scaled)


def coupling(scaled):
    """b_k = -sqrt(2/pi) I_k / cosh k."""
    return -SQRT_2_OVER_PI * np.asarray(scaled)


def sc_bound(value_at_zero, eps):
    """Right-hand side of the sufficient condition, (1 - eps) tanh(1)/(1 - 2/e) |h(0)|."""
    return (1.0 - eps) * SC_CONSTANT * abs(value_at_zero)


def closed_loop_matrix(b):
    """Dense first-order generator [[0, I], [-diag(lambda), -b b^T]]."""
    n = len(b)
    lam = np.arange(1, n + 1) * np.tanh(np.arange(1, n + 1))
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    a[n:, :n] = -np.diag(lam)
    a[n:, n:] = -np.outer(b, b)
    return a


def abscissa(b):
    """Largest real part of the closed-loop spectrum, and the first-order value -min_k b_k^2/2."""
    vals = np.linalg.eigvals(closed_loop_matrix(b))
    return float(vals.real.max()), -float(np.min(np.asarray(b) ** 2)) / 2.0


def energy_norm(zeta, w):
    """sqrt(sum lambda_k zeta_k^2 + sum w_k^2) along the last axis."""
    n = np.shape(zeta)[-1]
    lam = np.arange(1, n + 1) * np.tanh(np.arange(1, n + 1))
    return np.sqrt(np.sum(lam * np.square(zeta), axis=-1) + np.sum(np.square(w), axis=-1))


class ClosedLoop:
    """Exact solution z(t) = V e^{Lambda t} V^{-1} z0 of the truncated closed loop."""

    def __init__(self, b, zeta0, w0):
        self.n = len(b)
        vals, vecs = np.linalg.eig(closed_loop_matrix(b))
        self.vals, self.vecs = vals, vecs
        self.coef = np.linalg.solve(vecs, np.concatenate([zeta0, w0]))

    def states(self, t):
        """Modal states at times t, as (zeta, w) arrays of shape (len(t), n)."""
        z = (self.vecs @ (np.exp(np.outer(self.vals, t)) * self.coef[:, None])).real.T
        return z[:, : self.n], z[:, self.n :]

    def norms(self, t):
        return energy_norm(*self.states(t))


def open_loop_states(b, zeta0, w0, amplitude, omega, phase, t_switch, t):
    """Exact forced response to u = A cos(omega s + phase) on [0, t_switch), then u = 0.

    Per mode, zeta'' = -mu^2 zeta + b u has the Duhamel solution with
    E(t) = integral_0^tau e^{i mu (t - s)} u(s) ds, tau = min(t, t_switch), and
    integral_0^tau e^{i d s} ds = tau e^{i d tau/2} sinc(d tau / 2); the
    resonant case d = 0 needs no special branch.
    """
    n = len(b)
    mu = np.sqrt(np.arange(1, n + 1) * np.tanh(np.arange(1, n + 1)))[None, :]
    t = np.asarray(t, dtype=float)[:, None]
    tau = np.minimum(t, t_switch)

    def phi(d):
        return tau * np.exp(0.5j * d * tau) * np.sinc(d * tau / (2.0 * np.pi))

    e = np.exp(1j * mu * t) * 0.5 * amplitude * (
        np.exp(1j * phase) * phi(omega - mu) + np.exp(-1j * phase) * phi(-omega - mu)
    )
    zeta = zeta0 * np.cos(mu * t) + (w0 / mu) * np.sin(mu * t) + (b / mu) * e.imag
    w = -mu * zeta0 * np.sin(mu * t) + w0 * np.cos(mu * t) + b * e.real
    return zeta, w


def side_coefficients_linear(n_side):
    """Coefficients of h(y) = y + 1/2 against sqrt(2) (-1)^k sin(a_k y), a_k = (2k-1) pi/2."""
    k = np.arange(1, n_side + 1)
    a = (2 * k - 1) * 0.5 * np.pi
    prim = lambda y: -y * np.cos(a * y) / a + np.sin(a * y) / a**2 - np.cos(a * y) / (2 * a)
    return math.sqrt(2.0) * (-1.0) ** k * (prim(0.0) - prim(-1.0))


def field_linear(zeta, u_now, nx, ny, n_side):
    """Fluid field on the grid for the linear profile, from the two separated series.

    Surface part: -sum_k zeta_k sqrt(2/pi) cos(k x) cosh[k(y+1)]/cosh k.
    Wall part: u sum_k g_k cosh[a_k(x - pi)]/sinh(a_k pi) (-1)^k sin(a_k y),
    g_k = 2 sqrt(2) v_k / ((2k-1) pi), with the x-ratio written as
    (e^{a(x - 2 pi)} + e^{-a x}) / (1 - e^{-2 a pi}).
    """
    x = np.pi * np.arange(nx + 1) / nx
    y = -1.0 + np.arange(ny + 1) / ny
    k = np.arange(1, len(zeta) + 1)
    top = np.cos(np.outer(x, k)) * (SQRT_2_OVER_PI * np.asarray(zeta))
    values = -(top @ cosh_ratio(k, y))
    v = side_coefficients_linear(n_side)
    j = np.arange(1, n_side + 1)
    a = (2 * j - 1) * 0.5 * np.pi
    g = 2.0 * math.sqrt(2.0) * v / ((2 * j - 1) * np.pi)
    xr = (np.exp(np.outer(x - 2.0 * np.pi, a)) + np.exp(-np.outer(x, a))) / (-np.expm1(-2.0 * a * np.pi))
    yr = (-1.0) ** j[:, None] * np.sin(np.outer(a, y))
    values += u_now * ((xr * g) @ yr)
    return x, y, values


def surface_row(zeta, nx):
    """Field on y = 0: the cosine series -sum_k zeta_k sqrt(2/pi) cos(k x_i)."""
    x = np.pi * np.arange(nx + 1) / nx
    return -(np.cos(np.outer(x, np.arange(1, len(zeta) + 1))) @ (SQRT_2_OVER_PI * np.asarray(zeta)))


def decay_fit(t, x, window, model):
    """Least-squares line through log x against t or log(1+t); (fitted value, residual rms)."""
    t, x = np.asarray(t), np.asarray(x)
    mask = (t >= window[0]) & (t <= window[1])
    abscissa = t[mask] if model == "exponential" else np.log1p(t[mask])
    design = np.column_stack([abscissa, np.ones_like(abscissa)])
    logx = np.log(x[mask])
    (slope, icpt), *_ = np.linalg.lstsq(design, logx, rcond=None)
    resid = logx - (slope * abscissa + icpt)
    value = -slope if model == "exponential" else slope
    return float(value), float(np.sqrt(np.mean(resid**2)))
