"""Explicit series for the harmonic-extension maps on the rectangle (0, pi) x (-1, 0).

Two boundary-value solvers are evaluated through their separated-variable
series: the top-data harmonic extension (Dirichlet data on the surface,
homogeneous Neumann conditions elsewhere) and the wall-data extension
(Neumann data on the left wall, zero Dirichlet data on the surface). From
these come the wall trace of the top extension, the top normal-derivative
trace of the wall extension, the Hilbert-inequality bound behind its
boundedness proof as an exact Hilbert-matrix form, and the reconstruction
of the fluid field from a surface state and an input value.

Basis conventions:

    phi_k(x) = sqrt(2/pi) cos(kx)                     on [0, pi]
    psi_k(y) = sqrt(2) cos[(2k-1)(pi/2)(y+1)]         on [-1, 0]
             = sqrt(2) (-1)^k sin[(2k-1)(pi/2) y]

The sine form of psi_k is used for evaluation so that the wall extension
vanishes identically (not just to roundoff) on the top boundary.
"""

import math

import numpy as np

from ._blocks import blocks
from ._hyper import cosh_over_cosh, cosh_ratio_side, exp_left_over_sinh, sinh_ratio_side
from ._record import Record
from ._table import write_table
from .spectral import _check_count, _real_array

__all__ = [
    "FieldGrid",
    "dirichlet_field",
    "wall_trace",
    "neumann_field",
    "neumann_wall_residual",
    "neumann_to_neumann",
    "hilbert_bound_ratio",
    "harmonicity_residual",
    "side_projection",
    "reconstruct_field",
]

DEFAULT_SIDE_MODES = 64


class FieldGrid(Record):
    """Field samples on the uniform grid x_i = i pi/nx, y_j = -1 + j/ny.

    ``values[i, j]`` holds the field at (x_i, y_j); the top boundary is the
    last column.
    """

    __slots__ = ("nx", "ny", "values")

    def __init__(self, nx: int, ny: int, values: np.ndarray):
        _check_count(nx, "nx")
        _check_count(ny, "ny")
        self.nx, self.ny = nx, ny
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (self.nx + 1, self.ny + 1):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.nx + 1}, {self.ny + 1})"
            )

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, np.pi, self.nx + 1)

    @property
    def y(self) -> np.ndarray:
        return np.linspace(-1.0, 0.0, self.ny + 1)

    @property
    def top(self) -> np.ndarray:
        """Values along the free surface y = 0."""
        return self.values[:, -1]

    def to_csv(self, path=None) -> None:
        """Write rows ``x,y,value`` (17 significant digits, row-major).

        Writes to standard output when ``path`` is empty or None.
        """
        columns = [np.repeat(self.x, self.ny + 1), np.tile(self.y, self.nx + 1), self.values.ravel()]
        write_table(path, ["x", "y", "value"], columns)


def _grid_axes(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae x_i = i pi/nx and depths y_j = -1 + j/ny, after checking both counts."""
    _check_count(nx, "nx")
    _check_count(ny, "ny")
    return np.linspace(0.0, np.pi, nx + 1), np.linspace(-1.0, 0.0, ny + 1)


def _as_coefficients(c, name: str) -> np.ndarray:
    c = np.atleast_1d(_real_array(c, name))
    if c.ndim != 1:
        raise ValueError("coefficient vectors must be 1-D")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficient vector contains non-finite entries")
    return c


def _wall_rate(k):
    # a_k = (2k-1) pi/2, the rate of the k-th wall mode
    return (2 * k - 1) * 0.5 * np.pi


def _psi_factor(k, y) -> np.ndarray:
    # psi_k(y)/sqrt(2); the sine form is exactly zero at y = 0
    return (-1.0) ** k * np.sin(_wall_rate(k) * np.asarray(y, dtype=float))


def _modes(c, ndim: int = 1) -> np.ndarray:
    """Mode indices 1..len(c) on a leading axis that broadcasts against ``ndim``-D points."""
    return np.arange(1, c.size + 1).reshape((-1,) + (1,) * ndim)


def dirichlet_field(eta, nx: int, ny: int) -> FieldGrid:
    """Harmonic extension of top data with coefficients ``eta`` against phi_k.

    The truncated series sum_k (eta_k / cosh k) phi_k(x) cosh[k(y+1)] is
    evaluated on the grid; its top row reproduces the surface data exactly
    because every mode ratio equals one at y = 0.
    """
    eta = _as_coefficients(eta, "eta")
    x, y = _grid_axes(nx, ny)
    k = _modes(eta)
    weighted = (eta * math.sqrt(2.0 / math.pi))[:, None] * np.cos(k * x)
    return FieldGrid(nx=nx, ny=ny, values=weighted.T @ cosh_over_cosh(k, y))


def wall_trace(eta, y) -> np.ndarray:
    """Trace of the top extension on the left wall x = 0.

    Returns sum_k sqrt(2/pi) eta_k cosh[k(y+1)] / cosh(k) at the given depths.
    """
    eta = _as_coefficients(eta, "eta")
    y = np.asarray(y, dtype=float)
    kernel = cosh_over_cosh(_modes(eta, y.ndim), y)
    return np.tensordot(eta * math.sqrt(2.0 / math.pi), kernel, axes=1)


def neumann_field(v, nx: int, ny: int) -> FieldGrid:
    """Harmonic extension of left-wall Neumann data with coefficients ``v`` against psi_k.

    Each mode contributes
        (2 sqrt(2) v_k / ((2k-1) pi)) * cosh[a_k(x - pi)]/sinh(a_k pi) * psi_k(y)/sqrt(2)
    with a_k = (2k-1) pi/2. The x-ratio is evaluated in shifted exponentials
    for large a_k; the y-factor vanishes identically on the top boundary.
    """
    v = _as_coefficients(v, "v")
    x, y = _grid_axes(nx, ny)
    k = _modes(v)
    a = _wall_rate(k)
    g = 2.0 * math.sqrt(2.0) * v[:, None] / ((2 * k - 1) * np.pi)
    values = (g * cosh_ratio_side(a, x)).T @ _psi_factor(k, y)
    return FieldGrid(nx=nx, ny=ny, values=values)


def neumann_wall_residual(v, y) -> float:
    """Residual of the wall boundary condition of the Neumann extension.

    The x-derivative of the extension at x = 0 is evaluated through the
    term-wise differentiated series and compared against -v(y) reconstructed
    in the same basis; the result is max_y of the absolute mismatch, which
    the per-mode identity keeps at roundoff level.
    """
    v = _as_coefficients(v, "v")
    y = np.asarray(y, dtype=float)
    if not y.size:
        return 0.0
    k = _modes(v, 0)
    a = _wall_rate(k)
    g = 2.0 * math.sqrt(2.0) * v / ((2 * k - 1) * np.pi)
    dx_factor = g * a * sinh_ratio_side(a, 0.0)
    psi = _psi_factor(_modes(v, y.ndim), y)
    deriv = np.tensordot(dx_factor, psi, axes=1)
    vy = np.tensordot(v * math.sqrt(2.0), psi, axes=1)
    return float(np.max(np.abs(deriv + vy)))


def neumann_to_neumann(v, x) -> np.ndarray:
    """Top normal-derivative trace of the wall extension at the points ``x``.

    Returns sum_k (-1)^k sqrt(2) v_k cosh[a_k(x - pi)] / sinh(a_k pi); this is
    how wall forcing with shape coefficients v excites the surface.
    """
    v = _as_coefficients(v, "v")
    x = np.asarray(x, dtype=float)
    k = _modes(v, x.ndim)
    signed = (-1.0) ** _modes(v, 0) * math.sqrt(2.0) * v
    return np.tensordot(signed, cosh_ratio_side(_wall_rate(k), x), axes=1)


def hilbert_bound_ratio(v) -> float:
    """The Hilbert-inequality bound on the growing half series, evaluated exactly.

    The top trace splits into a decaying and a growing exponential family;
    the growing one,

        g(x) = sum_k (-1)^k sqrt(2) v_k e^{a_k (pi - x)} / sinh(a_k pi) = sum_k c_k e^{-a_k x},

    satisfies integral_0^inf |g|^2 <= 10 sum |v_k|^2 by Hilbert's inequality.
    As a_j + a_k = (j+k-1) pi, the [0, pi] integral is the Hilbert-matrix form
    sum_jk c_j c_k (1 - e^{-(j+k-1) pi^2}) / ((j+k-1) pi), formed a block of rows
    at a time. Returns its ratio to the squared coefficient norm, ``v`` scaled
    by max|v_k| first so that every scale gives it; the contract is ratio <= 10.
    """
    v = _as_coefficients(v, "v")
    top = float(np.max(np.abs(v), initial=0.0))
    if top == 0.0:
        raise ValueError("ratio undefined for the zero coefficient vector")
    v = v / top
    k = _modes(v, 0)
    c = (-1.0) ** k * math.sqrt(2.0) * v * exp_left_over_sinh(_wall_rate(k), 0.0)
    total = 0.0
    for rows in blocks(k.size, k.size):
        n = (k[rows, None] + k - 1) * np.pi
        total += float(c[rows] @ (-np.expm1(-n * np.pi) / n @ c))
    return total / float(np.dot(v, v))


def harmonicity_residual(grid: FieldGrid) -> float:
    """Max absolute 5-point finite-difference Laplacian over interior nodes.

    For the truncated extension series, the analytic Laplacian vanishes, so
    this measures pure second-order finite-difference truncation error.
    """
    if grid.nx < 4 or grid.ny < 4:
        raise ValueError("harmonicity check needs nx >= 4 and ny >= 4")
    f = grid.values
    dx = np.pi / grid.nx
    dy = 1.0 / grid.ny
    lap = (f[2:, 1:-1] - 2.0 * f[1:-1, 1:-1] + f[:-2, 1:-1]) / dx**2
    lap += (f[1:-1, 2:] - 2.0 * f[1:-1, 1:-1] + f[1:-1, :-2]) / dy**2
    return float(np.max(np.abs(lap)))


def side_projection(h, n_modes: int = DEFAULT_SIDE_MODES) -> np.ndarray:
    """Coefficients integral h(y) psi_k(y) dy of the profile h against the
    wall basis, k = 1..n_modes (n_modes >= 1).

    ``h`` is a :class:`~wavetank.profiles.WavemakerProfile`; each coefficient
    is sqrt(2) (-1)^k times its closed-form moment integral h(y) sin(a_k y) dy,
    exact to rounding for any number of modes.
    """
    _check_count(n_modes, "side-mode count")
    k = np.arange(1, n_modes + 1)
    return math.sqrt(2.0) * (-1.0) ** k * h._wall(_wall_rate(k))


def reconstruct_field(
    zeta,
    u_now: float,
    h,
    nx: int,
    ny: int,
    n_side_modes: int = DEFAULT_SIDE_MODES,
) -> FieldGrid:
    """Fluid field -(D zeta) + u_now (N h) induced by a surface state and input value.

    ``zeta`` holds the surface coefficients against phi_k; ``h`` is the
    wavemaker profile, projected onto ``n_side_modes`` wall modes before
    extension (projected, and the count checked, also where ``u_now`` is 0).
    Raises ValueError unless ``u_now`` is finite.
    """
    if not math.isfinite(u_now):
        raise ValueError(f"u_now must be finite, got {u_now}")
    wall = side_projection(h, n_side_modes)
    values = -dirichlet_field(zeta, nx, ny).values
    if u_now != 0.0:
        values += u_now * neumann_field(wall, nx, ny).values
    return FieldGrid(nx=nx, ny=ny, values=values)
