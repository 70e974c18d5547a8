"""Wavemaker acceleration profiles and the stabilizability criteria they induce.

A profile h on [-1, 0] shapes the horizontal acceleration imposed at the
left wall; it must have zero mean so the water volume is conserved. Every
profile the module builds is the piecewise-linear interpolant of knots
(y_j, h_j) plus c cos(pi y/2 + 3 pi/4), and every integral of it against a
modal kernel is taken in closed form, piece by piece: the strategic
integrals

    I_k = integral_{-1}^{0} h(y) cosh[k(y+1)] dy,

kept as I_k / cosh k, and the wall moments integral h(y) sin(a y) dy behind
:func:`wavetank.boundary.side_projection`. The module decides the three
controllability criteria (strategic: I_k never vanishes; uniform margin
inf_k (k/cosh k)|I_k| > 0; and the sufficient derivative bound on h), and
emits the coupling coefficients through which the scalar input drives each
surface mode.

All verdicts are finite-range certificates: they check k up to a caller
chosen kmax and report the tail behaviour, claiming nothing about the
infinitely many remaining indices. No tolerance decides them: s h driven by
u/s is the same actuator as h driven by u, so every criterion takes I_k as 0
within its pieces' rounding bound; the mean is weighed against integral |h|.
"""

import math
from typing import NamedTuple

import numpy as np

from ._blocks import blocks
from ._hyper import cosh_over_cosh, exp_integral, sinh_over_cosh
from ._table import read_table
from .spectral import _check_count, _edge_points, _finite_array, _number, _real_array

__all__ = [
    "WavemakerProfile",
    "StrategicVerdict",
    "UssdMargins",
    "ScVerdict",
    "strategic_integral_scaled",
    "strategic_check",
    "ussd_margin",
    "sc_check",
    "coupling_vector",
]

MEAN_TOLERANCE = 1e-10  # of integral |h|: the mean a tabulated profile may keep

# sufficient-condition constant tanh(1) / (1 - 2/e)
SC_CONSTANT = math.tanh(1.0) / (1.0 - 2.0 / math.e)

# the cosine piece cos(OMEGA y + PHASE) of a profile, h2 itself
OMEGA, PHASE = 0.5 * math.pi, 0.75 * math.pi

_WALL = (-1.0, 0.0, "wall x = 0, at depths y in [-1, 0]")  # the depths where h is defined, and their name


class WavemakerProfile:
    """Control profile h on [-1, 0]: the piecewise-linear interpolant of
    knots (y_j, h_j) plus c cos(pi y/2 + 3 pi/4), integrated in closed form.

    Use the constructors :meth:`linear`, :meth:`cosine`, :meth:`nonstrategic`,
    :meth:`from_samples` or :meth:`from_csv` rather than ``__init__``.

    Attributes
    ----------
    kind : str
        One of ``builtin-linear``, ``builtin-cosine``, ``builtin-nonstrategic``,
        ``tabulated``.
    derivative_sup : float
        Supremum of |h'|, |s_j - c OMEGA sin(OMEGA y + PHASE)| on panel j:
        convex in the sine, which peaks at 1 at y = -1/2, so it lies at a
        panel end or at sine 1 on the panel that holds -1/2.
    value_at_zero : float
        h(0), the profile value at the still-water line.
    """

    def __init__(self, kind, knots, values, c):
        self.kind = kind
        self._knots = y = np.asarray(knots, dtype=float)
        self._values = np.asarray(values, dtype=float)
        self._slopes = np.diff(self._values) / np.diff(self._knots)
        self._c = float(c)
        sin_t = np.sin(OMEGA * y + PHASE)
        peak = np.where((y[:-1] <= -0.5) & (y[1:] >= -0.5), 1.0, sin_t[1:])
        sines = np.stack([sin_t[:-1], sin_t[1:], peak])
        self.derivative_sup = float(np.max(np.abs(self._slopes - self._c * OMEGA * sines)))
        self.value_at_zero = float(self._values[-1] + self._c * math.cos(PHASE))

    # -- constructors ----------------------------------------------------

    @classmethod
    def linear(cls) -> "WavemakerProfile":
        """Built-in linear profile h(y) = y + 1/2."""
        return cls("builtin-linear", (-1.0, 0.0), (-0.5, 0.5), 0.0)

    @classmethod
    def cosine(cls) -> "WavemakerProfile":
        """Built-in trigonometric profile h(y) = cos[(pi/2)(y + 3/2)]."""
        return cls("builtin-cosine", (-1.0, 0.0), (0.0, 0.0), 1.0)

    @classmethod
    def nonstrategic(cls) -> "WavemakerProfile":
        """Built-in profile with a vanishing first strategic integral.

        Constructed as cosine - r * linear with r chosen so I_1 cancels;
        it falsifies the strategic condition at k = 1 while keeping zero
        mean, which decouples the first surface mode from the input.
        """
        h1 = cls.linear()
        r = strategic_integral_scaled(cls.cosine(), 1) / strategic_integral_scaled(h1, 1)
        return cls("builtin-nonstrategic", h1._knots, -r * h1._values, 1.0)

    @classmethod
    def from_samples(cls, y, h) -> "WavemakerProfile":
        """Tabulated profile, interpolated piecewise-linearly between samples.

        The grid must be strictly ascending and span [-1, 0] to within 1e-12
        at each end; the interpolant is integrated exactly over the grid's
        own span, and its integral must vanish to within ``MEAN_TOLERANCE``
        times that of |h|. ``derivative_sup``, the largest slope of the
        interpolant, speaks for the samples only as far as it does.
        """
        y, h = _finite_array(y, "y"), _finite_array(h, "h")
        if y.shape != h.shape or y.size < 2:
            raise ValueError("tabulated profile needs matching 1-D arrays with >= 2 samples")
        if np.any(np.diff(y) <= 0):
            raise ValueError("tabulated profile grid must be strictly ascending")
        if abs(y[0] + 1.0) > 1e-12 or abs(y[-1]) > 1e-12:
            raise ValueError("tabulated profile must span exactly [-1, 0]")
        profile = cls("tabulated", y, h, 0.0)
        resid, size = profile.mean_residual(), float(np.sum(0.5 * (np.abs(h[1:]) + np.abs(h[:-1])) * np.diff(y)))
        if not abs(resid) <= MEAN_TOLERANCE * size:  # the zero profile loads
            raise ValueError(
                f"profile violates volume conservation: mean residual "
                f"{resid:.3e} exceeds {MEAN_TOLERANCE:.1e} of integral |h| = {size:.3e}"
            )
        return profile

    @classmethod
    def from_csv(cls, path) -> "WavemakerProfile":
        """Read a tabulated profile from a CSV file with header ``y,h``."""
        _, data = read_table(path, "profile", ("y", "h"))
        return cls.from_samples(data[:, 0], data[:, 1])

    @classmethod
    def builtin(cls, name: str) -> "WavemakerProfile":
        """Look up a built-in profile by its short name (see ``BUILTIN_PROFILES``)."""
        if name not in BUILTIN_PROFILES:
            raise ValueError(
                f"unknown builtin profile {name!r}; expected one of {sorted(BUILTIN_PROFILES)}"
            )
        return BUILTIN_PROFILES[name]()

    # -- evaluation and the closed-form integrals -------------------------

    def __call__(self, y):
        y = _edge_points(y, "y", *_WALL)
        return np.interp(y, self._knots, self._values) + self._c * np.cos(OMEGA * y + PHASE)

    def mean_residual(self) -> float:
        """Integral of h, zero for a volume-conserving profile: the trapezoid
        sum of the interpolant (the cosine piece integrates to 0 over [-1, 0])."""
        return float(np.sum(0.5 * (self._values[1:] + self._values[:-1]) * np.diff(self._knots)))

    def _rows(self, row, params: np.ndarray) -> np.ndarray:
        """The columns ``row`` forms for each parameter, for a column of
        parameters a block at a time (:mod:`wavetank._blocks`) against a row
        of knots. Every row is summed along the knots on its own, element-wise,
        so a parameter's values do not depend on the block, or the range, they
        are formed in."""
        return np.vstack([row(params[rows, None]) for rows in blocks(params.size, self._knots.size)])

    def _strategic(self, last: int, first: int = 1) -> np.ndarray:
        """Row 0: I_k / cosh(k) for k = first..last; row 1: P_k, the sum of the
        magnitudes of the pieces it is summed from.

        With S = sinh[k(y+1)]/cosh k and C = cosh[k(y+1)]/cosh k, a panel of
        slope s integrates to [h S/k] - s [C]/k^2; the first bracket
        telescopes to the two ends. The cosine piece, theta = OMEGA y + PHASE,
        has the antiderivative (k cos(theta) S + OMEGA sin(theta) C) / (k^2 +
        OMEGA^2), the exponential antiderivative of cos(theta) e^{+-k(y+1)}
        written in shifted exponentials. A panel counts |s| (C_j + C_{j+1}) /
        k^2 in P_k: the sum, not the difference, bounds the rounding of [C].
        """
        ends, h_ends = self._knots[[0, -1]], self._values[[0, -1]]
        cos_t, sin_t = np.cos(OMEGA * ends + PHASE), np.sin(OMEGA * ends + PHASE)

        def row(k):
            c = cosh_over_cosh(k, self._knots)
            s = sinh_over_cosh(k, ends)
            cos_term, sin_term, denom = k * cos_t * s, OMEGA * sin_t * c[:, [0, -1]], k * k + OMEGA**2
            prim = h_ends * s / k + self._c * ((cos_term + sin_term) / denom)
            sizes = np.abs(h_ends * s) / k + abs(self._c) * ((np.abs(cos_term) + np.abs(sin_term)) / denom)
            panels = np.sum(self._slopes * np.diff(c, axis=1), axis=1, keepdims=True)
            panel_sizes = np.sum(np.abs(self._slopes) * (c[:, 1:] + c[:, :-1]), axis=1, keepdims=True)
            telescoped = np.hstack([prim[:, 1:] - prim[:, :1], np.sum(sizes, axis=1, keepdims=True)])
            return telescoped + np.hstack([-panels, panel_sizes]) / (k * k)

        return self._rows(row, np.arange(first, last + 1, dtype=float)).T

    def _certified(self, last: int, first: int = 1) -> np.ndarray:
        """I_k / cosh(k) for k = first..last, exactly 0.0 where it is at most
        (n + 4) eps P_k, n the knot count: adding the n + 3 pieces of
        :meth:`_strategic` rounds n + 2 times, and two ulps cover their own
        rounding [against mpmath the whole error is at most 1.83 eps P_k].
        Both sides scale with h."""
        scaled, pieces = self._strategic(last, first)
        return np.where(np.abs(scaled) <= (self._knots.size + 4) * np.finfo(float).eps * pieces, 0.0, scaled)

    def _wall(self, rates) -> np.ndarray:
        """integral h(y) sin(a y) dy for every positive rate a in ``rates``.

        A panel of slope s integrates to [-h cos(a y)/a] + s [sin(a y)]/a^2;
        the first bracket telescopes to the two ends. The cosine piece is,
        by product to sum, half the integrals of sin((a + OMEGA) y + PHASE)
        and sin((a - OMEGA) y - PHASE). The second frequency is 0 where a is
        OMEGA, the first wall mode's rate pi/2; its integral is then the
        width times sin(-PHASE), formed with no 0/0.
        """
        ends, h_ends = self._knots[[0, -1]], self._values[[0, -1]]
        lo, hi = ends

        def row(a):
            prim = -h_ends * np.cos(a * ends) / a
            panels = np.sum(self._slopes * np.diff(np.sin(a * self._knots), axis=1), axis=1, keepdims=True)
            cosine = exp_integral(a + OMEGA, PHASE, lo, hi).imag + exp_integral(a - OMEGA, -PHASE, lo, hi).imag
            return prim[:, 1:] - prim[:, :1] + panels / (a * a) + 0.5 * self._c * cosine

        return self._rows(row, np.asarray(rates, dtype=float))[:, 0]


# short name -> constructor of each built-in profile
BUILTIN_PROFILES = {
    "h1": WavemakerProfile.linear,
    "linear": WavemakerProfile.linear,
    "h2": WavemakerProfile.cosine,
    "cosine": WavemakerProfile.cosine,
    "nonstrategic": WavemakerProfile.nonstrategic,
}


def _profile(h) -> WavemakerProfile:
    """``h`` itself; ValueError unless it is a profile (a coupling array is not),
    for the criteria that read the profile and not only its coupling."""
    if not isinstance(h, WavemakerProfile):
        raise ValueError(f"h must be a WavemakerProfile, got {type(h).__name__}")
    return h


def strategic_integral_scaled(h: WavemakerProfile, k: int) -> float:
    """I_k / cosh(k): the strategic integral with the hyperbolic growth removed.

    The integrand h(y) cosh[k(y+1)] / cosh(k) is O(1), so the value stays
    representable for every k; all criteria below consume this form, 0.0
    where it is within the rounding bound of its pieces.
    """
    _check_count(k, "mode index")
    return float(_profile(h)._certified(k, k)[0])


class StrategicVerdict(NamedTuple):
    """Finite-range strategic certificate: which k <= kmax have I_k = 0."""

    strategic: bool
    fails_at: tuple[int, ...]
    kmax: int

    @property
    def verdict(self) -> str:
        return "strategic-on-range" if self.strategic else "fails-at"


def strategic_check(h: WavemakerProfile, kmax: int) -> StrategicVerdict:
    """Flag every k <= kmax where I_k / cosh k is within the rounding bound of
    its pieces, so s h gets the verdict of h: a finite-range certificate only,
    as the strategic condition quantifies over all positive integers."""
    _check_count(kmax, "kmax")
    fails = tuple((np.flatnonzero(_profile(h)._certified(kmax) == 0.0) + 1).tolist())
    return StrategicVerdict(strategic=not fails, fails_at=fails, kmax=kmax)


class UssdMargins(NamedTuple):
    """Margins m_k = (k/cosh k)|I_k| whose positive infimum certifies uniform
    decay. It holds an array, so it compares by identity, as the package's
    other records that hold arrays do."""

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    margins: np.ndarray
    min_margin: float
    argmin: int
    tail: float
    kmax: int
    note: str = (
        "finite-range margins; the k -> inf limit (the boundary term |h(0)|) "
        "is reported via the tail value but not certified"
    )


def ussd_margin(h: WavemakerProfile, kmax: int) -> UssdMargins:
    """All margins m_k for k <= kmax, their minimum, and the tail value m_kmax;
    m_k is 0 wherever :func:`strategic_check` fails."""
    _check_count(kmax, "kmax")
    margins = np.arange(1, kmax + 1) * np.abs(_profile(h)._certified(kmax))
    imin = int(np.argmin(margins))
    return UssdMargins(margins=margins, min_margin=float(margins[imin]), argmin=imin + 1,
                       tail=float(margins[-1]), kmax=kmax)


class ScVerdict(NamedTuple):
    """Outcome of the sufficient derivative-bound condition."""

    verdict: str  # pass | fail
    derivative_sup: float
    bound: float
    eps: float


def sc_check(h: WavemakerProfile, eps: float) -> ScVerdict:
    """Sufficient condition ||h'||_inf < (1-eps) * tanh(1)/(1-2/e) * |h(0)|.

    Passing implies a positive uniform margin, hence uniform decay for
    smooth initial data; it is easier to check than the margins themselves.
    """
    eps = _number(eps, "eps")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    h = _profile(h)
    bound = (1.0 - eps) * SC_CONSTANT * abs(h.value_at_zero)
    verdict = "pass" if h.derivative_sup < bound else "fail"
    return ScVerdict(verdict=verdict, derivative_sup=h.derivative_sup, bound=bound, eps=eps)


def coupling_vector(h, n_modes: int) -> np.ndarray:
    """Coupling coefficients b_k = -sqrt(2/pi) I_k / cosh(k), k <= n_modes, of a
    profile or a 1-D coupling array ``h``: of a profile, 0 wherever
    :func:`strategic_check` fails; of an array, its first n_modes entries,
    after ``spectral``'s rules and the check that it is that long."""
    _check_count(n_modes, "n_modes")
    if isinstance(h, WavemakerProfile):
        return -math.sqrt(2.0 / math.pi) * h._certified(n_modes)
    b = _finite_array(_real_array(h, "h", "a profile or a 1-D real array"), "h")
    if b.size < n_modes:
        raise ValueError(f"h must hold at least {n_modes} couplings, got {b.size}")
    return b[:n_modes]
