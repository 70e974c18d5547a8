"""Wavemaker acceleration profiles and the stabilizability criteria they induce.

A profile h on [-1, 0] shapes the horizontal acceleration imposed at the
left wall; it must have zero mean so the water volume is conserved. The
module evaluates the strategic integrals

    I_k = integral_{-1}^{0} h(y) cosh[k(y+1)] dy,

decides the three controllability criteria (strategic: I_k never vanishes;
uniform margin inf_k (k/cosh k)|I_k| > 0; and the sufficient derivative
bound on h), and emits the coupling coefficients through which the scalar
input drives each surface mode.

All verdicts are finite-range certificates: they check k up to a caller
chosen kmax and report the tail behaviour, claiming nothing about the
infinitely many remaining indices.
"""

import math
from typing import NamedTuple

import numpy as np

from ._blocks import blocks
from ._gauss import panel_rule
from ._hyper import cosh_over_cosh
from ._record import Frozen
from ._table import read_table
from .spectral import _check_count

__all__ = [
    "WavemakerProfile",
    "CouplingVector",
    "StrategicVerdict",
    "UssdMargins",
    "ScVerdict",
    "strategic_integral_scaled",
    "strategic_check",
    "ussd_margin",
    "sc_check",
    "coupling_vector",
]

MEAN_TOLERANCE = 1e-10
STRATEGIC_ATOL = 1e-11  # on I_k / cosh(k); below quadrature error, above roundoff

# sufficient-condition constant tanh(1) / (1 - 2/e)
SC_CONSTANT = math.tanh(1.0) / (1.0 - 2.0 / math.e)


class WavemakerProfile:
    """Control profile h on [-1, 0] with quadrature access.

    Use the constructors :meth:`linear`, :meth:`cosine`, :meth:`nonstrategic`,
    :meth:`from_samples` or :meth:`from_csv` rather than ``__init__``.

    Attributes
    ----------
    kind : str
        One of ``builtin-linear``, ``builtin-cosine``, ``builtin-nonstrategic``,
        ``tabulated``.
    derivative_sup : float or None
        Supremum of |h'| when known; ``None`` marks it unknown and makes
        the sufficient condition report "unknown".
    value_at_zero : float
        h(0), the profile value at the still-water line.
    """

    def __init__(self, kind, fn, panels, nodes_per_panel, derivative_sup, value_at_zero):
        self.kind = kind
        self._fn = fn
        self.derivative_sup = derivative_sup
        self.value_at_zero = float(value_at_zero)
        # the one rule and the weighted samples w * h(y) every profile integral uses
        self._y, w = panel_rule(panels, nodes_per_panel)
        self._wh = w * fn(self._y)
        self._strategic_memo = None  # ((first, last), read-only I_k / cosh k for those k)

    # -- constructors ----------------------------------------------------

    @classmethod
    def linear(cls) -> "WavemakerProfile":
        """Built-in linear profile h(y) = y + 1/2."""
        return cls(
            kind="builtin-linear",
            fn=lambda y: np.asarray(y, dtype=float) + 0.5,
            panels=[(-1.0, 0.0)],
            nodes_per_panel=128,
            derivative_sup=1.0,
            value_at_zero=0.5,
        )

    @classmethod
    def cosine(cls) -> "WavemakerProfile":
        """Built-in trigonometric profile h(y) = cos[(pi/2)(y + 3/2)]."""
        return cls(
            kind="builtin-cosine",
            fn=lambda y: np.cos(0.5 * np.pi * (np.asarray(y, dtype=float) + 1.5)),
            panels=[(-1.0, 0.0)],
            nodes_per_panel=128,
            derivative_sup=0.5 * math.pi,
            value_at_zero=math.cos(0.75 * math.pi),
        )

    @classmethod
    def nonstrategic(cls) -> "WavemakerProfile":
        """Built-in profile with a vanishing first strategic integral.

        Constructed as cosine - r * linear with r chosen so I_1 cancels;
        it falsifies the strategic condition at k = 1 while keeping zero
        mean, which decouples the first surface mode from the input.
        """
        h1 = cls.linear()
        h2 = cls.cosine()
        r = strategic_integral_scaled(h2, 1) / strategic_integral_scaled(h1, 1)
        # h' = -(pi/2) sin(theta) - r, theta = (pi/2)(y + 3/2), and sin(theta)
        # spans [sqrt(1/2), 1]; |h'| is convex in sin(theta), so its sup is at an end
        dsup = max(abs(0.5 * math.pi * s + r) for s in (math.sqrt(0.5), 1.0))
        return cls(
            kind="builtin-nonstrategic",
            fn=lambda y: h2(y) - r * h1(y),
            panels=[(-1.0, 0.0)],
            nodes_per_panel=128,
            derivative_sup=dsup,
            value_at_zero=h2.value_at_zero - r * h1.value_at_zero,
        )

    @classmethod
    def from_samples(cls, y, h, require_zero_mean: bool = True) -> "WavemakerProfile":
        """Tabulated profile, interpolated piecewise-linearly between samples.

        The grid must be strictly ascending and span exactly [-1, 0].
        Quadrature is composite Gauss-Legendre on the sample panels, so the
        interpolant is integrated essentially exactly; the derivative bound
        is the largest forward difference and is only approximate for the
        purposes of the sufficient condition.
        """
        y = np.asarray(y, dtype=float)
        h = np.asarray(h, dtype=float)
        if y.ndim != 1 or y.shape != h.shape or y.size < 2:
            raise ValueError("tabulated profile needs matching 1-D arrays with >= 2 samples")
        if not np.all(np.isfinite(y)) or not np.all(np.isfinite(h)):
            raise ValueError("tabulated profile contains non-finite entries")
        if np.any(np.diff(y) <= 0):
            raise ValueError("tabulated profile grid must be strictly ascending")
        if abs(y[0] + 1.0) > 1e-12 or abs(y[-1]) > 1e-12:
            raise ValueError("tabulated profile must span exactly [-1, 0]")
        slopes = np.diff(h) / np.diff(y)
        # per-panel node counts scale with width so a coarse grid keeps the
        # builtin-rule accuracy for the hyperbolic integrands
        counts = [max(8, math.ceil(128.0 * (b - a))) for a, b in zip(y[:-1], y[1:])]
        profile = cls(
            kind="tabulated",
            fn=lambda t: np.interp(np.asarray(t, dtype=float), y, h),
            panels=list(zip(y[:-1], y[1:])),
            nodes_per_panel=counts,
            derivative_sup=float(np.max(np.abs(slopes))),
            value_at_zero=float(h[-1]),
        )
        if require_zero_mean:
            resid = profile.mean_residual()
            if abs(resid) > MEAN_TOLERANCE:
                raise ValueError(
                    f"profile violates volume conservation: mean residual "
                    f"{resid:.3e} exceeds {MEAN_TOLERANCE:.1e}"
                )
        return profile

    @classmethod
    def from_csv(cls, path, require_zero_mean: bool = True) -> "WavemakerProfile":
        """Read a tabulated profile from a CSV file with header ``y,h``."""
        _, data = read_table(path, "profile", ("y", "h"))
        return cls.from_samples(data[:, 0], data[:, 1], require_zero_mean=require_zero_mean)

    @classmethod
    def builtin(cls, name: str) -> "WavemakerProfile":
        """Look up a built-in profile by its short name (see ``BUILTIN_PROFILES``)."""
        if name not in BUILTIN_PROFILES:
            raise ValueError(
                f"unknown builtin profile {name!r}; expected one of {sorted(BUILTIN_PROFILES)}"
            )
        return BUILTIN_PROFILES[name]()

    # -- evaluation and quadrature ----------------------------------------

    def __call__(self, y):
        return self._fn(y)

    def mean_residual(self) -> float:
        """Quadrature of the mean integral of h; zero for a volume-conserving profile."""
        return float(np.sum(self._wh))

    def integrals(self, kernel, ks) -> np.ndarray:
        """Integrals of h(y) kernel(k, y) dy over [-1, 0], one for every k in ``ks``.

        ``kernel`` broadcasts a column of k against a row of depths y. The
        kernel matrix on the profile's nodes is formed a block of k at a time
        (:mod:`wavetank._blocks`), so its temporaries stay below 128 KiB for
        any number of k, and each block is one product with w * h(y).
        """
        ks = np.asarray(ks, dtype=float)
        out = np.empty(ks.size)
        for rows in blocks(ks.size, self._y.size):
            out[rows] = kernel(ks[rows, None], self._y) @ self._wh
        return out

    def _strategic(self, last: int, first: int = 1) -> np.ndarray:
        """I_k / cosh(k) for k = first..last, read-only. The values of the
        last range asked are kept, so the criteria of one range share one
        kernel evaluation (a k's last bits depend on the row block it is
        formed in, so a range is served only by the same range)."""
        if self._strategic_memo is None or self._strategic_memo[0] != (first, last):
            scaled = self.integrals(cosh_over_cosh, np.arange(first, last + 1))
            scaled.flags.writeable = False
            self._strategic_memo = ((first, last), scaled)
        return self._strategic_memo[1]


# short name -> constructor of each built-in profile
BUILTIN_PROFILES = {
    "h1": WavemakerProfile.linear,
    "linear": WavemakerProfile.linear,
    "h2": WavemakerProfile.cosine,
    "cosine": WavemakerProfile.cosine,
    "nonstrategic": WavemakerProfile.nonstrategic,
}


def strategic_integral_scaled(h: WavemakerProfile, k: int) -> float:
    """I_k / cosh(k): the strategic integral with the hyperbolic growth removed.

    The integrand h(y) cosh[k(y+1)] / cosh(k) is O(1), so the value stays
    representable for every k; all criteria below consume this form.
    """
    _check_count(k, "mode index")
    return float(h._strategic(k, k)[0])


class StrategicVerdict(NamedTuple):
    """Finite-range strategic certificate: which k <= kmax have I_k = 0."""

    strategic: bool
    fails_at: tuple[int, ...]
    kmax: int
    atol: float

    @property
    def verdict(self) -> str:
        return "strategic-on-range" if self.strategic else "fails-at"


def strategic_check(h: WavemakerProfile, kmax: int, atol: float = STRATEGIC_ATOL) -> StrategicVerdict:
    """Flag every k <= kmax with |I_k| <= atol * cosh(k).

    This is a finite-range certificate only; the strategic condition
    quantifies over all positive integers.
    """
    _check_count(kmax, "kmax")
    if not (atol >= 0 and math.isfinite(atol)):
        raise ValueError(f"atol must be non-negative and finite, got {atol}")
    scaled = h._strategic(kmax)
    fails = tuple((np.flatnonzero(np.abs(scaled) <= atol) + 1).tolist())
    return StrategicVerdict(strategic=not fails, fails_at=fails, kmax=kmax, atol=atol)


class UssdMargins(NamedTuple):
    """Margins m_k = (k/cosh k)|I_k| whose positive infimum certifies uniform decay."""

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
    """All margins m_k for k <= kmax, their minimum, and the tail value m_kmax."""
    _check_count(kmax, "kmax")
    k = np.arange(1, kmax + 1)
    margins = k * np.abs(h._strategic(kmax))
    imin = int(np.argmin(margins))
    return UssdMargins(
        margins=margins,
        min_margin=float(margins[imin]),
        argmin=imin + 1,
        tail=float(margins[-1]),
        kmax=kmax,
    )


class ScVerdict(NamedTuple):
    """Outcome of the sufficient derivative-bound condition."""

    verdict: str  # pass | fail | unknown
    derivative_sup: float | None
    bound: float | None
    eps: float


def sc_check(h: WavemakerProfile, eps: float) -> ScVerdict:
    """Sufficient condition ||h'||_inf < (1-eps) * tanh(1)/(1-2/e) * |h(0)|.

    Passing implies a positive uniform margin, hence uniform decay for
    smooth initial data; it is easier to check than the margins themselves.
    Verdict is "unknown" when the derivative bound of h is not available.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if h.derivative_sup is None:
        return ScVerdict(verdict="unknown", derivative_sup=None, bound=None, eps=eps)
    bound = (1.0 - eps) * SC_CONSTANT * abs(h.value_at_zero)
    verdict = "pass" if h.derivative_sup < bound else "fail"
    return ScVerdict(verdict=verdict, derivative_sup=h.derivative_sup, bound=bound, eps=eps)


class CouplingVector(Frozen):
    """Truncated coupling coefficients of the input map.

    ``b`` drives the second-order modal equations (zeta_k'' = -lambda_k zeta_k
    + b_k u); ``beta = b / sqrt(2)`` is the magnitude with which the input
    couples to each eigenvector of the first-order form.
    """

    __slots__ = ("b",)

    def __init__(self, b: np.ndarray):
        self._freeze(b)

    @property
    def n_modes(self) -> int:
        return len(self.b)

    @property
    def beta(self) -> np.ndarray:
        return self.b / math.sqrt(2.0)

    @property
    def q(self) -> float:
        """Squared norm of b, the gain of the collocated rank-one damping."""
        return float(np.dot(self.b, self.b))


def coupling_vector(h, n_modes: int) -> CouplingVector:
    """Coupling coefficients b_k = -sqrt(2/pi) I_k / cosh(k) for k <= n_modes
    of a profile ``h``, or the first n_modes of a :class:`CouplingVector` ``h``."""
    _check_count(n_modes, "n_modes")
    if isinstance(h, CouplingVector):
        if h.n_modes < n_modes:
            raise ValueError("coupling vector shorter than the requested truncation")
        return h if h.n_modes == n_modes else CouplingVector(h.b[:n_modes])
    if not isinstance(h, WavemakerProfile):
        raise TypeError(f"expected WavemakerProfile or CouplingVector, got {type(h)!r}")
    return CouplingVector(-math.sqrt(2.0 / math.pi) * h._strategic(n_modes))
