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
from dataclasses import dataclass

import numpy as np

from ._gauss import panel_rule
from ._hyper import cosh_over_cosh
from ._table import read_table

__all__ = [
    "WavemakerProfile",
    "CouplingVector",
    "StrategicVerdict",
    "UssdMargins",
    "ScVerdict",
    "mean_residual",
    "strategic_integral",
    "strategic_integral_scaled",
    "strategic_check",
    "ussd_margin",
    "sc_check",
    "coupling_vector",
]

MEAN_TOLERANCE = 1e-10
STRATEGIC_ATOL = 1e-11  # on I_k / cosh(k); below quadrature error, above roundoff
KERNEL_BLOCK = 1 << 18  # kernel-matrix entries per row block (2 MB of float64)

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
        self._panels = tuple(panels)
        self._nodes_per_panel = nodes_per_panel
        self.derivative_sup = derivative_sup
        self.value_at_zero = float(value_at_zero)
        # the default rule and the weighted samples w * h(y) every modal integral uses
        self._y, w = panel_rule(self._panels, nodes_per_panel)
        self._wh = w * fn(self._y)

    # -- constructors ----------------------------------------------------

    @classmethod
    def linear(cls) -> "WavemakerProfile":
        """Built-in linear profile h(y) = y + 1/2."""
        return cls(
            kind="builtin-linear",
            fn=lambda y: y + 0.5,
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

        def fn(y):
            y = np.asarray(y, dtype=float)
            return np.cos(0.5 * np.pi * (y + 1.5)) - r * (y + 0.5)

        # |h'| = |-(pi/2) sin((pi/2)(y+3/2)) - r| scanned on a fine grid
        yy = np.linspace(-1.0, 0.0, 4097)
        dsup = float(np.max(np.abs(-0.5 * np.pi * np.sin(0.5 * np.pi * (yy + 1.5)) - r)))
        return cls(
            kind="builtin-nonstrategic",
            fn=fn,
            panels=[(-1.0, 0.0)],
            nodes_per_panel=128,
            derivative_sup=dsup,
            value_at_zero=math.cos(0.75 * math.pi) - r * 0.5,
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

    def quad_rule(self, nodes_per_panel: int | None = None):
        """Quadrature nodes and weights covering [-1, 0] for this profile."""
        return panel_rule(self._panels, nodes_per_panel or self._nodes_per_panel)

    def integrate_against(self, f, nodes_per_panel: int | None = None) -> float:
        """Quadrature of integral h(y) f(y) dy over [-1, 0]."""
        y, w = self.quad_rule(nodes_per_panel)
        return float(np.dot(w, self._fn(y) * f(y)))

    def mean_residual(self) -> float:
        """Quadrature of the mean integral of h; zero for a volume-conserving profile."""
        return float(np.sum(self._wh))

    def _scaled_integrals(self, ks) -> np.ndarray:
        """I_k / cosh(k) for every k in ``ks``.

        One product of the kernel matrix cosh[k(y+1)]/cosh(k) on the default
        nodes with w * h(y), formed in row blocks of at most ``KERNEL_BLOCK``
        entries so the temporaries stay a few MB for any kmax.
        """
        ks = np.asarray(ks, dtype=float)
        out = np.empty(ks.size)
        rows = max(1, KERNEL_BLOCK // self._y.size)
        for start in range(0, ks.size, rows):
            block = ks[start:start + rows, None]
            out[start:start + rows] = cosh_over_cosh(block, self._y) @ self._wh
        return out


# short name -> constructor of each built-in profile
BUILTIN_PROFILES = {
    "h1": WavemakerProfile.linear,
    "linear": WavemakerProfile.linear,
    "h2": WavemakerProfile.cosine,
    "cosine": WavemakerProfile.cosine,
    "nonstrategic": WavemakerProfile.nonstrategic,
}


def mean_residual(h: WavemakerProfile) -> float:
    """Integral of h over [-1, 0] (conservation-of-volume residual)."""
    return h.mean_residual()


def strategic_integral_scaled(h: WavemakerProfile, k: int) -> float:
    """I_k / cosh(k): the strategic integral with the hyperbolic growth removed.

    The integrand h(y) cosh[k(y+1)] / cosh(k) is O(1), so the value stays
    representable for every k; all criteria below consume this form.
    """
    if k < 1:
        raise ValueError(f"mode index must be >= 1, got {k}")
    return float(h._scaled_integrals([k])[0])


def strategic_integral(h: WavemakerProfile, k: int) -> float:
    """Strategic integral I_k; overflows to inf once cosh(k) does (k ~ 710)."""
    return strategic_integral_scaled(h, k) * math.cosh(k)


@dataclass(frozen=True)
class StrategicVerdict:
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
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    scaled = h._scaled_integrals(np.arange(1, kmax + 1))
    fails = tuple((np.flatnonzero(np.abs(scaled) <= atol) + 1).tolist())
    return StrategicVerdict(strategic=not fails, fails_at=fails, kmax=kmax, atol=atol)


@dataclass(frozen=True)
class UssdMargins:
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
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    k = np.arange(1, kmax + 1)
    margins = k * np.abs(h._scaled_integrals(k))
    imin = int(np.argmin(margins))
    return UssdMargins(
        margins=margins,
        min_margin=float(margins[imin]),
        argmin=imin + 1,
        tail=float(margins[-1]),
        kmax=kmax,
    )


@dataclass(frozen=True)
class ScVerdict:
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


@dataclass(frozen=True)
class CouplingVector:
    """Truncated coupling coefficients of the input map.

    ``b`` drives the second-order modal equations (zeta_k'' = -lambda_k zeta_k
    + b_k u); ``beta = b / sqrt(2)`` is the magnitude with which the input
    couples to each eigenvector of the first-order form.
    """

    b: np.ndarray
    beta: np.ndarray
    n_modes: int

    @property
    def q(self) -> float:
        """Squared norm of b, the gain of the collocated rank-one damping."""
        return float(np.dot(self.b, self.b))


def coupling_vector(h: WavemakerProfile, n_modes: int) -> CouplingVector:
    """Coupling coefficients b_k = -sqrt(2/pi) I_k / cosh(k) for k <= n_modes."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    b = -math.sqrt(2.0 / math.pi) * h._scaled_integrals(np.arange(1, n_modes + 1))
    return CouplingVector(b=b, beta=b / math.sqrt(2.0), n_modes=n_modes)
