"""Outside numbers enter the library through one rule: every public door
takes an array by ``spectral._real_array`` (or ``_finite_array``) and a
number by ``spectral._number``, so bool, complex and text are refused with a
ValueError that names the argument, and never run as 1/0, on their real
part or as parsed text. A number outside a door's domain, such as a depth
off the wall or a time that is not finite, is refused by the same rules."""

import numpy as np
import pytest

from wavetank.boundary import FieldGrid, neumann_to_neumann, reconstruct_field, wall_trace
from wavetank.profiles import WavemakerProfile, sc_check
from wavetank.simulate import InputSignal, Segment, TimeSeries
from wavetank.spectral import wave_package
from wavetank.stability import decay_fit, envelope_check, rate_vs_n_study, smooth_initial_state

H1 = WavemakerProfile.linear()
SIGNAL = InputSignal.constant(2.0, 1.0)
T = np.arange(12.0)


def series(**columns) -> TimeSeries:
    """A valid 12-sample series with two recorded modes, ``columns`` replaced."""
    given = dict(t=T, x_norm=np.exp(-0.1 * T), energy=np.exp(-0.2 * T), u=np.zeros(12),
                 zeta=np.zeros((12, 2)), w=np.zeros((12, 2)))
    return TimeSeries(**{**given, **columns})


# each array door: the argument it names, the call, and a valid value whose
# complex, bool and text copies are passed
ARRAY_DOORS = {
    "wall_trace": ("y", lambda y: wall_trace([1.0], y), [0.0]),
    "neumann_to_neumann": ("x", lambda x: neumann_to_neumann([1.0], x), [0.0]),
    "FieldGrid": ("values", lambda values: FieldGrid(1, 1, values), np.eye(2)),
    "WavemakerProfile.__call__": ("y", H1, [-0.5]),
    "InputSignal.at": ("t", SIGNAL.at, [0.5]),
    "Segment.__call__": ("t", Segment(0, 1, "sinusoid", amplitude=2, omega=1), 0.5),
    "TimeSeries.t": ("time series column t", lambda t: series(t=t), T),
    "TimeSeries.u": ("time series column u", lambda u: series(u=u), np.zeros(12)),
    "TimeSeries.zeta": ("zeta", lambda zeta: series(zeta=zeta), np.zeros((12, 2))),
    "TimeSeries.w": ("w", lambda w: series(w=w), np.zeros((12, 2))),
}
ARRAY_FORMS = {
    "complex": lambda a: np.asarray(a, complex),
    "bool": lambda a: np.asarray(a, bool),
    "text": lambda a: np.asarray(a).astype(str),
}
# each scalar door: the argument it names, the call, and a valid value whose
# bool and text forms are passed
SCALAR_DOORS = {
    "reconstruct_field": ("u_now", lambda u: reconstruct_field([1.0], u, H1, 4, 4), 0.5),
    "decay_fit": ("window", lambda t: decay_fit(series(), (t, 11.0), "exponential"), 1.0),
    "envelope_check": ("domain_norm0", lambda norm: envelope_check(series(), norm), 1.0),
    "wave_package.s": ("s", lambda s: wave_package(s, 0.1), 1.0),
    "wave_package.eps": ("eps", lambda eps: wave_package(100.0, eps), 0.1),
    "InputSignal.concat": ("tau", lambda tau: SIGNAL.concat(tau, SIGNAL), 0.5),
    "sc_check": ("eps", lambda eps: sc_check(H1, eps), 0.1),
    "smooth_initial_state": ("decay_power", lambda power: smooth_initial_state(4, power), 3.0),
}
SCALAR_FORMS = {"bool": bool, "text": str}

CASES = [
    pytest.param(name, call, form(valid), "a real array", id=f"{door}-{kind}")
    for door, (name, call, valid) in ARRAY_DOORS.items()
    for kind, form in ARRAY_FORMS.items()
] + [
    pytest.param(name, call, form(valid), "an int or a float", id=f"{door}-{kind}")
    for door, (name, call, valid) in SCALAR_DOORS.items()
    for kind, form in SCALAR_FORMS.items()
]


@pytest.mark.parametrize("name, call, bad, what", CASES)
def test_every_door_refuses_what_is_not_a_real_number(name, call, bad, what):
    with pytest.raises(ValueError, match=f"^{name} must be {what}, got "):
        call(bad)


# each door that refuses a number outside its domain: the call and the whole
# ValueError it raises, which names the argument
OFF_WALL = "points must lie on the wall x = 0, at depths y in [-1, 0], got "
OUTSIDE = {
    "profile-below-surface": (lambda: H1(5.0), OFF_WALL + "5.0"),
    "profile-nan": (lambda: H1(np.nan), OFF_WALL + "nan"),
    "InputSignal.at-inf": (lambda: InputSignal.constant(2.0, 10.0).at([np.inf]), "t has non-finite values"),
    "InputSignal.at-nan": (lambda: InputSignal.constant(2.0, 10.0).at([np.nan]), "t has non-finite values"),
    "Segment.__call__-inf": (lambda: Segment(0, 1, "sinusoid", amplitude=1, omega=1)(np.inf), "t has non-finite values"),
    "wave_package-overflowing-edge": (
        lambda: wave_package(0.0, 1e155),
        "eps = 1e+155 is too large at s = 0: the package reaches 1e+155, where doubles do not separate the frequencies",
    ),
    "wave_package-unallocatable-edge": (
        lambda: wave_package(0.0, 1e8),
        "eps = 1e+08 is too large at s = 0: the package reaches 1e+08, where doubles do not separate the frequencies",
    ),
    "decay_fit-one-number": (lambda: decay_fit(series(), 5.0, "exponential"),
                             "window must be two numbers (t_lo, t_hi), got 5.0"),
    "decay_fit-three-numbers": (lambda: decay_fit(series(), (0, 1, 2), "exponential"),
                                "window must be two numbers (t_lo, t_hi), got (0, 1, 2)"),
    "rate_vs_n_study-text": (lambda: rate_vs_n_study(H1, "48"),
                             "truncation size in n_values must be an integer, got '4'"),
    "rate_vs_n_study-bool": (lambda: rate_vs_n_study(H1, [True, 4]),
                             "truncation size in n_values must be an integer, got True"),
}


@pytest.mark.parametrize("call, message", OUTSIDE.values(), ids=OUTSIDE.keys())
def test_every_door_refuses_what_lies_outside_its_domain(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_time_and_depth_doors_keep_the_shape_of_their_argument():
    segment = Segment(0, 1, "sinusoid", amplitude=2, omega=1)
    for door in (SIGNAL.at, segment, H1):
        assert np.shape(door(-0.5)) == ()
        assert np.shape(door([[-1.0], [0.0]])) == (2, 1)
