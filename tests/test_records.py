"""The records: construction by keyword, defaults, validation messages,
immutability of the frozen ones, and the delayed copies concat makes."""

import copy
import math
import pickle

import numpy as np
import pytest

from wavetank.boundary import FieldGrid
from wavetank.profiles import ScVerdict, StrategicVerdict, UssdMargins
from wavetank.simulate import InputSignal, ModalState, Segment, SimConfig, TimeSeries
from wavetank.spectral import WavePackageResult
from wavetank.stability import DecayFit, EnvelopeReport, RateStudyEntry


def test_sim_config_keywords_and_defaults():
    cfg = SimConfig(n_modes=4, t_final=2.0)
    assert (cfg.dt, cfg.sample_every, cfg.record_modes) == (
        min(1e-2, 0.1 / math.sqrt(4 * math.tanh(4))), 1, False
    )
    cfg = SimConfig(t_final=2.0, n_modes=4, dt=0.1, sample_every=3, record_modes=True)
    assert (cfg.n_modes, cfg.t_final, cfg.dt, cfg.sample_every, cfg.record_modes) == (4, 2.0, 0.1, 3, True)
    assert cfg == SimConfig(4, 2.0, 0.1, 3, True)
    assert hash(cfg) == hash(SimConfig(4, 2.0, 0.1, 3, True))
    assert cfg != SimConfig(4, 2.0, 0.1, 3, False)
    assert repr(SimConfig(n_modes=1, t_final=1.0, dt=0.5)) == (
        "SimConfig(n_modes=1, t_final=1.0, dt=0.5, sample_every=1, record_modes=False)"
    )
    cfg = SimConfig(n_modes=1, t_final=np.int64(2), dt=np.float32(0.5))  # numpy numbers, stored as floats
    assert (type(cfg.t_final), type(cfg.dt), cfg.t_final, cfg.dt) == (float, float, 2.0, 0.5)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(n_modes=0, t_final=1.0), "n_modes must be >= 1, got 0"),
        (dict(n_modes=2, t_final=1.0, dt=-0.1), "dt must be positive and finite, got -0.1"),
        (dict(n_modes=2, t_final=math.inf), "t_final must be finite, got inf"),
        (dict(n_modes=2, t_final=0.01, dt=0.1), "t_final must be >= dt, got 0.01 < 0.1"),
        (dict(n_modes=2, t_final=1e300, dt=1e-300), "t_final / dt must be below 2**63, got inf"),
        (dict(n_modes=2, t_final=1.0, sample_every=0), "sample_every must be >= 1, got 0"),
        (dict(n_modes=2, t_final=1e30, dt=1e-3, sample_every=10**32), "t_final / dt must be below 2**63, got 1e+33"),
        (dict(n_modes=2, t_final=2.0**63, dt=1.0), "t_final / dt must be below 2**63, got 9.22e+18"),
        (dict(n_modes=4.5, t_final=1.0), "n_modes must be an integer, got 4.5"),
        (dict(n_modes=2, t_final=1.0, sample_every=True), "sample_every must be an integer, got True"),
        (dict(n_modes=2, t_final=True), "t_final must be an int or a float, got True"),
        (dict(n_modes=2, t_final=1.0, dt=True), "dt must be an int or a float, got True"),
        (dict(n_modes=2, t_final="1"), "t_final must be an int or a float, got '1'"),
        (dict(n_modes=2, t_final=1.0, record_modes="no"), "record_modes must be a bool, got 'no'"),
        (dict(n_modes=2, t_final=1.0, record_modes=1), "record_modes must be a bool, got 1"),
    ],
)
def test_sim_config_validation_messages(kwargs, message):
    with pytest.raises(ValueError) as err:
        SimConfig(**kwargs)
    assert str(err.value).startswith(message)


def test_segment_keywords_defaults_and_messages():
    seg = Segment(t_start=0.0, t_end=1.0, form="zero")
    assert (seg.value, seg.amplitude, seg.omega, seg.phase) == (0.0, 0.0, 0.0, 0.0)
    seg = Segment(form="sinusoid", t_end=2.0, t_start=1.0, amplitude=2.0, omega=3.0, phase=0.5)
    assert (seg.t_start, seg.t_end, seg.form, seg.amplitude, seg.omega, seg.phase) == (1.0, 2.0, "sinusoid", 2.0, 3.0, 0.5)
    with pytest.raises(ValueError, match=r"^unknown segment form 'ramp'$"):
        Segment(0.0, 1.0, "ramp")
    with pytest.raises(ValueError, match=r"^segment needs t_end > t_start, got \[1.0, 1.0\]$"):
        Segment(1.0, 1.0, "zero")
    with pytest.raises(ValueError, match="^segment value must be finite, got nan$"):
        Segment(0.0, 1.0, "constant", value=math.nan)
    with pytest.raises(ValueError, match="^segment omega must be finite, got inf$"):
        Segment(0.0, 1.0, "sinusoid", omega=math.inf)
    assert Segment(0.0, math.inf, "zero").t_end == math.inf  # the times may be infinite


def test_concat_delays_copies_of_the_segments():
    sine = Segment(0.0, 1.0, "sinusoid", amplitude=2.0, omega=3.0, phase=0.5)
    const = Segment(1.0, 3.0, "constant", value=4.0)
    other = InputSignal([sine, const])
    delayed = InputSignal.zero(0.25).concat(0.25, other)
    # the sinusoid's phase is exactly p - w tau, and the constant's stays 0.0
    moved = Segment(0.25, 1.25, "sinusoid", amplitude=2.0, omega=3.0, phase=0.5 - 3.0 * 0.25)
    assert delayed.segments == (Segment(0.0, 0.25, "zero"), moved, Segment(1.25, 3.25, "constant", value=4.0))
    assert delayed.at(0.75) == pytest.approx(other.at(0.5), rel=1e-15)
    assert other.segments == (sine, const)  # unchanged


def test_input_signal_keywords_and_messages():
    sig = InputSignal(segments=[Segment(1.0, 2.0, "zero"), Segment(0.0, 1.0, "constant", value=1.0)])
    assert [seg.t_start for seg in sig.segments] == [0.0, 1.0]
    assert isinstance(sig.segments, tuple)
    assert sig == InputSignal(list(reversed(sig.segments)))
    with pytest.raises(ValueError, match="^input signal has no segments$"):
        InputSignal([])
    with pytest.raises(ValueError, match="^input signal must start at t=0, first segment at 0.5$"):
        InputSignal([Segment(0.5, 1.0, "zero")])
    with pytest.raises(ValueError, match=r"^overlapping segments: \[0.0, 2.0\] and \[1.0, 3.0\]$"):
        InputSignal([Segment(0.0, 2.0, "zero"), Segment(1.0, 3.0, "zero")])
    with pytest.raises(ValueError, match="^gap in input coverage between t=1.0 and t=2.0$"):
        InputSignal([Segment(0.0, 1.0, "zero"), Segment(2.0, 3.0, "zero")])
    cut = sig.concat(0.5, InputSignal.constant(3.0, 1.0))
    assert cut.segments == (Segment(0.0, 0.5, "constant", value=1.0), Segment(0.5, 1.5, "constant", value=3.0))


@pytest.mark.parametrize(
    "record, field, value",
    [
        (SimConfig(n_modes=2, t_final=1.0), "dt", 0.1),
        (Segment(0.0, 1.0, "zero"), "t_end", 2.0),
        (InputSignal.zero(1.0), "segments", ()),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, (str, float, tuple)) else None,
)
def test_frozen_records_reject_assignment(record, field, value):
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'"):
        setattr(record, field, value)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1  # no field of that name
    assert getattr(record, field) is before
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and repr(twin) == repr(record)
        assert twin == record and hash(twin) == hash(record)  # by value, the twin rebuilt


@pytest.mark.parametrize(
    "make",
    [
        lambda: ModalState([1.0, 2.0], [3.0, 4.0]),
        lambda: TimeSeries(t=np.arange(3.0), x_norm=np.ones(3), energy=np.ones(3), u=np.zeros(3)),
        lambda: FieldGrid(values=np.ones((3, 2)), nx=2, ny=1),
        lambda: UssdMargins(margins=np.ones(2), min_margin=1.0, argmin=1, tail=1.0, kmax=2),
    ],
    ids=["ModalState", "TimeSeries", "FieldGrid", "UssdMargins"],
)
def test_array_records_compare_by_identity(make):
    # equal arrays in equal fields: comparing them by value would raise
    one, two = make(), make()
    assert one == one and one != two and len({one, two}) == 2


@pytest.mark.parametrize(
    "record",
    [
        DecayFit(window=(0.0, 1.0), model="power", fitted_value=-0.2, residual_rms=0.0),
        EnvelopeReport(M_min=1.0, attained_at=0.0),
        RateStudyEntry(n_modes=4, rate=0.1, residual_rms=0.0, gamma_floor=0.2),
        WavePackageResult(center_s=0.0, width_delta=0.1, member=None),
        StrategicVerdict(strategic=True, fails_at=(), kmax=10),
        UssdMargins(margins=np.ones(2), min_margin=1.0, argmin=1, tail=1.0, kmax=2),
        ScVerdict(verdict="pass", derivative_sup=1.0, bound=2.0, eps=0.1),
    ],
    ids=lambda record: type(record).__name__,
)
def test_result_records_reject_assignment(record):
    field = next(iter(type(record).__annotations__))
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_result_record_defaults_and_properties():
    margins = UssdMargins(margins=np.ones(2), min_margin=1.0, argmin=1, tail=1.0, kmax=2)
    assert margins.note.startswith("finite-range margins")
    assert StrategicVerdict(strategic=False, fails_at=(1,), kmax=3).verdict == "fails-at"
    assert StrategicVerdict(strategic=True, fails_at=(), kmax=3).verdict == "strategic-on-range"


def test_modal_state_keywords_and_messages():
    state = ModalState(w=[0.0, 2.0], zeta=1.0 * np.arange(2))
    assert state.zeta.dtype == float and state.w.tolist() == [0.0, 2.0] and state.n_modes == 2
    assert ModalState(zeta=1.5, w=0.0).zeta.shape == (1,)
    with pytest.raises(ValueError, match="^zeta and w must be 1-D arrays of equal length$"):
        ModalState(zeta=[1.0, 2.0], w=[1.0])
    with pytest.raises(ValueError, match="^zeta has non-finite values$"):
        ModalState(zeta=[math.inf], w=[0.0])
    with pytest.raises(ValueError, match=r"^w must be 1-D, got shape \(1, 1\)$"):
        ModalState(zeta=[1.0], w=[[1.0]])
    with pytest.raises(ValueError, match="^state needs at least one mode$"):
        ModalState(zeta=[], w=[])
    with pytest.raises(ValueError, match="^n_modes must be >= 1, got 0$"):
        ModalState.zero(0)  # built an empty state, which x_norm then rejected as "n must be >= 1"
    state.w = np.zeros(2)  # a mutable record
    assert state.w.tolist() == [0.0, 0.0]
    twin = copy.deepcopy(state)
    assert twin.zeta is not state.zeta and twin.zeta.tolist() == state.zeta.tolist()


def test_time_series_keywords_defaults_and_messages():
    t = np.arange(3.0)
    series = TimeSeries(u=np.zeros(3), energy=np.ones(3), x_norm=np.ones(3), t=t)
    assert series.t is t and series.zeta is None and series.w is None and series.final_state is None
    series.final_state = ModalState.zero(1)  # from_csv sets it after construction
    with pytest.raises(ValueError, match="^time series columns must have equal length$"):
        TimeSeries(t=t, x_norm=np.ones(2), energy=np.ones(3), u=np.zeros(3))
    with pytest.raises(ValueError, match="^time series column energy has non-finite values$"):
        TimeSeries(t=t, x_norm=np.ones(3), energy=np.array([1.0, math.nan, 1.0]), u=np.zeros(3))
    with pytest.raises(ValueError, match="^sample times must be strictly increasing$"):
        TimeSeries(t=np.zeros(3), x_norm=np.ones(3), energy=np.ones(3), u=np.zeros(3))


@pytest.mark.parametrize(
    "zeta, w, message",
    [
        (np.array([[0.0], [math.nan]]), np.zeros((2, 1)), "zeta has non-finite values"),
        (np.zeros((2, 1)), np.array([[0.0], [math.inf]]), "w has non-finite values"),
        (np.zeros((3, 1)), np.zeros((2, 5)), r"zeta and w must both have shape \(2, N\), got \(3, 1\) and \(2, 5\)"),
        (np.zeros((2, 2)), np.zeros((2, 3)), r"zeta and w must both have shape \(2, N\), got \(2, 2\) and \(2, 3\)"),
        (np.zeros(2), np.zeros(2), r"zeta must be 2-D, got shape \(2,\)"),
        (np.zeros((2, 1)), None, "w must be a real array, got dtype object"),
    ],
    ids=["nan-zeta", "inf-w", "rows", "columns", "1-D", "w-missing"],
)
def test_time_series_refuses_mode_columns_it_could_not_write_back(zeta, w, message):
    # each was stored: to_csv then wrote a NaN as an empty cell, or rows wider
    # than the header, that from_csv rejects, or failed with an IndexError
    with pytest.raises(ValueError, match=f"^{message}$"):
        TimeSeries(t=np.arange(2.0), x_norm=np.ones(2), energy=np.ones(2), u=np.zeros(2), zeta=zeta, w=w)


def test_field_grid_keywords_and_messages():
    grid = FieldGrid(values=[[1, 2], [3, 4]], ny=1, nx=1)
    assert grid.values.dtype == float and grid.top.tolist() == [2.0, 4.0]
    with pytest.raises(ValueError, match="^nx must be >= 1, got 0$"):
        FieldGrid(nx=0, ny=1, values=np.zeros((1, 2)))
    with pytest.raises(ValueError, match="^ny must be an integer, got True$"):
        FieldGrid(nx=1, ny=True, values=np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"^values shape \(2, 2\) does not match grid \(3, 2\)$"):
        FieldGrid(nx=2, ny=1, values=np.zeros((2, 2)))
