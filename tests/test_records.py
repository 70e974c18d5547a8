"""The records: construction by keyword, defaults, validation messages,
immutability of the frozen ones, and Segment's shifted copies."""

import copy
import math
import pickle

import numpy as np
import pytest

from wavetank.boundary import FieldGrid
from wavetank.profiles import CouplingVector, ScVerdict, StrategicVerdict, UssdMargins
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
    with pytest.raises(ValueError, match="^segment value, amplitude, omega and phase must be finite$"):
        Segment(0.0, 1.0, "constant", value=math.nan)


def test_segment_shifted_copies():
    sine = Segment(0.0, 1.0, "sinusoid", amplitude=2.0, omega=3.0, phase=0.5)
    moved = sine.shifted(0.25)
    assert moved == Segment(0.25, 1.25, "sinusoid", amplitude=2.0, omega=3.0, phase=0.5 - 3.0 * 0.25)
    assert moved(0.75) == pytest.approx(sine(0.5), rel=1e-15)
    const = Segment(0.0, 1.0, "constant", value=4.0)
    assert const.shifted(2.0) == Segment(2.0, 3.0, "constant", value=4.0)
    assert sine == Segment(0.0, 1.0, "sinusoid", amplitude=2.0, omega=3.0, phase=0.5)  # unchanged


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
        (CouplingVector(np.ones(2)), "b", np.zeros(2)),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, (str, float, tuple, np.ndarray)) else None,
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


@pytest.mark.parametrize(
    "record",
    [
        DecayFit(window=(0.0, 1.0), model="power", fitted_value=-0.2, residual_rms=0.0),
        EnvelopeReport(M_min=1.0, attained_at=0.0),
        RateStudyEntry(n_modes=4, rate=0.1, residual_rms=0.0, gamma_floor=0.2),
        WavePackageResult(center_s=0.0, width_delta=0.1, member=None),
        StrategicVerdict(strategic=True, fails_at=(), kmax=10, atol=1e-11),
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
    assert StrategicVerdict(strategic=False, fails_at=(1,), kmax=3, atol=0.0).verdict == "fails-at"
    assert StrategicVerdict(strategic=True, fails_at=(), kmax=3, atol=0.0).verdict == "strategic-on-range"


def test_modal_state_keywords_and_messages():
    state = ModalState(w=[0.0, 2.0], zeta=1.0 * np.arange(2))
    assert state.zeta.dtype == float and state.w.tolist() == [0.0, 2.0] and state.n_modes == 2
    assert ModalState(zeta=1.5, w=0.0).zeta.shape == (1,)
    with pytest.raises(ValueError, match="^zeta and w must be 1-D arrays of equal length$"):
        ModalState(zeta=[1.0, 2.0], w=[1.0])
    with pytest.raises(ValueError, match="^state holds non-finite entries$"):
        ModalState(zeta=[math.inf], w=[0.0])
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


def test_field_grid_keywords_and_messages():
    grid = FieldGrid(values=[[1, 2], [3, 4]], ny=1, nx=1)
    assert grid.values.dtype == float and grid.top.tolist() == [2.0, 4.0]
    with pytest.raises(ValueError, match="^nx must be >= 1, got 0$"):
        FieldGrid(nx=0, ny=1, values=np.zeros((1, 2)))
    with pytest.raises(ValueError, match="^ny must be an integer, got True$"):
        FieldGrid(nx=1, ny=True, values=np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"^values shape \(2, 2\) does not match grid \(3, 2\)$"):
        FieldGrid(nx=2, ny=1, values=np.zeros((2, 2)))
