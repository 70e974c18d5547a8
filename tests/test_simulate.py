import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wavetank.profiles import coupling_vector
from wavetank.simulate import (
    InputSignal,
    ModalState,
    Segment,
    SimConfig,
    TimeSeries,
    damping_substep,
    domain_norm,
    eigen_coefficients,
    rotation_substep,
    simulate_closed,
    simulate_open,
    state_from_eigen,
    x_norm,
    x_norm_sq,
)
from wavetank.spectral import eigenvalues, frequency

MU1 = 0.8726936208978296
DOMNORM_MODE1 = 1.1582831322011637  # sqrt(lambda_1 + lambda_1^2)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


def random_state(n, rng):
    return ModalState(rng.standard_normal(n), rng.standard_normal(n))


# -- norms -------------------------------------------------------------------


def test_norm_examples():
    zero = ModalState.zero(3)
    assert x_norm(zero) == 0.0
    assert domain_norm(zero) == 0.0
    mode1 = ModalState.single_mode(1, 1)
    assert x_norm(mode1) == pytest.approx(MU1, rel=1e-14)
    assert domain_norm(mode1) == pytest.approx(DOMNORM_MODE1, rel=1e-14)


def test_domain_norm_dominates(rng):
    for _ in range(10):
        st = random_state(8, rng)
        assert domain_norm(st) >= x_norm(st)


# -- substeps ----------------------------------------------------------------


def test_rotation_identity_at_zero(rng):
    st = random_state(5, rng)
    out = rotation_substep(st, 0.0)
    assert np.array_equal(out.zeta, st.zeta)
    assert np.array_equal(out.w, st.w)


def test_rotation_full_period():
    st = ModalState.single_mode(1, 1)
    out = rotation_substep(st, 2 * math.pi / frequency(1))
    assert out.zeta[0] == pytest.approx(1.0, abs=1e-12)
    assert out.w[0] == pytest.approx(0.0, abs=1e-12)


def test_rotation_isometry(rng):
    st = random_state(12, rng)
    out = rotation_substep(st, 0.37)
    assert x_norm(out) == pytest.approx(x_norm(st), rel=1e-13)


def test_damping_zero_coupling_is_identity(h1, rng):
    from wavetank.profiles import CouplingVector

    st = random_state(4, rng)
    zero = CouplingVector(b=np.zeros(4), beta=np.zeros(4), n_modes=4)
    out = damping_substep(st, zero, 0.5)
    assert np.array_equal(out.w, st.w)


def test_damping_eigenvector_decay(h1):
    cv = coupling_vector(h1, 6)
    st = ModalState(np.zeros(6), cv.b.copy())
    tau = 0.8
    out = damping_substep(st, cv, tau)
    assert np.allclose(out.w, math.exp(-cv.q * tau) * cv.b, rtol=1e-14)


def test_damping_orthogonal_kernel(h1):
    cv = coupling_vector(h1, 2)
    w = np.array([cv.b[1], -cv.b[0]])  # perpendicular to b
    st = ModalState(np.zeros(2), w)
    out = damping_substep(st, cv, 1.3)
    assert np.allclose(out.w, w, atol=1e-18)


def test_damping_never_expands(h1, rng):
    cv = coupling_vector(h1, 8)
    for _ in range(20):
        st = random_state(8, rng)
        out = damping_substep(st, cv, 0.05)
        assert x_norm_sq(out) <= x_norm_sq(st) * (1 + 1e-15)


def test_damping_rejects_negative_tau(h1):
    cv = coupling_vector(h1, 2)
    with pytest.raises(ValueError):
        damping_substep(ModalState.zero(2), cv, -0.1)


# -- closed loop -------------------------------------------------------------


def test_closed_loop_monotone_every_step(h1, rng):
    st = random_state(8, rng)
    cfg = SimConfig(n_modes=8, t_final=20.0, dt=1e-2, sample_every=1)
    ts = simulate_closed(st, h1, cfg)
    assert np.all(np.diff(ts.x_norm) <= 0.0)
    assert np.all(np.diff(ts.energy) <= 0.0)
    assert ts.energy[-1] < ts.energy[0]


def test_closed_loop_zero_state(h1):
    cfg = SimConfig(n_modes=4, t_final=1.0, dt=1e-2, sample_every=10)
    ts = simulate_closed(ModalState.zero(4), h1, cfg)
    assert np.all(ts.x_norm == 0.0)
    assert np.all(ts.u == 0.0)


def test_closed_loop_single_mode_rate(h1):
    # one damped oscillator: energy e-folds at rate ~ b_1^2 for small coupling
    cfg = SimConfig(n_modes=1, t_final=100.0, dt=1e-3, sample_every=1000)
    ts = simulate_closed(ModalState.single_mode(1, 1), h1, cfg)
    b1 = coupling_vector(h1, 1).b[0]
    rate = -math.log(ts.energy[-1] / ts.energy[0]) / 100.0
    assert rate == pytest.approx(b1**2, rel=0.02)


def test_closed_loop_rk4_crosscheck_agrees(h1, rng):
    st = random_state(8, rng)
    cfg_s = SimConfig(n_modes=8, t_final=10.0, dt=1e-3, sample_every=100)
    cfg_r = SimConfig(
        n_modes=8, t_final=10.0, dt=1e-3, sample_every=100, integrator="rk4-crosscheck"
    )
    ts_s = simulate_closed(st, h1, cfg_s)
    ts_r = simulate_closed(st, h1, cfg_r)
    assert np.max(np.abs(ts_s.x_norm - ts_r.x_norm)) <= 1e-6 * ts_s.x_norm[0]


def test_closed_loop_nonstrategic_mode_one_invariant(h_ns):
    cfg = SimConfig(n_modes=4, t_final=20.0, dt=1e-3, sample_every=100)
    ts = simulate_closed(ModalState.single_mode(1, 4), h_ns, cfg)
    assert np.max(np.abs(ts.energy - ts.energy[0])) <= 1e-12 * ts.energy[0]


def test_closed_loop_tracked_energy_consistent_with_state(h1, rng):
    st = random_state(16, rng)
    cfg = SimConfig(n_modes=16, t_final=50.0, dt=1e-3, sample_every=5000)
    ts = simulate_closed(st, h1, cfg)
    recomputed = x_norm_sq(ts.final_state)
    assert abs(ts.energy[-1] - recomputed) <= 1e-11 * ts.energy[0]


def test_closed_loop_energy_balance(h1, rng):
    st = random_state(16, rng)
    cfg = SimConfig(n_modes=16, t_final=10.0, dt=1e-3, sample_every=1)
    ts = simulate_closed(st, h1, cfg)
    drop = ts.energy[0] - ts.energy[-1]
    work = 2.0 * np.trapezoid(ts.u**2, ts.t)
    assert abs(drop - work) <= 1e-6 * ts.energy[0]


def test_splitting_second_order(h1, rng):
    st = random_state(8, rng)
    lam = eigenvalues(8)

    def final_state(dt):
        cfg = SimConfig(n_modes=8, t_final=5.0, dt=dt, sample_every=10**9)
        return simulate_closed(st, h1, cfg).final_state

    ref = final_state(1e-2 / 8)

    def err(state):
        dz, dw = state.zeta - ref.zeta, state.w - ref.w
        return math.sqrt(float(lam @ dz**2 + dw @ dw))

    ratio = err(final_state(1e-2)) / err(final_state(5e-3))
    assert 3.5 <= ratio <= 4.5


def test_simulate_closed_config_mismatches(h1):
    cfg = SimConfig(n_modes=4, t_final=1.0, feedback="none")
    with pytest.raises(ValueError, match="collocated"):
        simulate_closed(ModalState.zero(4), h1, cfg)
    cfg2 = SimConfig(n_modes=4, t_final=1.0)
    with pytest.raises(ValueError, match="truncation"):
        simulate_closed(ModalState.zero(3), h1, cfg2)


# -- open loop ---------------------------------------------------------------


def test_open_loop_conservation(h1, rng):
    st = random_state(16, rng)
    cfg = SimConfig(n_modes=16, t_final=20.0, dt=1e-3, feedback="none", sample_every=500)
    ts = simulate_open(st, h1, InputSignal.zero(20.0), cfg)
    assert np.max(np.abs(ts.x_norm - ts.x_norm[0])) <= 1e-13 * ts.x_norm[0]


@settings(max_examples=60, deadline=None, database=None)
@given(
    n=st.integers(1, 48),
    n_steps=st.integers(1, 5000),
    dt=st.floats(1e-3, 0.5),
    sample_every=st.integers(1, 6000),
    seed=st.integers(0, 2**32 - 1),
)
def test_open_loop_zero_input_conserves_norm(h1, n, n_steps, dt, sample_every, seed):
    rng = np.random.default_rng(seed)
    state = ModalState(rng.standard_normal(n), rng.standard_normal(n))
    cfg = SimConfig(n_modes=n, t_final=n_steps * dt, dt=dt, feedback="none", sample_every=sample_every)
    ts = simulate_open(state, h1, InputSignal.zero(cfg.t_final), cfg)
    assert np.max(np.abs(ts.x_norm - ts.x_norm[0])) <= 8 * np.spacing(ts.x_norm[0])


def test_open_loop_resonance_matches_oscillator(h1):
    # u = cos(mu_1 t) drives mode 1 resonantly:
    # zeta_1(t) = b_1 t sin(mu t)/(2 mu), w_1(t) = b_1 (t cos(mu t)/2 + sin(mu t)/(2 mu))
    mu = frequency(1)
    T = 50.0
    cfg = SimConfig(n_modes=4, t_final=T, dt=1e-3, feedback="none", sample_every=50000)
    ts = simulate_open(
        ModalState.zero(4), h1, InputSignal.sinusoid(1.0, mu, T), cfg
    )
    b1 = coupling_vector(h1, 4).b[0]
    zeta_exact = b1 * T * math.sin(mu * T) / (2 * mu)
    w_exact = b1 * (T * math.cos(mu * T) / 2 + math.sin(mu * T) / (2 * mu))
    assert ts.final_state.zeta[0] == pytest.approx(zeta_exact, abs=1e-8)
    assert ts.final_state.w[0] == pytest.approx(w_exact, abs=1e-8)
    # amplitude grows ~ |b_1| t / 2
    amp = math.sqrt(eigenvalues(4)[0] * ts.final_state.zeta[0] ** 2 + ts.final_state.w[0] ** 2)
    assert amp == pytest.approx(abs(b1) * T / 2, rel=0.05)


def test_open_loop_concatenation_identity(h1):
    n, dt, tau, t = 8, 1e-3, 1.0, 0.5
    u = InputSignal.sinusoid(0.7, 1.3, tau, phase=0.2)
    v = InputSignal.constant(0.5, t)
    lam = eigenvalues(n)

    def run(signal, t_final, state):
        cfg = SimConfig(n_modes=n, t_final=t_final, dt=dt, feedback="none", sample_every=10**9)
        return simulate_open(state, h1, signal, cfg).final_state

    lhs = run(u.concat(tau, v), tau + t, ModalState.zero(n))
    mid = run(u, tau, ModalState.zero(n))
    rotated = run(InputSignal.zero(t), t, mid)
    driven = run(v, t, ModalState.zero(n))
    dz = rotated.zeta + driven.zeta - lhs.zeta
    dw = rotated.w + driven.w - lhs.w
    assert math.sqrt(float(lam @ dz**2 + dw @ dw)) <= 5e-8


def test_open_loop_rk4_crosscheck(h1, rng):
    st = random_state(6, rng)
    sig = InputSignal.sinusoid(0.3, 1.1, 5.0)
    cfg_s = SimConfig(n_modes=6, t_final=5.0, dt=1e-3, feedback="none", sample_every=1000)
    cfg_r = SimConfig(
        n_modes=6, t_final=5.0, dt=1e-3, feedback="none", sample_every=1000,
        integrator="rk4-crosscheck",
    )
    ts_s = simulate_open(st, h1, sig, cfg_s)
    ts_r = simulate_open(st, h1, sig, cfg_r)
    assert np.max(np.abs(ts_s.x_norm - ts_r.x_norm)) <= 1e-6 * ts_s.x_norm[0]


def test_simulate_open_requires_feedback_none(h1):
    cfg = SimConfig(n_modes=2, t_final=1.0)
    with pytest.raises(ValueError, match="none"):
        simulate_open(ModalState.zero(2), h1, InputSignal.zero(1.0), cfg)


# -- input signals ------------------------------------------------------------


def test_segment_forms():
    assert Segment(0, 1, "zero")(0.5) == 0.0
    assert Segment(0, 1, "constant", value=2.5)(0.9) == 2.5
    s = Segment(0, 1, "sinusoid", amplitude=2.0, omega=3.0, phase=0.5)
    assert s(0.4) == pytest.approx(2.0 * math.cos(3.0 * 0.4 + 0.5))
    with pytest.raises(ValueError):
        Segment(0, 1, "ramp")
    with pytest.raises(ValueError):
        Segment(1, 1, "zero")
    for field in ("value", "amplitude", "omega", "phase"):
        with pytest.raises(ValueError, match="finite"):
            Segment(0, 1, "sinusoid", **{field: math.nan})


def test_signal_validation_errors():
    sig = InputSignal([Segment(0, 1, "zero"), Segment(0.5, 2, "zero")])
    with pytest.raises(ValueError, match="overlap"):
        sig.validate(2.0)
    sig = InputSignal([Segment(0, 1, "zero"), Segment(1.5, 2, "zero")])
    with pytest.raises(ValueError, match="gap"):
        sig.validate(2.0)
    with pytest.raises(ValueError, match="start"):
        InputSignal([Segment(0.5, 2, "zero")]).validate(2.0)
    with pytest.raises(ValueError, match="t_final"):
        InputSignal([Segment(0, 1, "zero")]).validate(2.0)
    with pytest.raises(ValueError, match="no segments"):
        InputSignal([]).validate(1.0)


def test_signal_unsorted_segments_sorted_at_construction():
    sig = InputSignal([Segment(1, 2, "constant", value=2.0), Segment(0, 1, "constant", value=1.0)])
    sig.validate(2.0)
    assert [s.t_start for s in sig.segments] == [0, 1]
    assert sig(0.5) == 1.0
    assert sig(2.0) == 2.0  # past the end: the last segment in time, not in the list


def test_signal_concat_semantics():
    u = InputSignal.constant(1.0, 2.0)
    v = InputSignal.sinusoid(2.0, 3.0, 1.0, phase=0.1)
    c = u.concat(1.5, v)
    c.validate(2.5)
    assert c(1.0) == 1.0
    # v is evaluated in its own clock: c(t) = v(t - tau) for t >= tau
    assert c(2.0) == pytest.approx(2.0 * math.cos(3.0 * 0.5 + 0.1))


# -- eigen-coordinate identity -------------------------------------------------


def test_eigen_coefficients_round_trip(rng):
    st = random_state(6, rng)
    c_plus, c_minus = eigen_coefficients(st)
    back = state_from_eigen(c_plus, c_minus)
    assert np.allclose(back.zeta, st.zeta, atol=1e-14)
    assert np.allclose(back.w, st.w, atol=1e-14)
    # per-mode energy identity
    lam = eigenvalues(6)
    per_mode = lam * st.zeta**2 + st.w**2
    assert np.allclose(np.abs(c_plus) ** 2 + np.abs(c_minus) ** 2, per_mode, rtol=1e-13)


def test_eigen_coefficients_diagonal_flow():
    st = ModalState.single_mode(1, 4, zeta=0.3, w=-0.2)
    tau = 0.77
    c_plus0, c_minus0 = eigen_coefficients(st)
    c_plus1, c_minus1 = eigen_coefficients(rotation_substep(st, tau))
    mu = np.sqrt(eigenvalues(4))
    assert np.allclose(c_plus1, c_plus0 * np.exp(1j * mu * tau), atol=1e-14)
    assert np.allclose(c_minus1, c_minus0 * np.exp(-1j * mu * tau), atol=1e-14)


# -- config and series ---------------------------------------------------------


def test_config_default_dt_policy():
    cfg = SimConfig(n_modes=4, t_final=1.0)
    assert cfg.dt == min(1e-2, 0.1 / frequency(4))
    cfg_large = SimConfig(n_modes=600, t_final=1.0)
    assert cfg_large.dt == pytest.approx(0.1 / frequency(600))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_modes=0, t_final=1.0),
        dict(n_modes=2, t_final=1.0, dt=-1e-3),
        dict(n_modes=2, t_final=1e-5, dt=1e-2),
        dict(n_modes=2, t_final=1.0, feedback="bang-bang"),
        dict(n_modes=2, t_final=1.0, integrator="euler"),
        dict(n_modes=2, t_final=1.0, sample_every=0),
        dict(n_modes=100, t_final=1.0, dt=0.2, integrator="rk4-crosscheck"),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_time_series_csv_round_trip(tmp_path, h1, rng):
    st = random_state(3, rng)
    cfg = SimConfig(n_modes=3, t_final=1.0, dt=1e-2, sample_every=10, record_modes=True)
    ts = simulate_closed(st, h1, cfg)
    path = tmp_path / "series.csv"
    ts.to_csv(path)
    back = TimeSeries.from_csv(path)
    assert np.array_equal(back.t, ts.t)
    assert np.array_equal(back.x_norm, ts.x_norm)
    assert np.array_equal(back.zeta, ts.zeta)
    assert np.array_equal(back.final_state.w, ts.final_state.w)


# finite float64 with the edge cases of 17-digit text drawn often
FINITE = st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308]
) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def recorded_series(draw):
    t = np.array(sorted(draw(st.lists(FINITE, min_size=1, max_size=8, unique=True))))
    n_modes = draw(st.integers(1, 4))
    cols = draw(arrays(np.float64, (len(t), 3 + 2 * n_modes), elements=FINITE))
    return TimeSeries(
        t=t, x_norm=cols[:, 0], energy=cols[:, 1], u=cols[:, 2],
        zeta=cols[:, 3 : 3 + n_modes], w=cols[:, 3 + n_modes :],
    )


@settings(max_examples=200, deadline=None, database=None)
@given(recorded_series())
def test_time_series_csv_round_trip_bit_identical(tmp_path_factory, ts):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    ts.to_csv(path)
    back = TimeSeries.from_csv(path)
    for name in ("t", "x_norm", "energy", "u", "zeta", "w"):
        assert np.array_equal(getattr(back, name).view(np.int64), getattr(ts, name).view(np.int64)), name
    assert np.array_equal(back.final_state.w.view(np.int64), ts.w[-1].view(np.int64))


def test_time_series_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,norm\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        TimeSeries.from_csv(path)
    path.write_text("t,x_norm,energy,u\n")
    with pytest.raises(ValueError, match="no samples"):
        TimeSeries.from_csv(path)


def test_modal_state_validation():
    with pytest.raises(ValueError):
        ModalState(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        ModalState.single_mode(5, 3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            ModalState([0.0, bad], [0.0, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            ModalState([0.0], [bad])


@pytest.mark.parametrize(
    "feedback, integrator",
    [("collocated", "splitting"), ("collocated", "rk4-crosscheck"), ("none", "splitting"),
     ("none", "rk4-crosscheck")],
)
def test_last_step_always_recorded(h1, rng, feedback, integrator):
    # 10 steps sampled every 4th: samples at steps 0, 4, 8 and the last one, 10
    st = random_state(4, rng)
    cfg = SimConfig(n_modes=4, t_final=1.0, dt=0.1, feedback=feedback, integrator=integrator,
                    sample_every=4, record_modes=True)
    if feedback == "collocated":
        ts = simulate_closed(st, h1, cfg)
    else:
        ts = simulate_open(st, h1, InputSignal.constant(0.5, 1.0), cfg)
    assert np.allclose(ts.t, [0.0, 0.4, 0.8, 1.0], rtol=1e-15)
    assert np.array_equal(ts.zeta[-1], ts.final_state.zeta)
    assert np.array_equal(ts.w[-1], ts.final_state.w)
