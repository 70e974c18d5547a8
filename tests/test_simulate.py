import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wavetank.profiles import coupling_vector
from wavetank.simulate import (
    InputSignal,
    ModalState,
    Segment,
    SimConfig,
    TimeSeries,
    _open_exact,
    domain_norm,
    simulate_closed,
    simulate_open,
    x_norm,
    x_norm_sq,
)
from wavetank.spectral import _closed_exact, eigenvalues, frequency

from substeps import expm_states, open_loop_states, rk4_states

MU1 = 0.8726936208978296
DOMNORM_MODE1 = 1.1582831322011637  # sqrt(lambda_1 + lambda_1^2)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


def random_state(n, rng):
    return ModalState(rng.standard_normal(n), rng.standard_normal(n))


def rk4_norms(state0, b, control, cfg):
    """Energy norm of each RK4 state at the sample times of ``cfg``."""
    n = cfg.n_modes
    rows = rk4_states(state0, b, control, cfg.dt, cfg.times)
    return np.array([x_norm(ModalState(row[:n], row[n:])) for row in rows])


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


# -- limits of the closed loop: free rotation and one damped mode ---------------


def closed_run(state, b, t_final, dt, sample_every=1):
    cfg = SimConfig(n_modes=state.n_modes, t_final=t_final, dt=dt, sample_every=sample_every, record_modes=True)
    return simulate_closed(state, b, cfg)


def test_rotation_identity_at_zero(rng):
    # the first sample is the initial state as given, coupled or not
    st = random_state(5, rng)
    for b in (np.zeros(5), rng.standard_normal(5)):
        ts = closed_run(st, b, 1.0, 0.1, 3)
        assert np.array_equal(ts.zeta[0], st.zeta)
        assert np.array_equal(ts.w[0], st.w)


def test_rotation_full_period():
    # with zero coupling the loop is the free rotation, back after one period
    period = 2 * math.pi / frequency(1)
    ts = closed_run(ModalState.single_mode(1, 1), [0.0], period, period / 1000, 1000)
    assert ts.final_state.zeta[0] == pytest.approx(1.0, abs=1e-12)
    assert ts.final_state.w[0] == pytest.approx(0.0, abs=1e-12)


def test_rotation_isometry(rng):
    st = random_state(12, rng)
    ts = closed_run(st, np.zeros(12), 37.0, 0.37)
    lam = eigenvalues(12)
    energies = ts.zeta**2 @ lam + np.sum(ts.w**2, axis=1)
    assert np.max(np.abs(energies - energies[0])) <= 1e-13 * energies[0]


def test_damping_zero_coupling_is_identity(rng):
    # no coupling draws no feedback, and no energy leaves
    st = random_state(4, rng)
    ts = closed_run(st, np.zeros(4), 5.0, 0.5)
    assert np.all(ts.u == 0.0)
    assert np.max(np.abs(ts.energy - ts.energy[0])) <= 1e-14 * ts.energy[0]


def test_damping_eigenvector_decay(h1):
    # one mode from (1, 0): zeta'' + q zeta' + lambda zeta = 0, with a = -q/2
    # and omega^2 = lambda - a^2, gives zeta = e^{a t} (cos(omega t) - (a/omega) sin(omega t))
    # and w = -(lambda/omega) e^{a t} sin(omega t)
    q = coupling_vector(h1, 1)[0] ** 2
    lam = eigenvalues(1)[0]
    a, omega = -q / 2, math.sqrt(lam - q * q / 4)
    ts = closed_run(ModalState.single_mode(1, 1), coupling_vector(h1, 1), 50.0, 0.05, 10)
    decay, c, s = np.exp(a * ts.t), np.cos(omega * ts.t), np.sin(omega * ts.t)
    assert np.allclose(ts.zeta[:, 0], decay * (c - (a / omega) * s), rtol=0.0, atol=1e-13)
    assert np.allclose(ts.w[:, 0], -(lam / omega) * decay * s, rtol=0.0, atol=1e-13)


def test_damping_orthogonal_kernel():
    # a mode the coupling does not reach rotates freely beside a damped one,
    # and draws the other in not at all
    mu1 = frequency(1)
    ts = closed_run(ModalState.single_mode(1, 2), [0.0, 0.3], 20.0, 0.02, 10)
    assert np.allclose(ts.zeta[:, 0], np.cos(mu1 * ts.t), rtol=0.0, atol=1e-13)
    assert np.allclose(ts.w[:, 0], -mu1 * np.sin(mu1 * ts.t), rtol=0.0, atol=1e-13)
    assert np.all(ts.zeta[:, 1] == 0.0) and np.all(ts.w[:, 1] == 0.0) and np.all(ts.u == 0.0)


def test_damping_never_expands(h1, rng):
    # the energies of the sampled states themselves, not only their running
    # minimum, rise by rounding at most [measured: none rose in 200 draws]
    b = coupling_vector(h1, 8)
    lam = eigenvalues(8)
    for _ in range(20):
        ts = closed_run(random_state(8, rng), b, 5.0, 0.05)
        energies = ts.zeta**2 @ lam + np.sum(ts.w**2, axis=1)
        assert np.all(np.diff(energies) <= 1e-15 * energies[0])


def test_damping_rejects_negative_tau():
    # the loop runs forward only: a negative step or horizon is refused
    for t_final, dt in ((1.0, -0.1), (-1.0, 0.1), (-1.0, -0.1)):
        with pytest.raises(ValueError):
            SimConfig(n_modes=2, t_final=t_final, dt=dt)


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
    b1 = coupling_vector(h1, 1)[0]
    rate = -math.log(ts.energy[-1] / ts.energy[0]) / 100.0
    assert rate == pytest.approx(b1**2, rel=0.02)


def test_closed_loop_rk4_crosscheck_agrees(h1, rng):
    st = random_state(8, rng)
    cfg = SimConfig(n_modes=8, t_final=10.0, dt=1e-3, sample_every=100)
    b = coupling_vector(h1, 8)
    ts_s = simulate_closed(st, h1, cfg)
    rk4 = rk4_norms(st, b, lambda t, w: -float(np.dot(b, w)), cfg)
    assert np.max(np.abs(ts_s.x_norm - rk4)) <= 1e-6 * ts_s.x_norm[0]


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


def test_closed_loop_final_state_does_not_depend_on_dt(h1, rng):
    # dt only sets the sample grid: the same horizon on three grids
    st = random_state(8, rng)
    lam = eigenvalues(8)

    def final_state(dt):
        cfg = SimConfig(n_modes=8, t_final=5.0, dt=dt, sample_every=10**9)
        return simulate_closed(st, h1, cfg).final_state

    ref = final_state(1.25e-3)
    for dt in (1e-2, 5e-3):
        state = final_state(dt)
        dz, dw = state.zeta - ref.zeta, state.w - ref.w
        assert math.sqrt(float(lam @ dz**2 + dw @ dw)) <= 1e-12 * x_norm(ref)


def exceptional_coupling(n):
    """A coupling whose closed loop has a double real root s0: -mu_1 at N = 1
    (b_1^2 = 2 mu_1), else halfway between -mu_2 and -mu_1, where f(s0) = 0 and
    f'(s0) = sum_j b_j^2 (lambda_j - s0^2) / (s0^2 + lambda_j)^2 = 0 fix b_1^2 and
    b_2^2 given b_j = 0.3 for j > 2."""
    lam = eigenvalues(n)
    if n == 1:
        return np.array([math.sqrt(2.0 * math.sqrt(lam[0]))])
    s0 = -(math.sqrt(lam[0]) + math.sqrt(lam[1])) / 2
    rest = np.full(n - 2, 0.3**2)
    den = s0 * s0 + lam
    lhs = np.array([1.0 / den[:2], (lam[:2] - s0 * s0) / den[:2] ** 2])
    rhs = [-1.0 / s0 - np.sum(rest / den[2:]), -np.sum(rest * (lam[2:] - s0 * s0) / den[2:] ** 2)]
    return np.sqrt(np.r_[np.linalg.solve(lhs, rhs), rest])


def mpmath_states(b, state0, times):
    """States [zeta; w] at ``times`` from mpmath's exponential of the generator, 30 digits."""
    n = state0.n_modes
    lam = eigenvalues(n)
    with mpmath.workdps(30):
        gen = mpmath.zeros(2 * n, 2 * n)
        for i in range(n):
            gen[i, n + i], gen[n + i, i] = 1, -mpmath.mpf(float(lam[i]))
            for j in range(n):
                gen[n + i, n + j] = -mpmath.mpf(float(b[i])) * mpmath.mpf(float(b[j]))
        z0 = mpmath.matrix([mpmath.mpf(float(x)) for x in np.r_[state0.zeta, state0.w]])
        return np.array([[float(x) for x in mpmath.expm(gen * mpmath.mpf(float(t))) * z0] for t in times])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_loop_at_exceptional_point(rng, n):
    # where two roots meet, the pair's divided differences stay a basis
    # [measured: 1.3e-15 of the state at most]
    b = exceptional_coupling(n)
    st = random_state(n, rng)
    ts = closed_run(st, b, 20.0, 0.01, 500)
    ref = mpmath_states(b, st, ts.t)
    assert np.max(np.abs(np.hstack([ts.zeta, ts.w]) - ref)) <= 1e-12 * np.max(np.abs(ref[0]))
    assert np.all(np.diff(ts.energy) <= 0.0)


@pytest.mark.parametrize("scale", [100.0, 1000.0])
def test_closed_loop_strong_coupling_matches_exponential(h1, scale):
    # h1 x100 and x1000 at N = 100, where a splitting step of 5e-3 was 1.3e-4
    # and 5.5e-4 off at t = 1 [measured: 4.9e-13 and 2.0e-11 of the state; the
    # latter is mostly the reference's own squaring error, 5e-11 off mpmath at N = 20]
    n = 100
    b = scale * coupling_vector(h1, n)
    rng = np.random.default_rng(12)
    z = rng.standard_normal(2 * n) / np.arange(1, 2 * n + 1)
    st = ModalState(z[:n], z[n:])
    ts = closed_run(st, b, 1.0, 5e-3, 200)
    ref = expm_states(b, st, [1.0])[0]
    assert x_norm(ModalState(ts.final_state.zeta - ref[:n], ts.final_state.w - ref[n:])) <= 1e-10 * x_norm(st)
    assert np.all(np.diff(ts.energy) <= 0.0)


def test_closed_loop_at_log_spaced_times(h1):
    # the exact loop at times no uniform grid holds: 0 and 61 log-spaced times
    # up to 1e4, against the dense exponential [measured: 4.5e-13 of |z0|]
    n = 8
    b = coupling_vector(h1, n)
    rng = np.random.default_rng(3)
    st = ModalState(rng.standard_normal(n), rng.standard_normal(n))
    times = np.r_[0.0, np.logspace(-2, 4, 61)]
    states = _closed_exact(b, np.r_[st.zeta, st.w])(times)
    for row, want in zip(states, expm_states(b, st, times)):
        assert x_norm(ModalState(row[:n] - want[:n], row[n:] - want[n:])) <= 1e-10 * x_norm(st)


@pytest.mark.parametrize("loop", ["closed", "open"])
def test_exact_loops_at_times_not_from_zero(h1, loop):
    # each loop is a function of time: at times that do not start at 0 it
    # matches the dense exponential or the Duhamel quadrature. |z0| + |b|
    # int |u| bounds every state, and int_0^1e3 |u| <= 30 [measured: 1.9e-13 of
    # that bound closed, 2.5e-16 open]
    n = 6
    b = coupling_vector(h1, n)
    rng = np.random.default_rng(5)
    st = ModalState(rng.standard_normal(n), rng.standard_normal(n))
    times = np.array([1.0, 2.0, 37.5, 1e3])
    if loop == "closed":
        states, want = _closed_exact(b, np.r_[st.zeta, st.w])(times), expm_states(b, st, times)
    else:
        signal = InputSignal([Segment(0.0, 30.0, "sinusoid", amplitude=1.0, omega=1.3, phase=0.2),
                              Segment(30.0, 1e3, "zero")])
        states, want = _open_exact(st, b, signal)(times), open_loop_states(st, b, signal, times)
    size = x_norm(st) + 30.0 * np.linalg.norm(b)
    errors = [x_norm(ModalState(row[:n] - ref[:n], row[n:] - ref[n:])) / size for row, ref in zip(states, want)]
    assert len(states) == len(times) and max(errors) <= 1e-10


@pytest.mark.parametrize("tiny", [1e-100, 1e-150])
def test_closed_loop_tiny_coupling_rotates(tiny):
    # b_1^2 of 1e-200 or 1e-300 is live, not deflated, though its pair's squares
    # underflow: mode 1 rotates and keeps its energy [measured: 2.2e-16, 5.6e-16]
    mu1 = frequency(1)
    ts = closed_run(ModalState.single_mode(1, 2), [tiny, 0.3], 100.0, 0.01, 100)
    assert np.allclose(ts.zeta[:, 0], np.cos(mu1 * ts.t), rtol=0.0, atol=1e-12)
    assert np.max(np.abs(ts.energy - ts.energy[0])) <= 1e-12 * ts.energy[0]


def test_simulate_closed_config_mismatches(h1):
    cfg = SimConfig(n_modes=4, t_final=1.0)
    with pytest.raises(ValueError, match="truncation"):
        simulate_closed(ModalState.zero(3), h1, cfg)


# -- open loop ---------------------------------------------------------------


def test_open_loop_conservation(h1, rng):
    st = random_state(16, rng)
    cfg = SimConfig(n_modes=16, t_final=20.0, dt=1e-3, sample_every=500)
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
    cfg = SimConfig(n_modes=n, t_final=n_steps * dt, dt=dt, sample_every=sample_every)
    ts = simulate_open(state, h1, InputSignal.zero(cfg.t_final), cfg)
    assert np.max(np.abs(ts.x_norm - ts.x_norm[0])) <= 8 * np.spacing(ts.x_norm[0])


def test_open_loop_resonance_matches_oscillator(h1):
    # u = cos(omega t) from rest, sigma = omega + mu, delta = omega - mu,
    # S = sin(delta t/2)/(delta t/2), by product-to-sum on the Duhamel solution:
    # zeta_1(t) = b_1 t sin(sigma t/2) S/sigma, w_1(t) = b_1 (mu t cos(sigma t/2) S + sin(omega t))/sigma;
    # at delta = 0, zeta_1 = b_1 t sin(mu t)/(2 mu) and w_1 = b_1 (t cos(mu t)/2 + sin(mu t)/(2 mu))
    mu = frequency(1)
    T = 50.0
    cfg = SimConfig(n_modes=4, t_final=T, dt=1e-3, sample_every=50000)
    b1 = coupling_vector(h1, 4)[0]
    for omega in (mu, mu * (1.0 + 1e-9)):  # resonant and near-resonant
        ts = simulate_open(ModalState.zero(4), h1, InputSignal.sinusoid(1.0, omega, T), cfg)
        sigma, delta = omega + mu, omega - mu
        S = float(np.sinc(delta * T / (2 * math.pi)))
        zeta_exact = b1 * T * math.sin(sigma * T / 2) * S / sigma
        w_exact = b1 * (mu * T * math.cos(sigma * T / 2) * S + math.sin(omega * T)) / sigma
        assert ts.final_state.zeta[0] == pytest.approx(zeta_exact, abs=1e-12)
        assert ts.final_state.w[0] == pytest.approx(w_exact, abs=1e-12)
        # amplitude grows ~ |b_1| t / 2
        amp = math.sqrt(eigenvalues(4)[0] * ts.final_state.zeta[0] ** 2 + ts.final_state.w[0] ** 2)
        assert amp == pytest.approx(abs(b1) * T / 2, rel=0.05)


def test_open_loop_rk4_crosscheck(h1, rng):
    st = random_state(6, rng)
    sig = InputSignal.sinusoid(0.3, 1.1, 5.0)
    cfg = SimConfig(n_modes=6, t_final=5.0, dt=1e-3, sample_every=1000)
    ts_s = simulate_open(st, h1, sig, cfg)
    rk4 = rk4_norms(st, coupling_vector(h1, 6), lambda t, w: sig.at(t), cfg)
    assert np.max(np.abs(ts_s.x_norm - rk4)) <= 1e-6 * ts_s.x_norm[0]


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
    # a parameter the form does not read is an error, not a silent 0 input
    for form, field in [("zero", "value"), ("zero", "omega"), ("constant", "amplitude"), ("constant", "phase"),
                        ("sinusoid", "value")]:
        with pytest.raises(ValueError, match=f"^a {form} segment ignores {field}=2.0$"):
            Segment(0, 1, form, **{field: 2.0})
    assert Segment(0, 1, "sinusoid", value=0.0, amplitude=1.0)(0.0) == 1.0  # an explicit 0 is accepted


@pytest.mark.parametrize("field", ["t_start", "t_end", "value", "amplitude", "omega", "phase"])
@pytest.mark.parametrize("bad", [True, None, "1.5"], ids=["bool", "None", "text"])
def test_segment_numbers_are_ints_or_floats(field, bad):
    # a bool counted as a number, so a value of True drove the tank with u = 1
    kwargs = {"t_start": 0, "t_end": 1, "form": "sinusoid", field: bad}
    with pytest.raises(ValueError, match=f"^segment {field} must be an int or a float, got {re.escape(repr(bad))}$"):
        Segment(**kwargs)


def test_segment_numbers_are_stored_as_floats():
    seg = Segment(np.int64(0), 2, "sinusoid", amplitude=np.float32(0.5), omega=np.float64(3.0), phase=1)
    numbers = ("t_start", "t_end", "value", "amplitude", "omega", "phase")
    assert all(type(getattr(seg, name)) is float for name in numbers)
    assert seg == Segment(0.0, 2.0, "sinusoid", amplitude=0.5, omega=3.0, phase=1.0)
    # a zero segment is u = 0 whatever the sign of a zero it does not read
    assert math.copysign(1.0, Segment(0, 1, "zero", value=-0.0)(0.5)) == 1.0
    assert math.copysign(1.0, Segment(0, 1, "constant", value=-0.0)(0.5)) == -1.0


def test_signal_validation_errors():
    # a malformed list of segments fails when the signal is built
    with pytest.raises(ValueError, match="overlap"):
        InputSignal([Segment(0, 1, "zero"), Segment(0.5, 2, "zero")])
    with pytest.raises(ValueError, match="gap"):
        InputSignal([Segment(0, 1, "zero"), Segment(1.5, 2, "zero")])
    with pytest.raises(ValueError, match="start"):
        InputSignal([Segment(0.5, 2, "zero")])
    with pytest.raises(ValueError, match="no segments"):
        InputSignal([])
    with pytest.raises(ValueError, match="gap"):
        InputSignal.constant(1.0, 1.0).concat(2.0, InputSignal.zero(1.0))
    with pytest.raises(ValueError, match=r"^tau must be >= 0, got -0\.5$"):
        InputSignal.zero(1.0).concat(-0.5, InputSignal.zero(1.0))
    for tau in (math.nan, math.inf):  # NaN failed as "segment needs t_end > t_start, got [nan, nan]"
        with pytest.raises(ValueError, match=f"^tau must be finite, got {tau}$"):
            InputSignal.zero(1.0).concat(tau, InputSignal.zero(1.0))


# the parameters each segment form reads
FORM_READS = {"zero": (), "constant": ("value",), "sinusoid": ("amplitude", "omega", "phase")}


@st.composite
def contiguous_signals(draw, t_end=None):
    """1-6 contiguous segments of every form from 0 to ``t_end`` (drawn when None),
    each with the parameters its form reads."""
    if t_end is None:
        t_end = draw(st.floats(1e-2, 50.0))
    weights = np.cumsum(draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6)))
    edges = [0.0, *(t_end * weights[:-1] / weights[-1]), t_end]
    params = {"value": st.floats(-2.0, 2.0), "amplitude": st.floats(-2.0, 2.0), "omega": st.floats(0.0, 5.0),
              "phase": st.floats(-math.pi, math.pi)}
    segments = []
    for lo, hi in zip(edges, edges[1:]):
        form = draw(st.sampled_from(list(FORM_READS)))
        segments.append(Segment(lo, hi, form, **{name: draw(params[name]) for name in FORM_READS[form]}))
    return InputSignal(draw(st.permutations(segments)))


def first_match(signal, t):
    """The lookup that bisection replaced: the first segment holding t, the last
    segment past the end, and 0 anywhere else."""
    for seg in signal.segments:
        if seg.t_start <= t < seg.t_end:
            return seg(t)
    if signal.segments and t >= signal.segments[-1].t_end:
        return signal.segments[-1](t)
    return 0.0


@settings(max_examples=200, deadline=None, database=None)
@given(signal=contiguous_signals(), data=st.data())
def test_signal_lookup_matches_first_match(signal, data):
    ends = [seg.t_end for seg in signal.segments]
    times = [0.0, *ends, *(0.5 * (seg.t_start + seg.t_end) for seg in signal.segments)]
    times += [ends[-1] + data.draw(st.floats(0.0, 100.0)), data.draw(st.floats(0.0, ends[-1]))]
    times += [seg.t_start for seg in signal.segments]
    want = np.array([first_match(signal, t) for t in times], dtype=float)
    # the array evaluation, in the drawn order and shuffled, bit for bit
    order = data.draw(st.permutations(range(len(times))))
    for idx in (list(range(len(times))), order):
        got = signal.at(np.array(times)[idx])
        assert np.array_equal(got.view(np.int64), want[idx].view(np.int64))
    for t, value in zip(times, want):
        assert np.float64(signal.at(t)).view(np.int64) == value.view(np.int64)


@st.composite
def open_loop_runs(draw):
    """Truncation up to 48, state, step, a multi-segment signal, and sample_every
    drawn from non-divisors of the step count and from values above it."""
    n = draw(st.integers(1, 48))
    n_steps = draw(st.integers(1, 4000))
    sample_every = draw(
        st.one_of(
            st.integers(1, n_steps).filter(lambda m: n_steps % m != 0),
            st.integers(n_steps + 1, 2 * n_steps + 10),
        )
    )
    dt = draw(st.floats(1e-3, 0.1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = ModalState(rng.standard_normal(n), rng.standard_normal(n)) if draw(st.booleans()) else ModalState.zero(n)
    return state, draw(contiguous_signals(n_steps * dt)), n_steps * dt, dt, sample_every


@settings(max_examples=60, deadline=None, database=None)
@given(open_loop_runs())
@example((ModalState.zero(48), InputSignal([Segment(0.0, 2.0, "sinusoid", amplitude=1.5, omega=2.0, phase=0.3),
                                            Segment(2.0, 4.0, "zero"), Segment(4.0, 5.5, "constant", value=-1.0)]),
          5.5, 1e-3, 3001))  # each sample interval crosses a seam; the sample at 3.001 lies in the zero segment
@example((ModalState.zero(3), InputSignal([Segment(-1.0, -0.5, "constant", value=1.0),
                                           Segment(-0.5, 0.3, "sinusoid", amplitude=1.0, omega=2.0),
                                           Segment(0.3, 1.0, "constant", value=-0.5)]),
          1.0, 1e-2, 7))  # segments before t = 0 drive nothing
# mu_1 * 7.2 is within 2e-4 of 2 pi: the final state cancels to 5.5e-6, 1e-4 of the largest one on the way
@example((ModalState.zero(1), InputSignal([Segment(0.0, 144 * 0.05, "constant", value=1.0)]), 144 * 0.05, 0.05, 145))
def test_open_loop_matches_per_step_reference(h1, run):
    state, signal, t_final, dt, sample_every = run
    n = state.n_modes
    cfg = SimConfig(n_modes=n, t_final=t_final, dt=dt, sample_every=sample_every, record_modes=True)
    ts = simulate_open(state, h1, signal, cfg)
    b = coupling_vector(h1, n)
    ref = open_loop_states(state, b, signal, cfg.times)
    lam = eigenvalues(n)

    def norms(z):
        return np.sqrt(z[:, :n] ** 2 @ lam + np.sum(z[:, n:] ** 2, axis=1))

    # the free motion keeps the norm and the input adds at most |b| |u| to its
    # rate, so |z0| + |b| int_0^T |u| bounds every state the run passes through,
    # where a sample may be a state that cancels
    t = np.linspace(0.0, t_final, 100_001)
    size = norms(np.r_[state.zeta, state.w][None])[0] + np.linalg.norm(b) * np.trapezoid(np.abs(signal.at(t)), t)
    err = norms(np.hstack([ts.zeta, ts.w]) - ref)
    assert np.max(err) <= 5e-12 * size
    assert np.array_equal(ts.t, cfg.times)
    assert np.array_equal(ts.u, [signal.at(t) for t in ts.t])
    assert np.allclose(ts.x_norm, norms(ref), rtol=1e-12, atol=1e-12 * size)


def test_open_loop_at_random_times(h1):
    # the exact loop at 40 sorted random times in [0, 60], across both seams,
    # against the Duhamel quadrature [measured: 7.2e-16 of the largest norm]
    n = 6
    b = coupling_vector(h1, n)
    rng = np.random.default_rng(8)
    state = ModalState(rng.standard_normal(n), rng.standard_normal(n))
    signal = InputSignal([Segment(0.0, 17.3, "sinusoid", amplitude=1.2, omega=1.1, phase=0.4),
                          Segment(17.3, 41.0, "constant", value=-0.7), Segment(41.0, 60.0, "zero")])
    times = np.r_[0.0, np.sort(rng.uniform(0.0, 60.0, 39))]
    assert np.any(times < 17.3) and np.any((17.3 < times) & (times < 41.0)) and np.any(times > 41.0)
    states = _open_exact(state, b, signal)(times)
    lam = eigenvalues(n)

    def norms(z):
        return np.sqrt(z[:, :n] ** 2 @ lam + np.sum(z[:, n:] ** 2, axis=1))

    # |z0| + |b| int_0^60 |u| bounds every state, as in the per-step reference test
    t = np.linspace(0.0, 60.0, 100_001)
    size = norms(np.r_[state.zeta, state.w][None])[0] + np.linalg.norm(b) * np.trapezoid(np.abs(signal.at(t)), t)
    assert np.max(norms(states - open_loop_states(state, b, signal, times))) <= 5e-12 * size


@settings(max_examples=40, deadline=None, database=None)
@given(open_loop_runs(), st.integers(2, 4))
def test_open_loop_samples_do_not_depend_on_step(h1, run, k):
    # the samples are exact, so a step k times finer with sample_every k times
    # larger gives the same states at the same times
    state, signal, t_final, dt, sample_every = run
    n = state.n_modes
    lam = eigenvalues(n)

    def states(step, every):
        cfg = SimConfig(n_modes=n, t_final=t_final, dt=step, sample_every=every, record_modes=True)
        ts = simulate_open(state, h1, signal, cfg)
        return ts.t, ts.zeta, ts.w

    t, zeta, w = states(dt, sample_every)
    t_fine, zeta_fine, w_fine = states(dt / k, sample_every * k)
    assert np.allclose(t_fine, t, rtol=1e-13, atol=0.0)
    norms = np.sqrt(zeta**2 @ lam + np.sum(w**2, axis=1))
    err = np.sqrt((zeta_fine - zeta) ** 2 @ lam + np.sum((w_fine - w) ** 2, axis=1))
    assert np.max(err) <= 1e-12 * np.max(norms)


@st.composite
def concat_runs(draw):
    """Truncation, step, and u on [0, tau] and v on [0, t] with tau and t whole
    multiples of the step, at most 2000 steps in all."""
    n = draw(st.integers(1, 16))
    dt = draw(st.sampled_from([1e-3, 2e-3, 5e-3, 1e-2]))
    k_tau, k_t = draw(st.integers(1, 1000)), draw(st.integers(1, 1000))
    tau, t = k_tau * dt, k_t * dt
    return n, dt, tau, t, draw(contiguous_signals(tau)), draw(contiguous_signals(t))


def step_at_half(t):
    """+1 then -1, switching at t/2."""
    return InputSignal([Segment(0.0, t / 2, "constant", value=1.0), Segment(t / 2, t, "constant", value=-1.0)])


def concatenation_defect(h1, n, dt, tau, t, u, v):
    """Energy norm of the open loop's failure to be linear and time-invariant:
    driving with u then v from zero, against u's state rotated freely over t
    plus v's response from zero."""
    lam = eigenvalues(n)

    def run(signal, t_final, state):
        cfg = SimConfig(n_modes=n, t_final=t_final, dt=dt, sample_every=10**9)
        return simulate_open(state, h1, signal, cfg).final_state

    lhs = run(u.concat(tau, v), tau + t, ModalState.zero(n))
    mid = run(u, tau, ModalState.zero(n))
    rotated = run(InputSignal.zero(t), t, mid)
    driven = run(v, t, ModalState.zero(n))
    dz = rotated.zeta + driven.zeta - lhs.zeta
    dw = rotated.w + driven.w - lhs.w
    return math.sqrt(float(lam @ dz**2 + dw @ dw))


@settings(max_examples=40, deadline=None, database=None)
@given(concat_runs())
@example((8, 1e-3, 1.0, 0.5, InputSignal.sinusoid(0.7, 1.3, 1.0, phase=0.2), InputSignal.constant(0.5, 0.5)))
# a seam halfway between steps 26 and 27, whose time rounds differently once shifted by 3 steps
@example((4, 5e-3, 3 * 5e-3, 53 * 5e-3, InputSignal.zero(3 * 5e-3), step_at_half(53 * 5e-3)))
def test_open_loop_concatenation_identity(h1, case):
    # roundoff only: 400 draws gave at most 1.5e-15
    assert concatenation_defect(h1, *case) <= 1e-12


def test_open_loop_seam_on_midpoint_takes_later_segment(h1):
    # a seam at t/2 with an odd step count lies halfway between two steps, and
    # each shift rounds its time either way: every shift must give the state
    # of the unshifted run
    dt, k_t = 5e-3, 53
    v = step_at_half(k_t * dt)
    defects = [concatenation_defect(h1, 4, dt, k * dt, k_t * dt, InputSignal.zero(k * dt), v) for k in range(1, 400)]
    assert max(defects) <= 1e-12


def test_signal_table_matches_each_segment_bit_for_bit():
    # 1,000 segments of every form, each evaluated on its own span and by the
    # table, as drawn and shifted by tau, as concat shifts them
    rng = np.random.default_rng(5)
    edges = np.r_[0.0, np.cumsum(rng.uniform(0.01, 0.2, 1000))]
    forms = rng.choice(["zero", "constant", "sinusoid"], edges.size - 1)
    values = rng.uniform(-2.0, 2.0, (edges.size - 1, 4))
    drawn = []
    for lo, hi, form, (v, a, w, p) in zip(edges, edges[1:], forms, values):
        params = {"value": v, "amplitude": a, "omega": 5.0 * abs(w), "phase": p}
        drawn.append(Segment(lo, hi, str(form), **{name: params[name] for name in FORM_READS[form]}))
    times = np.concatenate([rng.uniform(lo, hi, 8) for lo, hi in zip(edges, edges[1:])])
    signal = InputSignal(drawn)
    for tau in (0.0, 0.3, 17.25):
        segments, t = drawn, times
        if tau:  # a zero head on [0, tau), sampled 8 times, then every segment delayed by concat
            segments = InputSignal.zero(tau).concat(tau, signal).segments
            t = np.r_[np.linspace(0.0, tau, 8, endpoint=False), times + tau]
            assert all(seg.phase == 0.0 for seg in segments if seg.form != "sinusoid")  # omega = 0 keeps phase = 0
        want = np.concatenate([seg(part) for seg, part in zip(segments, np.split(t, 8 * np.arange(1, len(segments))))])
        assert np.array_equal(InputSignal(segments).at(t).view(np.int64), want.view(np.int64))


def test_signal_unsorted_segments_sorted_at_construction():
    sig = InputSignal([Segment(1, 2, "constant", value=2.0), Segment(0, 1, "constant", value=1.0)])
    assert [s.t_start for s in sig.segments] == [0, 1]
    assert sig.at(0.5) == 1.0
    assert sig.at(2.0) == 2.0  # past the end: the last segment in time, not in the list


def test_signal_concat_semantics():
    u = InputSignal.constant(1.0, 2.0)
    v = InputSignal.sinusoid(2.0, 3.0, 1.0, phase=0.1)
    c = u.concat(1.5, v)
    assert c.segments[-1].t_end == 2.5
    assert c.at(1.0) == 1.0
    # v is evaluated in its own clock: c(t) = v(t - tau) for t >= tau
    assert c.at(2.0) == pytest.approx(2.0 * math.cos(3.0 * 0.5 + 0.1))


def test_open_loop_needs_the_signal_to_reach_t_final(h1):
    # reaching the horizon is the one check left to the simulation, within 1e-12
    cfg = SimConfig(n_modes=2, t_final=2.0, dt=0.5)
    with pytest.raises(ValueError, match=r"^input signal ends at 1\.0 before t_final=2\.0$"):
        simulate_open(ModalState.zero(2), h1, InputSignal.constant(1.0, 1.0), cfg)
    ts = simulate_open(ModalState.zero(2), h1, InputSignal.constant(1.0, 2.0 - 1e-13), cfg)
    assert ts.t[-1] == 2.0 and ts.u[-1] == 1.0  # the last segment serves every later time


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
        dict(n_modes=2, t_final=math.nan),
        dict(n_modes=2.5, t_final=1.0),
        dict(n_modes=2, t_final=1.0, sample_every=0),
        dict(n_modes=2, t_final=1e300, dt=1e-300),
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


@settings(max_examples=100, deadline=None, database=None)
@given(recorded_series())
def test_time_series_csv_without_modes_bit_identical(tmp_path_factory, ts):
    path = tmp_path_factory.getbasetemp() / "leading.csv"
    ts.to_csv(path)
    full, lead = TimeSeries.from_csv(path), TimeSeries.from_csv(path, modes=False)
    for name in ("t", "x_norm", "energy", "u"):
        assert np.array_equal(getattr(lead, name).view(np.int64), getattr(full, name).view(np.int64)), name
    assert lead.zeta is None and lead.w is None and lead.final_state is None


def test_time_series_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,norm\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        TimeSeries.from_csv(path)
    path.write_text("t,x_norm,energy,u\n")
    with pytest.raises(ValueError, match="no samples"):
        TimeSeries.from_csv(path)
    # placed by name prefix, the swapped columns would load zeta_1 = 7 as 5, and
    # zeta without w would load and then fail to write back
    for text in ("t,x_norm,energy,u,zeta_2,zeta_1,w_1,w_2\n0,1,1,0,5,7,0,0\n", "t,x_norm,energy,u,zeta_1\n0,1,1,0,7\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match=r"^malformed time-series CSV .*: expected zeta_1\.\.zeta_N, w_1\.\.w_N after u$"):
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


def test_single_mode_index_is_a_count():
    # 1.5 raised numpy's IndexError, and True gave mode 1
    for k in (1.5, True):
        with pytest.raises(ValueError, match=f"^mode index must be an integer, got {k}$"):
            ModalState.single_mode(k, 4)
    with pytest.raises(ValueError, match="^mode index must be >= 1, got 0$"):
        ModalState.single_mode(0, 4)
    assert ModalState.single_mode(np.int64(2), 4).zeta.tolist() == [0.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("feedback", ["collocated", "none"], ids=["collocated-splitting", "none-splitting"])
def test_last_step_always_recorded(h1, rng, feedback):
    # 10 steps sampled every 4th: samples at steps 0, 4, 8 and the last one, 10
    st = random_state(4, rng)
    cfg = SimConfig(n_modes=4, t_final=1.0, dt=0.1, sample_every=4, record_modes=True)
    if feedback == "collocated":
        ts = simulate_closed(st, h1, cfg)
    else:
        ts = simulate_open(st, h1, InputSignal.constant(0.5, 1.0), cfg)
    assert np.allclose(ts.t, [0.0, 0.4, 0.8, 1.0], rtol=1e-15)
    assert np.array_equal(ts.zeta[-1], ts.final_state.zeta)
    assert np.array_equal(ts.w[-1], ts.final_state.w)


@pytest.mark.parametrize(
    "t_final, dt, last",
    [(1.0, 0.6, 0.6), (0.3, 0.1, 0.30000000000000004), (2.5, 1.0, 2.0)],
)
def test_no_sample_past_t_final(t_final, dt, last):
    # the last sample is the last grid point at or before t_final, within the
    # rounding of k dt: 1/0.6 rounded to 2 points and sampled t = 1.2, and 2.5
    # to 2 (half to even) only by luck; 0.3/0.1 = 2.9999999999999996 keeps 3 dt
    assert SimConfig(4, t_final, dt).times[-1] == last


def test_sample_every_past_int64_samples_first_and_last(h1):
    # a stride past int64 samples the first and the last time, as a stride of
    # the whole grid does
    cfg = SimConfig(n_modes=4, t_final=1.0, dt=0.1, sample_every=10**40)
    assert cfg.times.tolist() == [0.0, 1.0]
    state0 = ModalState.single_mode(1, 4)
    ts = simulate_closed(state0, h1, cfg)
    whole = simulate_closed(state0, h1, SimConfig(n_modes=4, t_final=1.0, dt=0.1, sample_every=10))
    assert ts.t.tolist() == [0.0, 1.0]
    assert np.array_equal(ts.x_norm, whole.x_norm) and np.array_equal(ts.final_state.w, whole.final_state.w)
