import math
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wavetank import _blocks, spectral
from wavetank._blocks import blocks
from wavetank.profiles import WavemakerProfile, coupling_vector
from wavetank.simulate import (
    ModalState,
    SimConfig,
    TimeSeries,
    domain_norm,
    simulate_closed,
    x_norm,
    x_norm_sq,
)
from wavetank.spectral import _closed_loop_pairs, _closed_loop_roots, eigenvalues, frequency
from wavetank.stability import (
    decay_fit,
    envelope_check,
    rate_vs_n_study,
    smooth_initial_state,
    spectral_abscissa,
    study_to_csv,
)

from substeps import expm_states
from test_profiles import cancelling_profile


def synthetic_series(fn, t_hi=50.0, n=501):
    t = np.linspace(0.0, t_hi, n)
    x = fn(t)
    return TimeSeries(t=t, x_norm=x, energy=x**2, u=np.zeros_like(t))


# -- decay fits ----------------------------------------------------------------


def test_decay_fit_exponential():
    series = synthetic_series(lambda t: 2.0 * np.exp(-0.3 * t))
    fit = decay_fit(series, (0.0, 50.0), "exponential")
    assert fit.fitted_value == pytest.approx(0.3, abs=1e-9)
    assert fit.residual_rms <= 1e-12
    assert fit.model == "exponential"


def test_decay_fit_power_law():
    series = synthetic_series(lambda t: (1.0 + t) ** (-1.0 / 6.0))
    fit = decay_fit(series, (0.0, 50.0), "power")
    assert fit.fitted_value == pytest.approx(-1.0 / 6.0, abs=1e-9)
    assert fit.residual_rms <= 1e-12


def test_decay_fit_constant_series():
    series = synthetic_series(lambda t: np.full_like(t, 0.7))
    assert decay_fit(series, (0.0, 50.0), "exponential").fitted_value == pytest.approx(0.0, abs=1e-14)
    assert decay_fit(series, (0.0, 50.0), "power").fitted_value == pytest.approx(0.0, abs=1e-14)


def test_decay_fit_window_errors():
    series = synthetic_series(lambda t: np.exp(-t))
    with pytest.raises(ValueError, match="samples"):
        decay_fit(series, (0.0, 0.5), "exponential")
    with pytest.raises(ValueError, match="t_lo"):
        decay_fit(series, (2.0, 1.0), "exponential")
    # a window of numpy floats reads as plain floats
    with pytest.raises(ValueError, match=r"^window must satisfy t_lo < t_hi, got \(1\.0, 1\.0\)$"):
        decay_fit(series, (np.float64(1.0), np.float64(1.0)), "exponential")
    with pytest.raises(ValueError, match="model"):
        decay_fit(series, (0.0, 50.0), "loglog")
    dying = synthetic_series(lambda t: np.maximum(1.0 - t / 25.0, 0.0))
    with pytest.raises(ValueError, match="non-positive"):
        decay_fit(dying, (0.0, 50.0), "exponential")


@pytest.mark.parametrize("t0", [-3.0, -1.0], ids=["before-minus-one", "at-minus-one"])
def test_decay_fit_power_needs_times_above_minus_one(t0):
    # log(1+t) is undefined for t < -1 and -inf at t = -1: one ValueError,
    # no numpy warning and no failed SVD
    t = np.linspace(t0, t0 + 20.0, 41)
    series = TimeSeries(t=t, x_norm=np.exp(-0.1 * t), energy=np.exp(-0.2 * t), u=np.zeros_like(t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"power model needs t > -1"):
            decay_fit(series, (t0, t0 + 20.0), "power")
        decay_fit(series, (t0, t0 + 20.0), "exponential")
        decay_fit(series, (t0 + 2.5, t0 + 20.0), "power")


# -- envelope -------------------------------------------------------------------


def test_envelope_zero_series():
    series = synthetic_series(lambda t: np.zeros_like(t))
    rep = envelope_check(series, 1.0)
    assert rep.M_min == 0.0


def test_envelope_binding_everywhere():
    dn0 = 2.0
    series = synthetic_series(lambda t: dn0 * (1.0 + t) ** (-1.0 / 6.0))
    rep = envelope_check(series, dn0)
    assert rep.M_min == pytest.approx(1.0, rel=1e-14)


def test_envelope_scale_invariance():
    series = synthetic_series(lambda t: np.exp(-0.1 * t))
    base = envelope_check(series, 3.0)
    scaled = TimeSeries(
        t=series.t, x_norm=5.0 * series.x_norm, energy=25.0 * series.energy, u=series.u
    )
    rep = envelope_check(scaled, 15.0)
    assert rep.M_min == pytest.approx(base.M_min, rel=1e-14)
    assert rep.attained_at == base.attained_at


def test_envelope_rejects_bad_norm():
    series = synthetic_series(lambda t: np.exp(-t / 30))
    with pytest.raises(ValueError):
        envelope_check(series, 0.0)
    for bad in (math.inf, -math.inf, math.nan):  # an infinite norm would report M_min = 0
        with pytest.raises(ValueError, match="^domain_norm0 must be positive and finite, got "):
            envelope_check(series, bad)


@pytest.mark.parametrize("t0", [-3.0, -1.0], ids=["before-minus-one", "at-minus-one"])
def test_envelope_needs_times_above_minus_one(t0):
    # (1+t)^(1/6) is NaN for t < -1 and 0 at t = -1: one ValueError naming the
    # time, no numpy warning and no M_min = nan
    t = np.array([t0, 0.0, 1.0])
    series = TimeSeries(t=t, x_norm=np.ones(3), energy=np.ones(3), u=np.zeros(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^envelope needs t > -1, series holds t = {t0:g}$"):
            envelope_check(series, 1.0)
        assert envelope_check(TimeSeries(t=t[1:], x_norm=np.ones(2), energy=np.ones(2), u=np.zeros(2)), 1.0).M_min > 1


def test_envelope_needs_samples():
    # an empty series failed with numpy's "attempt to get argmax of an empty sequence"
    empty = TimeSeries(t=np.zeros(0), x_norm=np.zeros(0), energy=np.zeros(0), u=np.zeros(0))
    with pytest.raises(ValueError, match="^envelope needs samples, series holds none$"):
        envelope_check(empty, 1.0)


def test_envelope_lower_bound():
    # M_min can never undercut the initial ratio: the t=0 sample has weight 1
    series = synthetic_series(lambda t: 3.0 * np.exp(-t / 7.0))
    rep = envelope_check(series, 4.0)
    assert rep.M_min >= series.x_norm[0] / 4.0


# -- smooth initial data ---------------------------------------------------------


def test_smooth_initial_state_single_mode():
    st = smooth_initial_state(1, 3)
    assert domain_norm(st) == pytest.approx(1.0, rel=1e-14)
    assert st.w[0] == 0.0


def test_smooth_initial_state_large():
    st = smooth_initial_state(200, 3)
    assert domain_norm(st) == pytest.approx(1.0, abs=1e-12)
    assert x_norm(st) < 1.0
    ratios = st.zeta[1:] / st.zeta[:-1]
    k = np.arange(1, 200, dtype=float)
    assert np.allclose(ratios, (k / (k + 1)) ** 3, rtol=1e-12)


def test_smooth_initial_state_rejects_low_power():
    with pytest.raises(ValueError):
        smooth_initial_state(8, 1.5)


# -- oracle and step matrix -------------------------------------------------------


def test_spectral_abscissa_single_mode(h1):
    # N=1 closed form: roots of s^2 + b^2 s + lambda, complex pair with Re = -b^2/2
    b1 = coupling_vector(h1, 1)[0]
    assert spectral_abscissa(h1, 1) == pytest.approx(-b1**2 / 2, rel=1e-10)


def closed_loop_matrix(h, n_modes: int) -> np.ndarray:
    """Dense block matrix [[0, I], [-diag(lambda), -b b^T]] of the closed loop of ``h``,
    whose eigenvalues are the roots that :func:`spectral_abscissa` finds."""
    lam = eigenvalues(n_modes)
    b = coupling_vector(h, n_modes)
    m = np.zeros((2 * n_modes, 2 * n_modes))
    m[:n_modes, n_modes:] = np.eye(n_modes)
    m[n_modes:, :n_modes] = -np.diag(lam)
    m[n_modes:, n_modes:] = -np.outer(b, b)
    return m


def dense_roots(b):
    """Closed-loop eigenvalues from a dense eigensolve of the block matrix."""
    return np.linalg.eigvals(closed_loop_matrix(b, len(b)))


def by_imag(z):
    return z[np.lexsort((z.real, z.imag))]


@pytest.mark.parametrize("n", [16, 100, 400])
def test_nonstrategic_abscissa_is_first_order(h_ns, n):
    # I_1 is within the rounding bound of its pieces for both profiles, so
    # b_1 is 0 and mode 1 keeps its roots +-i mu_1: the abscissa is 0, not the
    # -b_1^2/2 of a rounding-sized coupling (-6.3e-32 for the four-panel
    # profile at N = 8)
    for h in (h_ns, WavemakerProfile.from_samples(*cancelling_profile())):
        assert coupling_vector(h, n)[0] == 0.0
        assert spectral_abscissa(h, n) == 0.0


def test_zero_coupling_is_deflated():
    assert spectral_abscissa(np.array([0.0, 0.3]), 2) == 0.0
    roots = _closed_loop_roots(np.array([0.0, 0.3]))
    mu1 = math.sqrt(math.tanh(1.0))
    assert roots[0] == 1j * mu1 and roots[2] == -1j * mu1
    assert roots[1].real == pytest.approx(-0.045, rel=1e-14)
    # a coupling whose square underflows the normal range is deflated too
    assert spectral_abscissa(np.array([1e-160, 0.3]), 2) == 0.0
    assert np.array_equal(_closed_loop_roots(np.zeros(3)).real, np.zeros(6))


def mpmath_root(b, start):
    """Root of the secular function f near ``start`` at 40 digits, with the
    float64 couplings and eigenvalues taken as exact."""
    lam = eigenvalues(len(b))
    with mpmath.workdps(40):
        terms = [(mpmath.mpf(float(bk)) ** 2, mpmath.mpf(float(lk))) for bk, lk in zip(b, lam)]

        def f(s):
            return 1 + s * mpmath.fsum(q / (s * s + lk) for q, lk in terms)

        return complex(mpmath.findroot(f, mpmath.mpc(start)))


@pytest.mark.parametrize("n", [16, 64, 400])
@pytest.mark.parametrize("profile", ["h1", "h2"])
def test_slowest_root_matches_mpmath(request, profile, n):
    b = coupling_vector(request.getfixturevalue(profile), n)
    roots = _closed_loop_roots(b)
    s = roots[np.argmax(roots.real)]
    ref = mpmath_root(b, s)
    assert abs(s.real - ref.real) <= 1e-13 * abs(ref.real)
    assert abs(s - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("n", [16, 100, 400])
@pytest.mark.parametrize("profile", ["h1", "h2"])
def test_roots_match_dense(request, profile, n):
    # a dense solve is accurate to a few eps ||M|| ~ eps lambda_N absolute
    b = coupling_vector(request.getfixturevalue(profile), n)
    roots = _closed_loop_roots(b)
    err = np.abs(by_imag(roots) - by_imag(dense_roots(b)))
    assert err.max() <= 20 * np.finfo(float).eps * eigenvalues(n)[-1]


@pytest.mark.parametrize("scale", [1.0, 30.0])
@pytest.mark.parametrize("profile", ["h1", "h2", "h_ns"])
def test_roots_trace_identity(request, profile, scale):
    # the coefficient of s^(2N-1) of det(s^2 + Lambda + s b b^T) is |b|^2
    b = scale * coupling_vector(request.getfixturevalue(profile), 400)
    roots = _closed_loop_roots(b)
    q = math.fsum(b * b)
    assert roots.size == 800
    assert abs(math.fsum(roots.real) + q) <= 1e-13 * q


def test_strong_damping_gives_real_roots(h1):
    # a strongly damped pair leaves the imaginary axis for the real one
    b = 30.0 * coupling_vector(h1, 16)
    roots = _closed_loop_roots(b)
    dense = dense_roots(b)
    assert np.sum(dense.imag == 0.0) == 2
    real = np.sort(roots[np.abs(roots.imag) <= 1e-12 * np.abs(roots)].real)
    assert real.size == 2
    assert np.allclose(real, np.sort(dense[dense.imag == 0.0].real), rtol=1e-12)


def test_root_finder_fails_loudly(monkeypatch):
    b = np.array([0.3, 0.2, 0.1])
    with pytest.raises(ValueError, match="finite"):  # checked where the coupling is taken
        spectral_abscissa(np.array([0.3, np.nan]), 2)
    monkeypatch.setattr(spectral, "_MAX_SWEEPS", 1)
    with pytest.raises(np.linalg.LinAlgError, match="unconverged"):
        _closed_loop_roots(b)
    monkeypatch.undo()
    # offsets left at the seeds, and pairs left unpolished, miss the trace identity
    monkeypatch.setattr(spectral, "_aberth_step", lambda i, *args: np.zeros(i.size, dtype=complex))
    monkeypatch.setattr(spectral, "_polish_step", lambda i, *args: np.zeros(i.size, dtype=complex))
    with pytest.raises(np.linalg.LinAlgError, match="trace identity"):
        _closed_loop_roots(b)


@pytest.mark.parametrize("rows", [1, 7])
def test_root_chunks_are_a_tiling(monkeypatch, h1, rows):
    # each root's arithmetic and reductions are its own, so the number of roots
    # per chunk cannot change a bit of any root
    rng = np.random.default_rng(4)
    cases = [coupling_vector(h1, n) for n in (1, 5, 100, 400)]
    cases += [30.0 * coupling_vector(h1, 16), rng.standard_normal(37) * 3.0, np.r_[0.0, rng.standard_normal(9)]]
    want = [_closed_loop_roots(b) for b in cases]
    for b, roots in zip(cases, want):
        monkeypatch.setattr(_blocks, "BLOCK", rows * 2 * b.size + 1)
        assert _closed_loop_roots(b).tobytes() == roots.tobytes()


def test_critical_damping_profile_abscissa():
    # a tabulated profile scaled so that b_1^2 = 2 mu_1 to rounding: s^2 + b_1^2 s
    # + lambda_1 has the double root -mu_1. The pair's sum is exact to rounding,
    # and the abscissa within the sqrt(eps) a double root allows [measured:
    # P + b_1^2 at 2.2e-16, the abscissa 1.3e-16 off 40 digits]
    y = np.linspace(-1.0, 0.0, 201)
    unit = coupling_vector(WavemakerProfile.from_samples(y, y + 0.5), 1)[0]
    mu1 = frequency(1)
    profile = WavemakerProfile.from_samples(y, math.sqrt(2.0 * mu1) / abs(unit) * (y + 0.5))
    b1 = coupling_vector(profile, 1)[0]
    assert b1**2 == pytest.approx(2.0 * mu1, rel=1e-15)
    total, rho = _closed_loop_pairs(np.array([b1]))
    assert abs(total[0] + b1**2) <= 4 * np.finfo(float).eps * b1**2
    assert abs(rho[0]) <= 4 * np.finfo(float).eps * b1**2  # Q = lambda_1: the pair is alone [measured: 1.6e-35]
    with mpmath.workdps(40):
        q, lam = mpmath.mpf(float(b1)) ** 2, mpmath.mpf(float(eigenvalues(1)[0]))
        ref = float(max(mpmath.re(r) for r in mpmath.polyroots([1, q, lam])))
    assert spectral_abscissa(profile, 1) == pytest.approx(ref, rel=1e-7)


@pytest.mark.parametrize("off", [1e-8, -1e-8])
def test_critical_damping_bare_couplings(off):
    # b_1^2 = 2 mu_1 (1 + off): two real roots 2.5e-4 apart, or a complex pair.
    # Every root against 40 digits, within the conditioning of delta^2 = m^2 - Q
    # [measured: 5.7e-13 relative]
    b = np.array([math.sqrt(2.0 * frequency(1) * (1.0 + off))])
    roots = _closed_loop_roots(b)
    q = b[0] ** 2
    assert abs(math.fsum(roots.real) + q) <= 1e-13 * q
    with mpmath.workdps(40):
        q_mp, lam_mp = mpmath.mpf(float(b[0])) ** 2, mpmath.mpf(float(eigenvalues(1)[0]))
        refs = [complex(r) for r in mpmath.polyroots([1, q_mp, lam_mp])]
    for s in roots:
        ref = min(refs, key=lambda r: abs(r - s))
        assert abs(s - ref) <= 1e-11 * abs(ref)
    assert (roots.imag == 0.0).all() == (off > 0)


@st.composite
def strong_couplings(draw):
    """Couplings with N <= 40 and |b| from 1e-20 to 1e4, of mixed magnitudes and
    with zeros; strong damping drives root pairs onto the real axis."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["normal", "log-uniform", "sparse", "flat"]))
    if shape == "normal":
        b = rng.standard_normal(n)
    elif shape == "log-uniform":
        b = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-20.0, 0.0, n)
    elif shape == "sparse":
        b = rng.standard_normal(n) * (rng.random(n) < 0.7)
    else:
        b = np.ones(n)
    norm2 = float(np.sum(b * b))
    if norm2 > 0.0:
        # half the draws in the strong regime, half log-uniform over every scale
        norm = draw(st.one_of(st.floats(0.01, 1e4), st.floats(-20.0, 4.0).map(lambda e: 10.0**e)))
        b *= norm / math.sqrt(norm2)
    return b


@settings(max_examples=150, deadline=None, database=None)
@given(strong_couplings())
@example(np.full(8, 5.0))  # two real roots
@example(np.full(40, 100.0 / math.sqrt(40.0)))  # 305 sweeps from seeds -b_k^2/2 off the poles
@example(np.full(40, 1e4 / math.sqrt(40.0)))
def test_abscissa_strong_coupling_property(b):
    # warnings are errors under the test configuration, so none may be raised;
    # at most 40 sweeps [measured: 24 at most in 3,000 draws and a flat scan
    # to |b| = 1e4; every abscissa within 1.1 % of the tolerance below]
    with mock.patch.object(spectral, "_MAX_SWEEPS", 40):
        a = spectral_abscissa(b, len(b))
    dense = dense_roots(b)
    assert a <= 0.0
    assert abs(a - dense.real.max()) <= 100 * np.finfo(float).eps * (eigenvalues(len(b))[-1] + np.sum(b * b))


def test_closed_loop_matrix_structure(h1):
    m = closed_loop_matrix(h1, 3)
    lam = eigenvalues(3)
    assert np.array_equal(m[:3, 3:], np.eye(3))
    assert np.allclose(np.diag(m[3:, :3]), -lam)
    b = coupling_vector(h1, 3)
    assert np.allclose(m[3:, 3:], -np.outer(b, b))
    # accepts a coupling array in place of the profile
    m2 = closed_loop_matrix(b, 3)
    assert np.array_equal(m, m2)
    # a longer coupling array is truncated, a shorter one rejected
    b5 = coupling_vector(h1, 5)
    assert np.array_equal(closed_loop_matrix(b5, 3)[3:, 3:], -np.outer(b5[:3], b5[:3]))
    with pytest.raises(ValueError, match="^a coupling array must be 1-D and finite with at least 8 entries$"):
        closed_loop_matrix(coupling_vector(h1, 4), 8)


def test_step_matrix_matches_simulator(h1):
    # the final state against the dense generator's exponential [measured: 4.4e-15]
    n, dt = 4, 0.02
    b = coupling_vector(h1, n)
    rng = np.random.default_rng(9)
    z = rng.standard_normal(2 * n)
    cfg = SimConfig(n_modes=n, t_final=200 * dt, dt=dt, sample_every=200)
    ts = simulate_closed(ModalState(z[:n], z[n:]), h1, cfg)
    advanced = expm_states(b, ModalState(z[:n], z[n:]), [ts.t[-1]])[0]
    assert np.allclose(advanced[:n], ts.final_state.zeta, atol=1e-13, rtol=0.0)
    assert np.allclose(advanced[n:], ts.final_state.w, atol=1e-13, rtol=0.0)


def test_block_cap_splits_sample_intervals(h1):
    # N = 150 caps a block of samples at (2**13 - 1) // 150 = 54 rows, so 2,001
    # samples take 38 blocks; the rows on both sides of the first and the last
    # seam, and the last row, against the dense exponential [measured: 5.1e-14 max abs]
    n, dt = 150, 5e-3
    b = coupling_vector(h1, n)
    rng = np.random.default_rng(5)
    z = rng.standard_normal(2 * n) / np.arange(1, 2 * n + 1)
    cfg = SimConfig(n_modes=n, t_final=2000 * dt, dt=dt, sample_every=1, record_modes=True)
    ts = simulate_closed(ModalState(z[:n], z[n:]), b, cfg)
    cuts = blocks(len(ts.t), n)
    assert len(cuts) >= 3  # several blocks
    rows = [cuts[0].stop - 1, cuts[0].stop, cuts[-1].start - 1, cuts[-1].start, 2000]
    advanced = expm_states(b, ModalState(z[:n], z[n:]), ts.t[rows])
    assert np.allclose(np.hstack([ts.zeta, ts.w])[rows], advanced, atol=2e-12, rtol=0.0)
    assert abs(ts.energy[-1] - x_norm_sq(ts.final_state)) <= 1e-11 * ts.energy[0]


@pytest.mark.parametrize("sample_every, n_steps", [(130, 2_600_000), (100, 1_999_937)])
def test_closed_loop_blocks(h1, sample_every, n_steps):
    # N = 64 fills a block with (2**13 - 1) // 64 = 127 samples, so 20,001
    # samples take 158 blocks, the last sample off the regular grid in the second case
    n, dt = 64, 1e-3
    b = coupling_vector(h1, n)
    rng = np.random.default_rng(11)
    z = rng.standard_normal(2 * n) / np.arange(1, 2 * n + 1)
    state = ModalState(z[:n], z[n:])

    def run(record):
        cfg = SimConfig(n_modes=n, t_final=n_steps * dt, dt=dt, sample_every=sample_every, record_modes=record)
        return simulate_closed(state, b, cfg)

    full = run(True)
    tracemalloc.start()
    lean = run(False)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    history = full.zeta.nbytes + full.w.nbytes
    cut = blocks(len(full.t), n)[0].stop
    assert len(full.t) == 20_001 and len(blocks(len(full.t), n)) > 9  # several blocks
    assert lean.zeta is None and peak < history / 2  # no array of every sample's state
    for name in ("t", "energy", "u", "x_norm"):
        assert np.array_equal(getattr(full, name).view(np.int64), getattr(lean, name).view(np.int64)), name
    assert np.array_equal(full.final_state.w, lean.final_state.w)
    assert np.all(np.diff(lean.energy) <= 0.0)
    e0 = lean.energy[0]
    assert abs(lean.energy[-1] - x_norm_sq(lean.final_state)) <= 1e-11 * e0
    # the last sample of the first block, the first of the second and the last,
    # against the dense exponential, whose own error grows with its squarings
    # [measured: 2.2e-23 e0 at most, at t = 2600]
    rows = [cut - 1, cut, 20_000]
    ref = expm_states(b, state, full.t[rows])
    for i, want in zip(rows, ref):
        assert x_norm_sq(ModalState(full.zeta[i] - want[:n], full.w[i] - want[n:])) <= 1e-21 * e0


@st.composite
def closed_loop_runs(draw):
    """Random truncation, coupling, state and step, with sample_every drawn from
    non-divisors of the step count, values above it and values above 2N."""
    n = draw(st.integers(1, 24))
    n_steps = draw(st.integers(1, 5000))
    sample_every = draw(
        st.one_of(
            st.integers(1, n_steps).filter(lambda m: n_steps % m != 0),
            st.integers(n_steps + 1, 2 * n_steps + 10),
            st.integers(2 * n + 1, 2 * n + 400),
        )
    )
    dt = draw(st.floats(1e-3, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = np.zeros(n) if draw(st.booleans()) else rng.standard_normal(n) * draw(st.floats(0.01, 1.0))
    state = ModalState(rng.standard_normal(n), rng.standard_normal(n))
    return b, state, n_steps * dt, dt, sample_every


@settings(max_examples=60, deadline=None, database=None)
@given(closed_loop_runs())
def test_propagator_properties(run):
    b, state, t_final, dt, sample_every = run
    n = state.n_modes
    cfg = SimConfig(n_modes=n, t_final=t_final, dt=dt, sample_every=sample_every)
    ts = simulate_closed(state, b, cfg)
    assert np.all(np.diff(ts.energy) <= 0.0)
    assert ts.t[-1] == cfg.n_steps * dt
    assert len(ts.t) == -(-cfg.n_steps // sample_every) + 1
    e0 = ts.energy[0]
    assert abs(ts.energy[-1] - x_norm_sq(ts.final_state)) <= 1e-11 * e0
    ref = expm_states(b, state, [ts.t[-1]])[0]
    err = ModalState(ts.final_state.zeta - ref[:n], ts.final_state.w - ref[n:])
    assert x_norm_sq(err) <= 1e-20 * e0


# -- rate study -------------------------------------------------------------------


def test_rate_study_single_truncation(h1):
    entries = rate_vs_n_study(h1, [2], t_final=4000.0, dt=0.02, sample_every=200)
    assert len(entries) == 1
    assert entries[0].rate > 0
    assert entries[0].gamma_floor > 0


def test_rate_study_matches_abscissa_small(h1):
    entries = rate_vs_n_study(h1, [2, 4], t_final=30000.0, dt=0.02, sample_every=1500)
    for e in entries:
        oracle = -spectral_abscissa(h1, e.n_modes)
        assert e.rate == pytest.approx(oracle, rel=0.10)


def test_rate_study_nonstrategic_flat_tail(h_ns):
    # mode 1 never damps, so the trajectory flattens onto its invariant energy
    entries = rate_vs_n_study(h_ns, [4], t_final=2000.0, dt=0.02, sample_every=100)
    assert abs(entries[0].rate) < 1e-5


def test_rate_study_validation(h1):
    with pytest.raises(ValueError, match=">= 2"):
        rate_vs_n_study(h1, [1, 4])
    with pytest.raises(ValueError, match="increasing"):
        rate_vs_n_study(h1, [8, 4])
    with pytest.raises(ValueError, match="strictly increasing"):
        rate_vs_n_study(h1, [4, 4])
    with pytest.raises(ValueError, match="at least one truncation"):
        rate_vs_n_study(h1, [])


def test_rate_study_needs_19_samples(h1):
    # the fit takes the last half of the samples and needs 10 of them: 17 steps
    # give 18 samples, refused before any run; 18 steps give 19
    with mock.patch("wavetank.stability.simulate_closed") as run:
        with pytest.raises(ValueError) as err:
            rate_vs_n_study(h1, [2, 4], t_final=17.0, dt=1.0, sample_every=1)
        run.assert_not_called()
    assert str(err.value) == "t_final 17.0, dt 1.0 and sample_every 1 give 18 samples; the fit on their last half needs >= 19"
    assert rate_vs_n_study(h1, [2], t_final=18.0, dt=1.0, sample_every=1)[0].rate > 0


def test_study_csv(tmp_path, h1):
    entries = rate_vs_n_study(h1, [2], t_final=2000.0, dt=0.02, sample_every=100)
    path = tmp_path / "study.csv"
    study_to_csv(entries, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "N,rate,residual_rms"
    n, rate, rms = lines[1].split(",")
    assert int(n) == 2
    assert float(rate) == entries[0].rate


def test_study_csv_to_stdout(capsys, h1):
    entries = rate_vs_n_study(h1, [2], t_final=2000.0, dt=0.02, sample_every=100)
    study_to_csv(entries, None)
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,rate,residual_rms"
    assert float(lines[1].split(",")[1]) == entries[0].rate
