"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime against the stated budget.

Errata: two of the original target constants are provably wrong. The
corresponding assertions are kept verbatim as strict expected failures so
the record stays visible, and the corrected statements are asserted inside
their criteria:

* the gap products mu_k (mu_{k+1} - mu_k) approach 1/2 only algebraically
  (1/2 - 1/(8k) + O(k^-2)), so they are never within 1e-6 of 1/2 for
  30 <= k <= 1000; the tanh correction does converge exponentially, which
  criterion 1 asserts instead;
* the margin target m_2 = 0.1149160 contradicts its own defining expression
  2 I_2 / cosh(2) = 0.1149149, which criterion 4 asserts instead.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from wavetank import boundary, profiles, simulate, spectral, stability

from edges import edge_orders
from moments import hilbert_coefficients
from substeps import rk4_states

BUDGETS = {
    1: 1.0,
    2: 10.0,
    3: 5.0,
    4: 1.0,
    5: 60.0,
    6: 60.0,
    7: 120.0,
    8: 600.0,
}


def _report(num, name, checks, elapsed):
    budget = BUDGETS[num]
    failed = [msg for msg, ok in checks if not ok]
    in_budget = elapsed < budget
    status = "PASS" if not failed and in_budget else "FAIL"
    print(
        f"[{status}] criterion {num} ({name}): "
        f"{len(checks) - len(failed)}/{len(checks)} checks, "
        f"{elapsed:.2f} s (budget {budget:.0f} s)"
    )
    assert not failed, f"criterion {num} failed checks: {failed}"
    assert in_budget, f"criterion {num} runtime {elapsed:.2f} s exceeds {budget} s"


def test_criterion_1_spectral():
    t0 = time.perf_counter()
    checks = []

    mp.mp.dps = 25
    lam = spectral.eigenvalues(1000)
    mu = spectral.frequencies(1000)
    rel_lam = max(
        abs(lam[k - 1] - float(k * mp.tanh(k))) / float(k * mp.tanh(k))
        for k in range(1, 1001)
    )
    rel_mu = max(
        abs(mu[k - 1] - float(mp.sqrt(k * mp.tanh(k)))) / float(mp.sqrt(k * mp.tanh(k)))
        for k in range(1, 1001)
    )
    checks.append((f"lambda_k matches oracle to 1e-12 (max {rel_lam:.2e})", rel_lam <= 1e-12))
    checks.append((f"mu_k matches oracle to 1e-12 (max {rel_mu:.2e})", rel_mu <= 1e-12))

    # corrected gap statement: the tanh correction converges exponentially,
    # the products themselves approach 1/2 like 1/2 - 1/(8k)
    p = spectral.gap_products(1000)
    k = np.arange(1, 1000, dtype=float)
    s = np.sqrt(np.arange(1, 1001, dtype=float))
    pure_sqrt = s[:-1] * np.diff(s)
    tanh_part = np.max(np.abs(p[29:] - pure_sqrt[29:]))
    algebraic = np.max(np.abs(p[29:] - 0.5 + 1.0 / (8 * k[29:])) * k[29:] ** 2)
    checks.append(
        (f"tanh correction of gap products < 1e-9 beyond k=30 (max {tanh_part:.2e})",
         tanh_part < 1e-9)
    )
    checks.append(
        (f"gap products follow 1/2 - 1/(8k) + O(k^-2) (coef {algebraic:.3f})",
         algebraic <= 0.2)
    )

    eps0 = spectral.separation_certificate(1000)
    checks.append((f"wave-package gap on [-H, H] certifies eps0 = {eps0:.6f} > 0", eps0 > 0))

    _report(1, "spectral", checks, time.perf_counter() - t0)


@pytest.mark.xfail(
    strict=True,
    reason="erratum: gap products converge to 1/2 algebraically "
    "(p_k = 1/2 - 1/(8k) + O(k^-2), e.g. p_50 = 0.497525), so the original "
    "1e-6 tolerance for k >= 30 is unattainable; criterion 1 asserts the "
    "corrected statement",
)
def test_criterion_1_gap_products_as_written():
    p = spectral.gap_products(1000)
    assert np.all(np.abs(p[29:] - 0.5) <= 1e-6)


def test_criterion_2_boundary_maps():
    t0 = time.perf_counter()
    checks = []
    rng = np.random.default_rng(2024)

    eta = rng.standard_normal(64)
    grid = boundary.dirichlet_field(eta, 64, 64)
    kx = np.outer(np.arange(1, 65), grid.x)
    surface = eta @ (math.sqrt(2 / math.pi) * np.cos(kx))
    trace_err = np.max(np.abs(grid.top - surface))
    checks.append((f"top-trace identity exact to 1e-12 (max {trace_err:.2e})", trace_err <= 1e-12))

    v = rng.standard_normal(64)
    ngrid = boundary.neumann_field(v, 64, 64)
    top_max = np.max(np.abs(ngrid.top))
    checks.append((f"top annihilation exact (max {top_max:.1e})", top_max == 0.0))

    # the wall condition d_x phi = -v(y) on the field itself, by its one-sided
    # second-order x-difference at x = 0 (nx = 256..2048, ny = 16)
    orders = edge_orders("wall", np.array([1.0, -0.5, 0.25]))
    shown = f"wall condition orders {', '.join(f'{o:.3f}' for o in orders)} in [1.95, 2.05]"
    print(shown)
    checks.append((shown, bool(np.all((1.95 <= orders) & (orders <= 2.05)))))

    e1 = np.array([1.0])
    for name, build in (("top-data map", boundary.dirichlet_field), ("wall-data map", boundary.neumann_field)):
        r1 = boundary.harmonicity_residual(build(e1, 64, 64))
        r2 = boundary.harmonicity_residual(build(e1, 128, 128))
        order = math.log2(r1 / r2)
        checks.append((f"{name} FD harmonicity order {order:.3f} in [1.8, 2.2]", 1.8 <= order <= 2.2))

    _report(2, "boundary maps", checks, time.perf_counter() - t0)


def test_criterion_3_hilbert_bound():
    t0 = time.perf_counter()
    checks = []

    worst = 0.0
    for seed in range(100):
        v = np.random.default_rng(seed).standard_normal(50)
        worst = max(worst, boundary.hilbert_bound_ratio(v))
    checks.append((f"ratio <= 10 for 100 seeded 50-mode vectors (max {worst:.3f})", worst <= 10.0))

    # the library's |c_1|, read back from the ratio of e_1, c_1^2 (1 - e^{-pi^2})/pi
    lib_c1 = math.sqrt(boundary.hilbert_bound_ratio(np.array([1.0])) * math.pi / -math.expm1(-math.pi**2))
    checks.append(
        (f"|c_1| = {lib_c1:.7f} matches oracle 2.8285734", abs(lib_c1 - 2.8285734275762757) <= 1e-12)
    )
    # c_k = sqrt(2) e^{a_k pi}/sinh(a_k pi) from mpmath, not from the code under test
    c = hilbert_coefficients(50)
    checks.append((f"|c_1| = {c[0]:.4f} < sqrt(10)", c[0] < math.sqrt(10.0)))
    checks.append(("|c_k| <= |c_1| for k <= 50", bool(np.all(c <= c[0]))))

    _report(3, "Hilbert bound", checks, time.perf_counter() - t0)


def test_criterion_4_profile_criteria(h1, h2, h_ns):
    t0 = time.perf_counter()
    checks = []

    r1 = profiles.sc_check(h1, 0.1)
    checks.append(
        (f"h1 sufficient condition: 1 < {r1.bound:.5f}",
         r1.verdict == "pass" and abs(r1.bound - 1.296987286531278) <= 1e-9)
    )
    r2 = profiles.sc_check(h2, 0.1)
    checks.append(
        (f"h2 sufficient condition: {r2.derivative_sup:.4f} < {r2.bound:.5f}",
         r2.verdict == "pass" and abs(r2.bound - 1.8342170108380127) <= 1e-9)
    )

    margins = profiles.ussd_margin(h1, 2).margins
    checks.append(
        (f"m_1 = {margins[0]:.9f} within 1e-6 of oracle",
         abs(margins[0] - 0.028851351641767845) <= 1e-6)
    )
    checks.append(
        (f"m_2 = {margins[1]:.9f} within 1e-6 of oracle 0.114914904",
         abs(margins[1] - 0.11491490445494829) <= 1e-6)
    )

    i1_scaled = profiles.strategic_integral_scaled(h_ns, 1)
    checks.append(
        (f"nonstrategic profile has |I_1| <= 1e-11 cosh(1) (got {abs(i1_scaled):.2e} scaled)",
         abs(i1_scaled) <= 1e-11)
    )

    _report(4, "profile criteria", checks, time.perf_counter() - t0)


@pytest.mark.xfail(
    strict=True,
    reason="erratum: the original target m_2 = 0.1149160 contradicts its own "
    "defining expression 2 I_2/cosh(2) = 2*0.2161662/3.7621957 = 0.1149149; "
    "criterion 4 asserts the derived value",
)
def test_criterion_4_m2_as_printed(h1):
    m2 = profiles.ussd_margin(h1, 2).margins[1]
    assert abs(m2 - 0.1149160) <= 1e-6


def test_criterion_5_dynamics(h1):
    t0 = time.perf_counter()
    checks = []
    rng = np.random.default_rng(99)

    # open-loop conservation over t = 100, N = 16, dt = 1e-3
    st16 = simulate.ModalState(rng.standard_normal(16), rng.standard_normal(16))
    cfg_open = simulate.SimConfig(
        n_modes=16, t_final=100.0, dt=1e-3, sample_every=100
    )
    ts_open = simulate.simulate_open(st16, h1, simulate.InputSignal.zero(100.0), cfg_open)
    drift = np.max(np.abs(ts_open.x_norm - ts_open.x_norm[0])) / ts_open.x_norm[0]
    checks.append((f"open-loop norm conserved to 1e-12 (drift {drift:.2e})", drift <= 1e-12))

    # closed-loop monotonicity at every step over t = 100, on the energies of the
    # recorded states (the energy column is a running minimum, so it cannot rise)
    lam16 = spectral.eigenvalues(16)
    cfg_mono = simulate.SimConfig(n_modes=16, t_final=100.0, dt=1e-3, sample_every=1, record_modes=True)
    ts_mono = simulate.simulate_closed(st16, h1, cfg_mono)
    rise = float(np.max(np.diff(ts_mono.zeta**2 @ lam16 + np.sum(ts_mono.w**2, axis=1)))) / ts_mono.energy[0]
    checks.append((f"closed-loop energy non-increasing at every step (largest step {rise:.1e} E0)", rise <= 0.0))

    # energy balance: drop equals twice the integrated squared feedback
    cfg_bal = simulate.SimConfig(n_modes=16, t_final=10.0, dt=1e-3, sample_every=1)
    ts_bal = simulate.simulate_closed(st16, h1, cfg_bal)
    resid = abs(
        ts_bal.energy[0] - ts_bal.energy[-1] - 2.0 * np.trapezoid(ts_bal.u**2, ts_bal.t)
    ) / ts_bal.energy[0]
    checks.append((f"energy balance residual <= 1e-6 (got {resid:.2e})", resid <= 1e-6))

    # concatenation identity, (tau, t) = (3, 2), N = 8, dt = 1e-3
    n = 8
    lam = spectral.eigenvalues(n)
    u = simulate.InputSignal.sinusoid(1.0, 1.1, 3.0)
    v = simulate.InputSignal.sinusoid(0.6, 2.3, 2.0, phase=0.4)

    def run(signal, t_final, state):
        cfg = simulate.SimConfig(
            n_modes=n, t_final=t_final, dt=1e-3, sample_every=10**9
        )
        return simulate.simulate_open(state, h1, signal, cfg).final_state

    lhs = run(u.concat(3.0, v), 5.0, simulate.ModalState.zero(n))
    mid = run(u, 3.0, simulate.ModalState.zero(n))
    rot = run(simulate.InputSignal.zero(2.0), 2.0, mid)
    drv = run(v, 2.0, simulate.ModalState.zero(n))
    dz = rot.zeta + drv.zeta - lhs.zeta
    dw = rot.w + drv.w - lhs.w
    concat_err = math.sqrt(float(lam @ dz**2 + dw @ dw))
    checks.append((f"concatenation identity within 5e-8 (got {concat_err:.2e})", concat_err <= 5e-8))

    # the samples are exact: the final state does not depend on the grid
    st8 = simulate.ModalState(rng.standard_normal(8), rng.standard_normal(8))
    lam8 = spectral.eigenvalues(8)

    def final(dt):
        cfg = simulate.SimConfig(n_modes=8, t_final=10.0, dt=dt, sample_every=10**9)
        return simulate.simulate_closed(st8, h1, cfg).final_state

    ref = final(1.25e-3)

    def err(state):
        dz, dw = state.zeta - ref.zeta, state.w - ref.w
        return math.sqrt(float(lam8 @ dz**2 + dw @ dw)) / simulate.x_norm(ref)

    drift = max(err(final(1e-2)), err(final(5e-3)))
    checks.append((f"final state independent of dt to 1e-12 (got {drift:.2e})", drift <= 1e-12))

    # the exact closed loop agrees with the independent Runge-Kutta cross-check
    cfg = simulate.SimConfig(n_modes=8, t_final=10.0, dt=1e-3, sample_every=100)
    ts_s = simulate.simulate_closed(st8, h1, cfg)
    b = profiles.coupling_vector(h1, 8)
    rows = rk4_states(st8, b, lambda t, w: -float(np.dot(b, w)), cfg.dt, cfg.times)
    rk4 = np.array([simulate.x_norm(simulate.ModalState(row[:8], row[8:])) for row in rows])
    int_diff = np.max(np.abs(ts_s.x_norm - rk4)) / ts_s.x_norm[0]
    checks.append((f"exact closed loop vs rk4 within 1e-6 (got {int_diff:.2e})", int_diff <= 1e-6))

    _report(5, "dynamics", checks, time.perf_counter() - t0)


def test_criterion_6_nonstrategic_converse(h_ns):
    t0 = time.perf_counter()
    checks = []

    cfg = simulate.SimConfig(n_modes=8, t_final=100.0, dt=1e-3, sample_every=100)
    ts = simulate.simulate_closed(simulate.ModalState.single_mode(1, 8), h_ns, cfg)
    drift = np.max(np.abs(ts.energy - ts.energy[0])) / ts.energy[0]
    checks.append(
        (f"mode-1 energy constant to 1e-12 over t=100 (drift {drift:.2e})", drift <= 1e-12)
    )
    state_drift = abs(simulate.x_norm_sq(ts.final_state) - ts.energy[0]) / ts.energy[0]
    checks.append(
        (f"recomputed state energy agrees to 1e-11 (drift {state_drift:.2e})",
         state_drift <= 1e-11)
    )
    checks.append(("feedback column identically negligible", float(np.max(np.abs(ts.u))) < 1e-12))

    _report(6, "non-strategic converse", checks, time.perf_counter() - t0)


def test_criterion_7_rate_vs_truncation(h1):
    t0 = time.perf_counter()
    checks = []

    entries = stability.rate_vs_n_study(h1, [4, 8, 16, 32])
    rates = [e.rate for e in entries]
    checks.append(
        (f"all rates positive ({', '.join(f'{r:.3e}' for r in rates)})",
         all(r > 0 for r in rates))
    )
    decreasing = all(a > b for a, b in zip(rates, rates[1:]))
    checks.append(("rates strictly decreasing in N", decreasing))
    for e in entries:
        if e.n_modes <= 16:
            oracle = -stability.spectral_abscissa(h1, e.n_modes)
            rel = abs(e.rate - oracle) / oracle
            checks.append(
                (f"N={e.n_modes}: fitted {e.rate:.4e} within 10% of abscissa "
                 f"{oracle:.4e} (off {100 * rel:.2f}%)", rel <= 0.10)
            )
    checks.append(
        (f"wave-package coupling floor positive ({entries[0].gamma_floor:.4f})",
         all(e.gamma_floor > 0 for e in entries))
    )

    _report(7, "rate vs truncation", checks, time.perf_counter() - t0)


def test_criterion_8_envelope_probe(h1):
    t0 = time.perf_counter()
    checks = []

    state0 = stability.smooth_initial_state(200, 3)
    dn0 = simulate.domain_norm(state0)
    checks.append((f"smooth data has unit graph norm ({dn0:.12f})", abs(dn0 - 1.0) <= 1e-12))

    cfg = simulate.SimConfig(n_modes=200, t_final=2000.0, dt=5e-3, sample_every=40)
    ts = simulate.simulate_closed(state0, h1, cfg)
    fit = stability.decay_fit(ts, (10.0, 2000.0), "power")
    checks.append(
        (f"log-log slope {fit.fitted_value:.4f} <= -0.10 on [10, 2000]",
         fit.fitted_value <= -0.10)
    )
    rep = stability.envelope_check(ts, dn0)
    checks.append(
        (f"envelope constant M_min = {rep.M_min:.3f} finite and <= 10 "
         f"(attained at t = {rep.attained_at:.0f})",
         math.isfinite(rep.M_min) and rep.M_min <= 10.0)
    )
    print(
        "note: desk-scale probe consistent with, not proof of, the (1+t)^(-1/6) "
        "envelope; the truncated loop is eventually exponential"
    )

    _report(8, "polynomial envelope probe", checks, time.perf_counter() - t0)
