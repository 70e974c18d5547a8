import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavetank._hyper import cosh_over_cosh
from wavetank.boundary import _wall_rate, neumann_to_neumann, reconstruct_field, side_projection
from wavetank.cli import main
from wavetank.profiles import (
    OMEGA,
    PHASE,
    SC_CONSTANT,
    WavemakerProfile,
    coupling_vector,
    sc_check,
    strategic_check,
    strategic_integral_scaled,
    ussd_margin,
)
from wavetank.simulate import InputSignal, ModalState, SimConfig, simulate_closed, simulate_open
from wavetank.spectral import eigenvalues, gap_products, separation_certificate
from wavetank.stability import smooth_initial_state, spectral_abscissa

from moments import jittered_profile, strategic_builtins, strategic_quadrature

# closed-form oracle for the linear profile:
#   I_k = sinh(k)/(2k) - (cosh(k) - 1)/k^2
I1_H1 = 0.04451996200665695
I2_H1 = 0.21616617919084682
M1_H1 = 0.028851351641767845
M2_H1 = 0.11491490445494829
M50_H1 = 0.48
M100_H1 = 0.49
B1_H1 = -0.023020048033260965
BETA1_H1 = -0.016277632067558875
SC_BOUND_H1 = 1.296987286531278
SC_BOUND_H2 = 1.8342170108380127


def _closed_form_h1(k: int) -> float:
    return math.sinh(k) / (2 * k) - (math.cosh(k) - 1.0) / k**2


def test_mean_residuals(h1, h2):
    assert h1.mean_residual() == pytest.approx(0.0, abs=1e-15)
    assert h2.mean_residual() == pytest.approx(0.0, abs=1e-12)


def test_mean_residual_constant_profile():
    flat = WavemakerProfile("tabulated", [-1.0, 0.0], [1.0, 1.0], 0.0)
    assert flat.mean_residual() == pytest.approx(1.0, rel=1e-14)


def test_zero_mean_enforced_on_load():
    with pytest.raises(ValueError, match="volume conservation"):
        WavemakerProfile.from_samples([-1.0, 0.0], [1.0, 1.0])


@pytest.mark.parametrize(
    "y, h, message",
    [
        ([-1.0, 0.0], [0.0], "tabulated profile needs matching 1-D arrays with >= 2 samples"),
        ([0.0], [0.0], "tabulated profile needs matching 1-D arrays with >= 2 samples"),
        ([[-1.0, 0.0]], [[0.0, 0.0]], r"y must be 1-D, got shape \(1, 2\)"),
        ([-1.0, 0.0], [math.nan, 0.0], "h has non-finite values"),
        ([-1.0, math.inf], [0.0, 0.0], "y has non-finite values"),
    ],
    ids=["unequal", "one-sample", "2-D", "nan-h", "inf-y"],
)
def test_from_samples_rejects_shapes_and_non_finite_entries(y, h, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        WavemakerProfile.from_samples(y, h)


def test_strategic_integral_closed_form(h1):
    for k in (1, 2, 5, 10, 30, 50):
        scaled = strategic_integral_scaled(h1, k)
        assert scaled == pytest.approx(_closed_form_h1(k) / math.cosh(k), abs=1e-12)
    assert strategic_integral_scaled(h1, 1) * math.cosh(1) == pytest.approx(I1_H1, abs=1e-13)
    assert strategic_integral_scaled(h1, 2) * math.cosh(2) == pytest.approx(I2_H1, abs=1e-13)


def test_strategic_integral_zero_profile():
    zero = WavemakerProfile.from_samples([-1.0, 0.0], [0.0, 0.0])
    assert strategic_integral_scaled(zero, 3) == 0.0


def test_strategic_check_h1_on_range(h1):
    verdict = strategic_check(h1, 50)
    assert verdict.strategic
    assert verdict.fails_at == ()
    assert verdict.verdict == "strategic-on-range"


def test_strategic_check_nonstrategic_fails_at_one(h_ns):
    verdict = strategic_check(h_ns, 50)
    assert not verdict.strategic
    assert verdict.fails_at == (1,)
    assert verdict.verdict == "fails-at"
    assert strategic_check(h_ns, 1000).fails_at == (1,)


def test_strategic_check_zero_profile_fails_everywhere():
    zero = WavemakerProfile.from_samples([-1.0, 0.0], [0.0, 0.0])
    verdict = strategic_check(zero, 10)
    assert verdict.fails_at == tuple(range(1, 11))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda h: coupling_vector(h, 2.5), "n_modes must be an integer, got 2.5"),
        (lambda h: coupling_vector(h, True), "n_modes must be an integer, got True"),
        (lambda h: strategic_check(h, 5.5), "kmax must be an integer, got 5.5"),
        (lambda h: ussd_margin(h, 5.0), "kmax must be an integer, got 5.0"),
        (lambda h: strategic_integral_scaled(h, 2.0), "mode index must be an integer, got 2.0"),
        (lambda h: side_projection(h, True), "side-mode count must be an integer, got True"),
        (lambda h: eigenvalues(2.5), "n must be an integer, got 2.5"),
        (lambda h: separation_certificate(True), "kmax must be an integer, got True"),
        (lambda h: SimConfig(n_modes=4.5, t_final=1.0), "n_modes must be an integer, got 4.5"),
        (lambda h: SimConfig(n_modes=4, t_final=1.0, sample_every=2.0), "sample_every must be an integer, got 2.0"),
        (lambda h: smooth_initial_state(2.5, 3), "n_modes must be an integer, got 2.5"),
        (lambda h: ModalState.zero(2.5), "n_modes must be an integer, got 2.5"),
        (lambda h: gap_products(2.5), "kmax must be an integer, got 2.5"),
    ],
    ids=["coupling-float", "coupling-bool", "strategic", "ussd", "scaled", "side",
         "eigenvalues", "separation", "config-modes", "config-sample-every", "smooth-modes", "zero-state",
         "gap-products"],
)
def test_counts_must_be_integers(h1, call, message):
    # a float count would be rounded up by arange, and True taken as 1
    with pytest.raises(ValueError) as err:
        call(h1)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "call",
    [
        lambda b: strategic_integral_scaled(b, 1),
        lambda b: strategic_check(b, 3),
        lambda b: ussd_margin(b, 3),
        lambda b: sc_check(b, 0.1),
        lambda b: side_projection(b, 4),
        lambda b: reconstruct_field(np.ones(2), 0.5, b, 4, 4),
    ],
    ids=["scaled", "strategic", "ussd", "sc", "side", "field"],
)
def test_profile_criteria_reject_a_coupling_array(call):
    # they integrate the profile itself, which a coupling array does not hold:
    # each raised AttributeError, which the CLI does not report as an error line
    with pytest.raises(ValueError, match="^h must be a WavemakerProfile, got ndarray$"):
        call(np.ones(8))


def _trapezoid_mean(y, h):
    return np.sum(0.5 * (h[1:] + h[:-1]) * np.diff(y))


def cancelling_profile():
    """Four panels p - r q whose I_1 vanishes by construction, r = I_1(p) / I_1(q)."""
    y = np.linspace(-1.0, 0.0, 5)
    p, q = y + 0.5, np.array([1.0, -1.0, 0.0, -1.0, 1.0])
    q -= _trapezoid_mean(y, q)
    r = strategic_integral_scaled(WavemakerProfile.from_samples(y, p), 1) / strategic_integral_scaled(
        WavemakerProfile.from_samples(y, q), 1
    )
    h = p - r * q
    return y, h - _trapezoid_mean(y, h)


def _pieces(h):
    return h.kind, h._knots, h._values, h._c


# each profile as (kind, knots, values, c), the k <= 200 where I_k = 0, and
# whether the volume check accepts it
SCALED_PROFILES = {
    "h1": (lambda: _pieces(WavemakerProfile.linear()), (), True),
    "h2": (lambda: _pieces(WavemakerProfile.cosine()), (), True),
    "nonstrategic": (lambda: _pieces(WavemakerProfile.nonstrategic()), (1,), True),
    "four-panel": (lambda: ("tabulated", *cancelling_profile(), 0.0), (1,), True),
    "jittered": (lambda: ("tabulated", *jittered_profile(), 0.0), (), True),
    # its mean is its whole size
    "offset": (lambda: ("tabulated", [-1.0, 0.0], np.array([-0.5e-12, 0.5e-12]) + 5e-11, 0.0), (), False),
}


def _loads(y, h):
    try:
        WavemakerProfile.from_samples(y, h)
    except ValueError as err:
        assert "volume conservation" in str(err)
        return False
    return True


def test_strategic_verdict_scale_invariant():
    # the input is u(t) h(y), so s h driven by u / s is the same actuator: the
    # verdicts of s h are those of h. An absolute tolerance on I_k / cosh k failed
    # h1 at every k at 1e-10 and passed the four-panel profile at 1e6, and one on
    # the mean rejected the jittered profile at 1e6 and accepted the offset one.
    # The margins and couplings read the same zeros as the verdict: the four-panel
    # profile had a margin of 4.4e-16 (4.7e-10 at 1e6), b_1 = 3.5e-16 and, at
    # N = 8, an abscissa of -6.3e-32 where mode 1 is uncoupled
    for name, (make, fails_at, accepted) in SCALED_PROFILES.items():
        kind, y, values, c = make()
        for scale in (1e-300, 1e-10, 1.0, 1e6, 1e300):
            h = WavemakerProfile(kind, y, scale * values, scale * c)
            verdict = strategic_check(h, 200)
            assert (verdict.strategic, verdict.fails_at) == (not fails_at, fails_at), (name, scale)
            margins = ussd_margin(h, 200)
            assert tuple(np.flatnonzero(margins.margins == 0.0) + 1) == fails_at, (name, scale)
            assert (margins.min_margin == 0.0) == bool(fails_at), (name, scale)
            if fails_at:
                assert margins.argmin == fails_at[0], (name, scale)
            assert tuple(np.flatnonzero(coupling_vector(h, 200) == 0.0) + 1) == fails_at, (name, scale)
            if fails_at and scale in (1.0, 1e6):
                assert spectral_abscissa(h, 8) == 0.0, (name, scale)
            if kind == "tabulated":
                assert _loads(y, scale * values) == accepted, (name, scale)


def test_ussd_margins_h1(h1):
    rep = ussd_margin(h1, 50)
    assert rep.margins[0] == pytest.approx(M1_H1, abs=1e-12)
    assert rep.margins[1] == pytest.approx(M2_H1, abs=1e-12)
    assert rep.min_margin == pytest.approx(M1_H1, abs=1e-12)
    assert rep.argmin == 1
    # m_k increases for k >= 2 and climbs toward the |h(0)| = 1/2 limit;
    # m_50 = 1/2 - (1 - sech 50)/50 = 0.48 exactly to double precision
    assert np.all(np.diff(rep.margins[1:]) > 0)
    assert rep.margins[49] == pytest.approx(M50_H1, abs=1e-12)
    assert rep.tail == rep.margins[-1]
    assert ussd_margin(h1, 100).margins[99] == pytest.approx(M100_H1, abs=1e-12)


def test_ussd_margins_h1_closed_form_to_1000(h1):
    # m_k = k (tanh k/(2k) - (1 - sech k)/k^2), with sech in overflow-free form
    k = np.arange(1, 1001, dtype=float)
    sech = 2.0 * np.exp(-k) / (1.0 + np.exp(-2.0 * k))
    expect = k * (np.tanh(k) / (2.0 * k) - (1.0 - sech) / k**2)
    np.testing.assert_allclose(ussd_margin(h1, 1000).margins, expect, rtol=1e-10, atol=0)


def test_ussd_margin_nonstrategic_min_zero(h_ns):
    rep = ussd_margin(h_ns, 50)
    assert rep.min_margin == 0.0
    assert rep.argmin == 1


def test_sc_check_builtins(h1, h2):
    r1 = sc_check(h1, 0.1)
    assert r1.verdict == "pass"
    assert r1.derivative_sup == 1.0
    assert r1.bound == pytest.approx(SC_BOUND_H1, rel=1e-12)
    r2 = sc_check(h2, 0.1)
    assert r2.verdict == "pass"
    assert r2.derivative_sup == pytest.approx(0.5 * math.pi, rel=1e-15)
    assert r2.bound == pytest.approx(SC_BOUND_H2, rel=1e-12)


def test_sc_check_fails_when_surface_value_vanishes():
    # zero-mean piecewise-linear profile with h(0) = 0: the bound is zero
    h = WavemakerProfile.from_samples([-1.0, -0.5, 0.0], [-2.0, 1.0, 0.0])
    assert abs(h.value_at_zero) == 0.0
    assert sc_check(h, 0.1).verdict == "fail"


def test_sc_check_rejects_bad_eps(h1):
    for eps in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            sc_check(h1, eps)


def test_sc_constant_value():
    assert SC_CONSTANT == pytest.approx(2.8821939700695065, rel=1e-15)


def test_sc_pass_implies_positive_margin_range(h1, h2):
    # consistency of the sufficient condition with the margins at kmax = 200
    for h in (h1, h2):
        assert sc_check(h, 0.1).verdict == "pass"
        assert ussd_margin(h, 200).min_margin > 0


@st.composite
def panel_profiles(draw):
    """Knots of 2 to 9 panels on [-1, 0], -1/2 among them now and then, the
    values at them, and a cosine piece c != 0."""
    inner = st.one_of(st.just(-0.5), st.floats(-0.999, -0.001))
    knots = np.array([-1.0, *sorted(draw(st.lists(inner, min_size=1, max_size=8, unique=True))), 0.0])
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=knots.size, max_size=knots.size))
    return knots, np.array(values), draw(st.floats(-10.0, 10.0).filter(lambda v: v != 0.0))


@settings(max_examples=200, deadline=None, database=None)
@given(panel_profiles())
def test_derivative_sup_is_the_sampled_max(pieces):
    # |h'| sampled at both ends of every panel and at y = -1/2, where the
    # cosine's slope peaks, with math.sin rather than the array form
    knots, values, c = pieces
    h = WavemakerProfile("tabulated", knots, values, c)
    sampled, inside = [], []
    for lo, hi, v_lo, v_hi in zip(knots[:-1], knots[1:], values[:-1], values[1:]):
        slope = (v_hi - v_lo) / (hi - lo)
        for y in (lo, hi, -0.5) if lo <= -0.5 <= hi else (lo, hi):
            sampled.append(abs(slope - c * OMEGA * math.sin(OMEGA * y + PHASE)))
        inside.append(np.abs(slope - c * OMEGA * np.sin(OMEGA * np.linspace(lo, hi, 101) + PHASE)))
    want = max(sampled)
    assert abs(h.derivative_sup - want) <= 2 * math.ulp(want)
    # and |h'| inside the panels stays below it
    assert np.max(inside) <= want + 4 * math.ulp(want)


def test_coupling_vector_values(h1):
    b = coupling_vector(h1, 4)
    assert isinstance(b, np.ndarray) and b.dtype == float and b.shape == (4,)
    assert b[0] == pytest.approx(B1_H1, abs=1e-13)
    assert b[0] / math.sqrt(2.0) == pytest.approx(BETA1_H1, abs=1e-13)


@pytest.mark.parametrize(
    "coupling",
    [np.ones((2, 4)), np.array([0.1, math.nan, 0.2, 0.3]), np.ones(3)],
    ids=["2-D", "non-finite", "short"],
)
@pytest.mark.parametrize(
    "reader",
    [
        lambda b: simulate_closed(ModalState.zero(4), b, SimConfig(n_modes=4, t_final=1.0)),
        lambda b: simulate_open(ModalState.zero(4), b, InputSignal.zero(1.0), SimConfig(n_modes=4, t_final=1.0)),
        lambda b: spectral_abscissa(b, 4),
    ],
    ids=["simulate_closed", "simulate_open", "spectral_abscissa"],
)
def test_bad_coupling_arrays_fail_at_the_coupling(reader, coupling):
    # one check, in coupling_vector, for every reader of a coupling array
    with pytest.raises(ValueError, match="^a coupling array must be 1-D and finite with at least 4 entries$") as err:
        reader(coupling)
    assert err.traceback[-1].name == "coupling_vector"


@pytest.mark.parametrize("bad", [np.array([1 + 1j, 0.0]), np.array([True, False]), "h1"],
                         ids=["complex", "bool", "string"])
@pytest.mark.parametrize(
    "entry, message",
    [
        (lambda x: ModalState(x, [0.0, 0.0]), "zeta must be a real array"),
        (lambda x: WavemakerProfile.from_samples([-1.0, 0.0], x), "h must be a real array"),
        (lambda x: neumann_to_neumann(x, 0.5), "v must be a real array"),
        (lambda x: spectral_abscissa(x, 2), "h must be a profile or a 1-D real array"),
    ],
    ids=["ModalState", "from_samples", "neumann_to_neumann", "spectral_abscissa"],
)
def test_arrays_that_are_not_real_fail_loudly(entry, message, bad):
    # one dtype check: a complex array does not run on its real part, a bool
    # array is not taken as 1/0, and text is named as what it is
    with pytest.raises(ValueError, match=rf"^{message}, got dtype (complex128|bool|<U2)$") as err:
        entry(bad)
    assert err.traceback[-1].name == "_real_array"


def test_coupling_vector_zero_profile():
    zero = WavemakerProfile.from_samples([-1.0, 0.0], [0.0, 0.0])
    assert np.all(coupling_vector(zero, 6) == 0.0)


def test_coupling_vector_homogeneous(h1):
    # alpha * h couples alpha times as strongly; tabulated linear data is exact
    y = np.linspace(-1.0, 0.0, 2)
    scaled = WavemakerProfile.from_samples(y, -3.0 * (y + 0.5))
    assert np.allclose(coupling_vector(scaled, 12), -3.0 * coupling_vector(h1, 12), rtol=1e-13)


def test_nonstrategic_construction(h_ns):
    b = coupling_vector(h_ns, 3)
    assert abs(b[0]) <= 1e-15
    assert abs(b[1]) > 1e-6
    assert h_ns.mean_residual() == pytest.approx(0.0, abs=1e-12)
    assert h_ns.derivative_sup > 0


def test_builtin_lookup():
    assert WavemakerProfile.builtin("h1").kind == "builtin-linear"
    assert WavemakerProfile.builtin("h2").kind == "builtin-cosine"
    assert WavemakerProfile.builtin("nonstrategic").kind == "builtin-nonstrategic"
    with pytest.raises(ValueError):
        WavemakerProfile.builtin("h3")


def test_tabulated_matches_builtin_criteria(h1):
    y = np.linspace(-1.0, 0.0, 2)
    tab = WavemakerProfile.from_samples(y, y + 0.5)
    for k in (1, 2, 7):
        assert strategic_integral_scaled(tab, k) == pytest.approx(
            strategic_integral_scaled(h1, k), rel=1e-13
        )
    assert tab.derivative_sup == pytest.approx(1.0)
    assert tab.value_at_zero == pytest.approx(0.5)
    np.testing.assert_allclose(
        ussd_margin(tab, 1000).margins, ussd_margin(h1, 1000).margins, rtol=1e-13, atol=0
    )
    assert strategic_check(tab, 1000).fails_at == ()


def test_csv_round_trip(tmp_path):
    y = np.linspace(-1.0, 0.0, 9)
    h = y + 0.5
    path = tmp_path / "profile.csv"
    with open(path, "w") as fh:
        fh.write("y,h\n")
        for yi, hi in zip(y, h):
            fh.write(f"{yi:.17g},{hi:.17g}\n")
    prof = WavemakerProfile.from_csv(path)
    assert prof.kind == "tabulated"
    assert prof(np.array([-0.25]))[0] == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize(
    "text",
    [
        "a,b\n-1,0\n0,0\n",  # wrong header
        "y,h\n-1\n0,0\n",  # short row
        "y,h\n-1,zero\n0,0\n",  # non-numeric
        "y,h\n-0.5,0\n0,0\n",  # missing left endpoint
        "y,h\n-1,0\n-0.5,0\n",  # missing right endpoint
        "y,h\n-1,0\n-1,0\n0,0\n",  # not strictly ascending
    ],
)
def test_csv_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        WavemakerProfile.from_csv(path)


def test_bad_mode_indices(h1):
    with pytest.raises(ValueError):
        strategic_integral_scaled(h1, 0)
    with pytest.raises(ValueError):
        strategic_check(h1, 0)
    with pytest.raises(ValueError):
        ussd_margin(h1, 0)
    with pytest.raises(ValueError):
        coupling_vector(h1, 0)


# -- the closed forms against independent references -------------------------


@pytest.fixture(scope="module")
def builtin_reference(h1, h2):
    # the non-strategic profile is h2 - r h1 with this r
    return strategic_builtins(5000, strategic_integral_scaled(h2, 1) / strategic_integral_scaled(h1, 1))


@pytest.mark.parametrize("name", ["h1", "h2", "nonstrategic"])
def test_strategic_integrals_match_mpmath_to_5000(builtin_reference, name):
    # every k <= 5,000 against 50-digit antiderivatives [measured: 2.4e-15,
    # 4.4e-16 and 1.8e-13 relative]; a 128-node Gauss rule is 2.4e-5 off at
    # k = 5,000
    h = WavemakerProfile.builtin(name)
    got, pieces = h._strategic(5000)
    want = builtin_reference[name]
    # the rounding bound that decides the strategic verdict holds at every k
    # [measured: 1.0, 1.8 and 0.87 eps P_k]
    assert np.all(np.abs(got - want) <= (h._knots.size + 4) * np.finfo(float).eps * pieces)
    if name != "nonstrategic":
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        return
    # h2 - r h1: I_1 vanishes by construction, and at k = 2 and 3 the pieces are
    # 1,000 and 300 times I_k, so there a few ulps of the pieces bound the error
    # (rounding pi/2 and 3 pi/4 alone moves I_2 by 4e-13) [measured: 1.3e-13
    # and 1.8e-13 relative, 5.5e-17 and 1.9e-16 of the pieces]
    assert abs(got[0]) <= 1e-16
    bound = np.maximum(1e-13 * np.abs(want), 1e-15 * builtin_reference["pieces"])
    assert np.all(np.abs(got - want)[1:] <= bound[1:])


@pytest.mark.parametrize("name", ["h1", "h2"])
def test_check_profile_margins_at_kmax_5000(tmp_path, builtin_reference, name):
    # the report's minimum and tail of m_k = k |I_k / cosh k|; from a 128-node
    # Gauss rule the tail for h1 reads 0.49978826, where it is 0.4998
    out = tmp_path / "report.json"
    assert main(["check-profile", "--profile", name, "--kmax", "5000", "--output", str(out)]) == 0
    ussd = json.loads(out.read_text())["ussd"]
    margins = np.arange(1, 5001) * np.abs(builtin_reference[name])
    assert ussd["argmin_k"] == np.argmin(margins) + 1
    assert ussd["min_margin"] == pytest.approx(margins.min(), rel=1e-13, abs=0)
    assert ussd["tail_margin"] == pytest.approx(margins[-1], rel=1e-13, abs=0)


def ends_inside():
    """A zero-mean tabulated profile whose grid ends sit 5e-13 inside [-1, 0]."""
    y, h = jittered_profile(panels=6, seed=4)
    y[0], y[-1] = -1.0 + 5e-13, -5e-13
    return y, h


@pytest.mark.parametrize("samples", [lambda: jittered_profile(panels=40, seed=2), ends_inside],
                         ids=["jittered-40", "ends-inside"])
def test_tabulated_integrals_match_panel_quadrature(samples):
    # against 50-digit Gauss-Legendre on every panel, over the grid's own span
    # [measured: 8.8e-15 and 4.4e-15 relative]; taking the ends as -1 and 0
    # would be 4.3e-12 off at k = 1 and 2.5e-9 at k = 5,000
    y, h = samples()
    ks = np.r_[1:51, 500, 2800, 5000]
    got = WavemakerProfile.from_samples(y, h)._strategic(5000)[0, ks - 1]
    np.testing.assert_allclose(got, strategic_quadrature(y, h, 0.0, ks), rtol=1e-13, atol=0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tabulated_rounding_bound_holds(seed):
    # the bound (n + 4) eps P_k that decides the strategic verdict, for 200
    # panels, against 50-digit Gauss-Legendre [measured: at most 0.54 eps P_k]
    y, h = jittered_profile(seed=seed)
    ks = np.array([1, 2, 50, 500, 1000])
    got, pieces = WavemakerProfile.from_samples(y, h)._strategic(1000)[:, ks - 1]
    bound = (y.size + 4) * np.finfo(float).eps * pieces
    assert np.all(np.abs(got - strategic_quadrature(y, h, 0.0, ks)) <= bound)


@pytest.mark.parametrize(
    "profile, kernel, kmax",
    [("h1", "cosh_over_cosh", 5000), ("tabulated", "cosh_over_cosh", 1000), ("h2", "_psi_factor", 3000)],
)
def test_integrals_match_whole_block_kernel(h1, h2, profile, kernel, kmax):
    # each value, to the bit, whether it is asked alone, in a sub-range or in the
    # whole range 1..kmax, formed there a block at a time: every row is summed
    # along the knots on its own (a product with the knots, gemv, changed the
    # last bits of 364 of the 1,000 tabulated sums with the block)
    h = {"h1": h1, "h2": h2, "tabulated": WavemakerProfile.from_samples(*jittered_profile())}[profile]
    if kernel == "cosh_over_cosh":  # I_k / cosh k and P_k
        of = lambda first, last: h._strategic(last, first)
    else:  # the wall moments behind psi_k
        rates = _wall_rate(np.arange(1, kmax + 1))
        of = lambda first, last: h._wall(rates[first - 1 : last])
    whole = of(1, kmax)
    alone = np.concatenate([of(k, k) for k in range(1, kmax + 1)], axis=-1)
    assert alone.tobytes() == whole.tobytes()
    rng = np.random.default_rng(kmax)
    for first, last in np.sort(rng.integers(1, kmax + 1, size=(8, 2)), axis=1):
        assert of(first, last).tobytes() == whole[..., first - 1 : last].tobytes()


@settings(max_examples=200, deadline=None, database=None)
@given(
    k=st.lists(st.floats(1e-6, 3000.0), min_size=1, max_size=12),
    y=st.lists(st.floats(-1.0, 0.0), min_size=1, max_size=12),
)
def test_cosh_over_cosh_skip_is_exact(k, y):
    # where e^{-2k(y+1)} is skipped, 1 + e^{-2k(y+1)} rounds to 1 anyway
    k, y = np.array(k)[:, None], np.array(y)
    two_exp = np.exp(k * y) * (1.0 + np.exp(-2.0 * k * (y + 1.0))) / (1.0 + np.exp(-2.0 * k))
    assert cosh_over_cosh(k, y).tobytes() == two_exp.tobytes()


def test_strategic_arrays_are_writable_and_agree():
    h = WavemakerProfile.from_samples(*jittered_profile(panels=20))
    scaled = h._strategic(300)[0]
    margins = ussd_margin(h, 300).margins
    assert strategic_check(h, 300).fails_at == ()
    np.testing.assert_array_equal(margins, np.arange(1, 301) * np.abs(scaled))
    # what the criteria hand out is their own, writable array
    b = coupling_vector(h, 300)
    assert b.flags.writeable and margins.flags.writeable
    np.testing.assert_array_equal(b, -math.sqrt(2.0 / math.pi) * scaled)
    # a single k is its own one-row range, and agrees with it in every bit
    assert strategic_integral_scaled(h, 7) == scaled[6]
