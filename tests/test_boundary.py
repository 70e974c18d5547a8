import math
import re

import numpy as np
import pytest

from wavetank.boundary import (
    FieldGrid,
    dirichlet_field,
    harmonicity_residual,
    hilbert_bound_ratio,
    neumann_field,
    neumann_to_neumann,
    neumann_wall_residual,
    reconstruct_field,
    side_projection,
    wall_trace,
)
from wavetank.profiles import WavemakerProfile

# frozen from the mpmath oracle
D_E1_CORNER = 0.5170724995187291  # sqrt(2/pi)/cosh(1)
SQRT_2_OVER_PI = 0.7978845608028654
A1_NEUMANN = 0.012950609705095628  # 2 sqrt(2)/(pi sinh(pi^2/2))
BT1 = -0.02034277015451855  # -sqrt(2)/sinh(pi^2/2)
BT2 = 1.0521384658349648e-06  # +sqrt(2)/sinh(3 pi^2/2)
C1_ABS = 2.8285734275762757  # sqrt(2) e^{pi^2/2}/sinh(pi^2/2)
HILBERT_E1 = 2.5466108082953514  # |c_1|^2 (1 - e^{-pi^2})/pi

E1 = np.array([1.0])


def _phi(modes: int, x: np.ndarray) -> np.ndarray:
    k = np.arange(1, modes + 1)
    return math.sqrt(2.0 / math.pi) * np.cos(np.outer(k, x))


def test_dirichlet_top_trace_identity():
    rng = np.random.default_rng(7)
    eta = rng.standard_normal(64)
    grid = dirichlet_field(eta, 64, 64)
    surface = eta @ _phi(64, grid.x)
    assert np.max(np.abs(grid.top - surface)) <= 1e-12


def test_dirichlet_point_values():
    grid = dirichlet_field(E1, 32, 32)
    assert grid.values[0, 0] == pytest.approx(D_E1_CORNER, rel=1e-13)
    assert grid.values[0, -1] == pytest.approx(SQRT_2_OVER_PI, rel=1e-13)


def test_dirichlet_zero_data():
    assert np.all(dirichlet_field(np.zeros(8), 8, 8).values == 0.0)


def test_wall_trace_values():
    y = np.array([0.0, -1.0])
    out = wall_trace(E1, y)
    assert out[0] == pytest.approx(SQRT_2_OVER_PI, rel=1e-13)
    assert out[1] == pytest.approx(D_E1_CORNER, rel=1e-13)
    assert np.all(wall_trace(np.zeros(5), y) == 0.0)


def test_wall_trace_matches_dirichlet_wall_column():
    rng = np.random.default_rng(11)
    eta = rng.standard_normal(16)
    grid = dirichlet_field(eta, 16, 32)
    assert np.allclose(grid.values[0], wall_trace(eta, grid.y), atol=1e-14)


def test_neumann_corner_value():
    grid = neumann_field(E1, 16, 16)
    assert grid.values[-1, 0] == pytest.approx(A1_NEUMANN, rel=1e-12)


def test_neumann_top_annihilation_exact():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(50)
    grid = neumann_field(v, 24, 24)
    assert np.all(grid.top == 0.0)
    assert np.all(neumann_field(np.zeros(4), 8, 8).values == 0.0)


def test_neumann_wall_residual_per_mode():
    y = np.linspace(-1.0, 0.0, 257)
    for k in (1, 2, 10, 64, 200):
        v = np.zeros(k)
        v[-1] = 1.0
        assert neumann_wall_residual(v, y) <= 1e-10


def test_neumann_wall_residual_random_vector():
    rng = np.random.default_rng(13)
    v = rng.standard_normal(10)
    y = np.linspace(-1.0, 0.0, 129)
    assert neumann_wall_residual(v, y) <= 1e-10
    assert neumann_wall_residual(np.zeros(3), y) == 0.0


def test_neumann_to_neumann_values():
    x_end = np.array([np.pi])
    assert neumann_to_neumann(E1, x_end)[0] == pytest.approx(BT1, rel=1e-12)
    assert neumann_to_neumann(np.array([0.0, 1.0]), x_end)[0] == pytest.approx(BT2, rel=1e-12)
    assert np.all(neumann_to_neumann(np.zeros(6), np.linspace(0, np.pi, 9)) == 0.0)


def test_neumann_to_neumann_overflow_guarded():
    # mode 200 has (2k-1) pi^2/2 ~ 1969, far past cosh overflow; the shifted
    # evaluation keeps everything finite
    v = np.zeros(200)
    v[-1] = 1.0
    out = neumann_to_neumann(v, np.linspace(0.0, np.pi, 33))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)  # coth ~ 1 at x=0


def test_adjoint_identity_per_side_mode():
    # <B1 psi_j, phi_k> = -<psi_j, C0 phi_k>; both reduce to the closed form
    # (-1)^j (2/sqrt(pi)) a_j/(a_j^2 + k^2). The right side is evaluated by
    # quadrature of the smooth wall trace, validating it independently.
    from wavetank._gauss import panel_rule

    y, w = panel_rule([(-1.0, 0.0)], 96)
    for j in (1, 2, 5):
        a = (2 * j - 1) * np.pi / 2
        psi_j = math.sqrt(2.0) * np.cos(a * (y + 1.0))
        for k in (1, 2, 3):
            e_k = np.zeros(k)
            e_k[-1] = 1.0
            rhs = -float(np.dot(w, psi_j * wall_trace(e_k, y)))
            lhs = (-1.0) ** j * (2.0 / math.sqrt(math.pi)) * a / (a**2 + k**2)
            assert rhs == pytest.approx(lhs, rel=1e-12)


def test_neumann_to_neumann_x_integral():
    # integral over [0, pi] of the j-th trace mode is (-1)^j sqrt(2)/a_j
    x = np.linspace(0.0, np.pi, 8193)
    vals = neumann_to_neumann(E1, x)
    assert np.trapezoid(vals, x) == pytest.approx(-math.sqrt(2.0) / (np.pi / 2), abs=1e-6)


def test_hilbert_ratio_e1_matches_closed_form():
    assert hilbert_bound_ratio(E1) == pytest.approx(HILBERT_E1, abs=1e-9)


def test_hilbert_ratio_seeded_vectors_bounded():
    for seed in range(100):
        v = np.random.default_rng(seed).standard_normal(50)
        assert hilbert_bound_ratio(v) <= 10.0


def test_hilbert_ratio_worst_alignment_still_bounded():
    # aligning the signs with (-1)^k maximizes the quadratic form
    k = np.arange(1, 51)
    v = (-1.0) ** k / np.sqrt(k)
    assert hilbert_bound_ratio(v) <= 10.0


def test_hilbert_ratio_scale_invariant():
    v = np.random.default_rng(2).standard_normal(20)
    assert hilbert_bound_ratio(3.7 * v) == pytest.approx(hilbert_bound_ratio(v), rel=1e-12)


def test_hilbert_ratio_rejects_zero():
    with pytest.raises(ValueError):
        hilbert_bound_ratio(np.zeros(4))


def test_hilbert_ratio_rejects_odd_panels():
    for panels in (0, 7):
        with pytest.raises(ValueError, match="even number of panels"):
            hilbert_bound_ratio(E1, panels=panels)


def test_hilbert_coefficient_bound():
    # |c_k| <= |c_1| < sqrt(10); c_k = sqrt(2) e^{a_k pi}/sinh(a_k pi)
    from wavetank._hyper import exp_left_over_sinh

    c = [
        math.sqrt(2.0) * float(exp_left_over_sinh((2 * k - 1) * np.pi / 2, 0.0))
        for k in range(1, 51)
    ]
    assert c[0] == pytest.approx(C1_ABS, rel=1e-13)
    assert max(c) == c[0] < math.sqrt(10.0)


def test_harmonicity_orders():
    for build in (dirichlet_field, neumann_field):
        r_coarse = harmonicity_residual(build(E1, 64, 64))
        r_fine = harmonicity_residual(build(E1, 128, 128))
        order = math.log2(r_coarse / r_fine)
        assert 1.8 <= order <= 2.2


def test_harmonicity_constant_field_zero():
    grid = FieldGrid(nx=8, ny=8, values=np.full((9, 9), 3.25))
    assert harmonicity_residual(grid) == 0.0


def test_harmonicity_rejects_small_grid():
    with pytest.raises(ValueError):
        harmonicity_residual(FieldGrid(nx=2, ny=8, values=np.zeros((3, 9))))


def test_linearity_of_evaluators():
    rng = np.random.default_rng(21)
    a, b = rng.standard_normal(12), rng.standard_normal(12)
    alpha = -1.7
    for build in (dirichlet_field, neumann_field):
        combo = build(alpha * a + b, 12, 12).values
        split = alpha * build(a, 12, 12).values + build(b, 12, 12).values
        scale = np.max(np.abs(split)) or 1.0
        assert np.max(np.abs(combo - split)) / scale <= 1e-13
    x = np.linspace(0, np.pi, 33)
    combo = neumann_to_neumann(alpha * a + b, x)
    split = alpha * neumann_to_neumann(a, x) + neumann_to_neumann(b, x)
    assert np.max(np.abs(combo - split)) <= 1e-13 * max(np.max(np.abs(split)), 1e-30)


def test_side_projection_orthonormality():
    # projecting psi_3 onto the basis returns the unit vector
    psi3 = WavemakerProfile(
        kind="psi_3",
        fn=lambda y: math.sqrt(2.0) * np.cos(5 * 0.5 * np.pi * (np.asarray(y) + 1.0)),
        panels=[(-1.0, 0.0)],
        nodes_per_panel=128,
        derivative_sup=None,
        value_at_zero=0.0,
    )
    v = side_projection(psi3, 6)
    expect = np.zeros(6)
    expect[2] = 1.0
    assert np.allclose(v, expect, atol=1e-12)


def test_side_projection_matches_closed_form(h1):
    # sqrt(2) (-1)^k integral (y + 1/2) sin(a_k y) dy = -sqrt(2) (1/a_k^2 + (-1)^k/(2 a_k))
    k = np.arange(1, 65)
    a = (2 * k - 1) * 0.5 * np.pi
    exact = -math.sqrt(2.0) * (1.0 / a**2 + (-1.0) ** k / (2.0 * a))
    assert np.max(np.abs(side_projection(h1, 64) - exact)) <= 1e-13


@pytest.mark.parametrize("n_modes", [0, -3])
def test_side_projection_rejects_no_modes(h1, n_modes):
    with pytest.raises(ValueError, match="side-mode count"):
        side_projection(h1, n_modes)
    for u_now in (0.0, 1.0):
        with pytest.raises(ValueError, match="side-mode count"):
            reconstruct_field(E1, u_now, h1, 4, 4, n_side_modes=n_modes)


def test_reconstruct_field_identities(h1):
    rng = np.random.default_rng(3)
    zeta = rng.standard_normal(6)
    only_d = reconstruct_field(zeta, 0.0, h1, 12, 12)
    assert np.allclose(only_d.values, -dirichlet_field(zeta, 12, 12).values, atol=0)
    only_n = reconstruct_field(np.zeros(2), 1.0, h1, 12, 12)
    wall = neumann_field(side_projection(h1, 64), 12, 12)
    assert np.allclose(only_n.values, wall.values, atol=0)
    # top trace is exactly -zeta(x): the wall extension vanishes there
    mixed = reconstruct_field(E1, 1.0, h1, 16, 16)
    x = mixed.x
    assert np.max(np.abs(mixed.top + math.sqrt(2 / math.pi) * np.cos(x))) == 0.0


def test_field_grid_csv_export(tmp_path, capsys):
    grid = dirichlet_field(E1, 2, 2)
    path = tmp_path / "field.csv"
    grid.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 3 * 3
    x, y, v = (float(s) for s in lines[1].split(","))
    assert (x, y) == (0.0, -1.0)
    assert v == grid.values[0, 0]  # 17 significant digits round-trip losslessly
    capsys.readouterr()
    grid.to_csv(None)  # no path: the same text on stdout
    assert capsys.readouterr().out == path.read_text()


def test_field_grid_csv_exact_text(tmp_path):
    grid = FieldGrid(nx=1, ny=1, values=[[0.1, -0.0], [5e-324, 1.7976931348623157e308]])
    path = tmp_path / "field.csv"
    grid.to_csv(path)
    assert path.read_text() == (
        "x,y,value\n"
        "0,-1,0.10000000000000001\n"
        "0,0,-0\n"
        "3.1415926535897931,-1,4.9406564584124654e-324\n"
        "3.1415926535897931,0,1.7976931348623157e+308\n"
    )


@pytest.mark.parametrize(
    ("nx", "ny", "message"),
    [
        (True, 4, "nx must be an integer, got True"),
        (4.5, 4, "nx must be an integer, got 4.5"),
        (4, 4.0, "ny must be an integer, got 4.0"),
        (4, -2, "ny must be >= 1, got -2"),
    ],
)
def test_grid_sizes_must_be_integers(h1, nx, ny, message):
    # a bool is not taken as 1, and a float reaches no numpy call
    for build in (lambda: reconstruct_field(np.zeros(3), 0.0, h1, nx, ny),
                  lambda: dirichlet_field(np.ones(2), nx, ny),
                  lambda: neumann_field(np.ones(2), nx, ny)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_field_grid_shape_validation():
    with pytest.raises(ValueError):
        FieldGrid(nx=2, ny=2, values=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        FieldGrid(nx=0, ny=2, values=np.zeros((1, 3)))


def test_coefficient_validation():
    with pytest.raises(ValueError):
        dirichlet_field(np.array([1.0, np.nan]), 8, 8)
    with pytest.raises(ValueError):
        neumann_field(np.array([[1.0, 2.0]]), 8, 8)
