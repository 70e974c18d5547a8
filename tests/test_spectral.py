import math
import re

import numpy as np
import pytest

from wavetank.spectral import (
    GapViolationError,
    _candidate_indices,
    eigenvalue,
    eigenvalues,
    frequencies,
    frequency,
    gap_products,
    separation_certificate,
    wave_package,
)

from moments import separation_minimum

# frozen from the mpmath hyperbolic oracle (40 digits, rounded to double)
LAM1 = 0.7615941559557649
LAM2 = 1.9280551601516338
MU1 = 0.8726936208978296
MU2 = 1.3885442593420037
P1 = 0.45017956150630345
P50 = 0.4975246918103898


def test_eigenvalue_examples():
    assert eigenvalue(1) == pytest.approx(LAM1, rel=4e-16)
    assert eigenvalue(2) == pytest.approx(LAM2, rel=4e-16)


def test_eigenvalue_saturates():
    # k - lambda_k dies exponentially; at k=50 the gap is ~4e-42
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    assert abs(50 * mp.tanh(50) - 50) < mp.mpf("1e-40")
    assert eigenvalue(50) == 50.0


@pytest.mark.parametrize("bad", [0, -1, -7, 1.5, True])
def test_eigenvalue_rejects_bad_index(bad):
    with pytest.raises(ValueError):
        eigenvalue(bad)


def test_frequency_examples():
    assert frequency(1) == pytest.approx(MU1, rel=4e-16)
    assert frequency(2) == pytest.approx(MU2, rel=4e-16)
    assert frequency(-1) == -frequency(1)
    assert frequency(-9) == -frequency(9)


def test_frequency_rejects_zero():
    with pytest.raises(ValueError):
        frequency(0)


def test_spectrum_monotone_and_positive():
    lam = eigenvalues(1000)
    mu = frequencies(1000)
    assert np.all(lam > 0)
    assert np.all(np.diff(lam) > 0)
    assert np.all(np.diff(mu) > 0)
    k = np.arange(1, 1001, dtype=float)
    assert np.all(np.abs(lam - k) <= 2 * k * np.exp(-2 * k) + 1e-13)


def test_gap_products_examples():
    p = gap_products(51)
    assert p[0] == pytest.approx(P1, rel=1e-14)
    assert p[49] == pytest.approx(P50, rel=1e-14)
    assert len(gap_products(2)) == 1


def test_gap_products_rejects_small_kmax():
    # one mode has no gap to the next: kmax = 1 gives no products, and a count
    # below one, a float or a bool fails
    assert gap_products(1).shape == (0,)
    for kmax, message in ((0, "kmax must be >= 1, got 0"), (1.5, "kmax must be an integer, got 1.5"),
                          (True, "kmax must be an integer, got True")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gap_products(kmax)


def test_gap_products_limit_structure():
    # p_k = 1/2 - 1/(8k) + O(k^-2): the approach to 1/2 is algebraic, while
    # the tanh correction relative to the pure sqrt spacing is exponential.
    p = gap_products(1000)
    k = np.arange(1, 1000, dtype=float)
    tail = k >= 30
    assert np.all(np.abs(p[tail] - 0.5 + 1.0 / (8 * k[tail])) <= 0.2 / k[tail] ** 2)
    s = np.sqrt(np.arange(1, 1001, dtype=float))
    pure = s[:-1] * np.diff(s)
    assert np.max(np.abs(p[tail] - pure[tail])) < 1e-9
    assert np.all(p > 0)


def test_wave_package_centered_on_eigenfrequency():
    res = wave_package(frequency(3), 0.1)
    assert res.member == 3
    assert res.width_delta == pytest.approx(0.1 / (frequency(3) + 1.0))


def test_wave_package_midpoint_misses():
    mid = 0.5 * (frequency(1) + frequency(2))
    res = wave_package(mid, 0.1)
    assert res.member is None
    # the midpoint sits 0.2579 from each neighbour, far beyond delta = 0.0469
    assert res.width_delta == pytest.approx(0.046934718, rel=1e-6)


def test_wave_package_at_origin():
    assert wave_package(0.0, 0.5).member is None


def test_wave_package_negative_center():
    res = wave_package(-frequency(4), 0.05)
    assert res.member == -4


def test_wave_package_gap_violation_carries_indices():
    with pytest.raises(GapViolationError) as exc:
        wave_package(0.0, 1.5)
    assert 1 in exc.value.indices and -1 in exc.value.indices


def test_wave_package_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        wave_package(1.0, 0.0)


@pytest.mark.parametrize(
    "s, eps, message",
    [
        (math.inf, 0.1, "s must be finite, got inf"),
        (-math.inf, 0.1, "s must be finite, got -inf"),
        (math.nan, 0.1, "s must be finite, got nan"),
        (1.0, math.inf, "eps must be positive and finite, got inf"),
        (1.0, math.nan, "eps must be positive and finite, got nan"),
    ],
)
def test_wave_package_rejects_non_finite(s, eps, message):
    # the candidate bracket takes int() of (s +- delta) squared, which fails on inf and NaN
    with pytest.raises(ValueError) as err:
        wave_package(s, eps)
    assert str(err.value) == message


def test_wave_package_wide_width_counts_both_branches():
    # delta = 50/3.9 ~ 12.8 swallows many frequencies of both signs; the
    # enumeration must see all of them, not just a window near the center
    with pytest.raises(GapViolationError) as exc:
        wave_package(2.9, 50.0)
    assert len(exc.value.indices) > 100
    assert any(k < 0 for k in exc.value.indices)


def test_wave_package_large_center():
    mu800 = frequency(800)
    assert wave_package(mu800, 0.05).member == 800


def _brute_force_members(s, delta, kmax):
    # every signed index up to kmax, with the frequencies computed as wave_package computes them
    k = np.arange(1, kmax + 1, dtype=float)
    mu = np.sqrt(k * np.tanh(k))
    return sorted([int(i) for i in k[np.abs(mu - s) < delta]] + [-int(i) for i in k[np.abs(-mu - s) < delta]],
                  key=abs)


def test_wave_package_matches_brute_force():
    rng = np.random.default_rng(7)
    centers = np.concatenate([rng.uniform(-12.0, 12.0, 300), [frequency(k) for k in range(1, 40)],
                              [-frequency(k) + 1e-3 for k in range(1, 40)], [0.0]])
    for s in centers:
        for eps in (0.05, 0.5, 3.0):
            delta = eps / (abs(s) + 1.0)
            members = _brute_force_members(s, delta, int((abs(s) + delta) ** 2) * 4 + 50)
            if len(members) > 1:
                with pytest.raises(GapViolationError) as exc:
                    wave_package(float(s), eps)
                assert list(exc.value.indices) == members
            else:
                assert wave_package(float(s), eps).member == (members[0] if members else None)


@pytest.mark.parametrize("s", [1e4, 1e5])
def test_wave_package_bracket_holds_a_handful(s):
    # the bracket grows with eps, not with s^2 (it held ~0.31 s^2 indices)
    for eps in (0.1, 1.0):
        assert len(_candidate_indices(s, eps / (s + 1.0))) <= 16
    assert wave_package(s, 0.1).member == round(s * s)
    assert wave_package(-frequency(round(s * s) + 1), 0.1).member == -(round(s * s) + 1)


def test_wave_package_rejects_centers_beyond_double_resolution():
    # at |s| = 1e9 neighbouring frequencies are 5e-10 apart, below the spacing of doubles
    with pytest.raises(ValueError, match="too large: doubles do not separate"):
        wave_package(1e9, 0.1)
    # below 2^26.5, where the bracket is formed and its frequencies are found not to increase
    too_large = r"^\|s\| = 6\.71089e\+07 is too large: doubles do not separate the frequencies near it$"
    with pytest.raises(ValueError, match=too_large):
        wave_package(2.0**26, 1e-3)
    # and where the squares of the bracket would overflow
    for s in (1e155, -1e155, 1e300):
        with pytest.raises(ValueError, match="too large: doubles do not separate"):
            wave_package(s, 0.1)


def test_separation_certificate_positive_and_consistent():
    eps0 = separation_certificate(100)
    assert eps0 > 0
    # no package centred anywhere on the certified interval holds two modes at eps0
    rng = np.random.default_rng(3)
    hi = frequency(100) + 1.0
    for s in rng.uniform(-hi, hi, size=200):
        wave_package(float(s), eps0)  # must not raise


def test_separation_certificate_is_tight():
    eps0 = separation_certificate(60)
    mid = 0.5 * (frequency(59) + frequency(60))
    with pytest.raises(GapViolationError):
        wave_package(mid, 1.05 * (frequency(60) - frequency(59)) / 2 * (abs(mid) + 1.0))
    # the package at this midpoint holds two modes from its product on, so eps0 is at most that
    delta_needed = (frequency(60) - frequency(59)) / 2 * (abs(mid) + 1.0)
    assert eps0 <= delta_needed


def _brute_force_products(kmax, grid_step=1e-3):
    """d2(s) (|s| + 1) on a grid of [-H, H] with about the given step, d2 the
    second-smallest distance from s to every signed frequency up to well past H."""
    hi = frequency(kmax) + 1.0
    s = np.linspace(-hi, hi, int(2.0 * hi / grid_step) + 1)
    k = np.arange(1, int((hi + 3.0) ** 2) + 10, dtype=float)
    mu = np.sqrt(k * np.tanh(k))
    mu = np.concatenate([-mu, mu])
    d2 = np.concatenate([np.partition(np.abs(mu - part[:, None]), 1, axis=1)[:, 1]
                         for part in np.array_split(s, max(1, s.size // 500))])
    return d2 * (np.abs(s) + 1.0)


@pytest.mark.parametrize("kmax", [1, 7, 9, 60, 100, 1000])
def test_separation_certificate_is_the_exact_minimum(kmax):
    eps0 = separation_certificate(kmax)
    reference, centre = separation_minimum(kmax)
    assert eps0 == pytest.approx(reference, rel=1e-12)
    # no package centred at 0, at +-H or at a midpoint up to H holds two modes at eps0
    hi = frequency(kmax) + 1.0
    mu = frequencies(math.ceil(hi**2) + 2)
    mid = 0.5 * (mu[:-1] + mu[1:])
    for s in [0.0, hi, -hi, *mid[mid <= hi]]:
        wave_package(float(s), eps0)
    # and the one at the minimising centre holds two just above it
    with pytest.raises(GapViolationError):
        wave_package(centre, float(np.nextafter(eps0, 1.0)))
    # sound: no point of a fine grid of [-H, H] has a smaller product
    if kmax <= 60:
        assert eps0 <= _brute_force_products(kmax).min()


def test_eigenvalue_matches_the_vector_form():
    # math.tanh and numpy's tanh differ by an ulp at k = 9 and 19
    n = 20_000
    lam, mu = eigenvalues(n), frequencies(n)
    assert all(eigenvalue(k) == lam[k - 1] for k in range(1, n + 1))
    assert all(frequency(k) == mu[k - 1] and frequency(-k) == -mu[k - 1] for k in range(1, n + 1))
