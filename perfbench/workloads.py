"""The benchmark's workloads: seeded inputs, the operations of one pass, and their checks.

Each workload function writes its inputs into a run directory, computes the
reference values once from :mod:`oracles`, and returns the list of
operations that make up one pass. An operation is a ``wavetank`` command
line (or, for ``lib``, a call of ``lib_child.py``) together with a check
that reads the files the operation wrote and raises :class:`CheckFailed`
when they disagree with the references or break a property of the method.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

KMAX = 1000
ABSCISSA_NS = (100, 200, 400)
RATE_NS = (8, 16, 32, 64)
STATE_MODES = 100
PROFILE_PANELS = 200
SIM_MODES = 200
DT = 0.005

# Tolerances, each well above the agreement measured between the program
# and the references (measured figure in brackets).
MARGIN_RTOL, MARGIN_ATOL = 1e-9, 1e-10  # quadrature of I_k/cosh k [2.4e-12 rel]
MEAN_ATOL = 1e-10  # the program's own volume-conservation tolerance
TABLE_RTOL, GAP_RTOL = 1e-14, 1e-10  # dispersion table [2e-16, 2.1e-13]
ABSCISSA_RTOL = 1e-6  # two dense eigensolves [1.4e-9]
FIRST_ORDER_RTOL = 1e-3  # abscissa against -min b_k^2/2 [1.6e-5]
CLOSED_RTOL, STATE_ATOL = 1e-6, 1e-6  # splitting against exact closed loop [5e-9, 8e-9]
OPEN_RTOL = 1e-5  # midpoint-forced open loop against Duhamel [2.6e-7]
CONSERVE_RTOL = 1e-13  # norm drift under zero input [3.5e-16]
RECOMPUTE_RTOL = 1e-10  # tracked against recomputed energy norm [2.3e-13]
RATE_RTOL = 1e-5  # fitted rates against fits of the exact solution [1.6e-8]
FIT_RTOL = 1e-9  # decay fit against a refit of the written series [1e-15]
FIELD_ATOL, SURFACE_ATOL = 1e-6, 1e-12  # field grid [3e-8 side projection], surface row


class CheckFailed(Exception):
    """An output disagrees with its reference or breaks a property of the method."""


@dataclass
class Op:
    """One operation of a pass: the command, the files it touches, and its check."""

    name: str
    args: list
    check: Callable[[], None]
    reads: list = field(default_factory=list)
    writes: list = field(default_factory=list)
    lib: bool = False


def expect(ok, what):
    if not ok:
        raise CheckFailed(what)


def expect_close(what, got, want, rtol=0.0, atol=0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    expect(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    bad = err > atol + rtol * np.abs(want)
    expect(not np.any(bad), f"{what}: max error {np.max(err):.3e} (rtol {rtol}, atol {atol})")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    """Header and float matrix of a CSV whose every cell is a number."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = fh.read()
    data = np.array(body.replace(",", " ").split(), dtype=float)
    expect(data.size % len(header) == 0, f"{Path(path).name}: ragged rows")
    return header, data.reshape(-1, len(header))


def cli_series(path, n_rows, n_modes=0):
    """Columns of a time-series CSV after checking its shape and energy column."""
    header, data = read_csv(path)
    want = ["t", "x_norm", "energy", "u"]
    if n_modes:
        want += [f"zeta_{k}" for k in range(1, n_modes + 1)] + [f"w_{k}" for k in range(1, n_modes + 1)]
    expect(header == want, f"{Path(path).name}: header {header[:6]}...")
    expect(len(data) == n_rows, f"{Path(path).name}: {len(data)} rows, want {n_rows}")
    expect_close("x_norm = sqrt(energy)", data[:, 1], np.sqrt(data[:, 2]), rtol=4e-16)
    return data


def check_monotone_energy(energy):
    rises = np.flatnonzero(np.diff(energy) > 0.0)
    expect(rises.size == 0, f"energy increases at {rises.size} samples")


# -- seeded inputs ------------------------------------------------------------


def write_profile_csv(path, rng):
    """Increasing, zero-mean piecewise-linear profile on a jittered grid.

    An increasing zero-mean h has I_k > 0 for every k (integrate by parts
    against its negative primitive), so the strategic verdict never sits
    near the program's zero threshold, whatever the seed.
    """
    cuts = np.cumsum(0.5 + rng.random(PROFILE_PANELS))
    y = np.concatenate([[-1.0], -1.0 + cuts / cuts[-1]])
    y[-1] = 0.0
    h = np.concatenate([[0.0], np.cumsum(0.1 + rng.random(PROFILE_PANELS))])
    h -= np.sum(0.5 * (h[1:] + h[:-1]) * np.diff(y))
    with open(path, "w") as fh:
        fh.write("y,h\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(y.tolist(), h.tolist())))
    return y, h


def write_state_csv(path, rng):
    k = np.arange(1, STATE_MODES + 1)
    zeta = rng.normal(size=STATE_MODES) / k**2
    w = rng.normal(size=STATE_MODES) / k**2
    with open(path, "w") as fh:
        fh.write("k,zeta,w\n" + "".join(f"{i},{a!r},{b!r}\n" for i, a, b in zip(k, zeta.tolist(), w.tolist())))
    return zeta, w


def write_signal_json(path, rng, t_final):
    """Sinusoid up to a whole-second switch time, then zero, in ascending order."""
    sig = {
        "amplitude": float(rng.uniform(0.5, 2.0)),
        "omega": float(rng.uniform(0.5, 3.0)),
        "phase": float(rng.uniform(0.0, 2.0 * math.pi)),
        "t_switch": float(rng.integers(10, 31)),
    }
    segments = [
        {"t_start": 0.0, "t_end": sig["t_switch"], "form": "sinusoid",
         "amplitude": sig["amplitude"], "omega": sig["omega"], "phase": sig["phase"]},
        {"t_start": sig["t_switch"], "t_end": t_final, "form": "zero"},
    ]
    with open(path, "w") as fh:
        json.dump(segments, fh)
    return sig


def padded(v):
    out = np.zeros(SIM_MODES)
    out[: len(v)] = v
    return out


# -- workloads ------------------------------------------------------------------


def certify(d: Path, seed: int):
    """Profile certificates, the dispersion table and dense spectral abscissae."""
    rng = np.random.default_rng(seed)
    y, h = write_profile_csv(d / "profile.csv", rng)
    s1 = oracles.scaled_linear(KMAX)
    s2 = oracles.scaled_cosine(KMAX)
    r = s2[0] / s1[0]
    g = lambda s: abs(-0.5 * math.pi * s - r)
    profiles = {
        # name: (I_k/cosh k, sup |h'|, h(0), k with I_k = 0)
        "h1": (s1, 1.0, 0.5, []),
        "h2": (s2, 0.5 * math.pi, math.cos(0.75 * math.pi), []),
        "nonstrategic": (s2 - r * s1, max(g(math.sqrt(0.5)), g(1.0)),
                         math.cos(0.75 * math.pi) - 0.5 * r, [1]),
        "tabulated": (oracles.scaled_piecewise_linear(y, h, KMAX),
                      float(np.max(np.abs(np.diff(h) / np.diff(y)))), float(h[-1]), []),
    }
    lam, mu, gaps = oracles.dispersion(KMAX)
    b = oracles.coupling(s1)
    absc = [oracles.abscissa(b[:n]) for n in ABSCISSA_NS]

    def profile_check(name, out):
        scaled, dsup, h0, fails = profiles[name]
        want = oracles.margins(scaled)
        tol = dict(rtol=MARGIN_RTOL, atol=MARGIN_ATOL)

        def check():
            rep = read_json(out)
            expect(rep["kmax"] == KMAX, f"{name}: kmax {rep['kmax']}")
            expect(abs(rep["mean_residual"]) <= MEAN_ATOL, f"{name}: mean residual {rep['mean_residual']}")
            expect(rep["strategic"]["fails_at"] == fails, f"{name}: fails_at {rep['strategic']['fails_at']}")
            expect(rep["strategic"]["verdict"] == ("fails-at" if fails else "strategic-on-range"),
                   f"{name}: verdict {rep['strategic']['verdict']}")
            ussd = rep["ussd"]
            expect_close(f"{name} min margin", ussd["min_margin"], want.min(), **tol)
            expect_close(f"{name} margin at argmin", want[ussd["argmin_k"] - 1], want.min(), **tol)
            expect_close(f"{name} tail margin", ussd["tail_margin"], want[-1], **tol)
            sc = rep["sc"]
            bound = oracles.sc_bound(h0, sc["eps"])
            expect_close(f"{name} sup|h'|", sc["derivative_sup"], dsup, rtol=1e-12)
            expect_close(f"{name} sc bound", sc["bound"], bound, rtol=1e-12)
            expect(sc["verdict"] == ("pass" if dsup < bound else "fail"), f"{name}: sc {sc['verdict']}")

        return check

    def spectrum_check():
        lines = (d / "spectrum.csv").read_text().splitlines()
        expect(lines[0] == "k,lambda,mu,gap_product" and len(lines) == KMAX + 1, "spectrum: header/rows")
        rows = [line.split(",") for line in lines[1:]]
        expect([int(row[0]) for row in rows] == list(range(1, KMAX + 1)), "spectrum: k column")
        expect(rows[-1][3] == "", "spectrum: last gap product must be empty")
        expect_close("lambda_k", [float(row[1]) for row in rows], lam, rtol=TABLE_RTOL)
        expect_close("mu_k", [float(row[2]) for row in rows], mu, rtol=TABLE_RTOL)
        expect_close("gap products", [float(row[3]) for row in rows[:-1]], gaps, rtol=GAP_RTOL)

    def abscissa_check():
        got = read_json(d / "abscissa.json")
        expect(got["n"] == list(ABSCISSA_NS), f"abscissa: n {got['n']}")
        vals = got["abscissa"]
        expect_close("abscissa vs dense oracle", vals, [a for a, _ in absc], rtol=ABSCISSA_RTOL)
        expect_close("abscissa vs -min b^2/2", vals, [f for _, f in absc], rtol=FIRST_ORDER_RTOL)
        expect(all(v < 0 for v in vals) and vals == sorted(vals), "abscissa must be negative and rise toward 0")

    ops = []
    for name in profiles:
        arg = str(d / "profile.csv") if name == "tabulated" else name
        out = d / f"check-{name}.json"
        ops.append(Op(f"check-profile:{name}",
                      ["check-profile", "--profile", arg, "--kmax", str(KMAX), "--output", str(out)],
                      profile_check(name, out),
                      reads=[d / "profile.csv"] if name == "tabulated" else [], writes=[out]))
    ops.append(Op("spectrum", ["spectrum", "--kmax", str(KMAX), "--output", str(d / "spectrum.csv")],
                  spectrum_check, writes=[d / "spectrum.csv"]))
    ops.append(Op("abscissa", ["--ns", ",".join(map(str, ABSCISSA_NS)),
                               "--output", str(d / "abscissa.json")],
                  abscissa_check, writes=[d / "abscissa.json"], lib=True))
    return ops


def long_horizon(d: Path, seed: int):
    """Closed loop to t = 400, its power-law fit, the rate study and a driven open loop."""
    rng = np.random.default_rng(seed)
    zeta0, w0 = write_state_csv(d / "state.csv", rng)
    sig = write_signal_json(d / "signal.json", rng, 50.0)
    b = oracles.coupling(oracles.scaled_linear(SIM_MODES))
    k = np.arange(1, SIM_MODES + 1)
    lam = k * np.tanh(k)
    smooth = k**-3.0 / math.sqrt(np.sum((lam + lam**2) * k**-6.0))
    closed = oracles.ClosedLoop(b, smooth, np.zeros(SIM_MODES))
    t_closed = np.arange(401) * 1.0
    closed_zeta, closed_w = closed.states(t_closed)
    closed_norm = oracles.energy_norm(closed_zeta, closed_w)
    rate_fits = []
    for n in RATE_NS:
        v = np.ones(n) / math.sqrt(n)
        t = np.arange(4001) * 10.0
        rate_fits.append(oracles.decay_fit(t, oracles.ClosedLoop(b[:n], v, v).norms(t), (t[2000], t[-1]), "exponential")[0])
    t_open = np.arange(201) * 0.25
    open_norm = oracles.energy_norm(*oracles.open_loop_states(
        b, padded(zeta0), padded(w0), sig["amplitude"], sig["omega"], sig["phase"], sig["t_switch"], t_open))

    def closed_check():
        data = cli_series(d / "closed.csv", 401)
        expect_close("t", data[:, 0], t_closed, rtol=1e-12)
        check_monotone_energy(data[:, 2])
        expect_close("closed x_norm", data[:, 1], closed_norm, rtol=CLOSED_RTOL)
        expect_close("closed u = -b.w", data[:, 3], -(closed_w @ b), atol=STATE_ATOL)
        rep = read_json(d / "closed.json")
        expect(rep["samples"] == 401, f"samples {rep['samples']}")
        expect_close("initial x_norm", rep["initial"]["x_norm"], closed_norm[0], rtol=1e-12)
        expect_close("final x_norm", rep["final"]["x_norm"], closed_norm[-1], rtol=CLOSED_RTOL)

    def decay_check():
        _, data = read_csv(d / "closed.csv")
        rep = read_json(d / "decay.json")
        value, rms = oracles.decay_fit(data[:, 0], data[:, 1], (0.0, 1e30), "power")
        expect_close("power slope", rep["fitted_value"], value, rtol=FIT_RTOL)
        expect_close("power residual", rep["residual_rms"], rms, rtol=1e-6)
        expect(rep["fitted_value"] < 0, "power slope must be negative")

    def rates_check():
        header, data = read_csv(d / "rates.csv")
        expect(header == ["N", "rate", "residual_rms"] and data[:, 0].tolist() == list(RATE_NS), "rates: rows")
        rates = data[:, 1]
        expect(np.all(rates > 0) and np.all(np.diff(rates) < 0), f"rates must be positive and decrease: {rates}")
        expect_close("fitted rates", rates, rate_fits, rtol=RATE_RTOL)

    def open_check():
        data = cli_series(d / "open.csv", 201)
        t = data[:, 0]
        expect_close("t", t, t_open, rtol=1e-12)
        u = np.where(t < sig["t_switch"], sig["amplitude"] * np.cos(sig["omega"] * t + sig["phase"]), 0.0)
        expect_close("open u", data[:, 3], u, atol=1e-12)
        expect_close("open x_norm", data[:, 1], open_norm, rtol=OPEN_RTOL)
        free = data[t >= sig["t_switch"], 1]
        expect_close("norm under zero input", free, np.full_like(free, free[0]), rtol=CONSERVE_RTOL)
        rep = read_json(d / "open.json")
        expect(rep["samples"] == 201, f"samples {rep['samples']}")
        expect_close("final x_norm", rep["final"]["x_norm"], open_norm[-1], rtol=OPEN_RTOL)

    sim = ["simulate", "--profile", "h1", "--n-modes", str(SIM_MODES), "--dt", str(DT)]
    return [
        Op("simulate:closed", sim + ["--init", "smooth:3", "--t-final", "400", "--sample-every", "200",
                                     "--out-csv", str(d / "closed.csv"), "--out-json", str(d / "closed.json")],
           closed_check, writes=[d / "closed.csv", d / "closed.json"]),
        Op("decay:power", ["decay", "--series", str(d / "closed.csv"), "--model", "power",
                           "--output", str(d / "decay.json")],
           decay_check, reads=[d / "closed.csv"], writes=[d / "decay.json"]),
        Op("rate-study", ["rate-study", "--profile", "h1", "--ns", ",".join(map(str, RATE_NS)),
                          "--output", str(d / "rates.csv")],
           rates_check, writes=[d / "rates.csv"]),
        Op("simulate:open", sim + ["--feedback", "none", "--init", str(d / "state.csv"),
                                   "--input", str(d / "signal.json"), "--t-final", "50", "--sample-every", "50",
                                   "--out-csv", str(d / "open.csv"), "--out-json", str(d / "open.json")],
           open_check, reads=[d / "state.csv", d / "signal.json"], writes=[d / "open.csv", d / "open.json"]),
    ]


def record_field(d: Path, seed: int):
    """Closed loop with every mode recorded, the fit read back from it, and a 256x256 field."""
    rng = np.random.default_rng(seed)
    zeta0, w0 = write_state_csv(d / "state.csv", rng)
    u_now = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
    b = oracles.coupling(oracles.scaled_linear(SIM_MODES))
    t_rec = np.arange(2001) * 0.025
    rec_zeta, rec_w = oracles.ClosedLoop(b, padded(zeta0), padded(w0)).states(t_rec)
    rec_norm = oracles.energy_norm(rec_zeta, rec_w)
    fx, fy, fvalues = oracles.field_linear(zeta0, u_now, 256, 256, 64)
    surface = oracles.surface_row(zeta0, 256)
    parsed = {}

    def record_check():
        parsed.clear()
        data = cli_series(d / "record.csv", 2001, SIM_MODES)
        parsed["t"], parsed["x"] = data[:, 0], data[:, 1]
        zeta, w = data[:, 4 : 4 + SIM_MODES], data[:, 4 + SIM_MODES :]
        expect_close("t", data[:, 0], t_rec, rtol=1e-12)
        check_monotone_energy(data[:, 2])
        expect_close("x_norm vs mode columns", data[:, 1], oracles.energy_norm(zeta, w), rtol=RECOMPUTE_RTOL)
        expect_close("recorded x_norm", data[:, 1], rec_norm, rtol=CLOSED_RTOL)
        expect_close("recorded zeta", zeta, rec_zeta, atol=STATE_ATOL)
        expect_close("recorded w", w, rec_w, atol=STATE_ATOL)
        expect(read_json(d / "record.json")["samples"] == 2001, "record: samples")

    def decay_check():
        rep = read_json(d / "decay.json")
        if not parsed:
            _, data = read_csv(d / "record.csv")
            parsed["t"], parsed["x"] = data[:, 0], data[:, 1]
        value, rms = oracles.decay_fit(parsed["t"], parsed["x"], (25.0, 50.0), "exponential")
        expect_close("exponential rate", rep["fitted_value"], value, rtol=FIT_RTOL)
        expect_close("exponential residual", rep["residual_rms"], rms, rtol=1e-6)

    def field_check():
        header, data = read_csv(d / "field.csv")
        expect(header == ["x", "y", "value"] and len(data) == 257 * 257, "field: header/rows")
        values = data[:, 2].reshape(257, 257)
        expect_close("field x", data[::257, 0], fx, rtol=1e-15, atol=1e-15)
        expect_close("field y", data[:257, 1], fy, rtol=1e-15, atol=1e-15)
        expect_close("surface row", values[:, -1], surface, atol=SURFACE_ATOL)
        expect_close("field grid", values, fvalues, atol=FIELD_ATOL)

    return [
        Op("simulate:record", ["simulate", "--profile", "h1", "--n-modes", str(SIM_MODES), "--dt", str(DT),
                               "--init", str(d / "state.csv"), "--t-final", "50", "--sample-every", "5",
                               "--record-modes", "--out-csv", str(d / "record.csv"),
                               "--out-json", str(d / "record.json")],
           record_check, reads=[d / "state.csv"], writes=[d / "record.csv", d / "record.json"]),
        Op("decay:read-back", ["decay", "--series", str(d / "record.csv"), "--model", "exponential",
                               "--t-lo", "25", "--t-hi", "50", "--output", str(d / "decay.json")],
           decay_check, reads=[d / "record.csv"], writes=[d / "decay.json"]),
        Op("field", ["field", "--state", str(d / "state.csv"), "--u-now", repr(u_now), "--profile", "h1",
                     "--nx", "256", "--ny", "256", "--output", str(d / "field.csv")],
           field_check, reads=[d / "state.csv"], writes=[d / "field.csv"]),
    ]


WORKLOADS = {"certify": certify, "long-horizon": long_horizon, "record-field": record_field}
