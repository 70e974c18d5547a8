import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavetank
from wavetank import boundary, simulate, stability
from wavetank._table import read_table, write_table
from wavetank.boundary import dirichlet_field, neumann_field
from wavetank.cli import main

from moments import jittered_profile, side_linear
from substeps import expm_states


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_table(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--kmax", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,lambda,mu,gap_product"
    assert len(lines) == 6
    row1 = lines[1].split(",")
    assert float(row1[1]) == pytest.approx(0.7615941559557649, rel=1e-15)
    assert float(row1[3]) == pytest.approx(0.45017956150630345, rel=1e-13)
    # final row carries no gap product
    assert lines[5].endswith(",")


def test_spectrum_exact_text(capsys):
    # 17 significant digits, and an empty gap product in the last row only
    code, out, _ = run_cli(capsys, "spectrum", "--kmax", "3")
    assert code == 0
    assert out == (
        "k,lambda,mu,gap_product\n"
        "1,0.76159415595576485,0.87269362089782965,0.45017956150630356\n"
        "2,1.9280551601516338,1.3885442593420039,0.47101994443291012\n"
        "3,2.9851642610601914,1.7277627907384137,\n"
    )


def test_spectrum_saturation(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--kmax", "50")
    row50 = out.strip().splitlines()[50].split(",")
    assert float(row50[1]) == 50.0


def test_spectrum_rejects_small_kmax(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--kmax", "1")
    assert code != 0
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_check_profile_h1(capsys):
    code, out, _ = run_cli(capsys, "check-profile", "--profile", "h1", "--kmax", "50")
    assert code == 0
    report = json.loads(out)
    assert report["strategic"]["verdict"] == "strategic-on-range"
    assert report["ussd"]["min_margin"] == pytest.approx(0.028851351641767845, abs=1e-9)
    assert report["sc"]["verdict"] == "pass"
    assert abs(report["mean_residual"]) < 1e-12


def test_check_profile_nonstrategic(capsys):
    code, out, _ = run_cli(capsys, "check-profile", "--profile", "nonstrategic", "--kmax", "30")
    report = json.loads(out)
    assert report["strategic"]["verdict"] == "fails-at"
    assert report["strategic"]["fails_at"] == [1]
    assert report["ussd"]["min_margin"] == pytest.approx(0.0, abs=1e-10)


def test_check_profile_rejects_nonzero_mean(tmp_path, capsys):
    path = tmp_path / "profile.csv"
    # flat, and offset: 1e-12 (y + 1/2) + 5e-11, whose mean is its whole size
    for text in ("y,h\n-1,1\n0,1\n", "y,h\n-1,4.95e-11\n0,5.05e-11\n"):
        path.write_text(text)
        code, _, err = run_cli(capsys, "check-profile", "--profile", str(path))
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: profile violates volume conservation")


@pytest.mark.parametrize(
    "samples, scale",
    [((np.linspace(-1.0, 0.0, 3), np.linspace(-1.0, 0.0, 3) + 0.5), 1e-10), (jittered_profile(), 1e6)],
    ids=["h1-1e-10", "jittered-1e6"],
)
def test_check_profile_in_other_units(tmp_path, capsys, samples, scale):
    # an absolute tolerance failed the first at every k and rejected the second,
    # whose mean is 6.7e-17 of its size, as not conserving volume
    path = tmp_path / "profile.csv"
    write_table(path, ["y", "h"], [samples[0], scale * samples[1]])
    code, out, _ = run_cli(capsys, "check-profile", "--profile", str(path), "--kmax", "50")
    assert code == 0
    strategic = json.loads(out)["strategic"]
    assert strategic == {"verdict": "strategic-on-range", "fails_at": [], "note": "finite-range certificate for k <= kmax"}


def test_simulate_open_conserves(tmp_path, capsys):
    csv_path = tmp_path / "open.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--profile", "h1", "--feedback", "none", "--n-modes", "8",
        "--t-final", "5", "--dt", "0.001", "--sample-every", "100",
        "--init", "spread", "--out-csv", str(csv_path),
    )
    assert code == 0
    series = simulate.TimeSeries.from_csv(csv_path)
    assert np.max(np.abs(series.x_norm - series.x_norm[0])) <= 1e-12 * series.x_norm[0]
    assert np.all(series.u == 0.0)


def test_simulate_closed_monotone_and_summary(tmp_path, capsys):
    csv_path = tmp_path / "closed.csv"
    json_path = tmp_path / "closed.json"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--profile", "h1", "--n-modes", "8", "--t-final", "5",
        "--dt", "0.001", "--sample-every", "50",
        "--out-csv", str(csv_path), "--out-json", str(json_path),
    )
    assert code == 0
    series = simulate.TimeSeries.from_csv(csv_path)
    assert np.all(np.diff(series.x_norm) <= 0.0)
    summary = json.loads(json_path.read_text())
    assert summary["config"]["feedback"] == "collocated"
    assert summary["config"]["n_modes"] == 8
    assert summary["final"]["x_norm"] <= summary["initial"]["x_norm"]
    assert summary["wall_time_s"] > 0


def test_simulate_records_last_step(tmp_path, capsys):
    # 1/0.3 rounds to 3 steps; sampling every 2nd step must still end at the last
    csv_path = tmp_path / "x.csv"
    json_path = tmp_path / "x.json"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--t-final", "1", "--dt", "0.3", "--sample-every", "2", "--n-modes", "4",
        "--out-csv", str(csv_path), "--out-json", str(json_path),
    )
    assert code == 0
    series = simulate.TimeSeries.from_csv(csv_path)
    summary = json.loads(json_path.read_text())
    assert series.t[-1] == pytest.approx(0.9, rel=1e-15)
    assert summary["t_end"] == series.t[-1]
    assert summary["samples"] == len(series.t) == 3
    assert summary["final"]["x_norm"] == pytest.approx(series.x_norm[-1], rel=1e-12)


def test_simulate_samples_nothing_past_t_final(tmp_path, capsys):
    # 1/0.6 rounded to 2 steps and sampled u = 1 at t = 1.2, past the end of the input
    sig_path, json_path = tmp_path / "one.json", tmp_path / "x.json"
    sig_path.write_text(json.dumps([{"t_start": 0, "t_end": 1, "form": "constant", "value": 1}]))
    code, _, err = run_cli(
        capsys,
        "simulate", "--feedback", "none", "--n-modes", "4", "--t-final", "1.0", "--dt", "0.6",
        "--input", str(sig_path), "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(json_path),
    )
    assert code == 0 and err == ""
    assert simulate.TimeSeries.from_csv(tmp_path / "x.csv").t.tolist() == [0.0, 0.6]
    assert json.loads(json_path.read_text())["t_end"] == 0.6


def scaled_h1(tmp_path, scale):
    """A 200-panel tabulated h1 scaled by ``scale``, written as a profile CSV."""
    y = np.linspace(-1.0, 0.0, 201)
    profile = tmp_path / "strong.csv"
    profile.write_text("y,h\n" + "".join(f"{a!r},{scale * (a + 0.5)!r}\n" for a in y.tolist()))
    return profile


def test_simulate_strong_coupling_converges(tmp_path, capsys):
    # h1 scaled by 1e4 at N = 100, |b|^2 ~ 2.9e6: every seed starts at most half
    # way to the next pole, so the roots converge [measured: 13 Aberth sweeps;
    # unconverged after 500 when the seeds were +-i mu_k - b_k^2/2]. The states
    # agree with the dense generator's exponential, whose squarings round at
    # about eps |b|^2 [measured: 1.6e-9 of the first state's energy norm]
    profile = scaled_h1(tmp_path, 1e4)
    csv_path = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "simulate", "--profile", str(profile), "--n-modes", "100", "--t-final", "1",
        "--dt", "0.005", "--sample-every", "50", "--record-modes", "--out-csv", str(csv_path),
    )
    assert code == 0 and err == ""
    series = simulate.TimeSeries.from_csv(csv_path)
    assert np.all(np.diff(series.energy) <= 0.0) and series.energy[-1] < series.energy[0]
    b = wavetank.coupling_vector(wavetank.WavemakerProfile.from_csv(profile), 100)
    state0 = simulate.ModalState(series.zeta[0], series.w[0])
    for row, want in zip(expm_states(b, state0, series.t), zip(series.zeta, series.w)):
        error = simulate.ModalState(row[:100] - want[0], row[100:] - want[1])
        assert simulate.x_norm(error) <= 1e-8 * simulate.x_norm(state0)


@pytest.mark.parametrize("scale", [1e200], ids=["overflow"])
def test_simulate_beyond_the_root_finder_fails_loudly(tmp_path, capsys, scale):
    # h1 scaled by 1e200: its couplings square past the float range (numpy's
    # warning came first): one error line and exit 2, not a state computed from them
    csv_path = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "simulate", "--profile", str(scaled_h1(tmp_path, scale)), "--n-modes", "4", "--t-final", "1",
        "--dt", "0.005", "--out-csv", str(csv_path),
    )
    assert code == 2 and out == ""
    assert err == "error: closed-loop root finder broke down: overflow encountered in multiply\n"
    assert not csv_path.exists()


def test_simulate_rejects_empty_out_csv(capsys):
    # an empty path would mean stdout, where the JSON summary goes
    code, out, err = run_cli(capsys, "simulate", "--n-modes", "4", "--t-final", "1", "--out-csv", "")
    assert code == 2
    assert out == ""
    assert err == "error: out-csv must name a file\n"


@pytest.mark.parametrize("via_config", [False, True])
def test_simulate_rejects_input_in_closed_loop(tmp_path, capsys, via_config):
    # the closed loop has no input to drive: a signal path, even one that does
    # not exist, is an error rather than ignored, from a flag or from a config
    csv_path = tmp_path / "x.csv"
    signal = ["--input", str(tmp_path / "missing.json")]
    if via_config:
        (tmp_path / "config.json").write_text(json.dumps({"input": str(tmp_path / "missing.json")}))
        signal = ["--config", str(tmp_path / "config.json")]
    code, out, err = run_cli(
        capsys, "simulate", "--n-modes", "4", "--t-final", "1", *signal, "--out-csv", str(csv_path),
    )
    assert code == 2
    assert out == ""
    assert err == "error: input drives the open loop only; it needs feedback none\n"
    assert not csv_path.exists()


def test_simulate_rejects_overlapping_input(tmp_path, capsys):
    sig_path = tmp_path / "sig.json"
    sig_path.write_text(json.dumps([
        {"t_start": 0.0, "t_end": 2.0, "form": "constant", "value": 1.0},
        {"t_start": 1.0, "t_end": 3.0, "form": "zero"},
    ]))
    code, _, err = run_cli(
        capsys,
        "simulate", "--feedback", "none", "--n-modes", "4", "--t-final", "3",
        "--dt", "0.01", "--input", str(sig_path),
        "--out-csv", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "overlap" in err


def run_open_loop(capsys, tmp_path, segments):
    """Run the open loop to t = 3 under the input-signal JSON ``segments``."""
    sig_path = tmp_path / "sig.json"
    sig_path.write_text(json.dumps(segments))
    return run_cli(
        capsys,
        "simulate", "--feedback", "none", "--n-modes", "4", "--t-final", "3", "--dt", "0.5",
        "--input", str(sig_path), "--out-csv", str(tmp_path / "x.csv"),
    )


@pytest.mark.parametrize(
    "segment, message",
    [
        # each of the first two ran the tank with u = 0 and exited 0
        ({"t_start": 0, "t_end": 3, "form": "sinusoid", "amplitud": 1.0, "omega": 1.0},
         "malformed segment in {}: .*'amplitud'"),
        ({"t_start": 0, "t_end": 3, "form": "constant", "amplitude": 2.0},
         "malformed segment in {}: a constant segment ignores amplitude=2.0"),
        ({"t_start": 0, "form": "zero"}, "malformed segment in {}: .*'t_end'"),
        ([0, 3, "zero"], r"malformed segment in {}: a segment must be a JSON object, got \[0, 3, 'zero'\]"),
        # true ran the tank with u = 1 and exited 0; "abc" named neither the file nor the field
        ({"t_start": 0, "t_end": 3, "form": "constant", "value": True},
         "malformed segment in {}: segment value must be an int or a float, got True"),
        ({"t_start": 0, "t_end": 3, "form": "constant", "value": None},
         "malformed segment in {}: segment value must be an int or a float, got None"),
        ({"t_start": 0, "t_end": 3, "form": "constant", "value": "abc"},
         "malformed segment in {}: segment value must be a number, got 'abc'"),
        # the text under a misspelled key hid the key behind float()'s error
        ({"t_start": 0, "t_end": 3, "form": "sinusoid", "amplitud": "x", "omega": 1.0},
         "malformed segment in {}: .*'amplitud'"),
    ],
    ids=["misspelled-key", "ignored-key", "missing-key", "not-an-object", "value-true", "value-null", "value-text",
         "misspelled-key-text"],
)
def test_simulate_rejects_malformed_segments(tmp_path, capsys, segment, message):
    code, out, err = run_open_loop(capsys, tmp_path, [segment])
    assert code == 2 and out == ""
    assert re.fullmatch(f"error: {message.format(re.escape(str(tmp_path / 'sig.json')))}\n", err)
    assert not (tmp_path / "x.csv").exists()


def test_simulate_reads_numeric_strings_in_segments(tmp_path, capsys):
    # numbers are converted as float() does, so a numeric string is a number
    code, _, err = run_open_loop(capsys, tmp_path, [{"t_start": "0", "t_end": 3, "form": "constant", "value": "1.5"}])
    assert code == 0 and err == ""
    assert np.all(simulate.TimeSeries.from_csv(tmp_path / "x.csv").u == 1.5)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[{", "malformed input-signal JSON {}: "
               "Expecting property name enclosed in double quotes: line 1 column 3 (char 2)"),
        ('{"t_start": 0}', "input-signal JSON {} must hold a list of segments"),
    ],
    ids=["malformed", "not-a-list"],
)
def test_simulate_rejects_input_signal_files(tmp_path, capsys, text, message):
    sig_path = tmp_path / "sig.json"
    sig_path.write_text(text)
    code, out, err = run_cli(
        capsys, "simulate", "--feedback", "none", "--n-modes", "2", "--t-final", "1", "--input", str(sig_path),
        "--out-csv", str(tmp_path / "x.csv"),
    )
    assert (code, out, err) == (2, "", f"error: {message.format(sig_path)}\n")
    assert not (tmp_path / "x.csv").exists()


def test_simulate_starts_from_one_mode(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--n-modes", "3", "--t-final", "1", "--init", "mode:2", "--record-modes",
        "--out-csv", str(tmp_path / "x.csv"),
    )
    assert code == 0 and err == ""
    series = simulate.TimeSeries.from_csv(tmp_path / "x.csv")
    assert series.zeta[0].tolist() == [0.0, 1.0, 0.0] and series.w[0].tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--init", "mode:x"], "--init mode:x: K must be an integer"),
        (["simulate", "--init", "mode:1.5"], "--init mode:1.5: K must be an integer"),
        (["simulate", "--init", "smooth:abc"], "--init smooth:abc: P must be a number"),
        (["rate-study", "--ns", "8,x"], "argument --ns: expected comma-separated integers, got '8,x'"),
    ],
    ids=["init-mode-text", "init-mode-float", "init-smooth-text", "ns-text"],
)
def test_flag_value_errors_name_the_flag(tmp_path, capsys, argv, message):
    # each printed only int()'s or float()'s own message, naming neither the flag nor its value
    out_csv = tmp_path / "x.csv"
    extra = ["--n-modes", "4", "--t-final", "1", "--out-csv", str(out_csv)] if argv[0] == "simulate" else []
    code, out, err = run_cli(capsys, *argv, *extra)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("t_final", ["inf", "nan"])
def test_simulate_rejects_non_finite_horizon(tmp_path, capsys, t_final):
    code, _, err = run_cli(
        capsys,
        "simulate", "--n-modes", "4", "--t-final", t_final,
        "--out-csv", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert err.startswith("error: t_final must be finite")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n-modes", "4", "--t-final", "1e300", "--dt", "1e-300"],
        ["simulate", "--feedback", "none", "--n-modes", "4", "--t-final", "1e30", "--dt", "1e-3",
         "--sample-every", str(10**32)],
        ["rate-study", "--ns", "4,8", "--t-final", "1e300", "--dt", "1e-300"],
    ],
    ids=["simulate-overflow", "simulate-past-int64", "rate-study-overflow"],
)
def test_step_count_past_int64_single_error_line(tmp_path, capsys, argv):
    out_flag = ["--out-csv", str(tmp_path / "x.csv")] if argv[0] == "simulate" else []
    code, out, err = run_cli(capsys, *argv, *out_flag)
    assert code == 2
    assert out == ""
    assert err.startswith("error: t_final / dt must be below 2**63, got ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()


def test_simulate_names_a_nan_decay_power(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "simulate", "--n-modes", "4", "--t-final", "1", "--init", "smooth:nan",
        "--out-csv", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert out == ""
    assert err == "error: decay_power must be >= 2, got nan\n"


# every first request below is at least 1 PiB, more than any machine grants:
# 10^15 eight-byte entries, or 2^47 + 1 grid abscissae
HUGE = str(10**15)


@pytest.mark.parametrize(
    "argv",
    [
        ["check-profile", "--kmax", HUGE, "--output", "{d}/out.json"],
        ["spectrum", "--kmax", HUGE, "--output", "{d}/out.csv"],
        ["simulate", "--n-modes", "4", "--t-final", "1e13", "--dt", "0.01", "--out-csv", "{d}/out.csv"],
        ["field", "--state", "{d}/state.csv", "--nx", str(2**47), "--ny", "4", "--output", "{d}/out.csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_of_memory_single_error_line(tmp_path, argv):
    # a child process, so nothing stays allocated here whatever numpy does
    (tmp_path / "state.csv").write_text("k,zeta,w\n1,0.5,0\n")
    src = str(Path(wavetank.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "wavetank.cli", *(arg.format(d=tmp_path) for arg in argv)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: out of memory: ") and "PiB" in out.stderr
    assert len(out.stderr.splitlines()) == 1


def test_import_loads_no_scipy():
    # scipy costs ~0.5 s per process start-up; the package must not pull it in
    src = str(Path(wavetank.__file__).resolve().parents[1])
    probe = "import sys, wavetank.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_nothing_is_lost_at_exit(tmp_path):
    # the CLI skips the interpreter's last collections at exit (gc.freeze), which
    # is safe only while every file is closed by its command and the standard
    # streams are flushed: each command that writes runs in a fresh interpreter
    # with unclosed files made errors, and its output must parse completely
    src = str(Path(wavetank.__file__).resolve().parents[1])
    d = tmp_path
    y = np.linspace(-1.0, 0.0, 11)
    (d / "profile.csv").write_text("y,h\n" + "".join(f"{a!r},{a + 0.5!r}\n" for a in y.tolist()))
    (d / "state.csv").write_text("k,zeta,w\n1,0.5,0\n2,0,0.25\n3,0.125,0\n")
    (d / "signal.json").write_text(json.dumps([
        {"t_start": 0.0, "t_end": 1.0, "form": "sinusoid", "amplitude": 1.0, "omega": 0.87},
        {"t_start": 1.0, "t_end": 2.0, "form": "constant", "value": 0.5},
    ]))

    def run(*argv):
        out = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "wavetank.cli", *map(str, argv)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert (out.returncode, out.stderr) == (0, ""), argv[0]
        return out.stdout

    lines = run("spectrum", "--kmax", "1000").splitlines()
    assert len(lines) == 1001 and lines[-1].startswith("1000,") and all(line.count(",") == 3 for line in lines)
    run("check-profile", "--profile", d / "profile.csv", "--kmax", "50", "--output", d / "check.json")
    assert json.loads((d / "check.json").read_text())["kind"] == "tabulated"
    sim = ["simulate", "--n-modes", "3", "--t-final", "2", "--dt", "0.01"]
    run(*sim, "--record-modes", "--out-csv", d / "closed.csv", "--out-json", d / "closed.json")
    run(*sim, "--feedback", "none", "--input", d / "signal.json",
        "--out-csv", d / "open.csv", "--out-json", d / "open.json")
    for name in ("closed", "open"):
        series = simulate.TimeSeries.from_csv(d / f"{name}.csv")
        assert len(series.t) == json.loads((d / f"{name}.json").read_text())["samples"] == 201
    assert simulate.TimeSeries.from_csv(d / "closed.csv").zeta.shape == (201, 3)
    run("decay", "--series", d / "closed.csv", "--output", d / "decay.json")
    assert math.isfinite(json.loads((d / "decay.json").read_text())["fitted_value"])
    run("field", "--state", d / "state.csv", "--nx", "8", "--ny", "4", "--output", d / "field.csv")
    assert read_table(d / "field.csv", "field", ("x", "y", "value"))[1].shape == (45, 3)
    run("rate-study", "--ns", "2,4", "--t-final", "100", "--sample-every", "100", "--output", d / "rates.csv")
    assert read_table(d / "rates.csv", "study", ("N", "rate", "residual_rms"))[1].shape == (2, 3)


def test_simulate_with_sinusoid_input(tmp_path, capsys):
    sig_path = tmp_path / "sig.json"
    sig_path.write_text(json.dumps([
        {"t_start": 0.0, "t_end": 2.0, "form": "sinusoid", "amplitude": 1.0, "omega": 0.87},
        {"t_start": 2.0, "t_end": 4.0, "form": "zero"},
    ]))
    csv_path = tmp_path / "forced.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--feedback", "none", "--n-modes", "4", "--t-final", "4",
        "--dt", "0.001", "--sample-every", "100", "--input", str(sig_path),
        "--out-csv", str(csv_path),
    )
    assert code == 0
    series = simulate.TimeSeries.from_csv(csv_path)
    assert series.x_norm[-1] > 0  # energy was pumped in


def test_decay_round_trip_bit_identical(tmp_path, capsys):
    # an exported series re-ingested by the decay command yields the same
    # fit as the in-process analysis of the full read (17-digit CSV is
    # lossless), with and without the mode columns that decay does not parse
    for record in ([], ["--record-modes"]):
        csv_path = tmp_path / f"run{len(record)}.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--profile", "h1", "--n-modes", "4", "--t-final", "20",
            "--dt", "0.01", "--sample-every", "10", "--out-csv", str(csv_path), *record,
        )
        assert code == 0
        series = simulate.TimeSeries.from_csv(csv_path)
        assert (series.zeta is not None) == bool(record)
        fit = stability.decay_fit(series, (5.0, 20.0), "exponential")
        code, out, _ = run_cli(
            capsys,
            "decay", "--series", str(csv_path), "--model", "exponential",
            "--t-lo", "5", "--t-hi", "20",
        )
        assert code == 0
        assert json.loads(out) == {
            "series": str(csv_path), "model": fit.model, "window": list(fit.window),
            "fitted_value": fit.fitted_value, "residual_rms": fit.residual_rms,
        }


@pytest.mark.parametrize("t0", ["-3", "-1"])
def test_decay_power_window_before_minus_one_single_error_line(tmp_path, t0):
    # a child process, so numpy warnings and LAPACK's own prints would show
    t = np.linspace(float(t0), float(t0) + 20.0, 41)
    path = tmp_path / "series.csv"
    path.write_text("t,x_norm,energy,u\n" + "".join(f"{a!r},{math.exp(-0.1 * a)!r},1,0\n" for a in t.tolist()))
    src = str(Path(wavetank.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "wavetank.cli", "decay", "--series", str(path), "--model", "power", f"--t-lo={t0}"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: power model needs t > -1")
    assert len(out.stderr.splitlines()) == 1


def recorded_run(tmp_path, capsys):
    csv_path = tmp_path / "run.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--profile", "h1", "--n-modes", "3", "--t-final", "2",
        "--dt", "0.01", "--sample-every", "10", "--record-modes", "--out-csv", str(csv_path),
    )
    assert code == 0
    return csv_path, csv_path.read_text().splitlines(keepends=True)


def test_decay_rejects_row_one_mode_cell_short(tmp_path, capsys):
    # decay parses only the leading columns but counts every row's cells
    csv_path, lines = recorded_run(tmp_path, capsys)
    lines[7] = lines[7].rsplit(",", 1)[0] + "\n"
    csv_path.write_text("".join(lines))
    code, out, err = run_cli(capsys, "decay", "--series", str(csv_path))
    assert code == 2
    assert out == ""
    assert err == f"error: malformed time-series CSV {csv_path}: line 8: 9 cell(s) under a header of 10\n"


def test_decay_does_not_parse_mode_cells(tmp_path, capsys):
    csv_path, lines = recorded_run(tmp_path, capsys)
    cells = lines[7].split(",")
    cells[5] = "abc"  # zeta_2
    lines[7] = ",".join(cells)
    csv_path.write_text("".join(lines))
    code, out, _ = run_cli(capsys, "decay", "--series", str(csv_path), "--t-hi", "2")
    assert code == 0
    assert json.loads(out)["model"] == "exponential"
    # the full read parses the mode cells and names the line
    with pytest.raises(ValueError, match=r": line 8: could not convert string 'abc'"):
        simulate.TimeSeries.from_csv(csv_path)


def test_decay_missing_file(capsys):
    code, _, err = run_cli(capsys, "decay", "--series", "nope.csv")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "column, row, value",
    [("x_norm", 5, "nan"), ("x_norm", 7, "inf"), ("t", 3, "nan")],
    ids=["nan-norm", "inf-norm", "nan-time"],
)
def test_decay_rejects_non_finite_samples(tmp_path, capsys, column, row, value):
    t = np.arange(12.0)
    cells = {"t": t.tolist(), "x_norm": np.exp(-0.1 * t).tolist()}
    cells[column][row] = value
    lines = [f"{a},{b},1,0" for a, b in zip(cells["t"], cells["x_norm"])]
    path = tmp_path / "series.csv"
    path.write_text("t,x_norm,energy,u\n" + "\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "decay", "--series", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"column {column}" in err and "non-finite" in err
    assert len(err.strip().splitlines()) == 1


def test_field_zero_state(tmp_path, capsys):
    state = tmp_path / "state.csv"
    state.write_text("k,zeta,w\n1,0,0\n")
    out_path = tmp_path / "field.csv"
    code, _, _ = run_cli(
        capsys,
        "field", "--state", str(state), "--u-now", "0", "--nx", "4", "--ny", "4",
        "--output", str(out_path),
    )
    assert code == 0
    rows = out_path.read_text().strip().splitlines()[1:]
    assert all(float(r.split(",")[2]) == 0.0 for r in rows)


def test_field_matches_boundary_oracle(tmp_path, capsys, h1):
    state = tmp_path / "state.csv"
    state.write_text("k,zeta,w\n1,1.0,0\n")
    out_path = tmp_path / "field.csv"
    code, _, _ = run_cli(
        capsys,
        "field", "--state", str(state), "--u-now", "1.0", "--profile", "h1",
        "--nx", "8", "--ny", "8", "--output", str(out_path),
    )
    assert code == 0
    expected = boundary.reconstruct_field(np.array([1.0]), 1.0, h1, 8, 8)
    data = np.loadtxt(out_path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 2].reshape(9, 9), expected.values)


def test_field_with_200_side_modes_matches_reference(tmp_path, capsys):
    # past 128 wall modes a 128-node Gauss rule aliases, and puts the field 9.0e-4
    # off with exit 0; the reference is built from 50-digit wall coefficients
    state = tmp_path / "state.csv"
    state.write_text("k,zeta,w\n1,1.0,0\n2,-0.5,0\n")
    out_path = tmp_path / "field.csv"
    code, _, _ = run_cli(
        capsys,
        "field", "--state", str(state), "--u-now", "1.0", "--profile", "h1",
        "--nx", "16", "--ny", "16", "--n-side-modes", "200", "--output", str(out_path),
    )
    assert code == 0
    want = neumann_field(side_linear(200), 16, 16).values - dirichlet_field([1.0, -0.5], 16, 16).values
    data = np.loadtxt(out_path, delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 2].reshape(17, 17) - want)) <= 1e-14


@pytest.mark.parametrize("n_side_modes", ["0", "-3"])
def test_field_rejects_no_side_modes(tmp_path, capsys, n_side_modes):
    state = tmp_path / "state.csv"
    state.write_text("k,zeta,w\n1,1.0,0\n")
    out_path = tmp_path / "f.csv"
    code, _, err = run_cli(
        capsys,
        "field", "--state", str(state), "--u-now", "1", "--nx", "4", "--ny", "4",
        "--n-side-modes", n_side_modes, "--output", str(out_path),
    )
    assert code == 2
    assert err.startswith("error: side-mode count must be >= 1")
    assert len(err.strip().splitlines()) == 1
    assert not out_path.exists()


@pytest.mark.parametrize("u_now", ["nan", "inf"])
def test_field_rejects_non_finite_input(tmp_path, capsys, u_now):
    state = tmp_path / "state.csv"
    state.write_text("k,zeta,w\n1,1.0,0\n")
    code, _, err = run_cli(
        capsys, "field", "--state", str(state), "--u-now", u_now, "--nx", "4", "--ny", "4",
        "--output", str(tmp_path / "f.csv"),
    )
    assert code == 2
    assert err.startswith("error: u_now must be finite")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_state_csv_rejected(tmp_path, capsys, value):
    state = tmp_path / "state.csv"
    state.write_text(f"k,zeta,w\n1,1.0,0\n2,0,{value}\n")
    for argv in (
        ["field", "--state", str(state), "--output", str(tmp_path / "f.csv")],
        ["simulate", "--n-modes", "4", "--t-final", "1", "--init", str(state),
         "--out-csv", str(tmp_path / "x.csv")],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "non-finite" in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "text, argv, message",
    [
        ("k,zeta,w\n", ["field"], "state CSV {} has no modes"),
        ("k,zeta,w\n2,0.5,0\n", ["field"], "state CSV {} must list modes k = 1..N in order"),
        ("k,zeta,w\n1,0.5,0\n2,0,0.25\n", ["simulate", "--n-modes", "1", "--t-final", "1"],
         "state CSV {} holds 2 modes, config allows 1"),
    ],
    ids=["no-modes", "not-1-to-N", "more-than-n-modes"],
)
def test_state_csv_rejected(tmp_path, capsys, text, argv, message):
    state = tmp_path / "state.csv"
    state.write_text(text)
    out_csv = tmp_path / "out.csv"
    flag = ["--state", str(state), "--output"] if argv[0] == "field" else ["--init", str(state), "--out-csv"]
    code, out, err = run_cli(capsys, *argv, *flag, str(out_csv))
    assert (code, out, err) == (2, "", f"error: {message.format(state)}\n")
    assert not out_csv.exists()


def test_field_malformed_state(tmp_path, capsys):
    state = tmp_path / "state.csv"
    state.write_text("k,zeta\n1,0\n")
    code, _, err = run_cli(capsys, "field", "--state", str(state))
    assert code == 2
    assert "malformed state CSV" in err


@pytest.mark.parametrize(
    "what, text, line",
    [
        pytest.param("time-series", "t,x_norm,energy,u\n0,1,1,0\n1,1,1\n", 3, id="series-ragged-row"),
        pytest.param("time-series", "t,x_norm,energy,u\n0,1,1,0\n\n1,1,1\n", 4, id="series-short-row-after-blank"),
        pytest.param("time-series", "t,x_norm,energy,u\n0,1,1,0\n1,1,abc,0\n", 3, id="series-non-numeric"),
        pytest.param("time-series", "t,x_norm,energy,u\n# note\n0,1,1,0\n", 2, id="series-hash-not-comment"),
        pytest.param("state", "k,zeta,w\n1,0.5,0,7\n2,0,0\n", 2, id="state-extra-first-cell"),
        pytest.param("state", "k,zeta,w\n1,0.5,0,7\n", 2, id="state-wider-than-header"),
        pytest.param("state", "k,zeta,w\n1,abc,0\n", 2, id="state-non-numeric"),
        pytest.param("profile", "y,h\n-1,0\n0\n", 3, id="profile-short-row"),
    ],
)
def test_malformed_csv_single_error_line(tmp_path, capsys, what, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    argv = {
        "time-series": ["decay", "--series", str(path)],
        "state": ["field", "--state", str(path), "--nx", "4", "--ny", "4", "--output", str(tmp_path / "f.csv")],
        "profile": ["check-profile", "--profile", str(path)],
    }[what]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    # the header counts as line 1
    assert err.startswith(f"error: malformed {what} CSV {path}: line {line}: ")
    assert len(err.strip().splitlines()) == 1


def test_rate_study_csv(tmp_path, capsys):
    out_path = tmp_path / "study.csv"
    code, _, _ = run_cli(
        capsys,
        "rate-study", "--profile", "h1", "--ns", "2,4", "--t-final", "2000",
        "--dt", "0.02", "--sample-every", "100", "--output", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "N,rate,residual_rms"
    assert len(lines) == 3
    assert all(float(line.split(",")[1]) > 0 for line in lines[1:])
    code, out, _ = run_cli(
        capsys,
        "rate-study", "--profile", "h1", "--ns", "2,4", "--t-final", "2000",
        "--dt", "0.02", "--sample-every", "100",
    )
    assert code == 0
    assert out.strip().splitlines() == lines


def test_config_file_merged_under_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kmax": 4, "output": ""}))
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 5  # header + 4 rows from config
    # explicit flag wins over the config value
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg), "--kmax", "6")
    assert len(out.strip().splitlines()) == 7


@pytest.mark.parametrize(
    "argv, fields, fault",
    [
        pytest.param(["spectrum"], {"kmax": 3.5}, "invalid int value: '3.5'", id="spectrum-float-kmax"),
        pytest.param(["check-profile"], {"kmax": 3.5}, "invalid int value: '3.5'", id="check-float-kmax"),
        pytest.param(["check-profile"], {"eps": "small"}, "invalid float value: 'small'", id="check-text-eps"),
        pytest.param(["check-profile"], {"kmax": True}, "kmax must be a string or a number", id="check-bool-kmax"),
        pytest.param(["simulate", "--n-modes", "2"], {"record_modes": "no"}, "record_modes must be true or false",
                     id="simulate-text-switch"),
        pytest.param(["simulate", "--n-modes", "2"], {"feedback": "open"}, "invalid choice: 'open'",
                     id="simulate-bad-choice"),
        pytest.param(["simulate", "--n-modes", "2"], {"n_modes": [4]}, "n_modes must be a string or a number",
                     id="simulate-list-value"),
        # printed only int()'s own message, naming neither the field nor its value
        pytest.param(["rate-study"], {"ns": "8,x"}, "error: argument --ns: expected comma-separated integers, got '8,x'",
                     id="rate-study-text-ns"),
    ],
)
def test_config_values_checked_like_flags(tmp_path, capsys, argv, fields, fault):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    out_csv = tmp_path / "series.csv"
    extra = ["--out-csv", str(out_csv)] if argv[0] == "simulate" else []
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg), *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and fault in err
    assert len(err.strip().splitlines()) == 1
    assert not out_csv.exists()


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"kmax": 4}]))
    code, out, err = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: config JSON {cfg} must hold an object\n")


def test_config_switch_and_flag_order(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"record_modes": True, "n_modes": 3, "t_final": 0.5, "dt": None}))
    out_csv = tmp_path / "series.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--n-modes", "2", "--out-csv", str(out_csv)
    )
    assert code == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == "t,x_norm,energy,u,zeta_1,zeta_2,w_1,w_2"


def test_rate_study_rejects_empty_truncation_list(capsys):
    code, out, err = run_cli(capsys, "rate-study", "--ns", ",")
    assert code == 2
    assert out == ""
    assert err == "error: the study needs at least one truncation size\n"


def test_rate_study_rejects_repeated_truncation(capsys):
    code, out, err = run_cli(capsys, "rate-study", "--ns", "8,8")
    assert code == 2
    assert out == ""
    assert err == "error: truncation sizes must be strictly increasing\n"


def test_rate_study_rejects_too_few_samples(capsys):
    # one line naming the three values, where the decay fit named its window
    # as (np.float64(1.0), np.float64(1.0))
    code, out, err = run_cli(capsys, "rate-study", "--ns", "2", "--t-final", "1", "--dt", "1", "--sample-every", "1")
    assert code == 2 and out == ""
    assert err == "error: t_final 1.0, dt 1.0 and sample_every 1 give 2 samples; the fit on their last half needs >= 19\n"


def test_unknown_flag_single_line_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--bogus", "1")
    assert code == 2
    assert err.startswith("error:")


def test_config_field_of_no_command_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_max": 4}))
    code, out, err = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == "error: config field 'k_max' names no option of any command\n"
    # every command takes --config and --help, but a file set neither and went on silently
    for field, value in (("config", "nope.json"), ("help", True)):
        cfg.write_text(json.dumps({field: value, "kmax": 3}))
        code, out, err = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == f"error: config field '{field}' is read from the command line only\n"
    # a field of another command is ignored, so one file serves several commands
    cfg.write_text(json.dumps({"profile": "h2", "kmax": 3}))
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 4


# -- exit codes under random argument lists ----------------------------------------


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Valid, malformed and missing inputs for every file-reading option."""
    d = tmp_path_factory.mktemp("fuzz")
    files = {
        "profile.csv": "y,h\n-1,-0.5\n0,0.5\n",
        "flat.csv": "y,h\n-1,1\n0,1\n",
        "bad.csv": "y,h\n-1,abc\n",
        "state.csv": "k,zeta,w\n1,0.5,0\n2,0,0.25\n",
        "nan_state.csv": "k,zeta,w\n1,nan,0\n",
        "series.csv": "t,x_norm,energy,u\n" + "".join(f"{t},{math.exp(-t)},{math.exp(-2 * t)},0\n" for t in range(20)),
        "signal.json": json.dumps([{"t_start": 0, "t_end": 0.5, "form": "constant", "value": 1.0},
                                   {"t_start": 0.5, "t_end": 6, "form": "sinusoid", "amplitude": 1, "omega": 2}]),
        "short_signal.json": json.dumps([{"t_start": 0, "t_end": 0.2, "form": "zero"}]),
        "overlap.json": json.dumps([{"t_start": 0, "t_end": 3, "form": "zero"}, {"t_start": 1, "t_end": 6, "form": "zero"}]),
        "keyless.json": json.dumps([{"t_start": 0, "form": "zero"}]),
        "true_value.json": json.dumps([{"t_start": 0, "t_end": 6, "form": "constant", "value": True}]),
        "null_value.json": json.dumps([{"t_start": 0, "t_end": 6, "form": "constant", "value": None}]),
        "text_value.json": json.dumps([{"t_start": 0, "t_end": 6, "form": "constant", "value": "abc"}]),
        "object.json": json.dumps({"t_start": 0}),
        "malformed.json": "[{",
        "config.json": json.dumps({"kmax": 3, "n_modes": 4, "t_final": 0.5, "profile": "h2", "record_modes": True}),
        "bad_config.json": json.dumps({"kmax": "three"}),
        "unknown_config.json": json.dumps({"k_max": 3}),
        "list_config.json": json.dumps([{"kmax": 3}]),
    }
    for name, text in files.items():
        (d / name).write_text(text)
    (d / "binary.csv").write_bytes(b"\xff\xfe\x00")
    return d


def fuzz_flags(d):
    """Each command's options, with values both valid and invalid."""
    def among(*values):
        return st.sampled_from([str(v) for v in values])

    def ints(lo, hi):
        return st.integers(lo, hi).map(str)

    def paths(*names):
        return among(*(d / name for name in names), d / "missing.csv", d / "binary.csv", d)

    output = among("", d / "out.txt", d / "no" / "out.txt", d)
    profile = among("h1", "h2", "nonstrategic", "bogus") | paths("profile.csv", "flat.csv", "bad.csv")
    times = among(0, 1e-3, 0.5, 1, 5, -1, "nan", "inf", "x")
    config = paths("config.json", "bad_config.json", "unknown_config.json", "list_config.json", "malformed.json",
                   "object.json")
    return {
        "spectrum": {"--config": config, "--kmax": ints(-3, 50), "--output": output},
        "check-profile": {"--config": config, "--profile": profile, "--kmax": ints(-3, 50),
                          "--eps": among(0.1, 0, 1, -1, "nan", "x"), "--output": output},
        "simulate": {"--config": config, "--profile": profile, "--n-modes": ints(-2, 16),
                     "--dt": among(0.01, 0.05, 0.5, 0, -0.1, "nan", "inf", "x"), "--t-final": times,
                     "--feedback": among("collocated", "none", "open"),
                     "--sample-every": ints(-1, 60), "--record-modes": None,
                     "--init": among("zero", "spread", "mode:1", "mode:0", "mode:99", "mode:x", "mode:1.5", "smooth:3",
                                     "smooth:1", "smooth:inf", "smooth:nan", "smooth:abc")
                     | paths("state.csv", "nan_state.csv", "bad.csv"),
                     "--input": among("") | paths("signal.json", "short_signal.json", "overlap.json",
                                                  "keyless.json", "true_value.json", "null_value.json",
                                                  "text_value.json", "object.json", "malformed.json"),
                     "--out-csv": output, "--out-json": output},
        "decay": {"--config": config, "--series": paths("series.csv", "profile.csv", "bad.csv"),
                  "--model": among("exponential", "power", "linear"),
                  "--t-lo": times, "--t-hi": times, "--output": output},
        "field": {"--config": config, "--state": paths("state.csv", "nan_state.csv", "bad.csv"),
                  "--u-now": among(0, 1.5, "nan", "inf", "x"), "--profile": profile,
                  "--nx": ints(-2, 16), "--ny": ints(-2, 16), "--n-side-modes": ints(-2, 16), "--output": output},
        "rate-study": {"--config": config, "--profile": profile,
                       "--ns": among("2", "2,4", "4,2", "1", ",", "", "a", "2,16", "-3"),
                       "--t-final": times, "--dt": among(0.01, 0.05, 0.5, 0, -0.1, "nan", "x"),
                       "--sample-every": ints(-1, 60), "--output": output},
    }


def fuzz_base(d):
    """Flags every drawn list starts with, which the drawn flags override: the
    required files, an output file, and small runs where the defaults run long."""
    return {
        "simulate": ["--n-modes", "8", "--t-final", "1", "--out-csv", str(d / "series_out.csv")],
        "rate-study": ["--t-final", "5", "--ns", "2,4"],
        "decay": ["--series", str(d / "series.csv")],
        "field": ["--state", str(d / "state.csv")],
    }


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_cli_exits_zero_or_two_with_one_error_line(fuzz_dir, data):
    flags = fuzz_flags(fuzz_dir)
    command = data.draw(st.sampled_from(sorted(flags)), label="command")
    own = flags[command]
    foreign = {f: s for c in flags if c != command for f, s in flags[c].items() if f not in own}
    names = data.draw(st.lists(st.sampled_from(sorted(own)), max_size=6), label="own")
    if data.draw(st.sampled_from([False, False, False, True]), label="foreign"):
        names.append(data.draw(st.sampled_from(sorted(foreign)), label="foreign flag"))
    argv = [command, *fuzz_base(fuzz_dir).get(command, [])]
    for name in names:
        strategy = own.get(name, foreign.get(name))
        argv.append(name)
        if strategy is not None and data.draw(st.sampled_from([True] * 9 + [False]), label="with value"):
            argv.append(data.draw(strategy, label=name))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert err.getvalue() == ""
