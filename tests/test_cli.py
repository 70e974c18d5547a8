import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavetank
from wavetank import boundary, simulate, stability
from wavetank.cli import main


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
    path = tmp_path / "flat.csv"
    path.write_text("y,h\n-1,1\n0,1\n")
    code, _, err = run_cli(capsys, "check-profile", "--profile", str(path))
    assert code == 2
    assert "volume conservation" in err


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


def test_simulate_rejects_empty_out_csv(capsys):
    # an empty path would mean stdout, where the JSON summary goes
    code, out, err = run_cli(capsys, "simulate", "--n-modes", "4", "--t-final", "1", "--out-csv", "")
    assert code == 2
    assert out == ""
    assert err == "error: out-csv must name a file\n"


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


def test_import_loads_no_scipy():
    # scipy costs ~0.5 s per process start-up; the package must not pull it in
    src = str(Path(wavetank.__file__).resolve().parents[1])
    probe = "import sys, wavetank.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
    # fit as the in-process analysis (17-digit CSV is lossless)
    csv_path = tmp_path / "run.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--profile", "h1", "--n-modes", "4", "--t-final", "20",
        "--dt", "0.01", "--sample-every", "10", "--out-csv", str(csv_path),
    )
    assert code == 0
    series = simulate.TimeSeries.from_csv(csv_path)
    in_process = stability.decay_fit(series, (5.0, 20.0), "exponential")
    code, out, _ = run_cli(
        capsys,
        "decay", "--series", str(csv_path), "--model", "exponential",
        "--t-lo", "5", "--t-hi", "20",
    )
    assert code == 0
    report = json.loads(out)
    assert report["fitted_value"] == in_process.fitted_value
    assert report["residual_rms"] == in_process.residual_rms


def test_decay_missing_file(capsys):
    code, _, err = run_cli(capsys, "decay", "--series", "nope.csv")
    assert code == 2
    assert err.startswith("error:")


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


@pytest.mark.parametrize("u_now", ["nan", "inf"])
def test_field_rejects_non_finite_input(tmp_path, capsys, u_now):
    state = tmp_path / "state.csv"
    state.write_text("k,zeta,w\n1,1.0,0\n")
    code, _, err = run_cli(
        capsys, "field", "--state", str(state), "--u-now", u_now, "--nx", "4", "--ny", "4",
        "--output", str(tmp_path / "f.csv"),
    )
    assert code == 2
    assert err.startswith("error: u-now must be finite")
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


def test_field_malformed_state(tmp_path, capsys):
    state = tmp_path / "state.csv"
    state.write_text("k,zeta\n1,0\n")
    code, _, err = run_cli(capsys, "field", "--state", str(state))
    assert code == 2
    assert "malformed state CSV" in err


@pytest.mark.parametrize(
    "what, text",
    [
        pytest.param("time-series", "t,x_norm,energy,u\n0,1,1,0\n1,1,1\n", id="series-ragged-row"),
        pytest.param("time-series", "t,x_norm,energy,u\n0,1,1,0\n1,1,abc,0\n", id="series-non-numeric"),
        pytest.param("time-series", "t,x_norm,energy,u\n# note\n0,1,1,0\n", id="series-hash-not-comment"),
        pytest.param("state", "k,zeta,w\n1,0.5,0,7\n2,0,0\n", id="state-extra-first-cell"),
        pytest.param("state", "k,zeta,w\n1,0.5,0,7\n", id="state-wider-than-header"),
        pytest.param("state", "k,zeta,w\n1,abc,0\n", id="state-non-numeric"),
        pytest.param("profile", "y,h\n-1,0\n0\n", id="profile-short-row"),
    ],
)
def test_malformed_csv_single_error_line(tmp_path, capsys, what, text):
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
    assert err.startswith(f"error: malformed {what} CSV {path}: ")
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


def test_unknown_flag_single_line_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--bogus", "1")
    assert code == 2
    assert err.startswith("error:")
