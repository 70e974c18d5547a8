"""Command-line front door: spectrum tables, profile checks, simulation runs,
decay fits, field reconstruction, and the rate-vs-truncation study.

Every command exits 0 on success and 2 with a single-line ``error: ...``
message on invalid input. Numeric CSV output carries 17 significant digits
so round-trips are lossless for 64-bit floats; JSON summaries embed the
fully resolved configuration for provenance.
"""

import argparse
import json
import sys
import time

import numpy as np

from . import boundary, profiles, simulate, spectral, stability
from ._table import read_table, write_table

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _load_profile(name: str) -> profiles.WavemakerProfile:
    if name in profiles.BUILTIN_PROFILES:
        return profiles.WavemakerProfile.builtin(name)
    return profiles.WavemakerProfile.from_csv(name)


def _merge_config(args, parser_defaults):
    """Fill unset options from the JSON config file, then hard defaults."""
    merged = vars(args)
    if merged.get("config"):
        with open(merged["config"]) as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed config JSON {merged['config']}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config JSON {merged['config']} must hold an object")
        for key, value in file_cfg.items():
            dest = key.replace("-", "_")
            if dest in merged and merged[dest] is None:
                merged[dest] = value
    for dest, value in parser_defaults.items():
        if merged.get(dest) is None:
            merged[dest] = value
    return argparse.Namespace(**merged)


def _write_or_print(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands ---------------------------------------------------------------


def cmd_spectrum(args) -> int:
    kmax = args.kmax
    if kmax < 2:
        raise ValueError(f"kmax must be >= 2, got {kmax}")
    gaps = np.append(spectral.gap_products(kmax), np.nan)  # NaN is written as an empty cell
    columns = [np.arange(1, kmax + 1), spectral.eigenvalues(kmax), spectral.frequencies(kmax), gaps]
    write_table(args.output, ["k", "lambda", "mu", "gap_product"], columns)
    return 0


def cmd_check_profile(args) -> int:
    h = _load_profile(args.profile)
    strat = profiles.strategic_check(h, args.kmax)
    margins = profiles.ussd_margin(h, args.kmax)
    sc = profiles.sc_check(h, args.eps)
    report = {
        "profile": args.profile,
        "kind": h.kind,
        "kmax": args.kmax,
        "mean_residual": h.mean_residual(),
        "strategic": {
            "verdict": strat.verdict,
            "fails_at": list(strat.fails_at),
            "atol": strat.atol,
            "note": "finite-range certificate for k <= kmax",
        },
        "ussd": {
            "min_margin": margins.min_margin,
            "argmin_k": margins.argmin,
            "tail_margin": margins.tail,
            "note": margins.note,
        },
        "sc": {
            "verdict": sc.verdict,
            "eps": sc.eps,
            "derivative_sup": sc.derivative_sup,
            "bound": sc.bound,
        },
    }
    _write_or_print(json.dumps(report, indent=2) + "\n", args.output)
    return 0


def _initial_state(init: str, n_modes: int) -> simulate.ModalState:
    if init == "zero":
        return simulate.ModalState.zero(n_modes)
    if init == "spread":
        v = np.ones(n_modes) / np.sqrt(n_modes)
        return simulate.ModalState(v.copy(), v.copy())
    if init.startswith("mode:"):
        k = int(init.split(":", 1)[1])
        return simulate.ModalState.single_mode(k, n_modes)
    if init.startswith("smooth:"):
        power = float(init.split(":", 1)[1])
        return stability.smooth_initial_state(n_modes, power)
    return _read_state_csv(init, n_modes)


def _read_state_csv(path, n_modes=None) -> simulate.ModalState:
    _, data = read_table(path, "state", ("k", "zeta", "w"))
    if not len(data):
        raise ValueError(f"state CSV {path} has no modes")
    if not np.array_equal(data[:, 0], np.arange(1, len(data) + 1)):
        raise ValueError(f"state CSV {path} must list modes k = 1..N in order")
    n = n_modes or len(data)
    if len(data) > n:
        raise ValueError(f"state CSV {path} holds {len(data)} modes, config allows {n}")
    pad = (0, n - len(data))
    return simulate.ModalState(np.pad(data[:, 1], pad), np.pad(data[:, 2], pad))


def _read_signal_json(path, t_final: float) -> simulate.InputSignal:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed input-signal JSON {path}: {exc}") from None
    if not isinstance(data, list):
        raise ValueError(f"input-signal JSON {path} must hold a list of segments")
    segments = []
    for item in data:
        try:
            segments.append(
                simulate.Segment(
                    t_start=float(item["t_start"]),
                    t_end=float(item["t_end"]),
                    form=item["form"],
                    value=float(item.get("value", 0.0)),
                    amplitude=float(item.get("amplitude", 0.0)),
                    omega=float(item.get("omega", 0.0)),
                    phase=float(item.get("phase", 0.0)),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed segment in {path}: {exc}") from None
    signal = simulate.InputSignal(segments)
    signal.validate(t_final)
    return signal


def cmd_simulate(args) -> int:
    if not args.out_csv:
        raise ValueError("out-csv must name a file")
    h = _load_profile(args.profile)
    config = simulate.SimConfig(
        n_modes=args.n_modes,
        t_final=args.t_final,
        dt=args.dt,
        feedback=args.feedback,
        integrator=args.integrator,
        sample_every=args.sample_every,
        record_modes=args.record_modes,
    )
    state0 = _initial_state(args.init, config.n_modes)
    t0 = time.perf_counter()
    if config.feedback == "collocated":
        series = simulate.simulate_closed(state0, h, config)
    else:
        if args.input:
            signal = _read_signal_json(args.input, config.t_final)
        else:
            signal = simulate.InputSignal.zero(config.t_final)
        series = simulate.simulate_open(state0, h, signal, config)
    wall = time.perf_counter() - t0
    series.to_csv(args.out_csv)
    summary = {
        "command": "simulate",
        "config": {
            "n_modes": config.n_modes,
            "dt": config.dt,
            "t_final": config.t_final,
            "feedback": config.feedback,
            "integrator": config.integrator,
            "sample_every": config.sample_every,
            "profile": args.profile,
            "init": args.init,
            "input": args.input,
        },
        "initial": {
            "x_norm": simulate.x_norm(state0),
            "domain_norm": simulate.domain_norm(state0),
        },
        "final": {
            "x_norm": simulate.x_norm(series.final_state),
            "domain_norm": simulate.domain_norm(series.final_state),
        },
        "samples": len(series.t),
        "t_end": config.n_steps * config.dt,
        "wall_time_s": wall,
    }
    text = json.dumps(summary, indent=2) + "\n"
    _write_or_print(text, args.out_json)
    return 0


def cmd_decay(args) -> int:
    series = simulate.TimeSeries.from_csv(args.series)
    fit = stability.decay_fit(series, (args.t_lo, args.t_hi), args.model)
    report = {
        "series": args.series,
        "model": fit.model,
        "window": list(fit.window),
        "fitted_value": fit.fitted_value,
        "residual_rms": fit.residual_rms,
    }
    _write_or_print(json.dumps(report, indent=2) + "\n", args.output)
    return 0


def cmd_field(args) -> int:
    if not np.isfinite(args.u_now):
        raise ValueError(f"u-now must be finite, got {args.u_now}")
    state = _read_state_csv(args.state)
    h = _load_profile(args.profile)
    grid = boundary.reconstruct_field(
        state.zeta, args.u_now, h, args.nx, args.ny, n_side_modes=args.n_side_modes
    )
    grid.to_csv(args.output)
    return 0


def cmd_rate_study(args) -> int:
    h = _load_profile(args.profile)
    n_values = [int(v) for v in args.ns.split(",") if v.strip()]
    config = simulate.SimConfig(
        n_modes=max(n_values),
        t_final=args.t_final,
        dt=args.dt,
        sample_every=args.sample_every,
    )
    stability.study_to_csv(stability.rate_vs_n_study(h, n_values, config), args.output)
    return 0


# -- argument wiring ---------------------------------------------------------

_DEFAULTS = {
    "spectrum": {"kmax": 50, "output": ""},
    "check-profile": {"profile": "h1", "kmax": 50, "eps": 0.1, "output": ""},
    "simulate": {
        "profile": "h1",
        "n_modes": 32,
        "dt": None,
        "t_final": 10.0,
        "feedback": "collocated",
        "integrator": "splitting",
        "sample_every": 1,
        "record_modes": False,
        "init": "spread",
        "input": "",
        "out_csv": "series.csv",
        "out_json": "",
    },
    "decay": {"model": "exponential", "t_lo": 0.0, "t_hi": 1e30, "output": ""},
    "field": {
        "profile": "h1",
        "u_now": 0.0,
        "nx": 64,
        "ny": 64,
        "n_side_modes": 64,
        "output": "",
    },
    "rate-study": {
        "profile": "h1",
        "ns": "4,8,16,32",
        "t_final": 40000.0,
        "dt": 1e-2,
        "sample_every": 1000,
        "output": "",
    },
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="wavetank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default="", help="JSON config merged under explicit flags")
        return p

    p = add("spectrum", "eigenvalues, frequencies and gap products")
    p.add_argument("--kmax", type=int)
    p.add_argument("--output", help="CSV path (stdout when omitted)")

    p = add("check-profile", "strategic / margin / sufficient-condition report")
    p.add_argument("--profile")
    p.add_argument("--kmax", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--output")

    p = add("simulate", "run the open or closed loop and export the series")
    p.add_argument("--profile")
    p.add_argument("--n-modes", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-final", type=float)
    p.add_argument("--feedback", choices=["collocated", "none"])
    p.add_argument("--integrator", choices=["splitting", "rk4-crosscheck"])
    p.add_argument("--sample-every", type=int)
    p.add_argument("--record-modes", action="store_const", const=True)
    p.add_argument("--init", help="zero | spread | mode:K | smooth:P | state CSV path")
    p.add_argument("--input", help="input-signal JSON (open loop only)")
    p.add_argument("--out-csv")
    p.add_argument("--out-json")

    p = add("decay", "fit a decay model to an exported series")
    p.add_argument("--series", required=True)
    p.add_argument("--model", choices=["exponential", "power"])
    p.add_argument("--t-lo", type=float)
    p.add_argument("--t-hi", type=float)
    p.add_argument("--output")

    p = add("field", "reconstruct the fluid field from a state CSV")
    p.add_argument("--state", required=True)
    p.add_argument("--u-now", type=float)
    p.add_argument("--profile")
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--n-side-modes", type=int)
    p.add_argument("--output")

    p = add("rate-study", "fitted closed-loop rates over a truncation sweep")
    p.add_argument("--profile")
    p.add_argument("--ns", help="comma-separated truncation sizes")
    p.add_argument("--t-final", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--sample-every", type=int)
    p.add_argument("--output")

    return parser


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "check-profile": cmd_check_profile,
    "simulate": cmd_simulate,
    "decay": cmd_decay,
    "field": cmd_field,
    "rate-study": cmd_rate_study,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _merge_config(args, _DEFAULTS[args.command])
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
