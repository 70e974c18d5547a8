"""Command-line front door: spectrum tables, profile checks, simulation runs,
decay fits, field reconstruction, and the rate-vs-truncation study.

Every command exits 0 on success and 2 with a single-line ``error: ...``
message on invalid input. Numeric CSV output carries 17 significant digits
so round-trips are lossless for 64-bit floats; JSON summaries embed the
fully resolved configuration for provenance.

Unlike the package, which loads a subsystem on first use, this module
imports every subsystem when it is imported, so each command finds them
already loaded.
"""

import argparse
import atexit
import gc
import json
import sys
import time

import numpy as np

# Eager on purpose: the benchmark's tracer (perfbench/spans.py) patches only
# the modules loaded by ``import wavetank; import wavetank.cli``, so a
# subsystem that a command imported later would go untraced and its layers
# would read 0.
from . import boundary, profiles, simulate, spectral, stability
from ._table import read_table, write_table

__all__ = ["main"]

# Frozen at exit, the ~21,700 objects numpy and the package leave tracked skip
# the interpreter's last cyclic-GC sweeps (6-9 ms). Nothing is lost: every file
# is closed by a ``with`` block, and stdout and stderr are flushed regardless.
atexit.register(gc.freeze)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _load_profile(name: str) -> profiles.WavemakerProfile:
    if name in profiles.BUILTIN_PROFILES:
        return profiles.WavemakerProfile.builtin(name)
    return profiles.WavemakerProfile.from_csv(name)


def _config_flags(path, command: str, commands: dict) -> list[str]:
    """The fields of a JSON config file as flags of ``command``'s parser.

    Parsed ahead of the explicit flags, they pass the same type and choice
    checks, and a flag given explicitly wins. Null values and fields of other
    commands are ignored, so one file can serve several commands; a field
    that names no option of any command is an error, and so are ``config``
    and ``help``, which every command takes from the command line only.
    """
    with open(path) as fh:
        try:
            fields = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config JSON {path}: {exc}") from None
    if not isinstance(fields, dict):
        raise ValueError(f"config JSON {path} must hold an object")
    actions = {a.dest: a for a in commands[command]._actions if a.option_strings}
    known = {a.dest for parser in commands.values() for a in parser._actions}
    flags = []
    for key, value in fields.items():
        dest = key.replace("-", "_")
        if dest in ("config", "help"):
            raise ValueError(f"config field {key!r} is read from the command line only")
        if dest not in known:
            raise ValueError(f"config field {key!r} names no option of any command")
        action = actions.get(dest)
        if action is None or value is None:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:  # a switch such as --record-modes
            if not isinstance(value, bool):
                raise ValueError(f"config field {key} must be true or false, got {value!r}")
            flags += [flag] if value else []
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            flags.append(f"{flag}={value}")
        else:
            raise ValueError(f"config field {key} must be a string or a number, got {value!r}")
    return flags


def _write_json(report: dict, path) -> None:
    """Write ``report`` as indented JSON to ``path``, or to stdout when it is empty."""
    text = json.dumps(report, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands ---------------------------------------------------------------


def cmd_spectrum(args) -> None:
    kmax = args.kmax
    gaps = np.append(spectral.gap_products(kmax), np.nan)  # NaN is written as an empty cell
    columns = [np.arange(1, kmax + 1), spectral.eigenvalues(kmax), spectral.frequencies(kmax), gaps]
    write_table(args.output, ["k", "lambda", "mu", "gap_product"], columns)


def cmd_check_profile(args) -> None:
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
    _write_json(report, args.output)


def _init_number(init: str, parse, fault: str):
    """The number after the colon of ``--init mode:K`` or ``smooth:P``, read by ``parse``."""
    try:
        return parse(init.split(":", 1)[1])
    except ValueError:
        raise ValueError(f"--init {init}: {fault}") from None


def _initial_state(init: str, n_modes: int) -> simulate.ModalState:
    if init == "zero":
        return simulate.ModalState.zero(n_modes)
    if init == "spread":
        v = np.ones(n_modes) / np.sqrt(n_modes)
        return simulate.ModalState(v.copy(), v.copy())
    if init.startswith("mode:"):
        return simulate.ModalState.single_mode(_init_number(init, int, "K must be an integer"), n_modes)
    if init.startswith("smooth:"):
        return stability.smooth_initial_state(n_modes, _init_number(init, float, "P must be a number"))
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


# the number fields of a segment, each of which the JSON may also give as text that float() reads
_SEGMENT_NUMBERS = ("t_start", "t_end", "value", "amplitude", "omega", "phase")


def _segment_number(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"segment {key} must be a number, got {text!r}") from None


def _read_signal_json(path) -> simulate.InputSignal:
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
            if not isinstance(item, dict):
                raise TypeError(f"a segment must be a JSON object, got {item!r}")
            # Segment checks the keys and the numbers; the text of a number field is read by float()
            numbers = {key: _segment_number(key, v) for key, v in item.items()
                       if key in _SEGMENT_NUMBERS and isinstance(v, str)}
            segments.append(simulate.Segment(**{**item, **numbers}))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed segment in {path}: {exc}") from None
    return simulate.InputSignal(segments)


def cmd_simulate(args) -> None:
    if not args.out_csv:
        raise ValueError("out-csv must name a file")
    if args.input and args.feedback == "collocated":
        raise ValueError("input drives the open loop only; it needs feedback none")
    h = _load_profile(args.profile)
    config = simulate.SimConfig(
        n_modes=args.n_modes,
        t_final=args.t_final,
        dt=args.dt,
        sample_every=args.sample_every,
        record_modes=args.record_modes,
    )
    state0 = _initial_state(args.init, config.n_modes)
    t0 = time.perf_counter()
    if args.feedback == "collocated":
        series = simulate.simulate_closed(state0, h, config)
    else:
        signal = _read_signal_json(args.input) if args.input else simulate.InputSignal.zero(config.t_final)
        series = simulate.simulate_open(state0, h, signal, config)
    wall = time.perf_counter() - t0
    series.to_csv(args.out_csv)
    summary = {
        "command": "simulate",
        "config": {
            "n_modes": config.n_modes,
            "dt": config.dt,
            "t_final": config.t_final,
            "feedback": args.feedback,
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
        "t_end": float(series.t[-1]),
        "wall_time_s": wall,
    }
    _write_json(summary, args.out_json)


def cmd_decay(args) -> None:
    series = simulate.TimeSeries.from_csv(args.series, modes=False)
    fit = stability.decay_fit(series, (args.t_lo, args.t_hi), args.model)
    report = {
        "series": args.series,
        "model": fit.model,
        "window": list(fit.window),
        "fitted_value": fit.fitted_value,
        "residual_rms": fit.residual_rms,
    }
    _write_json(report, args.output)


def cmd_field(args) -> None:
    state = _read_state_csv(args.state)
    h = _load_profile(args.profile)
    grid = boundary.reconstruct_field(
        state.zeta, args.u_now, h, args.nx, args.ny, n_side_modes=args.n_side_modes
    )
    grid.to_csv(args.output)


def cmd_rate_study(args) -> None:
    h = _load_profile(args.profile)
    entries = stability.rate_vs_n_study(h, args.ns, args.t_final, args.dt, args.sample_every)
    stability.study_to_csv(entries, args.output)


# -- argument wiring ---------------------------------------------------------


def _sizes(text: str) -> list[int]:
    """The value of ``--ns``: comma-separated integers, empty entries skipped."""
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _build_parser() -> tuple[_Parser, dict]:
    """The top-level parser and the parser of each command, which binds the
    command's function as ``run``."""
    parser = _Parser(prog="wavetank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, run):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", default="", help="JSON config merged under explicit flags")
        return p

    p = add("spectrum", "eigenvalues, frequencies and gap products", cmd_spectrum)
    p.add_argument("--kmax", type=int, default=50)
    p.add_argument("--output", default="", help="CSV path (stdout when omitted)")

    p = add("check-profile", "strategic / margin / sufficient-condition report", cmd_check_profile)
    p.add_argument("--profile", default="h1")
    p.add_argument("--kmax", type=int, default=50)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--output", default="")

    p = add("simulate", "run the open or closed loop and export the series", cmd_simulate)
    p.add_argument("--profile", default="h1")
    p.add_argument("--n-modes", type=int, default=32)
    p.add_argument("--dt", type=float, help="sample grid spacing (default min(1e-2, 0.1/mu_N))")
    p.add_argument("--t-final", type=float, default=10.0)
    p.add_argument("--feedback", choices=["collocated", "none"], default="collocated")
    p.add_argument("--sample-every", type=int, default=1)
    p.add_argument("--record-modes", action="store_true")
    p.add_argument("--init", default="spread", help="zero | spread | mode:K | smooth:P | state CSV path")
    p.add_argument("--input", default="", help="input-signal JSON (open loop only)")
    p.add_argument("--out-csv", default="series.csv")
    p.add_argument("--out-json", default="")

    p = add("decay", "fit a decay model to an exported series", cmd_decay)
    p.add_argument("--series", required=True)
    p.add_argument("--model", choices=["exponential", "power"], default="exponential")
    p.add_argument("--t-lo", type=float, default=0.0)
    p.add_argument("--t-hi", type=float, default=1e30)
    p.add_argument("--output", default="")

    p = add("field", "reconstruct the fluid field from a state CSV", cmd_field)
    p.add_argument("--state", required=True)
    p.add_argument("--u-now", type=float, default=0.0)
    p.add_argument("--profile", default="h1")
    p.add_argument("--nx", type=int, default=64)
    p.add_argument("--ny", type=int, default=64)
    p.add_argument("--n-side-modes", type=int, default=boundary.DEFAULT_SIDE_MODES)
    p.add_argument("--output", default="")

    p = add("rate-study", "fitted closed-loop rates over a truncation sweep", cmd_rate_study)
    p.add_argument("--profile", default="h1")
    p.add_argument("--ns", type=_sizes, default="4,8,16,32", help="comma-separated truncation sizes")
    p.add_argument("--t-final", type=float, default=40000.0)
    p.add_argument("--dt", type=float, default=1e-2)
    p.add_argument("--sample-every", type=int, default=1000)
    p.add_argument("--output", default="")

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args.config, args.command, commands) + argv[at:])
        args.run(args)
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the shape and bytes asked for
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
