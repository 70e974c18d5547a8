"""The public surface: every exported name resolves, the README's library
sketch and command examples run, and the benchmark's tracer, which wraps the
public functions by name, installs and uninstalls."""

import importlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import wavetank
from wavetank import boundary, cli, profiles, simulate, spectral, stability

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
MODULES = [boundary, cli, profiles, simulate, spectral, stability]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


# the names the package exported when it imported every subsystem eagerly,
# less the record that wrapped a coupling array, now a plain 1-D array, and
# the wall residual, which the field's own x-difference replaced
EXPORTS = {
    "FieldGrid", "dirichlet_field", "harmonicity_residual", "hilbert_bound_ratio", "neumann_field",
    "neumann_to_neumann", "reconstruct_field", "side_projection", "wall_trace",
    "WavemakerProfile", "coupling_vector", "sc_check", "strategic_check", "ussd_margin",
    "InputSignal", "ModalState", "Segment", "SimConfig", "TimeSeries", "domain_norm", "simulate_closed",
    "simulate_open", "x_norm",
    "GapViolationError", "WavePackageResult", "eigenvalue", "frequency", "gap_products",
    "separation_certificate", "wave_package",
    "DecayFit", "EnvelopeReport", "decay_fit", "envelope_check", "rate_vs_n_study", "smooth_initial_state",
    "spectral_abscissa",
}


def test_package_exports_are_public_names():
    # the lazy table holds exactly those names, each listed in its module's
    # __all__ and resolved to the module's own object
    assert len(EXPORTS) == 37 and set(wavetank._OWNERS) == EXPORTS
    for name, owner in wavetank._OWNERS.items():
        module = importlib.import_module(f"wavetank.{owner}")
        assert name in module.__all__, f"{owner}.{name}"
        assert getattr(wavetank, name) is getattr(module, name)


def test_package_namespace_lists_the_exports():
    assert sorted(wavetank.__all__) == sorted(EXPORTS) and dir(wavetank) == sorted(EXPORTS)
    star = {}
    exec("from wavetank import *", star)
    assert star.keys() - {"__builtins__"} == EXPORTS
    assert vars(wavetank)["__version__"] == "0.1.0"
    with pytest.raises(AttributeError, match="^module 'wavetank' has no attribute 'nope'$"):
        wavetank.nope  # noqa: B018


def _fresh(probe, *paths):
    """What ``probe`` prints as JSON, run by a fresh interpreter with ``src`` (and ``paths``) on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *map(str, paths)])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


LAZY_PROBE = """
import json, sys
import wavetank
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "wavetank") and m != "wavetank")
steps = [loaded()]
wavetank.eigenvalue(1)
steps.append(loaded())
steps.append(wavetank.stability is sys.modules["wavetank.stability"])
print(json.dumps(steps))
"""


def test_import_loads_nothing_until_used():
    bare, after_eigenvalue, subsystem = _fresh(LAZY_PROBE)
    assert bare == []
    assert "wavetank.spectral" in after_eigenvalue and "numpy" in after_eigenvalue
    assert not {"wavetank.simulate", "wavetank.boundary", "wavetank.cli"} & set(after_eigenvalue)
    assert subsystem is True


TRACER_PROBE = """
import json, sys
import wavetank
import wavetank.cli
import spans
tracer = spans.Tracer(wavetank)  # first, as the benchmark makes it: it snapshots the loaded modules
targets = spans.targets(wavetank)
raw = [owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name) for _, owner, name, _ in targets]
def held():
    # each function as its defining module (or, for a method, its class) holds it now
    return [owner.__dict__[name] if isinstance(owner, type) else vars(sys.modules[fn.__module__])[fn.__name__]
            for (_, owner, name, _), fn in zip(targets, raw)]
tracer.install()
missed = [name for (_, _, name, _), fn, now in zip(targets, raw, held()) if now is fn]
fetched = [getattr(wavetank, name) for name in wavetank.__all__]  # first access, while installed
tracer.uninstall()
kept = [name for (_, _, name, _), fn, now in zip(targets, raw, held()) if now is not fn]
kept += [name for name in wavetank.__all__
         if getattr(wavetank, name) is not getattr(sys.modules["wavetank." + wavetank._OWNERS[name]], name)]
print(json.dumps([len(targets), missed, kept]))
"""


def test_tracer_patches_every_target_in_a_fresh_interpreter():
    # the benchmark's tracer patches the modules that import wavetank.cli has
    # loaded, so a subsystem the CLI stopped importing eagerly is missed; and
    # a name first fetched while it is installed must not stay wrapped after
    count, missed, kept = _fresh(TRACER_PROBE, SPANS.parent)
    assert count > 20
    assert missed == []
    assert kept == []


def _namespaces():
    owners = [m for m in vars(wavetank).values() if type(m) is type(wavetank)]
    owners += [wavetank, profiles.WavemakerProfile, simulate.TimeSeries, boundary.FieldGrid]
    return {(owner.__name__, name): value for owner in owners for name, value in vars(owner).items()}


def test_benchmark_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = _namespaces()
    tracer = spans.Tracer(wavetank)
    tracer.install()
    try:
        assert profiles.strategic_integral_scaled is not before[("wavetank.profiles", "strategic_integral_scaled")]
        profiles.strategic_integral_scaled(profiles.WavemakerProfile.builtin("h1"), 1)
        assert [span[0] for span in tracer.spans] == ["profiles.load", "profiles.modes"]
        # a run's span counts its work as n_modes * n_steps, read from its config
        # given by position or by keyword
        cfg = simulate.SimConfig(n_modes=3, t_final=1.0, dt=0.1, sample_every=4)
        state0, b = simulate.ModalState.zero(3), [0.1, 0.2, 0.3]
        simulate.simulate_closed(state0, b, cfg)
        simulate.simulate_open(state0, b, simulate.InputSignal.zero(1.0), config=cfg)
        runs = [(span[0], span[4]) for span in tracer.spans if span[0].startswith("simulate.")]
        assert runs == [("simulate.closed", 3 * 10), ("simulate.open", 3 * 10)]
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_readme_library_sketch_runs(capsys):
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    namespace = {}
    exec(block.group(1), namespace)
    # the rate it prints beside the spectral abscissa is a fit that has reached it
    oracle = -namespace["spectral_abscissa"](namespace["h"], 16)
    assert namespace["fit"].fitted_value == pytest.approx(oracle, rel=0.05)


def test_readme_command_examples_run(tmp_path, monkeypatch, capsys):
    # every command of the "Command line" block, in order (decay reads the
    # series simulate wrote), with the block's signal and a small state CSV
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    signal = re.search(r"Input-signal segments look like\n\n```json\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "signal.json").write_text(signal)
    (tmp_path / "state.csv").write_text("k,zeta,w\n1,0.5,0.0\n2,0.0,0.25\n3,0.125,0.0\n")
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("wavetank ")]
    assert len(commands) == 7
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        assert capsys.readouterr().err == "", argv
