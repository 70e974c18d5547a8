"""The public surface: every exported name resolves, the README's library
sketch runs, and the benchmark's tracer, which wraps the public functions by
name, installs and uninstalls."""

import ast
import importlib.util
import re
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


def test_package_exports_are_public_names():
    # every name wavetank/__init__.py imports is listed in its module's __all__
    tree = ast.parse(Path(wavetank.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = getattr(wavetank, node.module)
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(wavetank, alias.name) is getattr(module, alias.name)


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
