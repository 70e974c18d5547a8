"""In-process spans around the public functions of wavetank's layers.

:class:`Tracer` replaces each traced function with a wrapper at every name
under which a module of the package (or an extra caller module) holds it,
so calls through ``from .profiles import coupling_vector`` are traced like
calls through ``profiles.coupling_vector``. Spans stay in memory as
``[category, parent, start, end, info]``; :func:`layer_metrics` turns one
pass of spans into the per-layer figures.
"""

import functools
import inspect
import os
import time
from collections import defaultdict


def _mode_steps(args, kwargs, result):
    config = kwargs.get("config", args[-1])
    return config.n_modes * config.n_steps


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def targets(wavetank):
    """(category, owner, attribute, info) of every traced function."""
    p, s, st, sim, bd, cli = (wavetank.profiles, wavetank.spectral, wavetank.stability,
                              wavetank.simulate, wavetank.boundary, wavetank.cli)
    out = [("profiles.load", p.WavemakerProfile, name, None) for name in ("builtin", "from_csv", "from_samples")]
    out += [
        ("profiles.coupling", p, "coupling_vector", None),
        ("profiles.strategic", p, "strategic_check", None),
        ("profiles.ussd", p, "ussd_margin", None),
        ("profiles.modes", p, "strategic_integral_scaled", None),
        ("stability.abscissa", st, "spectral_abscissa", None),
        ("stability.rate_study", st, "rate_vs_n_study", None),
        ("stability.fit", st, "decay_fit", None),
        ("simulate.closed", sim, "simulate_closed", _mode_steps),
        ("simulate.open", sim, "simulate_open", _mode_steps),
        ("simulate.write", sim.TimeSeries, "to_csv", _file_bytes),
        ("simulate.read", sim.TimeSeries, "from_csv", _file_bytes),
        ("boundary.field", bd, "reconstruct_field", None),
        ("boundary.write", bd.FieldGrid, "to_csv", _file_bytes),
        ("cli", cli, "main", None),
    ]
    out += [("spectral", s, name, None) for name in s.__all__ if inspect.isfunction(getattr(s, name))]
    return out


class Tracer:
    def __init__(self, wavetank, callers=()):
        self.spans = []
        self._stack = []
        self._modules = [m for name, m in vars(wavetank).items() if type(m) is type(wavetank)]
        self._modules += [wavetank, *callers]
        self._targets = targets(wavetank)
        self._undo = []

    def _wrap(self, category, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [category, stack[-1] if stack else -1, time.perf_counter(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for category, owner, name, info in self._targets:
            raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(category, raw.__func__, info))
                self._patch(owner, name, raw, wrapped)
                continue
            wrapped = self._wrap(category, raw, info)
            if isinstance(owner, type):
                self._patch(owner, name, raw, wrapped)
                continue
            for module in self._modules:
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, attr, raw, wrapped)

    def _patch(self, owner, attr, raw, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def layer_metrics(spans):
    """Per-layer seconds, rates and counts of one pass of spans.

    A layer's time is the sum of its outermost spans (a span inside another
    of the same layer is not counted twice). ``spectral.self_s`` and
    ``cli.self_s`` are self times: span length minus the direct child spans.
    """
    child = [0.0] * len(spans)
    for cat, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total, selft, info, count = defaultdict(float), defaultdict(float), defaultdict(float), defaultdict(int)
    for i, (cat, parent, t0, t1, extra) in enumerate(spans):
        count[cat] += 1
        info[cat] += extra
        selft[cat] += t1 - t0 - child[i]
        while parent >= 0 and spans[parent][0] != cat:
            parent = spans[parent][1]
        if parent < 0:
            total[cat] += t1 - t0

    def rate(cat, scale=1.0):
        return info[cat] * scale / total[cat] if total[cat] > 0 else 0.0

    return {
        "profiles.load_s": total["profiles.load"],
        "profiles.coupling_s": total["profiles.coupling"],
        "profiles.strategic_s": total["profiles.strategic"],
        "profiles.ussd_s": total["profiles.ussd"],
        "profiles.modes": count["profiles.modes"],
        "spectral.self_s": selft["spectral"],
        "stability.abscissa_s": total["stability.abscissa"],
        "simulate.closed_s": total["simulate.closed"],
        "simulate.closed_mode_steps_per_s": rate("simulate.closed"),
        "simulate.open_s": total["simulate.open"],
        "simulate.open_mode_steps_per_s": rate("simulate.open"),
        "stability.rate_study_s": total["stability.rate_study"],
        "stability.fit_s": total["stability.fit"],
        "simulate.write_s": total["simulate.write"],
        "simulate.write_mb_s": rate("simulate.write", 1e-6),
        "simulate.read_s": total["simulate.read"],
        "simulate.read_mb_s": rate("simulate.read", 1e-6),
        "boundary.field_s": total["boundary.field"],
        "boundary.write_s": total["boundary.write"],
        "boundary.write_mb_s": rate("boundary.write", 1e-6),
        "cli.self_s": selft["cli"],
    }
