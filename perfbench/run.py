"""Benchmark of the wavetank command line, end to end and layer by layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each run writes its seeded inputs and all outputs into a fresh
temporary directory under ``.perfbench_tmp/`` and removes it at the end.
After one warm-up pass that is not counted, passes of the workload's
operations run round-robin until ``--seconds`` is used up; every output of
every pass is checked against references computed apart from the program.

``--trace 0`` runs each operation as a child process, the way a user runs
the command, and reports the end-to-end metrics. ``--trace 1`` runs the
same operations in-process through ``wavetank.cli.main`` with spans around
the public functions of each layer, alternating with untraced in-process
passes to measure the tracing overhead, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS/OpenMP thread for the children and for this process: on a small
# shared machine extra threads add contention and CPU time, not speed.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 2  # fresh-import probes per counted pass
CLI = "import sys; from wavetank.cli import main; sys.exit(main())"
IMPORT_PROBE = "import time; import wavetank; print(time.monotonic())"


class Tally:
    """Operations attempted and failed, and whether every finished one was correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, op, execute, counted):
        for path in op.writes:
            path.unlink(missing_ok=True)
        ok = execute(op)
        self.attempted += counted
        if not ok:
            self.failed += counted
            return
        try:
            op.check()
        except Exception as exc:  # a check that crashes is a wrong output too
            self.correct = False
            print(f"check failed: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)


class PassRecord:
    """Wall and CPU seconds of each operation of one pass, and the bytes it wrote and read."""

    def __init__(self):
        self.walls, self.cpu, self.written, self.read = [], 0.0, 0, 0

    @property
    def wall(self):
        return sum(self.walls)

    def add_io(self, op):
        self.written += sum(p.stat().st_size for p in op.writes if p.exists())
        self.read += sum(p.stat().st_size for p in op.reads)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, cwd, env, stdout=subprocess.DEVNULL):
    """Run a child to completion; (exit code, wall seconds, rusage). Its stderr lands in stderr.txt."""
    t0 = time.perf_counter()
    with open(cwd / "stderr.txt", "w") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    if code != 0:
        tail = (cwd / "stderr.txt").read_text()[-2000:]
        print(f"child exited {code}: {' '.join(map(str, argv))}\n{tail}", file=sys.stderr)
    return code, wall, usage


def timed_passes(seconds, one_pass):
    """One uncounted warm-up pass, then whole passes while the time allows another."""
    one_pass(counted=False)
    start, cycles = time.monotonic(), []
    while not cycles or time.monotonic() - start + statistics.median(cycles) <= seconds:
        t0 = time.monotonic()
        one_pass(counted=True)
        cycles.append(time.monotonic() - t0)


def untraced(ops, rundir, seconds, tally):
    env = child_env()
    passes, setups, peak_rss = [], [], [0]

    def execute(op, record):
        script = [str(HERE / "lib_child.py")] if op.lib else ["-c", CLI]
        code, wall, usage = spawn([sys.executable, *script, *op.args], rundir, env)
        record.walls.append(wall)
        record.cpu += usage.ru_utime + usage.ru_stime
        peak_rss[0] = max(peak_rss[0], usage.ru_maxrss)
        return code == 0

    def setup_probe():
        out = rundir / "probe.txt"
        with open(out, "w") as fh:
            t0 = time.monotonic()  # CLOCK_MONOTONIC, shared with the child
            code, _, _ = spawn([sys.executable, "-c", IMPORT_PROBE], rundir, env, stdout=fh)
        if code != 0:
            raise RuntimeError("import wavetank failed in a fresh interpreter")
        return float(out.read_text()) - t0

    def one_pass(counted):
        probes = [setup_probe() for _ in range(SETUP_PROBES if counted else 0)]
        record = PassRecord()
        for op in ops:
            tally.run(op, lambda o: execute(o, record), counted)
        print(f"pass{'' if counted else ' (warm-up)'}: wall {record.wall:.3f} s, cpu {record.cpu:.3f} s, "
              f"ops {' '.join(f'{t:.3f}' for t in record.walls)}, setup {' '.join(f'{t:.3f}' for t in probes)}",
              file=sys.stderr)
        if counted:
            passes.append(record)
            setups.extend(probes)

    timed_passes(seconds, one_pass)
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss[0] * 1024 / 1e6,
    }


def scipy_import_seconds(rundir, env):
    """Import time of the outermost scipy modules, from ``-X importtime`` of a fresh child."""
    spawn([sys.executable, "-X", "importtime", "-c", "import wavetank"], rundir, env)
    total, stack = 0, []
    rows = [ln.split("|") for ln in (rundir / "stderr.txt").read_text().splitlines()
            if ln.startswith("import time:")]
    for _, cumulative, name in reversed(rows[1:]):  # parents print after their children
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in stack):
            total += int(cumulative)
        stack.append((depth, name))
    return total * 1e-6


def traced(ops, rundir, seconds, tally):
    sys.path.insert(0, str(SRC))
    import wavetank
    import wavetank.cli

    import lib_child
    import spans

    tracer = spans.Tracer(wavetank, callers=[lib_child])
    env = child_env()
    layers, traced_passes, plain_passes, scipy_s = [], [], [], []

    def execute(op, record):
        t0 = time.perf_counter()
        try:
            code = (lib_child.main if op.lib else wavetank.cli.main)(list(op.args))
        except Exception:
            traceback.print_exc()
            code = 1
        record.walls.append(time.perf_counter() - t0)
        record.add_io(op)
        return code == 0

    def one_pass(counted):
        tracer.spans.clear()
        tracer.install()
        record = PassRecord()
        try:
            for op in ops:
                tally.run(op, lambda o: execute(o, record), counted)
        finally:
            tracer.uninstall()
        plain = PassRecord()
        for op in ops:
            tally.run(op, lambda o: execute(o, plain), counted)
        print(f"pass{'' if counted else ' (warm-up)'}: traced {record.wall:.3f} s, untraced {plain.wall:.3f} s",
              file=sys.stderr)
        if counted:
            layers.append(spans.layer_metrics(tracer.spans))
            traced_passes.append(record)
            plain_passes.append(plain)
            scipy_s.append(scipy_import_seconds(rundir, env))

    timed_passes(seconds, one_pass)
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    wall = statistics.median(p.wall for p in traced_passes)
    plain = statistics.median(p.wall for p in plain_passes)
    metrics.update({
        "setup.scipy_s": statistics.median(scipy_s),
        "io.written_mb": traced_passes[0].written / 1e6,
        "io.read_mb": traced_passes[0].read / 1e6,
        "trace.wall_s": wall,
        "trace.overhead_pct": 100.0 * (wall / plain - 1.0),
    })
    return metrics


def metric_units():
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so children are killed and the run directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "wavetank" / "__init__.py").is_file():
        print(f"error: no wavetank sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    import workloads

    units = metric_units()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        ops = workloads.WORKLOADS[args.workload](rundir, args.seed)
        tally = Tally()
        measure = traced if args.trace else untraced
        values = measure(ops, rundir, args.seconds, tally)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
