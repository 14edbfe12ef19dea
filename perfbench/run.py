"""Benchmark entry point: time one workload of ``phase-bifurcate`` end to end.

Run from the repository root:

    python3 perfbench/run.py --workload ac-slice --seed 0 --seconds 30 --trace 0

Each workload (see ``workloads.py``) is one CLI invocation, run in-process
through ``phase_bifurcate.cli.main``.  Every run's output is checked; a run
that fails the check counts as failed.

--trace 0  repeats the workload within --seconds (at least three runs),
           each run between two passes of a fixed reference computation
           (``reference.py``).  Reports wall_rel and cpu_rel, the medians of
           each run's wall and CPU time as a multiple of the mean of the two
           reference passes around it (this cancels the host's speed drift;
           the raw times go to stderr), the median set-up time of fresh
           interpreters started one after each run, at least five
           (setup_s), the process's peak_rss_mb and the answer's
           max_rel_gap against the closed forms.
--trace 1  runs the workload twice untraced (the first warms up) and once
           with every layer's entry points wrapped (``tracer.py``), then
           sweeps the LU kernels over matrix sizes (``sweep.py``); reports
           per-layer metrics.

The environment is printed to stderr.  BLAS threads are pinned to 1 and
PHASE_BIFURCATE_THREADS is unset, the same way for every commit measured.
The last line of stdout is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import types
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "phase_bifurcate"

MIN_RUNS = 3
MIN_SETUP_PROBES = 5
# Start no run that would end after this many seconds of repeating, even
# below MIN_RUNS, so a much slower program still finishes in time.
RUN_TIME_CAP_S = 120.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("linalg", "models", "continuation", "analysis", "cli")


@dataclass
class Run:
    wall: float
    cpu: float
    problems: list
    gap: float
    # The reference computation (``reference.py``), timed just before and
    # just after the run: the mean of the two passes.
    ref_wall: float = math.nan
    ref_cpu: float = math.nan


def pin_threads() -> dict:
    """Pin BLAS to one thread and unset PHASE_BIFURCATE_THREADS; return the prior values."""
    prior = {v: os.environ.get(v) for v in (*BLAS_THREAD_VARS, "PHASE_BIFURCATE_THREADS")}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PHASE_BIFURCATE_THREADS", None)
    return prior


def load_program() -> types.SimpleNamespace:
    sys.path.insert(0, str(SRC))
    from phase_bifurcate import analysis, cli, continuation, linalg, models

    return types.SimpleNamespace(analysis=analysis, cli=cli, continuation=continuation,
                                 linalg=linalg, models=models)


def environment(prior: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PHASE_BIFURCATE_THREADS": os.environ.get("PHASE_BIFURCATE_THREADS"),
        "caller_env": prior,
    }


def invoke(prog, argv: list, root=None) -> tuple[int, str, object, float, float]:
    """One in-process CLI call: (exit code, stdout, computed diagram or None, wall s, CPU s)."""
    cli = prog.cli
    original = getattr(cli, "compute_diagram", None)
    diagrams = []

    def capture(*args, **kwargs):
        diagram = original(*args, **kwargs)
        diagrams.append(diagram)
        return diagram

    out = io.StringIO()
    if original is not None:
        cli.compute_diagram = capture
    gc.collect()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                (root or contextlib.nullcontext()):
            t0, c0 = perf_counter(), process_time()
            rc = cli.main(argv)
            wall, cpu = perf_counter() - t0, process_time() - c0
    finally:
        if original is not None:
            cli.compute_diagram = original
    return rc, out.getvalue(), diagrams[-1] if diagrams else None, wall, cpu


def run_once(prog, workload, argv: list, schema: dict, root=None) -> Run:
    """One timed CLI run followed by the (untimed) output check."""
    from workloads import check_output

    rc, text, diagram, wall, cpu = invoke(prog, argv, root)
    problems, gap = check_output(prog, workload, schema, rc, text, diagram)
    return Run(wall, cpu, problems, gap)


def attempt(prog, workload, argv, schema, root=None) -> Run:
    """``run_once``, turning an unexpected exception into a failed run."""
    try:
        return run_once(prog, workload, argv, schema, root)
    except Exception:  # a crash in the program is a failed operation, not a benchmark error
        return Run(float("nan"), float("nan"), [traceback.format_exc()], float("nan"))


def prepare(prog, argv: list) -> None:
    """In-process set-up, so timed runs find the model caches filled and jsonschema imported."""
    import jsonschema  # noqa: F401

    prog.cli.resolve(prog.cli.build_parser().parse_args(argv))


def setup_seconds(workload, argv: list) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload.schema_file, *argv],
                          capture_output=True, text=True, timeout=120, cwd=ROOT, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def src_lines() -> dict:
    def count(path: Path) -> int:
        return len(path.read_text().splitlines())

    out = {f"{layer}.src_lines": (count(PACKAGE_DIR / f"{layer}.py"), "lines")
           for layer in LAYERS if (PACKAGE_DIR / f"{layer}.py").is_file()}
    out["package.src_lines"] = (sum(count(p) for p in PACKAGE_DIR.rglob("*.py")), "lines")
    return out


def timed(prog, workload, argv, schema, seconds: float) -> tuple[list, dict]:
    from reference import reference_times

    prepare(prog, argv)
    reference_times()  # warm-up
    # One set-up probe after each run, so that they sample the same stretch
    # of the host's speed as the runs; topped up to MIN_SETUP_PROBES at the end.
    setups: list[float] = []
    runs: list[Run] = []
    start = last = perf_counter()
    before = reference_times()
    while True:
        # Start no run that the previous one's duration says would end after
        # the deadline, so each measurement spans at most --seconds.
        now = perf_counter()
        end = now - start + (now - last)
        if runs and ((len(runs) >= MIN_RUNS and end > seconds) or end > RUN_TIME_CAP_S):
            break
        last = now
        r = attempt(prog, workload, argv, schema)
        after = reference_times()
        r.ref_wall, r.ref_cpu = ((a + b) / 2 for a, b in zip(before, after))
        runs.append(r)
        setups.append(setup_seconds(workload, argv))
        before = after
    setups += [setup_seconds(workload, argv) for _ in range(MIN_SETUP_PROBES - len(setups))]
    ok = [r for r in runs if not r.problems]
    finished = [r for r in runs if math.isfinite(r.wall)] or runs
    metrics = {
        "wall_rel": (statistics.median(r.wall / r.ref_wall for r in finished), "ref"),
        "cpu_rel": (statistics.median(r.cpu / r.ref_cpu for r in finished), "ref"),
        "setup_s": (statistics.median(setups), "s"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if ok:
        metrics["max_rel_gap"] = (statistics.median(r.gap for r in ok), "ratio")
    print(f"{workload.name}: {len(runs)} runs, wall s "
          + " ".join(f"{r.wall:.4f}" for r in runs)
          + "; reference wall s " + " ".join(f"{r.ref_wall:.4f}" for r in runs)
          + "; setup_s " + " ".join(f"{s:.4f}" for s in setups), file=sys.stderr)
    print(f"median wall {statistics.median(r.wall for r in finished):.4f} s, "
          f"cpu {statistics.median(r.cpu for r in finished):.4f} s, "
          f"reference wall {statistics.median(r.ref_wall for r in runs):.4f} s", file=sys.stderr)
    return runs, metrics


def traced(prog, workload, argv, schema) -> tuple[list, dict]:
    from sweep import kernel_sweep
    from tracer import Tracer, layer_metrics

    prepare(prog, argv)
    # The first run in a process is slower (about 10 % on ch-scan-n800), so
    # the untraced run compared with the traced one is the second.
    warmup = attempt(prog, workload, argv, schema)
    plain = attempt(prog, workload, argv, schema)
    tracer = Tracer()
    with tracer.install():
        # Rebuild the Green operator under the tracer so its cost is recorded.
        clear = getattr(getattr(prog.models, "green_operator", None), "cache_clear", None)
        if clear is not None:
            clear()
        with tracer.span("setup"):
            prepare(prog, argv)
        traced_run = attempt(prog, workload, argv, schema, root=tracer.span("run"))
    tracer.finish()
    metrics, absent = layer_metrics(tracer)
    if absent:
        print(f"absent per-layer metrics (their hooks are gone): {', '.join(absent)}", file=sys.stderr)
    metrics.update(src_lines())
    metrics["trace.overhead_s"] = (traced_run.wall - plain.wall, "s")
    metrics.update(kernel_sweep(prog.linalg, prog.models))
    return [warmup, plain, traced_run], metrics


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no phase_bifurcate sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    prior = pin_threads()  # before anything imports numpy
    args = parse_args(argv)
    prog = load_program()
    from workloads import WORKLOADS, check_window, load_schema

    workload = WORKLOADS[args.workload]
    check_window(prog.analysis, workload, args.seed)
    cli_argv = workload.argv(args.seed)
    schema = load_schema(SRC, workload)
    print("env: " + json.dumps(environment(prior)), file=sys.stderr)
    print("argv: phase-bifurcate " + " ".join(cli_argv), file=sys.stderr)

    if args.trace:
        runs, metrics = traced(prog, workload, cli_argv, schema)
    else:
        runs, metrics = timed(prog, workload, cli_argv, schema, args.seconds)

    failed = [r for r in runs if r.problems]
    for r in failed:
        print("failed run: " + "; ".join(r.problems), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                    if math.isfinite(value)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
