"""Tests of the benchmark itself: hooks, metric names, determinism, seeds, checks.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import sweep  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, Workload, check_output, check_window, load_schema  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
COUNT_UNITS = {"count", "flop", "B"}

# Small enough to run in about a second; same code paths as ac-slice.
TINY = Workload(
    name="tiny", why="test", command="solutions", model="ac",
    args=("--epsilon", "0.3", "--n-cells", "32"),
    range_flag="--eps-range", lo=0.25, hi=0.7, scan_step=0.002,
    expect={"bifurcations": 2, "states": 4},
)


@pytest.fixture(scope="module")
def prog():
    return run.load_program()


def _bindings(prog) -> dict:
    """Every attribute of the package modules and of the model classes."""
    owners = [m for name, m in sys.modules.items() if name.startswith(tr.PACKAGE)]
    owners += [c for c in vars(prog.models).values() if isinstance(c, type)]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _traced(prog, workload=TINY, hooks=None):
    argv = workload.argv(0)
    schema = load_schema(run.SRC, workload)
    t = tr.Tracer()
    with t.install(hooks):
        result = run.run_once(prog, workload, argv, schema, root=t.span("run"))
    t.finish()
    return t, result


def test_wrappers_only_inside_block_and_fully_restored(prog):
    before = _bindings(prog)
    original = prog.linalg.lu_factor
    t = tr.Tracer()
    with t.install():
        assert prog.linalg.lu_factor is not original
        # Rebound in every module that imported the name, with one wrapper.
        assert prog.continuation.lu_factor is prog.linalg.lu_factor
        assert prog.models.lu_factor is prog.linalg.lu_factor
        assert prog.models.AllenCahn.__dict__["jacobian"].__wrapped__ is before[
            (id(prog.models.AllenCahn), "jacobian")]
        prog.continuation.lu_factor([[2.0, 1.0], [1.0, 3.0]])  # outside a span: not recorded
        with t.span("probe"):
            prog.continuation.lu_factor([[2.0, 1.0], [1.0, 3.0]])
    assert t.absent == set()
    assert [(s.name, s.parent) for s in t.spans] == [("probe", -1), ("linalg.lu_factor", 0)]
    after = _bindings(prog)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    # An untraced run records nothing.
    run.run_once(prog, TINY, TINY.argv(0), load_schema(run.SRC, TINY))
    assert len(t.spans) == 2


def test_missing_hook_target_is_reported_absent(prog, monkeypatch):
    monkeypatch.delattr(prog.linalg, "det_sign")
    hooks = tr.HOOKS + tr.analysis_hooks() + (tr.Hook("linalg", "no_such_kernel", "linalg.no_such_kernel"),)
    t, result = _traced(prog, hooks=hooks)
    assert result.problems == []
    assert {"linalg.det_sign", "linalg.no_such_kernel"} <= t.absent
    metrics, absent = tr.layer_metrics(t)
    assert {"linalg.det_sign.calls", "continuation.detect.probes"} <= set(absent)
    assert "linalg.det_sign.calls" not in metrics
    assert metrics["linalg.lu_factor.calls"][0] > 0


def test_metric_names_are_well_formed_and_declared(prog):
    t, _ = _traced(prog)
    metrics, absent = tr.layer_metrics(t)
    assert absent == []
    produced = set(metrics) | set(run.src_lines()) | {"trace.overhead_s"}
    produced |= {sweep.metric_name(k, w, n) for n in sweep.SIZES for k in ("ac", "acok")
                 for w in ("factor_ms", "solve_ms")}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    assert produced == declared
    names = declared | {m["name"] for m in bench["end_to_end"]}
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]


def test_kernel_sweep_names(prog):
    out = sweep.kernel_sweep(prog.linalg, prog.models, sizes=(8,))
    assert set(out) == {sweep.metric_name(k, w, 8) for k in ("ac", "acok") for w in ("factor_ms", "solve_ms")}
    assert all(v > 0 and u == "ms" for v, u in out.values())


def test_two_traced_runs_give_identical_counts(prog):
    def counts():
        t, result = _traced(prog)
        assert result.problems == []
        metrics, _ = tr.layer_metrics(t)
        return {k: v for k, (v, unit) in metrics.items() if unit in COUNT_UNITS}

    first = counts()
    assert first["linalg.lu_factor.calls"] > 0 and first["continuation.trace.points"] > 0
    assert counts() == first


def test_seeded_windows(prog):
    for w in WORKLOADS.values():
        assert w.window(0) == (w.lo, w.hi)
        assert w.argv(7) == w.argv(7)
        for seed in range(1, 40):
            lo, hi = w.window(seed)
            assert w.lo <= lo < w.lo + 0.5 * w.scan_step and hi == w.hi
            check_window(prog.analysis, w, seed)
            # Only the window changes; the slice value and the rest stay.
            assert [a for a in w.argv(seed) if ":" not in a] == [a for a in w.argv(0) if ":" not in a]


def test_benchmark_json_names_every_workload():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}


def test_timed_run_reports_every_end_to_end_metric(prog):
    runs, metrics = run.timed(prog, TINY, TINY.argv(0), load_schema(run.SRC, TINY), seconds=0.0)
    assert len(runs) == run.MIN_RUNS and not any(r.problems for r in runs)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {name: unit for name, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


def test_output_check_rejects_wrong_output(prog):
    schema = load_schema(run.SRC, TINY)
    rc, text, diagram, _, _ = run.invoke(prog, TINY.argv(0))
    problems, gap = check_output(prog, TINY, schema, rc, text, diagram)
    assert rc == 0 and problems == [] and 0.0 < gap < 0.05

    payload = json.loads(text)
    dup = dict(payload, solutions=payload["solutions"] + payload["solutions"][:1], count=payload["count"] + 1)
    assert any("coincide" in p for p in check_output(prog, TINY, schema, 0, json.dumps(dup), diagram)[0])
    bad = json.loads(text)
    bad["solutions"][0]["state"][3] += 1e-3
    assert any("residual" in p for p in check_output(prog, TINY, schema, 0, json.dumps(bad), diagram)[0])
    assert check_output(prog, TINY, schema, 2, text, diagram)[0] == ["exit code 2"]
    assert check_output(prog, TINY, schema, 0, "{}", diagram)[0][0].startswith("invalid JSON")


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ac-slice", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
