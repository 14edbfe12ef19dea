"""The benchmark workloads: seeded CLI arguments, expected results, output checks.

Each workload is one ``phase-bifurcate`` invocation.  Seed 0 is the reference
configuration; any other seed raises the lower end of the parameter window by
a seeded fraction of half a scan step.  The shift never moves a closed-form
crossing across the window edge and never changes the slice value, so the
expected counts below hold for every seed.

The configurations are scaled down from the full-size gate workloads (N=200,
the whole default windows) so that several repetitions fit into one timed run;
each keeps the property it was chosen for (see ``why``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCHEMA_FILES = {
    "points": "points.schema.json",
    "trace": "diagram.schema.json",
    "solutions": "solutions.schema.json",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    model: str
    # Every CLI argument except the command, the model and the range flag.
    args: tuple[str, ...]
    range_flag: str
    lo: float
    hi: float
    # The detection scan step (``--step`` or the model default); the seeded
    # shift of ``lo`` is below half of it.
    scan_step: float
    expect: dict

    @property
    def schema_file(self) -> str:
        return SCHEMA_FILES[self.command]

    def window(self, seed: int) -> tuple[float, float]:
        if seed == 0:
            return self.lo, self.hi
        frac = random.Random(f"{self.name}:{seed}").random()
        return self.lo + frac * 0.5 * self.scan_step, self.hi

    def argv(self, seed: int) -> list[str]:
        lo, hi = self.window(seed)
        return [self.command, "--model", self.model, *self.args,
                self.range_flag, f"{lo!r}:{hi!r}", "--format", "json"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ac-slice",
            why="AC steady states at one eps: tridiagonal Jacobian; tracing, switching and the slice "
                "dominate, so a tridiagonal kernel or tracer change shows most here",
            command="solutions", model="ac",
            args=("--epsilon", "0.1", "--n-cells", "100", "--step", "0.005"),
            range_flag="--eps-range", lo=0.095, hi=0.4, scan_step=0.005,
            expect={"bifurcations": 5, "states": 10},
        ),
        Workload(
            name="acok-slice",
            why="ACOK steady states at one gamma: the nonlocal Green operator makes the Jacobian dense, "
                "so tridiagonal-only changes are bypassed",
            command="solutions", model="acok",
            args=("--gamma", "100", "--epsilon", "0.3", "--n-cells", "100"),
            range_flag="--gamma-range", lo=0.0, hi=700.0, scan_step=10.0,
            expect={"bifurcations": 3, "states": 4},
        ),
        Workload(
            name="ch-scan-n800",
            why="CH detection only at N=800: sign-only factorizations of matrices larger than L2, "
                "no tracing, switching or slice",
            command="points", model="ch",
            args=("--mu0", "0.05", "--n-cells", "800", "--step", "0.05"),
            range_flag="--eps-range", lo=0.25, hi=0.7, scan_step=0.05,
            expect={"bifurcations": 2},
        ),
        Workload(
            name="ac-arclength",
            why="AC pseudo-arclength diagram: bordered N+1 systems and the only full trace JSON, "
                "so tracer merges and border-blind kernels show here",
            command="trace", model="ac",
            args=("--arclength", "--n-cells", "100", "--step", "0.01"),
            range_flag="--eps-range", lo=0.25, hi=0.7, scan_step=0.01,
            expect={"branches": 7, "bifurcations": 2, "stop_reason": "param_bound"},
        ),
    )
}


def closed_forms(analysis, workload: Workload, lo: float, hi: float) -> dict:
    """Closed-form crossings in [lo, hi], keyed by (family, index)."""
    if workload.model == "acok":
        eps = float(workload.args[workload.args.index("--epsilon") + 1])
        found = analysis.acok_bifurcations_in_range(eps, lo, hi)
    elif workload.model == "ch":
        # The mean offset shifts each crossing by O(mu0^2) from the AC value:
        # enumerate from a padded AC window, solve exactly, filter.
        mu0 = float(workload.args[workload.args.index("--mu0") + 1])
        found = [analysis.ch_bifurcation(b.mode_index, b.mode_family, mu0)
                 for b in analysis.ac_bifurcations_in_range(0.8 * lo, 1.25 * hi)]
        found = [b for b in found if lo <= b.param_value <= hi]
    else:
        found = analysis.ac_bifurcations_in_range(lo, hi)
    return {(b.mode_family, b.mode_index): b.param_value for b in found}


def check_window(analysis, workload: Workload, seed: int) -> None:
    """Raise ValueError if the seeded window drops or gains a closed-form crossing."""
    reference = closed_forms(analysis, workload, workload.lo, workload.hi)
    shifted = closed_forms(analysis, workload, *workload.window(seed))
    if reference.keys() != shifted.keys():
        raise ValueError(f"{workload.name}: seed {seed} moves a crossing out of the window")


def load_schema(src: Path, workload: Workload) -> dict:
    return json.loads((src / "phase_bifurcate" / "schemas" / workload.schema_file).read_text())


def _gap(analysis, workload: Workload, config: dict, detected: list) -> tuple[float, list[str]]:
    """Worst relative gap of detected (family, index, value) against the closed forms."""
    analytic = closed_forms(analysis, workload, config["param_min"], config["param_max"])
    problems = []
    keys = [(fam, n) for fam, n, _ in detected]
    if sorted(keys, key=str) != sorted(analytic, key=str):
        problems.append(f"detected modes {sorted(keys, key=str)} != closed forms {sorted(analytic, key=str)}")
        return float("nan"), problems
    gap = max(abs(v - analytic[(fam, n)]) / abs(analytic[(fam, n)]) for fam, n, v in detected)
    return gap, problems


def check_output(pkg, workload: Workload, schema: dict, rc: int, text: str, diagram) -> tuple[list[str], float]:
    """Check one run's output; return (problems, max_rel_gap).

    ``pkg`` bundles the program modules (``analysis``, ``models``);
    ``diagram`` is the ``Diagram`` the run computed (solutions runs only).
    """
    import jsonschema

    if rc != 0:
        return [f"exit code {rc}"], float("nan")
    try:
        payload = json.loads(text)
        jsonschema.validate(payload, schema)
    except (json.JSONDecodeError, jsonschema.ValidationError) as exc:
        return [f"invalid JSON output: {exc}"], float("nan")

    config = payload["config"]
    expect = workload.expect
    problems = []
    if workload.command == "points":
        detected = [(r["family"], r["n"], r["detected_value"]) for r in payload["rows"]]
        if any(v is None for *_, v in detected):
            problems.append("a closed-form crossing was not detected")
            return problems, float("nan")
    elif workload.command == "trace":
        summary = payload["summary"]
        if summary["branch_count"] != expect["branches"]:
            problems.append(f"{summary['branch_count']} branches, expected {expect['branches']}")
        if summary["stop_reasons"] != {expect["stop_reason"]: expect["branches"]}:
            problems.append(f"stop reasons {summary['stop_reasons']}")
        detected = [(b["family"], b["n"], b["param"]) for b in payload["bifurcations"]]
    else:
        problems += _check_states(pkg.models, config, payload, expect["states"])
        if diagram is None:
            problems.append("the computed diagram was not captured")
            return problems, float("nan")
        detected = [(b.mode_family, b.mode_index, b.param) for b in diagram.bifurcations]

    if len(detected) != expect["bifurcations"]:
        problems.append(f"{len(detected)} bifurcations, expected {expect['bifurcations']}")
    gap, gap_problems = _gap(pkg.analysis, workload, config, detected)
    return problems + gap_problems, gap


def _check_states(models, config: dict, payload: dict, expected: int) -> list[str]:
    """Every state solves the model to newton_tol and no two states coincide."""
    sols = payload["solutions"]
    problems = []
    if payload["count"] != expected or len(sols) != expected:
        problems.append(f"{len(sols)} states, expected {expected}")
    model = models.model_by_kind(config["model"], models.GridSpec(config["n_cells"]))
    base = models.ModelParams(epsilon=config["epsilon"], mu0=config["mu0"], gamma=config["gamma"])
    params = model.with_param(base, payload["at_param"])
    states = [np.array(s["state"]) for s in sols]
    for s, x in zip(sols, states):
        res = float(np.max(np.abs(model.residual(x, params))))
        if not res <= config["newton_tol"]:
            problems.append(f"state on {s['branch_id']} has residual {res:.3e}")
    for i in range(len(states)):
        for j in range(i):
            if float(np.max(np.abs(states[i] - states[j]))) <= config["dedupe_tol"]:
                problems.append(f"states {sols[j]['branch_id']} and {sols[i]['branch_id']} coincide")
    return problems
