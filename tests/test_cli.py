"""End-to-end tests of the command-line interface: argument validation and
exit codes, CSV/JSON payload shapes, schema conformance, byte-identity of
equivalent runs (also across BLAS thread counts), and the self-check
subcommand's fault detection."""

import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import phase_bifurcate
from phase_bifurcate import cli
from phase_bifurcate.continuation import NewtonFailure


def run_cli(args):
    return cli.main(list(args))


def load_schema(name):
    with resources.files("phase_bifurcate.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# usage errors (exit code 1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["orbit"],  # unknown subcommand
        ["trace", "--model", "kdv"],
        ["trace", "--n", "15"],  # odd cell count
        ["trace", "--n", "4098"],  # above the hard cap
        ["trace", "--n", "2"],  # too small
        ["solutions", "--model", "ac"],  # missing slice value
        ["solutions", "--model", "acok"],  # missing slice value
        ["solutions", "--model", "ac", "--epsilon", "0.9"],  # outside window
        ["solutions", "--model", "acok", "--gamma", "-5"],  # outside window
        ["trace", "--model", "acok", "--eps-range", "0.1:0.5"],  # wrong axis
        ["trace", "--model", "ac", "--gamma-range", "0:100"],  # wrong axis
        ["trace", "--eps-range", "0.5"],  # malformed range
        ["trace", "--eps-range", "0.7:0.3"],  # empty window
        ["points", "--model", "ac", "--format", "yaml"],
        ["points", "--model", "ac", "--phi0", "nan"],  # would match no branch
        ["points", "--model", "ac", "--phi0", "inf"],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert run_cli(argv) == 1
    capsys.readouterr()  # swallow the argparse noise


@pytest.mark.parametrize(
    "extra, field",
    [
        (["--newton-tol", "nan"], "newton_tol"),
        (["--newton-tol", "inf"], "newton_tol"),
        (["--dedupe-tol", "nan"], "dedupe_tol"),
        (["--seed-amplitude", "nan"], "seed_amplitude"),
        (["--eps-range", "0.095:inf"], "param_max"),
    ],
    ids=["newton-tol-nan", "newton-tol-inf", "dedupe-tol-nan", "seed-amplitude-nan", "eps-range-inf"],
)
def test_non_finite_continuation_settings_exit_1(extra, field, capsys):
    # Each of these once ran on: NaN or inf tolerances made Newton "converge"
    # at once or dedupe keep nothing, and an infinite window failed mid-run.
    argv = ["solutions", "--model", "ac", "--epsilon", "0.1", "--n-cells", "40", "--eps-range", "0.095:0.4"]
    assert run_cli(argv + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


# ---------------------------------------------------------------------------
# numerical and I/O failures (exit code 2)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["points", "--model", "ch", "--mu0", "1.0", "--eps-range", "0.3:0.7", "--n", "40"],
        # solutions fails at the window's top, where each constant branch
        # is set up and corrected before any scan.
        ["solutions", "--model", "ch", "--mu0", "1.0", "--epsilon", "0.35", "--eps-range", "0.3:0.7",
         "--n-cells", "40"],
    ],
    ids=["points", "solutions"],
)
def test_ch_leaving_three_root_window_exits_2(argv, capsys):
    # mu0=1.0 has three constant roots only for small eps: the run leaves
    # the window inside [0.3, 0.7].
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "three-real-root window" in err


def test_newton_collapse_exits_2(monkeypatch, capsys):
    # No known input makes the engine's Newton corrector escape as an
    # exception, so the failure is forced at the diagram call.
    def collapse(*args, **kwargs):
        raise NewtonFailure("no_convergence", 14, 1.0)

    monkeypatch.setattr(cli, "compute_diagram", collapse)
    argv = ["solutions", "--model", "ac", "--epsilon", "0.1", "--n-cells", "40", "--eps-range", "0.095:0.4"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numerical failure: Newton corrector failed (no_convergence)")


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x.csv"
    assert run_cli(["points", "--model", "ac", "--n", "40", "--eps-range", "0.3:0.7", "--out", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("I/O failure:")
    assert not missing.parent.exists()


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def test_points_csv_matches_analytic(tmp_path, capsys):
    out = tmp_path / "points.csv"
    code = run_cli(
        ["points", "--model", "ac", "--n", "100", "--eps-range", "0.3:0.7", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "family,n,analytic_value,detected_value,relative_gap"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [("cosine", "1"), ("sine", "0")]
    for r in rows:
        analytic = float(r[2])
        detected = float(r[3])
        gap = float(r[4])
        assert gap == pytest.approx(abs(detected - analytic) / analytic, rel=1e-12)
        assert gap <= 1e-3
        # 17-significant-digit formatting round-trips exactly
        assert format(detected, ".17g") == r[3]
    capsys.readouterr()


def test_points_on_non_bifurcating_branch_is_empty(tmp_path, capsys):
    out = tmp_path / "points.csv"
    code = run_cli(
        ["points", "--model", "ac", "--n", "80", "--eps-range", "0.3:0.7",
         "--phi0", "1.0", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().strip().splitlines() == ["family,n,analytic_value,detected_value,relative_gap"]
    assert "no bifurcations on this branch" in capsys.readouterr().err


def test_points_json_validates_against_schema(tmp_path, capsys):
    out = tmp_path / "points.json"
    code = run_cli(
        ["points", "--model", "ac", "--n", "80", "--eps-range", "0.3:0.7",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, load_schema("points.schema.json"))
    assert payload["config"]["model"] == "ac"
    assert payload["config"]["n_cells"] == 80
    assert payload["config"]["param_min"] == 0.3
    assert len(payload["rows"]) == 2
    capsys.readouterr()


def test_schema_fixture_rejects_a_payload_that_breaks_its_schema(monkeypatch, capsys):
    # conftest validates every payload the CLI emits; an extra config key
    # must fail the run before anything is written.
    to_dict = cli.RunConfig.to_dict
    monkeypatch.setattr(cli.RunConfig, "to_dict", lambda self: {**to_dict(self), "extra": 1})
    with pytest.raises(jsonschema.ValidationError, match="extra"):
        run_cli(["points", "--model", "ac", "--n", "20", "--eps-range", "0.3:0.7", "--format", "json"])
    assert capsys.readouterr().out == ""


def test_cli_never_imports_jsonschema():
    """The program only writes JSON; the schemas are checked by the tests and the benchmark."""
    commands = [
        ["points", "--eps-range", "0.3:0.7"],
        ["trace", "--eps-range", "0.3:0.7"],
        ["solutions", "--epsilon", "0.5", "--eps-range", "0.3:0.7"],
        ["verify"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from phase_bifurcate import cli\n"
        f"for argv in {commands!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.main([*argv, '--model', 'ac', '--n-cells', '40', '--format', 'json']) == 0, argv\n"
        "    json.loads(out.getvalue())\n"
        "print('jsonschema' in sys.modules)\n"
    )
    src = str(Path(phase_bifurcate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_csv_shape_and_summary_line(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run_cli(
        ["trace", "--model", "ac", "--n", "80", "--eps-range", "0.3:0.7", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "branch_id,param,phi_at_minus1,sup_norm,det_sign"
    ids = set()
    for ln in lines[1:]:
        bid, param, phi0, sup, det = ln.split(",")
        ids.add(bid)
        assert 0.3 <= float(param) <= 0.7
        assert int(det) in (-1, 0, 1)
        assert float(sup) >= abs(float(phi0)) - 1e-15
    assert {"trivial:phi=-1", "trivial:phi=0", "trivial:phi=+1", "bp0+", "bp0-", "bp1+", "bp1-"} == ids
    err = capsys.readouterr().err
    assert "branches=7 bifurcations=2" in err
    assert "stop[param_bound]=" in err


def test_trace_ch_mu0_zero_byte_identical_to_ac(tmp_path, capsys):
    a = tmp_path / "ac.csv"
    b = tmp_path / "ch.csv"
    args = ["--n", "80", "--eps-range", "0.3:0.7"]
    assert run_cli(["trace", "--model", "ac", *args, "--out", str(a)]) == 0
    assert run_cli(["trace", "--model", "ch", "--mu0", "0.0", *args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_ac_solutions_ignore_mu0(tmp_path, capsys):
    # mu0 is the Cahn-Hilliard offset; Allen-Cahn has none, whatever --mu0 says.
    args = ["solutions", "--model", "ac", "--epsilon", "0.3", "--n-cells", "60", "--eps-range", "0.25:0.7"]
    outs = [tmp_path / "mu0.csv", tmp_path / "mu03.csv"]
    assert run_cli([*args, "--mu0", "0", "--out", str(outs[0])]) == 0
    assert run_cli([*args, "--mu0", "0.3", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    capsys.readouterr()


def test_trace_json_validates_against_schema(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = run_cli(
        ["trace", "--model", "ac", "--n", "80", "--eps-range", "0.5:0.7",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, load_schema("diagram.schema.json"))
    assert payload["summary"]["branch_count"] == len(payload["branches"])
    assert payload["summary"]["bifurcation_count"] == len(payload["bifurcations"])
    assert payload["bifurcations"][0]["family"] == "sine"
    assert payload["bifurcations"][0]["n"] == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


def test_solutions_csv_and_count(tmp_path, capsys):
    out = tmp_path / "sols.csv"
    code = run_cli(
        ["solutions", "--model", "ac", "--n", "80", "--eps-range", "0.5:0.7",
         "--epsilon", "0.55", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    head = lines[0].split(",")
    assert head[:4] == ["branch_id", "origin", "param", "residual_norm"]
    assert head[4:] == [f"phi_{i}" for i in range(81)]
    assert len(lines) == 3  # header + the +/- pair
    for ln in lines[1:]:
        cells = ln.split(",")
        assert len(cells) == 4 + 81
        assert float(cells[2]) == pytest.approx(0.55, abs=1e-12)
        assert float(cells[3]) <= 1e-9
    assert "count=2" in capsys.readouterr().err


def test_solutions_json_validates_against_schema(tmp_path, capsys):
    out = tmp_path / "sols.json"
    code = run_cli(
        ["solutions", "--model", "ac", "--n", "80", "--eps-range", "0.5:0.7",
         "--epsilon", "0.55", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, load_schema("solutions.schema.json"))
    assert payload["count"] == 2
    assert payload["at_param"] == 0.55
    states = [payload["solutions"][0]["state"], payload["solutions"][1]["state"]]
    gap = max(abs(u + v) for u, v in zip(*states))
    assert gap <= 1e-8  # negation-symmetric pair
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _assert_verify_passes(model_args, tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = run_cli(["verify", *model_args, "--n", "100", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, load_schema("verify.schema.json"))
    assert payload["pass"] is True
    assert len(payload["checks"]) == 8
    assert all(c["pass"] for c in payload["checks"])
    assert "verify: pass (8/8 checks)" in capsys.readouterr().err
    return {c["name"]: c for c in payload["checks"]}


def test_verify_clean_build_passes(tmp_path, capsys):
    _assert_verify_passes(["--model", "ac"], tmp_path, capsys)


def test_verify_clean_build_passes_for_ch_with_offset(tmp_path, capsys):
    """CH off mu0 = 0: the middle root's crossings and their null modes."""
    checks = _assert_verify_passes(["--model", "ch", "--mu0", "0.05"], tmp_path, capsys)
    assert checks["null_mode_correlation_min"]["measured"] >= 0.99


def test_verify_flags_broken_boundary_closure(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = run_cli(
        ["verify", "--model", "ac", "--n", "100", "--ghost-closure", "onesided-right",
         "--out", str(out)]
    )
    assert code == 3
    payload = json.loads(out.read_text())
    checks = {c["name"]: c for c in payload["checks"]}
    assert payload["pass"] is False
    # the broken closure is consistently differentiated, so the Jacobian
    # check cannot see it; the physics-level check does
    assert checks["jacobian_vs_fd_rel"]["pass"] is True
    assert checks["bifurcation_gap_abs_max"]["pass"] is False
    assert checks["bifurcation_gap_abs_max"]["measured"] > 1e-3
    capsys.readouterr()


def test_verify_acok_variant_checks(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = run_cli(["verify", "--model", "acok", "--n", "80", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    names = [c["name"] for c in payload["checks"]]
    assert "half_symmetry_residual" in names
    assert "acok_sine0_spot_abs_gap" in names
    capsys.readouterr()


# ---------------------------------------------------------------------------
# BLAS thread count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["solutions", "--model", "ac", "--epsilon", "0.15", "--n-cells", "60", "--eps-range", "0.14:0.7"],
        # The residual applies the dense 61x61 Green operator through BLAS.
        # Every ACOK factorization, the null mode at each detected event
        # included, is the pure-Python band-plus-border one.
        ["solutions", "--model", "acok", "--gamma", "100", "--epsilon", "0.3", "--n-cells", "60",
         "--gamma-range", "0:700"],
        # Pseudo-arclength on ACOK: the augmented Jacobian's border plus the
        # arclength border, two borders in one factorization.
        ["trace", "--model", "acok", "--arclength", "--n-cells", "60", "--gamma-range", "0:700"],
    ],
    ids=["ac", "acok", "acok-arclength"],
)
def test_output_is_byte_identical_for_one_and_two_blas_threads(argv):
    src = str(Path(phase_bifurcate.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, phase_bifurcate.cli as c; sys.exit(c.main(sys.argv[1:]))",
             *argv, "--format", "json"],
            capture_output=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((proc.stdout, proc.stderr))
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0][0])
    # Run in a subprocess, these payloads bypass conftest's schema check.
    jsonschema.validate(payload, load_schema("diagram.schema.json" if argv[0] == "trace"
                                             else "solutions.schema.json"))
    if argv[0] == "trace":
        assert len(payload["bifurcations"]) > 0 and len(payload["branches"]) > 3
    else:
        assert payload["count"] > 0


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def test_installed_console_script_runs():
    exe = shutil.which("phase-bifurcate")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "points", "--model", "ac", "--n", "80", "--eps-range", "0.3:0.7"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "family,n,analytic_value,detected_value,relative_gap"


def test_module_invocation_reports_version_of_parser():
    # `python -m` style use goes through the same main()
    proc = subprocess.run(
        [sys.executable, "-c", "import phase_bifurcate.cli as c; raise SystemExit(c.main(['points', '--help']))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "--eps-range" in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
