"""Command-line front end: diagrams, bifurcation tables, solution slices, checks.

Subcommands
-----------
points     analytic vs detected bifurcation parameter values on a trivial branch
trace      compute a full diagram and write one record per accepted branch point
solutions  enumerate the distinct nontrivial steady states at one parameter value
verify     run the invariant suite and emit a machine-readable pass/fail report

Exit codes: 0 success, 1 usage error, 2 numerical or I/O failure (an
unwritable --out), 3 verification failure.  Data goes to --out or stdout;
human-oriented summaries go to stderr so CSV/JSON streams stay clean.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import analysis
from .continuation import (
    ContinuationError,
    ContinuationSettings,
    Diagram,
    compute_diagram,
    default_settings,
    detect_bifurcations_on_trivial,
    solutions_at,
)
from .linalg import SingularMatrixError
from .models import GhostClosure, GridSpec, ModelParams, model_by_kind

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

MAX_N_CELLS = 4096

_NUMERICAL_ERRORS = (ContinuationError, SingularMatrixError, FloatingPointError)


class UsageError(Exception):
    """Bad flags/arguments; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; route through UsageError so the
    # documented contract (usage -> 1) holds.
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation, embedded into every JSON payload."""

    command: str
    model: str
    n_cells: int
    ghost_closure: str
    epsilon: float
    mu0: float
    gamma: float
    settings: ContinuationSettings
    at_param: Optional[float]
    format: str
    out: Optional[str]

    def to_dict(self) -> dict:
        """Flat JSON ``config`` block: the settings' fields stand in for ``settings``."""
        out = {}
        for name, value in asdict(self).items():
            if name == "settings":
                out.update(value)
            else:
                out[name] = value
        return out


def _fmt(v: float) -> str:
    # 17 significant digits: exact float round-trip in decimal.
    return format(float(v), ".17g")


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"{flag} expects 'a:b', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"{flag} expects numeric endpoints, got {text!r}")
    if not (lo < hi):
        raise UsageError(f"{flag} needs a < b, got {text!r}")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phase-bifurcate",
        description="Bifurcation diagrams and steady states of 1-D phase-field models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--model", choices=["ac", "ch", "acok"], default="ac")
    common.add_argument("--n-cells", "--n", dest="n_cells", type=int, default=200,
                        help="number of grid cells (even, 4..4096); nodes = cells + 1")
    common.add_argument("--epsilon", type=float, default=None,
                        help="interface width; for ac/ch 'solutions' this is the slice value")
    common.add_argument("--mu0", type=float, default=0.0)
    common.add_argument("--gamma", type=float, default=None,
                        help="nonlocal strength; for acok 'solutions' this is the slice value")
    common.add_argument("--eps-range", type=str, default=None, metavar="A:B")
    common.add_argument("--gamma-range", type=str, default=None, metavar="A:B")
    common.add_argument("--step", type=float, default=None, help="initial continuation step")
    common.add_argument("--min-step", type=float, default=None)
    common.add_argument("--max-step", type=float, default=None)
    common.add_argument("--newton-tol", type=float, default=None)
    common.add_argument("--max-newton-iters", type=int, default=None)
    common.add_argument("--max-branch-points", type=int, default=None)
    common.add_argument("--arclength", action="store_true", help="pseudo-arclength tracing")
    common.add_argument("--seed-amplitude", type=float, default=None)
    common.add_argument("--dedupe-tol", type=float, default=None)
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument("--out", type=str, default=None, metavar="PATH")
    common.add_argument("--ghost-closure", choices=list(GhostClosure), default="symmetric",
                        help="right-boundary Neumann closure (onesided-right is a "
                             "deliberately first-order test hook)")

    p_points = sub.add_parser("points", parents=[common],
                              help="analytic vs detected bifurcation points")
    p_points.add_argument("--phi0", type=float, default=None,
                          help="restrict to the trivial branch nearest this constant value")
    sub.add_parser("trace", parents=[common], help="compute and write a full diagram")
    sub.add_parser("solutions", parents=[common],
                   help="distinct nontrivial steady states at the slice parameter")
    sub.add_parser("verify", parents=[common], help="run the invariant suite (JSON report)")
    return parser


def resolve(args) -> tuple[RunConfig, object, ModelParams]:
    """Fill in model-dependent defaults and validate the combination."""
    kind = args.model
    if args.n_cells > MAX_N_CELLS:
        raise UsageError(f"--n-cells must be <= {MAX_N_CELLS}, got {args.n_cells}")
    try:
        grid = GridSpec(args.n_cells)
    except ValueError as exc:
        raise UsageError(str(exc))

    epsilon = args.epsilon if args.epsilon is not None else (0.3 if kind == "acok" else 0.5)
    gamma = args.gamma if args.gamma is not None else 0.0
    try:
        params = ModelParams(epsilon=epsilon, mu0=args.mu0, gamma=gamma)
        model = model_by_kind(kind, grid, closure=args.ghost_closure)
    except ValueError as exc:
        raise UsageError(str(exc))

    if args.command == "points" and args.phi0 is not None and not math.isfinite(args.phi0):
        raise UsageError(f"--phi0 must be a finite number, got {args.phi0!r}")
    if args.eps_range is not None and kind == "acok":
        raise UsageError("--eps-range applies to ac/ch (acok is continued in gamma)")
    if args.gamma_range is not None and kind != "acok":
        raise UsageError("--gamma-range applies to acok only")

    overrides = {}
    if args.eps_range is not None:
        overrides["param_min"], overrides["param_max"] = _parse_range(args.eps_range, "--eps-range")
    if args.gamma_range is not None:
        overrides["param_min"], overrides["param_max"] = _parse_range(args.gamma_range, "--gamma-range")
    for key in (
        "min_step",
        "max_step",
        "newton_tol",
        "max_newton_iters",
        "max_branch_points",
        "seed_amplitude",
        "dedupe_tol",
    ):
        v = getattr(args, key)
        if v is not None:
            overrides[key] = v
    if args.arclength:
        overrides["use_pseudo_arclength"] = True

    try:
        base = default_settings(kind)
        if args.step is not None:
            overrides.setdefault("initial_step", args.step)
            overrides.setdefault("max_step", max(args.step, base.max_step))
            overrides.setdefault("min_step", min(args.step, base.min_step))
        settings = default_settings(kind, **overrides)
    except ValueError as exc:
        raise UsageError(str(exc))

    at_param = None
    if args.command == "solutions":
        if kind == "acok":
            if args.gamma is None:
                raise UsageError("solutions --model acok requires --gamma (the slice value)")
            at_param = gamma
        else:
            if args.epsilon is None:
                raise UsageError(f"solutions --model {kind} requires --epsilon (the slice value)")
            at_param = epsilon
        if not (settings.param_min <= at_param <= settings.param_max):
            raise UsageError(
                f"slice parameter {at_param} outside the configured range "
                f"[{settings.param_min}, {settings.param_max}]"
            )

    cfg = RunConfig(
        command=args.command,
        model=kind,
        n_cells=args.n_cells,
        ghost_closure=args.ghost_closure,
        epsilon=float(epsilon),
        mu0=float(args.mu0),
        gamma=float(gamma),
        settings=settings,
        at_param=at_param,
        format=args.format,
        out=args.out,
    )
    return cfg, model, params


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out is not None:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(cfg: RunConfig, payload: dict) -> None:
    _emit(cfg, json.dumps(payload, indent=2) + "\n")


def _analytic_points(kind: str, params: ModelParams, settings: ContinuationSettings):
    """Closed-form crossings of the bifurcating constant branch in the window."""
    if kind == "acok":
        return analysis.acok_bifurcations_in_range(params.epsilon, settings.param_min, settings.param_max)
    if kind == "ch" and params.mu0 != 0.0:
        # Exact-kernel values shift only O(mu0^2) from the mu0=0 ones; enumerate
        # candidates from a slightly padded mu0=0 window, solve each exactly,
        # then filter to the window.
        pad_lo = settings.param_min * 0.8
        pad_hi = settings.param_max * 1.25
        out = []
        for cand in analysis.ac_bifurcations_in_range(pad_lo, pad_hi):
            exact = analysis.ch_bifurcation(cand.mode_index, cand.mode_family, params.mu0)
            if settings.param_min <= exact.param_value <= settings.param_max:
                out.append(exact)
        return sorted(out, key=lambda r: -r.param_value)
    return analysis.ac_bifurcations_in_range(settings.param_min, settings.param_max)


def cmd_points(cfg: RunConfig, model, params, settings, phi0: Optional[float]) -> int:
    branches = model.trivial_branches(params)
    if phi0 is not None:
        chosen = min(branches, key=lambda b: abs(b.value_of(params) - phi0))
        selected = [chosen]
    else:
        selected = [b for b in branches if b.bifurcating]

    detected = []
    for tb in selected:
        detected.extend(
            detect_bifurcations_on_trivial(
                model, params, settings,
                lambda pv, _tb=tb: _tb.state_of(model.with_param(params, pv), model.grid),
            )
        )

    analytic = _analytic_points(cfg.model, params, settings) if any(b.bifurcating for b in selected) else []

    rows = {}
    for a in analytic:
        rows[(a.mode_family, a.mode_index)] = {
            "family": a.mode_family, "n": a.mode_index,
            "analytic_value": float(a.param_value), "detected_value": None, "relative_gap": None,
        }
    for d in detected:
        key = (d.mode_family, d.mode_index)
        row = rows.setdefault(key, {"family": d.mode_family, "n": d.mode_index,
                                    "analytic_value": None, "detected_value": None, "relative_gap": None})
        row["detected_value"] = float(d.param)
        if row["analytic_value"] is not None:
            row["relative_gap"] = abs(row["detected_value"] - row["analytic_value"]) / abs(row["analytic_value"])

    ordered = sorted(rows.values(), key=lambda r: r["analytic_value"] if r["analytic_value"] is not None
                     else r["detected_value"])
    note = None
    if not ordered:
        note = "no bifurcations on this branch"
        print(note, file=sys.stderr)

    if cfg.format == "json":
        _emit_json(cfg, {"config": cfg.to_dict(), "note": note, "rows": ordered})
    else:
        lines = ["family,n,analytic_value,detected_value,relative_gap"]
        for r in ordered:
            lines.append(",".join([
                r["family"],
                "" if r["n"] is None else str(r["n"]),
                "" if r["analytic_value"] is None else _fmt(r["analytic_value"]),
                "" if r["detected_value"] is None else _fmt(r["detected_value"]),
                "" if r["relative_gap"] is None else _fmt(r["relative_gap"]),
            ]))
        _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def _diagram_summary(diagram: Diagram) -> dict:
    reasons: dict[str, int] = {}
    for b in diagram.branches:
        reasons[b.stop_reason] = reasons.get(b.stop_reason, 0) + 1
    return {
        "branch_count": len(diagram.branches),
        "bifurcation_count": len(diagram.bifurcations),
        "stop_reasons": dict(sorted(reasons.items())),
    }


def cmd_trace(cfg: RunConfig, model, params, settings) -> int:
    diagram = compute_diagram(model, params, settings)
    summary = _diagram_summary(diagram)
    if cfg.format == "json":
        payload = {
            "config": cfg.to_dict(),
            "summary": summary,
            "branches": [
                {
                    "id": b.id,
                    "origin": b.origin.describe(),
                    "stop_reason": b.stop_reason,
                    "points": [
                        {
                            "param": float(p.param),
                            "phi_at_minus1": float(p.state[0]),
                            "sup_norm": float(np.max(np.abs(p.state))),
                            "det_sign": int(p.det_sign),
                        }
                        for p in b.points
                    ],
                }
                for b in diagram.branches
            ],
            "bifurcations": [
                {"id": bf.bif_id, "param": float(bf.param), "family": bf.mode_family,
                 "n": None if bf.mode_index is None else int(bf.mode_index)}
                for bf in diagram.bifurcations
            ],
        }
        _emit_json(cfg, payload)
    else:
        lines = ["branch_id,param,phi_at_minus1,sup_norm,det_sign"]
        for b in diagram.branches:
            for p in b.points:
                lines.append(
                    f"{b.id},{_fmt(p.param)},{_fmt(p.state[0])},{_fmt(np.max(np.abs(p.state)))},{int(p.det_sign)}"
                )
        _emit(cfg, "\n".join(lines) + "\n")
    print(
        f"branches={summary['branch_count']} bifurcations={summary['bifurcation_count']} "
        + " ".join(f"stop[{k}]={v}" for k, v in summary["stop_reasons"].items()),
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_solutions(cfg: RunConfig, model, params, settings) -> int:
    diagram = compute_diagram(model, params, settings, at=cfg.at_param)
    sols = solutions_at(diagram, cfg.at_param, model, settings)
    if cfg.format == "json":
        payload = {
            "config": cfg.to_dict(),
            "at_param": float(cfg.at_param),
            "count": len(sols),
            "solutions": [
                {
                    "branch_id": s.branch_id,
                    "origin": s.origin,
                    "param": float(s.param),
                    "residual_norm": float(s.residual_norm),
                    "state": [float(v) for v in s.state],
                }
                for s in sols
            ],
        }
        _emit_json(cfg, payload)
    else:
        n_nodes = model.grid.n_nodes
        header = "branch_id,origin,param,residual_norm," + ",".join(f"phi_{i}" for i in range(n_nodes))
        lines = [header]
        for s in sols:
            lines.append(
                f"{s.branch_id},{s.origin},{_fmt(s.param)},{_fmt(s.residual_norm)},"
                + ",".join(_fmt(v) for v in s.state)
            )
        _emit(cfg, "\n".join(lines) + "\n")
    print(f"count={len(sols)}", file=sys.stderr)
    return EXIT_OK


def _check(name: str, measured: float, tolerance: float, comparator: str) -> dict:
    ok = measured <= tolerance if comparator == "<=" else measured >= tolerance
    return {"name": name, "measured": float(measured), "tolerance": float(tolerance),
            "comparator": comparator, "pass": bool(ok)}


def _fd_jacobian_error(model, params, rng) -> float:
    """Max relative entry error of the analytic Jacobian vs central differences."""
    n = model.grid.n_nodes
    worst = 0.0
    for _ in range(5):
        x = 0.8 * (2.0 * rng.random(n) - 1.0)
        if model.kind == "acok":
            x = 0.5 + 0.45 * (2.0 * rng.random(n) - 1.0)
        jac = model.jacobian(x, params)
        fd = np.empty_like(jac)
        for j in range(n):
            delta = 1e-6 * (1.0 + abs(x[j]))
            xp = x.copy(); xp[j] += delta
            xm = x.copy(); xm[j] -= delta
            fd[:, j] = (model.residual(xp, params) - model.residual(xm, params)) / (2.0 * delta)
        scale = max(1.0, float(np.max(np.abs(jac))))
        worst = max(worst, float(np.max(np.abs(jac - fd))) / scale)
    return worst


def cmd_verify(cfg: RunConfig, model, params, settings) -> int:
    from .models import green_operator, poisson_neumann_solve

    grid = model.grid
    rng = np.random.default_rng(2026)
    checks = []

    checks.append(_check("jacobian_vs_fd_rel", _fd_jacobian_error(model, params, rng), 1e-6, "<="))

    trivial_worst = max(
        float(np.max(np.abs(model.residual(t, params)))) for t in model.trivial_states(params)
    )
    checks.append(_check("trivial_residual_sup", trivial_worst, 1e-12, "<="))

    gop = green_operator(grid)
    const = np.full(grid.n_nodes, 3.7)
    checks.append(_check("green_annihilates_constants",
                         float(np.max(np.abs(gop.matrix @ const))) / 3.7, 1e-13, "<="))

    w = grid.trapezoid_weights
    gap = 0.0
    tests = [np.sin(np.pi * grid.nodes), np.cos(np.pi * grid.nodes)]
    r = rng.random(grid.n_nodes)
    tests.append(r - (w @ r) / 2.0)
    for f in tests:
        u_green = gop.matrix @ f
        u_poisson = poisson_neumann_solve(-f, grid)
        gap = max(gap, float(np.max(np.abs(u_green - u_poisson))))
    checks.append(_check("green_vs_poisson_gap", gap, 1e-10, "<="))

    # Structural symmetry of the nonlinearity, normalized by the residual's
    # own scale (the raw gap is a few ULPs of that scale, so an absolute
    # bound would silently depend on gamma and the grid size).
    phi = 0.9 * (2.0 * rng.random(grid.n_nodes) - 1.0)
    if model.kind == "acok":
        # Fix a nonzero interaction strength so the nonlocal term is exercised
        # even when the run's gamma is 0.
        p_sym = ModelParams(epsilon=params.epsilon, mu0=params.mu0, gamma=max(params.gamma, 500.0))
        phi_h = 0.5 + 0.45 * (2.0 * rng.random(grid.n_nodes) - 1.0)
        base = model.residual(phi_h, p_sym)
        sym = float(np.max(np.abs(model.residual(1.0 - phi_h, p_sym) + base)))
        sym /= max(1.0, float(np.max(np.abs(base))))
        checks.append(_check("half_symmetry_residual", sym, 1e-12, "<="))
    else:
        p0 = ModelParams(epsilon=params.epsilon, mu0=0.0, gamma=params.gamma)
        base = model.residual(phi, p0)
        sym = float(np.max(np.abs(model.residual(-phi, p0) + base)))
        sym /= max(1.0, float(np.max(np.abs(base))))
        checks.append(_check("odd_symmetry_residual", sym, 1e-12, "<="))

    mean_worst = 0.0
    for fam, n0 in (("sine", 0), ("cosine", 1)):
        for n in range(n0, 11):
            m = analysis.eigenmode(n, fam, grid)
            mean_worst = max(mean_worst, abs(float(w @ m)))
    checks.append(_check("eigenmode_zero_mean", mean_worst, 1e-12, "<="))

    # Detection against the closed forms on the bifurcating branch.
    tb = next(b for b in model.trivial_branches(params) if b.bifurcating)
    bifs = detect_bifurcations_on_trivial(
        model, params, settings,
        lambda pv: tb.state_of(model.with_param(params, pv), grid),
    )
    corr_min = 1.0
    for bf in bifs:
        if bf.mode_family == "unknown":
            corr_min = 0.0
            continue
        m = analysis.eigenmode(bf.mode_index, bf.mode_family, grid)
        corr_min = min(corr_min, abs(float(bf.null_mode @ m)))
    checks.append(_check("null_mode_correlation_min", corr_min if bifs else 0.0, 0.99, ">="))

    if model.kind == "acok":
        spot = analysis.acok_bifurcation(0, "sine", params.epsilon).param_value
        hit = min((abs(bf.param - spot) for bf in bifs), default=math.inf)
        checks.append(_check("acok_sine0_spot_abs_gap", hit, 0.7, "<="))
    else:
        analytic = {(a.mode_family, a.mode_index): a.param_value
                    for a in _analytic_points(cfg.model, params, settings)}
        gap_abs = 0.0
        matched = 0
        for bf in bifs:
            a = analytic.get((bf.mode_family, bf.mode_index))
            if a is None:
                continue
            matched += 1
            gap_abs = max(gap_abs, abs(bf.param - a))
        if matched < len(analytic):
            gap_abs = math.inf
        checks.append(_check("bifurcation_gap_abs_max", gap_abs, 1e-3, "<="))

    ok = all(c["pass"] for c in checks)
    payload = {"config": cfg.to_dict(), "pass": ok, "checks": checks}
    _emit_json(cfg, payload)
    print(f"verify: {'pass' if ok else 'FAIL'} "
          f"({sum(c['pass'] for c in checks)}/{len(checks)} checks)", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg, model, params = resolve(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    settings = cfg.settings

    try:
        if args.command == "points":
            return cmd_points(cfg, model, params, settings, args.phi0)
        if args.command == "trace":
            return cmd_trace(cfg, model, params, settings)
        if args.command == "solutions":
            return cmd_solutions(cfg, model, params, settings)
        return cmd_verify(cfg, model, params, settings)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # Model-domain violations surfaced mid-computation (e.g. the cubic
        # leaving its three-root window during a scan).
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
