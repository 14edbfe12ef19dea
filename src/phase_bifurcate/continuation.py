"""Predictor-corrector continuation, det-sign bifurcation detection, branch switching.

The engine walks solution branches x(mu) of a parametric model with an Euler
predictor and Newton corrector (natural parameterization by default,
pseudo-arclength opt-in for offshoots that fold in mu; the constant branches
are always traced against mu).  Bifurcations on the
constant ("trivial") branches are located by bisecting sign changes of
det(Jacobian) between scan samples, then resolved into a null mode by one
solve with the event's factorization and classified against the analytic
eigenmode families.  New branches are seeded along the null mode on both
sides (the +/- offshoots of a pitchfork) and traced over the parameter
window; where a symmetry of the model maps the + offshoot onto the - one,
the - offshoot is that image of the traced + one.  A diagram computed for one
slice (``compute_diagram(..., at=p)``) traces only what ``solutions_at``
reads at ``p``: no constant branches, and natural-mode offshoots stop at
``p``.

Every factorization goes through the model's ``linearize`` (a
``linalg.BandBorder``, factored in O(N)); the pseudo-arclength systems add
one border to it, and each detection probe is one sign-only factorization
(the scan's first level, on a band ``linalg.pass_size`` takes, in
vectorized passes of many).
The dense ``jacobian`` is never built here.

Everything is deterministic: fixed iteration orders and a fixed seed for the
null-mode start vector, so identical inputs give bitwise-identical diagrams.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable, Optional

import numpy as np

from .linalg import (
    Factorization, SingularMatrixError, band_det_pass, det_sign, log_abs_det, lu_factor, lu_solve, null_vector, pass_size,
)
from . import analysis
from .models import MODELS, ModelParams

logger = logging.getLogger("phase_bifurcate")

__all__ = [
    "ContinuationSettings",
    "BranchPoint",
    "BranchOrigin",
    "Branch",
    "BifurcationPoint",
    "Diagram",
    "Solution",
    "ContinuationError",
    "NewtonFailure",
    "newton_correct",
    "euler_predict",
    "trace_branch",
    "detect_bifurcations_on_trivial",
    "branch_switch",
    "compute_diagram",
    "solutions_at",
    "default_settings",
]

#: Bisection brackets are shrunk to this fraction of the parameter range.
BISECTION_WIDTH_FACTOR = 1e-10

#: Cap on the regula falsi (Illinois) steps that place each event's first
#: bisection probes; the bisection itself always runs to the end.
REGULA_FALSI_STEPS = 8

#: A regula falsi probe stays at least this many bisection widths inside its
#: bracket (Dekker's minimum step), so once one end is next to the crossing
#: the next probe lands just across it and the bracket closes from both sides.
REGULA_FALSI_MARGIN = 0.125

_EXP_CAP = 700.0  # math.exp overflows above ~709.8
_LOG2 = math.log(2.0)

#: A branch-switch seed's amplitude is picked from s0 * 2**-k, k < this depth.
SEED_LADDER_DEPTH = 20

#: Null modes are classified against analytic modes with index <= this cap.
MAX_MODE_INDEX = 25

#: Minimum |cosine similarity| to accept a family/index classification.
MODE_CORRELATION_FLOOR = 0.9


class ContinuationError(RuntimeError):
    """Base class for continuation failures."""


class NewtonFailure(ContinuationError):
    """Corrector failure; ``reason`` is 'singular', 'no_convergence' or 'diverged'."""

    def __init__(self, reason: str, iterations: int, residual_norm: float):
        super().__init__(f"Newton corrector failed ({reason}) after {iterations} iterations, residual {residual_norm:.3e}")
        self.reason = reason
        self.iterations = iterations
        self.residual_norm = residual_norm


@dataclass(frozen=True)
class ContinuationSettings:
    """Step-control and tolerance bundle for one continuation run.

    Steps are in units of the active parameter (also in pseudo-arclength
    mode, where they are converted to the internal scaled arclength).
    ``seed_amplitude`` overrides the default top of the branch-switch seed
    amplitude ladder, s0 = 0.05*(sup|base| + 1), when set (see
    ``branch_switch``).
    Every float setting must be finite; the tolerances, and the seed
    amplitude when set, must be positive.
    """

    param_min: float
    param_max: float
    initial_step: float
    min_step: float
    max_step: float
    newton_tol: float = 1e-10
    max_newton_iters: int = 14
    max_branch_points: int = 2000
    use_pseudo_arclength: bool = False
    dedupe_tol: float = 1e-4
    seed_amplitude: Optional[float] = None

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be a finite number, got {v!r}")
        if not (self.param_min < self.param_max):
            raise ValueError(f"need param_min < param_max, got [{self.param_min}, {self.param_max}]")
        if not (0.0 < self.min_step <= self.initial_step <= self.max_step):
            raise ValueError(
                f"need 0 < min_step <= initial_step <= max_step, got "
                f"({self.min_step}, {self.initial_step}, {self.max_step})"
            )
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")
        if self.dedupe_tol <= 0.0:
            raise ValueError("dedupe_tol must be positive")
        if self.seed_amplitude is not None and self.seed_amplitude <= 0.0:
            raise ValueError("seed_amplitude must be positive when set")
        if self.max_newton_iters < 1 or self.max_branch_points < 2:
            raise ValueError("iteration/point caps must be positive")

    @property
    def range_width(self) -> float:
        return self.param_max - self.param_min

    @property
    def bisection_width(self) -> float:
        return BISECTION_WIDTH_FACTOR * self.range_width


@dataclass
class BranchPoint:
    param: float
    state: np.ndarray
    residual_norm: float
    det_sign: int
    newton_iters_used: int


@dataclass(frozen=True)
class BranchOrigin:
    """Either a trivial branch (label) or an offshoot switched from a bifurcation."""

    kind: str  # "trivial" | "switched"
    label: str  # trivial-branch label, or the bifurcation id
    sign: int = 0  # +1/-1 for switched offshoots, 0 for trivial

    def describe(self) -> str:
        if self.kind == "trivial":
            return f"trivial({self.label})"
        # comma-free on purpose: this string lands in a CSV column
        return f"switched_from({self.label}{'+' if self.sign > 0 else '-'})"


@dataclass
class Branch:
    id: str
    origin: BranchOrigin
    points: list[BranchPoint]
    stop_reason: str = "param_bound"
    image: Optional[tuple["Branch", Callable]] = None  # (source, map) of an image; see ``_image``


@dataclass
class BifurcationPoint:
    bif_id: str
    param: float
    base_state: np.ndarray
    null_mode: np.ndarray
    mode_family: str  # "sine" | "cosine" | "unknown"
    mode_index: Optional[int]


@dataclass
class Diagram:
    """Branches and bifurcations over the settings window.

    ``at`` is None for a full diagram.  A diagram computed for one slice
    carries that parameter value: it holds no trivial branches, its natural
    offshoots end at the slice, and ``solutions_at`` slices it nowhere else.
    """

    model_kind: str
    params: ModelParams
    settings: ContinuationSettings
    branches: list[Branch]
    bifurcations: list[BifurcationPoint]
    at: Optional[float] = None


@dataclass
class Solution:
    param: float
    state: np.ndarray
    residual_norm: float
    branch_id: str
    origin: str


def _sup(v: np.ndarray) -> float:
    return float(np.max(np.abs(v)))


def _newton(model, params, guess, settings, sign: Optional[int] = None) -> tuple[BranchPoint, Optional[Factorization]]:
    """Newton iteration to `newton_tol` in residual max-norm (``model.residual_norm``).

    Returns the accepted point together with the Jacobian factorization *at*
    the accepted state (used for the det sign and reused by the predictor).
    With ``sign`` (the det sign there, known beforehand) the accepted state
    is not factored: the point takes ``sign`` and None comes back instead.
    Raises NewtonFailure on singular Jacobian, iteration cap, or three
    consecutive residual increases.

    Each correction is one ``lu_solve(lu_factor(J), -r)``.  At an exactly
    even or odd state (AC/CH, or ACOK in u) ``J`` is a
    ``linalg.ParityLuFactorization``, and a residual of the state's parity
    is solved on that parity's block alone, the only one factored, so the
    correction never leaves its parity subspace.  A singular block of the
    other parity therefore does not stop the correction; only a singular
    block it uses (or a singular Jacobian) fails it as "singular".  The factorization at the accepted state gives
    the det sign, which factors both blocks.
    """
    x = np.array(guess, dtype=float)
    r = model.residual(x, params)
    rn = model.residual_norm(r)
    if not math.isfinite(rn):
        raise NewtonFailure("diverged", 0, rn)
    prev = rn
    growths = 0
    iters = 0
    while rn > settings.newton_tol:
        if iters >= settings.max_newton_iters:
            raise NewtonFailure("no_convergence", iters, rn)
        try:
            x = x + lu_solve(lu_factor(model.linearize(x, params)), -r)
        except SingularMatrixError:
            raise NewtonFailure("singular", iters, rn) from None
        r = model.residual(x, params)
        rn = model.residual_norm(r)
        iters += 1
        if not math.isfinite(rn):
            raise NewtonFailure("diverged", iters, rn)
        if rn >= prev:
            growths += 1
            if growths >= 3:
                raise NewtonFailure("diverged", iters, rn)
        else:
            growths = 0
        prev = rn
    fact = None if sign is not None else lu_factor(model.linearize(x, params))
    point = BranchPoint(
        param=model.active_value(params),
        state=x,
        residual_norm=rn,
        det_sign=det_sign(fact) if fact is not None else sign,
        newton_iters_used=iters,
    )
    return point, fact


def newton_correct(model, params, guess, settings) -> BranchPoint:
    """Correct ``guess`` to a branch point at fixed parameters (see ``_newton``)."""
    point, _ = _newton(model, params, guess, settings)
    return point


def euler_predict(model, params, point: BranchPoint, step: float, fact: Optional[Factorization]) -> np.ndarray:
    """First-order predictor: solve J dx = -F_mu * dmu at ``point``.

    ``fact`` is the factorization of ``model.linearize`` at ``point`` (the
    tracer reuses the one from the point's correction).  Raises
    SingularMatrixError if the solve meets a singular factorization (caller
    shrinks the step).  On a ``linalg.ParityLuFactorization`` (an even or
    odd state) only the blocks of F_mu's parts count: at such a state
    F_mu has the state's parity, so a singular block of the other parity
    does not stop the predictor.  Where F_mu is exactly zero (a constant
    state that does not move with the parameter) dx is zero and no solve is
    made: the prediction is a copy of the state, refused as a solve would
    be if ``fact`` is flagged singular.  ``fact`` None says that ``J`` is
    known to be regular at ``point`` (a well, ``models.TrivialBranch``); it
    is then factored only if a solve is needed.
    """
    fmu = model.param_derivative(point.state, params)
    if not fmu.any():
        if fact is not None and fact.singular:
            raise SingularMatrixError("singular matrix")
        return point.state.copy()
    if fact is None:
        fact = lu_factor(model.linearize(point.state, params))
    return point.state + lu_solve(fact, -fmu * step)


def _clip_target(current: float, step: float, direction: int, settings: ContinuationSettings) -> float:
    target = current + direction * step
    return min(max(target, settings.param_min), settings.param_max)


def trace_branch(
    model,
    params,
    settings: ContinuationSettings,
    start: BranchPoint,
    direction: int,
    *,
    origin: Optional[BranchOrigin] = None,
    branch_id: str = "branch",
    prepend: Iterable[BranchPoint] = (),
    at: Optional[float] = None,
    _fact: Optional[Factorization] = None,
    _sign: Optional[int] = None,
) -> Branch:
    """Trace a branch from an accepted point until a stop condition.

    Natural mode: steps the parameter monotonically in ``direction``, halving
    the step on corrector failure (down to min_step) and growing it 1.5x
    after two consecutive easy corrections (<= 2 Newton iterations), capped
    at max_step.  Pseudo-arclength mode (settings.use_pseudo_arclength)
    parameterizes by scaled secant arclength instead and follows the branch
    through folds, stopping when the parameter leaves the window.
    ``compute_diagram`` traces constant branches, which have no fold, in
    natural mode whatever the settings say.

    ``prepend`` points (e.g. the bifurcation anchor) are copied to the front
    of the branch unmodified.

    With ``at`` set, natural tracing stops (reason "slice") once the last
    point is at or past ``at`` in ``direction``: the points kept are exactly
    the full trace's up to its first point at or past ``at``, and a start
    already there is not stepped from.  Pseudo-arclength tracing ignores
    ``at``, since a fold can bring the branch back across it.  ``_fact``
    (``_newton``'s factorization at ``start``) spares natural tracing a refactor.
    ``_sign``, in natural mode, is every point's det sign, known beforehand
    (a well: ``models.TrivialBranch``); no point is then factored for its
    sign, only for a predictor solve (``euler_predict``).
    """
    if direction not in (-1, 1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    origin = origin or BranchOrigin("trivial", "unlabeled")
    if settings.use_pseudo_arclength:
        return _trace_arclength(model, params, settings, start, direction, origin, branch_id, prepend)
    return _trace_natural(model, params, settings, start, direction, origin, branch_id, prepend, at, _fact, _sign)


def _trace_natural(model, params, settings, start, direction, origin, branch_id, prepend, at, fact, sign) -> Branch:
    points: list[BranchPoint] = list(prepend) + [start]
    bound = settings.param_max if direction > 0 else settings.param_min
    edge_tol = 1e-12 * settings.range_width
    step = settings.initial_step
    easy = 0
    stop = "max_points"
    cur = start
    cur_params = model.with_param(params, cur.param)
    cur_fact: Optional[Factorization] = fact

    while len(points) < settings.max_branch_points:
        if at is not None and direction * (cur.param - at) >= 0.0:
            stop = "slice"
            break
        if abs(cur.param - bound) <= edge_tol:
            stop = "param_bound"
            break
        target = _clip_target(cur.param, step, direction, settings)
        try:
            if cur_fact is None and sign is None:
                cur_fact = lu_factor(model.linearize(cur.state, cur_params))
            guess = euler_predict(model, cur_params, cur, target - cur.param, fact=cur_fact)
            nxt, nxt_fact = _newton(model, model.with_param(params, target), guess, settings, sign)
        except (NewtonFailure, SingularMatrixError):
            step *= 0.5
            easy = 0
            if step < settings.min_step:
                stop = "min_step"
                break
            continue
        points.append(nxt)
        cur = nxt
        cur_params = model.with_param(params, target)
        cur_fact = nxt_fact
        if nxt.newton_iters_used <= 2:
            easy += 1
            if easy >= 2:
                step = min(step * 1.5, settings.max_step)
                easy = 0
        else:
            easy = 0
    else:
        stop = "max_points"

    return Branch(id=branch_id, origin=origin, points=points, stop_reason=stop)


class _ArclengthFrame:
    """Scaled variables for pseudo-arclength: z = (x/sqrt(n), mu/range_width).

    The metric makes state excursions and parameter excursions commensurate
    across models whose parameter ranges differ by orders of magnitude.
    """

    def __init__(self, n_nodes: int, settings: ContinuationSettings):
        self.n = n_nodes
        self.pscale = settings.range_width

    def dot(self, dx_a, dmu_a, dx_b, dmu_b) -> float:
        return float(dx_a @ dx_b) / self.n + (dmu_a * dmu_b) / self.pscale**2

    def norm(self, dx, dmu) -> float:
        return math.sqrt(self.dot(dx, dmu, dx, dmu))


def _bordered_jacobian(model, params_at, x, frame, tx, tmu):
    """``[[J, F_mu], [tx/n, tmu/pscale^2]]``: the model's linearization
    bordered by the derivative of the arclength constraint along ``(tx, tmu)``."""
    return model.linearize(x, params_at).bordered(
        model.param_derivative(x, params_at), tx / frame.n, tmu / frame.pscale**2)


def _arclength_tangent(model, params_at, x, frame, prev_tx, prev_tmu):
    """Unit tangent ``(tx, tmu)`` at ``x`` (None if the bordered matrix is
    singular), oriented by the previous tangent, and the sign of det(J).

    By Cramer's rule the raw tangent's parameter component is
    det(J) / det(bordered), so J itself is factored only when the bordered
    matrix is singular.
    """
    n = frame.n
    fact = lu_factor(_bordered_jacobian(model, params_at, x, frame, prev_tx, prev_tmu))
    if fact.singular:
        return None, det_sign(lu_factor(model.linearize(x, params_at)))
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    t = lu_solve(fact, rhs)
    tx, tmu = t[:n], float(t[n])
    nrm = frame.norm(tx, tmu)
    return (tx / nrm, tmu / nrm), det_sign(fact) * int(np.sign(tmu))


def _trace_arclength(model, params, settings, start, direction, origin, branch_id, prepend) -> Branch:
    prepend = list(prepend)
    frame = _ArclengthFrame(start.state.shape[0], settings)
    points: list[BranchPoint] = prepend + [start]
    stop = "max_points"

    # Steps are given in parameter units; convert to the scaled arclength.
    ds = settings.initial_step / frame.pscale
    ds_min = settings.min_step / frame.pscale
    ds_max = settings.max_step / frame.pscale

    x = start.state.copy()
    mu = start.param
    # Orient the first tangent: along the secant from the prepended anchor if
    # one exists, else "parameter increases in `direction`".
    if prepend:
        anchor = prepend[-1]
        prev_tx = (x - anchor.state)
        prev_tmu = mu - anchor.param
        nrm = frame.norm(prev_tx, prev_tmu)
        if nrm > 0.0:
            prev_tx, prev_tmu = prev_tx / nrm, prev_tmu / nrm
        else:
            prev_tx, prev_tmu = np.zeros_like(x), float(direction)
    else:
        prev_tx, prev_tmu = np.zeros_like(x), float(direction)
    tangent, _ = _arclength_tangent(model, model.with_param(params, mu), x, frame, prev_tx, prev_tmu)

    easy = 0
    while len(points) < settings.max_branch_points:
        if tangent is None:
            stop = "singular_tangent"
            break
        tx, tmu = tangent
        accepted = None
        while True:
            xg = x + ds * tx
            mug = mu + ds * tmu
            try:
                accepted = _arclength_correct(model, params, settings, frame, xg, mug, tx, tmu)
                break
            except (NewtonFailure, SingularMatrixError):
                ds *= 0.5
                easy = 0
                if ds < ds_min:
                    break
        if accepted is None:
            # Distinguish a genuine step collapse from running out of room at
            # the window edge (every trial step keeps leaving the window).
            edge_gap = min(mu - settings.param_min, settings.param_max - mu)
            stop = "param_bound" if edge_gap <= settings.max_step else "min_step"
            break
        (x, mu, iters, res) = accepted
        # The next step's tangent, computed now: its solve gives this point's det sign.
        tangent, sign = _arclength_tangent(model, model.with_param(params, mu), x, frame, tx, tmu)
        points.append(BranchPoint(param=mu, state=x.copy(), residual_norm=res, det_sign=sign, newton_iters_used=iters))
        if mu < settings.param_min - 1e-12 * frame.pscale or mu > settings.param_max + 1e-12 * frame.pscale:
            stop = "param_bound"
            break
        if iters <= 2:
            easy += 1
            if easy >= 2:
                ds = min(ds * 1.5, ds_max)
                easy = 0
        else:
            easy = 0

    return Branch(id=branch_id, origin=origin, points=points, stop_reason=stop)


def _arclength_correct(model, params, settings, frame, xg, mug, tx, tmu):
    """Newton on the residual augmented with the frozen-tangent plane constraint.

    Returns ``(x, mu, iterations, residual sup-norm at (x, mu))``.
    Parameter values that leave the model's domain (or stray further than a
    tenth of the window beyond its edges) fail the step, so the caller
    shrinks the arclength step instead of evaluating the model out of range.
    """
    n = frame.n
    lo_guard = settings.param_min - 0.1 * frame.pscale
    hi_guard = settings.param_max + 0.1 * frame.pscale
    x = np.array(xg, dtype=float)
    mu = float(mug)
    x_pred, mu_pred = xg, mug
    prev = math.inf
    growths = 0
    for it in range(1, settings.max_newton_iters + 1):
        if not (lo_guard <= mu <= hi_guard):
            raise NewtonFailure("diverged", it, prev if math.isfinite(prev) else math.inf)
        try:
            params_at = model.with_param(params, mu)
        except ValueError:
            # Left the model's parameter domain (e.g. negative interaction
            # strength); treat as a failed step.
            raise NewtonFailure("diverged", it, prev if math.isfinite(prev) else math.inf)
        r = model.residual(x, params_at)
        rn = model.residual_norm(r)
        c = frame.dot(x - x_pred, mu - mu_pred, tx, tmu)
        if not math.isfinite(rn):
            raise NewtonFailure("diverged", it, rn)
        if rn <= settings.newton_tol and abs(c) <= 1e-12:
            return x, mu, it - 1, rn
        if rn >= prev:
            growths += 1
            if growths >= 3:
                raise NewtonFailure("diverged", it, rn)
        else:
            growths = 0
        prev = rn
        rhs = np.zeros(n + 1)
        rhs[:n] = -r
        rhs[n] = -c
        fact = lu_factor(_bordered_jacobian(model, params_at, x, frame, tx, tmu))
        if fact.singular:
            raise NewtonFailure("singular", it, rn)
        delta = lu_solve(fact, rhs)
        x = x + delta[:n]
        mu = mu + float(delta[n])
    raise NewtonFailure("no_convergence", settings.max_newton_iters, prev)


def detect_bifurcations_on_trivial(
    model,
    params,
    settings: ContinuationSettings,
    trivial_state_fn: Callable[[float], np.ndarray],
) -> list[BifurcationPoint]:
    """Locate det-sign events of the Jacobian along a trivial branch.

    Scans [param_min, param_max] at settings.initial_step, probing interval
    midpoints as well (so a double flip inside one step is still seen); each
    sign change is bisected to a bracket <= 1e-10x the range width.  Suspect
    intervals (midpoint sign differs but endpoints agree) are rescanned at
    step/10 up to 3 levels deep.

    A scan step whose end signs differ yields one event, however many
    crossings it holds (the CLI's ``points`` warns for each closed-form
    crossing no event matched).  The house steps of
    ``default_settings`` are below the closest crossing spacing of their
    windows; a coarser ``initial_step`` (the CLI's ``--step``) is not checked
    against it.  ``points --model ac --n-cells 60 --eps-range 0.0588:0.461
    --step 0.05`` reports 5 of the 9 crossings in its window: its first step
    holds five, and only one of them is found.

    The bisection's probes are placed first: up to ``REGULA_FALSI_STEPS``
    Illinois (regula falsi) steps on the signed det, its log magnitude read
    off the same factorization (``linalg.log_abs_det``), leave probed points
    close to both sides of the crossing.  Then the plain bisection runs
    midpoint for midpoint, but a midpoint at or beyond the probed point
    nearest the crossing on its side takes that point's sign without a
    factorization.  With one crossing in the bracket, which bisection
    assumes anyway, each such sign is what probing would give, so the event
    is plain bisection's bit for bit at 5-8 probes instead of 25-31 (with
    several crossings the final bracket still holds a probed sign change).

    At each localized event the null mode is read off the linearization's
    factorization there by ``null_vector`` (one solve from a fixed seeded
    start vector, which the isolated near-zero eigenvalue makes enough) and
    classified against the analytic sine/cosine families (index <= 25,
    |correlation| >= 0.9, else "unknown").  If that factorization is
    exactly singular (a scan probe hit det = 0, so the event sits on it),
    it is made again one bisection width further into the window; singular
    there too raises SingularMatrixError.

    Each probe factors the linearization at the constant state once, with
    an unfloored pivot test (``pivot_rtol=0``): reliable arbitrarily close
    to a crossing, where the default relative floor would report 0.  The
    first level's samples and midpoints depend on no probe's result, so on
    a band ``linalg.pass_size`` takes (ACOK's ``kl = ku = 2`` from 32
    probes, the AC/CH tridiagonal band from 40, a grid small enough for
    the byte budget) they are all signed before the scan, in
    ``linalg.band_det_pass`` passes: a few midpoints the scan will not ask
    for too, and each probe with ``lu_factor``'s det sign, so the events
    are the same.  A probe a pass leaves (a boosted band pivot, as at
    gamma = 0), the bisections, the rescans and the events' factorizations
    are factored one at a time.  The analytic modes the events' null modes
    are classified against are built once per scan.
    ``compute_diagram`` and ``verify`` call this only on the branch flagged
    ``bifurcating`` (``models.TrivialBranch`` says why the others cannot
    bifurcate), and so does ``points`` unless ``--phi0`` picks another.
    """
    lo, hi = settings.param_min, settings.param_max
    width_target = settings.bisection_width

    probes: dict[float, tuple[int, float]] = {}  # param -> (det sign, log|det|)

    def samples(a: float, b: float, step: float) -> list[float]:
        out = [a]
        p = a + step
        while p < b - 1e-12 * settings.range_width:
            out.append(p)
            p += step
        out.append(b)
        return out

    def system(pv: float):
        return model.linearize(trivial_state_fn(pv), model.with_param(params, pv))

    def factor(pv: float) -> Factorization:
        return lu_factor(system(pv), pivot_rtol=0.0)

    def probe(pv: float) -> tuple[int, float]:
        hit = probes.get(pv)
        if hit is None:
            fact = factor(pv)
            hit = probes[pv] = (det_sign(fact), log_abs_det(fact))
        return hit

    def sgn(pv: float) -> int:
        return probe(pv)[0]

    events: list[float] = []

    def bisect(a: float, b: float) -> float:
        # Illinois steps on det's signed value (sign times exp(log|det|))
        # only choose where to probe: the secant root of the bracket, with
        # the det at an end halved each further step that end survives.
        # near_a and near_b are the probed points nearest the crossing with
        # a's sign and with b's.
        sa, log_a = probe(a)
        log_b = probe(b)[1]
        near_a, near_b = a, b
        kept = 0  # +1 after a step that kept near_b, -1 after one that kept near_a
        margin = REGULA_FALSI_MARGIN * width_target
        for _ in range(REGULA_FALSI_STEPS):
            if near_b - near_a <= width_target:
                break
            x = near_a + (near_b - near_a) / (1.0 + math.exp(min(log_b - log_a, _EXP_CAP)))
            x = min(max(x, near_a + margin), near_b - margin)
            if not near_a < x < near_b:
                break
            sx, log_x = probe(x)
            if sx == 0:
                break
            if sx == sa:
                near_a, log_a = x, log_x
                if kept == 1:
                    log_b -= _LOG2
                kept = 1
            else:
                near_b, log_b = x, log_x
                if kept == -1:
                    log_a -= _LOG2
                kept = -1
        # Plain bisection, replayed.  With one crossing in [a, b] a midpoint
        # at or left of near_a has sign sa and one at or right of near_b the
        # other sign, as probing it would give; only the rest are probed.
        # (A probed midpoint becomes a or b, so near_a and near_b need no
        # update: the bracket has passed the one on that side.)
        while b - a > width_target:
            mid = 0.5 * (a + b)
            if mid <= near_a:
                sm = sa
            elif mid >= near_b:
                sm = -sa
            else:
                sm = sgn(mid)
                if sm == 0:
                    return mid
            if sm == sa:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    def scan(a: float, b: float, step: float, depth: int):
        points = samples(a, b, step)
        for left, right in zip(points[:-1], points[1:]):
            sl, sr = sgn(left), sgn(right)
            if sl == 0:
                events.append(left)
                continue
            if sr != 0 and sl * sr < 0:
                events.append(bisect(left, right))
            elif sr != 0 and depth < 3:
                if sgn(0.5 * (left + right)) != sl:
                    # Hidden even number of crossings: rescan finer.
                    scan(left, right, (right - left) / 10.0, depth + 1)

    # The first level's samples and midpoints depend on no probe: sign them
    # in passes where the band takes one (``linalg.pass_size``).
    first = samples(lo, hi, settings.initial_step)
    first += [0.5 * (left + right) for left, right in zip(first[:-1], first[1:])]
    size = pass_size(system(lo), len(first))
    if size:
        for start in range(0, len(first), size):
            chunk = first[start : start + size]
            for pv, hit in zip(chunk, band_det_pass(map(system, chunk), len(chunk))):
                if hit is not None:
                    probes[pv] = hit

    scan(lo, hi, settings.initial_step, 0)
    if sgn(hi) == 0:
        events.append(hi)

    events.sort()
    modes = _analytic_modes(model.grid) if events else []
    out: list[BifurcationPoint] = []
    for i, loc in enumerate(events):
        fact = factor(loc)
        if fact.singular:
            fact = factor(loc + width_target if loc < 0.5 * (lo + hi) else loc - width_target)
            if fact.singular:
                raise SingularMatrixError(f"singular linearization at and next to the event at param={loc!r}")
        mode = null_vector(fact)
        family, index = _classify_mode(mode, modes)
        out.append(BifurcationPoint(f"bp{i}", loc, trivial_state_fn(loc), mode, family, index))
    return out


def _analytic_modes(grid) -> list[tuple[str, int, np.ndarray]]:
    """``(family, index, mode)`` of each analytic eigenmode ``_classify_mode`` compares against, in its order."""
    return [
        (family, n, analysis.eigenmode(n, family, grid))
        for family, start in (("sine", 0), ("cosine", 1))
        for n in range(start, MAX_MODE_INDEX + 1)
    ]


def _classify_mode(vector: np.ndarray, modes: list) -> tuple[str, Optional[int]]:
    """The family and index of the first of ``modes`` (``_analytic_modes``) with the largest |correlation|."""
    best = ("unknown", None, 0.0)
    for family, n, m in modes:
        corr = abs(float(vector @ m))
        if corr > best[2]:
            best = (family, n, corr)
    if best[2] < MODE_CORRELATION_FLOOR:
        return "unknown", None
    return best[0], best[1]


def _seed_amplitude(model, params_at, base, direction, top: float) -> float:
    """The a in top*2**-k (k < SEED_LADDER_DEPTH) with the smallest sup|F(base + a*direction)|/a.

    ``direction`` is sup-normalized; the first a wins a tie.  Residual
    evaluations only: no factorization.
    """
    best, best_ratio = top, math.inf
    for k in range(SEED_LADDER_DEPTH):
        a = math.ldexp(top, -k)
        ratio = _sup(model.residual(base + a * direction, params_at)) / a
        if ratio < best_ratio:
            best, best_ratio = a, ratio
    return best


def _near_any_trivial(model, params_at, state, tol: float) -> bool:
    return any(_sup(state - t) <= tol for t in model.trivial_states(params_at))


def branch_switch(
    model, params, settings: ContinuationSettings, bif: BifurcationPoint, *, at: Optional[float] = None
) -> list[Branch]:
    """Seed and trace the +/- offshoots emerging at a bifurcation point.

    For each sign the seed is base_state + sigma*a*(null mode, sup-normalized
    so the seed's amplitude is a regardless of grid size), corrected at a
    ladder of parameter offsets (-dmu, +dmu, then 10x and 100x those) from
    the bifurcation; the first offset whose correction converges to a state
    distinct from every trivial state wins.  A side with no surviving offset
    yields no branch, which is legitimate for one-sided directions; when
    neither side yields one, a WARNING names each side's last failure.
    Each seed is logged at INFO.
    ``at`` is passed on to ``trace_branch`` (the seeding does not depend on it).

    At each offset ``_seed_amplitude`` picks a from the ladder s0*2**-k
    (k < ``SEED_LADDER_DEPTH``): the one with the smallest sup|F|/a.  Near a
    pitchfork the residual along the null mode is a*(lambda + c*a**2) (the
    one-dimensional Lyapunov-Schmidt reduction), so the ratio is smallest
    next to the branch's amplitude, and Newton starts in its quadratic
    phase.  Where no branch passes, the bottom of the ladder wins and Newton
    falls onto the trivial state, which is rejected.  Defaults: s0 =
    ``settings.seed_amplitude`` or 0.05*(sup|phi|+1) of the base's phase
    field phi (``model.phi_of``), in phi's units (ACOK's u = 2 phi - 1
    takes twice that), dmu = 2x bisection width + 1e-4*|param|.

    Where ``_pitchfork_image`` finds a map g of the states with g(base) =
    base and g(mode) = -mode that the residual commutes with bit for bit
    (equivariant branching: Golubitsky, Stewart & Schaeffer II, ch. XIII),
    g maps the + offshoot onto the - one, so only the + side is traced.
    The - branch shares its anchor and takes g of every later state, with
    every other field copied (``_image``); if the + side yields no branch,
    neither does the - side.
    """
    base = bif.base_state
    p0 = bif.param
    # s0 is an amplitude of phi.  phi_of is affine, and its slope (1, or 1/2
    # for ACOK's u = 2 phi - 1) takes s0 into the state's units.
    one, zero = model.phi_of(np.array([1.0, 0.0]))
    s0 = settings.seed_amplitude if settings.seed_amplitude is not None else 0.05 * (_sup(model.phi_of(base)) + 1.0)
    s0 /= float(one - zero)
    dmu = 2.0 * settings.bisection_width + 1e-4 * abs(p0)
    mode_sup = bif.null_mode / _sup(bif.null_mode)

    anchor_params = model.with_param(params, p0)
    anchor = BranchPoint(
        param=p0,
        state=np.array(base, dtype=float),
        residual_norm=model.residual_norm(model.residual(base, anchor_params)),
        det_sign=det_sign(lu_factor(model.linearize(base, anchor_params))),
        newton_iters_used=0,
    )
    offsets = [s * dmu for scale in (1.0, 10.0, 100.0) for s in (-scale, +scale)]

    def side(sigma: int, tag: str) -> tuple[Optional[Branch], str]:
        """The traced offshoot on one side, or None and why none survived."""
        newton_reason, tried, on_trivial = "none", 0, 0
        for off in offsets:
            p1 = p0 + off
            if not (settings.param_min <= p1 <= settings.param_max):
                continue
            tried += 1
            params_at = model.with_param(params, p1)
            amplitude = _seed_amplitude(model, params_at, base, sigma * mode_sup, s0)
            guess = base + (sigma * amplitude) * mode_sup
            try:
                seed, seed_fact = _newton(model, params_at, guess, settings)
            except NewtonFailure as exc:
                logger.info("%s%s seed at param=%r, amplitude %.3e: %s after %d Newton iterations",
                            bif.bif_id, tag, p1, amplitude, exc.reason, exc.iterations)
                newton_reason = exc.reason
                continue
            except SingularMatrixError:
                logger.info("%s%s seed at param=%r, amplitude %.3e: singular",
                            bif.bif_id, tag, p1, amplitude)
                newton_reason = "singular"
                continue
            logger.info("%s%s seed at param=%r, amplitude %.3e: converged in %d Newton iterations",
                        bif.bif_id, tag, p1, amplitude, seed.newton_iters_used)
            if _near_any_trivial(model, params_at, seed.state, settings.dedupe_tol):
                on_trivial += 1
                continue
            return trace_branch(
                model,
                params,
                settings,
                seed,
                1 if off > 0 else -1,
                origin=BranchOrigin("switched", bif.bif_id, sigma),
                branch_id=f"{bif.bif_id}{tag}",
                prepend=(anchor,),
                at=at,
                _fact=seed_fact,
            ), ""
        return None, f"last Newton failure {newton_reason}, {on_trivial} of {tried} seeds on a trivial state"

    plus, plus_failure = side(1, "+")
    image = _pitchfork_image(model, params, bif)
    if image is None:
        minus, minus_failure = side(-1, "-")
    else:
        minus, minus_failure = _image(plus, bif.bif_id, image), plus_failure

    branches: list[Branch] = []
    failures: list[str] = []
    for tag, traced, failure in (("+", plus, plus_failure), ("-", minus, minus_failure)):
        if traced is None:
            logger.info("branch switch at %s produced no %s-side branch", bif.bif_id, tag)
            failures.append(f"{tag} side: {failure}")
        else:
            branches.append(traced)
    if not branches:
        logger.warning("branch switch at %s (param=%r) produced no branch: %s", bif.bif_id, p0, "; ".join(failures))
    return branches


def _pitchfork_image(model, params, bif: BifurcationPoint) -> Optional[Callable]:
    """The map g taking a pitchfork's + offshoot onto its - one bit for bit, or None.

    With c = ``model.symmetry_center(params)`` (0.0 for AC, CH without an
    offset and ACOK in ``u``) and the base state c, g is x -> 2c - x.  A
    model without a center whose base is its own reversal and whose mode is
    exactly odd (CH with an offset) takes the reversal R.  Any other
    pitchfork has no image here.

    g carries every other field of the + branch over, because:

    * IEEE round-to-nearest is symmetric under negation, and each residual
      is built from ``x*x*x`` and stencils that add each node's two
      neighbours commutatively (ACOK's Green operator sums by mirror
      pairs), so it is odd and commutes with R bit for bit: each image
      point's residual is its + point's, negated or reversed;
    * the Jacobian depends on x only through x*x, so a negated state has
      the same Jacobian and a reversed one its mirror P J P, whose det is
      det J;
    * ``0.0 - state`` and ``state[::-1]`` round nothing, and ``0.0 - state``
      gives +0.0 where tracing the - side gives +0.0 (0.0 + -0.0);
    * the constant states are closed under both maps, so
      ``_near_any_trivial`` decides both sides alike, and equal sup|F|
      picks equal seed amplitudes.

    Under negation, tracing the - side gives the same bits: every solve is
    linear in its right-hand side, and the arclength dot products multiply
    pairs of negated vectors.
    """
    base, center = bif.base_state, model.symmetry_center(params)
    if center is not None:
        if np.all(base == center):
            return lambda state: (2.0 * center) - state
    elif np.array_equal(base, base[::-1]) and np.array_equal(bif.null_mode[::-1], -bif.null_mode):
        return lambda state: state[::-1].copy()
    return None


def _image(plus: Optional[Branch], bif_id: str, g: Callable) -> Optional[Branch]:
    """The - offshoot as the image under ``g`` of its + side (see ``branch_switch``), or None if ``plus`` is.

    It copies everything but the states and records ``(plus, g)`` as its
    ``image``.
    """
    if plus is None:
        return None
    points = plus.points[:1] + [replace(p, state=g(p.state)) for p in plus.points[1:]]
    minus = Branch(f"{bif_id}-", BranchOrigin("switched", bif_id, -1), points, plus.stop_reason)
    minus.image = (plus, g)
    return minus


class _Polyline:
    """A branch's points as arrays, with the query-independent terms of ``_polyline_gap``."""

    def __init__(self, branch: Branch):
        pts = branch.points
        self.P = np.array([p.param for p in pts])
        self.X = np.stack([p.state for p in pts])
        self.dP = self.P[1:] - self.P[:-1]
        self.dX = self.X[1:] - self.X[:-1]
        self.dX_X = np.einsum("ij,ij->i", self.dX, self.X[:-1])
        self.dX_dX = np.einsum("ij,ij->i", self.dX, self.dX)


def _polyline_gap(query_param, query_state, line: _Polyline, frame: _ArclengthFrame) -> tuple[float, float]:
    """Distance from a (param, state) point to a branch polyline.

    Returns (sup-norm state gap, |param gap|) at the closest segment
    projection in the scaled metric.
    """
    P, X, dP, dX = line.P, line.X, line.dP, line.dX
    if len(P) == 1:
        return _sup(query_state - X[0]), abs(query_param - P[0])
    num = (query_param - P[:-1]) * dP / frame.pscale**2 + (dX @ query_state - line.dX_X) / frame.n
    den = dP * dP / frame.pscale**2 + line.dX_dX / frame.n
    t = np.where(den > 0.0, np.clip(num / np.where(den > 0.0, den, 1.0), 0.0, 1.0), 0.0)
    proj_P = P[:-1] + t * dP
    proj_X = X[:-1] + t[:, None] * dX
    state_gaps = np.max(np.abs(proj_X - query_state[None, :]), axis=1)
    k = int(np.argmin(state_gaps))
    return float(state_gaps[k]), float(abs(query_param - proj_P[k]))


def _dedupe_branches(branches: list[Branch], settings: ContinuationSettings) -> list[Branch]:
    """Drop later branches that retrace an earlier one.

    Two branches are duplicates when 5 evenly-indexed sample points of the
    shorter lie on the other's polyline within dedupe_tol (state sup-norm)
    at matching parameters.  Trivial branches are never deduped.  Each
    branch's polyline is built once, at its first query.
    """
    kept: list[Branch] = []
    lines: dict[int, _Polyline] = {}
    for br in branches:
        if br.origin.kind == "trivial":
            kept.append(br)
            continue
        dup = False
        for other in kept:
            if other.origin.kind == "trivial":
                continue
            short, long_ = (br, other) if len(br.points) <= len(other.points) else (other, br)
            line = lines.get(id(long_))
            if line is None:
                line = lines[id(long_)] = _Polyline(long_)
            frame = _ArclengthFrame(short.points[0].state.shape[0], settings)
            idxs = np.unique(np.linspace(0, len(short.points) - 1, 5).astype(int))
            ok = True
            for i in idxs:
                sgap, pgap = _polyline_gap(short.points[i].param, short.points[i].state, line, frame)
                if sgap > settings.dedupe_tol or pgap > settings.dedupe_tol * max(1.0, frame.pscale):
                    ok = False
                    break
            if ok:
                dup = True
                break
        if not dup:
            kept.append(br)
        else:
            logger.info("dropping duplicate branch %s", br.id)
    return kept


def compute_diagram(model, params, settings: ContinuationSettings, *, at: Optional[float] = None) -> Diagram:
    """Bifurcation diagram over the settings window.

    Corrects every trivial branch at param_max and traces it, detects
    det-sign events on the one flagged ``bifurcating`` (the others are
    linearly stable throughout; see ``models.TrivialBranch``), switches onto
    the emerging branches at every bifurcation and traces them, then dedupes.
    A trivial branch, a closed-form constant state with no fold to round,
    is traced in natural mode down to param_min even when
    ``settings.use_pseudo_arclength`` is set; only the offshoots take
    pseudo-arclength.  Its trace starts from the correction's factorization
    at param_max.  Every point of a well (not ``bifurcating``) takes that
    start point's det sign and is factored only for a predictor solve,
    which the AC and ACOK wells never need (F_mu is exactly zero there).

    With ``at`` set, only what ``solutions_at(diagram, at, ...)`` reads is
    traced: the trivial branches are still corrected at param_max (where a
    CH cubic outside its three-root window fails) and the bifurcating one
    scanned (so ``bifurcations`` is complete), but none is traced, and
    natural-mode offshoots stop at their first point at or past
    ``at`` (pseudo-arclength offshoots are traced in full).  Every segment
    that straddles ``at`` is kept bit for bit, so the slice's answer is the
    full diagram's as long as dedupe, which then compares the shortened
    offshoots, drops the same ones.  The diagram records ``at``.
    """
    if model.active_parameter == "epsilon" and settings.param_min <= 0.0:
        raise ValueError("epsilon continuation requires a strictly positive parameter range")
    if at is not None and not (settings.param_min <= at <= settings.param_max):
        raise ValueError(f"slice {at} outside the window [{settings.param_min}, {settings.param_max}]")

    branches: list[Branch] = []
    bifurcations: list[BifurcationPoint] = []
    natural = replace(settings, use_pseudo_arclength=False)

    for tb in model.trivial_branches(params):
        start_params = model.with_param(params, settings.param_max)
        start_state = tb.state_of(start_params, model.grid)
        try:
            start, start_fact = _newton(model, start_params, start_state, settings)
        except NewtonFailure as exc:
            logger.warning("trivial branch %s failed at param_max: %s", tb.label, exc)
            continue
        if at is None:
            branches.append(
                trace_branch(
                    model,
                    params,
                    natural,
                    start,
                    -1,
                    origin=BranchOrigin("trivial", tb.label),
                    branch_id=f"trivial:{tb.label}",
                    _fact=start_fact,
                    _sign=None if tb.bifurcating else start.det_sign,
                )
            )
        if not tb.bifurcating:
            continue
        found = detect_bifurcations_on_trivial(
            model, params, settings, lambda pv, _tb=tb: _tb.state_of(model.with_param(params, pv), model.grid)
        )
        for bif in found:
            bif.bif_id = f"bp{len(bifurcations)}"
            bifurcations.append(bif)

    for bif in bifurcations:
        branches.extend(branch_switch(model, params, settings, bif, at=at))

    return Diagram(
        model_kind=model.kind,
        params=params,
        settings=settings,
        branches=_dedupe_branches(branches, settings),
        bifurcations=bifurcations,
        at=at,
    )


def solutions_at(diagram: Diagram, param: float, model, settings: ContinuationSettings) -> list[Solution]:
    """All distinct nontrivial steady states on the diagram at one parameter.

    Walks every offshoot branch, Newton-corrects the linear interpolant of
    each segment straddling ``param``, drops anything that lands on a trivial
    state, and dedupes by state sup-norm <= dedupe_tol.  A correction that
    lands on a trivial state from a segment whose two ends both lie off
    every trivial state has lost the branch (the interpolant fell into the
    constant state's basin): it is dropped with a WARNING that names the
    branch and the segment's two parameters.  An image branch
    (``Branch.image``) takes instead the map of its source's corrected
    states, so each is the exact image of its partner.  A diagram
    computed for one slice (``diagram.at`` set) can be sliced only there: any
    other ``param`` raises ValueError.
    """
    if not (settings.param_min <= param <= settings.param_max):
        raise ValueError(f"param {param} outside diagram range [{settings.param_min}, {settings.param_max}]")
    if diagram.at is not None and param != diagram.at:
        raise ValueError(f"diagram was computed for the slice at {diagram.at}, not at {param}")
    params_at = model.with_param(diagram.params, param)
    corrected: dict[str, list[tuple[BranchPoint, BranchPoint, BranchPoint]]] = {}

    def corrections(br: Branch) -> list[tuple[BranchPoint, BranchPoint, BranchPoint]]:
        """``(corrected point, segment start, segment end)`` for each segment straddling ``param``."""
        if br.id in corrected:
            return corrected[br.id]
        if br.image is not None:
            source, g = br.image
            return [(replace(pt, state=g(pt.state)), a, b) for pt, a, b in corrections(source)]
        out = corrected[br.id] = []
        pts = br.points
        for a, b in zip(pts[:-1], pts[1:]):
            da, db = a.param - param, b.param - param
            if da * db > 0.0:
                continue
            if a.param == b.param:
                if da != 0.0:
                    continue
                guess = a.state
            else:
                alpha = (param - a.param) / (b.param - a.param)
                guess = (1.0 - alpha) * a.state + alpha * b.state
            try:
                out.append((newton_correct(model, params_at, guess, settings), a, b))
            except (NewtonFailure, SingularMatrixError) as exc:
                logger.info("slice correction failed on %s: %s", br.id, exc)
        return out

    def off_trivial(p: BranchPoint) -> bool:
        return not _near_any_trivial(model, model.with_param(diagram.params, p.param), p.state, settings.dedupe_tol)

    found: list[Solution] = []
    for br in diagram.branches:
        if br.origin.kind == "trivial":
            continue
        for pt, a, b in corrections(br):
            if _near_any_trivial(model, params_at, pt.state, settings.dedupe_tol):
                if off_trivial(a) and off_trivial(b):
                    logger.warning("slice correction on %s from the segment between param=%r and param=%r "
                                   "landed on a trivial state: dropped", br.id, a.param, b.param)
                continue
            if any(_sup(pt.state - s.state) <= settings.dedupe_tol for s in found):
                continue
            found.append(
                Solution(
                    param=param,
                    state=pt.state,
                    residual_norm=pt.residual_norm,
                    branch_id=br.id,
                    origin=br.origin.describe(),
                )
            )
    return found


#: House continuation windows, keyed by the continued parameter.
_DEFAULT_WINDOWS = {
    "epsilon": dict(param_min=0.05, param_max=0.7, initial_step=2e-3, min_step=1e-7, max_step=4e-3),
    "gamma": dict(param_min=0.0, param_max=2000.0, initial_step=10.0, min_step=1e-4, max_step=25.0),
}


def default_settings(model_kind: str, **overrides) -> ContinuationSettings:
    """House defaults per model: scan windows sized to the known mode spacing.

    The window follows the model's continued parameter.  AC/CH in epsilon:
    [0.05, 0.7] at 2e-3 scan step (adjacent crossings are never closer than
    ~4.8e-3 there); ACOK in gamma: [0, 2000] at step 10 (crossings separated
    by >= ~93 at epsilon = 0.3).
    """
    if model_kind not in MODELS:
        raise ValueError(f"unknown model kind {model_kind!r}; expected one of {sorted(MODELS)}")
    return ContinuationSettings(**{**_DEFAULT_WINDOWS[MODELS[model_kind].active_parameter], **overrides})
