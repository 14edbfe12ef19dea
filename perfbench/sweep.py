"""Kernel sweep: ``lu_factor`` / ``lu_solve`` on real model Jacobians by size.

The AC Jacobian is tridiagonal and the ACOK Jacobian is dense (nonlocal Green
operator); both are assembled by the models at a nonconstant state, so the
kernels see the matrices the engine factors.  Times are medians per call.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

SIZES = (100, 200, 800, 4096)


def _median_ms(fn, reps: int) -> tuple[float, object]:
    times, out = [], None
    for _ in range(reps):
        t0 = perf_counter()
        out = fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3, out


def _jacobian(models, kind: str, n: int) -> np.ndarray:
    grid = models.GridSpec(n)
    x = grid.nodes
    if kind == "ac":
        return models.model_by_kind("ac", grid).jacobian(0.5 * np.cos(np.pi * x), models.ModelParams(epsilon=0.1))
    return models.model_by_kind("acok", grid).jacobian(
        0.5 + 0.2 * np.cos(np.pi * x), models.ModelParams(epsilon=0.3, gamma=1000.0))


def _clear_caches(models) -> None:
    # The models cache one Laplacian and Green operator per grid; at the
    # largest size these are hundreds of MB, so drop them between sizes.
    for name in ("laplacian_matrix", "green_operator"):
        clear = getattr(getattr(models, name, None), "cache_clear", None)
        if clear is not None:
            clear()
    gc.collect()


def metric_name(kind: str, what: str, n: int) -> str:
    return f"linalg.sweep.{kind}.{what}.n{n}"


def kernel_sweep(linalg, models, sizes=SIZES) -> dict[str, tuple[float, str]]:
    """{metric_name(kind, "factor_ms" | "solve_ms", n): (ms, "ms")}; empty if a kernel is gone."""
    lu_factor = getattr(linalg, "lu_factor", None)
    lu_solve = getattr(linalg, "lu_solve", None)
    if lu_factor is None or lu_solve is None:
        return {}
    out = {}
    for n in sizes:
        reps = 7 if n <= 200 else 3 if n <= 1000 else 1
        for kind in ("ac", "acok"):
            jac = _jacobian(models, kind, n)
            rhs = np.ones(jac.shape[0])
            factor_ms, fact = _median_ms(lambda: lu_factor(jac), reps)
            solve_ms, _ = _median_ms(lambda: lu_solve(fact, rhs), reps)
            out[metric_name(kind, "factor_ms", n)] = (factor_ms, "ms")
            out[metric_name(kind, "solve_ms", n)] = (solve_ms, "ms")
            del jac, fact
            _clear_caches(models)
    return out
