"""Damped iterative least squares (Levenberg-Marquardt) for small curve fits, one or a block at a time."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_MAX_ITER = 200


@dataclass
class LeastSquaresResult:
    """A fit's outcome; from :func:`damped_least_squares_batch` each field holds one entry per problem."""

    params: np.ndarray
    cost: float
    n_iter: int
    converged: bool


def damped_least_squares(
    model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    p0,
    cols: np.ndarray,
    *,
    valid: Callable[[np.ndarray], np.ndarray],
) -> LeastSquaresResult:
    """Minimize one problem's sum of squares: a one-row block of :func:`damped_least_squares_batch`.

    ``cols`` holds the problem's columns, shape (d, n); ``model`` and ``valid`` follow that function's
    convention. A start outside the model's domain, or with a non-finite residual, raises ValueError.
    """
    p = np.asarray(p0, dtype=float)
    if not valid(p[None])[0]:
        raise ValueError("initial parameters are outside the model domain")
    result = damped_least_squares_batch(model, p[None], np.asarray(cols, dtype=float)[:, None], valid=valid)
    if not math.isfinite(result.cost[0]):
        raise ValueError("residual is not finite at the initial parameters")
    return LeastSquaresResult(result.params[0], float(result.cost[0]), int(result.n_iter[0]), bool(result.converged[0]))


def damped_least_squares_batch(
    model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    p0: np.ndarray,
    cols: np.ndarray,
    *,
    valid: Callable[[np.ndarray], np.ndarray],
) -> LeastSquaresResult:
    """Minimize a block of independent sums of squares in one lockstep damped Gauss-Newton loop.

    Problem i starts at ``p0[i]``, shape (R, m), and its residual cells are ``cols[:, i]``, shape
    (d, R, L): every problem has L cells, and a caller pads a shorter one with cells at which every
    array ``model`` returns is exactly zero, so they add nothing to any sum. ``model(q, cols)`` gets
    the block's live rows, with ``q[k]`` the k-th parameter of each row, shape (m, R', 1), and returns
    1 + m arrays of shape (R', L), stacked or in a sequence: the residual (data minus model), then the
    model's derivative in each parameter. ``valid(ps)`` says which rows of ``ps`` lie in the model's domain. The result's
    fields hold one entry per problem, in the order of ``p0``.

    Each problem keeps its own damping and stopping rules. A step solves (J'J + lam diag(J'J)) d = J'r,
    zeros on that diagonal read as 1, and is accepted only if the cost does not increase; a singular
    system, a trial outside the domain or a non-finite trial cost rejects it. lam starts at 1e-3 and
    is multiplied by 10 on a rejection and by 0.1 (down to 1e-12) on an acceptance. A problem
    converges when an accepted step is below 1e-10 of its parameter norm, and stops unconverged on a
    non-finite J'J or J'r, after _MAX_ITER (200) iterations (the start begins the first, each accepted
    step the next) or when lam passes 1e12; it then leaves the block. A start outside the domain or
    with a non-finite cost is not iterated: n_iter 0. The cost, J'r and J'J of a row are one per-row
    contraction of that row's own arrays over its L cells, so no result depends on the problems it
    ran with, only on its cells and its L.
    """
    p = np.array(p0, dtype=float)
    eye = np.eye(p.shape[1])
    params, cost = p.copy(), np.full(len(p), np.nan)
    n_iter, converged = np.zeros(len(p), dtype=int), np.zeros(len(p), dtype=bool)

    def gram(p: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # [[cost, J'r], [J'r, J'J]] per row: every pair of the model's arrays, dotted over the row's cells
        out = np.asarray(model(p.T[:, :, None], cols))
        return np.vecdot(out[:, None], out[None]).transpose(2, 0, 1)

    live = np.flatnonzero(valid(p))
    p, cols = p[live], cols[:, live]
    g = gram(p, cols)
    begun = np.isfinite(g[:, 0, 0])
    go = begun & np.isfinite(g).all(axis=(1, 2))
    params[live[~go]], cost[live[~go]], n_iter[live[~go]] = p[~go], g[~go, 0, 0], begun[~go]
    live, p, g, cols = live[go], p[go], g[go], cols[:, go]
    lam, it = np.full(len(live), 1e-3), np.ones(len(live), dtype=int)
    while live.size:
        hess = g[:, 1:, 1:]
        diag = hess.diagonal(axis1=1, axis2=2)
        step = _solve(hess + (lam[:, None] * np.where(diag > 0, diag, 1.0))[:, :, None] * eye, g[:, 0, 1:])
        trial = p + step
        ok = valid(trial)
        g_trial = gram(np.where(ok[:, None], trial, p), cols)
        accept = ok & (g_trial[:, 0, 0] <= g[:, 0, 0])  # a NaN or infinite trial cost compares False
        p, g = np.where(accept[:, None], trial, p), np.where(accept[:, None, None], g_trial, g)
        lam = np.maximum(lam * np.where(accept, 0.1, 10.0), 1e-12)  # lam >= 1e-12 already, so the floor binds on 0.1 only
        # hypot cannot overflow; initial=0 makes a one-parameter norm |x|
        small = np.hypot.reduce(step, axis=1, initial=0.0) <= 1e-10 * (1e-10 + np.hypot.reduce(p, axis=1, initial=0.0))
        more = accept & ~small & (it < _MAX_ITER)
        it += more
        go_on = np.where(accept, more & np.isfinite(g).all(axis=(1, 2)), lam <= 1e12)
        if not go_on.all():
            done, stop = live[~go_on], ~go_on
            params[done], cost[done], n_iter[done], converged[done] = p[stop], g[stop, 0, 0], it[stop], (accept & small)[stop]
            live, p, g, lam, it, cols = live[go_on], p[go_on], g[go_on], lam[go_on], it[go_on], cols[:, go_on]
    return LeastSquaresResult(params, cost, n_iter, converged)


def _solve(damped: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Stacked solves of damped @ d = grad, with d = NaN (a rejected step) where damped is singular."""
    try:
        return np.linalg.solve(damped, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(grad) == 1:
            return np.full_like(grad, np.nan)
        return np.concatenate([_solve(damped[i : i + 1], grad[i : i + 1]) for i in range(len(grad))])
