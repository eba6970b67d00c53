"""Damped iterative least squares (Levenberg-Marquardt) for small curve fits, one or many at a time."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

# Residual rows in one lockstep loop at a time: enough problems to share NumPy's per-call cost, and
# few enough that no array of the loop reaches 128 KB, where glibc would map fresh pages for it on
# every call.
_MAX_ROWS = 4096
_MAX_ITER = 200


@dataclass
class LeastSquaresResult:
    params: np.ndarray
    cost: float
    n_iter: int
    converged: bool


def damped_least_squares(
    model: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, ...]],
    p0,
    cols: np.ndarray,
    *,
    valid: Callable[[np.ndarray], np.ndarray],
) -> LeastSquaresResult:
    """Minimize one problem's sum of squares: the one-problem case of :func:`damped_least_squares_batch`.

    ``model``, ``cols`` and ``valid`` follow that function's convention. A start outside the model's
    domain, or with a non-finite residual, raises ValueError.
    """
    p = np.asarray(p0, dtype=float)
    if not valid(p[None])[0]:
        raise ValueError("initial parameters are outside the model domain")
    (result,) = damped_least_squares_batch(model, [(p, cols)], valid=valid)
    if not math.isfinite(result.cost):
        raise ValueError("residual is not finite at the initial parameters")
    return result


def damped_least_squares_batch(
    model: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, ...]],
    problems: Iterable[tuple[np.ndarray, np.ndarray]],
    *,
    valid: Callable[[np.ndarray], np.ndarray],
) -> list[LeastSquaresResult]:
    """Minimize independent sums of squares in one lockstep damped Gauss-Newton loop.

    ``problems`` yields (p0, data): a start, and the constants of the problem's residual rows as the
    columns of ``data``, shape (d, n >= 1). ``model(q, cols)`` gets several problems' columns side by
    side, with ``q[:, j]`` the parameters of column j's problem, and returns 1 + m arrays over those
    columns: the residual (data minus model), then the model's derivative in each parameter.
    ``valid(ps)`` says which rows of ``ps`` lie in the model's domain. Problems join the working set
    in order, up to _MAX_ROWS rows (or one problem alone) whenever it holds at most half that, and
    leave it when they finish. Results come back in the order of ``problems``.

    Each problem keeps its own damping and stopping rules. A step solves (J'J + lam diag(J'J)) d = J'r,
    zeros on that diagonal read as 1, and is accepted only if the cost does not increase; a singular
    system, a trial outside the domain or a non-finite trial cost rejects it. lam starts at 1e-3 and
    is multiplied by 10 on a rejection and by 0.1 (down to 1e-12) on an acceptance. A problem
    converges when an accepted step is below 1e-10 of its parameter norm, and stops unconverged on a
    non-finite J'J or J'r, after _MAX_ITER (200) iterations (the start begins the first, each accepted
    step the next) or when lam passes 1e12. A start outside the domain or with a non-finite cost is
    not iterated: n_iter 0. Each sum runs over one problem's rows alone, so no result depends on the
    problems it ran with.
    """
    # Each sum a step needs is a segment sum of a product of two of model()'s arrays: pair (0, 0) is
    # the cost, (0, j) is (J'r)_j and (i, j) is (J'J)_ij. Products stay 1-D, 32 KB at 4,096 rows.
    queue, results = iter(problems), []
    head = next(queue, None)
    if head is None:
        return results
    m = len(head[0])
    pairs = [(i, j) for i in range(m + 1) for j in range(i, m + 1)]
    grad_at, on_diag = [pairs.index((0, j)) for j in range(1, m + 1)], np.arange(m)
    hess_at = [pairs.index((min(i, j), max(i, j))) for i in range(1, m + 1) for j in range(1, m + 1)]

    def sums(p: np.ndarray, cols: np.ndarray, n: np.ndarray) -> np.ndarray:
        out, starts = model(np.repeat(p.T, n, axis=1), cols), np.cumsum(n) - n
        return np.stack([np.add.reduceat(out[i] * out[j], starts) for i, j in pairs], axis=-1)

    def finish(ids, p, cost, n_iter, converged) -> None:
        for i, *result in zip(ids.tolist(), p, cost.tolist(), n_iter.tolist(), converged.tolist()):
            results[i] = LeastSquaresResult(*result)

    live, it, n = (np.empty(0, dtype=int) for _ in range(3))
    p, s, lam = np.empty((0, m)), np.empty((0, len(pairs))), np.empty(0)
    cols = np.asarray(head[1], dtype=float)[:, :0]
    while live.size or head is not None:
        if head is not None and 2 * n.sum() <= _MAX_ROWS:
            new, rows = [], n.sum()
            while head is not None and (not new or rows + head[1].shape[1] <= _MAX_ROWS):
                new.append(head)
                rows += head[1].shape[1]
                head = next(queue, None)
            p0, n0 = np.array([start for start, _ in new], dtype=float), np.array([d.shape[1] for _, d in new])
            if np.any(n0 < 1):
                raise ValueError("every problem needs at least one residual row")
            ok = valid(p0)
            ids = len(results) + np.flatnonzero(ok)
            results.extend(LeastSquaresResult(start, math.nan, 0, False) for start in p0)
            c0 = np.compress(np.repeat(ok, n0), np.concatenate([d for _, d in new], axis=1), axis=1)
            p0, n0 = p0[ok], n0[ok]
            s0 = sums(p0, c0, n0)
            begun = np.isfinite(s0[:, 0])
            go = begun & np.isfinite(s0).all(axis=1)
            finish(ids[~go], p0[~go], s0[~go, 0], begun[~go].astype(int), go[~go])
            cols = np.concatenate((cols, np.compress(np.repeat(go, n0), c0, axis=1)), axis=1)
            joined = (ids[go], p0[go], s0[go], np.full(go.sum(), 1e-3), np.ones(go.sum(), dtype=int), n0[go])
            live, p, s, lam, it, n = (np.concatenate(pair) for pair in zip((live, p, s, lam, it, n), joined))
        if not live.size:
            continue

        damped = s[:, hess_at].reshape(-1, m, m)
        diag = damped[:, on_diag, on_diag]
        damped[:, on_diag, on_diag] = diag + lam[:, None] * np.where(diag > 0, diag, 1.0)
        step = _solve(damped, s[:, grad_at])
        trial = p + step
        ok = valid(trial)
        s_trial = sums(np.where(ok[:, None], trial, p), cols, n)
        accept = ok & (s_trial[:, 0] <= s[:, 0])  # a NaN or infinite trial cost compares False
        p, s = np.where(accept[:, None], trial, p), np.where(accept[:, None], s_trial, s)
        lam = np.where(accept, np.maximum(lam * 0.1, 1e-12), lam * 10.0)
        # hypot cannot overflow; initial=0 makes a one-parameter norm |x|
        small = np.hypot.reduce(step, axis=1, initial=0.0) <= 1e-10 * (1e-10 + np.hypot.reduce(p, axis=1, initial=0.0))
        more = accept & ~small & (it < _MAX_ITER)
        it += more
        go_on = np.where(accept, more & np.isfinite(s).all(axis=1), lam <= 1e12)
        if not go_on.all():
            finish(live[~go_on], p[~go_on], s[~go_on, 0], it[~go_on], (accept & small)[~go_on])
            cols = np.compress(np.repeat(go_on, n), cols, axis=1)
            live, p, s, lam, it, n = (a[go_on] for a in (live, p, s, lam, it, n))
    return results


def _solve(damped: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Stacked solves of damped @ d = grad, with d = NaN (a rejected step) where damped is singular."""
    try:
        return np.linalg.solve(damped, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(grad) == 1:
            return np.full_like(grad, np.nan)
        return np.concatenate([_solve(damped[i : i + 1], grad[i : i + 1]) for i in range(len(grad))])
