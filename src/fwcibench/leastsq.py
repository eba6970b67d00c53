"""Damped iterative least squares (Levenberg-Marquardt) for small curve fits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class LeastSquaresResult:
    params: np.ndarray
    cost: float
    n_iter: int
    converged: bool


def damped_least_squares(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    p0,
    *,
    valid: Callable[[np.ndarray], bool] | None = None,
    max_iter: int = 200,
) -> LeastSquaresResult:
    """Minimize sum(residual(p)**2) with a damped Gauss-Newton iteration.

    ``residual(p)`` returns data minus model; ``jacobian(p)`` returns the
    model's derivative matrix (one column per parameter). Each step solves
    (J'J + lam * diag(J'J)) d = J'r and is accepted only if the cost does not
    increase. The damping lam starts at 1e-3, grows tenfold on a rejected
    step and shrinks tenfold (to no less than 1e-12) on an accepted one.
    ``valid``, when given, marks parameter vectors outside the model's
    domain, and steps into invalid territory are treated as rejected.

    Converged means the accepted step became smaller than 1e-10 relative to
    the parameter vector norm. Hitting ``max_iter`` or damping beyond 1e12
    returns the last iterate with converged=False.
    """
    p = np.asarray(p0, dtype=float).copy()
    if valid is not None and not valid(p):
        raise ValueError("initial parameters are outside the model domain")
    r = np.asarray(residual(p), dtype=float)
    cost = float(r @ r)
    if not math.isfinite(cost):
        raise ValueError("residual is not finite at the initial parameters")

    lam = 1e-3
    n_iter = 0
    converged = False
    on_diag = np.diag_indices(p.size)
    for n_iter in range(1, max_iter + 1):
        jac = np.asarray(jacobian(p), dtype=float)
        grad = jac.T @ r
        hess = jac.T @ jac
        diag = hess.diagonal().copy()
        diag[diag <= 0] = 1.0
        if not (np.isfinite(grad).all() and np.isfinite(hess).all()):
            break

        accepted = False
        while lam <= 1e12:
            damped = hess.copy()
            damped[on_diag] += lam * diag
            try:
                step = np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = p + step
            if valid is not None and not valid(trial):
                lam *= 10.0
                continue
            r_trial = np.asarray(residual(trial), dtype=float)
            cost_trial = float(r_trial @ r_trial)
            if math.isfinite(cost_trial) and cost_trial <= cost:
                p, r, cost = trial, r_trial, cost_trial
                lam = max(lam * 0.1, 1e-12)
                accepted = True
                if math.hypot(*step) <= 1e-10 * (1e-10 + math.hypot(*p)):  # hypot cannot overflow
                    converged = True
                break
            lam *= 10.0
        if not accepted or converged:
            break

    return LeastSquaresResult(params=p, cost=cost, n_iter=n_iter, converged=converged)
