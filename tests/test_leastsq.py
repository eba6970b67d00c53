import numpy as np
import pytest
from scipy.optimize import curve_fit

from fwcibench import leastsq
from fwcibench.leastsq import _solve, damped_least_squares, damped_least_squares_batch


def finite(ps):
    return np.isfinite(ps).all(axis=-1)


def test_linear_model_matches_normal_equations():
    rng = np.random.default_rng(0)
    x = np.linspace(0, 10, 40)
    y = 3.0 + 0.7 * x + 0.05 * rng.standard_normal(x.size)

    def model(q, cols):
        x, y = cols
        return y - (q[0] + q[1] * x), np.ones_like(x), x

    result = damped_least_squares(model, [0.0, 0.0], np.stack((x, y)), valid=finite)
    ref, *_ = np.linalg.lstsq(np.column_stack((np.ones_like(x), x)), y, rcond=None)
    assert result.converged
    assert np.allclose(result.params, ref, atol=1e-8)


def decay_model(q, cols):
    # y ~ a * exp(-k * x), one (x, y) column per residual row
    x, y = cols
    e = np.exp(-q[1] * x)
    return y - q[0] * e, e, -q[0] * x * e


def test_exponential_decay_matches_curve_fit():
    rng = np.random.default_rng(1)
    x = np.linspace(0, 5, 60)
    y = 2.5 * np.exp(-0.8 * x) + 0.01 * rng.standard_normal(x.size)

    result = damped_least_squares(decay_model, [1.0, 1.0], np.stack((x, y)), valid=finite)
    ref, _ = curve_fit(lambda x, a, k: a * np.exp(-k * x), x, y, p0=[1.0, 1.0])
    assert result.converged
    assert np.allclose(result.params, ref, atol=1e-6)


def slope_model(q, cols):
    # y ~ a * x, one (x, y) column per residual row
    x, y = cols
    return y - q[0] * x, x


def test_zero_residual_converges_immediately():
    x = np.linspace(1, 4, 10)
    result = damped_least_squares(slope_model, [5.0], np.stack((x, 5.0 * x)), valid=finite)
    assert result.converged
    assert result.cost == pytest.approx(0.0, abs=1e-20)


def test_nonfinite_initial_residual_raises():
    with pytest.raises(ValueError, match="not finite"):
        damped_least_squares(slope_model, [1.0], np.array([[1.0], [np.nan]]), valid=finite)


def test_start_outside_the_domain_raises():
    with pytest.raises(ValueError, match="outside the model domain"):
        damped_least_squares(slope_model, [-1.0], np.array([[1.0], [2.0]]), valid=lambda ps: ps[:, 0] > 0)


def test_valid_constraint_keeps_iterates_legal():
    # minimize (p - (-2))^2 but forbid negative p: optimizer must stop at a
    # valid iterate instead of stepping into the forbidden region
    result = damped_least_squares(slope_model, [1.0], np.array([[1.0], [-2.0]]), valid=lambda ps: ps[:, 0] > 0)
    assert result.params[0] > 0


def test_iteration_cap_reported(monkeypatch):
    # gradient of |p|^0.5-like flat valley: force slow progress with a tiny cap
    monkeypatch.setattr(leastsq, "_MAX_ITER", 1)
    x = np.linspace(0, 1, 20)

    def rate_model(q, cols):
        x, y = cols
        e = np.exp(-q[0] * x)
        return y - e, -x * e

    result = damped_least_squares(rate_model, [50.0], np.stack((x, np.exp(-3.0 * x))), valid=finite)
    assert result.n_iter <= 1
    assert not result.converged


def linear_model(q, cols):
    # y ~ a * u + b * v, one (u, v, y) column per residual row
    u, v, y = cols
    return y - (q[0] * u + q[1] * v), u, v


def result_key(result, i):
    return [v.hex() for v in result.params[i].tolist()], result.cost[i].hex(), int(result.n_iter[i]), bool(result.converged[i])


def test_batch_gives_each_problem_its_result_alone_bit_for_bit(monkeypatch):
    x = np.linspace(0, 10, 40)
    line = np.stack((np.ones_like(x), x, 3.0 + 0.7 * x + 0.05 * np.random.default_rng(0).standard_normal(x.size)))
    nonfinite = line.copy()
    nonfinite[2, 5] = np.inf
    near_collinear = np.stack((np.ones_like(x), x + 1e3, 2.0 + 0.5 * x))
    problems = [
        ([0.0, 0.0], line),  # converges within the cap
        ([-5.0, 0.0], line),  # starts outside the domain
        ([0.0, 0.0], nonfinite),  # its cost is not finite at the start
        ([0.0, 0.0], near_collinear),  # stopped by the cap
        ([1.0, 1.0], np.array([[2.0], [1.0], [4.0]])),  # one row, fitted exactly
    ]
    # the one-row problem is padded to the others' 40 cells with zero cells, where linear_model is exactly 0
    p0 = np.array([start for start, _ in problems])
    cols = np.stack([np.pad(c, ((0, 0), (0, 40 - c.shape[1]))) for _, c in problems], axis=1)
    monkeypatch.setattr(leastsq, "_MAX_ITER", 4)
    kwargs = dict(valid=lambda ps: ps[:, 0] > -1)
    block = damped_least_squares_batch(linear_model, p0, cols, **kwargs)
    assert list(zip(block.n_iter.tolist(), block.converged.tolist())) == [
        (4, True),
        (0, False),
        (0, False),
        (4, False),
        (4, True),
    ]
    alone = [damped_least_squares_batch(linear_model, p0[i : i + 1], cols[:, i : i + 1], **kwargs) for i in range(5)]
    assert [result_key(block, i) for i in range(5)] == [result_key(r, 0) for r in alone]
    reversed_block = damped_least_squares_batch(linear_model, p0[::-1], cols[:, ::-1], **kwargs)
    assert [result_key(reversed_block, 4 - i) for i in range(5)] == [result_key(r, 0) for r in alone]


def test_a_singular_damped_system_rejects_only_its_own_step():
    # J'J + lam * diag(J'J) stays regular for finite J at lam >= 1e-12, so the
    # solver's fallback is checked directly: the singular system's step is NaN,
    # which no trial accepts, and the others equal their solves alone
    damped = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]], [[4.0, 0.5], [0.5, 1.0]]])
    grad = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, -1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(damped[1:2], grad[1:2, :, None])
    step = _solve(damped, grad)
    assert np.isnan(step[1]).all()
    for i in (0, 2):
        assert step[i].tolist() == np.linalg.solve(damped[i : i + 1], grad[i : i + 1, :, None])[0, :, 0].tolist()


def reference_lm(residual, jacobian, p0, valid, max_iter=200):
    """The one-problem loop the batch replaced, kept as its oracle: (params, converged)."""
    p = np.asarray(p0, dtype=float).copy()
    r = residual(p)
    cost, lam, converged = float(r @ r), 1e-3, False
    for _ in range(max_iter):
        jac = jacobian(p)
        grad, hess = jac.T @ r, jac.T @ jac
        diag = hess.diagonal().copy()
        diag[diag <= 0] = 1.0
        if not (np.isfinite(grad).all() and np.isfinite(hess).all()):
            break
        accepted = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(hess + np.diag(lam * diag), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = p + step
            if not valid(trial):
                lam *= 10.0
                continue
            r_trial = residual(trial)
            cost_trial = float(r_trial @ r_trial)
            if np.isfinite(cost_trial) and cost_trial <= cost:
                p, r, cost, lam, accepted = trial, r_trial, cost_trial, max(lam * 0.1, 1e-12), True
                converged = np.hypot.reduce(step) <= 1e-10 * (1e-10 + np.hypot.reduce(p))
                break
            lam *= 10.0
        if not accepted or converged:
            break
    return p, bool(converged)


def scaled_lognormal(q, cols):
    # counts y at bin centers x = e^t against (A / x) exp(-(t - mu)^2 / (2 sigma^2))
    t, y, x = cols
    amp, mu, sigma = q
    z = (t - mu) / sigma
    shape = np.exp(-0.5 * z * z) / x
    return y - amp * shape, shape, amp * shape * z / sigma, amp * shape * z * z / sigma


def padded(cols, length):
    """(t, y, x) columns padded to ``length`` cells that keep the last t and get y = 0 and x = inf,
    where every array scaled_lognormal returns is 0."""
    t, y, x = cols
    pad = length - t.size
    return np.stack((np.pad(t, (0, pad), mode="edge"), np.pad(y, (0, pad)), np.pad(x, (0, pad), constant_values=np.inf)))


def test_batch_agrees_with_the_one_problem_loop_it_replaced():
    # The two loops sum J'J and J'r in different orders, so each stops within its
    # 1e-10 relative step of the same minimum; 1e-8 of the parameter norm allows
    # for a hundred such steps.
    values = np.exp(np.random.default_rng(3).normal(-0.08, 0.93, 2500))
    problems = []
    for lo, n_bins in [(0.0, 20), (0.0, 57), (0.1, 80), (0.1, 333), (1.0, 120), (0.0, 800)]:
        counts, edges = np.histogram(values, bins=n_bins, range=(lo, 8.0))
        x = (edges[:-1] + edges[1:]) / 2
        peak = int(np.argmax(counts))
        problems.append(([counts[peak] * x[peak], -0.1, 0.9], np.stack((np.log(x), counts.astype(float), x))))
    block = np.stack([padded(cols, 800) for _, cols in problems], axis=1)

    def valid(ps):
        return np.isfinite(ps).all(axis=-1) & (ps[..., 0] > 0) & (ps[..., 2] > 0)

    batch = damped_least_squares_batch(scaled_lognormal, np.array([p0 for p0, _ in problems]), block, valid=valid)
    for i, (p0, cols) in enumerate(problems):
        params, converged = reference_lm(
            lambda p: scaled_lognormal(p, cols)[0], lambda p: np.stack(scaled_lognormal(p, cols)[1:], axis=1), p0, valid
        )
        assert batch.converged[i] == converged
        assert np.linalg.norm(batch.params[i] - params) <= 1e-8 * np.linalg.norm(params)
