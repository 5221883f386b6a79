"""The sequential Levenberg-Marquardt loop that only the tests use.

The design loop runs its restarts as lanes of one pool
(:func:`spinpulse.design._levenberg_marquardt_pool`).  This loop runs one
restart at a time through one-lane calls: the reference that every lane of
the pool must equal bit for bit.
"""

import numpy as np

from spinpulse.design import STOP_COST, STOP_GRADIENT, RestartRecord


def lone(fun, z: np.ndarray):
    """The one-lane record of the point z (P,)."""
    return fun(np.asarray(z, dtype=float)[None])


def levenberg_marquardt(fun, x0: np.ndarray, max_iter: int = 80):
    """(z, cost, RestartRecord) of damped Gauss-Newton from x0 with multiplicative
    damping (x3 up, /2 down).  A trial point whose evaluation raises
    ``ValueError``, or whose damped system is singular, is a rejected step."""
    point = lone(fun, x0)
    cost = float(point.f[0] @ point.f[0])
    mu, iterations, gradient = 1e-3, 0, float("nan")
    for _ in range(max_iter):
        if cost < STOP_COST:
            return point.z[0], cost, RestartRecord("cost", iterations, mu, cost, gradient)
        jac = fun.jacobian(point)[0]
        grad = jac.T @ point.f[0]
        gradient = float(np.max(np.abs(grad)))
        if gradient < STOP_GRADIENT:
            return point.z[0], cost, RestartRecord("gradient", iterations, mu, cost, gradient)
        jtj = jac.T @ jac
        improved = False
        while mu < 1e12:
            try:
                trial = lone(fun, point.z[0] + np.linalg.solve(jtj + mu * np.eye(len(grad)),
                                                               -grad))
            except ValueError:      # a singular system, or a trial frame the guard rejects
                mu *= 3.0
                continue
            cost_new = float(trial.f[0] @ trial.f[0])
            if np.isfinite(cost_new) and cost_new < cost:
                point, cost = trial, cost_new
                mu = max(mu / 2.0, 1e-14)
                improved = True
                break
            mu *= 3.0
        if not improved:
            return point.z[0], cost, RestartRecord("damping", iterations, mu, cost, gradient)
        iterations += 1
    return point.z[0], cost, RestartRecord("iterations", iterations, mu, cost, gradient)
