"""Trailing-axis frame integrator that only the tests use: the reference for
the component-major one in :mod:`spinpulse.trajectory`.

It holds every quaternion in a trailing axis of length 4 and runs the lanes
end to end on the step axis, with the same stage rule, RK4 stage recurrence,
drift guard, Hermite anchor and Hamilton formula, so its frames are the
library's bit for bit and its memory peak is the bound the library's stays under.
"""

import numpy as np

from spinpulse.su2 import CONJUGATE_Q, IDENTITY_Q, quaternion_product
from spinpulse.trajectory import STEP_DRIFT, _anchor, _bracket, _rk4_steps, _stage_amplitudes


def trailing_prefix_products(steps: np.ndarray) -> np.ndarray:
    """Inclusive products q_k ... q_1 along axis -2 (later steps on the left).

    A scan of log2(n) levels, each one batched Hamilton product.
    """
    out = steps.copy()
    d = 1
    while d < out.shape[-2]:
        out[..., d:, :] = quaternion_product(out[..., d:, :], out[..., :-d, :])
        d *= 2
    return out


def trailing_frame_quaternions(shape, grid: np.ndarray) -> np.ndarray:
    """Unit frames W(t) = U(t, 0) U(tau_s, 0)^dag of ``shape``: (n, 4), or (m, n, 4) for lanes."""
    m, n = np.size(shape.tau_s), len(grid)
    v1, v2, v3 = (v.reshape(m, n - 1, 3) for v in _stage_amplitudes(shape, grid))
    # the generator -i sigma . v is the pure quaternion (0, v)
    g = np.zeros((3, m * (n - 1), 4))
    g[0, :, 1:], g[1, :, 1:], g[2, :, 1:] = (v.reshape(-1, 3) for v in (v1, v2, v3))
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _rk4_steps(*g, np.tile(np.diff(grid), m), quaternion_product, IDENTITY_Q)
        drift = np.max(np.abs(np.linalg.norm(steps, axis=-1) - 1.0))
    if not drift <= STEP_DRIFT:
        if not np.isfinite(drift):
            raise ValueError("trajectory frames must be unit quaternions, but an RK4 step is "
                             "not finite: the amplitude overflows the step products")
        raise ValueError(f"trajectory frames must be unit quaternions, but an RK4 step "
                         f"drifts {drift:.3g} from unit norm (limit {STEP_DRIFT:g}): "
                         "the grid does not resolve the pulse")
    u = trailing_prefix_products(np.concatenate([np.tile(IDENTITY_Q, (m, 1, 1)),
                                                 steps.reshape(m, -1, 4)], axis=1))
    lane, tau_s = np.arange(m), np.atleast_1d(shape.tau_s)
    j, h, x = _bracket(grid, tau_s)
    ends = u[lane[:, None], j[:, None] + [0, 1]]            # U at the two nodes, (m, 2, 4)
    anchor, _ = _anchor(ends, v1[lane, j], v3[lane, j], h, x)
    q = quaternion_product(u, anchor[:, None, :] * CONJUGATE_Q)
    q[grid == tau_s[:, None]] = IDENTITY_Q
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    return q.reshape(np.shape(shape.tau_s) + (n, 4))
