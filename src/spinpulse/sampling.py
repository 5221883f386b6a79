"""Seeded random pulses and constraint-manifold trajectory sampling.

``nogo`` runs its samples as lanes: one lane shape of consecutive draws (the
lone draws' random stream, taken by one ``rng.random`` call), one frame
integration, one pi-closing per chunk.  A lone random pulse is the one-lane
case of the same draw.
"""

from __future__ import annotations

import numpy as np

from .pulses import FourierCoefficients, PulseShape
from .trajectory import NTrajectory, integrate_axis_angle, n_trajectory

PI_CLOSE_FRACTION = 0.15      # share of the path, at its end, that pi-closing replaces


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """Uniform draws on [low, high) from uniforms u on [0, 1), as ``rng.uniform`` makes
    them: high - low is rounded as written (0.8 - 0.2 is 0.6000000000000001, not 0.6)."""
    return low + (high - low) * u


def _random_fourier_draws(rng: np.random.Generator, lanes: int, order: int, scale: float,
                          draw_tau_s: bool):
    """(cos (lanes, 3, order + 1), sin (lanes, 3, order), tau_s (lanes,) or None):
    ``lanes`` random smooth pi pulses on tau_p = 1 from one draw.

    Each lane takes its uniforms in the order of the lone draws: per component
    the order + 1 cosine and then the order sine coefficients, then tau_s on
    [0.2, 0.8) if ``draw_tau_s``.  One ``rng.random`` call takes them all, so
    consecutive lanes are consecutive lone draws bit for bit.
    """
    width = 2 * order + 1
    u = rng.random((lanes, 3 * width + draw_tau_s))
    amp = scale * np.pi / 2.0
    decay = (1.0 + np.arange(order + 1)) ** 1.5
    coeff = _uniform(u[:, :3 * width], -1.0, 1.0).reshape(lanes, 3, width) * amp
    tau_s = _uniform(u[:, -1], 0.2, 0.8) if draw_tau_s else None
    return coeff[..., :order + 1] / decay, coeff[..., order + 1:] / decay[1:], tau_s


def random_fourier_shape(rng: np.random.Generator, order: int = 4, scale: float = 1.0,
                         tau_s: float | None = None) -> PulseShape:
    """Random smooth pi pulse on tau_p = 1, amplitude scale ~ pi/2 with decaying harmonics."""
    cos, sin, drawn = _random_fourier_draws(rng, 1, order, scale, tau_s is None)
    return PulseShape(1.0, float(drawn[0]) if tau_s is None else tau_s, np.pi, "fourier",
                      fourier=FourierCoefficients(cos[0], sin[0]))


def random_ntrajectory(rng: np.random.Generator, samples: int,
                       steps: int) -> tuple[NTrajectory, np.ndarray]:
    """(n(t) of ``samples`` random pulses as lanes (samples, n, 3), their tau_s (samples,)),
    the pulses those of ``samples`` consecutive :func:`random_fourier_shape` calls."""
    cos, sin, tau_s = _random_fourier_draws(rng, samples, 4, 1.0, True)
    lanes = PulseShape(1.0, tau_s, np.pi, "fourier", fourier=FourierCoefficients(cos, sin))
    return n_trajectory(integrate_axis_angle(lanes, steps)), tau_s


def _slerp(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Great circle from unit vectors a to b (..., 3) at fractions s (k,): (..., k, 3).

    The path is cos(s w) a + sin(s w) u, with w the angle between a and b and
    u the unit tangent at a toward b.  Where b is (anti)parallel to a within
    1e-9, that tangent is any perpendicular: a x x, or a x y when |a x x| =
    hypot(a_y, a_z) is below 1e-6.
    """
    cos_w = np.sum(a * b, axis=-1, keepdims=True)
    tangent = b - cos_w * a
    sin_w = np.linalg.norm(tangent, axis=-1, keepdims=True)
    perp = np.cross(a, np.where(np.hypot(a[..., 1:2], a[..., 2:]) < 1e-6, [0.0, 1.0, 0.0],
                                [1.0, 0.0, 0.0]))
    u = np.where(sin_w > 1e-9, tangent, perp)
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    angle = np.arctan2(sin_w, cos_w) * s                 # (..., k)
    out = np.cos(angle)[..., None] * a[..., None, :] + np.sin(angle)[..., None] * u[..., None, :]
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


def pi_close_ntrajectory(ntraj: NTrajectory) -> NTrajectory:
    """Replace the final stretch with a geodesic landing exactly on n(tp) = -n(0).

    Samples the constraint manifold of the pi condition rather than its
    neighborhood; the junction is continuous.  Lanes (..., n, 3) share the cut.
    """
    n, grid, nhat = ntraj.n_nodes, ntraj.grid, ntraj.nhat
    cut = min(n - 2, max(1, int(np.floor((1.0 - PI_CLOSE_FRACTION) * (n - 1)))))
    s = (grid[cut:] - grid[cut]) / (grid[-1] - grid[cut])
    tail = _slerp(nhat[..., cut, :], -nhat[..., 0, :], s)
    return NTrajectory(grid=grid.copy(), nhat=np.concatenate([nhat[..., :cut, :], tail], axis=-2))
