"""Seeded random pulses and constraint-manifold trajectory sampling.

``nogo`` runs its samples as lanes: one lane shape of consecutive draws (the
lone draws' random stream), one frame integration, one pi-closing per chunk.
"""

from __future__ import annotations

import numpy as np

from .pulses import FourierCoefficients, PulseShape
from .trajectory import NTrajectory, integrate_axis_angle, n_trajectory

PI_CLOSE_FRACTION = 0.15      # share of the path, at its end, that pi-closing replaces


def random_fourier_shape(rng: np.random.Generator, order: int = 4, scale: float = 1.0,
                         tau_s: float | None = None) -> PulseShape:
    """Random smooth pi pulse on tau_p = 1, amplitude scale ~ pi/2 with decaying harmonics."""
    coeff = FourierCoefficients.zeros(order)
    amp = scale * np.pi / 2.0
    decay = (1.0 + np.arange(order + 1)) ** 1.5
    for i in range(3):
        coeff.cos[i] = rng.uniform(-1.0, 1.0, order + 1) * amp / decay
        coeff.sin[i] = rng.uniform(-1.0, 1.0, order) * amp / decay[1:]
    if tau_s is None:
        tau_s = rng.uniform(0.2, 0.8)
    return PulseShape(1.0, tau_s, np.pi, "fourier", fourier=coeff)


def random_ntrajectory(rng: np.random.Generator, samples: int,
                       steps: int) -> tuple[NTrajectory, np.ndarray]:
    """(n(t) of ``samples`` random pulses as lanes (samples, n, 3), their tau_s (samples,))."""
    shapes = [random_fourier_shape(rng) for _ in range(samples)]
    tau_s = np.array([shape.tau_s for shape in shapes])
    coeff = FourierCoefficients(np.stack([shape.fourier.cos for shape in shapes]),
                                np.stack([shape.fourier.sin for shape in shapes]))
    lanes = PulseShape(1.0, tau_s, np.pi, "fourier", fourier=coeff)
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
