"""Integrated rotation frames of a pulse and the unit-vector trajectory they carry.

A pulse amplitude v(t) generates a 2x2 frame W(t) through i dW/dt = (sigma . v) W
with W(tau_s) = I, integrated forward to tau_p and backward to 0, so the frame
is the accumulated rotation taken from the splitting instant in both time
orderings.  The frame is decomposed as W = cos(psi/2) I - i sin(psi/2) (a . sigma)
with a continuous, unwrapped angle psi (psi(tau_s) = 0) and a unit axis a(t).

Conventions (not forced by the underlying equations, adopted here):
  * psi(tau_s) = 0 and the axis gauge is chosen so that psi initially grows
    along +v just after tau_s;
  * where sin(psi/2) vanishes the axis is continued from the instantaneous
    rotation axis v(t)/|v(t)| (falling back to the previous node), keeping the
    reconstructed amplitude continuous.

Every frame is integrated by one path: classical RK4 on a grid whose nodes
include tau_s, the amplitude breakpoints and any extra pinned times.  A pinned
time moves the nearest node if it lies within a quarter step and that node is
not pinned already, and is inserted otherwise, so pinned times never displace
each other.  The exact oracle integrates on the same grids with the same
stage rule.

The trajectory of n(t) = D_a(-psi) z is the geometric object all correction
functionals are written in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import make_interp_spline

from .policy import NumericPolicy, active_policy
from .pulses import SPLINE_ORDER, PulseShape
from .su2 import PAULI, rotate_vectors

Z_AXIS = np.array([0.0, 0.0, 1.0])
MIN_STEPS = 64


@dataclass(frozen=True)
class AxisAngleTrajectory:
    """Sampled rotation frame: strictly increasing grid, unit axes, continuous angle."""

    grid: np.ndarray       # (n,)
    axis: np.ndarray       # (n, 3)
    angle: np.ndarray      # (n,) unwrapped, radians
    tau_s: float
    unitaries: np.ndarray  # (n, 2, 2) ODE solution the frame was extracted from

    def __post_init__(self):
        policy = active_policy()
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("trajectory grid must be strictly increasing")
        norms = np.linalg.norm(self.axis, axis=1)
        if np.any(np.abs(norms - 1.0) > policy.unit_vector_atol):
            raise ValueError("trajectory axes must be unit vectors")
        if np.any(np.abs(np.diff(self.angle)) >= np.pi):
            raise ValueError("angle steps must stay below pi on the resolved grid")

    @property
    def tau_p(self) -> float:
        return float(self.grid[-1])

    @property
    def n_nodes(self) -> int:
        return len(self.grid)


@dataclass(frozen=True)
class NTrajectory:
    """Unit vectors n(t) = D_a(-psi) z sampled on the trajectory grid."""

    grid: np.ndarray   # (n,)
    nhat: np.ndarray   # (n, 3)

    def __post_init__(self):
        policy = active_policy()
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        norms = np.linalg.norm(self.nhat, axis=1)
        if np.any(np.abs(norms - 1.0) > policy.unit_vector_atol):
            raise ValueError("n(t) samples must be unit vectors")

    @property
    def tau_p(self) -> float:
        return float(self.grid[-1])

    @property
    def n_nodes(self) -> int:
        return len(self.grid)


# ----------------------------------------------------------------------
# grid construction and the frame ODE


def _build_grid(shape: PulseShape, steps: int, pins=()) -> np.ndarray:
    """Uniform grid with tau_s, the amplitude breakpoints and ``pins`` as nodes.

    A pinned time lands on the grid by moving the nearest node when that node
    is closer than a quarter step (keeping spacing well conditioned) and not
    pinned itself, else by insertion; the end points count as pinned.
    """
    grid = np.linspace(0.0, shape.tau_p, steps + 1)
    pinned = np.zeros(len(grid), dtype=bool)
    pinned[[0, -1]] = True
    h = shape.tau_p / steps
    for t in (shape.tau_s, *shape.breakpoints(), *pins):
        j = int(np.argmin(np.abs(grid - t)))
        dist = abs(grid[j] - t)
        if dist <= 1e-12 * shape.tau_p:
            pinned[j] = True
        elif not pinned[j] and dist <= 0.25 * h:
            grid[j] = t
            pinned[j] = True
        else:
            k = int(np.searchsorted(grid, t))
            grid = np.insert(grid, k, t)
            pinned = np.insert(pinned, k, True)
    return grid


def _stage_amplitudes(shape: PulseShape, grid: np.ndarray):
    """v(t) at the start, midpoint and end of every grid interval.

    Piecewise-constant shapes use the midpoint value for all three stage
    evaluations of an interval so that integration never samples across a
    segment boundary.
    """
    v_mid = shape.amplitude(0.5 * (grid[:-1] + grid[1:]))
    if shape.representation == "piecewise_constant":
        return v_mid, v_mid, v_mid
    v_node = shape.amplitude(grid)
    return v_node[:-1], v_mid, v_node[1:]


def _generator_table(shape: PulseShape, grid: np.ndarray):
    """-i sigma . v at the three RK4 stages of every interval."""
    return tuple(-1.0j * np.tensordot(v, PAULI, axes=(1, 0))
                 for v in _stage_amplitudes(shape, grid))


def _project_su2(w: np.ndarray) -> np.ndarray:
    """Polar projection onto U(2), then det normalization onto SU(2)."""
    u, _, vh = np.linalg.svd(w)
    p = u @ vh
    det = np.linalg.det(p)
    return p * np.exp(-0.5j * np.angle(det))


def _rk4_step_matrices(g1, g2, g3, h) -> np.ndarray:
    """Per-step RK4 transfer matrices for the linear ODE W' = G(t) W.

    With stage generators (g1, g2, g3) at the step start, midpoint and end,
    one classical RK4 step is W -> M W with

        M = I + (h/6)(g1 + 4 g2 + g3) + (h^2/6)(g2 g1 + g2^2 + g3 g2)
              + (h^3/12)(g2^2 g1 + g3 g2^2) + (h^4/24) g3 g2^2 g1,

    built here for all steps at once (batched matmuls).
    """
    h = np.asarray(h)[:, None, None]
    g2g1 = g2 @ g1
    g2sq = g2 @ g2
    g3g2 = g3 @ g2
    g2sq_g1 = g2sq @ g1
    eye = np.eye(g1.shape[-1], dtype=complex)
    return (eye
            + (h / 6.0) * (g1 + 4.0 * g2 + g3)
            + (h ** 2 / 6.0) * (g2g1 + g2sq + g3g2)
            + (h ** 3 / 12.0) * (g2sq_g1 + g3 @ g2sq)
            + (h ** 4 / 24.0) * (g3 @ g2sq_g1))


def _scan_steps(w0: np.ndarray, matrices: np.ndarray, interval: int, project):
    """Sequential product w_k = M_k ... M_1 w0 with periodic re-projection."""
    out = np.empty_like(matrices)
    w = w0
    for k in range(len(matrices)):
        w = matrices[k] @ w
        if (k + 1) % interval == 0:
            w = project(w)
        out[k] = w
    return out


def _rk4_sweep(w0: np.ndarray, grid: np.ndarray, h_left, h_mid, h_right,
               start: int, stop: int, direction: int, interval: int):
    """Fixed-step RK4 for W' = G(t) W along grid indices.

    ``direction`` +1 integrates intervals start..stop-1 forward, -1 integrates
    start..stop+1 backward.  Re-projects onto SU(2) every ``interval`` steps.
    Returns the frames at the visited nodes (excluding the start node).
    """
    dt = np.diff(grid)
    if direction > 0:
        sl = slice(start, stop)
        mats = _rk4_step_matrices(h_left[sl], h_mid[sl], h_right[sl], dt[sl])
    else:
        sl = slice(stop, start)
        mats = _rk4_step_matrices(h_right[sl][::-1], h_mid[sl][::-1],
                                  h_left[sl][::-1], -dt[sl][::-1])
    return _scan_steps(w0, mats, interval, _project_su2)


def _quaternion_parts(w: np.ndarray):
    """(c, s) with W = c I - i s . sigma, vectorized over leading axes."""
    c = 0.5 * np.real(w[..., 0, 0] + w[..., 1, 1])
    sx = -0.5 * np.imag(w[..., 0, 1] + w[..., 1, 0])
    sy = 0.5 * np.real(w[..., 1, 0] - w[..., 0, 1])
    sz = -0.5 * np.imag(w[..., 0, 0] - w[..., 1, 1])
    return c, np.stack([sx, sy, sz], axis=-1)


def _bootstrap_axis(v_s: np.ndarray, v_scale: float, svec: np.ndarray,
                    i_s: int, floor: float):
    """Initial axis gauge: +v(tau_s) direction, else nearest resolvable frame."""
    if np.linalg.norm(v_s) > 1e-12 * max(1.0, v_scale):
        return v_s / np.linalg.norm(v_s)
    mags = np.linalg.norm(svec, axis=1)
    order = np.argsort(np.abs(np.arange(len(mags)) - i_s))
    for j in order:
        if mags[j] > floor:
            sign = 1.0 if j > i_s else -1.0
            return sign * svec[j] / mags[j]
    return Z_AXIS.copy()


def _unwrap_frames(v_nodes, c, svec, i_s, axis0, floor):
    """Continuous half-angle and axis along both sweeps away from tau_s."""
    n = len(c)
    phi = np.zeros(n)
    axis = np.zeros((n, 3))
    axis[i_s] = axis0
    v_scale = max(float(np.max(np.linalg.norm(v_nodes, axis=1))), 1e-300)
    mags = np.linalg.norm(svec, axis=1).tolist()
    c_list = c.tolist()
    s_list = svec.tolist()
    v_list = v_nodes.tolist()
    v_floor = 1e-9 * v_scale
    two_pi = 2.0 * np.pi
    for direction in (1, -1):
        ax, ay, az = float(axis0[0]), float(axis0[1]), float(axis0[2])
        phi_prev = 0.0
        rng = range(i_s + 1, n) if direction > 0 else range(i_s - 1, -1, -1)
        for j in rng:
            # the reference axis fixes only the sign and the 2 pi branch; the
            # magnitude |s| is exact, so the recovered angle is too
            sx, sy, sz = s_list[j]
            w = sx * ax + sy * ay + sz * az
            mag = mags[j]
            sign = 1.0 if w >= 0 else -1.0
            raw = math.atan2(sign * mag, c_list[j])
            phi_j = raw + two_pi * round((phi_prev - raw) / two_pi)
            if mag > floor and abs(w) > 0.25 * mag:
                inv = sign / mag
                ax, ay, az = sx * inv, sy * inv, sz * inv
            else:
                # frame at a multiple of a full turn: continue the axis from
                # the instantaneous rotation axis, falling back to the last one
                vx, vy, vz = v_list[j]
                v_norm = math.sqrt(vx * vx + vy * vy + vz * vz)
                if v_norm > v_floor:
                    flip = 1.0 if (vx * ax + vy * ay + vz * az) >= 0 else -1.0
                    inv = flip / v_norm
                    ax, ay, az = vx * inv, vy * inv, vz * inv
            axis[j, 0] = ax
            axis[j, 1] = ay
            axis[j, 2] = az
            phi[j] = phi_j
            phi_prev = phi_j
    return 2.0 * phi, axis


def _frames_on_grid(shape: PulseShape, grid: np.ndarray,
                    policy: NumericPolicy) -> AxisAngleTrajectory:
    """Frames on a grid that has tau_s as a node, decomposed into (axis, angle)."""
    i_s = int(np.argmin(np.abs(grid - shape.tau_s)))
    h_left, h_mid, h_right = _generator_table(shape, grid)
    eye = np.eye(2, dtype=complex)
    n = len(grid)
    frames = np.empty((n, 2, 2), dtype=complex)
    frames[i_s] = eye
    frames[i_s + 1:] = _rk4_sweep(eye, grid, h_left, h_mid, h_right, i_s, n - 1, +1,
                                  policy.projection_interval)
    frames[:i_s] = _rk4_sweep(eye, grid, h_left, h_mid, h_right, i_s, 0, -1,
                              policy.projection_interval)[::-1]

    c, svec = _quaternion_parts(frames)
    v_nodes = shape.amplitude(grid)
    v_scale = float(np.max(np.linalg.norm(v_nodes, axis=1)))
    axis0 = _bootstrap_axis(v_nodes[i_s], v_scale, svec, i_s, policy.axis_floor)
    psi, axis = _unwrap_frames(v_nodes, c, svec, i_s, axis0, policy.axis_floor)
    return AxisAngleTrajectory(grid=grid, axis=axis, angle=psi,
                               tau_s=float(grid[i_s]), unitaries=frames)


def integrate_axis_angle(shape: PulseShape, steps: int | None = None,
                         policy: NumericPolicy | None = None) -> AxisAngleTrajectory:
    """Solve the frame equation from identity at tau_s in both directions.

    Returns the sampled (axis, angle) decomposition with the conventions in
    the module docstring; the closed-form frame rebuilt from (axis, angle)
    matches the integrated unitary at every node.
    """
    policy = policy or active_policy()
    if steps is None:
        steps = policy.ode_steps_default
    if steps < MIN_STEPS:
        raise ValueError(f"at least {MIN_STEPS} integration steps are required")
    return _frames_on_grid(shape, _build_grid(shape, steps), policy)


# ----------------------------------------------------------------------
# conversions


def frame_quaternions(traj: AxisAngleTrajectory):
    """(c, s) components of the closed-form frame at every node."""
    half = 0.5 * traj.angle
    return np.cos(half), np.sin(half)[:, None] * traj.axis


def amplitude_from_axis_angle(traj: AxisAngleTrajectory) -> np.ndarray:
    """Recover v(t) at the trajectory nodes from the sampled frame.

    Differentiates the (smooth) frame quaternion with quintic splines and
    evaluates v = c s' - c' s - s' x s, the quaternion form of
    2v = psi' a + a' sin(psi) - (1 - cos(psi)) (a' x a); the two agree
    identically but the quaternion never degenerates at full turns.
    """
    if traj.n_nodes < 16:
        raise ValueError("trajectory grid too coarse for stable differentiation")
    c, s = frame_quaternions(traj)
    k = min(SPLINE_ORDER, traj.n_nodes - 1)
    c_spl = make_interp_spline(traj.grid, c, k=k)
    s_spl = make_interp_spline(traj.grid, s, k=k, axis=0)
    dc = c_spl.derivative()(traj.grid)
    ds = s_spl.derivative()(traj.grid)
    return c[:, None] * ds - dc[:, None] * s - np.cross(ds, s)


def n_trajectory(traj: AxisAngleTrajectory) -> NTrajectory:
    """n(t): the frame's image of the z axis, rotated by -psi about the axis."""
    nhat = rotate_vectors(traj.axis, -traj.angle, Z_AXIS)
    norms = np.linalg.norm(nhat, axis=1, keepdims=True)
    return NTrajectory(grid=traj.grid.copy(), nhat=nhat / norms)

