"""Integrated rotation frames of a pulse and the unit-vector trajectory they carry.

A pulse amplitude v(t) generates a frame W(t) through i dW/dt = (sigma . v) W
with W(tau_s) = I, integrated forward to tau_p and backward to 0, so the frame
is the accumulated rotation taken from the splitting instant in both time
orderings.  The frame's only stored state is the unit quaternion q = (c, s)
with W = c I - i s . sigma; it is decomposed as c = cos(psi/2),
s = sin(psi/2) a with a continuous, unwrapped angle psi (psi(tau_s) = 0) and a
unit axis a(t).

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
stage rule.  Each RK4 step is a quaternion, because the generator
-i sigma . v is the pure quaternion (0, v); the frames on each side of tau_s
are prefix products of the steps, taken in log2(n) vectorised levels, and
every node is normalised once, after the products.  The (axis, angle)
decomposition is vectorised as well: axis signs are a cumulative product of
signs of consecutive dot products, and the angle is arctan2 plus np.unwrap.

The trajectory of n(t) = D_a(-psi) z is the geometric object all correction
functionals are written in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import make_interp_spline

from .policy import NumericPolicy, active_policy
from .pulses import SPLINE_ORDER, PulseShape
from .su2 import IDENTITY_Q, quaternion_matrix, quaternion_product, rotate_vectors

Z_AXIS = np.array([0.0, 0.0, 1.0])
MIN_STEPS = 64


@dataclass(frozen=True)
class AxisAngleTrajectory:
    """Sampled rotation frame: strictly increasing grid, unit axes, continuous angle."""

    grid: np.ndarray       # (n,)
    axis: np.ndarray       # (n, 3)
    angle: np.ndarray      # (n,) unwrapped, radians
    tau_s: float
    quaternions: np.ndarray  # (n, 4) unit (c, s) of the integrated W = c I - i s . sigma

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

    @property
    def unitaries(self) -> np.ndarray:
        """(n, 2, 2) frames built from the quaternions."""
        return quaternion_matrix(self.quaternions)


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


def _rk4_polynomial(g1, g2, g3, h, mul, one):
    """Per-step RK4 transfer elements for the linear ODE W' = G(t) W.

    With stage generators (g1, g2, g3) at the step start, midpoint and end,
    one classical RK4 step is W -> M W with

        M = I + (h/6)(g1 + 4 g2 + g3) + (h^2/6)(g2 g1 + g2^2 + g3 g2)
              + (h^3/12)(g2^2 g1 + g3 g2^2) + (h^4/24) g3 g2^2 g1,

    built for all steps at once from the algebra's batched product ``mul``
    and unit ``one``.
    """
    h = np.reshape(h, (-1,) + (1,) * (np.ndim(g1) - 1))
    g2g1 = mul(g2, g1)
    g2sq = mul(g2, g2)
    g3g2 = mul(g3, g2)
    g2sq_g1 = mul(g2sq, g1)
    return (one
            + (h / 6.0) * (g1 + 4.0 * g2 + g3)
            + (h ** 2 / 6.0) * (g2g1 + g2sq + g3g2)
            + (h ** 3 / 12.0) * (g2sq_g1 + mul(g3, g2sq))
            + (h ** 4 / 24.0) * mul(g3, g2sq_g1))


def _rk4_step_matrices(g1, g2, g3, h) -> np.ndarray:
    """RK4 transfer matrices from generator matrices (batched matmuls)."""
    return _rk4_polynomial(g1, g2, g3, h, np.matmul, np.eye(g1.shape[-1], dtype=complex))


def _rk4_step_quaternions(v1, v2, v3, h) -> np.ndarray:
    """RK4 transfer quaternions for i W' = (sigma . v) W.

    The generator -i sigma . v is the pure quaternion (0, v), so the step
    polynomial never leaves the quaternion algebra.
    """
    g1, g2, g3 = (np.pad(v, ((0, 0), (1, 0))) for v in (v1, v2, v3))
    return _rk4_polynomial(g1, g2, g3, h, quaternion_product, IDENTITY_Q)


def _prefix_products(steps: np.ndarray) -> np.ndarray:
    """Inclusive products q_k ... q_1 along axis -2 (later steps on the left).

    A scan of log2(n) levels, each one batched Hamilton product.
    """
    out = steps.copy()
    d = 1
    while d < out.shape[-2]:
        out[..., d:, :] = quaternion_product(out[..., d:, :], out[..., :-d, :])
        d *= 2
    return out


def _bootstrap_axis(v_s: np.ndarray, v_scale: float, svec: np.ndarray,
                    i_s: int, floor: float):
    """Initial axis gauge: +v(tau_s) direction, else nearest resolvable frame."""
    if np.linalg.norm(v_s) > 1e-12 * max(1.0, v_scale):
        return v_s / np.linalg.norm(v_s)
    mags = np.linalg.norm(svec, axis=1)
    order = np.argsort(np.abs(np.arange(len(mags)) - i_s))
    hits = order[mags[order] > floor]
    if len(hits) == 0:
        return Z_AXIS.copy()
    j = hits[0]
    return (1.0 if j > i_s else -1.0) * svec[j] / mags[j]


def _unit_rows(x: np.ndarray):
    """Rows scaled to unit length (zero rows stay zero), and their norms."""
    norms = np.linalg.norm(x, axis=1)
    return x / np.where(norms > 0.0, norms, 1.0)[:, None], norms


def _unwrap_sweep(c, svec, v, axis0, floor, v_floor):
    """(psi, axis) along one sweep away from tau_s, which is its first node.

    The previous node's axis fixes the sign of s, and with it the 2 pi branch
    of the angle.  The axis line is s/|s| where |s| exceeds ``floor`` and s
    stays within ~75 degrees of the previous line; elsewhere (a full turn) it
    continues along v(t), or keeps the previous line where v vanishes.  That
    choice at a node depends on the line before it, so it is iterated to its
    fixed point; the first pass reaches it unless a resolvable s turns away
    from the previous line.  Signs are a cumulative product of signs of
    consecutive dot products.
    """
    s_hat, mag = _unit_rows(svec)
    v_hat, v_norm = _unit_rows(v)
    fallback = v_norm > v_floor
    index = np.arange(len(c))
    resolvable = mag > floor
    resolvable[0] = False
    resolved = resolvable
    while True:
        line = np.where(resolved[:, None], s_hat, v_hat)
        line[0] = axis0
        keep = ~resolved & ~fallback
        keep[0] = False
        line = line[np.maximum.accumulate(np.where(keep, 0, index))]
        w = np.sum(svec[1:] * line[:-1], axis=1)
        regular = resolvable & np.concatenate([[False], np.abs(w) > 0.25 * mag[1:]])
        if np.array_equal(regular, resolved):
            break
        resolved = regular
    turn = np.ones(len(c))
    turn[1:] = np.where(np.sum(line[1:] * line[:-1], axis=1) >= 0.0, 1.0, -1.0)
    sign = np.cumprod(turn)
    branch = np.zeros(len(c))
    branch[1:] = np.arctan2(sign[:-1] * np.where(w >= 0.0, 1.0, -1.0) * mag[1:], c[1:])
    return 2.0 * np.unwrap(branch), sign[:, None] * line


def _unwrap_frames(v_nodes, c, svec, i_s, axis0, floor):
    """Continuous angle and axis along both sweeps away from tau_s."""
    v_floor = 1e-9 * max(float(np.max(np.linalg.norm(v_nodes, axis=1))), 1e-300)
    psi = np.zeros(len(c))
    axis = np.empty((len(c), 3))
    for sweep in (np.arange(i_s, len(c)), np.arange(i_s, -1, -1)):
        psi[sweep], axis[sweep] = _unwrap_sweep(c[sweep], svec[sweep], v_nodes[sweep],
                                                axis0, floor, v_floor)
    return psi, axis


def _frame_quaternions(shape: PulseShape, grid: np.ndarray, i_s: int) -> np.ndarray:
    """Unit frame quaternions at every node, identity at node ``i_s`` (tau_s)."""
    v1, v2, v3 = _stage_amplitudes(shape, grid)
    h = np.diff(grid)
    # steps in sweep order, forward from tau_s and then backward from it; a
    # backward step runs from its interval's end to its start
    ahead = len(h) - i_s
    idx = np.r_[i_s:len(h), i_s - 1:-1:-1]
    back = (idx < i_s)[:, None]
    steps = _rk4_step_quaternions(np.where(back, v3[idx], v1[idx]), v2[idx],
                                  np.where(back, v1[idx], v3[idx]),
                                  np.where(back[:, 0], -h[idx], h[idx]))
    sweeps = np.tile(IDENTITY_Q, (2, max(ahead, i_s), 1))
    sweeps[0, :ahead] = steps[:ahead]
    sweeps[1, :i_s] = steps[ahead:]
    sweeps = _prefix_products(sweeps)
    q = np.concatenate([sweeps[1, :i_s][::-1], IDENTITY_Q[None], sweeps[0, :ahead]])
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _frames_on_grid(shape: PulseShape, grid: np.ndarray,
                    policy: NumericPolicy) -> AxisAngleTrajectory:
    """Frames on a grid that has tau_s as a node, decomposed into (axis, angle)."""
    i_s = int(np.argmin(np.abs(grid - shape.tau_s)))
    q = _frame_quaternions(shape, grid, i_s)
    c, svec = q[:, 0], q[:, 1:]
    v_nodes = shape.amplitude(grid)
    v_scale = float(np.max(np.linalg.norm(v_nodes, axis=1)))
    axis0 = _bootstrap_axis(v_nodes[i_s], v_scale, svec, i_s, policy.axis_floor)
    psi, axis = _unwrap_frames(v_nodes, c, svec, i_s, axis0, policy.axis_floor)
    return AxisAngleTrajectory(grid=grid, axis=axis, angle=psi,
                               tau_s=float(grid[i_s]), quaternions=q)


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


def amplitude_from_axis_angle(traj: AxisAngleTrajectory) -> np.ndarray:
    """Recover v(t) at the trajectory nodes from the sampled frame.

    Differentiates the (smooth) frame quaternion with quintic splines and
    evaluates v = c s' - c' s - s' x s, the quaternion form of
    2v = psi' a + a' sin(psi) - (1 - cos(psi)) (a' x a); the two agree
    identically but the quaternion never degenerates at full turns.
    """
    if traj.n_nodes < 16:
        raise ValueError("trajectory grid too coarse for stable differentiation")
    c, s = traj.quaternions[:, 0], traj.quaternions[:, 1:]
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

