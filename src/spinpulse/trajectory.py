"""Integrated rotation frames of a pulse and the unit-vector trajectory they carry.

A pulse amplitude v(t) generates a frame W(t) through i dW/dt = (sigma . v) W
with W(tau_s) = I, the accumulated rotation taken from the splitting instant:
W(t) = U(t, 0) U(tau_s, 0)^dag, with U the propagator from t = 0.  The
frame's only state is the unit quaternion q = (c, s) with
W = c I - i s . sigma.  Everything downstream reads q alone: n(t), the frame's
image of the z axis, is a quadratic form in q, so the correction residuals
and no-go gaps depend on nothing else; the recovered amplitude differentiates
q; and the exact oracle builds its frames from q.

Every frame is integrated by one path: classical RK4 on a grid whose cuts,
tau_s and the amplitude breakpoints, start uniform spans of a multiple of 4
intervals, so no RK4 step or Simpson panel, on the grid or its halved grid,
crosses a kink of the amplitude or of n(t).  The exact oracle integrates on
the same grids with the same stage rule.  Each RK4 step is a quaternion,
because the generator -i sigma . v is the pure quaternion (0, v); U(t, 0) is
the prefix product of the steps forward from t = 0, taken in log2(n)
vectorised levels, one product with U(tau_s, 0)^dag anchors it at tau_s, and
every node is normalised once, after the products.

The integrator runs on a leading batch axis: m shapes that share tau_s and
the breakpoints, and so one grid, are m lanes (m, n, .) of the same stage,
step, scan and n(t) arithmetic.  The frame product is associative and
elementwise over lanes, so each lane equals its lone-shape frame bit for bit;
:func:`integrate_axis_angle` is the one-lane case and the design loop's
Jacobian the many-lane one.  One check, :func:`_check_lanes`, validates
every lane of frames and n(t).

For output only, :func:`axis_angle` decomposes the frame as c = cos(psi/2),
s = sin(psi/2) a with a continuous, unwrapped angle psi (psi(tau_s) = 0) and a
unit axis a(t), under conventions that the equations do not force:
  * the axis gauge is chosen so that psi initially grows along +v just after
    tau_s;
  * where sin(psi/2) vanishes, or s turns away from the previous axis, the
    axis is continued from the instantaneous rotation axis v(t)/|v(t)|
    (falling back to the previous node's axis).
The frame rebuilt from (axis, angle) therefore equals q only at nodes where
the axis is +-s/|s|; at a fallback node it can differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import make_interp_spline

from .policy import active_policy
from .pulses import SPLINE_ORDER, PulseShape, frame_amplitude
from .su2 import IDENTITY_Q, quaternion_matrix, quaternion_product

Z_AXIS = np.array([0.0, 0.0, 1.0])
MIN_STEPS = 64


def _check_lanes(grid: np.ndarray, quaternions=None, nhat=None):
    """Raise ValueError unless every lane holds a valid frame or n(t) on ``grid``.

    The grid must increase strictly; frame quaternions (..., n, 4) must be
    unit and turn by less than pi per step (q_k . q_k+1 > 0), and n(t)
    samples (..., n, 3) must be unit vectors.  Each check asks that every
    value pass, so NaN fails it.  Any leading axes are lanes, each checked in
    full; the policy is read once per call.
    """
    atol = active_policy().unit_vector_atol
    if not np.all(np.diff(grid) > 0):
        raise ValueError("trajectory grid must be strictly increasing")
    if quaternions is not None:
        q = quaternions
        if not np.all(np.abs(np.linalg.norm(q, axis=-1) - 1.0) <= atol):
            raise ValueError("trajectory frames must be unit quaternions")
        # q_k . q_k+1 is the cosine of half the rotation between the two frames
        if not np.all(np.sum(q[..., 1:, :] * q[..., :-1, :], axis=-1) > 0.0):
            raise ValueError("frame steps must turn by less than pi on the resolved grid")
    if nhat is not None and not np.all(np.abs(np.linalg.norm(nhat, axis=-1) - 1.0) <= atol):
        raise ValueError("n(t) samples must be unit vectors")


@dataclass(frozen=True)
class FrameTrajectory:
    """Sampled rotation frame: strictly increasing grid, unit quaternions q = (c, s)."""

    grid: np.ndarray         # (n,)
    tau_s: float
    quaternions: np.ndarray  # (n, 4) unit (c, s) of the integrated W = c I - i s . sigma

    def __post_init__(self):
        _check_lanes(self.grid, quaternions=self.quaternions)

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
    """Unit vectors n(t), the frame's image of the z axis, on the trajectory grid."""

    grid: np.ndarray   # (n,)
    nhat: np.ndarray   # (n, 3)

    def __post_init__(self):
        _check_lanes(self.grid, nhat=self.nhat)

    @property
    def tau_p(self) -> float:
        return float(self.grid[-1])

    @property
    def n_nodes(self) -> int:
        return len(self.grid)


# ----------------------------------------------------------------------
# grid construction and the frame ODE


def _build_grid(shape: PulseShape, steps: int) -> np.ndarray:
    """Grid whose cuts, 0, tau_s, the amplitude breakpoints and tau_p, are nodes.

    Cuts closer than 1e-12 tau_p merge.  Between two cuts the grid is uniform,
    with the least multiple of 4 intervals that covers the span's share of
    ``steps``.  Node j of a span is j h + (cut - j_cut h), so where the cuts
    fall on np.linspace(0, tau_p, n + 1) the grid is that one bit for bit.
    """
    tau_p = shape.tau_p
    cuts = [0.0]
    for t in sorted({shape.tau_s, *shape.breakpoints(), tau_p}):
        if t - cuts[-1] > 1e-12 * tau_p:
            cuts.append(t)
    cuts[-1] = tau_p
    spans, j = [], 0
    for a, b in zip(cuts, cuts[1:]):
        k = 4 * max(1, int(np.ceil(steps * (b - a) / (4.0 * tau_p))))
        h = (b - a) / k
        spans.append(np.arange(j, j + k) * h + (a - j * h))
        spans[-1][0] = a
        j += k
    return np.concatenate([*spans, [tau_p]])


def _stage_amplitudes(shapes, grid: np.ndarray):
    """v(t) at the start, midpoint and end of every grid interval, (m, n - 1, 3) each.

    Each of the m ``shapes`` is a lane evaluated on the shared ``grid``.
    Piecewise-constant shapes use the midpoint value for all three stage
    evaluations of an interval so that integration never samples across a
    segment boundary.
    """
    mid = 0.5 * (grid[:-1] + grid[1:])
    v1, v2, v3 = (np.empty((len(shapes), len(mid), 3)) for _ in range(3))
    for k, shape in enumerate(shapes):
        v2[k] = shape.amplitude(mid)
        if shape.representation == "piecewise_constant":
            v1[k] = v3[k] = v2[k]
        else:
            v_node = shape.amplitude(grid)
            v1[k], v3[k] = v_node[:-1], v_node[1:]
    return v1, v2, v3


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


def _frame_quaternions(shapes, grid: np.ndarray, i_s: int) -> np.ndarray:
    """Unit frame quaternions (m, n, 4) of m lanes, identity at node ``i_s`` (tau_s).

    The ``shapes`` share ``grid`` and tau_s; every lane does the arithmetic
    of a lone shape, so a lane equals its single-shape frame bit for bit.
    U(t, 0) is the prefix product of the RK4 steps from the identity at
    t = 0, and the frame is W(t) = U(t, 0) U(tau_s, 0)^dag.  The step
    polynomial takes the lanes end to end on the step axis, so its operands
    keep the dimensions of one lane: each further axis of a strided operand
    adds to the cost of every numpy call.
    """
    m = len(shapes)
    v1, v2, v3 = (v.reshape(-1, 3) for v in _stage_amplitudes(shapes, grid))
    steps = _rk4_step_quaternions(v1, v2, v3, np.tile(np.diff(grid), m))
    u = _prefix_products(np.concatenate([np.tile(IDENTITY_Q, (m, 1, 1)),
                                         steps.reshape(m, -1, 4)], axis=1))
    q = quaternion_product(u, u[:, i_s:i_s + 1] * np.array([1.0, -1.0, -1.0, -1.0]))
    # u_s u_s^dag can leave rounding of order 1e-17 in s; the anchor is set exactly
    q[:, i_s] = IDENTITY_Q
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def _frames_on_grid(shape: PulseShape, grid: np.ndarray) -> FrameTrajectory:
    """Frames on a grid that has tau_s as a node."""
    i_s = int(np.argmin(np.abs(grid - shape.tau_s)))
    return FrameTrajectory(grid=grid, tau_s=float(grid[i_s]),
                           quaternions=_frame_quaternions([shape], grid, i_s)[0])


def _lane_frames(shapes, grid: np.ndarray):
    """Checked frame quaternions (m, n, 4) and n(t) (m, n, 3) of lanes sharing tau_s and ``grid``.

    The batched form of ``n_trajectory(_frames_on_grid(shape, grid))``: the
    same values, each lane checked in full by one :func:`_check_lanes` call.
    """
    i_s = int(np.argmin(np.abs(grid - shapes[0].tau_s)))
    q = _frame_quaternions(shapes, grid, i_s)
    nhat = _frame_nhat(q)
    _check_lanes(grid, quaternions=q, nhat=nhat)
    return q, nhat


def integrate_axis_angle(shape: PulseShape, steps: int) -> FrameTrajectory:
    """Solve the frame equation from t = 0, with the frame anchored at identity at tau_s.

    Returns the frame quaternions, all that residuals, gaps, amplitudes and
    the oracle read.  Their (axis, angle) form is :func:`axis_angle`, whose
    rebuilt frame matches q only where the axis is +-s/|s|.  This is the
    one-lane case of the batched integrator, which the design loop runs on
    many shapes at once.
    """
    if steps < MIN_STEPS:
        raise ValueError(f"at least {MIN_STEPS} integration steps are required")
    return _frames_on_grid(shape, _build_grid(shape, steps))


# ----------------------------------------------------------------------
# conversions


def amplitude_from_axis_angle(traj: FrameTrajectory) -> np.ndarray:
    """Recover v(t) at the trajectory nodes from the sampled frame quaternions."""
    if traj.n_nodes < 16:
        raise ValueError("trajectory grid too coarse for stable differentiation")
    spline = make_interp_spline(traj.grid, traj.quaternions, k=SPLINE_ORDER, axis=0)
    return frame_amplitude(spline(traj.grid), spline.derivative()(traj.grid))


def _frame_nhat(q: np.ndarray) -> np.ndarray:
    """n(t) of frame quaternions q = (c, s) over leading axes: the quadratic form
    (2 (sx sz - c sy), 2 (sy sz + c sx), 1 - 2 (sx^2 + sy^2))."""
    c, sx, sy, sz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([2.0 * (sx * sz - c * sy), 2.0 * (sy * sz + c * sx),
                     1.0 - 2.0 * (sx * sx + sy * sy)], axis=-1)


def n_trajectory(traj: FrameTrajectory) -> NTrajectory:
    """n(t) = 1/2 tr(sigma W^dag sigma_z W), the frame's image of the z axis."""
    return NTrajectory(grid=traj.grid.copy(), nhat=_frame_nhat(traj.quaternions))


# ----------------------------------------------------------------------
# (axis, angle) decomposition, for output only


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


def axis_angle(shape: PulseShape, traj: FrameTrajectory):
    """(axis (n, 3), psi (n,)) of the frame, with the conventions of the module docstring.

    ``shape`` supplies v(t) for the axis gauge at tau_s and for the
    full-turn fallbacks.  Raises ValueError if an angle step reaches pi,
    which means the grid does not resolve the frame.
    """
    floor = active_policy().axis_floor
    c, svec = traj.quaternions[:, 0], traj.quaternions[:, 1:]
    i_s = int(np.argmin(np.abs(traj.grid - traj.tau_s)))
    v_nodes = shape.amplitude(traj.grid)
    v_scale = float(np.max(np.linalg.norm(v_nodes, axis=1)))
    axis0 = _bootstrap_axis(v_nodes[i_s], v_scale, svec, i_s, floor)
    psi, axis = _unwrap_frames(v_nodes, c, svec, i_s, axis0, floor)
    if np.any(np.abs(np.diff(psi)) >= np.pi):
        raise ValueError("angle steps must stay below pi on the resolved grid")
    return axis, psi
