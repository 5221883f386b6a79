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
the amplitude breakpoints, start uniform spans of a multiple of 4 intervals,
so no RK4 step or Simpson panel, on the grid or its halved grid, crosses a
kink of the amplitude; a Fourier grid is np.linspace.  The exact oracle
integrates on the same grids with the same stage rule and step.  Each RK4 step
is the stage recurrence (:func:`_rk4_steps`) of the generator (0, v), rejected
if its norm drifts from 1 by more than ``STEP_DRIFT``; U(t, 0) is the prefix
product of the steps from t = 0, in log2(n) levels.  tau_s is no cut:
U(tau_s, 0) is interpolated between the nodes around it and enters W(t) only
as the constant right factor U(tau_s, 0)^dag, so n(t) has no kink there.

The integrator runs on a leading lane axis: a lane shape (``PulseShape``
with m lanes, each with its own tau_s, on one set of breakpoints and so one
grid) gives frames (m, n, 4) and n(t) (m, n, 3) by the same elementwise
arithmetic, so each lane equals its lone-shape frame bit for bit; a lone
shape gives (n, 4).  ``nogo`` integrates its random samples as one lane shape
per chunk.  The design loop evaluates one point, a lone shape, at a time and
reads lanes only for its table of dv/dz (one lane per free direction); its
Jacobian integrates no frame, but differentiates the point's frame through
its rotation (:func:`_frame_rotation`) and Hermite anchor (:func:`_anchor`).
One check, :func:`_check_trajectory`, validates frames and n(t), every lane
in full.

For output only, :func:`axis_angle` decomposes the frame as c = cos(psi/2),
s = sin(psi/2) a with a continuous, unwrapped angle psi (psi(tau_s) = 0) and a
unit axis a(t), under conventions that the equations do not force:
  * the axis gauge is chosen so that psi initially grows along +v just after
    tau_s; it also signs the angle at the node nearest tau_s;
  * where sin(psi/2) vanishes, or s turns away from the previous axis, the
    axis is continued from the instantaneous rotation axis v(t)/|v(t)|
    (falling back to the previous node's axis).
The frame rebuilt from (axis, angle) therefore equals q only at nodes where
the axis is +-s/|s|; at a fallback node it can differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pulses import SPLINE_ORDER, UNIT_VECTOR_ATOL, PulseShape, frame_amplitude
from .su2 import CONJUGATE_Q, IDENTITY_Q, quaternion_matrix, quaternion_product

Z_AXIS = np.array([0.0, 0.0, 1.0])
MIN_STEPS = 64
# largest | |M_k| - 1 | of an RK4 step quaternion that a frame accepts: the
# drift is ~phi^6 / 144 for a step turning by 2 phi, so phi < 0.95 rad
STEP_DRIFT = 5e-3
# |s| = |sin(psi/2)| above which axis_angle takes the axis from the frame
# itself rather than from v(t)
AXIS_FLOOR = 1e-7


def _check_trajectory(grid: np.ndarray, quaternions=None, nhat=None):
    """Raise ValueError unless every lane holds a valid frame or n(t) on ``grid``.

    The grid must increase strictly; frame quaternions (..., n, 4) must be
    unit and turn by less than pi per step (q_k . q_k+1 > 0), and n(t)
    samples (..., n, 3) must be unit vectors.  Each check asks that every
    value pass, so NaN fails it.  Any leading axes are lanes, each checked in
    full.
    """
    if not np.all(np.diff(grid) > 0):
        raise ValueError("trajectory grid must be strictly increasing")
    if quaternions is not None:
        q = quaternions
        if not np.all(np.abs(np.linalg.norm(q, axis=-1) - 1.0) <= UNIT_VECTOR_ATOL):
            raise ValueError("trajectory frames must be unit quaternions")
        # q_k . q_k+1 is the cosine of half the rotation between the two frames
        if not np.all(np.sum(q[..., 1:, :] * q[..., :-1, :], axis=-1) > 0.0):
            raise ValueError("frame steps must turn by less than pi on the resolved grid")
    if nhat is not None and not np.all(
            np.abs(np.linalg.norm(nhat, axis=-1) - 1.0) <= UNIT_VECTOR_ATOL):
        raise ValueError("n(t) samples must be unit vectors")


@dataclass(frozen=True)
class FrameTrajectory:
    """Sampled rotation frame: strictly increasing grid, unit quaternions q = (c, s)."""

    grid: np.ndarray         # (n,)
    tau_s: float             # or (m,) for lanes
    quaternions: np.ndarray  # (n, 4) or (m, n, 4): unit (c, s) of W = c I - i s . sigma

    def __post_init__(self):
        _check_trajectory(self.grid, quaternions=self.quaternions)

    @property
    def tau_p(self) -> float:
        return float(self.grid[-1])

    @property
    def n_nodes(self) -> int:
        return len(self.grid)

    @property
    def unitaries(self) -> np.ndarray:
        """(..., n, 2, 2) frames built from the quaternions."""
        return quaternion_matrix(self.quaternions)


@dataclass(frozen=True)
class NTrajectory:
    """Unit vectors n(t), the frame's image of the z axis, on the trajectory grid."""

    grid: np.ndarray   # (n,)
    nhat: np.ndarray   # (n, 3), or (m, n, 3) for lanes

    def __post_init__(self):
        _check_trajectory(self.grid, nhat=self.nhat)

    @property
    def tau_p(self) -> float:
        return float(self.grid[-1])

    @property
    def n_nodes(self) -> int:
        return len(self.grid)


# ----------------------------------------------------------------------
# grid construction and the frame ODE


def _build_grid(shape: PulseShape, steps: int) -> np.ndarray:
    """Grid whose cuts, 0, the amplitude breakpoints and tau_p, are nodes.

    Cuts closer than 1e-12 tau_p merge.  Between two cuts the grid is uniform,
    with the least multiple of 4 intervals that covers the span's share of
    ``steps``.  Node j of a span is j h + (cut - j_cut h), so where the cuts
    fall on np.linspace(0, tau_p, n + 1), as for any Fourier shape, the grid
    is that one bit for bit.
    """
    tau_p = shape.tau_p
    cuts = [0.0]
    for t in sorted({*shape.breakpoints(), tau_p}):
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


def _stage_amplitudes(shape: PulseShape, grid: np.ndarray):
    """v(t) at the start, midpoint and end of every grid interval, (..., n - 1, 3) each.

    The lanes of ``shape`` lead, as in ``shape.amplitude``.  Piecewise-constant
    shapes use the midpoint value for all three stage evaluations of an
    interval so that integration never samples across a segment boundary.
    """
    v2 = shape.amplitude(0.5 * (grid[:-1] + grid[1:]))
    if shape.representation == "piecewise_constant":
        return v2, v2, v2
    v_node = shape.amplitude(grid)
    return v_node[..., :-1, :], v2, v_node[..., 1:, :]


def _rk4_steps(g1, g2, g3, h, mul, one):
    """RK4 steps W -> M W of W' = G(t) W from the stage generators (g1, g2, g3)
    at each step's start, midpoint and end, by the classical stage recurrence
    k2 = g2 + (h/2) g2 g1, k3 = g2 + (h/2) g2 k2, k4 = g3 + h g3 k3,
    M = 1 + (h/6) (g1 + 2 (k2 + k3) + k4): three products ``mul`` per step in
    an algebra with unit ``one``.  h = -i dt steps G = -i F by dt."""
    h = np.reshape(h, (-1,) + (1,) * (np.ndim(g1) - 1))
    k2 = g2 + (0.5 * h) * mul(g2, g1)
    k3 = g2 + (0.5 * h) * mul(g2, k2)
    k4 = g3 + h * mul(g3, k3)
    return one + (h / 6.0) * (g1 + 2.0 * (k2 + k3) + k4)


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


def _bracket(grid: np.ndarray, tau_s: np.ndarray):
    """(j (m,), h (m, 1), x (m, 1)): the step [t_j, t_j+1] of width h that holds
    each tau_s (m,), the last one for tau_p, and tau_s's place x in [0, 1] in it."""
    j = np.minimum(np.searchsorted(grid, tau_s, side="right") - 1, len(grid) - 2)
    h = (grid[j + 1] - grid[j])[:, None]
    return j, h, (tau_s[:, None] - grid[j][:, None]) / h


def _hermite(ends: np.ndarray, slopes: np.ndarray, x):
    """Cubic Hermite interpolant on [0, 1] and its x-derivative at x.

    ``ends`` and ``slopes`` (..., 2, k) hold f and df/dx at 0 and 1; x
    broadcasts against (..., k).  The basis is exactly (1, 0, 0, 0) at x = 0
    and (0, 0, 1, 0) at x = 1.
    """
    rise = x * x * (3.0 - 2.0 * x)
    value = ((1.0 - rise) * ends[..., 0, :] + rise * ends[..., 1, :]
             + x * (1.0 - x) ** 2 * slopes[..., 0, :] - x * x * (1.0 - x) * slopes[..., 1, :])
    rate = (6.0 * x * (1.0 - x) * (ends[..., 1, :] - ends[..., 0, :])
            + (1.0 - x) * (1.0 - 3.0 * x) * slopes[..., 0, :]
            - x * (2.0 - 3.0 * x) * slopes[..., 1, :])
    return value, rate


def _anchor(ends: np.ndarray, v_start: np.ndarray, v_end: np.ndarray, h, x):
    """U(tau_s, 0) and h dU(tau_s, 0)/dtau_s, (m, 4) each, by cubic Hermite.

    ``ends`` (m, 2, 4) is U at the nodes around tau_s, ``v_start`` and
    ``v_end`` (m, 3) the first and last stage amplitudes of the step between
    them, h and x (m, 1) its width and tau_s's place in it; U' = (0, v) U.
    """
    generators = np.zeros((len(ends), 2, 4))
    generators[:, 0, 1:], generators[:, 1, 1:] = v_start, v_end
    return _hermite(ends, h[:, :, None] * quaternion_product(generators, ends), x)


def _frame_quaternions(shape: PulseShape, grid: np.ndarray) -> np.ndarray:
    """Unit frames W(t) = U(t, 0) U(tau_s, 0)^dag of ``shape``: (n, 4), or (m, n, 4) for lanes.

    U(t, 0) is the prefix product of the RK4 steps from t = 0.  U(tau_s, 0)
    is the cubic Hermite interpolant of U and U' = (0, v) U at the nodes
    around each lane's tau_s, O(h^4) like the steps, with v the step's first
    and last stage amplitudes, so it evaluates no amplitude; on a node it is
    U there exactly.  The RK4 steps take the lanes end to end on the
    step axis: each further axis of a strided operand adds to every numpy call.
    """
    m, n = np.size(shape.tau_s), len(grid)
    v1, v2, v3 = (v.reshape(m, n - 1, 3) for v in _stage_amplitudes(shape, grid))
    # the generator -i sigma . v is the pure quaternion (0, v)
    g = np.zeros((3, m * (n - 1), 4))
    g[0, :, 1:], g[1, :, 1:], g[2, :, 1:] = (v.reshape(-1, 3) for v in (v1, v2, v3))
    # an overflow leaves inf or NaN steps, which the drift guard rejects
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
    u = _prefix_products(np.concatenate([np.tile(IDENTITY_Q, (m, 1, 1)),
                                         steps.reshape(m, -1, 4)], axis=1))
    lane, tau_s = np.arange(m), np.atleast_1d(shape.tau_s)
    j, h, x = _bracket(grid, tau_s)
    ends = u[lane[:, None], j[:, None] + [0, 1]]            # U at the two nodes, (m, 2, 4)
    anchor, _ = _anchor(ends, v1[lane, j], v3[lane, j], h, x)
    q = quaternion_product(u, anchor[:, None, :] * CONJUGATE_Q)
    # u_s u_s^dag can leave rounding of order 1e-17 in s; a node at tau_s is set exactly
    q[grid == tau_s[:, None]] = IDENTITY_Q
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    return q.reshape(np.shape(shape.tau_s) + (n, 4))


def _frames_on_grid(shape: PulseShape, grid: np.ndarray) -> FrameTrajectory:
    """Frames of ``shape`` on ``grid``, the identity at tau_s, one frame per lane."""
    return FrameTrajectory(grid=grid, tau_s=shape.tau_s,
                           quaternions=_frame_quaternions(shape, grid))


def integrate_axis_angle(shape: PulseShape, steps: int) -> FrameTrajectory:
    """Solve the frame equation from t = 0, with the frame anchored at identity at tau_s.

    Returns the frame quaternions, all that residuals, gaps, amplitudes and
    the oracle read.  Their (axis, angle) form is :func:`axis_angle`, whose
    rebuilt frame matches q only where the axis is +-s/|s|.  A lane shape
    gives one frame per lane, (m, n, 4).
    """
    if steps < MIN_STEPS:
        raise ValueError(f"at least {MIN_STEPS} integration steps are required")
    return _frames_on_grid(shape, _build_grid(shape, steps))


# ----------------------------------------------------------------------
# conversions


def amplitude_from_axis_angle(traj: FrameTrajectory) -> np.ndarray:
    """Recover v(t) at the trajectory nodes from the sampled frame quaternions.

    The quintic spline that differentiates q is scipy's, imported here on first
    use: this and ``axis_angle_samples`` pulses are the only paths that load scipy.
    """
    if traj.n_nodes < 16:
        raise ValueError("trajectory grid too coarse for stable differentiation")
    from scipy.interpolate import make_interp_spline
    spline = make_interp_spline(traj.grid, traj.quaternions, k=SPLINE_ORDER, axis=0)
    return frame_amplitude(spline(traj.grid), spline.derivative()(traj.grid))


def _frame_rotation(q: np.ndarray) -> np.ndarray:
    """Rotations R (..., 3, 3) of frame quaternions, W^dag (sigma . a) W = sigma . (R a):
    n(t) = R z is the last column."""
    c, sx, sy, sz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([
        np.stack([1.0 - 2.0 * (sy * sy + sz * sz), 2.0 * (sx * sy + c * sz),
                  2.0 * (sx * sz - c * sy)], axis=-1),
        np.stack([2.0 * (sx * sy - c * sz), 1.0 - 2.0 * (sx * sx + sz * sz),
                  2.0 * (sy * sz + c * sx)], axis=-1),
        np.stack([2.0 * (sx * sz + c * sy), 2.0 * (sy * sz - c * sx),
                  1.0 - 2.0 * (sx * sx + sy * sy)], axis=-1)], axis=-2)


def n_trajectory(traj: FrameTrajectory) -> NTrajectory:
    """n(t) = 1/2 tr(sigma W^dag sigma_z W), the frame's image of the z axis."""
    # a copy: the view would keep all nine entries of every rotation alive
    nhat = _frame_rotation(traj.quaternions)[..., 2].copy()
    return NTrajectory(grid=traj.grid.copy(), nhat=nhat)


# ----------------------------------------------------------------------
# (axis, angle) decomposition, for output only


def _bootstrap_axis(v_s: np.ndarray, v_scale: float, svec: np.ndarray, i_s: int):
    """Initial axis gauge: +v(tau_s) direction, else nearest resolvable frame."""
    if np.linalg.norm(v_s) > 1e-12 * max(1.0, v_scale):
        return v_s / np.linalg.norm(v_s)
    mags = np.linalg.norm(svec, axis=1)
    order = np.argsort(np.abs(np.arange(len(mags)) - i_s))
    hits = order[mags[order] > AXIS_FLOOR]
    if len(hits) == 0:
        return Z_AXIS.copy()
    j = hits[0]
    return (1.0 if j > i_s else -1.0) * svec[j] / mags[j]


def _unit_rows(x: np.ndarray):
    """Rows scaled to unit length (zero rows stay zero), and their norms."""
    norms = np.linalg.norm(x, axis=1)
    return x / np.where(norms > 0.0, norms, 1.0)[:, None], norms


def _unwrap_sweep(c, svec, v, axis0, v_floor):
    """(psi, axis) along one sweep from the node nearest tau_s, away from tau_s.

    Before its first node is tau_s itself, with psi = 0 and axis ``axis0``.
    The previous node's axis fixes the sign of s, and with it the 2 pi branch
    of the angle.  The axis line is s/|s| where |s| exceeds ``AXIS_FLOOR`` and s
    stays within ~75 degrees of the previous line; elsewhere (a full turn) it
    continues along v(t), or keeps the previous line where v vanishes, and
    the first node falls back to ``axis0`` itself.  That choice at a node
    depends on the line before it, so it is iterated to its fixed point; the
    first pass reaches it unless a resolvable s turns away from the previous
    line.  Signs are a cumulative product of signs of consecutive dot
    products.
    """
    s_hat, mag = _unit_rows(svec)
    v_hat, v_norm = _unit_rows(v)
    v_hat[0] = axis0
    fallback = v_norm > v_floor
    index = np.arange(len(c))
    resolvable = mag > AXIS_FLOOR
    resolved = resolvable
    while True:
        line = np.where(resolved[:, None], s_hat, v_hat)
        keep = ~resolved & ~fallback
        line = line[np.maximum.accumulate(np.where(keep, 0, index))]
        prev = np.vstack([axis0, line[:-1]])
        w = np.sum(svec * prev, axis=1)
        regular = resolvable & (np.abs(w) > 0.25 * mag)
        if np.array_equal(regular, resolved):
            break
        resolved = regular
    sign = np.cumprod(np.where(np.sum(line * prev, axis=1) >= 0.0, 1.0, -1.0))
    branch = np.arctan2(np.r_[1.0, sign[:-1]] * np.where(w >= 0.0, 1.0, -1.0) * mag, c)
    return 2.0 * np.unwrap(branch), sign[:, None] * line


def _unwrap_frames(v_nodes, c, svec, i_s, axis0):
    """Continuous angle and axis along both sweeps from node ``i_s``, nearest tau_s."""
    v_floor = 1e-9 * max(float(np.max(np.linalg.norm(v_nodes, axis=1))), 1e-300)
    psi = np.zeros(len(c))
    axis = np.empty((len(c), 3))
    for sweep in (np.arange(i_s, len(c)), np.arange(i_s, -1, -1)):
        psi[sweep], axis[sweep] = _unwrap_sweep(c[sweep], svec[sweep], v_nodes[sweep],
                                                axis0, v_floor)
    return psi, axis


def axis_angle(shape: PulseShape, traj: FrameTrajectory):
    """(axis (n, 3), psi (n,)) of the frame, with the conventions of the module docstring.

    ``shape`` supplies v(t) for the axis gauge at tau_s and for the
    full-turn fallbacks.  Raises ValueError if an angle step reaches pi,
    which means the grid does not resolve the frame.
    """
    c, svec = traj.quaternions[:, 0], traj.quaternions[:, 1:]
    i_s = int(np.argmin(np.abs(traj.grid - traj.tau_s)))
    v_nodes = shape.amplitude(traj.grid)
    v_scale = float(np.max(np.linalg.norm(v_nodes, axis=1)))
    axis0 = _bootstrap_axis(v_nodes[i_s], v_scale, svec, i_s)
    psi, axis = _unwrap_frames(v_nodes, c, svec, i_s, axis0)
    if np.any(np.abs(np.diff(psi)) >= np.pi):
        raise ValueError("angle steps must stay below pi on the resolved grid")
    return axis, psi
