"""Integrated rotation frames of a pulse and the unit-vector trajectory they carry.

A pulse amplitude v(t) generates a frame W(t) through i dW/dt = (sigma . v) W
with W(tau_s) = I, the accumulated rotation taken from the splitting instant:
W(t) = U(t, 0) U(tau_s, 0)^dag, with U the propagator from t = 0.  The
frame's only state is the unit quaternion q = (c, s) with
W = c I - i s . sigma.  Everything downstream reads q alone: n(t), the frame's
image of the z axis, is a quadratic form in q, so the correction residuals
and no-go gaps depend on nothing else; the recovered amplitude differentiates
q by local-polynomial stencils on each uniform span between the cuts, so it
is right-continuous at a breakpoint like v; and the exact oracle builds its
frames from q.

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

The integrator runs on lanes: a lane shape (``PulseShape`` with m lanes,
each with its own tau_s, on one set of breakpoints and so one grid) gives
frames (m, n, 4) and n(t) (m, n, 3) by the same elementwise arithmetic, so
each lane equals its lone-shape frame bit for bit; a lone shape gives (n, 4).
Inside, it runs component-major: the generators, the RK4 steps and the
prefix scan are (4, n, m) planes (component, node, lane), so every numpy
call reads and writes contiguous planes, through the Hamilton formula of
:func:`spinpulse.su2.hamilton` that the trailing-axis layout also uses, and
one transpose returns the C-contiguous (m, n, 4) frames.  n(t) is the last
column of the frame rotation alone (:func:`_rotation_column`).  ``nogo``
integrates its random samples as one lane shape per chunk, and the design
loop the trial points of its restarts in flight as one lane shape per round,
both at most ``LANE_STEPS`` lanes x steps; it also reads lanes for its table
of dv/dz (one lane per free direction).  Its Jacobian integrates no frame,
but differentiates each lane's frame through its rotation
(:func:`_frame_rotation`) and Hermite anchor (:func:`_anchor`).  One check,
:func:`_check_trajectory`, validates frames and n(t), every lane in full.

For output only, :func:`axis_angle` decomposes the frame as c = cos(psi/2),
s = sin(psi/2) a with a continuous, unwrapped angle psi (psi(tau_s) = 0) and a
unit axis a(t), under conventions that the equations do not force:
  * the axis gauge is v just after tau_s (the amplitude is right-continuous
    at a segment boundary), so psi initially grows along +v there; it also
    signs the angle at the node nearest tau_s;
  * one walk per sweep, node by node away from tau_s, lets the previous
    node's axis sign s and so pick the 2 pi branch of the angle;
  * where sin(psi/2) vanishes, or s turns away from the previous axis, the
    axis is continued from the instantaneous rotation axis v(t)/|v(t)|
    (falling back to the previous node's axis).
The frame rebuilt from (axis, angle) therefore equals q only at nodes where
the axis is +-s/|s|; at a fallback node it can differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pulses import SAME_TIME_RTOL, UNIT_VECTOR_ATOL, PulseShape, frame_amplitude
from .su2 import CONJUGATE_Q, IDENTITY_Q, hamilton, quaternion_product

Z_AXIS = np.array([0.0, 0.0, 1.0])
MIN_STEPS = 64
# lanes x steps of one batched integration, nogo's chunks and the design loop's
# restarts in flight: max(1, LANE_STEPS // steps) lanes, so memory is bounded
# at any sample or restart count
LANE_STEPS = 2048
# largest | |M_k| - 1 | of an RK4 step quaternion that a frame accepts: the
# drift is ~phi^6 / 144 for a step turning by 2 phi, so phi < 0.95 rad
STEP_DRIFT = 5e-3
# |s| = |sin(psi/2)| above which axis_angle takes the axis from the frame
# itself rather than from v(t)
AXIS_FLOOR = 1e-7
# nodes of the local polynomial that differentiates q in amplitude_from_axis_angle
STENCIL_NODES = 7


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


def _cuts(shape: PulseShape) -> list:
    """0, the amplitude breakpoints and tau_p, increasing, with cuts closer
    than ``SAME_TIME_RTOL`` tau_p merged into the earlier one."""
    tau_p = shape.tau_p
    cuts = [0.0]
    for t in sorted({*shape.breakpoints(), tau_p}):
        if t - cuts[-1] > SAME_TIME_RTOL * tau_p:
            cuts.append(t)
    cuts[-1] = tau_p
    return cuts


def _build_grid(shape: PulseShape, steps: int) -> np.ndarray:
    """Grid whose cuts (:func:`_cuts`) are nodes.

    Between two cuts the grid is uniform, with the least multiple of 4
    intervals that covers the span's share of ``steps``, its length over
    tau_p less ``SAME_TIME_RTOL``: a share one rounding past a multiple of 4
    takes no 4 more, so a shape rescaled keeps its step counts at every
    tau_p.  Node j of a span is j h + (cut - j_cut h), so where the cuts fall
    on np.linspace(0, tau_p, n + 1), as for any Fourier shape, the grid is
    that one bit for bit.
    """
    tau_p, cuts = shape.tau_p, _cuts(shape)
    spans, j = [], 0
    for a, b in zip(cuts, cuts[1:]):
        share = steps * ((b - a) / tau_p - SAME_TIME_RTOL) / 4.0
        k = 4 * max(1, int(np.ceil(share)))
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


def _rk4_steps(g1, g2, g3, h, mul, one, out=None):
    """RK4 steps W -> M W of W' = G(t) W from the stage generators (g1, g2, g3)
    at each step's start, midpoint and end, by the classical stage recurrence
    k2 = g2 + (h/2) g2 g1, k3 = g2 + (h/2) g2 k2, k4 = g3 + h g3 k3,
    M = 1 + (h/6) (g1 + 2 (k2 + k3) + k4): three products ``mul`` per step in
    an algebra with unit ``one``.  h = -i dt steps G = -i F by dt.  A 1-d h
    runs along the tables' leading axis; any other h broadcasts as it is.

    Each k is the fresh array ``mul`` returns, finished in place with the
    operands of every sum and product in the order written above, so the steps
    round as that expression does and hold three step tables, not a
    temporary per operation.  The steps land in ``out`` if given, else in k2's."""
    if np.ndim(h) == 1:
        h = np.reshape(h, (-1,) + (1,) * (np.ndim(g1) - 1))
    half = 0.5 * h
    k2 = mul(g2, g1)
    np.add(g2, np.multiply(half, k2, out=k2), out=k2)
    k3 = mul(g2, k2)
    np.add(g2, np.multiply(half, k3, out=k3), out=k3)
    k4 = mul(g3, k3)
    np.add(g3, np.multiply(h, k4, out=k4), out=k4)
    m = np.add(k2, k3, out=k2)
    np.add(g1, np.multiply(2.0, m, out=m), out=m)
    np.multiply(h / 6.0, np.add(m, k4, out=m), out=m)
    return np.add(one, m, out=m if out is None else out)


def _prefix_products(u: np.ndarray) -> np.ndarray:
    """Inclusive products q_k ... q_1 along axis 1 of component planes u (4, n, ...),
    later steps on the left, in place.

    A scan of log2(n) levels, each one batched Hamilton product of contiguous planes.
    """
    d = 1
    while d < u.shape[1]:
        np.stack(hamilton(u[:, d:], u[:, :-d]), out=u[:, d:])
        d *= 2
    return u


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


def _generator_planes(shape: PulseShape, grid: np.ndarray, j: np.ndarray):
    """(g, v_start, v_end): the stage generators of ``shape`` as component planes
    g (3, 4, n - 1, m), the pure quaternions (0, v) of -i sigma . v, and the
    first and last stage amplitudes (m, 3) of each lane's step j (m,)."""
    m, n = np.size(shape.tau_s), len(grid)
    stages = [v.reshape(m, n - 1, 3) for v in _stage_amplitudes(shape, grid)]
    g = np.zeros((3, 4, n - 1, m))
    for planes, v in zip(g, stages):
        planes[1:] = v.T
    lane = np.arange(m)
    return g, stages[0][lane, j], stages[2][lane, j]


def _frame_quaternions(shape: PulseShape, grid: np.ndarray) -> np.ndarray:
    """Unit frames W(t) = U(t, 0) U(tau_s, 0)^dag of ``shape``: (n, 4), or (m, n, 4) for lanes.

    U(t, 0) is the prefix product of the RK4 steps from t = 0.  U(tau_s, 0)
    is the cubic Hermite interpolant of U and U' = (0, v) U at the nodes
    around each lane's tau_s, O(h^4) like the steps, with v the step's first
    and last stage amplitudes, so it evaluates no amplitude; on a node it is
    U there exactly.  The generators, the steps and the scan are component
    planes (4, n, m), lanes last, so every numpy call reads and writes
    contiguous planes; the steps are written into the scan's buffer, and one
    transpose gives the frames (m, n, 4).
    """
    m, n = np.size(shape.tau_s), len(grid)
    tau_s = np.atleast_1d(shape.tau_s)
    j, h, x = _bracket(grid, tau_s)
    g, v_start, v_end = _generator_planes(shape, grid, j)
    u = np.empty((4, n, m))
    u[:, 0] = IDENTITY_Q[:, None]
    # an overflow leaves inf or NaN steps, which the drift guard rejects
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _rk4_steps(*g, np.diff(grid)[:, None], lambda p, q: np.array(hamilton(p, q)),
                           IDENTITY_Q[:, None, None], out=u[:, 1:])
        del g                              # freed before the scan
        drift = np.max(np.abs(np.linalg.norm(steps, axis=0) - 1.0))
    if not drift <= STEP_DRIFT:
        if not np.isfinite(drift):
            raise ValueError("trajectory frames must be unit quaternions, but an RK4 step is "
                             "not finite: the amplitude overflows the step products")
        raise ValueError(f"trajectory frames must be unit quaternions, but an RK4 step "
                         f"drifts {drift:.3g} from unit norm (limit {STEP_DRIFT:g}): "
                         "the grid does not resolve the pulse")
    _prefix_products(u)
    # U at the two nodes around each tau_s, (m, 2, 4)
    ends = np.moveaxis(u[:, j[:, None] + [0, 1], np.arange(m)[:, None]], 0, -1)
    anchor, _ = _anchor(ends, v_start, v_end, h, x)
    np.stack(hamilton(u, (anchor * CONJUGATE_Q).T[:, None]), out=u)
    q = u.transpose(2, 1, 0).copy()
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


def _span_derivative(f: np.ndarray, h: float) -> np.ndarray:
    """df/dt (k, ...) at the k nodes, spaced h, of one uniform span of samples f (k, ...).

    Each node differentiates the polynomial through the ``STENCIL_NODES``
    span nodes around it (all k where the span is shorter), centred where the
    span allows and shifted one-sided near its ends.  The weights for every
    place in the stencil come from one Vandermonde solve at unit spacing.
    """
    k = len(f)
    w = min(STENCIL_NODES, k)
    x, powers = np.arange(w) - w // 2, np.arange(w)[:, None]
    # sum_i weights[o, i] x_i^p = p x_o^(p - 1): row o differentiates at stencil node o
    weights = np.linalg.solve(x ** powers, powers * x ** np.maximum(powers - 1, 0)).T
    start = np.clip(np.arange(k) - w // 2, 0, k - w)
    stencils = f[start[:, None] + np.arange(w)]
    return np.einsum("ki,ki...->k...", weights[np.arange(k) - start], stencils) / h


def amplitude_from_axis_angle(shape: PulseShape, traj: FrameTrajectory) -> np.ndarray:
    """Recover v(t) of ``shape`` at the nodes of its frame ``traj`` from the quaternions.

    dq/dt is taken span by span between the grid's cuts (:func:`_cuts`, as in
    :func:`_build_grid`) by :func:`_span_derivative`, so no stencil reaches
    across a breakpoint, where q' jumps.  A breakpoint node takes the span to
    its right, so v is right-continuous there, like ``shape.amplitude``.
    """
    if traj.n_nodes < 16:
        raise ValueError("trajectory grid too coarse for stable differentiation")
    grid, q, cuts = traj.grid, traj.quaternions, _cuts(shape)
    edges = np.minimum(np.searchsorted(grid, cuts), len(grid) - 1)
    if not np.array_equal(grid[edges], cuts):
        raise ValueError("the frame's grid must have the pulse's breakpoints as nodes")
    dq = np.empty_like(q)
    for a, b in zip(edges, edges[1:]):
        dq[a:b + 1] = _span_derivative(q[a:b + 1], (grid[b] - grid[a]) / (b - a))
    return frame_amplitude(q, dq)


# column k of the rotation R of a frame quaternion (c, sx, sy, sz): R e_k
_ROTATION_COLUMNS = (
    lambda c, sx, sy, sz: (1.0 - 2.0 * (sy * sy + sz * sz), 2.0 * (sx * sy - c * sz),
                           2.0 * (sx * sz + c * sy)),
    lambda c, sx, sy, sz: (2.0 * (sx * sy + c * sz), 1.0 - 2.0 * (sx * sx + sz * sz),
                           2.0 * (sy * sz - c * sx)),
    lambda c, sx, sy, sz: (2.0 * (sx * sz - c * sy), 2.0 * (sy * sz + c * sx),
                           1.0 - 2.0 * (sx * sx + sy * sy)))


def _rotation_column(q: np.ndarray, k: int) -> np.ndarray:
    """Column k (..., 3) of the rotations of frame quaternions q, R e_k."""
    return np.stack(_ROTATION_COLUMNS[k](*(q[..., i] for i in range(4))), axis=-1)


def _frame_rotation(q: np.ndarray) -> np.ndarray:
    """Rotations R (..., 3, 3) of frame quaternions, W^dag (sigma . a) W = sigma . (R a):
    n(t) = R z is the last column."""
    return np.stack([_rotation_column(q, k) for k in range(3)], axis=-1)


def n_trajectory(traj: FrameTrajectory) -> NTrajectory:
    """n(t) = 1/2 tr(sigma W^dag sigma_z W), the frame's image of the z axis: the
    last column of :func:`_frame_rotation`, and only that column is computed."""
    return NTrajectory(grid=traj.grid.copy(), nhat=_rotation_column(traj.quaternions, 2))


# ----------------------------------------------------------------------
# (axis, angle) decomposition, for output only


def _bootstrap_axis(v_s: np.ndarray, v_scale: float, svec: np.ndarray, i_s: int):
    """Initial axis gauge: the direction of v_s, v just after tau_s, else the
    nearest resolvable frame."""
    if np.linalg.norm(v_s) > 1e-12 * max(1.0, v_scale):
        return v_s / np.linalg.norm(v_s)
    mags = np.linalg.norm(svec, axis=1)
    order = np.argsort(np.abs(np.arange(len(mags)) - i_s))
    hits = order[mags[order] > AXIS_FLOOR]
    if len(hits) == 0:
        return Z_AXIS.copy()
    j = hits[0]
    return (1.0 if j > i_s else -1.0) * svec[j] / mags[j]


def _unwrap_frames(v_nodes, c, svec, i_s, axis0):
    """Continuous angle psi (n,) and unit axis (n, 3), node by node along both
    sweeps from node ``i_s``, nearest tau_s.

    Each sweep starts from tau_s, with psi = 0 and axis ``axis0``.  At every
    node the previous axis signs s, and psi/2 is atan2(sign |s|, c) on the
    2 pi branch nearest the previous node.  The axis is then +-s/|s| where |s|
    exceeds ``AXIS_FLOOR`` and s stays within ~75 degrees of the previous axis
    (|s . a| > |s| / 4); elsewhere (a full turn, or s turned away) it is
    +-v/|v|, signed along the previous axis, where v is resolvable and the
    node is not ``i_s``, else the previous axis.
    """
    v_norm = np.linalg.norm(v_nodes, axis=1)
    v_floor = 1e-9 * max(float(np.max(v_norm)), 1e-300)
    mags = np.linalg.norm(svec, axis=1)
    psi = np.zeros(len(c))
    axis = np.empty((len(c), 3))
    for sweep in (range(i_s, len(c)), range(i_s, -1, -1)):
        a, half = axis0, 0.0
        for j in sweep:
            w = svec[j] @ a
            sign = 1.0 if w >= 0.0 else -1.0
            raw = np.arctan2(sign * mags[j], c[j])
            half = raw + 2.0 * np.pi * round((half - raw) / (2.0 * np.pi))
            if mags[j] > AXIS_FLOOR and abs(w) > 0.25 * mags[j]:
                a = sign * svec[j] / mags[j]
            elif j != i_s and v_norm[j] > v_floor:
                a = (1.0 if v_nodes[j] @ a >= 0.0 else -1.0) * v_nodes[j] / v_norm[j]
            psi[j], axis[j] = 2.0 * half, a
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
    # amplitude is right-continuous, so this is v just after tau_s even where
    # the node nearest tau_s is a segment boundary
    axis0 = _bootstrap_axis(shape.amplitude(traj.tau_s), v_scale, svec, i_s)
    psi, axis = _unwrap_frames(v_nodes, c, svec, i_s, axis0)
    if np.any(np.abs(np.diff(psi)) >= np.pi):
        raise ValueError("angle steps must stay below pi on the resolved grid")
    return axis, psi
