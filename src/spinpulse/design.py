"""Least-squares pulse design: solve for coefficients that zero the residuals.

The design variables are Fourier or piecewise amplitude coefficients, one
affine map of the free parameters (:class:`_Parameterization`); the equations
are the normalized correction residuals.  A single-component ansatz keeps the
rotation axis fixed at y, the axis of P_theta, and pins the mean amplitude so
the accumulated rotation hits the target angle exactly; multi-component
ansaetze carry the total-rotation requirement as an extra weighted residual
block.  A solve is converged only if a re-check on the doubled grid also holds
every targeted residual and the rotation below ``VERIFIED_BOUND``.

The residual function evaluates one point at a time.  Every point of a
problem has the same grid, whatever its tau_s, so the grid, its Simpson rule
and the stage amplitudes of dv/dz are built once per problem.  An evaluation
returns a record of the point, its frame and its residual vector; the Jacobian
integrates no frame but differentiates that record by Duhamel's formula, the
exact gradient of GRAPE (Khaneja et al., J. Magn. Reson. 172, 296 (2005)), so
a Levenberg-Marquardt iteration integrates only its trial points.  Only the
rows that read no frame, the amplitude bound and the power, are central
differences.

Problems are posed at tau_p = 1 without loss of generality: the normalized
residuals are invariant under joint rescaling of duration and amplitude, so a
solution rescales to any duration via ``PulseShape.rescaled``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .corrections import (RESIDUAL_TARGETS, CorrectionReport, SimpsonRule,
                          correction_residuals, evaluate_corrections, nogo_diagnostics,
                          normalized_residual_vector)
from .pulses import COMPONENTS, FourierCoefficients, PulseShape
from .sampling import pi_close_ntrajectory
from .su2 import CONJUGATE_Q, ideal_pulse_quaternion, quaternion_product
from .trajectory import (MIN_STEPS, _anchor, _bracket, _build_grid, _check_trajectory,
                         _frame_quaternions, _frame_rotation, _hermite,
                         _stage_amplitudes, integrate_axis_angle, n_trajectory)

ROTATION_WEIGHT = 100.0
# a converged design verifies below this on the doubled grid: its rotation
# violation and every targeted normalized residual
VERIFIED_BOUND = 1e-7
# and its objective, the squared residual norm, is at most this
CONVERGED_OBJECTIVE = 1e-16
# Levenberg-Marquardt stops below this cost, or this largest gradient component
STOP_COST = 1e-20
STOP_GRADIENT = 1e-13
FREE = "free"


class IllPosedProblem(ValueError):
    """The constraints leave fewer free coefficients than the targets need."""


@dataclass(frozen=True)
class DesignProblem:
    theta: float
    tau_s: float | str = 0.5            # fraction value in [0, 1] of tau_p, or "free"
    fourier_order: int = 2
    components: tuple[str, ...] = ("y",)
    targets: tuple[str, ...] = ("r1",)
    symmetric: bool = True              # cosine-only ansatz
    endpoint_derivatives: int = 0       # leading t-derivatives forced to zero at both ends
    amplitude_bound: float | None = None
    power_weight: float = 0.0
    ansatz: str = "fourier"             # or "piecewise"
    segments: int = 8                   # piecewise ansatz only
    grid_steps: int = 512
    restarts: int = 32
    tau_p: float = field(default=1.0, init=False)

    def __post_init__(self):
        if self.ansatz not in ("fourier", "piecewise"):
            raise ValueError("ansatz must be 'fourier' or 'piecewise'")
        if self.ansatz == "fourier" and self.fourier_order < 1:
            raise ValueError("fourier order must be at least 1")
        if self.segments < 1:
            raise ValueError("segments must be at least 1")
        if self.endpoint_derivatives < 0:
            raise ValueError("endpoint_zero_derivatives must not be negative")
        if self.endpoint_derivatives and self.ansatz == "piecewise":   # vacuous there
            raise ValueError("endpoint_zero_derivatives must be 0 for the piecewise ansatz")
        if not np.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.amplitude_bound is not None and not 0.0 < self.amplitude_bound < np.inf:
            raise ValueError("amplitude_bound must be finite and positive")
        if not 0.0 <= self.power_weight < np.inf:
            raise ValueError("power_weight must be finite and not negative")
        if not self.components or any(c not in COMPONENTS for c in self.components):
            raise ValueError("components must be a nonempty subset of x, y, z")
        if len(set(self.components)) != len(self.components):
            # a repeated block never reaches the pulse: zero Jacobian columns
            raise ValueError("components must be distinct: each of x, y, z at most once")
        if self.fixed_axis and self.components != ("y",):
            # x or z pins the swept angle about itself, never P_theta's rotation
            raise ValueError("components: a fixed axis must be y, the axis of P_theta")
        if not self.targets or any(t not in RESIDUAL_TARGETS for t in self.targets):
            raise ValueError(f"targets must be a nonempty subset of r1, r2a, r2b, "
                             f"got {list(self.targets)}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("targets must be distinct: each of r1, r2a, r2b at most once")
        if self.grid_steps < MIN_STEPS:
            raise ValueError(f"grid must have at least {MIN_STEPS} steps")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if isinstance(self.tau_s, str):
            if self.tau_s != FREE:
                raise ValueError("tau_s must be a number or 'free'")
        elif not 0.0 <= float(self.tau_s) <= 1.0:
            raise ValueError("tau_s must lie in [0, 1] as a fraction of tau_p")

    @property
    def fixed_axis(self) -> bool:
        return len(self.components) == 1

    def target_equation_count(self) -> int:
        """Scalar equations after the fixed-axis reduction."""
        if not self.fixed_axis:
            return 3 * len(self.targets)
        per = {"r1": 2, "r2a": 2, "r2b": 1}
        return sum(per[t] for t in self.targets)


@dataclass(frozen=True)
class DesignSolution:
    shape: PulseShape
    report: CorrectionReport
    objective: float
    converged: bool
    restarts_used: int
    best_restart: int
    rotation_violation: float


@dataclass(frozen=True)
class ProbeResult:
    """Numerical infeasibility certificate: evidence, never a proof."""

    regime: str                 # "end-split", "pi-second-order" or "open"
    best_objective: float
    gap: float                  # diagnostic gap of the best candidate
    gap_bound: float            # squared normalized gap; objective >= bound in no-go regimes
    solution: DesignSolution


# ----------------------------------------------------------------------
# parameterization


def _null_space(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (N, N - rank) of the null space of ``rows`` (M, N).

    This is ``scipy.linalg.null_space`` bit for bit: the rows of vh past the
    rank, the count of singular values above s.max() * eps * max(M, N).  vh is
    taken in Fortran order, as LAPACK hands it to scipy, so the basis is the
    same strided view and the BLAS products that read it (the random starts,
    dc/dz) round alike.
    """
    _, s, vh = np.linalg.svd(rows, full_matrices=True)
    rank = np.sum(s > s.max() * np.finfo(s.dtype).eps * max(rows.shape))
    return np.asfortranarray(vh)[rank:].T


class _Parameterization:
    """The affine map z -> c = offset + lift @ (basis @ z) of a design problem.

    c holds one block per problem component, in the problem's order: a Fourier
    block is a_0..a_K then b_1..b_K, a piecewise block its segment values.
    ``lift`` places the free coefficients, ``offset`` pins a fixed axis's
    rotation to -theta and ``basis`` spans the null space of the
    endpoint-derivative rows.  A free tau_s is the last entry of z, as a
    logit.  The amplitude is linear in z: dc/dz = lift @ basis is constant.
    """

    def __init__(self, problem: DesignProblem):
        self.problem = problem
        # a fixed axis pins the mean amplitude: a_0, or the last segment against
        # the others, so that the accumulated angle sweeps exactly -theta
        mean = -problem.theta / (2.0 * problem.tau_p) if problem.fixed_axis else 0.0
        if problem.ansatz == "fourier":
            k = problem.fourier_order
            ks = np.arange(1, k + 1, dtype=float)
            # d^m v/dt^m vanishes at both ends iff sum k^m a_k = 0 (m even)
            # and sum k^m b_k = 0 (m odd)
            rows = np.zeros((problem.endpoint_derivatives, 2 * k + 1))
            for m in range(1, problem.endpoint_derivatives + 1):
                start = 1 if m % 2 == 0 else k + 1
                rows[m - 1, start:start + k] = ks ** m
            keep = np.r_[not problem.fixed_axis, np.ones(k, bool),
                         np.full(k, not problem.symmetric)]
            lift = np.eye(2 * k + 1)[:, keep]
            offset = np.r_[mean, np.zeros(2 * k)]
        else:
            n_seg = problem.segments
            rows = np.zeros((0, n_seg))
            lift = np.eye(n_seg)
            offset = np.r_[np.zeros(n_seg - 1), n_seg * mean]
            if problem.fixed_axis:
                if n_seg == 1:
                    raise IllPosedProblem("a fixed axis pins the mean amplitude, which "
                                          "fixes a lone segment: segments must be at least 2")
                lift = lift[:, :-1]
                lift[-1] = -1.0
        blocks = np.eye(len(problem.components))
        self.lift = np.kron(blocks, lift)
        self.offset = np.tile(offset, len(problem.components))
        rows = np.kron(blocks, rows) @ self.lift
        rows = rows[np.any(rows != 0.0, axis=1)]
        self.basis = _null_space(rows) if len(rows) else np.eye(self.lift.shape[1])
        if self.basis.size == 0:
            raise IllPosedProblem("endpoint-derivative constraints leave no free coefficients")
        self.free_tau_s = problem.tau_s == FREE
        self.n_free = self.basis.shape[1] + (1 if self.free_tau_s else 0)

    def random_start(self, rng: np.random.Generator) -> np.ndarray:
        problem = self.problem
        coeffs = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, self.lift.shape[1]) / problem.tau_p
        z = self.basis.T @ coeffs
        if self.free_tau_s:
            frac = rng.uniform(0.15, 0.85)
            z = np.append(z, np.log(frac / (1.0 - frac)))
        return z

    def split(self, z: np.ndarray):
        """(coefficient vector c, tau_s) of the free parameters z."""
        problem = self.problem
        if self.free_tau_s:
            z, tau_s = z[:-1], problem.tau_p / (1.0 + np.exp(-z[-1]))
        else:
            tau_s = float(problem.tau_s) * problem.tau_p
        return self.offset + self.lift @ (self.basis @ z), tau_s

    def build_shape(self, z: np.ndarray) -> PulseShape:
        """The shape of the point z (P,)."""
        return self.shape_of(*self.split(z))

    def shape_of(self, coeffs: np.ndarray, tau_s) -> PulseShape:
        """The shape of a coefficient vector c (C,) and its tau_s, or of a family of
        m vectors (m, C), each with its tau_s (m,)."""
        problem = self.problem
        family = np.shape(tau_s)
        blocks = coeffs.reshape(*family, len(problem.components), -1)
        rows = [COMPONENTS.index(c) for c in problem.components]
        if problem.ansatz == "fourier":
            fc = FourierCoefficients.zeros(problem.fourier_order, family)
            fc.cos[..., rows, :] = blocks[..., :problem.fourier_order + 1]
            fc.sin[..., rows, :] = blocks[..., problem.fourier_order + 1:]
            return PulseShape(problem.tau_p, tau_s, problem.theta, "fourier", fourier=fc)
        values = np.zeros((*family, problem.segments, 3))
        values[..., rows] = np.swapaxes(blocks, -1, -2)
        return PulseShape(problem.tau_p, tau_s, problem.theta, "piecewise_constant",
                          boundaries=np.linspace(0.0, problem.tau_p, problem.segments + 1),
                          values=values)


# ----------------------------------------------------------------------
# residual evaluation


def _swept_angle(shape: PulseShape, t: np.ndarray) -> np.ndarray:
    """Exact accumulated angle 2 int_{tau_s}^t v_y dt of a Fourier or piecewise
    shape, (len(t),)."""
    if shape.representation == "piecewise_constant":
        b = shape.boundaries
        cum = np.concatenate([[0.0], np.cumsum(shape.values[:, 1] * np.diff(b))])
        return 2.0 * (np.interp(t, b, cum) - np.interp(shape.tau_s, b, cum))
    c, sn = shape.fourier.cos[1], shape.fourier.sin[1]
    omega = 2.0 * np.pi / shape.tau_p

    def antiderivative(x):
        out = c[0] * x
        for k in range(1, len(c)):
            out = out + c[k] * np.sin(omega * k * x) / (omega * k)
            out = out - sn[k - 1] * np.cos(omega * k * x) / (omega * k)
        return out

    return 2.0 * (antiderivative(t) - antiderivative(shape.tau_s))


def _fixed_axis_nhat(shape: PulseShape, grid: np.ndarray) -> np.ndarray:
    """Closed-form n(t) = (-sin psi, 0, cos psi) (n, 3) of a shape about y alone.

    The frame axis never moves, so psi(t) = 2 int_{tau_s}^t v_y dt (exact for
    Fourier and piecewise amplitudes) and n(t) is z turned about y; no frame
    ODE is needed.
    """
    psi = _swept_angle(shape, grid)
    return np.stack([-np.sin(psi), np.zeros_like(psi), np.cos(psi)], axis=-1)


def _rotation_residual(quaternions: np.ndarray, theta: float) -> np.ndarray:
    """Quaternion components of P_theta^dag W(tp) W(0)^dag relative to identity.

    ``quaternions`` is a frame (..., n, 4); the result is (..., 4).
    """
    q = quaternion_product(CONJUGATE_Q * ideal_pulse_quaternion(theta),
                           quaternion_product(quaternions[..., -1, :],
                                              CONJUGATE_Q * quaternions[..., 0, :]))
    return np.concatenate([q[..., 1:], 1.0 - q[..., :1]], axis=-1)


@dataclass(frozen=True)
class _Point:
    """One evaluated design point: what its Jacobian reads."""

    z: np.ndarray                   # (P,) free parameters
    shape: PulseShape
    nhat: np.ndarray                # (n, 3) n(t) on the problem's grid
    frames: np.ndarray | None       # (n, 4) frame quaternions, None about a fixed axis
    f: np.ndarray                   # (R,) stacked normalized residual vector


class _ResidualFunction:
    """z -> the evaluated point of a design problem, and the Jacobian at a point.

    Every point of a problem has the same grid, whatever its tau_s, and the
    amplitude is affine in z, so the grid, its Simpson rule and the stage
    amplitudes of dv/dz are built once, here.  A call evaluates one point z
    (P,) into a :class:`_Point`, whose residual vector is ``f``;
    :meth:`jacobian` differentiates that record without integrating a frame.
    """

    def __init__(self, problem: DesignProblem):
        self.problem = problem
        self.param = _Parameterization(problem)
        directions = self.param.lift @ self.param.basis
        family = self.param.shape_of(directions.T, np.zeros(directions.shape[1]))
        self.grid = _build_grid(family, problem.grid_steps)
        self.quad = SimpsonRule(self.grid)
        # steps first, directions last: R dv is then one batched matmul
        self.directions = [np.ascontiguousarray(np.moveaxis(v, 0, -1))
                           for v in _stage_amplitudes(family, self.grid)]

    def _penalty_rows(self, shape: PulseShape) -> list:
        """The rows that read no frame, amplitude bound and power, of a shape."""
        problem = self.problem
        parts = []
        if problem.amplitude_bound is not None:
            t = np.linspace(0.0, problem.tau_p, 512)
            peak = np.max(np.linalg.norm(shape.amplitude(t), axis=-1))
            excess = peak - problem.amplitude_bound
            parts.append([10.0 * np.maximum(0.0, excess) * problem.tau_p])
        if problem.power_weight > 0.0:
            t = np.linspace(0.0, problem.tau_p, 129)
            power = np.trapezoid(np.sum(shape.amplitude(t) ** 2, axis=-1), t)
            parts.append([problem.power_weight * np.sqrt(power * problem.tau_p) / np.pi])
        return parts

    def _penalties(self, z: np.ndarray) -> np.ndarray:
        """The rows that read no frame at the point z (P,)."""
        return np.concatenate(self._penalty_rows(self.param.build_shape(z)))

    def __call__(self, z: np.ndarray) -> _Point:
        problem, grid = self.problem, self.grid
        shape = self.param.build_shape(z)
        if problem.fixed_axis:
            frames, nhat = None, _fixed_axis_nhat(shape, grid)
        else:
            frames = _frame_quaternions(shape, grid)
            nhat = _frame_rotation(frames)[..., 2]
        _check_trajectory(grid, quaternions=frames, nhat=nhat)
        residuals = correction_residuals(self.quad, nhat, shape.tau_s)
        parts = [normalized_residual_vector(residuals, float(grid[-1]), problem.targets)]
        if frames is not None:
            parts.append(ROTATION_WEIGHT * _rotation_residual(frames, problem.theta))
        f = np.concatenate(parts + self._penalty_rows(shape))
        return _Point(z=z, shape=shape, nhat=nhat, frames=frames, f=f)

    def jacobian(self, point: _Point) -> np.ndarray:
        """The (R, P) Jacobian at an evaluated point, C-contiguous, with no new frame.

        The first variation of the point's frame is dW = W X with
        X = -i sigma . xi (see :meth:`_sweeps`), so n(t) = R z moves by
        dn = 2 n x xi and the rotation residual by q(tp) (0, xi(tp) - xi(0))
        q(0)^*.  r1 and r2a are linear in n and r2b is quadratic, so each
        residual column is exactly [r(n + dn) - r(n - dn)] / 2, on a batch of
        2P n(t) that need no frame.  A free tau_s adds its explicit terms and
        the logit's chain rule.  The rows that read no frame (amplitude bound
        and power) are central differences in z.  The memory order sets the
        rounding of ``jac.T @ jac`` and with it the damped least-squares path.
        """
        problem, grid, nhat, frames = self.problem, self.grid, point.nhat, point.frames
        tau_p, tau_s = float(grid[-1]), float(point.shape.tau_s)
        xi = self._sweeps(point.shape, frames)
        dn = 2.0 * np.cross(nhat, xi)
        residuals = correction_residuals(self.quad, np.concatenate([nhat + dn, nhat - dn]), tau_s)
        vectors = normalized_residual_vector(residuals, tau_p, problem.targets)
        parts = [0.5 * (vectors[:len(xi)] - vectors[len(xi):])]
        if frames is not None:
            # xi(tp) - xi(0) vanishes along a free tau_s: it moves only the anchor
            turn = np.zeros((len(xi), 4))
            turn[:, 1:] = xi[:, -1] - xi[:, 0]
            inner = quaternion_product(turn, CONJUGATE_Q * frames[0])
            dq = quaternion_product(CONJUGATE_Q * ideal_pulse_quaternion(problem.theta),
                                    quaternion_product(frames[-1], inner))
            parts.append(ROTATION_WEIGHT * np.concatenate([dq[:, 1:], -dq[:, :1]], axis=1))
        jac = np.concatenate(parts, axis=1).T
        if self.param.free_tau_s:
            # r1, r2a and r2b read tau_s also outside n(t): d r2a / d tau_s = -2 r1,
            # and r1 is linear in n, so any +/- pair gives it
            n0, n1 = nhat[0], nhat[-1]
            r1 = 0.5 * (residuals[0][0] + residuals[0][len(xi)])
            explicit = (n1 - n0, -2.0 * r1, (2.0 * tau_s - tau_p) * np.cross(n1, n0))
            jac[:len(vectors[0]), -1] += normalized_residual_vector(explicit, tau_p,
                                                                    problem.targets)
            jac[:, -1] *= tau_s * (1.0 - tau_s / tau_p)     # d tau_s / d logit
        if problem.amplitude_bound is not None or problem.power_weight > 0.0:
            jac = np.concatenate([jac, finite_difference_jacobian(self._penalties, point.z)])
        return np.ascontiguousarray(jac)

    def _sweeps(self, shape: PulseShape, frames) -> np.ndarray:
        """xi_j(t) = int_{tau_s}^t R dv_j dt at the nodes for every direction j, (P, n, 3).

        R is the frame's rotation (n = R z), the identity about a fixed axis,
        and dv_j = dv/dz_j is constant: the amplitude is affine in z.  The
        integral is one cumulative Simpson sum; its value at tau_s is the cubic
        Hermite interpolant of its nodes, as the frame's anchor is.  Along a
        free tau_s, xi is constant: minus the anchor's rate, -v(tau_s) about a
        fixed axis, whose n(t) is exact in tau_s.
        """
        grid, quad, tau_s = self.grid, self.quad, shape.tau_s
        n = len(grid)
        v1, v2, v3 = self.directions                # (n - 1, 3, P) each
        rot = np.broadcast_to(np.eye(3), (n, 3, 3)) if frames is None else _frame_rotation(frames)
        if self.problem.ansatz == "piecewise":      # dv_j is constant on every step
            steps = quad.intervals(rot.reshape(n, 9)).reshape(n - 1, 3, 3) @ v2
            sweep = np.cumsum(np.vstack([np.zeros_like(steps[:1]), steps]), axis=0).reshape(n, -1)
        else:
            sweep = quad.running((rot @ np.concatenate([v1, v3[-1:]])).reshape(n, -1))
        j, h, x = (part[0] for part in _bracket(grid, np.array([tau_s])))
        slopes = h * (rot[j:j + 2] @ np.stack([v1[j], v3[j]])).reshape(2, -1)
        xi = (sweep - _hermite(sweep[j:j + 2], slopes, x)[0]).reshape(n, 3, -1)
        xi = np.moveaxis(xi, -1, 0)
        if not self.param.free_tau_s:
            return xi
        if frames is None:
            xi_tau = -shape.amplitude(tau_s)
        else:
            # U at the two nodes, up to a common norm, from W = U U(tau_s, 0)^dag
            ends = quaternion_product(frames[j:j + 2], CONJUGATE_Q * frames[0])
            v_start, _, v_end = _stage_amplitudes(shape, grid[j:j + 2])
            anchor, rate = _anchor(ends[None], v_start, v_end, h[None], x[None])
            # W = U b with b = anchor^* / |anchor|: xi = vec(b^* db)
            xi_tau = (quaternion_product(anchor, CONJUGATE_Q * rate)[0, 1:]
                      / (h * (anchor @ anchor.T)[0]))
        return np.concatenate([xi, np.broadcast_to(xi_tau, (1, n, 3))])


# ----------------------------------------------------------------------
# damped least squares


def finite_difference_jacobian(fun, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian with per-coordinate relative steps, C-contiguous.

    ``fun`` maps a point (P,) to (R,); column i is
    [fun(x + h_i e_i) - fun(x - h_i e_i)] / (2 h_i), two calls per column.
    The design loop differences only the rows that read no frame with it; the
    tests use it as the oracle of :meth:`_ResidualFunction.jacobian`.
    """
    h = step * np.maximum(1.0, np.abs(x))
    return np.stack([(fun(x + d) - fun(x - d)) / (2.0 * h_i)
                     for d, h_i in zip(np.diag(h), h)], axis=1)


def _levenberg_marquardt(fun: _ResidualFunction, x0: np.ndarray, max_iter: int = 80):
    """Damped Gauss-Newton with multiplicative damping (x3 up, /2 down).

    ``fun`` is a residual function: a call evaluates a point, and its
    ``jacobian`` differentiates the evaluated point.  The loop carries the
    record of its current point, so each iteration evaluates only its trial
    points and the Jacobian reads the frame of the trial accepted there.
    """
    point = fun(np.asarray(x0, dtype=float))
    cost = float(point.f @ point.f)
    mu = 1e-3
    for _ in range(max_iter):
        if cost < STOP_COST:
            break
        jac = fun.jacobian(point)
        grad = jac.T @ point.f
        if np.max(np.abs(grad)) < STOP_GRADIENT:
            break
        jtj = jac.T @ jac
        improved = False
        while mu < 1e12:
            try:
                trial = fun(point.z + np.linalg.solve(jtj + mu * np.eye(len(point.z)), -grad))
            except ValueError:      # a singular system, or a trial frame the guard rejects
                mu *= 3.0
                continue
            cost_new = float(trial.f @ trial.f)
            if np.isfinite(cost_new) and cost_new < cost:
                point, cost = trial, cost_new
                mu = max(mu / 2.0, 1e-14)
                improved = True
                break
            mu *= 3.0
        if not improved:
            break
    return point.z, cost


def solve(problem: DesignProblem, seed: int = 0,
          allow_underdetermined: bool = False) -> DesignSolution:
    """Multi-start damped least squares; deterministic reduction by (objective, index)."""
    residual = _ResidualFunction(problem)
    if not allow_underdetermined and residual.param.n_free < problem.target_equation_count():
        raise IllPosedProblem(
            f"{residual.param.n_free} free coefficients cannot honor "
            f"{problem.target_equation_count()} target equations")
    rng = np.random.default_rng(seed)
    starts = [residual.param.random_start(rng) for _ in range(problem.restarts)]
    best = None
    for idx, z0 in enumerate(starts):
        z, cost = _levenberg_marquardt(residual, z0)
        if best is None or cost < best[0]:
            best = (cost, idx, z)
    cost, idx, z = best

    # verification pass on a doubled grid through the full frame machinery
    shape = residual.param.build_shape(z)
    traj = integrate_axis_angle(shape, 2 * problem.grid_steps)
    report = evaluate_corrections(n_trajectory(traj), shape.tau_s)
    rot_violation = float(np.linalg.norm(_rotation_residual(traj.quaternions, problem.theta)))
    verified = report.normalized[[RESIDUAL_TARGETS.index(t) for t in problem.targets]]
    converged = bool(cost <= CONVERGED_OBJECTIVE
                     and rot_violation < VERIFIED_BOUND and np.all(verified < VERIFIED_BOUND))
    return DesignSolution(shape=shape, report=report, objective=cost,
                          converged=converged, restarts_used=problem.restarts,
                          best_restart=idx, rotation_violation=rot_violation)


def feasibility_probe(problem: DesignProblem, seed: int = 0) -> ProbeResult:
    """Search a no-go (or open) regime and report the best objective found
    together with the analytic gap bound of the best candidate.

    The search runs the problem's restarts on at most 256 grid steps, each
    restart for at most 80 Levenberg-Marquardt iterations.  The reported
    objective is the lowest one reached: a candidate's, not a proven minimum
    of the regime.

    In the pi second-order regime the certificate is evaluated on a
    geodesically pi-closed copy of that candidate's trajectory, where the
    bound objective >= (pi2_gap / tau_p^2)^2 is an exact inequality: it holds
    for the candidate, wherever the search stopped.
    """
    probe_problem = replace(problem, grid_steps=min(problem.grid_steps, 256))
    sol = solve(probe_problem, seed=seed, allow_underdetermined=True)
    shape = sol.shape
    ntraj = n_trajectory(integrate_axis_angle(shape, 2 * problem.grid_steps))
    regime = probe_regime(problem)
    if regime == "pi-second-order":
        closed = pi_close_ntrajectory(ntraj)
        report = evaluate_corrections(closed, shape.tau_s)
        diag = nogo_diagnostics(closed, shape.tau_s)
        gap = diag.pi2_gap
        objective = float(np.sum(report.normalized_vector(problem.targets) ** 2))
        bound = (gap / shape.tau_p ** 2) ** 2
    elif regime == "end-split":
        diag = nogo_diagnostics(ntraj, shape.tau_p)
        gap, objective = diag.tsp_gap, sol.objective
        bound = (gap / shape.tau_p) ** 2
    else:
        diag = nogo_diagnostics(ntraj, shape.tau_s)
        gap, objective, bound = diag.pi2_gap, sol.objective, float("nan")
    return ProbeResult(regime=regime, best_objective=objective, gap=gap, gap_bound=bound,
                       solution=sol)


def probe_regime(problem: DesignProblem) -> str:
    """The no-go regime a problem falls in: "pi-second-order", "end-split" or "open"."""
    if abs(problem.theta - np.pi) < 1e-12 and "r2a" in problem.targets:
        return "pi-second-order"
    return "end-split" if problem.tau_s == 1.0 else "open"

