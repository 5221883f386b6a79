"""Least-squares pulse design: solve for coefficients that zero the residuals.

The design variables are Fourier or piecewise amplitude coefficients, one
affine map of the free parameters (:class:`_Parameterization`); the equations
are the normalized correction residuals.  A single-component ansatz keeps the
rotation axis fixed and pins the mean amplitude so the accumulated rotation
hits the target angle exactly; multi-component ansaetze carry the
total-rotation requirement as an extra weighted residual block.  A solve is
converged only if a re-check on the doubled grid also holds every targeted
residual and the rotation below ``VERIFIED_BOUND``.

The residual function takes a batch of points as lanes, and the
central-difference Jacobian evaluates its whole 2P-point stencil in one
call: points with equal tau_s share one grid and one batched frame pass.

Problems are posed at tau_p = 1 without loss of generality: the normalized
residuals are invariant under joint rescaling of duration and amplitude, so a
solution rescales to any duration via ``PulseShape.rescaled``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import null_space

from .corrections import (RESIDUAL_TARGETS, CorrectionReport, correction_residuals,
                          evaluate_corrections, nogo_diagnostics, normalized_residual_vector)
from .policy import active_policy
from .pulses import COMPONENTS, FourierCoefficients, PulseShape
from .sampling import pi_close_ntrajectory
from .su2 import ideal_pulse_quaternion, quaternion_product
from .trajectory import (MIN_STEPS, _build_grid, _check_lanes, _lane_frames,
                         integrate_axis_angle, n_trajectory)

ROTATION_WEIGHT = 100.0
# a converged design verifies below this on the doubled grid: its rotation
# violation and every targeted normalized residual
VERIFIED_BOUND = 1e-7
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
        if not self.components or any(c not in COMPONENTS for c in self.components):
            raise ValueError("components must be a nonempty subset of x, y, z")
        bad = [t for t in self.targets if t not in RESIDUAL_TARGETS]
        if bad:
            raise ValueError(f"unknown residual targets {bad}")
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
    is_pi_pulse: bool
    solution: DesignSolution


# ----------------------------------------------------------------------
# parameterization


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
                lift = lift[:, :-1]
                lift[-1] = -1.0
        blocks = np.eye(len(problem.components))
        self.lift = np.kron(blocks, lift)
        self.offset = np.tile(offset, len(problem.components))
        rows = np.kron(blocks, rows) @ self.lift
        rows = rows[np.any(rows != 0.0, axis=1)]
        self.basis = null_space(rows) if len(rows) else np.eye(self.lift.shape[1])
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
        problem = self.problem
        coeffs, tau_s = self.split(z)
        blocks = coeffs.reshape(len(problem.components), -1)
        rows = [COMPONENTS.index(c) for c in problem.components]
        if problem.ansatz == "fourier":
            fc = FourierCoefficients.zeros(problem.fourier_order)
            fc.cos[rows] = blocks[:, :problem.fourier_order + 1]
            fc.sin[rows] = blocks[:, problem.fourier_order + 1:]
            return PulseShape(problem.tau_p, tau_s, problem.theta, "fourier", fourier=fc)
        values = np.zeros((problem.segments, 3))
        values[:, rows] = blocks.T
        return PulseShape(problem.tau_p, tau_s, problem.theta, "piecewise_constant",
                          boundaries=np.linspace(0.0, problem.tau_p, problem.segments + 1),
                          values=values)


# ----------------------------------------------------------------------
# residual evaluation


def _swept_angle(shapes, comp: int, t: np.ndarray) -> np.ndarray:
    """Exact accumulated angle 2 int_{tau_s}^t v dt of one component, (m, len(t)).

    The m Fourier or piecewise ``shapes`` are lanes that share tau_s.
    """
    if shapes[0].representation == "piecewise_constant":
        cums = [np.concatenate([[0.0], np.cumsum(s.values[:, comp] * np.diff(s.boundaries))])
                for s in shapes]

        def antiderivative(x):
            return np.stack([np.interp(x, s.boundaries, cum) for s, cum in zip(shapes, cums)])
    else:
        c = np.stack([s.fourier.cos[comp] for s in shapes])
        sn = np.stack([s.fourier.sin[comp] for s in shapes])
        omega = 2.0 * np.pi / shapes[0].tau_p

        def antiderivative(x):
            out = c[:, :1] * x
            for k in range(1, c.shape[1]):
                out = out + c[:, k:k + 1] * np.sin(omega * k * x) / (omega * k)
                out = out - sn[:, k - 1:k] * np.cos(omega * k * x) / (omega * k)
            return out

    return 2.0 * (antiderivative(t) - antiderivative(np.array([shapes[0].tau_s])))


def _fixed_axis_nhat(shapes, comp: int, grid: np.ndarray) -> np.ndarray:
    """Closed-form n(t) (m, n, 3) of single-component lanes sharing tau_s.

    The frame axis never moves, so psi(t) = 2 int_{tau_s}^t v dt (exact for
    Fourier and piecewise amplitudes) and n(t) is an elementary rotation of z
    about the component axis; no frame ODE is needed.
    """
    psi = _swept_angle(shapes, comp, grid)
    if comp == 1:      # y axis: n = (-sin psi, 0, cos psi)
        return np.stack([-np.sin(psi), np.zeros_like(psi), np.cos(psi)], axis=-1)
    if comp == 0:      # x axis: n = (0, sin psi, cos psi)
        return np.stack([np.zeros_like(psi), np.sin(psi), np.cos(psi)], axis=-1)
    return np.tile([0.0, 0.0, 1.0], psi.shape + (1,))     # z axis: n = z for all t


def _rotation_residual(quaternions: np.ndarray, theta: float) -> np.ndarray:
    """Quaternion components of P_theta^dag W(tp) W(0)^dag relative to identity.

    ``quaternions`` is a frame (..., n, 4); the result is (..., 4).
    """
    conj = np.array([1.0, -1.0, -1.0, -1.0])
    q = quaternion_product(conj * ideal_pulse_quaternion(theta),
                           quaternion_product(quaternions[..., -1, :],
                                              conj * quaternions[..., 0, :]))
    return np.concatenate([q[..., 1:], 1.0 - q[..., :1]], axis=-1)


class _ResidualFunction:
    """z -> stacked normalized residual vector for a design problem.

    ``z`` is one point (P,) or a batch of lanes (m, P), giving (R,) or (m, R).
    Lanes with equal tau_s share one grid and are evaluated as one batch, and
    each lane equals its single-point call bit for bit.
    """

    def __init__(self, problem: DesignProblem):
        self.problem = problem
        self.param = _Parameterization(problem)
        self.comp = COMPONENTS.index(problem.components[0]) if problem.fixed_axis else None

    def lanes(self, shapes):
        """(grid, checked n(t) (m, n, 3), frames (m, n, 4) or None) of shapes sharing tau_s."""
        grid = _build_grid(shapes[0], self.problem.grid_steps)
        if self.problem.fixed_axis:
            nhat = _fixed_axis_nhat(shapes, self.comp, grid)
            _check_lanes(grid, nhat=nhat)
            return grid, nhat, None
        frames, nhat = _lane_frames(shapes, grid)
        return grid, nhat, frames

    def _residuals(self, shapes) -> np.ndarray:
        problem = self.problem
        grid, nhat, frames = self.lanes(shapes)
        residuals = correction_residuals(grid, nhat, shapes[0].tau_s)
        parts = [normalized_residual_vector(residuals, float(grid[-1]), problem.targets)]
        if frames is not None:
            parts.append(ROTATION_WEIGHT * _rotation_residual(frames, problem.theta))
        if problem.amplitude_bound is not None:
            excess = np.array([[s.max_amplitude()] for s in shapes]) - problem.amplitude_bound
            parts.append(10.0 * np.maximum(0.0, excess) * problem.tau_p)
        if problem.power_weight > 0.0:
            t = np.linspace(0.0, problem.tau_p, 129)
            power = np.trapezoid(np.sum(np.stack([s.amplitude(t) for s in shapes]) ** 2,
                                        axis=-1), t)
            parts.append(problem.power_weight * np.sqrt(power * problem.tau_p)[:, None] / np.pi)
        return np.concatenate(parts, axis=-1)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        shapes = [self.param.build_shape(row) for row in np.atleast_2d(z)]
        groups: dict[float, list[int]] = {}
        for i, shape in enumerate(shapes):
            groups.setdefault(shape.tau_s, []).append(i)
        out = None
        for rows in groups.values():
            f = self._residuals([shapes[i] for i in rows])
            if out is None:
                out = np.empty((len(shapes), f.shape[-1]))
            out[rows] = f
        return out if np.ndim(z) == 2 else out[0]


# ----------------------------------------------------------------------
# damped least squares


def finite_difference_jacobian(fun, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian with per-coordinate relative steps.

    ``fun`` maps lanes (m, P) to (m, R) and is called once, on the stencil
    of the 2P points x + h_i e_i (row 2i) and x - h_i e_i (row 2i + 1).  The
    Jacobian is returned C-contiguous: its memory order sets the rounding of
    ``jac.T @ jac`` and with it the damped least-squares path.
    """
    n = len(x)
    h = step * np.maximum(1.0, np.abs(x))
    stencil = np.repeat(x[None, :], 2 * n, axis=0)
    cols = np.arange(n)
    stencil[2 * cols, cols] += h
    stencil[2 * cols + 1, cols] -= h
    f = fun(stencil)
    return np.ascontiguousarray(((f[0::2] - f[1::2]) / (2.0 * h)[:, None]).T)


def _levenberg_marquardt(fun, x0: np.ndarray, max_iter: int = 80,
                         cost_tol: float = 1e-20, grad_tol: float = 1e-13):
    """Damped Gauss-Newton with multiplicative damping (x3 up, /2 down)."""
    x = np.asarray(x0, dtype=float)
    f = fun(x)
    cost = float(f @ f)
    mu = 1e-3
    for _ in range(max_iter):
        if cost < cost_tol:
            break
        jac = finite_difference_jacobian(fun, x)
        grad = jac.T @ f
        if np.max(np.abs(grad)) < grad_tol:
            break
        jtj = jac.T @ jac
        improved = False
        while mu < 1e12:
            try:
                x_new = x + np.linalg.solve(jtj + mu * np.eye(len(x)), -grad)
                f_new = fun(x_new)
            except ValueError:      # a singular system, or a trial frame the guard rejects
                mu *= 3.0
                continue
            cost_new = float(f_new @ f_new)
            if np.isfinite(cost_new) and cost_new < cost:
                x, f, cost = x_new, f_new, cost_new
                mu = max(mu / 2.0, 1e-14)
                improved = True
                break
            mu *= 3.0
        if not improved:
            break
    return x, cost


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
    converged = bool(cost <= active_policy().converged_objective
                     and rot_violation < VERIFIED_BOUND and np.all(verified < VERIFIED_BOUND))
    return DesignSolution(shape=shape, report=report, objective=cost,
                          converged=converged, restarts_used=problem.restarts,
                          best_restart=idx, rotation_violation=rot_violation)


def jacobian_check(problem: DesignProblem, point: np.ndarray | None = None,
                   step: float = 1e-5, seed: int = 0):
    """Richardson comparison of the finite-difference Jacobian at steps h and h/2.

    Returns (max relative deviation, flagged); smooth ansaetze stay below 1e-4.
    """
    residual = _ResidualFunction(problem)
    if point is None:
        point = residual.param.random_start(np.random.default_rng(seed))
    point = np.asarray(point, dtype=float)
    j1 = finite_difference_jacobian(residual, point, step)
    j2 = finite_difference_jacobian(residual, point, step / 2.0)
    scale = max(1.0, float(np.max(np.abs(j2))))
    deviation = float(np.max(np.abs(j1 - j2)) / scale)
    return deviation, deviation > 1e-4


def feasibility_probe(problem: DesignProblem, seed: int = 0) -> ProbeResult:
    """Search a no-go (or open) regime and report the best objective found
    together with the analytic gap bound of the best candidate.

    The search runs the problem's restarts on at most 256 grid steps.

    In the pi second-order regime the certificate is evaluated on a
    geodesically pi-closed copy of the best trajectory, where the bound
    objective >= (pi2_gap / tau_p^2)^2 is an exact inequality.
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
                       is_pi_pulse=diag.is_pi_pulse, solution=sol)


def probe_regime(problem: DesignProblem) -> str:
    """The no-go regime a problem falls in: "pi-second-order", "end-split" or "open"."""
    if abs(problem.theta - np.pi) < 1e-12 and "r2a" in problem.targets:
        return "pi-second-order"
    return "end-split" if problem.tau_s == 1.0 else "open"

