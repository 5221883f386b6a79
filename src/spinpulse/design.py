"""Least-squares pulse design: solve for coefficients that zero the residuals.

The design variables are Fourier (or piecewise) coefficients of the amplitude;
the equations are the normalized correction residuals.  A single-component
ansatz keeps the rotation axis fixed and pins the mean amplitude so the
accumulated rotation hits the target angle exactly; multi-component ansaetze
carry the total-rotation requirement as an extra weighted residual block.

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
from .su2 import quaternion_product
from .trajectory import MIN_STEPS, NTrajectory, integrate_axis_angle, n_trajectory

ROTATION_WEIGHT = 100.0
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
    budget: int
    solution: DesignSolution


# ----------------------------------------------------------------------
# parameterization


class _Parameterization:
    """Packs free parameters into coefficient arrays honoring the constraints."""

    def __init__(self, problem: DesignProblem):
        self.problem = problem
        self.comp_idx = [COMPONENTS.index(c) for c in problem.components]
        if problem.ansatz == "fourier":
            k = problem.fourier_order
            self.n_cos = k                      # a_1..a_K per component
            self.n_sin = 0 if problem.symmetric else k
        else:
            self.n_cos = problem.segments - 1 if problem.fixed_axis else problem.segments
            self.n_sin = 0
        per_comp = self.n_cos + self.n_sin
        if not problem.fixed_axis and problem.ansatz == "fourier":
            per_comp += 1                        # a_0 free per component
        self.n_coeff = per_comp * len(self.comp_idx)
        self.free_tau_s = problem.tau_s == FREE
        self.basis = self._constraint_nullspace()
        self.n_free = self.basis.shape[1] + (1 if self.free_tau_s else 0)

    def _constraint_nullspace(self) -> np.ndarray:
        problem = self.problem
        if problem.ansatz != "fourier" or problem.endpoint_derivatives < 1:
            return np.eye(self.n_coeff)
        k = problem.fourier_order
        ks = np.arange(1, k + 1, dtype=float)
        rows = []
        per_comp = self.n_cos + self.n_sin + (0 if problem.fixed_axis else 1)
        for ci in range(len(self.comp_idx)):
            base = ci * per_comp + (0 if problem.fixed_axis else 1)
            for m in range(1, problem.endpoint_derivatives + 1):
                row = np.zeros(self.n_coeff)
                if m % 2 == 0:
                    row[base: base + k] = ks ** m          # cosine block
                elif not problem.symmetric:
                    row[base + self.n_cos: base + self.n_cos + k] = ks ** m
                else:
                    continue                                # sines absent: already zero
                rows.append(row)
        if not rows:
            return np.eye(self.n_coeff)
        ns = null_space(np.array(rows))
        if ns.size == 0:
            raise IllPosedProblem("endpoint-derivative constraints leave no free coefficients")
        return ns

    def random_start(self, rng: np.random.Generator) -> np.ndarray:
        problem = self.problem
        coeffs = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, self.n_coeff) / problem.tau_p
        z = self.basis.T @ coeffs
        if self.free_tau_s:
            frac = rng.uniform(0.15, 0.85)
            z = np.append(z, np.log(frac / (1.0 - frac)))
        return z

    def split(self, z: np.ndarray):
        problem = self.problem
        if self.free_tau_s:
            coeffs = self.basis @ z[:-1]
            tau_s = problem.tau_p / (1.0 + np.exp(-z[-1]))
        else:
            coeffs = self.basis @ z
            tau_s = float(problem.tau_s) * problem.tau_p
        return coeffs, tau_s

    def build_shape(self, z: np.ndarray) -> PulseShape:
        problem = self.problem
        coeffs, tau_s = self.split(z)
        if problem.ansatz == "fourier":
            return self._fourier_shape(coeffs, tau_s)
        return self._piecewise_shape(coeffs, tau_s)

    def _fourier_shape(self, coeffs: np.ndarray, tau_s: float) -> PulseShape:
        problem = self.problem
        k = problem.fourier_order
        fc = FourierCoefficients.zeros(k)
        pos = 0
        for i in self.comp_idx:
            if not problem.fixed_axis:
                fc.cos[i, 0] = coeffs[pos]
                pos += 1
            fc.cos[i, 1:] = coeffs[pos: pos + self.n_cos]
            pos += self.n_cos
            if self.n_sin:
                fc.sin[i, :] = coeffs[pos: pos + self.n_sin]
                pos += self.n_sin
        if problem.fixed_axis:
            # mean amplitude pinned: accumulated angle sweeps exactly -theta
            fc.cos[self.comp_idx[0], 0] = -problem.theta / (2.0 * problem.tau_p)
        return PulseShape(problem.tau_p, tau_s, problem.theta, "fourier", fourier=fc)

    def _piecewise_shape(self, coeffs: np.ndarray, tau_s: float) -> PulseShape:
        problem = self.problem
        n_seg = problem.segments
        bounds = np.linspace(0.0, problem.tau_p, n_seg + 1)
        values = np.zeros((n_seg, 3))
        pos = 0
        width = problem.tau_p / n_seg
        for i in self.comp_idx:
            if problem.fixed_axis:
                free = coeffs[pos: pos + n_seg - 1]
                pos += n_seg - 1
                last = (-problem.theta / 2.0 - float(np.sum(free)) * width) / width
                values[:, i] = np.append(free, last)
            else:
                values[:, i] = coeffs[pos: pos + n_seg]
                pos += n_seg
        return PulseShape(problem.tau_p, tau_s, problem.theta, "piecewise_constant",
                          boundaries=bounds, values=values)


# ----------------------------------------------------------------------
# residual evaluation


def _fourier_angle(shape: PulseShape, comp: int, t: np.ndarray) -> np.ndarray:
    """Exact accumulated angle 2 int_{tau_s}^t v dt of one Fourier component."""
    c = shape.fourier.cos[comp]
    s = shape.fourier.sin[comp]
    omega = 2.0 * np.pi / shape.tau_p

    def antiderivative(x):
        out = c[0] * x
        for k in range(1, len(c)):
            out = out + c[k] * np.sin(omega * k * x) / (omega * k)
            out = out - s[k - 1] * np.cos(omega * k * x) / (omega * k)
        return out

    return 2.0 * (antiderivative(t) - antiderivative(np.asarray(shape.tau_s)))


def _piecewise_angle(shape: PulseShape, comp: int, t: np.ndarray) -> np.ndarray:
    """Exact (piecewise-linear) accumulated angle of one piecewise component."""
    widths = np.diff(shape.boundaries)
    cum = np.concatenate([[0.0], np.cumsum(shape.values[:, comp] * widths)])
    return 2.0 * (np.interp(t, shape.boundaries, cum)
                  - np.interp(shape.tau_s, shape.boundaries, cum))


def _fixed_axis_ntrajectory(shape: PulseShape, comp: int, steps: int) -> NTrajectory:
    """Closed-form n(t) for a single-component pulse.

    The frame axis never moves, so psi(t) = 2 int_{tau_s}^t v dt (exact for
    Fourier and piecewise amplitudes) and n(t) is an elementary rotation of z
    about the component axis; no frame ODE is needed.
    """
    grid = np.linspace(0.0, shape.tau_p, steps + 1)
    if shape.representation == "piecewise_constant":
        for b in shape.boundaries[1:-1]:
            if np.min(np.abs(grid - b)) > 1e-12 * shape.tau_p:
                grid = np.sort(np.append(grid, b))
        psi = _piecewise_angle(shape, comp, grid)
    else:
        psi = _fourier_angle(shape, comp, grid)
    if comp == 1:      # y axis: n = (-sin psi, 0, cos psi)
        nhat = np.stack([-np.sin(psi), np.zeros_like(psi), np.cos(psi)], axis=1)
    elif comp == 0:    # x axis: n = (0, sin psi, cos psi)
        nhat = np.stack([np.zeros_like(psi), np.sin(psi), np.cos(psi)], axis=1)
    else:              # z axis: n = z for all t
        nhat = np.tile([0.0, 0.0, 1.0], (len(grid), 1))
    return NTrajectory(grid=grid, nhat=nhat)


def _rotation_residual(traj, theta: float) -> np.ndarray:
    """Quaternion components of P_theta^dag W(tp) W(0)^dag relative to identity."""
    conj = np.array([1.0, -1.0, -1.0, -1.0])
    q_theta = np.array([np.cos(0.5 * theta), 0.0, -np.sin(0.5 * theta), 0.0])
    q = quaternion_product(conj * q_theta,
                           quaternion_product(traj.quaternions[-1], conj * traj.quaternions[0]))
    return np.append(q[1:], 1.0 - q[0])


class _ResidualFunction:
    """z -> stacked normalized residual vector for a design problem."""

    def __init__(self, problem: DesignProblem):
        self.problem = problem
        self.param = _Parameterization(problem)
        self.fast_axis = problem.fixed_axis
        self.comp = COMPONENTS.index(problem.components[0]) if problem.fixed_axis else None

    def ntrajectory(self, z: np.ndarray):
        shape = self.param.build_shape(z)
        if self.fast_axis:
            return _fixed_axis_ntrajectory(shape, self.comp, self.problem.grid_steps), None, shape
        traj = integrate_axis_angle(shape, self.problem.grid_steps)
        return n_trajectory(traj), traj, shape

    def __call__(self, z: np.ndarray) -> np.ndarray:
        ntraj, traj, shape = self.ntrajectory(z)
        residuals = correction_residuals(ntraj.grid, ntraj.nhat, shape.tau_s)
        parts = [normalized_residual_vector(residuals, ntraj.tau_p, self.problem.targets)]
        if traj is not None:
            parts.append(ROTATION_WEIGHT * _rotation_residual(traj, self.problem.theta))
        if self.problem.amplitude_bound is not None:
            excess = shape.max_amplitude() - self.problem.amplitude_bound
            parts.append(np.array([10.0 * max(0.0, excess) * self.problem.tau_p]))
        if self.problem.power_weight > 0.0:
            grid = np.linspace(0.0, shape.tau_p, 129)
            power = np.trapezoid(np.sum(shape.amplitude(grid) ** 2, axis=1), grid)
            parts.append(np.array([self.problem.power_weight * np.sqrt(power * shape.tau_p) / np.pi]))
        return np.concatenate(parts)


# ----------------------------------------------------------------------
# damped least squares


def finite_difference_jacobian(fun, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian with per-coordinate relative steps."""
    columns = []
    for i in range(len(x)):
        h = step * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        columns.append((fun(xp) - fun(xm)) / (2.0 * h))
    return np.stack(columns, axis=1)


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
                dx = np.linalg.solve(jtj + mu * np.eye(len(x)), -grad)
            except np.linalg.LinAlgError:
                mu *= 3.0
                continue
            x_new = x + dx
            f_new = fun(x_new)
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
    rot_violation = float(np.linalg.norm(_rotation_residual(traj, problem.theta)))
    converged = bool(cost <= active_policy().converged_objective and rot_violation < 1e-7)
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


def feasibility_probe(problem: DesignProblem, budget: int = 16, seed: int = 0) -> ProbeResult:
    """Search a no-go (or open) regime and report the best objective found
    together with the analytic gap bound of the best candidate.

    In the pi second-order regime the certificate is evaluated on a
    geodesically pi-closed copy of the best trajectory, where the bound
    objective >= (pi2_gap / tau_p^2)^2 is an exact inequality.
    """
    probe_problem = replace(problem, restarts=budget,
                            grid_steps=min(problem.grid_steps, 256))
    sol = solve(probe_problem, seed=seed, allow_underdetermined=True)
    shape = sol.shape
    ntraj = n_trajectory(integrate_axis_angle(shape, 2 * problem.grid_steps))
    if residual_is_pi_regime(problem):
        closed = pi_close_ntrajectory(ntraj)
        report = evaluate_corrections(closed, shape.tau_s)
        diag = nogo_diagnostics(closed, shape.tau_s)
        objective = float(np.sum(report.normalized_vector(problem.targets) ** 2))
        bound = (diag.pi2_gap / shape.tau_p ** 2) ** 2
        return ProbeResult(regime="pi-second-order", best_objective=objective,
                           gap=diag.pi2_gap, gap_bound=bound,
                           is_pi_pulse=diag.is_pi_pulse, budget=budget, solution=sol)
    if not isinstance(problem.tau_s, str) and float(problem.tau_s) >= 1.0:
        diag = nogo_diagnostics(ntraj, shape.tau_p)
        bound = (diag.tsp_gap / shape.tau_p) ** 2
        return ProbeResult(regime="end-split", best_objective=sol.objective,
                           gap=diag.tsp_gap, gap_bound=bound,
                           is_pi_pulse=diag.is_pi_pulse, budget=budget, solution=sol)
    diag = nogo_diagnostics(ntraj, shape.tau_s)
    return ProbeResult(regime="open", best_objective=sol.objective, gap=diag.pi2_gap,
                       gap_bound=float("nan"), is_pi_pulse=diag.is_pi_pulse,
                       budget=budget, solution=sol)


def residual_is_pi_regime(problem: DesignProblem) -> bool:
    return abs(problem.theta - np.pi) < 1e-12 and "r2a" in problem.targets

