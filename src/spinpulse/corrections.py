"""First- and second-order correction residuals of a pulse trajectory.

Everything here is a functional of the unit-vector path n(t) and the splitting
instant tau_s.  The three residuals are oriented as (integral side) minus
(boundary side), so a vanishing residual is exactly the corresponding design
condition and the sign is fixed for least-squares use:

    r1  = int_0^tp n dt                - [(tp - ts) n(tp) + ts n(0)]
    r2a = 2 int_0^tp (t - ts) n dt     - [(tp - ts)^2 n(tp) - ts^2 n(0)]
    r2b = int int_{t2<t1} n(t1) x n(t2) - ts (tp - ts) n(tp) x n(0)

Normalized forms divide by tau_p (r1) and tau_p^2 (r2a, r2b).  The residuals
feed both the operator-level correction terms (see :func:`eta_operators`) and
the two no-go diagnostics.

Quadrature is composite Simpson on the (possibly non-uniform) trajectory grid:
each interval integrates the quadratic through three neighbouring nodes
(Cartwright's formulas, see :func:`_simpson_intervals`); on trajectory grids
no panel of the grid or of its halved grid crosses a breakpoint, and n(t) has
no kink at tau_s.
Full integrals are sums of the interval integrals and the inner integral of
r2b is their running sum, matching ``scipy.integrate.simpson`` and
``cumulative_simpson`` up to rounding.  The halved-grid error estimate
``quad_err`` exists only in the reports of :func:`evaluate_corrections`; the
design loop calls :func:`correction_residuals`, which skips it and takes n(t)
with leading lane axes, all on one grid, each lane with its own tau_s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathModel
from .policy import active_policy
from .su2 import pauli_dot
from .trajectory import NTrajectory

RESIDUAL_TARGETS = ("r1", "r2a", "r2b")


@dataclass(frozen=True)
class CorrectionReport:
    tau_p: float
    tau_s: float
    r1: np.ndarray
    r2a: np.ndarray
    r2b: np.ndarray
    quad_err: np.ndarray        # per-residual norm change under grid halving
    n_start: np.ndarray
    n_end: np.ndarray
    r2b_valid: bool             # r2b presupposes r1 ~ 0
    unconverged: bool

    @property
    def norms(self) -> np.ndarray:
        return np.array([np.linalg.norm(self.r1), np.linalg.norm(self.r2a),
                         np.linalg.norm(self.r2b)])

    @property
    def normalized(self) -> np.ndarray:
        """Dimensionless residual norms (|r1|/tp, |r2a|/tp^2, |r2b|/tp^2)."""
        scales = np.array([self.tau_p, self.tau_p ** 2, self.tau_p ** 2])
        return self.norms / scales

    def normalized_vector(self, targets=RESIDUAL_TARGETS) -> np.ndarray:
        """Stacked dimensionless residual components for the requested targets."""
        return normalized_residual_vector((self.r1, self.r2a, self.r2b),
                                          self.tau_p, targets)


def normalized_residual_vector(residuals, tau_p: float,
                               targets=RESIDUAL_TARGETS) -> np.ndarray:
    """Stack (r1/tp, r2a/tp^2, r2b/tp^2) components of the requested targets."""
    r1, r2a, r2b = residuals
    parts = []
    for t in targets:
        if t == "r1":
            parts.append(r1 / tau_p)
        elif t == "r2a":
            parts.append(r2a / tau_p ** 2)
        elif t == "r2b":
            parts.append(r2b / tau_p ** 2)
        else:
            raise ValueError(f"unknown residual target {t!r}")
    return np.concatenate(parts, axis=-1)


@dataclass(frozen=True)
class NoGoDiagnostics:
    tsp_gap: float       # tau_p - int cos(alpha) dt   (end-splitting obstruction)
    pi2_gap: float       # [(tp-ts)^2 + ts^2] + 2 int (t-ts) cos(alpha) dt
    is_pi_pulse: bool    # n(0) = -n(tau_p) within tolerance; pi2_gap is only
                         # meaningful on the pi manifold


def _simpson_intervals(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Simpson integrals of ``values`` (..., n, k) over the n - 1 intervals of ``grid``.

    Interval j integrates the quadratic through three neighbouring nodes
    exactly (Cartwright 2017, eq. 8): forward on (t_j, t_j+1, t_j+2) for even j,
    backward on (t_j+1, t_j, t_j-1) for odd j and for the last interval, so the
    intervals pair up on the triplets (t_0, t_1, t_2), (t_2, t_3, t_4), ...
    The weights depend on the grid spacing alone.
    """
    if len(grid) < 3:
        raise ValueError("Simpson quadrature needs at least 3 nodes")
    h = np.diff(grid)
    j = np.arange(len(h))
    back = (j % 2 == 1) | (j == len(h) - 1)
    step = 1 - 2 * back                      # +1 forward, -1 backward
    near = j + 1 - back                      # middle node of the triplet
    a, b = h, h[j + step]                    # own width, neighbour's width
    a_ab = a / (a + b)
    aa_abb = a_ab * a / b
    w_own = a / 6.0 * (3.0 - a_ab)
    w_near = a / 6.0 * (3.0 + aa_abb + a_ab)
    w_far = a / 6.0 * -aa_abb
    return (w_own[:, None] * values[..., j + back, :] + w_near[:, None] * values[..., near, :]
            + w_far[:, None] * values[..., near + step, :])


def correction_residuals(grid: np.ndarray, nhat: np.ndarray, tau_s: float | np.ndarray):
    """The vector residuals (r1, r2a, r2b) of n(t) sampled on ``grid``.

    ``nhat`` is (..., n, 3); any leading axes are lanes that share the grid,
    and ``tau_s`` is one value or one per lane (...,).  Each residual is then
    (..., 3), every lane equal bit for bit to its own unbatched call.
    """
    tau_p = grid[-1]
    tau_s = np.asarray(tau_s, dtype=float)[..., None]
    if not np.all((0.0 <= tau_s) & (tau_s <= tau_p)):
        raise ValueError("tau_s must lie in [0, tau_p]")
    n0, n1 = nhat[..., 0, :], nhat[..., -1, :]
    moments = _simpson_intervals(
        grid, np.concatenate([nhat, (grid - tau_s)[..., None] * nhat], axis=-1))
    r1 = moments[..., :3].sum(axis=-2) - ((tau_p - tau_s) * n1 + tau_s * n0)
    r2a = 2.0 * moments[..., 3:].sum(axis=-2) - ((tau_p - tau_s) ** 2 * n1 - tau_s ** 2 * n0)
    inner = np.zeros_like(nhat)
    np.cumsum(moments[..., :3], axis=-2, out=inner[..., 1:, :])
    cross = _simpson_intervals(grid, np.cross(nhat, inner))
    r2b = cross.sum(axis=-2) - tau_s * (tau_p - tau_s) * np.cross(n1, n0)
    return r1, r2a, r2b


def evaluate_corrections(ntraj: NTrajectory, tau_s: float) -> CorrectionReport:
    """Quadrature evaluation of the three residuals with a halved-grid error estimate."""
    if ntraj.n_nodes < 16:
        raise ValueError("need at least 16 trajectory nodes")
    tau_p = ntraj.tau_p

    r1, r2a, r2b = correction_residuals(ntraj.grid, ntraj.nhat, tau_s)
    half = np.arange(0, ntraj.n_nodes, 2)
    if half[-1] != ntraj.n_nodes - 1:      # the half grid must keep the endpoint
        half = np.append(half, ntraj.n_nodes - 1)
    r1_h, r2a_h, r2b_h = correction_residuals(ntraj.grid[half], ntraj.nhat[half], tau_s)
    quad_err = np.array([np.linalg.norm(r1 - r1_h), np.linalg.norm(r2a - r2a_h),
                         np.linalg.norm(r2b - r2b_h)])

    policy = active_policy()
    norms = np.array([np.linalg.norm(r1), np.linalg.norm(r2a), np.linalg.norm(r2b)])
    floors = policy.quad_unconverged_floor * np.array([tau_p, tau_p ** 2, tau_p ** 2])
    unconverged = bool(np.any(quad_err > np.maximum(policy.quad_unconverged_rel * norms, floors)))
    r2b_valid = bool(np.linalg.norm(r1) <= policy.r2b_validity_rel * tau_p)
    return CorrectionReport(tau_p=tau_p, tau_s=tau_s, r1=r1, r2a=r2a, r2b=r2b,
                            quad_err=quad_err, n_start=ntraj.nhat[0].copy(),
                            n_end=ntraj.nhat[-1].copy(), r2b_valid=r2b_valid,
                            unconverged=unconverged)


def eta_operators(report: CorrectionReport, bath: BathModel):
    """Joint-space correction operators assembled from the vector residuals.

    Returns (first-order, bath-dynamics second-order, coupling-squared
    second-order); the full second-order operator is the sum of the last two.
    The coupling-squared term uses the r1-completed combination
    h = r2b - [(tp-ts) n(tp) - ts n(0)] x r1, which reduces to r2b when the
    first-order condition holds.
    """
    lam = bath.coupling
    dim = bath.dim_b
    n0, n1, tau_p, tau_s = report.n_start, report.n_end, report.tau_p, report.tau_s
    h_vec = report.r2b - np.cross((tau_p - tau_s) * n1 - tau_s * n0, report.r1)
    eta1 = lam * np.kron(pauli_dot(report.r1), bath.a)
    # the 1/2 on the bath-dynamics term is required for the second-order
    # remainder to scale as tau_p^3 against the exact propagator; see the
    # expansion-order tests
    eta2a = 0.5 * lam * np.kron(pauli_dot(report.r2a), 1.0j * bath.commutator)
    eta2b = lam ** 2 * np.kron(pauli_dot(h_vec), bath.a @ bath.a)
    assert eta1.shape == (2 * dim, 2 * dim)
    return eta1, eta2a, eta2b


def nogo_diagnostics(ntraj: NTrajectory, tau_s: float) -> NoGoDiagnostics:
    """The two impossibility gaps; both are nonnegative up to quadrature error."""
    tau_p = ntraj.tau_p
    if not 0.0 <= tau_s <= tau_p:
        raise ValueError("tau_s must lie in [0, tau_p]")
    cos_alpha = ntraj.nhat @ ntraj.nhat[0]
    moments = _simpson_intervals(
        ntraj.grid, np.column_stack([cos_alpha, (ntraj.grid - tau_s) * cos_alpha])).sum(axis=0)
    tsp_gap = tau_p - float(moments[0])
    pi2_gap = (tau_p - tau_s) ** 2 + tau_s ** 2 + 2.0 * float(moments[1])
    is_pi = bool(np.linalg.norm(ntraj.nhat[0] + ntraj.nhat[-1])
                 < active_policy().pi_condition_atol)
    return NoGoDiagnostics(tsp_gap=tsp_gap, pi2_gap=pi2_gap, is_pi_pulse=is_pi)
