"""First- and second-order correction residuals of a pulse trajectory.

Everything here is a functional of the unit-vector path n(t) and the splitting
instant tau_s.  The three residuals are oriented as (integral side) minus
(boundary side), so a vanishing residual is exactly the corresponding design
condition and the sign is fixed for least-squares use:

    r1  = int_0^tp n dt                - [(tp - ts) n(tp) + ts n(0)]
    r2a = 2 int_0^tp (t - ts) n dt     - [(tp - ts)^2 n(tp) - ts^2 n(0)]
    r2b = int int_{t2<t1} n(t1) x n(t2) - ts (tp - ts) n(tp) x n(0)

Normalized forms divide by tau_p (r1) and tau_p^2 (r2a, r2b).  The residuals
feed the two no-go diagnostics here, and the exact oracle's joint-space
correction operators (:func:`spinpulse.oracle.eta_operators`).

Quadrature is composite Simpson on the (possibly non-uniform) trajectory grid,
one :class:`SimpsonRule` per grid, built once; on trajectory grids no panel of
the grid or of its halved grid crosses a breakpoint, and n(t) has no kink at
tau_s.  A full integral is one dot product with the rule's weights W: r1 reads
W @ n, r2a (W t) @ n - ts W @ n, the gaps W @ cos(alpha) and
(W (t - ts)) @ cos(alpha); only r2b's inner integral is a running sum of
interval integrals.  The halved-grid error estimate ``quad_err`` exists only in
the reports of :func:`evaluate_corrections`; the design loop builds its rule
once per problem and calls :func:`correction_residuals`, which skips it and
takes n(t) with leading lane axes, all on one grid, each lane with its own tau_s.

The design loop's Jacobian reads the residuals' first variation instead:
:func:`residual_adjoint` is the transposed Jacobian T (3n, 9) of (r1, r2a, r2b)
in n(t) at one point, so P variations dn (P, n, 3) move the residuals by one
product dn.reshape(P, -1) @ T.  r1 and r2a give their node weights; r2b,
bilinear in n, gives B x dn with B = G - W N, where N is the running integral
of n and G the running sum's transpose (:meth:`SimpsonRule.running_adjoint`)
applied to W n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trajectory import NTrajectory

RESIDUAL_TARGETS = ("r1", "r2a", "r2b")
# the power of tau_p that makes each residual dimensionless: r1 / tp, r2a / tp^2, r2b / tp^2
TAU_P_POWERS = (1, 2, 2)
_TARGET_ROWS = {t: (i, p) for i, (t, p) in enumerate(zip(RESIDUAL_TARGETS, TAU_P_POWERS))}
# a report is unconverged where the halved-grid error of a residual exceeds
# both this fraction of its norm and this floor (times tau_p, or tau_p^2 for r2a, r2b)
QUAD_UNCONVERGED_REL = 1e-3
QUAD_UNCONVERGED_FLOOR = 1e-9
# r2b is meaningful only where |r1| is below this fraction of tau_p
R2B_VALIDITY_REL = 1e-6
# a pi pulse takes n(0) to within this distance of -n(tau_p)
PI_CONDITION_ATOL = 1e-6
# the no-go gaps are >= 0 in exact arithmetic; quadrature may leave them this
# far below zero
NOGO_TOLERANCE = 1e-9

# a node's (3, 9) block of the residuals' linearisation, from its five
# coefficients (r1 weight, r2a weight, B): the r1 and r2a weights on the
# diagonal of their residual's columns, and in r2b's columns, row c, B x e_c
_ADJOINT_BLOCKS = np.zeros((5, 3, 9))
_ADJOINT_BLOCKS[0, :, 0:3] = _ADJOINT_BLOCKS[1, :, 3:6] = np.eye(3)
_ADJOINT_BLOCKS[2:, :, 6:] = np.cross(np.eye(3)[:, None], np.eye(3))
_ADJOINT_BLOCKS = _ADJOINT_BLOCKS.reshape(5, 27)


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
        return self.norms / _scales(self.tau_p)

    def normalized_vector(self, targets=RESIDUAL_TARGETS) -> np.ndarray:
        """Stacked dimensionless residual components for the requested targets."""
        return normalized_residual_vector((self.r1, self.r2a, self.r2b),
                                          self.tau_p, targets)


def _scales(tau_p: float) -> np.ndarray:
    return np.array([tau_p ** power for power in TAU_P_POWERS])


def normalized_residual_vector(residuals, tau_p: float,
                               targets=RESIDUAL_TARGETS) -> np.ndarray:
    """Stack (r1/tp, r2a/tp^2, r2b/tp^2) components of the requested targets."""
    parts = []
    for t in targets:
        try:
            i, power = _TARGET_ROWS[t]
        except KeyError:
            raise ValueError(f"unknown residual target {t!r}") from None
        parts.append(residuals[i] / tau_p ** power)
    return np.concatenate(parts, axis=-1)


@dataclass(frozen=True)
class NoGoDiagnostics:
    tsp_gap: float       # or (...,) for lanes: tau_p - int cos(alpha) dt  (end-split obstruction)
    pi2_gap: float       # (...,): [(tp-ts)^2 + ts^2] + 2 int (t-ts) cos(alpha) dt
    is_pi_pulse: bool    # (...,): n(0) = -n(tau_p) within tolerance, where pi2_gap has meaning


class SimpsonRule:
    """Composite Simpson on a grid (n,), scipy's ``simpson`` up to rounding.

    Interval j integrates the quadratic through three neighbouring nodes
    exactly (Cartwright 2017, eq. 8): forward on (t_j, t_j+1, t_j+2) for even j,
    backward on (t_j+1, t_j, t_j-1) for odd j and for the last interval, so the
    intervals pair up on the triplets (t_0, t_1, t_2), (t_2, t_3, t_4), ...
    ``nodes`` and ``node_weights`` (3, n - 1) hold each interval's three nodes
    and weights; ``weights`` W (n,) sums them per node: int f dt = W @ f.
    """

    def __init__(self, grid: np.ndarray):
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
        self.grid = grid
        self.nodes = np.stack([j + back, near, near + step])
        self.node_weights = a / 6.0 * np.stack([3.0 - a_ab, 3.0 + aa_abb + a_ab, -aa_abb])
        self.weights = np.bincount(self.nodes.ravel(), self.node_weights.ravel(), len(grid))

    def intervals(self, f: np.ndarray) -> np.ndarray:
        """Integrals of f (..., n, k) over the n - 1 intervals, (..., n - 1, k)."""
        (i0, i1, i2), (w0, w1, w2) = self.nodes, self.node_weights[..., None]
        return (w0 * np.take(f, i0, axis=-2) + w1 * np.take(f, i1, axis=-2)
                + w2 * np.take(f, i2, axis=-2))

    def running(self, f: np.ndarray) -> np.ndarray:
        """int_{t_0}^t f dt (..., n, k) at every node of f (..., n, k): 0 at t_0."""
        out = np.zeros(f.shape)
        np.cumsum(self.intervals(f), axis=-2, out=out[..., 1:, :])
        return out

    def running_adjoint(self, g: np.ndarray) -> np.ndarray:
        """The transpose of :meth:`running` applied to g (n, k): sum_t running(f) . g
        equals sum_t f . running_adjoint(g) for every f (n, k).

        Interval j reaches every node after it, so its weight is the reverse
        running sum of g from node j + 1; each interval's three node weights
        then scatter it onto its nodes.
        """
        after = np.cumsum(g[:0:-1], axis=0)[::-1]                  # (n - 1, k)
        nodes = self.nodes.ravel()
        return np.stack([np.bincount(nodes, (self.node_weights * a).ravel(), len(g))
                         for a in after.T], axis=-1)


def correction_residuals(quad: SimpsonRule, nhat: np.ndarray, tau_s: float | np.ndarray):
    """The vector residuals (r1, r2a, r2b) of n(t) sampled on the grid of ``quad``.

    ``nhat`` is (..., n, 3); any leading axes are lanes that share the grid,
    and ``tau_s`` is one value or one per lane (...,).  Each residual is then
    (..., 3), every lane equal bit for bit to its own unbatched call.
    """
    grid, w = quad.grid, quad.weights
    tau_p = grid[-1]
    tau_s = np.asarray(tau_s, dtype=float)[..., None]
    if not np.all((0.0 <= tau_s) & (tau_s <= tau_p)):
        raise ValueError("tau_s must lie in [0, tau_p]")
    n0, n1 = nhat[..., 0, :], nhat[..., -1, :]
    int_n = w @ nhat
    r1 = int_n - ((tau_p - tau_s) * n1 + tau_s * n0)
    r2a = 2.0 * ((w * grid) @ nhat - tau_s * int_n) - ((tau_p - tau_s) ** 2 * n1 - tau_s ** 2 * n0)
    r2b = w @ np.cross(nhat, quad.running(nhat)) - tau_s * (tau_p - tau_s) * np.cross(n1, n0)
    return r1, r2a, r2b


def residual_adjoint(quad: SimpsonRule, nhat: np.ndarray, tau_s: float) -> np.ndarray:
    """The linearisation of :func:`correction_residuals` at n(t) (n, 3): T (3 n, 9) with
    d(r1, r2a, r2b) = dn.reshape(-1) @ T for every variation dn (n, 3), exactly.

    r1 and r2a are linear in n, with node weights W and 2 W (t - ts) plus their
    end-node terms.  r2b is bilinear, int n x N with N = int_0^t n; its first
    variation is sum_t B x dn, where B = G - W N, G the transpose of the
    running sum applied to W n, plus the end-node terms of ts (tp - ts) n(tp) x n(0).
    Columns 3 i .. 3 i + 2 hold residual i, rows 3 k .. 3 k + 2 node k.
    """
    grid, w = quad.grid, quad.weights
    tau_p = grid[-1]
    if not 0.0 <= tau_s <= tau_p:
        raise ValueError("tau_s must lie in [0, tau_p]")
    n0, n1 = nhat[0], nhat[-1]
    first = w.copy()
    first[[0, -1]] -= (tau_s, tau_p - tau_s)
    moment = 2.0 * w * (grid - tau_s)
    moment[[0, -1]] += (tau_s ** 2, -(tau_p - tau_s) ** 2)
    b = quad.running_adjoint(w[:, None] * nhat) - w[:, None] * quad.running(nhat)
    b[0] -= tau_s * (tau_p - tau_s) * n1
    b[-1] += tau_s * (tau_p - tau_s) * n0
    coefficients = np.column_stack([first, moment, b])
    return (coefficients @ _ADJOINT_BLOCKS).reshape(-1, 9)


def evaluate_corrections(ntraj: NTrajectory, tau_s: float) -> CorrectionReport:
    """Quadrature evaluation of the three residuals with a halved-grid error estimate."""
    if ntraj.n_nodes < 16:
        raise ValueError("need at least 16 trajectory nodes")
    tau_p = ntraj.tau_p

    r1, r2a, r2b = correction_residuals(SimpsonRule(ntraj.grid), ntraj.nhat, tau_s)
    half = np.arange(0, ntraj.n_nodes, 2)
    if half[-1] != ntraj.n_nodes - 1:      # the half grid must keep the endpoint
        half = np.append(half, ntraj.n_nodes - 1)
    halved = correction_residuals(SimpsonRule(ntraj.grid[half]), ntraj.nhat[half], tau_s)
    quad_err = np.array([np.linalg.norm(r - r_h) for r, r_h in zip((r1, r2a, r2b), halved)])

    norms = np.array([np.linalg.norm(r1), np.linalg.norm(r2a), np.linalg.norm(r2b)])
    floors = QUAD_UNCONVERGED_FLOOR * _scales(tau_p)
    unconverged = bool(np.any(quad_err > np.maximum(QUAD_UNCONVERGED_REL * norms, floors)))
    r2b_valid = bool(np.linalg.norm(r1) <= R2B_VALIDITY_REL * tau_p)
    return CorrectionReport(tau_p=tau_p, tau_s=tau_s, r1=r1, r2a=r2a, r2b=r2b,
                            quad_err=quad_err, n_start=ntraj.nhat[0].copy(),
                            n_end=ntraj.nhat[-1].copy(), r2b_valid=r2b_valid,
                            unconverged=unconverged)


def nogo_diagnostics(ntraj: NTrajectory, tau_s: float | np.ndarray) -> NoGoDiagnostics:
    """The two impossibility gaps; both are nonnegative up to quadrature error.

    Lanes of n(t) (..., n, 3), with one tau_s or one per lane (...,), give gaps
    (...,), each lane equal bit for bit to its own unbatched call."""
    grid, nhat, tau_p = ntraj.grid, ntraj.nhat, ntraj.tau_p
    tau_s = np.asarray(tau_s, dtype=float)
    if not np.all((0.0 <= tau_s) & (tau_s <= tau_p)):
        raise ValueError("tau_s must lie in [0, tau_p]")
    w = SimpsonRule(grid).weights
    n0 = nhat[..., 0, :]
    cos_alpha = nhat @ n0[..., None]                               # (..., n, 1)
    tsp_gap = tau_p - (w @ cos_alpha)[..., 0]
    moment = ((w * (grid - tau_s[..., None]))[..., None, :] @ cos_alpha)[..., 0, 0]
    pi2_gap = (tau_p - tau_s) ** 2 + tau_s ** 2 + 2.0 * moment
    is_pi = np.linalg.norm(n0 + nhat[..., -1, :], axis=-1) < PI_CONDITION_ATOL
    return NoGoDiagnostics(tsp_gap=tsp_gap, pi2_gap=pi2_gap, is_pi_pulse=is_pi)
