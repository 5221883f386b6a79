"""Exact qubit (x) bath ground truth for validating the correction expansion.

This module, the only one that knows the matrix form of qubit operators (the
others read n(t) or q), propagates the joint system without any expansion and
measures how far a real pulse is from the ideal decomposition

    U_p(tau_p, 0)  ~  exp(-i (tau_p - tau_s) H) P_theta exp(-i tau_s H),

with H = I (x) H_b + lambda sigma_z (x) A and P_theta = exp(i sigma_y theta / 2).
:func:`integrate_deviation` produces the residual correction unitary U_F by
integrating F(t) = W(t)^dag [e^{iH dt} H0 e^{-iH dt} - H0] W(t), dt = t - tau_s,
directly, by classical RK4 on a grid of uniform spans cut at the segment
boundaries; tau_s is no cut, since F is smooth there.  The frames W come from
the trajectory integrator on the bisected grid, and each RK4 stage takes its
amplitude by the integrator's stage rule: one frame path, one stage rule and
one formula for F.

F is built in the bath's sigma_z blocks.  H commutes with sigma_z (x) I, so
e^{iH dt} is diag(e^{i H+ dt}, e^{i H- dt}) with H+- = H_b +- lambda A: the
sigma_z part of H0 = (v . sigma) (x) I drops out, and beta = v_x - i v_y turns
through one d x d unitary K(dt) = e^{i H+ dt} e^{-i H- dt}, giving the upper
block beta (K - I).  The route works in the eigenbasis V+ of H+, where
K' = V+^dag K V+ = (Phi+ o G o Phi-^*) G^dag with Phi+- = e^{+-i E+- dt} and the
overlap G = V+^dag V-: K' - I on the nodes of the bisected grid is one GEMM
up to d = ``ONE_GEMM_DIM`` and a batch of (d, d) @ (d, d) products above,
from eigendecompositions of H+ and H- taken once per call, and every RK4
stage slices it.  The step product U' is taken back to the bath's basis once,
U_F = (I (x) V+) U' (I (x) V+)^dag.

The steps are built and reduced a chunk at a time: each chunk's 2x2 frames,
K' - I, stage tables and step matrices, then their pairwise product.  The
stage tables are one per node: a coarse node is the start of one step and
the end of the one before, with the same frame and turn, and the same
amplitude except at a cut of a piecewise shape, so only such a cut adds an
end-stage table; the steps are bit for bit those of three tables per step.
A chunk is the largest power of two of steps whose (chunk, 2d, 2d) complex
table fits in ``TABLE_BYTES`` (4096 steps at d = 1, 1024 at 2, 256 at 4, 64
at 8, 16 at 16), so its temporaries stay in cache and below the heap's trim
threshold at any step count.  The chunk products are folded as the loop runs,
the last two merged whenever they cover equal step counts and the rest folded
newest first at the end, so about log2(chunks) of them are held at once.  That
is the pairwise product of the chunk list, and a power-of-two chunk is a whole
subtree of the pairwise product of all the steps, with a partial last chunk
carrying its odd factors the same way: U' is bit for bit the pairwise product
of all the steps taken at once.

This route keeps full relative accuracy as tau_p -> 0 (the deviation
generator stays O(lambda) while the pulse amplitude grows as 1/tau_p), so
expansion-order sweeps use it.  The test suite checks it against a second,
independent route (time-sliced midpoint exponentials of the full Hamiltonian,
with the decomposition inverted algebraically) and against F formed in the
full joint space; both live beside the tests because nothing else uses them.
Sweeps report the decomposition defect through the algebraic identity
defect = ||U_F - (W(tp)^dag P_theta W(0)) (x) I||, which holds by unitary
invariance of the spectral norm.  A sweep rescales one dimensionless profile,
whose frame is a function of t / tau_p alone, so it integrates the frame once,
at its smallest tau_p, and every point on the same rescaled grid reuses it
(:func:`magnus_consistency`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathModel
from .corrections import CorrectionReport, evaluate_corrections
from .pulses import SAME_TIME_RTOL, PulseShape
from .su2 import CONJUGATE_Q, ideal_pulse_quaternion, quaternion_product
from .trajectory import (FrameTrajectory, _build_grid, _frames_on_grid, _rk4_steps,
                         _stage_amplitudes, n_trajectory)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# RK4 steps of an expansion-order sweep: keeps the integration floor below
# the tau_p^3 defects
SWEEP_STEPS = 2048
# bytes of one (chunk, 2d, 2d) complex step table, the one limit on a chunk
TABLE_BYTES = 1 << 18
# the largest bath dimension whose turns K' - I are one GEMM over all nodes
ONE_GEMM_DIM = 4


@dataclass(frozen=True)
class DecompositionError:
    tau_p: float
    defect: float          # || U_p - ideal decomposition ||
    uf_defect: float       # || U_F - I ||
    magnus_defect: float   # || U_F - exp(-i (eta1 + eta2)) ||


@dataclass(frozen=True)
class SweepResult:
    entries: list[DecompositionError]
    slopes: dict           # least-squares log-log slopes with standard errors


def _project_unitary(u: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(u)
    return w @ vh


# ----------------------------------------------------------------------
# matrix forms: 2x2 frames and joint-space operators


def pauli_dot(vec) -> np.ndarray:
    """sigma . vec for a real or complex 3-vector."""
    v = np.asarray(vec)
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def quaternion_matrix(q: np.ndarray) -> np.ndarray:
    """2x2 matrices c I - i s . sigma of quaternions q = (c, s) over leading axes."""
    c, sx, sy, sz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(c.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c - 1.0j * sz
    out[..., 0, 1] = -sy - 1.0j * sx
    out[..., 1, 0] = sy - 1.0j * sx
    out[..., 1, 1] = c + 1.0j * sz
    return out


def expm_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for Hermitian h via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1.0j * w)) @ v.conj().T


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


# ----------------------------------------------------------------------
# deviation-generator route


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """M_n ... M_1 by pairwise batched products, later factors on the left."""
    while len(mats) > 1:
        even = len(mats) // 2 * 2
        mats = np.concatenate([mats[1:even:2] @ mats[0:even:2], mats[even:]])
    return mats[0]


def _coupling_turns(bath: BathModel):
    """(turns, V+): t -> K'(t) - I, (n, d, d) for t (n,), with K' = V+^dag K V+ the
    turn K(t) = e^{i H+ t} e^{-i H- t}, H+- = H_b +- lambda A, in the eigenbasis V+
    of H+.  K' = (Phi+ o G o Phi-^*) G^dag with Phi+- = e^{+-i E+- t} and
    G = V+^dag V-.  Up to ``ONE_GEMM_DIM`` the product is one (n d, d) @ (d, d)
    GEMM, which saves numpy's per-matrix dispatch; above it, one batched
    (d, d) @ (d, d) product per node, since one GEMM would cross BLAS's
    threading threshold from d = 8 and spend a second core for no wall time.
    Both round alike.  The eigendecompositions of H+ and H- are taken here,
    once.  An operator X' built from these turns is X = (I (x) V+) X' (I (x) V+)^dag
    in the bath's basis."""
    e_plus, v_plus = np.linalg.eigh(bath.h_b + bath.coupling * bath.a)
    e_minus, v_minus = np.linalg.eigh(bath.h_b - bath.coupling * bath.a)
    overlap = v_plus.conj().T @ v_minus

    def turns(t: np.ndarray) -> np.ndarray:
        phases = (np.exp(1.0j * np.multiply.outer(t, e_plus))[:, :, None]
                  * np.exp(-1.0j * np.multiply.outer(t, e_minus))[:, None, :])
        tilted, back, one = phases * overlap, overlap.conj().T, np.eye(bath.dim_b)
        if bath.dim_b <= ONE_GEMM_DIM:
            return (tilted.reshape(-1, bath.dim_b) @ back).reshape(tilted.shape) - one
        return tilted @ back - one
    return turns, v_plus


def _deviation_table(turns: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """F = top + top^dag, top[a, b] = beta conj(w[0, a]) w[1, b] (K - I), from K - I
    (n, d, d) in any basis of the bath, frames w (n, 2, 2) and amplitudes v (n, 3);
    Hermitian as computed, in the turns' basis."""
    n, d = turns.shape[:2]
    beta = v[:, 0] - 1.0j * v[:, 1]
    coef = beta[:, None, None] * w[:, 0, :, None].conj() * w[:, 1, None, :]
    top = (coef[:, :, None, :, None] * turns[:, None, :, None, :]).reshape(n, 2 * d, 2 * d)
    return top + top.conj().transpose(0, 2, 1)


def _trajectory_grid(shape: PulseShape, steps: int):
    """(coarse, fine): the RK4 grid of ``shape`` (``_build_grid``) and the
    trajectory grid, the coarse one with every interval bisected."""
    coarse = _build_grid(shape, steps)
    fine = np.empty(2 * len(coarse) - 1)
    fine[::2] = coarse
    fine[1::2] = 0.5 * (coarse[:-1] + coarse[1:])
    return coarse, fine


def _sweep_frames(shape: PulseShape, fine: np.ndarray, frames) -> FrameTrajectory:
    """The frame of ``shape`` on its trajectory grid ``fine``.

    ``frames`` is None or the frame of the same dimensionless profile at
    another tau_p.  h v does not depend on tau_p, so that frame is this one
    wherever its grid, rescaled, is ``fine``: same node count and cut nodes,
    every node within ``SAME_TIME_RTOL`` tau_p.  Its quaternions then serve
    here, on this grid and tau_s, and the frame is integrated only otherwise.
    """
    if frames is not None and len(frames.grid) == len(fine):
        scale = shape.tau_p / frames.tau_p
        if np.all(np.abs(frames.grid * scale - fine) <= SAME_TIME_RTOL * shape.tau_p):
            return FrameTrajectory(grid=fine, tau_s=shape.tau_s,
                                   quaternions=frames.quaternions)
    return _frames_on_grid(shape, fine)


def integrate_deviation(shape: PulseShape, bath: BathModel, steps: int, _frames=None):
    """(U_F, trajectory) by RK4 integration of i U' = F(t) U over [0, tau_p].

    The coarse grid is cut at the segment boundaries into uniform spans
    (``_build_grid``); bisecting it gives the trajectory grid, whose frames,
    the identity at the exact tau_s, supply F at the start, midpoint and end
    of every coarse step.  A sweep passes the frame of its smallest tau_p as
    ``_frames``, which every point on the same rescaled grid reuses
    (``_sweep_frames``).  The amplitude at those stages follows the frame
    integrator's stage rule (``_stage_amplitudes``), so every step is a true
    RK4 step and no step crosses a breakpoint; it steps the Hermitian F by
    -i h, which is RK4 on U' = -i F U by h.  F is taken in the eigenbasis V+
    of H+ (``_coupling_turns``), and only the final product of the step
    matrices is needed, taken a chunk at a time as the module docstring
    describes.  It goes back to the bath's basis once, (I (x) V+) U'
    (I (x) V+)^dag, and is projected once.
    """
    coarse, fine = _trajectory_grid(shape, steps)
    traj = _sweep_frames(shape, fine, _frames)
    turns, v_plus = _coupling_turns(bath)
    amplitudes = _stage_amplitudes(shape, coarse)
    h = -1.0j * np.diff(coarse)
    one = np.eye(2 * bath.dim_b)
    # 16 bytes per complex entry of a (2d) x (2d) step table
    chunk = 1 << ((TABLE_BYTES // (64 * bath.dim_b ** 2)).bit_length() - 1)
    folds = []             # (product, steps covered), the step counts falling
    for k in range(0, len(h), chunk):
        steps_k = slice(k, k + chunk)
        nodes = slice(2 * k, 2 * (k + chunk) + 1)
        turns_k = turns(fine[nodes] - traj.tau_s)
        frames_k = quaternion_matrix(traj.quaternions[nodes])
        start, mid, end = (v[steps_k] for v in amplitudes)
        # one table per node: an even node is the start of its step and the
        # end of the one before, which differ in amplitude only at a cut
        v_even = np.concatenate([start, end[-1:]])
        f_even = _deviation_table(turns_k[::2], frames_k[::2], v_even)
        f_end = f_even[1:]
        cut = np.flatnonzero(np.any(end != v_even[1:], axis=-1))
        if len(cut):
            f_end = f_end.copy()
            f_end[cut] = _deviation_table(turns_k[2 * cut + 2], frames_k[2 * cut + 2], end[cut])
        f_mid = _deviation_table(turns_k[1::2], frames_k[1::2], mid)
        product = _ordered_product(_rk4_steps(f_even[:-1], f_mid, f_end, h[steps_k],
                                              np.matmul, one))
        covered = len(f_mid)
        while folds and folds[-1][1] == covered:
            earlier, count = folds.pop()
            product, covered = product @ earlier, covered + count
        folds.append((product, covered))
    product = folds.pop()[0]
    while folds:
        product = product @ folds.pop()[0]
    basis = np.kron(np.eye(2), v_plus)
    return _project_unitary(basis @ product @ basis.conj().T), traj


# ----------------------------------------------------------------------
# decomposition defects and expansion-order sweeps


def decomposition_defects(shape: PulseShape, bath: BathModel, steps: int, _frames=None):
    """The DecompositionError of one pulse at its native tau_p; ``_frames`` as in
    :func:`integrate_deviation`."""
    u_f, traj = integrate_deviation(shape, bath, steps=steps, _frames=_frames)
    report = evaluate_corrections(n_trajectory(traj), traj.tau_s)
    eta1, eta2a, eta2b = eta_operators(report, bath)
    uf_defect = np.linalg.norm(u_f - np.eye(2 * bath.dim_b), 2)
    # each eta is Hermitian, so the Magnus exponential is a unitary one
    magnus_defect = np.linalg.norm(u_f - expm_hermitian(eta1 + eta2a + eta2b), 2)
    # ||(W(tp) (x) I) U_F (W(0) (x) I)^dag - P (x) I|| = ||U_F - (W(tp)^dag P W(0)) (x) I||
    q_start, q_end = traj.quaternions[0], traj.quaternions[-1]
    target = quaternion_product(q_end * CONJUGATE_Q,
                                quaternion_product(ideal_pulse_quaternion(shape.theta), q_start))
    defect = np.linalg.norm(u_f - np.kron(quaternion_matrix(target), np.eye(bath.dim_b)), 2)
    return DecompositionError(tau_p=shape.tau_p, defect=float(defect),
                              uf_defect=float(uf_defect), magnus_defect=float(magnus_defect))


def fit_loglog_slope(x, y):
    """(slope, standard error) of a straight-line fit in log-log coordinates."""
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.asarray(y, dtype=float))
    coeffs, cov = np.polyfit(x, y, 1, cov=True)
    return float(coeffs[0]), float(np.sqrt(cov[0, 0]))


def magnus_consistency(shape: PulseShape, bath: BathModel, tau_list,
                       steps: int = SWEEP_STEPS) -> SweepResult:
    """Defects across a tau_p sweep of the same dimensionless pulse profile.

    Amplitudes scale as 1/tau_p so the accumulated rotation is fixed while the
    expansion parameters tau_p * lambda and tau_p * omega_b shrink.  The
    frame is then a function of t / tau_p alone.  It is integrated once, at
    the smallest tau_p, where the step products overflow first, and every
    point whose grid is that grid rescaled reuses its quaternions, with its
    own amplitudes and turns.  The smallest-tau_p entry is the one a lone
    ``decomposition_defects`` gives, bit for bit; the others differ from
    theirs at the rounding floor, because the rounding of h v depends on
    tau_p.
    """
    tau_list = sorted(float(t) for t in tau_list)
    if len(tau_list) < 4:
        raise ValueError("need at least 4 sweep points for a slope fit")
    shapes = [shape.rescaled(tau_p) for tau_p in tau_list]
    frames = _frames_on_grid(shapes[0], _trajectory_grid(shapes[0], steps)[1])
    entries = [decomposition_defects(s, bath, steps=steps, _frames=frames) for s in shapes]
    taus = [e.tau_p for e in entries]
    slopes = {}
    for field in ("defect", "uf_defect", "magnus_defect"):
        values = [getattr(e, field) for e in entries]
        if min(values) <= 0.0:
            slopes[field] = (float("nan"), float("nan"))
        else:
            slopes[field] = fit_loglog_slope(taus, values)
    return SweepResult(entries=entries, slopes=slopes)
