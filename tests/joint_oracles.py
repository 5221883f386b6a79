"""Reference routes through the joint qubit (x) bath space that only the tests use.

The library's oracle integrates the deviation generator (see
:mod:`spinpulse.oracle`).  These are the independent checks it is tested
against: a time-sliced propagator of the full Hamiltonian with the
decomposition inverted algebraically, the deviation generator formed in the
full joint space, the deviation generator at a single instant, the
deviation route with every step built at once, the pure-dephasing identity
and the first-order norm identity, and the basis change and grid they share
with the library's route.
"""

from dataclasses import dataclass

import numpy as np

from spinpulse.bath import BathModel
from spinpulse.corrections import CorrectionReport
from spinpulse.oracle import (SIGMA_Z, _coupling_turns, _deviation_table, _ordered_product,
                              _project_unitary, expm_hermitian, pauli_dot, quaternion_matrix)
from spinpulse.pulses import PulseShape
from spinpulse.su2 import ideal_pulse_quaternion
from spinpulse.trajectory import (FrameTrajectory, _build_grid, _frames_on_grid,
                                  _stage_amplitudes)
from su2_oracles import IDENTITY_2, PAULI, rk4_stage_recurrence


def ideal_pulse(theta: float) -> np.ndarray:
    """P_theta = exp(i sigma_y theta / 2)."""
    return quaternion_matrix(ideal_pulse_quaternion(theta))


def static_hamiltonian(bath: BathModel) -> np.ndarray:
    """H = H_b + lambda A sigma_z on the qubit (x) bath space."""
    return np.kron(IDENTITY_2, bath.h_b) + bath.coupling * np.kron(SIGMA_Z, bath.a)


def _kron_qubit(mats: np.ndarray, dim_b: int) -> np.ndarray:
    """kron(m, I_b) for a batch of 2x2 matrices."""
    out = np.einsum("nab,cd->nacbd", mats, np.eye(dim_b))
    return out.reshape(len(mats), 2 * dim_b, 2 * dim_b)


def joint_deviation_table(bath: BathModel, t: np.ndarray, tau_s: float,
                          w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """F at times t formed in the full qubit (x) bath space, with no block structure:
    W^dag (e^{iH dt} H0 e^{-iH dt} - H0) W, H0 = (v . sigma) (x) I, dt = t - tau_s."""
    evals, evecs = np.linalg.eigh(static_hamiltonian(bath))
    phase = np.exp(1.0j * np.multiply.outer(t - tau_s, evals))
    rot = (evecs * phase[:, None, :]) @ evecs.conj().T
    h0 = _kron_qubit(np.einsum("nj,jab->nab", v, PAULI), bath.dim_b)
    w_joint = _kron_qubit(w, bath.dim_b)
    tilde = rot @ h0 @ rot.conj().transpose(0, 2, 1)
    f = w_joint.conj().transpose(0, 2, 1) @ (tilde - h0) @ w_joint
    return 0.5 * (f + f.conj().transpose(0, 2, 1))


@dataclass(frozen=True)
class PropagationResult:
    unitary: np.ndarray
    step_error: float      # Richardson estimate from step halving


def _slice_propagate(shape: PulseShape, bath: BathModel, steps: int) -> np.ndarray:
    grid = np.linspace(0.0, shape.tau_p, steps + 1)
    # segment boundaries must not fall inside a slice
    for b in shape.breakpoints():
        if np.min(np.abs(grid - b)) > 1e-12 * shape.tau_p:
            grid = np.sort(np.append(grid, b))
    mids = 0.5 * (grid[:-1] + grid[1:])
    h_static = static_hamiltonian(bath)
    eye_b = np.eye(bath.dim_b)
    v_mid = shape.amplitude(mids)
    u = np.eye(2 * bath.dim_b, dtype=complex)
    for k in range(len(mids)):
        h_tot = h_static + np.kron(pauli_dot(v_mid[k]), eye_b)
        u = expm_hermitian((grid[k + 1] - grid[k]) * h_tot) @ u
    return u


def propagate_joint(shape: PulseShape, bath: BathModel, steps: int) -> PropagationResult:
    """Time-sliced exact propagator over [0, tau_p] with midpoint exponentials."""
    if steps < 256:
        raise ValueError("at least 256 slices are required")
    u_full = _slice_propagate(shape, bath, steps)
    u_half = _slice_propagate(shape, bath, steps // 2)
    estimate = np.linalg.norm(u_full - u_half, 2) / 3.0
    return PropagationResult(unitary=_project_unitary(u_full), step_error=float(estimate))


def reconstruct_uf(u_p: np.ndarray, traj: FrameTrajectory, bath: BathModel) -> np.ndarray:
    """Invert the decomposition: U_F = e^{ip(tp)} e^{i(tp-ts)H} U_p e^{i ts H} e^{-ip(0)}."""
    eye_b = np.eye(bath.dim_b)
    h = static_hamiltonian(bath)
    tau_p, tau_s = traj.tau_p, traj.tau_s
    w_end = np.kron(quaternion_matrix(traj.quaternions[-1]), eye_b)
    w_start = np.kron(quaternion_matrix(traj.quaternions[0]), eye_b)
    left = w_end.conj().T @ expm_hermitian((tau_s - tau_p) * h)
    right = expm_hermitian(-tau_s * h) @ w_start
    return _project_unitary(left @ u_p @ right)


def to_bath_basis(x: np.ndarray, v_plus: np.ndarray) -> np.ndarray:
    """(I (x) V+) X' (I (x) V+)^dag: an operator built from ``_coupling_turns``,
    in the eigenbasis V+ of H+, taken back to the bath's basis."""
    basis = np.kron(np.eye(2), v_plus)
    return basis @ x @ basis.conj().T


def bisected(coarse: np.ndarray) -> np.ndarray:
    """The trajectory grid of ``integrate_deviation``: its coarse grid with
    every interval bisected."""
    fine = np.empty(2 * len(coarse) - 1)
    fine[::2] = coarse
    fine[1::2] = 0.5 * (coarse[:-1] + coarse[1:])
    return fine


def f_generator(shape: PulseShape, bath: BathModel, t: float,
                steps: int = 512) -> np.ndarray:
    """The deviation generator F(t) at a single instant."""
    if not 0.0 <= t <= shape.tau_p:
        raise ValueError("time outside [0, tau_p]")
    traj = _frames_on_grid(shape, np.union1d(_build_grid(shape, steps), [t]))
    j = int(np.argmin(np.abs(traj.grid - t)))
    turns, v_plus = _coupling_turns(bath)
    f = _deviation_table(turns(traj.grid[j:j + 1] - traj.tau_s),
                         quaternion_matrix(traj.quaternions[j:j + 1]),
                         shape.amplitude(t)[None])[0]
    return to_bath_basis(f, v_plus)


def one_shot_deviation(shape: PulseShape, bath: BathModel, steps: int) -> np.ndarray:
    """U_F of ``integrate_deviation`` with three stage tables per step, every
    table and RK4 step matrix of all the steps built at once, by the stage
    recurrence written out, and reduced in one pairwise product."""
    coarse = _build_grid(shape, steps)
    fine = bisected(coarse)
    traj = _frames_on_grid(shape, fine)
    frames = quaternion_matrix(traj.quaternions)
    turns, v_plus = _coupling_turns(bath)
    turns = turns(fine - traj.tau_s)
    stages = zip((slice(0, -1, 2), slice(1, None, 2), slice(2, None, 2)),
                 _stage_amplitudes(shape, coarse))
    f = [_deviation_table(turns[sl], frames[sl], v) for sl, v in stages]
    mats = rk4_stage_recurrence(*f, -1.0j * np.diff(coarse), np.matmul,
                                np.eye(2 * bath.dim_b))
    return _project_unitary(to_bath_basis(_ordered_product(mats), v_plus))


def dephasing_identity_defect(coupling: float, tau_p: float) -> float:
    """Regression check of the pure-dephasing identity.

    For H = lambda sigma_z the two-sided decomposition target with theta = pi
    and tau_s = tau_p / 2 collapses to the bare ideal pulse:
    exp(-i (tau_p/2) H) P_pi exp(-i (tau_p/2) H) = P_pi exactly, independent
    of tau_p.  Returns the operator-norm deviation.
    """
    h = coupling * SIGMA_Z
    half = expm_hermitian(0.5 * tau_p * h)
    p_pi = ideal_pulse(np.pi)
    return np.linalg.norm(half @ p_pi @ half - p_pi, 2)


def first_order_norm_identity(report: CorrectionReport, bath: BathModel) -> tuple[float, float]:
    """(operator norm of the first-order term, lambda ||A|| |r1|) for equivalence checks."""
    eta1 = bath.coupling * np.kron(pauli_dot(report.r1), bath.a)
    return (np.linalg.norm(eta1, 2),
            abs(bath.coupling) * np.linalg.norm(bath.a, 2) * float(np.linalg.norm(report.r1)))
