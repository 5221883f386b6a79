"""Reference routes through the joint qubit (x) bath space that only the tests use.

The library's oracle integrates the deviation generator (see
:mod:`spinpulse.oracle`).  These are the independent checks it is tested
against: a time-sliced propagator of the full Hamiltonian with the
decomposition inverted algebraically, the deviation generator at a single
instant, the pure-dephasing identity and the first-order norm identity.
"""

from dataclasses import dataclass

import numpy as np

from spinpulse.bath import BathModel
from spinpulse.corrections import CorrectionReport
from spinpulse.oracle import (_deviation_table, _project_unitary, ideal_pulse,
                              static_hamiltonian)
from spinpulse.pulses import PulseShape
from spinpulse.su2 import SIGMA_Z, expm_hermitian, pauli_dot, spectral_norm
from spinpulse.trajectory import FrameTrajectory, _build_grid, _frames_on_grid


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
        u = expm_hermitian(h_tot, scale=-1.0j * (grid[k + 1] - grid[k])) @ u
    return u


def propagate_joint(shape: PulseShape, bath: BathModel, steps: int) -> PropagationResult:
    """Time-sliced exact propagator over [0, tau_p] with midpoint exponentials."""
    if steps < 256:
        raise ValueError("at least 256 slices are required")
    u_full = _slice_propagate(shape, bath, steps)
    u_half = _slice_propagate(shape, bath, steps // 2)
    estimate = spectral_norm(u_full - u_half) / 3.0
    return PropagationResult(unitary=_project_unitary(u_full), step_error=float(estimate))


def reconstruct_uf(u_p: np.ndarray, traj: FrameTrajectory, bath: BathModel) -> np.ndarray:
    """Invert the decomposition: U_F = e^{ip(tp)} e^{i(tp-ts)H} U_p e^{i ts H} e^{-ip(0)}."""
    eye_b = np.eye(bath.dim_b)
    h = static_hamiltonian(bath)
    tau_p, tau_s = traj.tau_p, traj.tau_s
    w_end = np.kron(traj.unitaries[-1], eye_b)
    w_start = np.kron(traj.unitaries[0], eye_b)
    left = w_end.conj().T @ expm_hermitian(h, scale=1.0j * (tau_p - tau_s))
    right = expm_hermitian(h, scale=1.0j * tau_s) @ w_start
    return _project_unitary(left @ u_p @ right)


def f_generator(shape: PulseShape, bath: BathModel, t: float,
                steps: int = 512) -> np.ndarray:
    """The deviation generator F(t) at a single instant."""
    if not 0.0 <= t <= shape.tau_p:
        raise ValueError("time outside [0, tau_p]")
    traj = _frames_on_grid(shape, np.union1d(_build_grid(shape, steps), [t]))
    j = int(np.argmin(np.abs(traj.grid - t)))
    return _deviation_table(bath, traj.grid[j:j + 1], traj.tau_s,
                            traj.unitaries[j:j + 1], shape.amplitude(t)[None])[0]


def dephasing_identity_defect(coupling: float, tau_p: float) -> float:
    """Regression check of the pure-dephasing identity.

    For H = lambda sigma_z the two-sided decomposition target with theta = pi
    and tau_s = tau_p / 2 collapses to the bare ideal pulse:
    exp(-i (tau_p/2) H) P_pi exp(-i (tau_p/2) H) = P_pi exactly, independent
    of tau_p.  Returns the operator-norm deviation.
    """
    h = coupling * SIGMA_Z
    half = expm_hermitian(h, scale=-0.5j * tau_p)
    p_pi = ideal_pulse(np.pi)
    return spectral_norm(half @ p_pi @ half - p_pi)


def first_order_norm_identity(report: CorrectionReport, bath: BathModel) -> tuple[float, float]:
    """(operator norm of the first-order term, lambda ||A|| |r1|) for equivalence checks."""
    eta1 = bath.coupling * np.kron(pauli_dot(report.r1), bath.a)
    return spectral_norm(eta1), abs(bath.coupling) * spectral_norm(bath.a) * float(np.linalg.norm(report.r1))
