"""Exact qubit (x) bath ground truth for validating the correction expansion.

This module propagates the joint system without any expansion and measures how
far a real pulse is from the ideal decomposition

    U_p(tau_p, 0)  ~  exp(-i (tau_p - tau_s) H) P_theta exp(-i tau_s H),

with P_theta = exp(i sigma_y theta / 2).  :func:`integrate_deviation`
produces the residual correction unitary U_F by integrating the exact
deviation generator F(t) = W(t)^dag [e^{iH dt} H0 e^{-iH dt} - H0] W(t)
directly, by classical RK4 on a grid of uniform spans cut at the segment
boundaries; tau_s is no cut, since F is smooth there.  The frames W come from
the trajectory integrator on the bisected grid, and each RK4 stage takes its
amplitude by the integrator's stage rule: one frame path, one stage rule and
one formula for F.

This route keeps full relative accuracy as tau_p -> 0 (the deviation
generator stays O(lambda) while the pulse amplitude grows as 1/tau_p), so
expansion-order sweeps use it.  The test suite checks it against a second,
independent route (time-sliced midpoint exponentials of the full Hamiltonian,
with the decomposition inverted algebraically), which lives beside the tests
because nothing else uses it.  Sweeps report the decomposition defect through
the algebraic identity defect = ||W(tp) U_F W(0)^dag - P_theta||, which holds
by unitary invariance of the spectral norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathModel
from .corrections import CorrectionReport, eta_operators, evaluate_corrections
from .pulses import PulseShape
from .su2 import (IDENTITY_2, PAULI, SIGMA_Z, expm_hermitian, ideal_pulse_quaternion,
                  quaternion_matrix, spectral_norm)
from .trajectory import (_build_grid, _frames_on_grid, _rk4_step_matrices,
                         _stage_amplitudes, n_trajectory)

# RK4 steps of an expansion-order sweep: keeps the integration floor below
# the tau_p^3 defects
SWEEP_STEPS = 2048


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
    reports: list[CorrectionReport]


def ideal_pulse(theta: float) -> np.ndarray:
    """P_theta = exp(i sigma_y theta / 2)."""
    return quaternion_matrix(ideal_pulse_quaternion(theta))


def static_hamiltonian(bath: BathModel) -> np.ndarray:
    """H = H_b + lambda A sigma_z on the qubit (x) bath space."""
    return np.kron(IDENTITY_2, bath.h_b) + bath.coupling * np.kron(SIGMA_Z, bath.a)


def _project_unitary(u: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(u)
    return w @ vh


# ----------------------------------------------------------------------
# deviation-generator route


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """M_n ... M_1 by pairwise batched products, later factors on the left."""
    while len(mats) > 1:
        even = len(mats) // 2 * 2
        mats = np.concatenate([mats[1:even:2] @ mats[0:even:2], mats[even:]])
    return mats[0]


def _batched_kron_qubit(mats: np.ndarray, dim_b: int) -> np.ndarray:
    """kron(m, I_b) for a batch of 2x2 matrices."""
    n = mats.shape[0]
    eye_b = np.eye(dim_b, dtype=complex)
    out = np.einsum("nab,cd->nacbd", mats, eye_b)
    return out.reshape(n, 2 * dim_b, 2 * dim_b)


def _deviation_table(bath: BathModel, t: np.ndarray, tau_s: float,
                     w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """F at times t from the frames w (n, 2, 2) and amplitudes v (n, 3) there."""
    h = static_hamiltonian(bath)
    evals, evecs = np.linalg.eigh(h)
    h0_joint = _batched_kron_qubit(np.einsum("nj,jab->nab", v, PAULI), bath.dim_b)
    phase = np.exp(1.0j * np.outer(t - tau_s, evals))
    rot = (evecs[None, :, :] * phase[:, None, :]) @ evecs.conj().T
    rot_dag = rot.conj().transpose(0, 2, 1)
    tilde = rot @ h0_joint @ rot_dag
    w_joint = _batched_kron_qubit(w, bath.dim_b)
    f = w_joint.conj().transpose(0, 2, 1) @ (tilde - h0_joint) @ w_joint
    return 0.5 * (f + f.conj().transpose(0, 2, 1))


def integrate_deviation(shape: PulseShape, bath: BathModel, steps: int):
    """(U_F, trajectory) by RK4 integration of i U' = F(t) U over [0, tau_p].

    The coarse grid is cut at the segment boundaries into uniform spans
    (``_build_grid``); bisecting it gives the trajectory grid, whose frames,
    the identity at the exact tau_s, supply F at the start, midpoint and end
    of every coarse step.  The amplitude at those stages follows the frame
    integrator's stage rule (``_stage_amplitudes``), so every step is a true
    RK4 step and no step crosses a breakpoint.  Only the final product of the
    step matrices is needed; it is taken pairwise and projected onto the
    unitaries once.
    """
    coarse = _build_grid(shape, steps)
    fine = np.empty(2 * len(coarse) - 1)
    fine[::2] = coarse
    fine[1::2] = 0.5 * (coarse[:-1] + coarse[1:])
    traj = _frames_on_grid(shape, fine)
    frames = traj.unitaries
    stages = zip((slice(0, -1, 2), slice(1, None, 2), slice(2, None, 2)),
                 _stage_amplitudes(shape, coarse))
    f = [-1.0j * _deviation_table(bath, fine[sl], traj.tau_s, frames[sl], v)
         for sl, v in stages]
    mats = _rk4_step_matrices(*f, np.diff(coarse))
    return _project_unitary(_ordered_product(mats)), traj


# ----------------------------------------------------------------------
# decomposition defects and expansion-order sweeps


def decomposition_defects(shape: PulseShape, bath: BathModel, steps: int):
    """(DecompositionError, CorrectionReport) for one pulse at its native tau_p."""
    u_f, traj = integrate_deviation(shape, bath, steps=steps)
    report = evaluate_corrections(n_trajectory(traj), traj.tau_s)
    eta1, eta2a, eta2b = eta_operators(report, bath)
    eye = np.eye(2 * bath.dim_b)
    eye_b = np.eye(bath.dim_b)
    uf_defect = spectral_norm(u_f - eye)
    # each eta is Hermitian, so the Magnus exponential is a unitary one
    magnus_defect = spectral_norm(u_f - expm_hermitian(eta1 + eta2a + eta2b))
    p_ideal = np.kron(ideal_pulse(shape.theta), eye_b)
    w_end = np.kron(traj.unitaries[-1], eye_b)
    w_start = np.kron(traj.unitaries[0], eye_b)
    defect = spectral_norm(w_end @ u_f @ w_start.conj().T - p_ideal)
    err = DecompositionError(tau_p=shape.tau_p, defect=float(defect),
                             uf_defect=float(uf_defect), magnus_defect=float(magnus_defect))
    return err, report


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
    expansion parameters tau_p * lambda and tau_p * omega_b shrink.
    """
    tau_list = sorted(float(t) for t in tau_list)
    if len(tau_list) < 4:
        raise ValueError("need at least 4 sweep points for a slope fit")
    entries, reports = [], []
    for tau_p in tau_list:
        err, report = decomposition_defects(shape.rescaled(tau_p), bath, steps=steps)
        entries.append(err)
        reports.append(report)
    taus = [e.tau_p for e in entries]
    slopes = {}
    for field in ("defect", "uf_defect", "magnus_defect"):
        values = [getattr(e, field) for e in entries]
        if min(values) <= 0.0:
            slopes[field] = (float("nan"), float("nan"))
        else:
            slopes[field] = fit_loglog_slope(taus, values)
    return SweepResult(entries=entries, slopes=slopes, reports=reports)
