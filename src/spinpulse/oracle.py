"""Exact qubit (x) bath ground truth for validating the correction expansion.

This module propagates the joint system without any expansion and measures how
far a real pulse is from the ideal decomposition

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
block beta (K - I).  K - I is computed once per node of the bisected grid,
from eigendecompositions of H+ and H- taken once per call; every RK4 stage
slices it.

The steps are built and reduced ``STEP_CHUNK`` at a time: each chunk's K - I,
stage tables and step matrices, then their pairwise product, so the (2d) x (2d)
tables held at once do not grow with the step count.  The chunk size is a
power of two, so each aligned chunk is a whole subtree of the pairwise product
of all the steps, and a partial last chunk carries its odd factors the same way:
U_F is bit for bit the pairwise product of all the steps taken at once.

This route keeps full relative accuracy as tau_p -> 0 (the deviation
generator stays O(lambda) while the pulse amplitude grows as 1/tau_p), so
expansion-order sweeps use it.  The test suite checks it against a second,
independent route (time-sliced midpoint exponentials of the full Hamiltonian,
with the decomposition inverted algebraically) and against F formed in the
full joint space; both live beside the tests because nothing else uses them.
Sweeps report the decomposition defect through the algebraic identity
defect = ||U_F - (W(tp)^dag P_theta W(0)) (x) I||, which holds by unitary
invariance of the spectral norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathModel
from .corrections import eta_operators, evaluate_corrections
from .pulses import PulseShape
from .su2 import (CONJUGATE_Q, expm_hermitian, ideal_pulse_quaternion,
                  quaternion_matrix, quaternion_product, spectral_norm)
from .trajectory import (_build_grid, _frames_on_grid, _rk4_steps, _stage_amplitudes,
                         n_trajectory)

# RK4 steps of an expansion-order sweep: keeps the integration floor below
# the tau_p^3 defects
SWEEP_STEPS = 2048
# RK4 steps the deviation route builds and reduces at a time: bounds its memory
# at any step count; a power of two, so chunks are whole pairwise subtrees
STEP_CHUNK = 256


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
# deviation-generator route


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """M_n ... M_1 by pairwise batched products, later factors on the left."""
    while len(mats) > 1:
        even = len(mats) // 2 * 2
        mats = np.concatenate([mats[1:even:2] @ mats[0:even:2], mats[even:]])
    return mats[0]


def _coupling_turns(bath: BathModel):
    """t -> K(t) - I with K(t) = e^{i H+ t} e^{-i H- t} and H+- = H_b +- lambda A,
    (n, d, d) for t (n,); the eigendecompositions of H+ and H- are taken here, once."""
    e_plus, v_plus = np.linalg.eigh(bath.h_b + bath.coupling * bath.a)
    e_minus, v_minus = np.linalg.eigh(bath.h_b - bath.coupling * bath.a)
    overlap = v_plus.conj().T @ v_minus

    def turns(t: np.ndarray) -> np.ndarray:
        phases = (np.exp(1.0j * np.multiply.outer(t, e_plus))[:, :, None]
                  * np.exp(-1.0j * np.multiply.outer(t, e_minus))[:, None, :])
        k = v_plus @ (phases * overlap) @ v_minus.conj().T
        return k - np.eye(bath.dim_b)
    return turns


def _deviation_table(turns: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """F = top + top^dag, top[a, b] = beta conj(w[0, a]) w[1, b] (K - I), from K - I
    (n, d, d), frames w (n, 2, 2) and amplitudes v (n, 3); Hermitian as computed."""
    n, d = turns.shape[:2]
    beta = v[:, 0] - 1.0j * v[:, 1]
    coef = beta[:, None, None] * w[:, 0, :, None].conj() * w[:, 1, None, :]
    top = (coef[:, :, None, :, None] * turns[:, None, :, None, :]).reshape(n, 2 * d, 2 * d)
    return top + top.conj().transpose(0, 2, 1)


def integrate_deviation(shape: PulseShape, bath: BathModel, steps: int):
    """(U_F, trajectory) by RK4 integration of i U' = F(t) U over [0, tau_p].

    The coarse grid is cut at the segment boundaries into uniform spans
    (``_build_grid``); bisecting it gives the trajectory grid, whose frames,
    the identity at the exact tau_s, supply F at the start, midpoint and end
    of every coarse step.  The amplitude at those stages follows the frame
    integrator's stage rule (``_stage_amplitudes``), so every step is a true
    RK4 step and no step crosses a breakpoint; it steps the Hermitian F by
    -i h, which is RK4 on U' = -i F U by h.  Only the final product of the
    step matrices is needed.  It is taken pairwise, ``STEP_CHUNK`` steps at a
    time: each chunk's K - I, stage tables and step matrices are built and
    reduced before the next, so the joint-space tables do not grow with
    ``steps``.  The chunk products are then reduced the same way and projected
    once.  A power-of-two chunk is a whole subtree of the pairwise product of
    all the steps, so U_F does not depend on the chunk size.
    """
    coarse = _build_grid(shape, steps)
    fine = np.empty(2 * len(coarse) - 1)
    fine[::2] = coarse
    fine[1::2] = 0.5 * (coarse[:-1] + coarse[1:])
    traj = _frames_on_grid(shape, fine)
    frames = traj.unitaries
    turns = _coupling_turns(bath)
    amplitudes = _stage_amplitudes(shape, coarse)
    h = -1.0j * np.diff(coarse)
    one = np.eye(2 * bath.dim_b)
    products = []
    for k in range(0, len(h), STEP_CHUNK):
        steps_k = slice(k, k + STEP_CHUNK)
        nodes = slice(2 * k, 2 * (k + STEP_CHUNK) + 1)
        turns_k, frames_k = turns(fine[nodes] - traj.tau_s), frames[nodes]
        stages = zip((slice(0, -1, 2), slice(1, None, 2), slice(2, None, 2)), amplitudes)
        f = [_deviation_table(turns_k[sl], frames_k[sl], v[steps_k]) for sl, v in stages]
        products.append(_ordered_product(_rk4_steps(*f, h[steps_k], np.matmul, one)))
    return _project_unitary(_ordered_product(np.stack(products))), traj


# ----------------------------------------------------------------------
# decomposition defects and expansion-order sweeps


def decomposition_defects(shape: PulseShape, bath: BathModel, steps: int):
    """The DecompositionError of one pulse at its native tau_p."""
    u_f, traj = integrate_deviation(shape, bath, steps=steps)
    report = evaluate_corrections(n_trajectory(traj), traj.tau_s)
    eta1, eta2a, eta2b = eta_operators(report, bath)
    uf_defect = spectral_norm(u_f - np.eye(2 * bath.dim_b))
    # each eta is Hermitian, so the Magnus exponential is a unitary one
    magnus_defect = spectral_norm(u_f - expm_hermitian(eta1 + eta2a + eta2b))
    # ||(W(tp) (x) I) U_F (W(0) (x) I)^dag - P (x) I|| = ||U_F - (W(tp)^dag P W(0)) (x) I||
    q_start, q_end = traj.quaternions[0], traj.quaternions[-1]
    target = quaternion_product(q_end * CONJUGATE_Q,
                                quaternion_product(ideal_pulse_quaternion(shape.theta), q_start))
    defect = spectral_norm(u_f - np.kron(quaternion_matrix(target), np.eye(bath.dim_b)))
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
    expansion parameters tau_p * lambda and tau_p * omega_b shrink.
    """
    tau_list = sorted(float(t) for t in tau_list)
    if len(tau_list) < 4:
        raise ValueError("need at least 4 sweep points for a slope fit")
    entries = [decomposition_defects(shape.rescaled(tau_p), bath, steps=steps)
               for tau_p in tau_list]
    taus = [e.tau_p for e in entries]
    slopes = {}
    for field in ("defect", "uf_defect", "magnus_defect"):
        values = [getattr(e, field) for e in entries]
        if min(values) <= 0.0:
            slopes[field] = (float("nan"), float("nan"))
        else:
            slopes[field] = fit_loglog_slope(taus, values)
    return SweepResult(entries=entries, slopes=slopes)
