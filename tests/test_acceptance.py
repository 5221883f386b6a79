"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and runtimes.
"""

import time

import numpy as np
import pytest

from spinpulse import oracle
from spinpulse.bath import BathModel, preset_bath
from spinpulse.corrections import evaluate_corrections, nogo_diagnostics
from spinpulse.design import DesignProblem, feasibility_probe, solve
from spinpulse.pulses import constant_rotation_pulse
from spinpulse.sampling import (pi_close_ntrajectory, random_fourier_shape,
                                random_ntrajectory)
from spinpulse.trajectory import (NTrajectory, amplitude_from_axis_angle,
                                  integrate_axis_angle, n_trajectory)
from joint_oracles import dephasing_identity_defect, first_order_norm_identity

TAU_SWEEP = np.geomspace(1e-3, 1e-1, 6)


class _Criterion:
    """Context manager printing one pass/fail line with runtime."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} - {self.label} "
              f"({elapsed:.2f}s / budget {self.budget_s:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its runtime budget")
        return False


# solves and sweeps shared between criteria 4, 6 and 7; filled lazily so the
# printed runtime of whichever criterion computes them first is honest
_shared: dict = {}


def _designs():
    if "s" not in _shared:
        _shared["s"] = solve(DesignProblem(
            theta=np.pi, tau_s=0.5, fourier_order=2, components=("y",),
            targets=("r1",), symmetric=True, endpoint_derivatives=1,
            restarts=32), seed=1)
        _shared["q"] = solve(DesignProblem(
            theta=np.pi, tau_s=0.5, fourier_order=3, components=("y",),
            targets=("r1", "r2b"), symmetric=True, endpoint_derivatives=1,
            restarts=32), seed=1)
    return _shared["s"], _shared["q"]


def _slope_fits(dynamic_bath, ising_bath):
    if "fits" not in _shared:
        s_type, q_type = _designs()
        uncorrected = constant_rotation_pulse(1.0, np.pi)
        _shared["fits"] = {
            "uncorrected": oracle.magnus_consistency(uncorrected, dynamic_bath, TAU_SWEEP),
            "first-order": oracle.magnus_consistency(s_type.shape, dynamic_bath, TAU_SWEEP),
            "second-order": oracle.magnus_consistency(q_type.shape, ising_bath, TAU_SWEEP),
        }
    return _shared["fits"]


def test_criterion_1_closed_form_fixture():
    with _Criterion(1, "closed-form constant-axis pi pulse residuals", 1.0):
        tau_p = 1.0
        t = np.linspace(0.0, tau_p, 2049)
        psi = np.pi * t / tau_p
        ntraj = NTrajectory(grid=t, nhat=np.stack(
            [-np.sin(psi), np.zeros_like(t), np.cos(psi)], axis=1))
        report = evaluate_corrections(ntraj, tau_p / 2)
        assert report.normalized[0] == pytest.approx(2.0 / np.pi, abs=1e-6)
        assert report.normalized[0] == pytest.approx(0.636620, abs=1e-6)
        assert report.normalized[1] == pytest.approx(0.5 - 4.0 / np.pi ** 2, abs=1e-6)
        assert report.normalized[1] == pytest.approx(0.094715, abs=1e-6)


def test_criterion_2_round_trip_conversion():
    with _Criterion(2, "amplitude -> frame -> amplitude on 50 random pulses", 10.0):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            shape = random_fourier_shape(rng, order=5)
            traj = integrate_axis_angle(shape, 1024)
            recovered = amplitude_from_axis_angle(traj)
            direct = shape.amplitude(traj.grid)
            scale = max(float(np.max(np.linalg.norm(direct, axis=1))), 1e-300)
            worst = max(worst, float(np.max(np.abs(recovered - direct))) / scale)
        assert worst <= 1e-6


def test_criterion_3_operator_vector_equivalence():
    with _Criterion(3, "||eta1|| = lambda ||A|| |r1| on 100 random pairs", 30.0):
        rng = np.random.default_rng(7)
        for _ in range(100):
            shape = random_fourier_shape(rng, order=rng.integers(1, 5))
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h_b = rng.uniform(0.5, 2.0) * (h + h.conj().T) / 2.0
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a = (a + a.conj().T) / 2.0
            a = a / np.linalg.norm(a, 2)
            bath = BathModel(h_b, a, rng.uniform(0.05, 2.0))
            ntraj = n_trajectory(integrate_axis_angle(shape, 512))
            report = evaluate_corrections(ntraj, shape.tau_s)
            lhs, rhs = first_order_norm_identity(report, bath)
            assert lhs == pytest.approx(rhs, rel=1e-8)


def test_criterion_4_expansion_order_slopes(dynamic_bath, ising_bath):
    with _Criterion(4, "log-log defect slopes across the tau_p sweep", 120.0):
        fits = _slope_fits(dynamic_bath, ising_bath)
        assert fits["uncorrected"].slopes["uf_defect"][0] == pytest.approx(1.0, abs=0.15)
        assert fits["first-order"].slopes["uf_defect"][0] == pytest.approx(2.0, abs=0.15)
        assert fits["second-order"].slopes["uf_defect"][0] == pytest.approx(3.0, abs=0.2)
        for fit in fits.values():
            assert fit.slopes["magnus_defect"][0] >= 2.7


def test_criterion_5_no_go_corroboration():
    with _Criterion(5, "randomized no-go gaps and infeasibility probes", 120.0):
        rng = np.random.default_rng(123)
        tsp_min, pi2_min = np.inf, np.inf
        for _ in range(10):                         # 1000 samples, 100 lanes a call
            ntraj, tau_s = random_ntrajectory(rng, 100, 256)
            tsp_min = min(tsp_min, np.min(nogo_diagnostics(ntraj, ntraj.tau_p).tsp_gap))
            closed = pi_close_ntrajectory(ntraj)
            diag = nogo_diagnostics(closed, tau_s)
            assert np.all(diag.is_pi_pulse)
            pi2_min = min(pi2_min, np.min(diag.pi2_gap))
        assert tsp_min >= -1e-9
        assert pi2_min >= -1e-9

        end_split = feasibility_probe(
            DesignProblem(theta=np.pi, tau_s=1.0, fourier_order=2,
                          components=("y",), targets=("r1",), restarts=4),
            seed=2)
        assert end_split.gap > 0.0
        assert end_split.best_objective >= end_split.gap_bound * (1.0 - 1e-9)

        pi_probe = feasibility_probe(
            DesignProblem(theta=np.pi, tau_s="free", fourier_order=1,
                          components=("x", "y"), targets=("r1", "r2a", "r2b"),
                          symmetric=False, grid_steps=256, restarts=2),
            seed=3)
        shape = pi_probe.solution.shape
        closed = pi_close_ntrajectory(n_trajectory(integrate_axis_angle(shape, 512)))
        diag = nogo_diagnostics(closed, shape.tau_s)
        assert diag.is_pi_pulse and diag.pi2_gap == pi_probe.gap
        assert pi_probe.gap > 0.0
        assert pi_probe.best_objective >= pi_probe.gap_bound * (1.0 - 1e-9)


def test_criterion_6_dephasing_identity():
    with _Criterion(6, "pure-dephasing decomposition identity", 5.0):
        for tau_p in np.geomspace(1e-3, 1.0, 7):
            assert dephasing_identity_defect(0.7, tau_p) <= 1e-8
        # physical route: for a pulse meeting the rotation requirement the
        # decomposition defect is exactly the deviation-from-identity defect
        bath = preset_bath("spin-dephasing", coupling=0.8)
        shape = constant_rotation_pulse(1.0, np.pi)
        for tau_p in (1e-2, 1e-1):
            err = oracle.decomposition_defects(
                shape.rescaled(tau_p), bath, steps=1024)
            assert err.defect == pytest.approx(err.uf_defect, abs=1e-8)


def test_criterion_7_solver_reproduces_reference_designs(dynamic_bath, ising_bath):
    with _Criterion(7, "S-type and Q-type designs found and order-checked", 120.0):
        s_type, q_type = _designs()
        fits = _slope_fits(dynamic_bath, ising_bath)
        assert s_type.converged and s_type.restarts_used <= 32
        assert s_type.report.normalized[0] <= 1e-7
        assert q_type.converged and q_type.restarts_used <= 32
        assert q_type.report.normalized[0] <= 1e-7
        assert q_type.report.normalized[2] <= 1e-7
        # order improvements confirmed by the exact propagator
        assert fits["first-order"].slopes["uf_defect"][0] == pytest.approx(2.0, abs=0.15)
        assert fits["second-order"].slopes["uf_defect"][0] == pytest.approx(3.0, abs=0.2)
