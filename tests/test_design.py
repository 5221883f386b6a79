import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import make_interp_spline
from scipy.linalg import null_space

from spinpulse import design, oracle
from spinpulse.design import (CONVERGED_OBJECTIVE, VERIFIED_BOUND, DesignProblem,
                              IllPosedProblem, _levenberg_marquardt, _Parameterization,
                              _ResidualFunction, feasibility_probe,
                              finite_difference_jacobian, solve)
from spinpulse.pulses import COMPONENTS
from spinpulse.trajectory import NTrajectory, integrate_axis_angle, n_trajectory
from spinpulse.cli import SLOPE_BANDS
from spinpulse.corrections import (evaluate_corrections, nogo_diagnostics,
                                   normalized_residual_vector)
from spinpulse.sampling import pi_close_ntrajectory
from residual_oracles import lane_rows


def jacobian_check(problem, point=None, step=1e-5, seed=0):
    """Richardson comparison of the finite-difference Jacobian at steps h and h/2.

    Returns (max relative deviation, flagged); smooth ansaetze stay below 1e-4.
    """
    residual = _ResidualFunction(problem)
    if point is None:
        point = residual.param.random_start(np.random.default_rng(seed))
    point = np.asarray(point, dtype=float)
    j1 = finite_difference_jacobian(lambda z: residual(z).f, point, step)
    j2 = finite_difference_jacobian(lambda z: residual(z).f, point, step / 2.0)
    scale = max(1.0, float(np.max(np.abs(j2))))
    deviation = float(np.max(np.abs(j1 - j2)) / scale)
    return deviation, deviation > 1e-4


@pytest.fixture(scope="module")
def s_type_solution():
    problem = DesignProblem(theta=np.pi, tau_s=0.5, fourier_order=2,
                            components=("y",), targets=("r1",),
                            symmetric=True, endpoint_derivatives=1)
    return problem, solve(problem, seed=1)


class TestSolve:
    def test_first_order_design_converges(self, s_type_solution):
        problem, sol = s_type_solution
        assert sol.converged
        assert sol.objective <= CONVERGED_OBJECTIVE
        assert sol.restarts_used == problem.restarts

    def test_double_grid_reverification(self, s_type_solution):
        """Converged first-order designs stay below 1e-7 at double density."""
        _, sol = s_type_solution
        traj = integrate_axis_angle(sol.shape, 2048)
        report = evaluate_corrections(n_trajectory(traj), sol.shape.tau_s)
        assert report.normalized[0] <= 1e-7

    def test_resolve_from_found_point_is_stable(self, s_type_solution):
        problem, sol = s_type_solution
        residual = _ResidualFunction(problem)
        # rebuild the free coordinates of the found pulse
        coeffs = sol.shape.fourier.cos[1, 1:]
        z0 = residual.param.basis.T @ coeffs
        z, cost = _levenberg_marquardt(residual, z0)
        f0 = residual(z0).f
        assert float(f0 @ f0) - cost < 1e-18

    def test_endpoint_derivative_constraint(self, s_type_solution):
        """One vanishing amplitude derivative at both pulse ends (spline-checked)."""
        _, sol = s_type_solution
        t = np.linspace(0.0, sol.shape.tau_p, 2049)
        v = sol.shape.amplitude(t)[:, 1]
        spline = make_interp_spline(t, v, k=5)
        dv = spline.derivative()
        bound = 1e-8 * np.abs(v).max() / sol.shape.tau_p
        assert abs(dv(0.0)) <= bound
        assert abs(dv(sol.shape.tau_p)) <= bound

    def test_rotation_requirement_met(self, s_type_solution):
        _, sol = s_type_solution
        assert sol.rotation_violation < 1e-9

    def test_underdetermined_problem_rejected(self):
        problem = DesignProblem(theta=np.pi, tau_s=0.5, fourier_order=1,
                                components=("y",), targets=("r1", "r2a", "r2b"))
        with pytest.raises(ValueError):
            solve(problem, seed=0)

    def test_q_type_design(self):
        problem = DesignProblem(theta=np.pi, tau_s=0.5, fourier_order=3,
                                components=("y",), targets=("r1", "r2b"),
                                symmetric=True, endpoint_derivatives=1, restarts=16)
        sol = solve(problem, seed=1)
        assert sol.converged
        assert sol.report.normalized[0] < 1e-7
        assert sol.report.normalized[2] < 1e-7
        assert sol.report.r2b_valid


class TestResidualFunction:
    """The design loop's residual is the verification report's, bit for bit."""

    @pytest.mark.parametrize("problem", [
        DesignProblem(theta=np.pi, tau_s=0.5, fourier_order=3, components=("y",),
                      targets=("r1", "r2b"), endpoint_derivatives=1),
        DesignProblem(theta=np.pi, tau_s="free", fourier_order=1,
                      components=("x", "y"), targets=("r1", "r2a", "r2b"),
                      symmetric=False, grid_steps=256),
    ], ids=["fixed-axis", "general-axis-free-tau-s"])
    def test_matches_evaluate_corrections(self, problem):
        residual = _ResidualFunction(problem)
        point = residual(residual.param.random_start(np.random.default_rng(4)))
        ntraj = NTrajectory(grid=residual.grid, nhat=point.nhat)
        expected = evaluate_corrections(ntraj, point.shape.tau_s).normalized_vector(problem.targets)
        assert np.array_equal(point.f[:len(expected)], expected)
        if problem.fixed_axis:
            assert len(point.f) == len(expected)
        else:
            traj = integrate_axis_angle(point.shape, problem.grid_steps)
            assert np.array_equal(point.nhat, n_trajectory(traj).nhat)

    def test_grid_below_the_integrator_minimum_rejected(self):
        with pytest.raises(ValueError):
            DesignProblem(theta=np.pi, grid_steps=8)


def test_unresolved_trial_point_is_a_rejected_step():
    """A trial point whose frame the guard rejects raises the damping, as a
    non-finite cost does, instead of ending the solve."""
    problem = DesignProblem(theta=2.0, tau_s=0.0, fourier_order=2, components=("x", "y"),
                            targets=("r1", "r2a", "r2b"), symmetric=False,
                            power_weight=0.2, grid_steps=64)
    rejected = []

    class Recording(_ResidualFunction):
        def __call__(self, z):
            try:
                return super().__call__(z)
            except ValueError:
                rejected.append(z)
                raise

    residual = Recording(problem)
    z0 = residual.param.random_start(np.random.default_rng(6394))
    f0 = residual(z0).f
    _, cost = _levenberg_marquardt(residual, z0)
    assert rejected
    assert np.isfinite(cost) and cost <= float(f0 @ f0)


def test_jacobian_integrates_no_frame(monkeypatch):
    """An LM iteration integrates only its trial points: one frame per residual
    evaluation and none for a Jacobian, its rows that read no frame included."""
    problem = DesignProblem(theta=np.pi, tau_s="free", fourier_order=1, components=("x", "y"),
                            targets=("r1", "r2a", "r2b"), symmetric=False, power_weight=0.2,
                            grid_steps=256)
    counts = {"frames": 0, "evaluations": 0, "jacobians": 0}
    frame_quaternions = design._frame_quaternions

    def counted_frames(*args):
        counts["frames"] += 1
        return frame_quaternions(*args)

    class Counting(_ResidualFunction):
        def __call__(self, z):
            counts["evaluations"] += 1
            return super().__call__(z)

        def jacobian(self, point):
            counts["jacobians"] += 1
            return super().jacobian(point)

    monkeypatch.setattr(design, "_frame_quaternions", counted_frames)
    residual = Counting(problem)
    _levenberg_marquardt(residual, residual.param.random_start(np.random.default_rng(3)),
                         max_iter=10)
    assert counts["jacobians"] > 0
    assert counts["frames"] == counts["evaluations"]


class TestJacobian:
    def test_one_residual_pair_per_column(self):
        calls = []

        def linear(x):
            calls.append(x.copy())
            return np.array([x[0] + 2.0 * x[1], 3.0 * x[0]])

        x0 = np.array([0.5, -1.0])
        jac = finite_difference_jacobian(linear, x0)
        # 2P single-point calls: calls 2i and 2i + 1 step coordinate i alone,
        # by +h_i and -h_i
        assert [c.shape for c in calls] == [(2,)] * 4
        offsets = np.array(calls) - x0
        assert np.array_equal(offsets != 0.0, np.repeat(np.eye(2, dtype=bool), 2, axis=0))
        assert np.all(offsets[0::2].sum(axis=1) > 0.0)
        assert np.all(offsets[1::2].sum(axis=1) < 0.0)
        np.testing.assert_allclose(offsets[0::2], -offsets[1::2], rtol=1e-9)
        np.testing.assert_allclose(jac, [[1.0, 2.0], [3.0, 0.0]], atol=1e-9)

    def test_exact_for_quadratic_residuals(self):
        a = np.array([[2.0, 1.0], [0.5, -1.0], [1.0, 3.0]])

        def quad(x):
            sq = np.sum(x * x, axis=-1)
            return x @ a.T + 0.5 * np.stack([sq, -sq, 2 * sq], axis=-1)

        x0 = np.array([0.3, -0.7])
        j1 = finite_difference_jacobian(quad, x0, 1e-5)
        j2 = finite_difference_jacobian(quad, x0, 5e-6)
        assert np.abs(j1 - j2).max() < 1e-9   # central differences are exact here

    def test_smooth_fourier_problem(self):
        problem = DesignProblem(theta=np.pi, tau_s=0.5, fourier_order=3,
                                components=("y",), targets=("r1",), symmetric=True)
        deviation, flagged = jacobian_check(problem, seed=5)
        assert deviation < 1e-4
        assert not flagged

    def test_free_splitting_time_with_piecewise_ansatz_flagged(self):
        """A free tau_s crossing a segment boundary kinks the residual."""
        problem = DesignProblem(theta=np.pi, tau_s="free", fourier_order=1,
                                ansatz="piecewise", segments=4,
                                components=("y",), targets=("r1",), grid_steps=256)
        # distinct adjacent segments, tau_s near the boundary at tau_p / 2,
        # step wide enough that the stencil straddles it asymmetrically
        point = np.array([1.0, -0.5, 0.7, 0.008])
        deviation, flagged = jacobian_check(problem, point=point, step=2e-2)
        assert flagged
        assert deviation > 1e-4


class TestAngleTable:
    """About a fixed axis n(t) comes from the angle table psi_0 + z @ Psi, and the
    Jacobian's residual rows from the adjoint; both against their references."""

    @pytest.mark.parametrize("tau_s", [0.0, 0.35, 1.0, "free"])
    @pytest.mark.parametrize("ansatz", ["fourier", "piecewise"])
    def test_reproduces_the_swept_angle(self, ansatz, tau_s):
        problem = DesignProblem(theta=2.0, tau_s=tau_s, fourier_order=3, symmetric=False,
                                ansatz=ansatz, segments=5, grid_steps=256)
        residual = _ResidualFunction(problem)
        for seed in range(3):
            point = residual(residual.param.random_start(np.random.default_rng(seed)))
            psi = design._swept_angle(point.shape, residual.grid)
            closed = np.stack([-np.sin(psi), np.zeros_like(psi), np.cos(psi)], axis=-1)
            assert np.max(np.abs(point.nhat - closed)) <= 1e-13

    @pytest.mark.parametrize("ansatz", ["fourier", "piecewise"])
    def test_family_matches_lone_shapes(self, ansatz):
        """One call on a family gives each member's lone swept angle."""
        problem = DesignProblem(theta=2.0, tau_s=0.35, fourier_order=3, symmetric=False,
                                ansatz=ansatz, segments=5)
        param = _Parameterization(problem)
        rng = np.random.default_rng(8)
        coeffs, tau_s = rng.normal(size=(4, param.lift.shape[0])), rng.uniform(0.0, 1.0, 4)
        t = np.linspace(0.0, 1.0, 33)
        family = design._swept_angle(param.shape_of(coeffs, tau_s), t)
        lone = [design._swept_angle(param.shape_of(c, ts), t) for c, ts in zip(coeffs, tau_s)]
        np.testing.assert_allclose(family, lone, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("components, ansatz", [
        (("y",), "fourier"), (("y",), "piecewise"), (("x", "y"), "fourier"),
        (("z", "x", "y"), "piecewise")])
    def test_rows_equal_the_lane_difference(self, components, ansatz):
        """The Jacobian's residual rows are the 2P-lane difference along its own dn."""
        problem = DesignProblem(theta=2.0, tau_s=0.35, fourier_order=2, components=components,
                                targets=("r1", "r2a", "r2b"), symmetric=False, ansatz=ansatz,
                                segments=5, grid_steps=256)
        residual = _ResidualFunction(problem)
        point = residual(residual.param.random_start(np.random.default_rng(2)))
        nhat, tau_s = point.nhat, point.shape.tau_s
        if problem.fixed_axis:
            turn = np.stack([-nhat[:, 2], np.zeros(len(nhat)), nhat[:, 0]], axis=-1)
            dn = residual.angles[1:, :, None] * turn
        else:
            dn = 2.0 * np.cross(nhat, residual._sweeps(point.shape, point.frames))
        lanes = lane_rows(residual.quad, nhat, dn, tau_s)
        expected = normalized_residual_vector(np.split(lanes, 3, axis=1), 1.0, problem.targets)
        rows = residual.jacobian(point)[:expected.shape[1]].T
        assert np.max(np.abs(rows - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestDuhamelJacobian:
    """The LM Jacobian, built from one frame, against the central-difference oracle.

    The two differ by the discretisation of the frame and of the Simpson sums,
    O(h^4).  A piecewise shape with a free tau_s on a segment boundary kinks
    the residual (see ``test_free_splitting_time_with_piecewise_ansatz_flagged``);
    the random starts here put tau_s away from every boundary.
    """

    @staticmethod
    def difference(problem, seed=0):
        residual = _ResidualFunction(problem)
        point = residual(residual.param.random_start(np.random.default_rng(seed)))
        jac = residual.jacobian(point)
        oracle_jac = finite_difference_jacobian(lambda z: residual(z).f, point.z)
        assert jac.shape == oracle_jac.shape and jac.flags.c_contiguous
        return float(np.max(np.abs(jac - oracle_jac)) / max(1.0, np.max(np.abs(oracle_jac))))

    @pytest.mark.parametrize("amplitude_bound, power_weight",
                             [(None, 0.0), (1.5, 0.0), (None, 0.2), (1.5, 0.2)],
                             ids=["plain", "bound", "power", "bound-power"])
    @pytest.mark.parametrize("tau_s", [0.0, 0.35, 1.0, "free"])
    @pytest.mark.parametrize("components", [("y",), ("x", "y"), ("z", "x", "y")],
                             ids=["y", "xy", "zxy"])
    @pytest.mark.parametrize("ansatz", ["fourier", "piecewise"])
    def test_matches_finite_differences(self, ansatz, components, tau_s,
                                        amplitude_bound, power_weight):
        problem = DesignProblem(theta=2.0, tau_s=tau_s, fourier_order=2, components=components,
                                targets=("r1", "r2a", "r2b"), symmetric=False,
                                amplitude_bound=amplitude_bound, power_weight=power_weight,
                                ansatz=ansatz, segments=5, grid_steps=256)
        coarse = self.difference(problem)
        assert coarse <= 1e-5
        if ansatz == "fourier" and len(components) > 1:
            # O(h^4): the RK4 frame sets the difference.  About a fixed axis
            # n(t) is exact and the difference, ~1e-8 at 256 steps, lies
            # within a decade of the oracle's rounding, too close for a rate.
            fine = self.difference(replace(problem, grid_steps=512))
            assert coarse >= 8.0 * fine


class TestProbes:
    def test_end_split_probe_certificate(self):
        problem = DesignProblem(theta=np.pi, tau_s=1.0, fourier_order=2,
                                components=("y",), targets=("r1",), restarts=4)
        probe = feasibility_probe(problem, seed=2)
        assert probe.regime == "end-split"
        assert probe.gap > 1e-3
        assert probe.best_objective >= probe.gap_bound * (1.0 - 1e-9)

    def test_pi_second_order_probe_certificate(self):
        problem = DesignProblem(theta=np.pi, tau_s="free", fourier_order=1,
                                components=("x", "y"), targets=("r1", "r2a", "r2b"),
                                symmetric=False, grid_steps=256, restarts=2)
        probe = feasibility_probe(problem, seed=3)
        assert probe.regime == "pi-second-order"
        # the gap is the pi-closed copy's, on twice the problem's grid
        shape = probe.solution.shape
        closed = pi_close_ntrajectory(n_trajectory(integrate_axis_angle(shape, 512)))
        diag = nogo_diagnostics(closed, shape.tau_s)
        assert diag.is_pi_pulse and diag.pi2_gap == probe.gap
        assert probe.gap > 0.0
        assert probe.best_objective >= probe.gap_bound * (1.0 - 1e-9)

    def test_open_regime_reports_data_only(self):
        """Second-order pi/2 search with general axes: data, no impossibility claim."""
        problem = DesignProblem(theta=np.pi / 2, tau_s="free", fourier_order=1,
                                components=("x", "y", "z"),
                                targets=("r1", "r2a", "r2b"),
                                symmetric=False, grid_steps=256, restarts=2)
        probe = feasibility_probe(problem, seed=1)
        assert probe.regime == "open"
        assert np.isnan(probe.gap_bound)
        assert probe.best_objective >= 0.0


def test_general_axis_first_order_design(dynamic_bath):
    """A pi/2 design whose axis turns in the x-y plane converges, verifies on
    the doubled grid, and its defect against the exact propagator falls at
    first order."""
    problem = DesignProblem(theta=np.pi / 2, fourier_order=2, components=("x", "y"),
                            targets=("r1",), symmetric=True, grid_steps=256, restarts=2)
    sol = solve(problem, seed=3)
    assert sol.converged
    singular = np.linalg.svd(sol.shape.amplitude(np.linspace(0.0, 1.0, 257))[:, :2],
                             compute_uv=False)
    assert singular[1] > 0.1 * singular[0]     # no fixed axis
    sweep = oracle.magnus_consistency(sol.shape, dynamic_bath, np.geomspace(1e-3, 1e-1, 6))
    assert 1.85 <= sweep.slopes["uf_defect"][0] <= 2.15


def test_general_axis_second_order_design(dynamic_bath, ising_bath):
    """A pi/2 design that zeroes r1 and r2b with an axis turning in the x-y
    plane converges, and its defect against the exact propagator falls at
    second order on a commuting bath and, with r2a left free, at first order
    on a dynamic one: the r2b quadrature on a moving axis."""
    problem = DesignProblem(theta=np.pi / 2, components=("x", "y"), targets=("r1", "r2b"),
                            fourier_order=3, symmetric=False, grid_steps=256, restarts=1)
    sol = solve(problem, seed=1)
    assert sol.converged
    singular = np.linalg.svd(sol.shape.amplitude(np.linspace(0.0, 1.0, 257))[:, :2],
                             compute_uv=False)
    assert singular[1] > 0.1 * singular[0]     # no fixed axis
    for bath, regime in ((ising_bath, "second-order-commuting"), (dynamic_bath, "first-order")):
        sweep = oracle.magnus_consistency(sol.shape, bath, np.geomspace(1e-3, 1e-1, 6))
        low, high = SLOPE_BANDS[regime]
        assert low <= sweep.slopes["uf_defect"][0] <= high


@pytest.fixture(scope="module")
def piecewise_solution():
    problem = DesignProblem(theta=np.pi, tau_s=0.5, ansatz="piecewise",
                            segments=6, components=("y",), targets=("r1",),
                            grid_steps=256, restarts=4)
    return solve(problem, seed=2)


def test_piecewise_first_order_design_converges(piecewise_solution):
    sol = piecewise_solution
    assert sol.objective < 1e-16
    # the segment boundaries start spans of whole Simpson panels, so the
    # design-grid objective carries over to the doubled grid
    assert sol.converged
    assert sol.report.normalized[0] < VERIFIED_BOUND
    assert sol.shape.representation == "piecewise_constant"
    # the pinned final segment keeps the accumulated angle exact
    widths = np.diff(sol.shape.boundaries)
    total = 2.0 * float(np.sum(sol.shape.values[:, 1] * widths))
    assert total == pytest.approx(-np.pi, abs=1e-12)


def test_converged_only_when_the_doubled_grid_verifies(piecewise_solution):
    """Converged means verified: the design-grid objective here is ~1e-24 and
    r1 re-verifies at ~4e-8 on the doubled grid."""
    sol = piecewise_solution
    assert not sol.converged or sol.report.normalized[0] < VERIFIED_BOUND


def _shape_coefficients(shape) -> np.ndarray:
    """(3, n) coefficient rows of a built shape: a_0..a_K, b_1..b_K or segment values."""
    if shape.representation == "fourier":
        return np.hstack([shape.fourier.cos, shape.fourier.sin])
    return shape.values.T


class TestAnsatzMap:
    @settings(max_examples=60, deadline=None)
    @given(ansatz=st.sampled_from(("fourier", "piecewise")),
           components=st.sampled_from((("y",), ("x",), ("z",), ("x", "y"), ("y", "x"),
                                       ("z", "x"), ("x", "y", "z"))),
           symmetric=st.booleans(), derivatives=st.integers(0, 3),
           order=st.integers(1, 4), segments=st.integers(2, 9),
           tau_s=st.sampled_from((0.3, "free")), seed=st.integers(0, 2 ** 16))
    @example(ansatz="fourier", components=("y", "x"), symmetric=False, derivatives=2,
             order=3, segments=4, tau_s="free", seed=0)
    @example(ansatz="piecewise", components=("y", "x"), symmetric=True, derivatives=0,
             order=1, segments=5, tau_s=0.3, seed=1)
    def test_built_shapes(self, ansatz, components, symmetric, derivatives, order,
                          segments, tau_s, seed):
        theta = 2.0
        fields = dict(theta=theta, tau_s=tau_s, fourier_order=order,
                      components=components, symmetric=symmetric,
                      endpoint_derivatives=derivatives, ansatz=ansatz, segments=segments)
        if ansatz == "piecewise" and derivatives:
            with pytest.raises(ValueError, match="endpoint_zero_derivatives"):
                DesignProblem(**fields)
            return
        if components in (("x",), ("z",)):
            with pytest.raises(ValueError, match="a fixed axis must be y"):
                DesignProblem(**fields)
            return
        problem = DesignProblem(**fields)
        try:
            param = _Parameterization(problem)
        except IllPosedProblem:
            assert ansatz == "fourier" and derivatives >= 1
            return
        rng = np.random.default_rng(seed)
        points = [param.random_start(rng) for _ in range(2)]
        shapes = [param.build_shape(z) for z in points]
        active = [COMPONENTS.index(c) for c in components]
        idle = [i for i in range(3) if i not in active]
        ks = np.arange(1, order + 1, dtype=float)
        for z, shape in zip(points, shapes):
            coeffs = _shape_coefficients(shape)
            assert not np.any(coeffs[idle])
            # one block per component, in the problem's order
            assert np.array_equal(coeffs[active],
                                  param.split(z)[0].reshape(len(components), -1))
            if ansatz == "fourier":
                a, b = shape.fourier.cos[:, 1:], shape.fourier.sin
                for m in range(1, derivatives + 1):
                    block = a if m % 2 == 0 else b
                    assert np.all(np.abs(block @ ks ** m)
                                  <= 1e-12 * (1.0 + np.abs(block) @ ks ** m))
            if problem.fixed_axis:
                if ansatz == "fourier":
                    swept = 2.0 * shape.fourier.cos[active[0], 0] * shape.tau_p
                else:
                    swept = 2.0 * np.sum(shape.values[:, active[0]]
                                         * np.diff(shape.boundaries))
                assert swept == pytest.approx(-theta, abs=1e-12)
        # affine in z: a unit step moves the coefficients by the same amount anywhere
        for i in range(param.basis.shape[1]):
            step = np.zeros(len(points[0]))
            step[i] = 1.0
            moves = [_shape_coefficients(param.build_shape(z + step)) - _shape_coefficients(s)
                     for z, s in zip(points, shapes)]
            assert np.abs(moves[0] - moves[1]).max() <= 1e-12


@pytest.mark.parametrize("ansatz", ["fourier", "piecewise"])
def test_null_space_is_scipys_bit_for_bit(monkeypatch, ansatz):
    """The numpy null space of every endpoint-derivative row set equals
    scipy.linalg.null_space, and so do the random starts and dc/dz read from
    it: the seeded designs (S, Q, the probes) start where they always did."""
    calls = []
    numpy_null_space = design._null_space
    monkeypatch.setattr(design, "_null_space",
                        lambda rows: calls.append(rows) or numpy_null_space(rows))
    compared = 0
    for order, components, symmetric, theta, derivatives in itertools.product(
            range(1, 6), (("y",), ("x", "y"), ("z", "x", "y")), (True, False),
            (np.pi, np.pi / 2), range(4)):
        fields = dict(theta=theta, tau_s="free", fourier_order=order,
                      components=components, symmetric=symmetric,
                      endpoint_derivatives=derivatives, ansatz=ansatz, segments=order + 1)
        if ansatz == "piecewise" and derivatives:
            with pytest.raises(ValueError, match="endpoint_zero_derivatives"):
                DesignProblem(**fields)
            continue
        problem = DesignProblem(**fields)
        calls.clear()
        try:
            param = _Parameterization(problem)
        except IllPosedProblem:
            param = None
        if not calls:
            # no endpoint row survives the lift: the basis is the identity
            assert np.array_equal(param.basis, np.eye(param.lift.shape[1]))
            continue
        (rows,) = calls
        expected = null_space(rows)
        assert np.array_equal(numpy_null_space(rows), expected)
        compared += 1
        if param is None:
            continue
        seed = 100 * order + derivatives
        start = param.random_start(np.random.default_rng(seed))
        directions = param.lift @ param.basis
        param.basis = expected
        assert np.array_equal(param.random_start(np.random.default_rng(seed)), start)
        assert np.array_equal(param.lift @ param.basis, directions)
    # piecewise problems take no endpoint rows; the Fourier sweep has 150 row sets
    assert compared == (150 if ansatz == "fourier" else 0)
