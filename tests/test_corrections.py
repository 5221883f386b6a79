import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, simpson

from spinpulse.bath import BathModel, preset_bath
from spinpulse.corrections import (NOGO_TOLERANCE, SimpsonRule, adjoint_table,
                                   correction_residuals, cross,
                                   evaluate_corrections, nogo_diagnostics,
                                   normalized_residual_vector, residual_adjoint)
from spinpulse.oracle import eta_operators
from spinpulse.pulses import FourierCoefficients, PulseShape
from spinpulse.sampling import (_slerp, pi_close_ntrajectory, random_fourier_shape,
                                random_ntrajectory)
from spinpulse.trajectory import NTrajectory, axis_angle, integrate_axis_angle, n_trajectory
from joint_oracles import first_order_norm_identity
from residual_oracles import lane_rows


def constant_axis_ntrajectory(tau_p=1.0, nodes=2049, turns=1.0):
    """a = y, psi = turns * pi * t / tau_p, psi(0) = 0."""
    t = np.linspace(0.0, tau_p, nodes)
    psi = turns * np.pi * t / tau_p
    nhat = np.stack([-np.sin(psi), np.zeros_like(t), np.cos(psi)], axis=1)
    return NTrajectory(grid=t, nhat=nhat)


class TestResiduals:
    def test_constant_pi_pulse_first_order(self):
        tau_p = 2.0
        report = evaluate_corrections(constant_axis_ntrajectory(tau_p), tau_p / 2)
        assert np.allclose(report.r1, [-2 * tau_p / np.pi, 0.0, 0.0], atol=1e-9)
        assert report.normalized[0] == pytest.approx(2 / np.pi, abs=1e-9)

    def test_constant_pi_pulse_second_order_moment(self):
        tau_p = 2.0
        report = evaluate_corrections(constant_axis_ntrajectory(tau_p), tau_p / 2)
        expected = (0.5 - 4 / np.pi ** 2) * tau_p ** 2
        assert np.allclose(report.r2a, [0.0, 0.0, expected], atol=1e-9)
        assert report.normalized[1] == pytest.approx(0.5 - 4 / np.pi ** 2, abs=1e-9)

    def test_no_pulse_all_residuals_vanish(self):
        t = np.linspace(0.0, 1.0, 513)
        ntraj = NTrajectory(grid=t, nhat=np.tile([0.0, 0.0, 1.0], (len(t), 1)))
        for tau_s in (0.0, 0.3, 1.0):
            report = evaluate_corrections(ntraj, tau_s)
            assert report.norms.max() < 1e-14

    def test_grid_too_coarse(self):
        t = np.linspace(0.0, 1.0, 8)
        ntraj = NTrajectory(grid=t, nhat=np.tile([0.0, 0.0, 1.0], (len(t), 1)))
        with pytest.raises(ValueError):
            evaluate_corrections(ntraj, 0.5)

    def test_r2b_validity_flag_tracks_r1(self):
        report = evaluate_corrections(constant_axis_ntrajectory(), 0.5)
        assert not report.r2b_valid          # |r1| is large here
        t = np.linspace(0.0, 1.0, 513)
        flat = NTrajectory(grid=t, nhat=np.tile([0.0, 0.0, 1.0], (len(t), 1)))
        assert evaluate_corrections(flat, 0.5).r2b_valid

    def test_fixed_axis_reduction_matches_scalar_integrals(self, rng):
        """For a = y the vector residuals reduce to plain sin/cos quadratures."""
        shape = random_fourier_shape(rng, order=3)
        y_only = np.array([[0.0], [1.0], [0.0]])
        shape = replace(shape, fourier=FourierCoefficients(shape.fourier.cos * y_only,
                                                           shape.fourier.sin * y_only))
        traj = integrate_axis_angle(shape, 1024)
        ntraj = n_trajectory(traj)
        report = evaluate_corrections(ntraj, shape.tau_s)
        t, psi = traj.grid, axis_angle(shape, traj)[1]
        tau_p, tau_s = shape.tau_p, shape.tau_s
        dt = t - tau_s
        sin_i = simpson(np.sin(psi), x=t)
        cos_i = simpson(np.cos(psi), x=t)
        r1_scalar = np.array([
            -sin_i + (tau_p - tau_s) * np.sin(psi[-1]) + tau_s * np.sin(psi[0]),
            0.0,
            cos_i - (tau_p - tau_s) * np.cos(psi[-1]) - tau_s * np.cos(psi[0]),
        ])
        assert np.abs(report.r1 - r1_scalar).max() < 1e-9
        r2a_scalar = np.array([
            -2 * simpson(dt * np.sin(psi), x=t)
            + (tau_p - tau_s) ** 2 * np.sin(psi[-1]) - tau_s ** 2 * np.sin(psi[0]),
            0.0,
            2 * simpson(dt * np.cos(psi), x=t)
            - (tau_p - tau_s) ** 2 * np.cos(psi[-1]) + tau_s ** 2 * np.cos(psi[0]),
        ])
        assert np.abs(report.r2a - r2a_scalar).max() < 1e-9
        # all residuals live in the plane structure of a fixed-y rotation
        assert abs(report.r1[1]) < 1e-12 and abs(report.r2a[1]) < 1e-12
        assert np.abs(report.r2b[[0, 2]]).max() < 1e-12

    def test_quadrature_convergence_under_doubling(self, rng):
        shape = random_fourier_shape(rng, order=5)
        r_coarse = evaluate_corrections(
            n_trajectory(integrate_axis_angle(shape, 1024)), shape.tau_s)
        r_fine = evaluate_corrections(
            n_trajectory(integrate_axis_angle(shape, 2048)), shape.tau_s)
        rel = np.abs(r_coarse.norms - r_fine.norms) / np.maximum(r_fine.norms, 1e-300)
        assert rel.max() < 1e-6
        assert not r_coarse.unconverged

    def test_piecewise_residuals_keep_simpson_order(self):
        """Breakpoints off the uniform nodes keep the residuals O(h^4): each one
        starts a span of whole Simpson panels, so no panel straddles a kink of
        n(t).  A panel across a kink would leave O(h^2), a ratio of 16."""
        values = np.random.default_rng(7).normal(scale=3.0, size=(6, 3))
        shape = PulseShape(1.0, 0.3, np.pi, "piecewise_constant",
                           boundaries=np.linspace(0.0, 1.0, 7), values=values)

        def residuals(steps):
            ntraj = n_trajectory(integrate_axis_angle(shape, steps))
            return np.concatenate(correction_residuals(SimpsonRule(ntraj.grid), ntraj.nhat,
                                                       shape.tau_s))

        reference = residuals(16384)
        coarse, fine = (np.abs(residuals(n) - reference).max() for n in (256, 1024))
        assert coarse / fine >= 100.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 5),
           scale=st.floats(0.5, 4.0), steps=st.sampled_from([256, 1024]),
           tau_p=st.floats(1e-3, 1e3))
    def test_double_integral_antisymmetric_under_time_reversal(self, seed, order, scale,
                                                                steps, tau_p):
        """Under t -> tp - t and ts -> tp - ts, r1 is even and r2a, r2b are odd."""
        shape = random_fourier_shape(np.random.default_rng(seed), order=order,
                                     scale=scale).rescaled(tau_p)
        ntraj = n_trajectory(integrate_axis_angle(shape, steps))
        tau_s = shape.tau_s
        r1, r2a, r2b = correction_residuals(SimpsonRule(ntraj.grid), ntraj.nhat, tau_s)
        b1, b2a, b2b = correction_residuals(SimpsonRule((tau_p - ntraj.grid)[::-1]),
                                            ntraj.nhat[::-1], tau_p - tau_s)
        # exact up to the (direction-asymmetric) quadrature error
        assert np.abs(r1 - b1).max() < 1e-6 * tau_p
        assert np.abs(r2a + b2a).max() < 1e-6 * tau_p ** 2
        assert np.abs(r2b + b2b).max() < 1e-6 * tau_p ** 2


class TestResidualAdjoint:
    """The transposed linearisation against the 2P-lane difference of residuals."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           spans=st.lists(st.integers(2, 9), min_size=1, max_size=4),
           tau_p=st.floats(1e-2, 1e2), where=st.sampled_from(["start", "end", "node", "off"]),
           lanes=st.integers(1, 4))
    def test_equals_the_lane_difference(self, seed, spans, tau_p, where, lanes):
        """Odd and even interval counts, uniform spans of unequal widths between
        cuts, and tau_s at either end, on a node or between nodes."""
        rng = np.random.default_rng(seed)
        cuts = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, len(spans) - 1)), [1.0]])
        grid = tau_p * np.concatenate([np.linspace(a, b, m + 1)[:-1]
                                       for a, b, m in zip(cuts[:-1], cuts[1:], spans)] + [[1.0]])
        assume(np.all(np.diff(grid) > 1e-3 * tau_p))
        nhat = rng.normal(size=(len(grid), 3))
        nhat /= np.linalg.norm(nhat, axis=1, keepdims=True)
        dn = rng.normal(size=(lanes, len(grid), 3))
        k = rng.integers(1, len(grid) - 1)
        tau_s = {"start": 0.0, "end": grid[-1], "node": grid[k],
                 "off": grid[k] + rng.uniform(0.1, 0.9) * (grid[k + 1] - grid[k])}[where]
        quad = SimpsonRule(grid)
        rows = dn.reshape(lanes, -1) @ adjoint_table(
            residual_adjoint(quad, nhat, tau_s, quad.running(nhat)))
        expected = lane_rows(quad, nhat, dn, tau_s)
        assert np.max(np.abs(rows - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_running_adjoint_is_the_transpose(self, rng):
        grid = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 20)]))
        quad = SimpsonRule(grid)
        f, g = rng.normal(size=(2, len(grid), 3))
        assert np.sum(quad.running(f) * g) == pytest.approx(
            np.sum(f * quad.running_adjoint(g)), rel=1e-13)

    def test_tau_s_outside_the_pulse_rejected(self):
        quad = SimpsonRule(np.linspace(0.0, 1.0, 17))
        with pytest.raises(ValueError):
            nhat = np.tile([0.0, 0.0, 1.0], (17, 1))
            residual_adjoint(quad, nhat, 1.5, quad.running(nhat))


class TestEtaOperators:
    def test_zero_coupling_gives_zero_operators(self):
        bath = preset_bath("spin-dynamic", coupling=0.0)
        ntraj = constant_axis_ntrajectory()
        report = evaluate_corrections(ntraj, 0.5)
        for op in eta_operators(report, bath):
            assert np.linalg.norm(op, 2) == 0.0

    def test_first_order_vanishes_with_r1(self):
        bath = preset_bath("spin-dynamic", coupling=0.3)
        ntraj = constant_axis_ntrajectory()
        report = replace(evaluate_corrections(ntraj, 0.5), r1=np.zeros(3))
        eta1, _, _ = eta_operators(report, bath)
        assert np.linalg.norm(eta1, 2) == 0.0

    def test_bench_bath_norm_value(self):
        tau_p = 2.0
        bath = BathModel(np.diag([1.0, -1.0]).astype(complex),
                         np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), 0.1)
        ntraj = constant_axis_ntrajectory(tau_p)
        report = evaluate_corrections(ntraj, tau_p / 2)
        eta1, _, _ = eta_operators(report, bath)
        assert np.linalg.norm(eta1, 2) == pytest.approx(0.1 * 2 * tau_p / np.pi, rel=1e-9)

    def test_operator_vector_norm_identity(self, rng):
        for _ in range(10):
            shape = random_fourier_shape(rng, order=3)
            bath = preset_bath("spin-dynamic", coupling=rng.uniform(0.05, 2.0),
                               omega_b=rng.uniform(0.2, 3.0))
            ntraj = n_trajectory(integrate_axis_angle(shape, 512))
            report = evaluate_corrections(ntraj, shape.tau_s)
            lhs, rhs = first_order_norm_identity(report, bath)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BathModel(np.zeros((2, 2)), np.eye(3), 0.1)


class TestNoGoDiagnostics:
    def test_constant_pi_pulse_gap(self):
        tau_p = 2.0
        diag = nogo_diagnostics(constant_axis_ntrajectory(tau_p), tau_p / 2)
        assert diag.pi2_gap == pytest.approx((0.5 - 4 / np.pi ** 2) * tau_p ** 2, rel=1e-9)
        assert diag.is_pi_pulse

    def test_no_pulse_saturates_end_split(self):
        t = np.linspace(0.0, 1.0, 257)
        ntraj = NTrajectory(grid=t, nhat=np.tile([0.0, 0.0, 1.0], (len(t), 1)))
        diag = nogo_diagnostics(ntraj, 1.0)
        assert diag.tsp_gap == pytest.approx(0.0, abs=1e-12)

    def test_smooth_pulse_has_positive_end_split_gap(self, rng):
        shape = random_fourier_shape(rng, order=3)
        ntraj = n_trajectory(integrate_axis_angle(shape, 512))
        diag = nogo_diagnostics(ntraj, ntraj.tau_p)
        assert diag.tsp_gap > 1e-3

    def test_gap_equals_moment_residual_projection(self):
        """pi2_gap = r2a . n(0) on the pi manifold: the probe's bound identity."""
        tau_p = 1.7
        ntraj = constant_axis_ntrajectory(tau_p)
        tau_s = 0.4 * tau_p
        report = evaluate_corrections(ntraj, tau_s)
        diag = nogo_diagnostics(ntraj, tau_s)
        assert diag.pi2_gap == pytest.approx(float(report.r2a @ ntraj.nhat[0]), abs=1e-12)
        assert np.linalg.norm(report.r2a) >= diag.pi2_gap > 0.0

    def test_gap_positivity_sample(self, rng):
        ntraj, tau_s = random_ntrajectory(rng, 50, 256)
        diag = nogo_diagnostics(ntraj, ntraj.tau_p)
        assert np.all(diag.tsp_gap >= -1e-9)
        closed = pi_close_ntrajectory(ntraj)
        diag2 = nogo_diagnostics(closed, tau_s)
        assert np.all(diag2.is_pi_pulse)
        assert np.all(diag2.pi2_gap >= -1e-9)


def _random_smooth_ntrajectory(rng, nodes=257, tau_p=1.0):
    """Direct sphere-path sampler: normalize a smooth random curve in R^3.

    Independent of the pulse machinery, so the positivity sweep does not
    inherit anything from the frame integration path.
    """
    t = np.linspace(0.0, tau_p, nodes)
    while True:
        coeffs = rng.normal(size=(3, 3)) / np.array([1.0, 2.0, 3.0])
        phases = rng.uniform(0, 2 * np.pi, size=(3, 3))
        m = np.ones((nodes, 3)) * rng.normal(size=3)
        for k in range(3):
            arg = 2 * np.pi * (k + 1) * t[:, None] / tau_p + phases[k]
            m = m + np.cos(arg) * coeffs[k]
        norms = np.linalg.norm(m, axis=1)
        if norms.min() > 0.2:
            return NTrajectory(grid=t, nhat=m / norms[:, None])


def test_nogo_positivity_large_ensemble(rng):
    """Both gaps stay nonnegative over ten thousand random trajectories."""
    tsp_min, pi2_min = np.inf, np.inf
    for _ in range(10):                         # 10,000 paths, 1000 lanes a call
        paths, taus = [], []
        for _ in range(1000):
            paths.append(_random_smooth_ntrajectory(rng).nhat)
            taus.append(rng.uniform(0.0, 1.0))
        ntraj = NTrajectory(grid=np.linspace(0.0, 1.0, 257), nhat=np.stack(paths))
        tsp_min = min(tsp_min, np.min(nogo_diagnostics(ntraj, ntraj.tau_p).tsp_gap))
        closed = pi_close_ntrajectory(ntraj)
        pi2_min = min(pi2_min, np.min(nogo_diagnostics(closed, np.array(taus)).pi2_gap))
    assert tsp_min >= -1e-9
    assert pi2_min >= -1e-9


class TestSimpsonIntervals:
    """The per-grid Simpson rule against scipy's composite rules."""

    @pytest.mark.parametrize("nodes", [3, 4, 17, 18, 513, 514, 1025])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_matches_scipy(self, nodes, uniform, rng):
        t = np.linspace(0.0, 1.3, nodes)
        if not uniform:
            # jitter interior nodes by up to 40% of a step
            t[1:-1] += rng.uniform(-0.4, 0.4, nodes - 2) * (t[1] - t[0])
        values = np.column_stack([np.sin(3.0 * t), np.exp(t), rng.normal(size=nodes)])
        quad = SimpsonRule(t)
        assert quad.intervals(values).shape == (nodes - 1, 3)
        np.testing.assert_allclose(quad.weights @ values, simpson(values, x=t, axis=0),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(quad.running(values),
                                   cumulative_simpson(values, x=t, axis=0, initial=0.0),
                                   rtol=0, atol=1e-13)

    def test_exact_for_quadratics(self, rng):
        t = np.sort(np.concatenate([[0.0, 2.0], rng.uniform(0.0, 2.0, 30)]))
        values = (1.0 - 2.0 * t + 3.0 * t ** 2)[:, None]
        exact = t[1:] - t[:-1] - (t[1:] ** 2 - t[:-1] ** 2) + (t[1:] ** 3 - t[:-1] ** 3)
        np.testing.assert_allclose(SimpsonRule(t).intervals(values)[:, 0], exact,
                                   rtol=1e-10, atol=1e-14)


def _rotation(q):
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


_seeds = st.integers(0, 2 ** 32 - 1)
_fractions = st.floats(0.0, 1.0)
_quaternions = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 0.1)


class TestResidualSymmetries:
    @settings(max_examples=40, deadline=None)
    @given(seed=_seeds, frac=_fractions, q=_quaternions)
    def test_residuals_follow_a_global_rotation(self, seed, frac, q):
        ntraj = _random_smooth_ntrajectory(np.random.default_rng(seed))
        rot = _rotation(q)
        tau_s = frac * ntraj.tau_p
        quad = SimpsonRule(ntraj.grid)
        plain = correction_residuals(quad, ntraj.nhat, tau_s)
        rotated = correction_residuals(quad, ntraj.nhat @ rot.T, tau_s)
        for r, r_rot in zip(plain, rotated):
            np.testing.assert_allclose(r_rot, rot @ r, rtol=0, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(seed=_seeds, frac=_fractions, tau_p=st.floats(1e-3, 1e3))
    def test_normalized_residuals_ignore_tau_p(self, seed, frac, tau_p):
        ntraj = _random_smooth_ntrajectory(np.random.default_rng(seed))
        unit = correction_residuals(SimpsonRule(ntraj.grid), ntraj.nhat, frac)
        scaled = correction_residuals(SimpsonRule(tau_p * ntraj.grid), ntraj.nhat, frac * tau_p)
        np.testing.assert_allclose(normalized_residual_vector(scaled, tau_p * ntraj.tau_p),
                                   normalized_residual_vector(unit, ntraj.tau_p),
                                   rtol=0, atol=1e-13)


class TestResidualLanes:
    @settings(max_examples=30, deadline=None)
    @given(seed=_seeds, frac=_fractions, lanes=st.sampled_from(((1,), (4,), (2, 3))))
    def test_leading_axes_equal_per_row_calls(self, seed, frac, lanes):
        """Lanes on one grid give each row's own residuals, bit for bit."""
        rng = np.random.default_rng(seed)
        paths = [_random_smooth_ntrajectory(rng) for _ in range(int(np.prod(lanes)))]
        grid = paths[0].grid.copy()
        # jitter interior nodes by up to 40% of a step: non-uniform Simpson weights
        grid[1:-1] += rng.uniform(-0.4, 0.4, len(grid) - 2) * (grid[1] - grid[0])
        nhat = np.stack([p.nhat for p in paths]).reshape(lanes + paths[0].nhat.shape)
        tau_s = frac * grid[-1]
        quad = SimpsonRule(grid)
        batched = correction_residuals(quad, nhat, tau_s)
        for idx in np.ndindex(*lanes):
            for lane, row in zip(batched, correction_residuals(quad, nhat[idx], tau_s)):
                assert lane.shape == lanes + (3,)
                assert np.array_equal(lane[idx], row)

    def test_running_integral_passed_in_is_the_one_taken(self, rng):
        """Residuals from a held running integral equal those that take it."""
        grid = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 31)]))
        nhat = rng.normal(size=(3, len(grid), 3))
        quad = SimpsonRule(grid)
        for held, taken in zip(correction_residuals(quad, nhat, 0.3, quad.running(nhat)),
                               correction_residuals(quad, nhat, 0.3)):
            assert np.array_equal(held, taken)


class TestCross:
    @settings(max_examples=40, deadline=None)
    @given(seed=_seeds, shapes=st.sampled_from((((3,), (3,)), ((5, 3), (5, 3)),
                                               ((4, 7, 3), (4, 7, 3)), ((4, 7, 3), (7, 3)),
                                               ((2, 1, 3), (5, 3)), ((3, 1, 3), (3, 3)))))
    def test_equals_numpy_cross(self, seed, shapes):
        """The component-wise cross product is np.cross bit for bit on lanes."""
        rng = np.random.default_rng(seed)
        a, b = (rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
                for shape in shapes)
        assert np.array_equal(cross(a, b), np.cross(a, b))


class TestNoGoLanes:
    """The lane path of ``nogo``: each lane equals its lone call bit for bit."""

    @settings(max_examples=15, deadline=None)
    @given(seed=_seeds, lanes=st.sampled_from(((1,), (4,), (2, 3))))
    def test_random_ntrajectory_lanes_equal_lone_draws(self, seed, lanes):
        m = int(np.prod(lanes))
        ntraj, tau_s = random_ntrajectory(np.random.default_rng(seed), m, 128)
        rng = np.random.default_rng(seed)
        for i in range(m):
            shape = random_fourier_shape(rng)
            lone = n_trajectory(integrate_axis_angle(shape, 128))
            assert tau_s[i] == shape.tau_s
            assert np.array_equal(ntraj.grid, lone.grid)
            assert np.array_equal(ntraj.nhat[i], lone.nhat)

    @settings(max_examples=15, deadline=None)
    @given(seed=_seeds, frac=_fractions, lanes=st.sampled_from(((1,), (4,), (2, 3))))
    # lane (1, 2)'s (tau_p - tau_s) ** 2 rounded otherwise as a scalar (libm's pow)
    @example(seed=129, frac=0.0, lanes=(2, 3))
    def test_pi_close_and_gaps_on_lanes_equal_lone_calls(self, seed, frac, lanes):
        rng = np.random.default_rng(seed)
        drawn, drawn_tau_s = random_ntrajectory(rng, int(np.prod(lanes)), 128)
        grid = drawn.grid
        nhat = drawn.nhat.reshape(lanes + drawn.nhat.shape[1:])
        ntraj = NTrajectory(grid=grid, nhat=nhat)
        closed = pi_close_ntrajectory(ntraj)
        assert closed.nhat.shape == nhat.shape
        for tau_s in (drawn_tau_s.reshape(lanes), frac * grid[-1]):
            diag = nogo_diagnostics(ntraj, tau_s)
            diag_pi = nogo_diagnostics(closed, tau_s)
            for idx in np.ndindex(*lanes):
                lone_tau_s = tau_s[idx] if np.ndim(tau_s) else tau_s
                lone = NTrajectory(grid=grid, nhat=nhat[idx])
                lone_closed = pi_close_ntrajectory(lone)
                assert np.array_equal(closed.nhat[idx], lone_closed.nhat)
                for batch, row in ((diag, nogo_diagnostics(lone, lone_tau_s)),
                                   (diag_pi, nogo_diagnostics(lone_closed, lone_tau_s))):
                    assert batch.tsp_gap[idx] == row.tsp_gap
                    assert batch.pi2_gap[idx] == row.pi2_gap
                    assert batch.is_pi_pulse[idx] == row.is_pi_pulse
                assert diag_pi.is_pi_pulse[idx]


class TestSlerp:
    @pytest.mark.parametrize("omega", [0.0, 1e-12, 1e-6, 0.5 * np.pi, np.pi - 1e-6,
                                       np.pi - 1e-12, np.pi])
    def test_degenerate_ends_give_unit_paths_from_a_to_b(self, omega, rng):
        """b = a, b = -a and angles within 1e-12 of either, on several lanes at once,
        including the lanes a = +-x whose perpendicular falls back to a x y."""
        a = rng.normal(size=(6, 3))
        a[:2] = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        perp = np.cross(a, rng.normal(size=3))
        perp /= np.linalg.norm(perp, axis=1, keepdims=True)
        b = np.cos(omega) * a + np.sin(omega) * perp
        if omega == np.pi:
            b = -a                              # exactly antipodal, not cos(pi) a + ...
        s = np.linspace(0.0, 1.0, 33)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = _slerp(a, b, s)
        assert path.shape == (6, 33, 3)
        assert np.all(np.isfinite(path))
        np.testing.assert_allclose(np.linalg.norm(path, axis=-1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(path[:, 0], a, rtol=0, atol=1e-15)
        np.testing.assert_allclose(path[:, -1], b, rtol=0, atol=1e-11)
        # a great circle: equal steps, each turning by omega / 32; near pi the tangent
        # b - (a . b) a carries rounding / sin(omega), ~1e-10 at pi - 1e-6
        steps = np.linalg.norm(np.diff(path, axis=1), axis=-1)
        np.testing.assert_allclose(steps, np.broadcast_to(steps[:, :1], steps.shape),
                                   rtol=1e-6, atol=1e-15)
        assert np.all(steps <= 2.0 * np.sin(omega / 64.0) + 1e-9)


class TestGapProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=_seeds, frac=_fractions)
    def test_gaps_nonnegative_on_random_smooth_paths(self, seed, frac):
        """tsp_gap at tau_s = tau_p and pi2_gap on a pi-closed path stay >= 0,
        on direct sphere paths and on the pulse paths that ``nogo`` samples."""
        rng = np.random.default_rng(seed)
        sphere = _random_smooth_ntrajectory(rng)
        pulse, pulse_tau_s = random_ntrajectory(rng, 1, 256)
        for ntraj, tau_s in ((sphere, frac * sphere.tau_p), (pulse, pulse_tau_s)):
            assert np.all(nogo_diagnostics(ntraj, ntraj.tau_p).tsp_gap >= -NOGO_TOLERANCE)
            closed = pi_close_ntrajectory(ntraj)
            assert np.all(nogo_diagnostics(closed, tau_s).pi2_gap >= -NOGO_TOLERANCE)
