from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import make_interp_spline

from spinpulse import su2
from spinpulse.corrections import SimpsonRule, correction_residuals, nogo_diagnostics
from spinpulse.design import _rotation_residual
from spinpulse.oracle import SIGMA_Z, quaternion_matrix
from spinpulse.pulses import (FourierCoefficients, PulseShape, constant_rotation_pulse,
                              fourier_pulse)
from spinpulse.sampling import random_fourier_shape, random_ntrajectory
from spinpulse.trajectory import (AXIS_FLOOR, _bootstrap_axis, _build_grid, _cuts,
                                  _frame_quaternions, _prefix_products, _rk4_steps,
                                  _span_derivative, _stage_amplitudes, _unwrap_frames,
                                  amplitude_from_axis_angle, axis_angle,
                                  integrate_axis_angle, n_trajectory)
from su2_oracles import (PAULI, axis_angle_exponential, pauli_conjugate,
                         rk4_polynomial, rk4_stage_recurrence, rk4_step_matrices)


def closed_form_frames(shape, traj):
    return np.array([axis_angle_exponential(a, p)
                     for a, p in zip(*axis_angle(shape, traj))])


def generator_matrices(*amplitudes):
    """-i sigma . v for each (n, 3) amplitude array."""
    return tuple(-1.0j * np.tensordot(v, PAULI, axes=(1, 0)) for v in amplitudes)


def generator_quaternions(*amplitudes):
    """The pure quaternions (0, v) of -i sigma . v for each (n, 3) amplitude array."""
    return tuple(np.concatenate([np.zeros((len(v), 1)), v], axis=1) for v in amplitudes)


class TestIntegrateAxisAngle:
    def test_constant_y_pulse(self):
        tau_p = 2.0
        shape = fourier_pulse(tau_p, tau_p / 2, np.pi, {"y": [np.pi / (2 * tau_p)]})
        traj = integrate_axis_angle(shape, 256)
        axis, psi = axis_angle(shape, traj)
        assert np.abs(axis - [0.0, 1.0, 0.0]).max() < 1e-9
        expected = np.pi * (traj.grid - tau_p / 2) / tau_p
        assert np.abs(psi - expected).max() < 1e-9
        assert psi[np.argmin(np.abs(traj.grid - traj.tau_s))] == pytest.approx(0.0, abs=1e-12)

    def test_zero_pulse(self):
        shape = fourier_pulse(1.0, 0.3, 0.0, {"y": [0.0]})
        axis, psi = axis_angle(shape, integrate_axis_angle(shape, 128))
        assert np.abs(psi).max() < 1e-12
        assert np.allclose(axis, [0.0, 0.0, 1.0])

    def test_two_segment_product_oracle(self):
        """End frame equals the closed-form product of the segment exponentials."""
        v1, t1 = np.array([0.7, 0.0, 0.0]), 0.8
        v2, t2 = np.array([0.0, 0.5, 0.2]), 1.2
        shape = PulseShape(2.0, 0.0, np.pi, "piecewise_constant",
                           boundaries=np.array([0.0, t1, t1 + t2]),
                           values=np.stack([v1, v2]))
        traj = integrate_axis_angle(shape, 256)
        u1 = axis_angle_exponential(v1 / np.linalg.norm(v1), 2 * np.linalg.norm(v1) * t1)
        u2 = axis_angle_exponential(v2 / np.linalg.norm(v2), 2 * np.linalg.norm(v2) * t2)
        assert np.linalg.norm(quaternion_matrix(traj.quaternions[-1]) - u2 @ u1) < 1e-8

    def test_frames_match_closed_form(self, rng):
        shape = random_fourier_shape(rng, order=3)
        traj = integrate_axis_angle(shape, 512)
        defect = np.linalg.norm(closed_form_frames(shape, traj)
                                - quaternion_matrix(traj.quaternions), axis=(1, 2))
        assert defect.max() < 1e-8

    def test_minimum_steps_enforced(self, pi_pulse):
        with pytest.raises(ValueError):
            integrate_axis_angle(pi_pulse, 32)

    def test_angle_continuous_through_full_turns(self):
        """A 3 pi sweep passes psi = 2 pi without axis or angle glitches."""
        tau_p = 1.0
        shape = fourier_pulse(tau_p, 0.0, np.pi, {"y": [3 * np.pi / (2 * tau_p)]})
        axis, psi = axis_angle(shape, integrate_axis_angle(shape, 512))
        assert psi[-1] == pytest.approx(3 * np.pi, abs=1e-9)
        assert np.abs(np.diff(psi)).max() < np.pi
        assert np.abs(axis - [0.0, 1.0, 0.0]).max() < 1e-7

    def test_unwrap_fallbacks_at_full_turns(self):
        """A full turn on a node continues the axis from v(t); one held at
        zero amplitude keeps the previous axis."""
        on_node = fourier_pulse(1.0, 0.0, np.pi, {"y": [-2 * np.pi]})
        turn = [0.0, -np.pi / 0.3, 0.0]
        turn_rest_turn = PulseShape(1.0, 0.0, 0.0, "piecewise_constant",
                                    boundaries=np.array([0.0, 0.3, 0.7, 1.0]),
                                    values=np.array([turn, [0.0, 0.0, 0.0], turn]))
        for shape in (on_node, turn_rest_turn):
            axis, psi = axis_angle(shape, integrate_axis_angle(shape, 512))
            assert np.abs(np.sin(0.5 * psi[1:])).min() < 1e-7   # frame = -I on a node
            assert np.abs(np.diff(psi)).max() < np.pi
            assert np.abs(np.diff(axis, axis=0)).max() < 1e-9
            assert np.abs(axis - [0.0, -1.0, 0.0]).max() < 1e-9
            assert psi[-1] == pytest.approx(4 * np.pi, abs=1e-6)

    def test_unwrap_rebuilds_every_resolved_frame(self, rng):
        """On smooth pulses and on piecewise pulses of whole and near-whole
        turns, the node walk gives unit axes, and (axis, psi) rebuilds q at
        every node where |s| exceeds the floor and s did not turn away from
        the previous axis; the turned-away branch is reached.  Angle steps
        stay below pi, and axis_angle returns the walk, on every pulse but
        one whose grid does not resolve the (axis, angle) form."""
        shapes = [random_fourier_shape(rng, order=4, scale=s) for s in (1.0, 4.0)]
        for k in range(24):
            segments = int(rng.integers(2, 6))
            bounds = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.05, 0.95, segments - 1)]))
            axes = rng.normal(size=(segments, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            turns = rng.integers(1, 3, segments) * (1.0 + (k % 2) * rng.normal(scale=1e-4,
                                                                              size=segments))
            values = axes * (np.pi * turns / np.diff(bounds))[:, None]
            if k % 4 == 0:
                values[rng.integers(segments)] = 0.0
            shapes.append(PulseShape(1.0, float(rng.choice([0.0, 1.0, rng.uniform()])), 0.0,
                                     "piecewise_constant", boundaries=bounds, values=values))
        any_turned, unresolved = False, 0
        for shape in shapes:
            traj = integrate_axis_angle(shape, int(rng.choice([128, 256])))
            q, svec = traj.quaternions, traj.quaternions[:, 1:]
            i_s = int(np.argmin(np.abs(traj.grid - shape.tau_s)))
            v_nodes = shape.amplitude(traj.grid)
            scale = float(np.max(np.linalg.norm(v_nodes, axis=1)))
            axis0 = _bootstrap_axis(shape.amplitude(shape.tau_s), scale, svec, i_s)
            psi, axis = _unwrap_frames(v_nodes, q[:, 0], svec, i_s, axis0)
            assert np.abs(np.linalg.norm(axis, axis=1) - 1.0).max() <= 1e-12
            # each node's s meets the previous node's axis along its sweep
            # away from tau_s, the first node the gauge
            prev = np.empty_like(axis)
            prev[i_s], prev[i_s + 1:], prev[:i_s] = axis0, axis[i_s:-1], axis[1:i_s + 1]
            mags = np.linalg.norm(svec, axis=1)
            resolved = mags > AXIS_FLOOR
            turned = resolved & (np.abs(np.sum(svec * prev, axis=1)) <= 0.25 * mags)
            rebuilt = np.column_stack([np.cos(0.5 * psi), np.sin(0.5 * psi)[:, None] * axis])
            assert np.abs(rebuilt - q)[resolved & ~turned].max() <= 1e-12
            any_turned |= bool(turned.any())
            if np.abs(np.diff(psi)).max() < np.pi:
                out = axis_angle(shape, traj)
                assert np.array_equal(out[0], axis) and np.array_equal(out[1], psi)
            else:
                unresolved += 1
                with pytest.raises(ValueError, match="angle steps must stay below pi"):
                    axis_angle(shape, traj)
        assert any_turned
        # a one-turn segment 0.013 long, crossed in four frame steps of 1.57 rad
        assert unresolved <= 1

    def test_axis_gauge_is_v_just_after_tau_s(self):
        """With tau_s just before a segment boundary, the gauge is the first
        segment's v, so the frame at the boundary node and at the node before
        it, both turned about y, rebuild from (axis, psi)."""
        shape = PulseShape(1.0, 0.499, 0.0, "piecewise_constant",
                           boundaries=np.array([0.0, 0.5, 1.0]),
                           values=np.array([[0.0, 2.0, 0.0], [3.0, 0.0, 0.0]]))
        traj = integrate_axis_angle(shape, 256)
        axis, psi = axis_angle(shape, traj)
        rebuilt = np.column_stack([np.cos(0.5 * psi), np.sin(0.5 * psi)[:, None] * axis])
        for t in (0.5, 0.4961):
            i = int(np.argmin(np.abs(traj.grid - t)))
            assert np.linalg.norm(traj.quaternions[i, 1:]) > 1e-3
            assert np.abs(rebuilt[i] - traj.quaternions[i]).max() <= 1e-12
        after = np.searchsorted(traj.grid, 0.5)     # psi grows along +v just after tau_s
        assert psi[after] > 0.0 and np.abs(axis[after] - [0.0, 1.0, 0.0]).max() <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), tau_s=st.sampled_from((0.0, 0.37, 1.0)),
           piecewise=st.booleans(), steps=st.sampled_from((64, 200)))
    def test_batched_lanes_equal_single_shapes(self, seed, tau_s, piecewise, steps):
        """One lane shape carrying shapes that share the breakpoints integrates
        as one batch, bit for bit, each lane with its own tau_s, on a node or off it."""
        rng = np.random.default_rng(seed)
        taus = (tau_s, rng.uniform(), 1.0 - tau_s)
        if piecewise:
            # one breakpoint within a quarter step of tau_s
            inner = np.r_[rng.uniform(0.05, 0.95, 3), min(tau_s + 0.1 / steps, 0.99)]
            bounds = np.concatenate([[0.0], np.sort(inner), [1.0]])
            shapes = [PulseShape(1.0, t, np.pi, "piecewise_constant", boundaries=bounds,
                                 values=rng.normal(scale=4.0, size=(len(bounds) - 1, 3)))
                      for t in taus]
            lanes = replace(shapes[0], tau_s=np.array(taus),
                            values=np.stack([s.values for s in shapes]))
        else:
            shapes = [random_fourier_shape(rng, order=3, scale=3.0, tau_s=t) for t in taus]
            lanes = replace(shapes[0], tau_s=np.array(taus), fourier=FourierCoefficients(
                np.stack([s.fourier.cos for s in shapes]),
                np.stack([s.fourier.sin for s in shapes])))
        t = np.r_[rng.uniform(0.0, 1.0, 7), 0.0, 1.0]
        traj = integrate_axis_angle(lanes, steps)
        nhat = n_trajectory(traj).nhat
        assert traj.quaternions.shape == (3, len(traj.grid), 4)
        for k, shape in enumerate(shapes):
            lone = integrate_axis_angle(shape, steps)
            assert np.array_equal(shape.amplitude(t), lanes.amplitude(t)[k])
            assert np.array_equal(lone.grid, traj.grid)
            assert np.array_equal(lone.quaternions, traj.quaternions[k])
            assert np.array_equal(n_trajectory(lone).nhat, nhat[k])

    def test_convergence_order_is_rk4(self):
        shape = fourier_pulse(1.0, 0.5, np.pi, {"y": [1.0, 0.3]}, {"x": [0.4]})
        end = [quaternion_matrix(integrate_axis_angle(shape, n).quaternions[-1])
               for n in (8192, 64, 128, 256)]
        defects = [np.linalg.norm(w - end[0]) for w in end[1:]]
        for coarse, fine in zip(defects, defects[1:]):
            if fine < 1e-10:
                break
            assert coarse / fine >= 15.0


class TestAmplitudeRoundTrip:
    def test_constant_axis_linear_angle(self):
        tau_p = 2.0
        t = np.linspace(0.0, tau_p, 65)
        shape = PulseShape(tau_p, 0.0, np.pi, "axis_angle_samples",
                           sample_times=t,
                           sample_axes=np.tile([0.0, 1.0, 0.0], (len(t), 1)),
                           sample_angles=np.pi * t / tau_p)
        traj = integrate_axis_angle(shape, 128)
        v = amplitude_from_axis_angle(shape, traj)
        assert np.abs(v - [0.0, np.pi / (2 * tau_p), 0.0]).max() < 1e-8

    def test_zero_angle_any_axis_gives_zero(self):
        t = np.linspace(0.0, 1.0, 65)
        wobble = np.stack([np.sin(0.5 * t), np.cos(0.5 * t), np.zeros_like(t)], axis=1)
        shape = PulseShape(1.0, 0.5, 0.0, "axis_angle_samples",
                           sample_times=t, sample_axes=wobble,
                           sample_angles=np.zeros_like(t))
        assert np.abs(shape.amplitude(t)).max() < 1e-12

    def test_precessing_axis_round_trip(self):
        eps, omega, tau_p = 0.4, 3.0, 1.0
        t = np.linspace(0.0, tau_p, 513)
        axes = np.stack([np.sin(eps) * np.cos(omega * t),
                         np.cos(eps) * np.ones_like(t),
                         np.sin(eps) * np.sin(omega * t)], axis=1)
        shape = PulseShape(tau_p, 0.0, np.pi, "axis_angle_samples",
                           sample_times=t, sample_axes=axes,
                           sample_angles=np.pi * t / tau_p)
        traj = integrate_axis_angle(shape, 1024)
        v_round = amplitude_from_axis_angle(shape, traj)
        v_direct = shape.amplitude(traj.grid)
        scale = np.max(np.linalg.norm(v_direct, axis=1))
        assert np.abs(v_round - v_direct).max() < 1e-6 * scale

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 5))
    def test_round_trip_on_random_smooth_pulses(self, seed, order):
        """amplitude -> frame -> amplitude recovers v(t) on the frame grid."""
        shape = random_fourier_shape(np.random.default_rng(seed), order=order)
        traj = integrate_axis_angle(shape, 1024)
        direct = shape.amplitude(traj.grid)
        scale = max(float(np.max(np.linalg.norm(direct, axis=1))), 1e-300)
        assert np.abs(amplitude_from_axis_angle(shape, traj) - direct).max() <= 1e-6 * scale

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), segments=st.integers(2, 5))
    def test_round_trip_on_random_piecewise_pulses(self, seed, segments):
        """Each span between breakpoints is differentiated on its own, so a
        piecewise pulse round-trips at every node, its breakpoints included."""
        rng = np.random.default_rng(seed)
        tau_p = rng.uniform(0.5, 2.0)
        widths = rng.uniform(0.05, 1.0, segments)
        boundaries = tau_p * np.concatenate([[0.0], np.cumsum(widths) / np.sum(widths)])
        boundaries[-1] = tau_p
        shape = PulseShape(tau_p, rng.uniform(0.0, tau_p), np.pi, "piecewise_constant",
                           boundaries=boundaries,
                           values=3.0 / tau_p * rng.uniform(-1.0, 1.0, (segments, 3)))
        traj = integrate_axis_angle(shape, 1024)
        direct = shape.amplitude(traj.grid)
        scale = float(np.max(np.linalg.norm(direct, axis=1)))
        assert np.abs(amplitude_from_axis_angle(shape, traj) - direct).max() <= 1e-6 * scale

    @pytest.mark.parametrize("steps", [64, 256])
    def test_span_stencil_is_exact_on_polynomials(self, rng, steps):
        """On every span of a grid with breakpoints, 5-node spans included, the
        stencil differentiates each polynomial p of degree at most 6 and below
        the span's node count to 1e-9 of the larger of |p| and |p'|."""
        shape = PulseShape(1.0, 0.5, np.pi, "piecewise_constant",
                           boundaries=np.array([0.0, 0.01, 0.5, 0.52, 1.0]),
                           values=np.ones((4, 3)))
        grid = _build_grid(shape, steps)
        edges = np.searchsorted(grid, _cuts(shape))
        sizes = []
        for a, b in zip(edges, edges[1:]):
            t = grid[a:b + 1]
            sizes.append(len(t))
            for degree in range(min(6, len(t) - 1) + 1):
                coeffs = rng.normal(size=(degree + 1, 4))
                f = np.stack([np.polyval(c, t) for c in coeffs.T], axis=1)
                exact = np.stack([np.polyval(np.polyder(c), t) for c in coeffs.T], axis=1)
                err = np.abs(_span_derivative(f, (grid[b] - grid[a]) / (b - a)) - exact).max()
                assert err <= 1e-9 * max(np.abs(exact).max(), np.abs(f).max()), (a, degree)
        assert min(sizes) == 5

    def test_grid_too_coarse_rejected(self, pi_pulse):
        traj = integrate_axis_angle(pi_pulse, 256)
        from dataclasses import replace
        small = replace(traj, grid=traj.grid[:8], quaternions=traj.quaternions[:8])
        with pytest.raises(ValueError):
            amplitude_from_axis_angle(pi_pulse, small)

    def test_grid_without_the_breakpoints_rejected(self, pi_pulse):
        """The spans come from the pulse's cuts, which must be nodes of the frame's grid."""
        traj = integrate_axis_angle(pi_pulse, 256)
        shape = PulseShape(pi_pulse.tau_p, pi_pulse.tau_s, np.pi, "piecewise_constant",
                           boundaries=np.array([0.0, 1.0 / 3.0, 1.0]) * pi_pulse.tau_p,
                           values=np.ones((2, 3)))
        with pytest.raises(ValueError, match="breakpoints as nodes"):
            amplitude_from_axis_angle(shape, traj)

    def test_projection_identity_along_axis(self, rng):
        """v . a = psi' / 2 pointwise on integrated trajectories."""
        shape = random_fourier_shape(rng, order=4)
        traj = integrate_axis_angle(shape, 1024)
        v = amplitude_from_axis_angle(shape, traj)
        axis, psi = axis_angle(shape, traj)
        dpsi = make_interp_spline(traj.grid, psi, k=5).derivative()(traj.grid)
        err = np.abs(np.sum(v * axis, axis=1) - dpsi / 2.0)
        assert err.max() <= 1e-8 * np.abs(dpsi).max()


class TestNTrajectory:
    def test_constant_axis(self):
        tau_p = 1.0
        t = np.linspace(0.0, tau_p, 129)
        psi = np.pi * t / tau_p
        shape = PulseShape(tau_p, 0.0, np.pi, "axis_angle_samples",
                           sample_times=t,
                           sample_axes=np.tile([0.0, 1.0, 0.0], (len(t), 1)),
                           sample_angles=psi)
        ntraj = n_trajectory(integrate_axis_angle(shape, 128))
        grid_psi = np.pi * ntraj.grid / tau_p
        expected = np.stack([-np.sin(grid_psi), np.zeros_like(grid_psi),
                             np.cos(grid_psi)], axis=1)
        assert np.abs(ntraj.nhat - expected).max() < 1e-9
        # cross-check against the conjugation route at a few nodes
        for j in (0, 40, 128):
            u = axis_angle_exponential([0.0, 1.0, 0.0], grid_psi[j])
            r = pauli_conjugate(u)
            assert np.abs(ntraj.nhat[j] - r.T @ [0.0, 0.0, 1.0]).max() < 1e-8

    def test_zero_angle(self):
        shape = fourier_pulse(1.0, 0.2, 0.0, {"z": [0.0]})
        ntraj = n_trajectory(integrate_axis_angle(shape, 128))
        assert np.abs(ntraj.nhat - [0.0, 0.0, 1.0]).max() < 1e-12

    def test_pi_pulse_endpoint_flip(self, pi_pulse):
        ntraj = n_trajectory(integrate_axis_angle(pi_pulse, 512))
        assert np.linalg.norm(ntraj.nhat[0] + ntraj.nhat[-1]) < 1e-9

    def test_n_is_the_frame_image_of_z(self):
        """n = 1/2 tr(sigma W^dag sigma_z W) at every node of strong, coarsely
        resolved pulses, including nodes where the (axis, angle) form falls
        back to v(t) and does not rebuild the frame."""
        cases = [(198, 2, 5.54, 64)]
        rng = np.random.default_rng(5)
        for _ in range(40):
            cases.append((int(rng.integers(2 ** 31)), int(rng.integers(1, 6)),
                          float(rng.uniform(0.5, 6.0)), int(rng.choice([64, 256, 1024]))))
        for seed, order, scale, steps in cases:
            shape = random_fourier_shape(np.random.default_rng(seed), order=order, scale=scale)
            traj = integrate_axis_angle(shape, steps)
            w = quaternion_matrix(traj.quaternions)
            image = 0.5 * np.einsum("iab,nbc,cd,nda->ni", PAULI,
                                    w.conj().transpose(0, 2, 1), SIGMA_Z, w).real
            assert np.abs(n_trajectory(traj).nhat - image).max() <= 1e-14

    def test_n_owns_its_memory(self, rng):
        """n(t) of a lone frame and of a lane frame is an array of its own, not a
        view that keeps the (..., n, 3, 3) rotations alive."""
        lone = integrate_axis_angle(random_fourier_shape(rng, order=3, scale=3.0), 128)
        lanes, _ = random_ntrajectory(rng, 4, 128)
        assert n_trajectory(lone).nhat.base is None
        assert lanes.nhat.base is None and lanes.nhat.shape == (4, 129, 3)


class TestFrameProperties:
    def test_total_rotation_requirement(self):
        """Frames of a pulse built for angle theta compose to the ideal rotation."""
        for theta in (np.pi, np.pi / 2, 1.3):
            shape = constant_rotation_pulse(1.0, theta)
            traj = integrate_axis_angle(shape, 1024)
            w_start, w_end = quaternion_matrix(traj.quaternions[[0, -1]])
            w_tot = w_end @ w_start.conj().T
            ideal = axis_angle_exponential([0.0, 1.0, 0.0], -theta)
            assert np.linalg.norm(w_tot - ideal) < 1e-7

    def test_backward_branch_adjoint_identity(self, rng):
        """The backward frame's adjoint is the plain forward propagator to tau_s."""
        shape = random_fourier_shape(rng, order=3, tau_s=0.7)
        traj = integrate_axis_angle(shape, 2048)
        j = int(np.argmin(np.abs(traj.grid - 0.2)))
        w_backward = quaternion_matrix(traj.quaternions[j])
        # forward-ordered integration from grid[j] up to tau_s
        grid = np.linspace(traj.grid[j], shape.tau_s, 513)
        g1, g2, g3 = generator_matrices(*_stage_amplitudes(shape, grid))
        mats = rk4_step_matrices(g1, g2, g3, np.diff(grid))
        u = np.eye(2, dtype=complex)
        for m in mats:
            u = m @ u
        assert np.linalg.norm(w_backward.conj().T - u) < 1e-9

    def test_quaternion_rk4_step_matches_matrix_step(self, rng):
        """The step quaternion is the 2x2 RK4 transfer matrix, for either sign of h."""
        grid = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 255)]))
        v1, v2, v3 = (rng.normal(scale=5.0, size=(len(grid) - 1, 3)) for _ in range(3))
        for h in (np.diff(grid), -np.diff(grid)):
            mats = rk4_step_matrices(*generator_matrices(v1, v2, v3), h)
            quats = _rk4_steps(*generator_quaternions(v1, v2, v3), h,
                               su2.quaternion_product, su2.IDENTITY_Q)
            assert np.abs(quaternion_matrix(quats) - mats).max() <= 1e-14

    def test_rk4_steps_are_the_expanded_polynomial(self, rng):
        """The stage recurrence is the degree-4 RK4 polynomial: in the quaternion
        algebra for either sign of h, and on Hermitian 16 x 16 tables F with the
        complex step -i h against the polynomial of -i F with step h."""
        h = np.diff(np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 255)])))
        g = generator_quaternions(*(rng.normal(scale=5.0, size=(len(h), 3)) for _ in range(3)))
        for step in (h, -h):
            expected = rk4_polynomial(*g, step, su2.quaternion_product, su2.IDENTITY_Q)
            steps = _rk4_steps(*g, step, su2.quaternion_product, su2.IDENTITY_Q)
            assert np.abs(steps - expected).max() <= 1e-14 * np.abs(expected).max()
        a = rng.normal(size=(3, 64, 16, 16)) + 1.0j * rng.normal(size=(3, 64, 16, 16))
        f = 0.5 * (a + a.conj().transpose(0, 1, 3, 2))
        h = rng.uniform(0.0, 0.1, 64)
        expected = rk4_step_matrices(*(-1.0j * f), h)
        steps = _rk4_steps(*f, -1.0j * h, np.matmul, np.eye(16))
        assert np.abs(steps - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_in_place_recurrence_rounds_as_the_expression(self, rng):
        """The stage recurrence finished in place rounds as the expression with a
        fresh array per operation, bit for bit: in the quaternion algebra for
        either sign of h, and on complex 16 x 16 tables with the step -i h."""
        h = np.diff(np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 255)])))
        g = generator_quaternions(*(rng.normal(scale=5.0, size=(len(h), 3)) for _ in range(3)))
        for step in (h, -h):
            expected = rk4_stage_recurrence(*g, step, su2.quaternion_product, su2.IDENTITY_Q)
            steps = _rk4_steps(*g, step, su2.quaternion_product, su2.IDENTITY_Q)
            assert np.array_equal(steps, expected)
        a = rng.normal(size=(3, 64, 16, 16)) + 1.0j * rng.normal(size=(3, 64, 16, 16))
        f = 0.5 * (a + a.conj().transpose(0, 1, 3, 2))
        h = -1.0j * rng.uniform(0.0, 0.1, 64)
        expected = rk4_stage_recurrence(*f, h, np.matmul, np.eye(16))
        assert np.array_equal(_rk4_steps(*f, h, np.matmul, np.eye(16)), expected)

    def test_prefix_products_match_sequential_products(self, rng):
        steps = rng.normal(size=(300, 4))
        steps /= np.linalg.norm(steps, axis=1, keepdims=True)
        expected = [steps[0]]
        for q in steps[1:]:
            expected.append(su2.quaternion_product(q, expected[-1]))
        assert np.abs(_prefix_products(steps) - np.array(expected)).max() <= 1e-13

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           tau_s=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
           piecewise=st.booleans(), steps=st.sampled_from((64, 200)))
    def test_frame_is_the_forward_product_rebased_at_tau_s(self, seed, tau_s, piecewise,
                                                            steps):
        """W(t) = U(t, 0) U(tau_s, 0)^dag, with U the sequential RK4 product from
        t = 0 and U(tau_s, 0) its cubic Hermite interpolant, U' = G U, between
        the nodes around tau_s."""
        rng = np.random.default_rng(seed)
        if piecewise:
            bounds = np.r_[0.0, np.sort(rng.uniform(0.05, 0.95, 3)), 1.0]
            shape = PulseShape(1.0, tau_s, np.pi, "piecewise_constant", boundaries=bounds,
                               values=rng.normal(scale=4.0, size=(len(bounds) - 1, 3)))
        else:
            shape = random_fourier_shape(rng, order=3, scale=3.0, tau_s=tau_s)
        traj = integrate_axis_angle(shape, steps)
        g1, g2, g3 = generator_matrices(*_stage_amplitudes(shape, traj.grid))
        u = [np.eye(2, dtype=complex)]
        for m in rk4_step_matrices(g1, g2, g3, np.diff(traj.grid)):
            u.append(m @ u[-1])
        j = min(int(np.searchsorted(traj.grid, tau_s, side="right")) - 1, len(u) - 2)
        h = traj.grid[j + 1] - traj.grid[j]
        x = (tau_s - traj.grid[j]) / h
        u_s = ((2 * x ** 3 - 3 * x ** 2 + 1) * u[j] + (3 * x ** 2 - 2 * x ** 3) * u[j + 1]
               + h * (x * (1 - x) ** 2 * g1[j] @ u[j] - x ** 2 * (1 - x) * g3[j] @ u[j + 1]))
        w = np.array(u) @ u_s.conj().T
        # each RK4 step is a real multiple of a unitary; the frame is normalised
        w /= np.linalg.norm(w, axis=(1, 2), keepdims=True) / np.sqrt(2.0)
        assert np.abs(quaternion_matrix(traj.quaternions) - w).max() <= 1e-12
        assert traj.tau_s == tau_s
        if tau_s in traj.grid:
            assert np.array_equal(quaternion_matrix(traj.quaternions[traj.grid == tau_s][0]),
                                  np.eye(2))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), piecewise=st.booleans(),
           steps=st.sampled_from((64, 200)))
    def test_the_anchor_is_a_gauge(self, seed, piecewise, steps):
        """Frames anchored at two tau_s, one on a node and one off, differ by one
        constant right factor, and nothing read from them differs beyond
        rounding: the residual norms and both gaps at either tau_s, and the
        rotation residual."""
        rng = np.random.default_rng(seed)
        if piecewise:
            bounds = np.r_[0.0, np.sort(rng.uniform(0.05, 0.95, 3)), 1.0]
            shape = PulseShape(1.0, 0.0, np.pi, "piecewise_constant", boundaries=bounds,
                               values=rng.normal(scale=4.0, size=(len(bounds) - 1, 3)))
        else:
            shape = random_fourier_shape(rng, order=3, scale=3.0, tau_s=0.0)
        grid = _build_grid(shape, steps)
        taus = (float(grid[rng.integers(len(grid))]), float(rng.uniform()))
        assert taus[1] not in grid
        trajs = [integrate_axis_angle(replace(shape, tau_s=t), steps) for t in taus]
        a, b = (traj.quaternions for traj in trajs)
        right = su2.quaternion_product(a * [1.0, -1.0, -1.0, -1.0], b)
        assert np.abs(right - right[0]).max() <= 1e-12
        nhats = [n_trajectory(traj) for traj in trajs]
        quad = SimpsonRule(grid)
        for tau_s in taus:
            norms = [np.linalg.norm(correction_residuals(quad, n.nhat, tau_s), axis=-1)
                     for n in nhats]
            assert np.abs(norms[0] - norms[1]).max() <= 1e-12
            gaps = [nogo_diagnostics(n, tau_s) for n in nhats]
            assert abs(gaps[0].tsp_gap - gaps[1].tsp_gap) <= 1e-12
            assert abs(gaps[0].pi2_gap - gaps[1].pi2_gap) <= 1e-12
        rotation = [np.linalg.norm(_rotation_residual(q, np.pi)) for q in (a, b)]
        assert abs(rotation[0] - rotation[1]) <= 1e-12

    def test_off_node_anchor_keeps_fourth_order(self):
        """With tau_s between nodes, every node's frame still converges at
        fourth order: the Hermite anchor is as accurate as the RK4 steps."""
        shape = random_fourier_shape(np.random.default_rng(1), order=4, scale=3.0,
                                     tau_s=0.3337)
        reference = integrate_axis_angle(shape, 8192).quaternions
        coarse, fine = (np.abs(integrate_axis_angle(shape, n).quaternions
                               - reference[::8192 // n]).max() for n in (64, 256))
        assert coarse / fine >= 100.0

    def test_frame_guard(self, pi_pulse):
        """Frames must be unit quaternions, each step turning by less than pi."""
        traj = integrate_axis_angle(pi_pulse, 256)
        flipped = traj.quaternions.copy()
        flipped[100] *= -1.0
        with pytest.raises(ValueError, match="less than pi"):
            replace(traj, quaternions=flipped)
        with pytest.raises(ValueError, match="unit quaternions"):
            replace(traj, quaternions=1.01 * traj.quaternions)

    def test_guards_reject_nan(self, pi_pulse):
        """NaN fails every check: a frame row, an n(t) row or a grid node."""
        traj = integrate_axis_angle(pi_pulse, 256)
        ntraj = n_trajectory(traj)
        q, nhat, grid = traj.quaternions.copy(), ntraj.nhat.copy(), traj.grid.copy()
        q[100] = nhat[100] = grid[100] = np.nan
        with pytest.raises(ValueError, match="unit quaternions"):
            replace(traj, quaternions=q)
        with pytest.raises(ValueError, match="unit vectors"):
            replace(ntraj, nhat=nhat)
        with pytest.raises(ValueError, match="strictly increasing"):
            replace(traj, grid=grid)
        with pytest.raises(ValueError, match="strictly increasing"):
            replace(ntraj, grid=grid)

    def test_pinned_times_never_displace_each_other(self):
        """A breakpoint within a quarter step of tau_s is a node, and the frame is
        the identity at the exact tau_s, which lies between two nodes."""
        boundary = 0.5 + 0.1 / 1024
        shape = PulseShape(1.0, 0.5, np.pi, "piecewise_constant",
                           boundaries=np.array([0.0, boundary, 1.0]),
                           values=np.array([[0.0, -np.pi / 2, 0.0], [0.0, -np.pi / 2, 0.0]]))
        traj = integrate_axis_angle(shape, 1024)
        assert traj.tau_s == shape.tau_s
        assert boundary in traj.grid and shape.tau_s not in traj.grid
        # W(t) = exp(i sigma_y pi (t - tau_s) / 2): q = (cos, 0, -sin, 0) of pi (t - tau_s) / 2
        half = 0.5 * np.pi * (traj.grid - shape.tau_s)
        zero = np.zeros_like(half)
        exact = np.column_stack([np.cos(half), zero, -np.sin(half), zero])
        assert np.abs(traj.quaternions - exact).max() <= 1e-12


class TestGridRule:
    @settings(max_examples=80, deadline=None)
    @given(tau_s=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
           free=st.lists(st.floats(0.01, 0.99), max_size=5),
           near=st.lists(st.floats(-1.0, 1.0), max_size=3),
           steps=st.sampled_from((64, 200, 512)))
    @example(tau_s=0.0, free=[], near=[1e-09, 1.7419877371323957e-10], steps=64)
    def test_every_cut_starts_a_uniform_span(self, tau_s, free, near, steps):
        """Cuts sit at node indices divisible by 4, between them the grid is
        uniform, and there are at least ``steps`` intervals.  Breakpoints
        within a quarter step of each other included; one within 1e-12 tau_p
        of the last kept cut merges into it, and tau_p replaces the last kept
        cut.  tau_s is no cut: a shape differing only in tau_s has the same
        grid bit for bit."""
        quarter = 0.25 / steps
        inner = [t for t in (*free, *(tau_s + d * quarter for d in near),
                             *(free[0] + d * quarter for d in near[:1] if free))
                 if 0.0 < t < 1.0]
        bounds = np.unique(np.r_[0.0, inner, 1.0])
        shape = PulseShape(1.0, tau_s, np.pi, "piecewise_constant", boundaries=bounds,
                           values=np.zeros((len(bounds) - 1, 3)))
        grid = _build_grid(shape, steps)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0.0)
        assert len(grid) - 1 >= steps
        assert np.array_equal(_build_grid(replace(shape, tau_s=0.5 * tau_s + 0.25), steps), grid)
        cuts = [0.0]
        for t in bounds[1:]:
            if t - cuts[-1] > 1e-12:
                cuts.append(t)
        cuts[-1] = 1.0
        nodes = np.searchsorted(grid, cuts)
        assert np.array_equal(grid[nodes], cuts)
        for t in bounds:
            assert np.abs(grid - t).min() <= 1e-11
            assert np.abs(grid[nodes] - t).min() <= 1e-12
        for j0, j1 in zip(nodes, nodes[1:]):
            assert j0 % 4 == 0 and j1 % 4 == 0
            assert np.ptp(np.diff(grid[j0:j1 + 1])) <= 1e-14

    @pytest.mark.parametrize("steps", [1024, 2048])
    def test_rescaled_spans_keep_their_step_counts(self, steps):
        """A span whose share of the steps is a multiple of 4 gets that share at
        every tau_p: the span counts read only the dimensionless spans."""
        shape = PulseShape(1.0, 0.4321, np.pi, "piecewise_constant",
                           boundaries=np.array([0.0, 0.25, 0.75, 1.0]),
                           values=np.ones((3, 3)))
        for tau_p in np.geomspace(1e-3, 1e-1, 6):
            rescaled = shape.rescaled(tau_p)
            grid = _build_grid(rescaled, steps)
            assert len(grid) - 1 == steps
            assert np.array_equal(np.searchsorted(grid, _cuts(rescaled)),
                                  [0, steps // 4, 3 * steps // 4, steps])

    @pytest.mark.parametrize("steps", [64, 200, 512, 2048])
    def test_cuts_on_uniform_nodes_keep_the_uniform_grid(self, steps):
        """A split at tau_p / 2 gives np.linspace bit for bit, at any duration."""
        for tau_p in (1.0, *np.geomspace(1e-3, 1e-1, 6)):
            shape = fourier_pulse(tau_p, 0.5 * tau_p, np.pi, {"y": [1.0]}, {})
            assert np.array_equal(_build_grid(shape, steps),
                                  np.linspace(0.0, tau_p, steps + 1))
