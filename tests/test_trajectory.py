import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

from spinpulse import su2
from spinpulse.pulses import PulseShape, constant_rotation_pulse, fourier_pulse
from spinpulse.sampling import random_fourier_shape
from spinpulse.trajectory import (amplitude_from_axis_angle, integrate_axis_angle,
                                  n_trajectory)


def closed_form_frames(traj):
    return np.array([su2.axis_angle_exponential(a, p)
                     for a, p in zip(traj.axis, traj.angle)])


class TestIntegrateAxisAngle:
    def test_constant_y_pulse(self):
        tau_p = 2.0
        shape = fourier_pulse(tau_p, tau_p / 2, np.pi, {"y": [np.pi / (2 * tau_p)]})
        traj = integrate_axis_angle(shape, 256)
        assert np.abs(traj.axis - [0.0, 1.0, 0.0]).max() < 1e-9
        expected = np.pi * (traj.grid - tau_p / 2) / tau_p
        assert np.abs(traj.angle - expected).max() < 1e-9
        assert traj.angle[np.argmin(np.abs(traj.grid - traj.tau_s))] == pytest.approx(0.0, abs=1e-12)

    def test_zero_pulse(self):
        shape = fourier_pulse(1.0, 0.3, 0.0, {"y": [0.0]})
        traj = integrate_axis_angle(shape, 128)
        assert np.abs(traj.angle).max() < 1e-12
        assert np.allclose(traj.axis, [0.0, 0.0, 1.0])

    def test_two_segment_product_oracle(self):
        """End frame equals the closed-form product of the segment exponentials."""
        v1, t1 = np.array([0.7, 0.0, 0.0]), 0.8
        v2, t2 = np.array([0.0, 0.5, 0.2]), 1.2
        shape = PulseShape(2.0, 0.0, np.pi, "piecewise_constant",
                           boundaries=np.array([0.0, t1, t1 + t2]),
                           values=np.stack([v1, v2]))
        traj = integrate_axis_angle(shape, 256)
        u1 = su2.axis_angle_exponential(v1 / np.linalg.norm(v1), 2 * np.linalg.norm(v1) * t1)
        u2 = su2.axis_angle_exponential(v2 / np.linalg.norm(v2), 2 * np.linalg.norm(v2) * t2)
        assert np.linalg.norm(traj.unitaries[-1] - u2 @ u1) < 1e-8

    def test_frames_match_closed_form(self, rng):
        shape = random_fourier_shape(rng, order=3)
        traj = integrate_axis_angle(shape, 512)
        defect = np.linalg.norm(closed_form_frames(traj) - traj.unitaries, axis=(1, 2))
        assert defect.max() < 1e-8

    def test_minimum_steps_enforced(self, pi_pulse):
        with pytest.raises(ValueError):
            integrate_axis_angle(pi_pulse, 32)

    def test_angle_continuous_through_full_turns(self):
        """A 3 pi sweep passes psi = 2 pi without axis or angle glitches."""
        tau_p = 1.0
        shape = fourier_pulse(tau_p, 0.0, np.pi, {"y": [3 * np.pi / (2 * tau_p)]})
        traj = integrate_axis_angle(shape, 512)
        assert traj.angle[-1] == pytest.approx(3 * np.pi, abs=1e-9)
        assert np.abs(np.diff(traj.angle)).max() < np.pi
        assert np.abs(traj.axis - [0.0, 1.0, 0.0]).max() < 1e-7

    def test_convergence_order_is_rk4(self):
        shape = fourier_pulse(1.0, 0.5, np.pi, {"y": [1.0, 0.3]}, {"x": [0.4]})
        reference = integrate_axis_angle(shape, 8192).unitaries[-1]
        defects = [np.linalg.norm(integrate_axis_angle(shape, n).unitaries[-1] - reference)
                   for n in (64, 128, 256)]
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
        v = amplitude_from_axis_angle(traj)
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
        v_round = amplitude_from_axis_angle(traj)
        v_direct = shape.amplitude(traj.grid)
        scale = np.max(np.linalg.norm(v_direct, axis=1))
        assert np.abs(v_round - v_direct).max() < 1e-6 * scale

    def test_grid_too_coarse_rejected(self, pi_pulse):
        traj = integrate_axis_angle(pi_pulse, 256)
        from dataclasses import replace
        small = replace(traj, grid=traj.grid[:8], axis=traj.axis[:8],
                        angle=traj.angle[:8], unitaries=traj.unitaries[:8])
        with pytest.raises(ValueError):
            amplitude_from_axis_angle(small)

    def test_projection_identity_along_axis(self, rng):
        """v . a = psi' / 2 pointwise on integrated trajectories."""
        shape = random_fourier_shape(rng, order=4)
        traj = integrate_axis_angle(shape, 1024)
        v = amplitude_from_axis_angle(traj)
        dpsi = make_interp_spline(traj.grid, traj.angle, k=5).derivative()(traj.grid)
        err = np.abs(np.sum(v * traj.axis, axis=1) - dpsi / 2.0)
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
            u = su2.axis_angle_exponential([0.0, 1.0, 0.0], grid_psi[j])
            r = su2.pauli_conjugate(u)
            assert np.abs(ntraj.nhat[j] - r.T @ [0.0, 0.0, 1.0]).max() < 1e-8

    def test_zero_angle(self):
        shape = fourier_pulse(1.0, 0.2, 0.0, {"z": [0.0]})
        ntraj = n_trajectory(integrate_axis_angle(shape, 128))
        assert np.abs(ntraj.nhat - [0.0, 0.0, 1.0]).max() < 1e-12

    def test_pi_pulse_endpoint_flip(self, pi_pulse):
        ntraj = n_trajectory(integrate_axis_angle(pi_pulse, 512))
        assert np.linalg.norm(ntraj.nhat[0] + ntraj.nhat[-1]) < 1e-9


class TestFrameProperties:
    def test_total_rotation_requirement(self):
        """Frames of a pulse built for angle theta compose to the ideal rotation."""
        for theta in (np.pi, np.pi / 2, 1.3):
            shape = constant_rotation_pulse(1.0, theta)
            traj = integrate_axis_angle(shape, 1024)
            w_tot = traj.unitaries[-1] @ traj.unitaries[0].conj().T
            ideal = su2.axis_angle_exponential([0.0, 1.0, 0.0], -theta)
            assert np.linalg.norm(w_tot - ideal) < 1e-7

    def test_backward_branch_adjoint_identity(self, rng):
        """The backward frame's adjoint is the plain forward propagator to tau_s."""
        from spinpulse.trajectory import _generator_table, _rk4_step_matrices
        shape = random_fourier_shape(rng, order=3, tau_s=0.7)
        traj = integrate_axis_angle(shape, 2048)
        j = int(np.argmin(np.abs(traj.grid - 0.2)))
        w_backward = traj.unitaries[j]
        # forward-ordered integration from grid[j] up to tau_s
        grid = np.linspace(traj.grid[j], shape.tau_s, 513)
        g1, g2, g3 = _generator_table(shape, grid)
        mats = _rk4_step_matrices(g1, g2, g3, np.diff(grid))
        u = np.eye(2, dtype=complex)
        for m in mats:
            u = m @ u
        assert np.linalg.norm(w_backward.conj().T - u) < 1e-9

    def test_pinned_times_never_displace_each_other(self):
        """A breakpoint within a quarter step of tau_s is inserted beside it."""
        boundary = 0.5 + 0.1 / 1024
        shape = PulseShape(1.0, 0.5, np.pi, "piecewise_constant",
                           boundaries=np.array([0.0, boundary, 1.0]),
                           values=np.array([[0.0, -np.pi / 2, 0.0], [0.0, -np.pi / 2, 0.0]]))
        traj = integrate_axis_angle(shape, 1024)
        assert traj.tau_s == shape.tau_s
        assert shape.tau_s in traj.grid and boundary in traj.grid
        assert np.array_equal(traj.unitaries[traj.grid == shape.tau_s][0], np.eye(2))
