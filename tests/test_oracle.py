import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpulse import oracle
from spinpulse.bath import BathModel, preset_bath
from spinpulse.corrections import eta_operators, evaluate_corrections
from spinpulse.pulses import PulseShape, constant_rotation_pulse, fourier_pulse
from spinpulse.sampling import random_fourier_shape
from spinpulse.su2 import (SIGMA_Z, expm_hermitian, pauli_dot, quaternion_matrix,
                           spectral_norm)
from spinpulse.trajectory import (_build_grid, _frames_on_grid, integrate_axis_angle,
                                  n_trajectory)
from joint_oracles import (bisected, dephasing_identity_defect, f_generator, ideal_pulse,
                           joint_deviation_table, one_shot_deviation, propagate_joint,
                           reconstruct_uf, static_hamiltonian, to_bath_basis)
from su2_oracles import matrix_log_unitary


class TestPropagateJoint:
    def test_zero_coupling_factorizes(self, rng):
        bath = preset_bath("spin-dynamic", coupling=0.0, omega_b=1.3)
        shape = random_fourier_shape(rng, order=2)
        result = propagate_joint(shape, bath, steps=4096)
        traj = integrate_axis_angle(shape, 4096)
        w_tot = traj.unitaries[-1] @ traj.unitaries[0].conj().T
        free = expm_hermitian(bath.h_b, scale=-1.0j * shape.tau_p)
        defect = spectral_norm(result.unitary - np.kron(w_tot, free))
        # slicing error bounded by the attached Richardson estimate
        assert defect < max(1e-8, 10.0 * result.step_error)

    def test_zero_amplitude_gives_static_evolution(self):
        bath = preset_bath("spin-dynamic", coupling=0.7, omega_b=1.0)
        shape = fourier_pulse(0.9, 0.4, 0.0, {"y": [0.0]})
        result = propagate_joint(shape, bath, steps=512)
        h = static_hamiltonian(bath)
        assert spectral_norm(result.unitary - expm_hermitian(h, scale=-1.0j * 0.9)) < 1e-10

    def test_dephasing_defect_equals_deviation_defect(self):
        """With the rotation requirement met, the decomposition defect is
        exactly the deviation from identity of the residual unitary."""
        bath = preset_bath("spin-dephasing", coupling=0.8)
        shape = constant_rotation_pulse(0.3, np.pi)
        err = oracle.decomposition_defects(shape, bath, steps=1024)
        assert err.defect == pytest.approx(err.uf_defect, abs=1e-9)

    def test_step_floor(self, pi_pulse):
        bath = preset_bath("spin-dynamic", coupling=1.0)
        with pytest.raises(ValueError):
            propagate_joint(pi_pulse, bath, steps=128)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            BathModel(np.zeros((17, 17)), np.eye(17), 0.1)

    def test_richardson_estimate_reported(self, pi_pulse):
        bath = preset_bath("spin-dynamic", coupling=1.0)
        result = propagate_joint(pi_pulse, bath, steps=512)
        assert 0.0 <= result.step_error < 1e-4


class TestReconstructUF:
    def test_zero_coupling_gives_identity(self, rng):
        bath = preset_bath("spin-dynamic", coupling=0.0)
        shape = random_fourier_shape(rng, order=2)
        traj = integrate_axis_angle(shape, 4096)
        result = propagate_joint(shape, bath, steps=4096)
        u_f = reconstruct_uf(result.unitary, traj, bath)
        assert spectral_norm(u_f - np.eye(4)) < max(1e-7, 10.0 * result.step_error)

    def test_two_routes_agree(self, pi_pulse, dynamic_bath):
        shape = pi_pulse.rescaled(0.05)
        traj = integrate_axis_angle(shape, 2048)
        u_p = propagate_joint(shape, dynamic_bath, steps=4096).unitary
        uf_sliced = reconstruct_uf(u_p, traj, dynamic_bath)
        uf_generator, _ = oracle.integrate_deviation(shape, dynamic_bath, steps=1024)
        assert spectral_norm(uf_sliced - uf_generator) < 1e-7

    def test_piecewise_pulse_with_off_grid_boundaries(self, dynamic_bath):
        """Stages never sample across a boundary, so the routes agree closely."""
        rng = np.random.default_rng(5)
        shape = PulseShape(1.0, 0.4321, np.pi, "piecewise_constant",
                           boundaries=np.array([0.0, 0.1234, 0.377, 0.6181, 0.8093, 1.0]),
                           values=rng.uniform(-3.0, 3.0, (5, 3)))
        uf_generator, traj = oracle.integrate_deviation(shape, dynamic_bath, steps=1024)
        u_p = propagate_joint(shape, dynamic_bath, steps=4096).unitary
        uf_sliced = reconstruct_uf(u_p, traj, dynamic_bath)
        assert spectral_norm(uf_sliced - uf_generator) < 1e-10

    def test_first_order_norm_matches_residual(self, dynamic_bath):
        """||U_F - I|| tracks lambda ||A|| |r1| for short pulses."""
        shape = constant_rotation_pulse(0.01, np.pi)
        u_f, traj = oracle.integrate_deviation(shape, dynamic_bath, steps=1024)
        report = evaluate_corrections(n_trajectory(traj), traj.tau_s)
        expected = dynamic_bath.coupling * np.linalg.norm(report.r1)
        measured = spectral_norm(u_f - np.eye(4))
        assert measured == pytest.approx(expected, rel=0.05)

    def test_unitarity_of_everything(self, pi_pulse, dynamic_bath):
        u_p = propagate_joint(pi_pulse, dynamic_bath, steps=512).unitary
        traj = integrate_axis_angle(pi_pulse, 512)
        u_f = reconstruct_uf(u_p, traj, dynamic_bath)
        for u in (u_p, u_f):
            assert spectral_norm(u.conj().T @ u - np.eye(4)) < 1e-9


class TestDeviationOrder:
    def test_rk4_order_with_off_grid_splitting_instant(self, rng, dynamic_bath):
        shape = random_fourier_shape(rng, order=4, tau_s=0.3337)
        u = [oracle.integrate_deviation(shape, dynamic_bath, steps=n)[0]
             for n in (512, 1024, 2048)]
        order = np.log2(spectral_norm(u[0] - u[1]) / spectral_norm(u[1] - u[2]))
        assert order >= 3.8


def _random_bath(rng, dim: int, coupling: float) -> BathModel:
    h_b, a = (m + m.conj().T for m in rng.normal(size=(2, dim, dim))
              + 1.0j * rng.normal(size=(2, dim, dim)))
    return BathModel(h_b, a / spectral_norm(a), coupling)


class TestStepChunks:
    # the one-shot reference holds every step matrix at once, ~40 kB per step at dim 8
    @pytest.mark.parametrize("dim, steps", [(dim, steps) for dim in (1, 3, 8, 16)
                                            for steps in (64, 100, 2000, 5000)
                                            if dim * steps <= 16000])
    @pytest.mark.parametrize("kind", ("fourier", "piecewise"))
    def test_chunked_product_equals_one_shot(self, dim, steps, kind):
        """Power-of-two chunks are whole subtrees of the one-shot pairwise product,
        also below one chunk, with a partial last chunk and, at dim 16's chunks of
        16 steps, through several levels of the running fold."""
        rng = np.random.default_rng(dim * 7919 + steps)
        if kind == "fourier":
            shape = random_fourier_shape(rng, order=3, tau_s=0.3337)
        else:
            shape = PulseShape(1.0, 0.4321, np.pi, "piecewise_constant",
                               boundaries=np.array([0.0, 0.1234, 0.377, 0.6181, 1.0]),
                               values=rng.uniform(-3.0, 3.0, (4, 3)))
        bath = _random_bath(rng, dim, 0.6)
        u_f, _ = oracle.integrate_deviation(shape, bath, steps=steps)
        assert np.array_equal(u_f, one_shot_deviation(shape, bath, steps))

    def test_peak_memory_does_not_grow_with_steps(self, rng):
        """Beyond the frame integrator's own transient on the bisected grid, the
        oracle holds a few step tables of TABLE_BYTES at any step count."""
        shape = random_fourier_shape(rng, order=3)
        for dim in (8, 16):
            bath = _random_bath(rng, dim, 0.6)
            oracle.integrate_deviation(shape, bath, steps=64)     # lazy set-up off the record
            for steps in (1024, 8192):
                fine = bisected(_build_grid(shape, steps))
                peaks = []
                for run in (lambda: _frames_on_grid(shape, fine),
                            lambda: oracle.integrate_deviation(shape, bath, steps=steps)):
                    tracemalloc.start()
                    try:
                        run()
                        peaks.append(tracemalloc.get_traced_memory()[1])
                    finally:
                        tracemalloc.stop()
                assert peaks[1] - peaks[0] <= 12 * oracle.TABLE_BYTES, (dim, steps)


class TestDeviationGenerator:
    def test_zero_coupling(self, pi_pulse):
        bath = preset_bath("spin-dynamic", coupling=0.0)
        f = f_generator(pi_pulse, bath, 0.3)
        assert spectral_norm(f) < 1e-15

    def test_vanishes_at_splitting_instant(self, pi_pulse, dynamic_bath):
        f = f_generator(pi_pulse, dynamic_bath, pi_pulse.tau_s)
        assert spectral_norm(f) < 1e-12

    def test_hermitian(self, rng, dynamic_bath):
        shape = random_fourier_shape(rng, order=2)
        f = f_generator(shape, dynamic_bath, 0.8)
        assert spectral_norm(f - f.conj().T) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from((1, 2, 5, 8, 16)), coupling=st.floats(0.05, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_block_form_equals_joint_space(self, dim, coupling, seed):
        """F from the bath's sigma_z blocks, exactly Hermitian as computed in the
        eigenbasis of H+, equals F formed in the full joint space, with v_z in the
        amplitudes, once taken back to the bath's basis."""
        rng = np.random.default_rng(seed)
        bath = _random_bath(rng, dim, coupling)
        t = rng.uniform(0.0, 2.0, 24)
        tau_s = rng.uniform(0.0, 2.0)
        q = rng.normal(size=(24, 4))
        w = quaternion_matrix(q / np.linalg.norm(q, axis=1, keepdims=True))
        v = rng.normal(scale=5.0, size=(24, 3))
        turns, v_plus = oracle._coupling_turns(bath)
        f = oracle._deviation_table(turns(t - tau_s), w, v)
        ref = joint_deviation_table(bath, t, tau_s, w, v)
        assert np.array_equal(f, f.conj().transpose(0, 2, 1))
        assert np.abs(to_bath_basis(f, v_plus) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_leading_series_term(self, dynamic_bath):
        """F(t) = -lambda dt dSz(t) (x) A + O(dt^2) near the splitting instant."""
        shape = constant_rotation_pulse(1.0, np.pi)
        dt = 1e-3 * shape.tau_p
        t = shape.tau_s + dt
        f = f_generator(shape, dynamic_bath, t, steps=2048)
        # dSz at t from the n-trajectory derivative
        traj = integrate_axis_angle(shape, 4096)
        ntraj = n_trajectory(traj)
        j = int(np.argmin(np.abs(traj.grid - t)))
        dn = (ntraj.nhat[j + 1] - ntraj.nhat[j - 1]) / (traj.grid[j + 1] - traj.grid[j - 1])
        leading = -dynamic_bath.coupling * dt * np.kron(pauli_dot(dn), dynamic_bath.a)
        scale = spectral_norm(leading)
        assert spectral_norm(f - leading) < 0.02 * scale


class TestMagnusConsistency:
    def test_needs_four_points(self, pi_pulse, dynamic_bath):
        with pytest.raises(ValueError):
            oracle.magnus_consistency(pi_pulse, dynamic_bath, [0.01, 0.1])

    def test_generator_log_matches_eta_sum(self, dynamic_bath):
        """log(U_F) approaches -i(eta1 + eta2) at third order in duration."""
        shape = constant_rotation_pulse(1.0, np.pi)
        taus = np.geomspace(3e-3, 3e-2, 4)
        defects = []
        for tau_p in taus:
            scaled = shape.rescaled(tau_p)
            u_f, traj = oracle.integrate_deviation(scaled, dynamic_bath, steps=1024)
            ntraj = n_trajectory(traj)
            report = evaluate_corrections(ntraj, traj.tau_s)
            e1, e2a, e2b = eta_operators(report, dynamic_bath)
            gen = matrix_log_unitary(u_f)
            defects.append(spectral_norm(gen + 1.0j * (e1 + e2a + e2b)))
        slope, _ = oracle.fit_loglog_slope(taus, defects)
        assert slope == pytest.approx(3.0, abs=0.2)

    def test_dephasing_identity_regression(self):
        for tau_p in np.geomspace(1e-3, 1.0, 7):
            assert dephasing_identity_defect(0.7, tau_p) <= 1e-8


def test_ideal_pulse_convention():
    p = ideal_pulse(np.pi)
    assert np.allclose(p, 1j * np.array([[0, -1j], [1j, 0]]))  # i sigma_y
    # a pi rotation about y inverts z
    assert np.allclose(p @ SIGMA_Z @ p.conj().T, -SIGMA_Z, atol=1e-12)
    half = ideal_pulse(np.pi / 2)
    z_flip = half @ SIGMA_Z @ half.conj().T
    assert np.allclose(z_flip, pauli_dot([-1.0, 0.0, 0.0]), atol=1e-12)
