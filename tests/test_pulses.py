import pickle

import numpy as np
import pytest

from spinpulse.fileio import parse_pulse
from spinpulse.pulses import (FourierCoefficients, PulseShape,
                              constant_rotation_pulse, fourier_pulse)


def test_constant_fourier_term():
    tau_p = 2.0
    shape = fourier_pulse(tau_p, 1.0, np.pi, {"y": [np.pi / (2 * tau_p)]})
    for t in (0.0, 0.3, 1.7, tau_p):
        assert np.allclose(shape.amplitude(t), [0.0, np.pi / (2 * tau_p), 0.0])


def test_piecewise_segment_lookup():
    tau_p = 1.0
    shape = PulseShape(tau_p, 0.5, np.pi, "piecewise_constant",
                       boundaries=np.array([0.0, 0.5, 1.0]),
                       values=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert np.allclose(shape.amplitude(0.6 * tau_p), [0.0, 1.0, 0.0])
    assert np.allclose(shape.amplitude(0.0), [1.0, 0.0, 0.0])
    # boundary belongs to the right segment, last segment is closed
    assert np.allclose(shape.amplitude(0.5), [0.0, 1.0, 0.0])
    assert np.allclose(shape.amplitude(1.0), [0.0, 1.0, 0.0])


def test_axis_angle_samples_amplitude_matches_finite_differences():
    tau_p = 1.5
    t = np.linspace(0.0, tau_p, 257)
    axes = np.tile([0.0, 1.0, 0.0], (len(t), 1))
    shape = PulseShape(tau_p, 0.5, np.pi, "axis_angle_samples",
                       sample_times=t, sample_axes=axes,
                       sample_angles=np.pi * t / tau_p)
    v = shape.amplitude(t)
    assert np.abs(v - [0.0, np.pi / (2 * tau_p), 0.0]).max() < 1e-9
    # finite-difference cross-check of psi'/2 along the axis
    h = 1e-5
    mid = 0.4 * tau_p
    fd = (np.pi * (mid + h) / tau_p - np.pi * (mid - h) / tau_p) / (2 * h) / 2
    assert abs(shape.amplitude(mid)[1] - fd) < 1e-8


@pytest.mark.parametrize("turns", [0.5, 1.0, 2.0])
def test_two_sample_file_keeps_whole_turns(turns):
    # samples 0 and 2 pi turns of psi about y: the frame q is the same at 2 and
    # 4 pi, so only the splined angle knows how far the pulse turns
    psi_end = 2.0 * np.pi * turns
    shape = parse_pulse("schema_version = 1\nkind = pulse\n"
                        "representation = axis_angle_samples\n"
                        "tau_p = 1\ntau_s = 0.5\ntheta = 3.14\n"
                        f"sample.0 = 0 0 1 0 0\nsample.1 = 1 0 1 0 {psi_end!r}\n")
    v = shape.amplitude(np.linspace(0.0, 1.0, 101))
    assert np.abs(v - [0.0, psi_end / 2, 0.0]).max() < 1e-12


@pytest.mark.parametrize("psi", [lambda t: 6 * np.pi * t,
                                 lambda t: 5 * np.pi * t + 7 * np.pi * t ** 2])
def test_sparse_fixed_axis_samples_are_exact(psi):
    # a fixed axis and psi of degree <= 5 are reproduced at any sample density,
    # even with psi steps of pi and more between samples
    tau_p = 1.0
    axis = np.array([1.0, -2.0, 2.0]) / 3.0
    times = np.linspace(0.0, tau_p, 4)
    shape = PulseShape(tau_p, 0.5, np.pi, "axis_angle_samples",
                       sample_times=times, sample_axes=np.tile(axis, (len(times), 1)),
                       sample_angles=psi(times))
    t = np.linspace(0.0, tau_p, 201)
    h = 1e-6
    dpsi = (psi(t + h) - psi(t - h)) / (2 * h)
    assert np.abs(shape.amplitude(t) - 0.5 * dpsi[:, None] * axis).max() < 1e-7


def test_time_range_error():
    shape = fourier_pulse(1.0, 0.5, np.pi, {"y": [1.0]})
    with pytest.raises(ValueError):
        shape.amplitude(-0.1)
    with pytest.raises(ValueError):
        shape.amplitude(1.1)


def test_non_finite_amplitude_rejected():
    shape = PulseShape(1.0, 0.5, np.pi, "piecewise_constant",
                       boundaries=np.array([0.0, 1.0]),
                       values=np.array([[np.inf, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        shape.amplitude(0.5)


def test_shape_validation():
    with pytest.raises(ValueError):
        PulseShape(-1.0, 0.0, np.pi, "fourier", fourier=FourierCoefficients.zeros(1))
    with pytest.raises(ValueError):
        PulseShape(1.0, 2.0, np.pi, "fourier", fourier=FourierCoefficients.zeros(1))
    with pytest.raises(ValueError):  # one lane's tau_s outside [0, tau_p]
        PulseShape(1.0, np.array([0.2, 1.5, 0.5]), np.pi, "fourier",
                   fourier=FourierCoefficients.zeros(1, (3,)))
    with pytest.raises(ValueError):  # boundaries not covering [0, tau_p]
        PulseShape(1.0, 0.5, np.pi, "piecewise_constant",
                   boundaries=np.array([0.0, 0.4]), values=np.array([[1.0, 0, 0]]))
    with pytest.raises(ValueError):  # non-unit axis sample
        PulseShape(1.0, 0.5, np.pi, "axis_angle_samples",
                   sample_times=np.array([0.0, 1.0]),
                   sample_axes=np.array([[0.0, 2.0, 0.0], [0.0, 1.0, 0.0]]),
                   sample_angles=np.array([0.0, 1.0]))


def test_rescaled_keeps_dimensionless_profile():
    shape = fourier_pulse(1.0, 0.4, np.pi, {"y": [-np.pi / 2, 0.3]}, {"y": [0.1]})
    scaled = shape.rescaled(0.01)
    assert scaled.tau_p == pytest.approx(0.01)
    assert scaled.tau_s == pytest.approx(0.004)
    t_frac = 0.3
    v0 = shape.amplitude(t_frac * shape.tau_p)
    v1 = scaled.amplitude(t_frac * scaled.tau_p)
    assert np.allclose(v1 * scaled.tau_p, v0 * shape.tau_p)


def test_constant_rotation_pulse_mean():
    shape = constant_rotation_pulse(2.0, np.pi)
    assert np.allclose(shape.amplitude(0.7), [0.0, -np.pi / 4.0, 0.0])
    assert shape.amplitude(0.7)[1] == pytest.approx(-np.pi / 4.0)


def test_amplitude_leaves_sampled_shape_unchanged():
    """A sampled shape builds its splines with itself: evaluating it changes no attribute."""
    t = np.linspace(0.0, 1.0, 9)
    axes = np.column_stack([np.sin(t), np.cos(t), np.zeros_like(t)])
    shape = PulseShape(1.0, 0.5, np.pi, "axis_angle_samples",
                       sample_times=t, sample_axes=axes, sample_angles=np.pi * t)
    before = pickle.dumps(shape)
    shape.amplitude(0.3)
    shape.amplitude(np.linspace(0.0, 1.0, 17))
    assert pickle.dumps(shape) == before
