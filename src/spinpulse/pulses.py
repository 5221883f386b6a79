"""Pulse shapes: parameterized control amplitudes v(t) on [0, tau_p].

Three representations are supported:

``fourier``
    v_i(t) = a_i0 + sum_k a_ik cos(2 pi k t / tau_p) + b_ik sin(2 pi k t / tau_p)
    for i in {x, y, z}, k = 1..K.

``piecewise_constant``
    N segments with constant 3-vector amplitude, boundaries strictly
    increasing and covering [0, tau_p] exactly.

``axis_angle_samples``
    A sampled rotation frame (t_j, axis_j, angle_j).  The axis and the angle
    are splined separately, keeping whole turns between samples, and the
    amplitude is :func:`frame_amplitude` of the frame q they give.  The
    splines are scipy's, imported on a sampled pulse's first amplitude call;
    the other representations run on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

COMPONENTS = ("x", "y", "z")

REPRESENTATIONS = ("fourier", "piecewise_constant", "axis_angle_samples")

# spline order for differentiating sampled frames; quintic keeps the
# derivative error ~O(h^5), which the round-trip tolerances require
SPLINE_ORDER = 5
# largest | |x| - 1 | of a vector that counts as unit: sampled axes, frame
# quaternions and n(t)
UNIT_VECTOR_ATOL = 1e-9


@dataclass(frozen=True)
class FourierCoefficients:
    """Per-component cosine/sine coefficients; arrays of shape ([m,] 3, K+1) and ([m,] 3, K)."""

    cos: np.ndarray
    sin: np.ndarray

    @property
    def order(self) -> int:
        return self.sin.shape[-1]

    @staticmethod
    def zeros(order: int, lanes: tuple = ()) -> "FourierCoefficients":
        return FourierCoefficients(np.zeros((*lanes, 3, order + 1)), np.zeros((*lanes, 3, order)))


@dataclass(frozen=True)
class PulseShape:
    tau_p: float
    tau_s: float | np.ndarray                 # or shape (m,) for m lanes
    theta: float
    representation: str
    # fourier
    fourier: FourierCoefficients | None = None
    # piecewise_constant
    boundaries: np.ndarray | None = None      # shape (N+1,)
    values: np.ndarray | None = None          # shape (N, 3), or (m, N, 3) for lanes
    # axis_angle_samples
    sample_times: np.ndarray | None = None    # shape (M,)
    sample_axes: np.ndarray | None = None     # shape (M, 3)
    sample_angles: np.ndarray | None = None   # shape (M,)
    _splines: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not 0 < self.tau_p < np.inf:
            raise ValueError("tau_p must be finite and positive")
        if not np.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if not np.all((0.0 <= self.tau_s) & (self.tau_s <= self.tau_p)):
            raise ValueError("tau_s must lie in [0, tau_p]")
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.representation!r}")
        if self.representation == "fourier":
            if self.fourier is None:
                raise ValueError("fourier representation requires coefficients")
        elif self.representation == "piecewise_constant":
            b = np.asarray(self.boundaries, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if b.ndim != 1 or len(b) < 2 or v.shape != (*np.shape(self.tau_s), len(b) - 1, 3):
                raise ValueError("piecewise shape needs N+1 boundaries and N value rows")
            if np.any(np.diff(b) <= 0):
                raise ValueError("segment boundaries must be strictly increasing")
            if abs(b[0]) > 1e-12 * self.tau_p or abs(b[-1] - self.tau_p) > 1e-12 * self.tau_p:
                raise ValueError("segments must cover [0, tau_p] exactly")
            object.__setattr__(self, "boundaries", b)
            object.__setattr__(self, "values", v)
        else:
            t = np.asarray(self.sample_times, dtype=float)
            ax = np.asarray(self.sample_axes, dtype=float)
            ps = np.asarray(self.sample_angles, dtype=float)
            if t.ndim != 1 or ax.shape != (len(t), 3) or ps.shape != (len(t),):
                raise ValueError("axis-angle samples need matching t, axis, angle arrays")
            for name, value in (("times", t), ("axes", ax), ("angles", ps)):
                if not np.all(np.isfinite(value)):
                    raise ValueError(f"sample {name} must be finite")
            if len(t) < 2 or np.any(np.diff(t) <= 0):
                raise ValueError("sample times must be strictly increasing")
            if abs(t[0]) > 1e-12 * self.tau_p or abs(t[-1] - self.tau_p) > 1e-12 * self.tau_p:
                raise ValueError("samples must cover [0, tau_p]")
            norms = np.linalg.norm(ax, axis=1)
            if np.any(np.abs(norms - 1.0) > UNIT_VECTOR_ATOL):
                raise ValueError("axis samples must be unit vectors")
            object.__setattr__(self, "sample_times", t)
            object.__setattr__(self, "sample_axes", ax)
            object.__setattr__(self, "sample_angles", ps)

    # ------------------------------------------------------------------

    def _sampled_frame(self, t: np.ndarray):
        """q = (cos psi/2, sin psi/2 a) and dq/dt at t from cached quintic splines.

        The angle is splined itself; a spline of q loses whole turns between samples.
        The splines are scipy's, imported here on first use.
        """
        if "frame" not in self._splines:
            from scipy.interpolate import make_interp_spline
            k = min(SPLINE_ORDER, len(self.sample_times) - 1)
            ax_spl = make_interp_spline(self.sample_times, self.sample_axes, k=k, axis=0)
            ps_spl = make_interp_spline(self.sample_times, self.sample_angles, k=k)
            self._splines["frame"] = (ax_spl, ps_spl)
        ax_spl, ps_spl = self._splines["frame"]
        a = ax_spl(t)
        norms = np.linalg.norm(a, axis=1, keepdims=True)
        a, da = a / norms, ax_spl.derivative()(t) / norms
        half, dhalf = 0.5 * ps_spl(t), 0.5 * ps_spl.derivative()(t)
        c, s = np.cos(half), np.sin(half)
        return (np.column_stack([c, s[:, None] * a]),
                np.column_stack([-s * dhalf, (c * dhalf)[:, None] * a + s[:, None] * da]))

    def amplitude(self, t) -> np.ndarray:
        """v(t) for scalar or array t inside [0, tau_p]: (..., 3), or (m, ..., 3) for m
        lanes (a Fourier or piecewise family), each its lone shape's v bit for bit."""
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12 * self.tau_p) or np.any(t > self.tau_p * (1 + 1e-12)):
            raise ValueError("time outside [0, tau_p]")
        scalar = t.ndim == 0
        t = np.atleast_1d(np.clip(t, 0.0, self.tau_p))
        if self.representation == "fourier":
            out = self._fourier_amplitude(t)
        elif self.representation == "piecewise_constant":
            idx = np.searchsorted(self.boundaries, t, side="right") - 1
            idx = np.clip(idx, 0, self.values.shape[-2] - 1)
            # np.take keeps the lanes contiguous, and so their sums' rounding
            out = np.take(self.values, idx, axis=-2)
        else:
            out = frame_amplitude(*self._sampled_frame(t))
        if not np.all(np.isfinite(out)):
            raise ValueError("pulse amplitude is not finite")
        return out[..., 0, :] if scalar else out

    def _fourier_amplitude(self, t: np.ndarray) -> np.ndarray:
        c = self.fourier.cos
        s = self.fourier.sin
        out = np.repeat(c[..., None, :, 0], len(t), axis=-2)
        if c.shape[-1] > 1:
            k = np.arange(1, c.shape[-1])
            phase = 2.0 * np.pi * np.outer(t, k) / self.tau_p
            # an overflow leaves inf or NaN, which the finite check rejects
            with np.errstate(over="ignore", invalid="ignore"):
                out = (out + np.cos(phase) @ np.swapaxes(c[..., 1:], -1, -2)
                       + np.sin(phase) @ np.swapaxes(s, -1, -2))
        return out

    def max_amplitude(self, samples: int = 512) -> float | np.ndarray:
        """Largest |v| at ``samples`` uniform times: a float, or (m,) for lanes."""
        t = np.linspace(0.0, self.tau_p, samples)
        return np.max(np.linalg.norm(self.amplitude(t), axis=-1), axis=-1)

    def breakpoints(self) -> np.ndarray:
        """Interior times where the amplitude may be non-smooth."""
        if self.representation == "piecewise_constant":
            return self.boundaries[1:-1].copy()
        return np.empty(0)

    def rescaled(self, tau_p: float) -> "PulseShape":
        """Same dimensionless profile at a new duration (amplitudes scale as 1/tau_p)."""
        ratio = self.tau_p / tau_p
        if self.representation == "fourier":
            coeff = FourierCoefficients(self.fourier.cos * ratio, self.fourier.sin * ratio)
            return PulseShape(tau_p, self.tau_s / ratio, self.theta, "fourier", fourier=coeff)
        if self.representation == "piecewise_constant":
            return PulseShape(tau_p, self.tau_s / ratio, self.theta, "piecewise_constant",
                              boundaries=self.boundaries / ratio, values=self.values * ratio)
        return PulseShape(tau_p, self.tau_s / ratio, self.theta, "axis_angle_samples",
                          sample_times=self.sample_times / ratio,
                          sample_axes=self.sample_axes.copy(),
                          sample_angles=self.sample_angles.copy())


def frame_amplitude(q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """v(t) of a frame q = (c, s) and its time derivative: (c s' - c' s - s' x s) / |q|^2.

    This is 2 v = psi' a + a' sin(psi) - (1 - cos(psi)) (a' x a) in quaternion
    form, which never degenerates at full turns; dividing by |q|^2 removes the
    norm that an interpolated q picks up between unit samples.
    """
    c, s, dc, ds = q[:, :1], q[:, 1:], dq[:, :1], dq[:, 1:]
    return (c * ds - dc * s - np.cross(ds, s)) / np.sum(q * q, axis=1, keepdims=True)


def fourier_pulse(tau_p: float, tau_s: float, theta: float,
                  cos_coeffs: dict | None = None,
                  sin_coeffs: dict | None = None,
                  order: int | None = None) -> PulseShape:
    """Convenience constructor from sparse {component: [c0, c1, ...]} dictionaries."""
    cos_coeffs = cos_coeffs or {}
    sin_coeffs = sin_coeffs or {}
    if order is None:
        order = 0
        for coeffs in cos_coeffs.values():
            order = max(order, len(coeffs) - 1)
        for coeffs in sin_coeffs.values():
            order = max(order, len(coeffs))
    coeff = FourierCoefficients.zeros(order)
    for comp, values in cos_coeffs.items():
        i = COMPONENTS.index(comp)
        coeff.cos[i, : len(values)] = values
    for comp, values in sin_coeffs.items():
        i = COMPONENTS.index(comp)
        coeff.sin[i, : len(values)] = values
    return PulseShape(tau_p, tau_s, theta, "fourier", fourier=coeff)


def constant_rotation_pulse(tau_p: float, theta: float, axis=(0.0, 1.0, 0.0),
                            tau_s: float | None = None) -> PulseShape:
    """Constant-amplitude pulse implementing the target rotation exactly.

    The mean amplitude is pinned so the accumulated frame satisfies the
    total-rotation requirement (angle swept = -theta about the given axis).
    """
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    if tau_s is None:
        tau_s = 0.5 * tau_p
    coeff = FourierCoefficients.zeros(0)
    coeff.cos[:, 0] = -theta / (2.0 * tau_p) * axis
    return PulseShape(tau_p, tau_s, theta, "fourier", fourier=coeff)
