"""SU(2) algebra used by every other module.

A frame W = c I - i s . sigma is stored as the unit quaternion q = (c, s) in a
trailing axis of length 4; products of frames are Hamilton products of their
quaternions, and :func:`quaternion_matrix` gives the 2x2 form where a matrix
is needed (the joint qubit (x) bath space of the oracle).
"""

from __future__ import annotations

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])
CONJUGATE_Q = np.array([1.0, -1.0, -1.0, -1.0])   # q * CONJUGATE_Q = q^*, the inverse frame


def pauli_dot(vec) -> np.ndarray:
    """sigma . vec for a real or complex 3-vector."""
    v = np.asarray(vec)
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def ideal_pulse_quaternion(theta: float) -> np.ndarray:
    """Quaternion (cos(theta/2), 0, -sin(theta/2), 0) of P_theta = exp(i sigma_y theta / 2)."""
    return np.array([np.cos(0.5 * theta), 0.0, -np.sin(0.5 * theta), 0.0])


def quaternion_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product p q over leading axes: the quaternion of W_p W_q."""
    p0, p1, p2, p3 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    q0, q1, q2, q3 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
                     p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
                     p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
                     p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0], axis=-1)


def quaternion_matrix(q: np.ndarray) -> np.ndarray:
    """2x2 matrices c I - i s . sigma of quaternions q = (c, s) over leading axes."""
    c, sx, sy, sz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(c.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c - 1.0j * sz
    out[..., 0, 1] = -sy - 1.0j * sx
    out[..., 1, 0] = sy - 1.0j * sx
    out[..., 1, 1] = c + 1.0j * sz
    return out


def expm_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for Hermitian h via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1.0j * w)) @ v.conj().T
