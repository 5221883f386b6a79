"""SU(2) algebra used by every other module: unit quaternions only.

A frame W = c I - i s . sigma is stored as the unit quaternion q = (c, s) in a
trailing axis of length 4, and products of frames are Hamilton products of
their quaternions.  The frame integrator holds its quaternions component-major
instead, as four planes of a leading axis; both layouts multiply through the
one component formula, :func:`hamilton`.  The 2x2 form is needed only on the
joint qubit (x) bath space, and lives with the exact oracle
(:mod:`spinpulse.oracle`).
"""

from __future__ import annotations

import numpy as np

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])
CONJUGATE_Q = np.array([1.0, -1.0, -1.0, -1.0])   # q * CONJUGATE_Q = q^*, the inverse frame


def ideal_pulse_quaternion(theta: float) -> np.ndarray:
    """Quaternion (cos(theta/2), 0, -sin(theta/2), 0) of P_theta = exp(i sigma_y theta / 2)."""
    return np.array([np.cos(0.5 * theta), 0.0, -np.sin(0.5 * theta), 0.0])


def hamilton(p, q) -> tuple:
    """Hamilton product p q of quaternions given as component sequences
    (c, sx, sy, sz): the four components of the product, each broadcast from
    its operands'.  Every layout of quaternions multiplies through this one
    formula, so a product rounds alike whichever axis holds the components."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0)


def quaternion_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product p q over leading axes: the quaternion of W_p W_q."""
    return np.stack(hamilton([p[..., i] for i in range(4)], [q[..., i] for i in range(4)]),
                    axis=-1)
