"""Reference SU(2) algebra that only the tests use: exponentials, 3x3 rotations,
logarithms and the expanded RK4 step.

These are independent oracles for the library's quaternion frames: the
closed-form 2x2 exponential about an axis, the Rodrigues matrix, the adjoint
representation of a 2x2 unitary, the principal logarithm of a unitary of
any dimension, and the RK4 step of a linear ODE as its degree-4 polynomial.
"""

import numpy as np
from scipy.linalg import schur

from spinpulse.bath import UNITARY_ATOL
from spinpulse.pulses import UNIT_VECTOR_ATOL
from spinpulse.su2 import SIGMA_X, SIGMA_Y, SIGMA_Z, pauli_dot

BRANCH_MARGIN = 1e-6

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])


class BranchAmbiguityError(ValueError):
    """Raised when a unitary has an eigenvalue too close to the log branch cut."""


def _check_unit_axis(axis) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    if abs(np.linalg.norm(axis) - 1.0) > UNIT_VECTOR_ATOL:
        raise ValueError(f"axis must be unit length, got |axis| = {np.linalg.norm(axis)}")
    return axis


def axis_angle_exponential(axis, angle: float) -> np.ndarray:
    """Closed-form 2x2 unitary cos(angle/2) I - i sin(angle/2) (axis . sigma)."""
    axis = _check_unit_axis(axis)
    half = 0.5 * angle
    return np.cos(half) * IDENTITY_2 - 1.0j * np.sin(half) * pauli_dot(axis)


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis.

    Conjugation-consistent with :func:`axis_angle_exponential`:
    applying the returned matrix to a vector m equals conjugating m . sigma by
    the corresponding 2x2 unitary.
    """
    axis = _check_unit_axis(axis)
    c, s = np.cos(angle), np.sin(angle)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return c * np.eye(3) + s * k + (1.0 - c) * np.outer(axis, axis)


def is_unitary(u: np.ndarray, atol: float) -> bool:
    u = np.asarray(u)
    return bool(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) <= atol)


def pauli_conjugate(u: np.ndarray) -> np.ndarray:
    """3x3 rotation R_jk = (1/2) Re tr(sigma_j U sigma_k U^dag) of a 2x2 unitary."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if not is_unitary(u, UNITARY_ATOL):
        raise ValueError("matrix is not unitary within tolerance")
    udag = u.conj().T
    r = np.empty((3, 3))
    for k in range(3):
        conj = u @ PAULI[k] @ udag
        for j in range(3):
            r[j, k] = 0.5 * np.real(np.trace(PAULI[j] @ conj))
    return r


def matrix_log_unitary(u: np.ndarray, branch_margin: float = BRANCH_MARGIN) -> np.ndarray:
    """Principal anti-Hermitian logarithm of a unitary, eigenphases in (-pi, pi].

    Raises :class:`BranchAmbiguityError` if an eigenvalue sits within
    ``branch_margin`` radians of the branch cut at -1.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, UNITARY_ATOL):
        raise ValueError("matrix is not unitary within tolerance")
    # Unitary matrices are normal, so the complex Schur form is diagonal and
    # the Schur vectors give an orthonormal eigenbasis even for degenerate
    # eigenvalues (np.linalg.eig does not guarantee that).
    t, z = schur(u, output="complex")
    phases = np.angle(np.diag(t))
    if np.any(np.pi - np.abs(phases) < branch_margin):
        raise BranchAmbiguityError(
            "eigenvalue within branch margin of -1; logarithm branch is ambiguous")
    gen = (z * (1.0j * phases)) @ z.conj().T
    return 0.5 * (gen - gen.conj().T)


def rk4_polynomial(g1, g2, g3, h, mul, one):
    """Per-step RK4 transfer elements for the linear ODE W' = G(t) W.

    With stage generators (g1, g2, g3) at the step start, midpoint and end,
    one classical RK4 step is W -> M W with

        M = I + (h/6)(g1 + 4 g2 + g3) + (h^2/6)(g2 g1 + g2^2 + g3 g2)
              + (h^3/12)(g2^2 g1 + g3 g2^2) + (h^4/24) g3 g2^2 g1,

    built for all steps at once from the algebra's batched product ``mul``
    and unit ``one``.
    """
    h = np.reshape(h, (-1,) + (1,) * (np.ndim(g1) - 1))
    g2g1 = mul(g2, g1)
    g2sq = mul(g2, g2)
    g3g2 = mul(g3, g2)
    g2sq_g1 = mul(g2sq, g1)
    return (one
            + (h / 6.0) * (g1 + 4.0 * g2 + g3)
            + (h ** 2 / 6.0) * (g2g1 + g2sq + g3g2)
            + (h ** 3 / 12.0) * (g2sq_g1 + mul(g3, g2sq))
            + (h ** 4 / 24.0) * mul(g3, g2sq_g1))


def rk4_step_matrices(g1, g2, g3, h) -> np.ndarray:
    """RK4 transfer matrices of generator matrices (..., d, d), by :func:`rk4_polynomial`."""
    return rk4_polynomial(g1, g2, g3, h, np.matmul, np.eye(g1.shape[-1], dtype=complex))
