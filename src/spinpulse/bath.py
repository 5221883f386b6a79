"""Finite-dimensional bath models: H = H_b + lambda A sigma_z on qubit (x) bath."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIM_CAP = 16
# h_b and a must be Hermitian to this fraction of their norm, and |a| must be 1
# to this absolute tolerance
HERMITIAN_RTOL = 1e-12
UNITARY_ATOL = 1e-10

PRESET_NAMES = ("spin-dephasing", "spin-ising", "spin-dynamic")


def _finite_norm(name: str, m) -> float:
    """The Frobenius norm of m; a ValueError naming ``name`` where it overflows."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(m)
    if not np.isfinite(norm):
        raise ValueError(f"{name} is too large: its norm overflows")
    return float(norm)


@dataclass(frozen=True)
class BathModel:
    """Hermitian bath Hamiltonian and normalized coupling operator.

    ``h_b`` carries the internal energy scale omega_b; ``a`` is dimensionless
    with unit spectral norm; ``coupling`` is the qubit-bath strength lambda.
    """

    h_b: np.ndarray
    a: np.ndarray
    coupling: float

    def __post_init__(self):
        h_b = np.asarray(self.h_b, dtype=complex)
        a = np.asarray(self.a, dtype=complex)
        if h_b.ndim != 2 or h_b.shape[0] != h_b.shape[1] or h_b.shape != a.shape:
            raise ValueError("h_b and a must be square matrices of equal dimension")
        # NaN passes the tolerance checks below, and LAPACK then fails on it
        for name, m in (("coupling lambda", self.coupling), ("h_b", h_b), ("a", a)):
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} must be finite")
        dim = h_b.shape[0]
        if not 1 <= dim <= DIM_CAP:
            raise ValueError(f"bath dimension must be in 1..{DIM_CAP}")
        # the second-order correction operator scales as lambda^2
        with np.errstate(over="ignore"):
            if not np.isfinite(np.square(self.coupling)):
                raise ValueError("coupling lambda is too large: lambda^2 overflows")
        for name, m in (("h_b", h_b), ("a", a)):
            scale = max(_finite_norm(name, m), 1.0)
            if np.linalg.norm(m - m.conj().T) > HERMITIAN_RTOL * scale:
                raise ValueError(f"{name} must be Hermitian")
        if abs(np.linalg.norm(a, 2) - 1.0) > UNITARY_ATOL:
            raise ValueError("coupling operator must be normalized to unit spectral norm")
        object.__setattr__(self, "h_b", h_b)
        object.__setattr__(self, "a", a)

    @property
    def dim_b(self) -> int:
        return self.h_b.shape[0]

    @property
    def commutator(self) -> np.ndarray:
        return self.h_b @ self.a - self.a @ self.h_b


def preset_bath(name: str, coupling: float = 0.1, omega_b: float = 1.0) -> BathModel:
    """Reference baths used throughout the test harness.

    spin-dephasing : dim 1, H_b = 0, A = 1 (pure dephasing, H = lambda sigma_z)
    spin-ising     : dim 2, H_b = omega_b tau_z, A = tau_z (commuting coupling)
    spin-dynamic   : dim 2, H_b = omega_b tau_z, A = tau_x (dynamic bath)
    """
    tau_z = np.diag([1.0, -1.0]).astype(complex)
    tau_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    if not np.isfinite(omega_b):
        raise ValueError("omega_b must be finite")
    _finite_norm("omega_b", omega_b * tau_z)        # the norm of H_b
    if name == "spin-dephasing":
        return BathModel(np.zeros((1, 1), dtype=complex), np.ones((1, 1), dtype=complex), coupling)
    if name == "spin-ising":
        return BathModel(omega_b * tau_z, tau_z, coupling)
    if name == "spin-dynamic":
        return BathModel(omega_b * tau_z, tau_x, coupling)
    raise ValueError(f"unknown bath preset {name!r}; choose from {PRESET_NAMES}")
