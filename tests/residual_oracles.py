"""A reference route for the linearisation of the correction residuals that
only the tests use.

r1 and r2a are linear in n(t) and r2b is quadratic, so each residual's first
variation along dn is exactly [r(n + dn) - r(n - dn)] / 2: two evaluations of
:func:`spinpulse.corrections.correction_residuals` per direction, on a batch
of 2P lanes.  The library takes the same rows from one product with the
transposed linearisation (:func:`spinpulse.corrections.residual_adjoint`).
"""

import numpy as np

from spinpulse.corrections import SimpsonRule, correction_residuals


def lane_rows(quad: SimpsonRule, nhat: np.ndarray, dn: np.ndarray, tau_s: float) -> np.ndarray:
    """The variations (P, 9) of (r1, r2a, r2b) at n(t) (n, 3) along each dn (P, n, 3)."""
    lanes = len(dn)
    residuals = correction_residuals(quad, np.concatenate([nhat + dn, nhat - dn]), tau_s)
    return np.concatenate([0.5 * (r[:lanes] - r[lanes:]) for r in residuals], axis=1)
