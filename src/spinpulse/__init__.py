"""Short coherent control pulses with time-varying rotation axes.

Library layout:

* :mod:`spinpulse.su2` -- SU(2) frames as unit quaternions, their 2x2 form
* :mod:`spinpulse.pulses` -- pulse shapes and amplitude evaluation
* :mod:`spinpulse.trajectory` -- frame integration and conversions
* :mod:`spinpulse.corrections` -- correction residuals and no-go gaps
* :mod:`spinpulse.bath` / :mod:`spinpulse.oracle` -- exact joint-space check of
  the expansion order
* :mod:`spinpulse.design` -- least-squares pulse design and probes
* :mod:`spinpulse.fileio` / :mod:`spinpulse.cli` -- schemas and command line
"""

import numpy as _np

from .bath import BathModel, preset_bath
from .corrections import (CorrectionReport, NoGoDiagnostics, eta_operators,
                          evaluate_corrections, nogo_diagnostics)
from .design import (DesignProblem, DesignSolution, ProbeResult,
                     feasibility_probe, solve)
from .oracle import (DecompositionError, SweepResult, integrate_deviation,
                     magnus_consistency)
from .pulses import (FourierCoefficients, PulseShape, constant_rotation_pulse,
                     fourier_pulse)
from .trajectory import (FrameTrajectory, NTrajectory, amplitude_from_axis_angle,
                         axis_angle, integrate_axis_angle, n_trajectory)

__version__ = "0.1.0"

# Freeing one block above glibc malloc's mmap threshold raises that threshold
# to the block's size, and the trim threshold to twice it, for the rest of
# the process.  Two users make temporaries of a few hundred kB, which then
# reuse heap memory instead of mapping fresh zeroed pages on every call: the
# design Jacobian at P >= 3 (an S and a Q design of 32 restarts each take ~43k
# minor page faults and ~30% longer without it) and the nogo lane chunks (a
# 2 x 300-sample batch takes ~8.5k faults against ~15, and ~10% longer, on
# Linux).  The exact oracle sizes its step tables (``oracle.TABLE_BYTES``) so
# that a chunk's dozen of them stay below that trim threshold and are reused
# too.  Elsewhere this is one untouched allocation.
_np.empty(1 << 20, _np.uint8)

__all__ = [
    "BathModel", "CorrectionReport", "DecompositionError", "DesignProblem",
    "DesignSolution", "FourierCoefficients", "FrameTrajectory", "NTrajectory",
    "NoGoDiagnostics", "ProbeResult", "PulseShape", "SweepResult",
    "amplitude_from_axis_angle", "axis_angle", "constant_rotation_pulse", "eta_operators",
    "evaluate_corrections", "feasibility_probe", "fourier_pulse",
    "integrate_axis_angle", "integrate_deviation", "magnus_consistency",
    "n_trajectory", "nogo_diagnostics", "preset_bath", "solve",
]
