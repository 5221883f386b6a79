"""Short coherent control pulses with time-varying rotation axes.

Library layout:

* :mod:`spinpulse.su2` -- SU(2) frames as unit quaternions
* :mod:`spinpulse.pulses` -- pulse shapes and amplitude evaluation
* :mod:`spinpulse.trajectory` -- frame integration and conversions
* :mod:`spinpulse.corrections` -- correction residuals and no-go gaps, all
  functionals of n(t)
* :mod:`spinpulse.bath` / :mod:`spinpulse.oracle` -- exact joint-space check of
  the expansion order; the oracle alone holds the matrix form of qubit
  operators (Pauli matrices, 2x2 frames, the correction operators)
* :mod:`spinpulse.design` -- least-squares pulse design and probes
* :mod:`spinpulse.fileio` / :mod:`spinpulse.cli` -- schemas and command line
"""

import numpy as _np

from .bath import BathModel, preset_bath
from .corrections import (CorrectionReport, NoGoDiagnostics, evaluate_corrections,
                          nogo_diagnostics)
from .design import (DesignProblem, DesignSolution, ProbeResult,
                     feasibility_probe, solve)
from .oracle import (DecompositionError, SweepResult, eta_operators, integrate_deviation,
                     magnus_consistency)
from .pulses import (FourierCoefficients, PulseShape, constant_rotation_pulse,
                     fourier_pulse)
from .trajectory import (FrameTrajectory, NTrajectory, amplitude_from_axis_angle,
                         axis_angle, integrate_axis_angle, n_trajectory)

__version__ = "0.1.0"

# Freeing one block above glibc malloc's mmap threshold raises that threshold
# to the block's size, and the trim threshold to twice it, for the rest of
# the process.  Temporaries of a few hundred kB then reuse heap memory instead
# of mapping fresh zeroed pages on every call.  The nogo lane chunks need it:
# a fresh 300-sample batch takes ~3k minor page faults without it, against
# ~100, on Linux.  The exact oracle sizes its step tables
# (``oracle.TABLE_BYTES``) so that a chunk's dozen of them stay below the trim
# threshold and are reused too: a dim-8 verify takes ~48k faults without it,
# against ~4k.  The design loop's temporaries stay below glibc's threshold
# after import (a fixed-axis Jacobian holds ~200 kB at grid 512).  Elsewhere
# this is one untouched allocation.
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
