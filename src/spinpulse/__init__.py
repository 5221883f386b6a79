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

from .bath import BathModel, preset_bath
from .corrections import (CorrectionReport, NoGoDiagnostics, correction_residuals,
                          eta_operators, evaluate_corrections, nogo_diagnostics)
from .design import (DesignProblem, DesignSolution, ProbeResult,
                     feasibility_probe, solve)
from .oracle import (DecompositionError, SweepResult, integrate_deviation,
                     magnus_consistency)
from .policy import NumericPolicy, active_policy
from .pulses import (FourierCoefficients, PulseShape, constant_rotation_pulse,
                     fourier_pulse)
from .trajectory import (FrameTrajectory, NTrajectory, amplitude_from_axis_angle,
                         axis_angle, integrate_axis_angle, n_trajectory)

__version__ = "0.1.0"

__all__ = [
    "BathModel", "CorrectionReport", "DecompositionError", "DesignProblem",
    "DesignSolution", "FourierCoefficients", "FrameTrajectory", "NTrajectory",
    "NoGoDiagnostics", "NumericPolicy", "ProbeResult", "PulseShape", "SweepResult",
    "active_policy", "amplitude_from_axis_angle", "axis_angle",
    "constant_rotation_pulse", "correction_residuals", "eta_operators",
    "evaluate_corrections", "feasibility_probe", "fourier_pulse",
    "integrate_axis_angle", "integrate_deviation", "magnus_consistency",
    "n_trajectory", "nogo_diagnostics", "preset_bath", "solve",
]
