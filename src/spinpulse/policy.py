"""Global numeric policy: every tolerance used by the library in one record.

The active policy can be overridden through the environment variable
``SPINPULSE_NUMERIC_POLICY`` set to a comma-separated ``name=value`` list,
e.g. ``SPINPULSE_NUMERIC_POLICY="unitary_atol=1e-9,nogo_tolerance=1e-8"``.
Every field is a float, and every value must be finite and positive.  Step
counts and the residual threshold are not tolerances: they are command-line
flags (``--grid``, ``verify --steps``, ``corrections --threshold``).
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class NumericPolicy:
    # linear-algebra validation
    hermitian_rtol: float = 1e-12
    unitary_atol: float = 1e-10
    unit_vector_atol: float = 1e-9
    # (axis, angle) output of the pulse frame
    axis_floor: float = 1e-7
    # quadrature and report flags
    quad_unconverged_rel: float = 1e-3
    quad_unconverged_floor: float = 1e-9
    r2b_validity_rel: float = 1e-6
    pi_condition_atol: float = 1e-6
    nogo_tolerance: float = 1e-9
    # solver
    converged_objective: float = 1e-16

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT_POLICY = NumericPolicy()

ENV_VAR = "SPINPULSE_NUMERIC_POLICY"


def active_policy() -> NumericPolicy:
    """Default policy with any environment overrides applied."""
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_POLICY
    overrides = {}
    fields = {f.name for f in dataclasses.fields(NumericPolicy)}
    for item in raw.split(","):
        if not item.strip():
            continue
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in fields:
            raise ValueError(f"unknown numeric-policy field {name!r}")
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"numeric-policy field {name!r} needs a number, "
                             f"got {value.strip()!r}") from None
        if not (math.isfinite(number) and number > 0):
            raise ValueError(f"numeric-policy field {name!r} must be finite and "
                             f"positive, got {value.strip()!r}")
        overrides[name] = number
    return dataclasses.replace(DEFAULT_POLICY, **overrides)
