"""Sharp partial-identification bounds for Roy selection models.

Submodules:
  probability  - cell records, interval bounds, the oracle's polytope class
  binary       - closed-form binary-model bounds
  generalized  - generalized binary model with an instrument
  functional   - continuous-outcome functional bounds and IQR bounds
  oracle       - brute-force verification oracles and simulators
  inference    - estimation and intersection-bounds confidence intervals
  cli          - batch command-line interface
"""

# Not oracle, a verification tool off the runtime path: `from roybounds import oracle`.
from . import binary, functional, generalized, inference, probability
from .errors import RoyBoundsError
from .functional import OutcomeSample, build_subcdf
from .probability import (
    CellProbs,
    InstrumentTable,
    IntervalBound,
    PotentialJoint,
    validate_cells,
)

__version__ = "0.1.0"

__all__ = [
    "CellProbs",
    "InstrumentTable",
    "IntervalBound",
    "OutcomeSample",
    "PotentialJoint",
    "RoyBoundsError",
    "binary",
    "build_subcdf",
    "functional",
    "generalized",
    "inference",
    "probability",
    "validate_cells",
]
