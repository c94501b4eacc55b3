"""Exception hierarchy for roybounds.

Input-validation errors and substantive findings are kept distinct: a
rejected model (bounds that cross, so its identified set is empty) raises
`Infeasible` or `OutcomeInstrumentDependence`, reported with exit 2.
"""


class RoyBoundsError(Exception):
    """Base class for all roybounds errors."""


class NegativeMass(RoyBoundsError):
    """A probability input was negative beyond tolerance."""


class NotNormalized(RoyBoundsError):
    """Probabilities do not sum to one beyond tolerance."""


class Infeasible(RoyBoundsError):
    """An identified set is empty."""


class InfeasibleModel(Infeasible):
    """The observed tables are inconsistent with the model."""


class InfeasibleLP(Infeasible):
    """No response-type distribution reproduces the observed tables."""


class OutcomeInstrumentDependence(RoyBoundsError):
    """P(Y=1|z) varies with z: the binary Roy model plus exclusion is rejected."""


class MissingCell(RoyBoundsError):
    """A required covariate support point has no data."""


class DegenerateConditioning(RoyBoundsError):
    """A conditioning event has (near) zero probability."""


class DegenerateDenominator(RoyBoundsError):
    """A ratio bound's denominator is (near) zero."""


class ZeroSectorProbability(RoyBoundsError):
    """P(D=d|z) is zero where a sector-conditional quantity is required."""


class EmptySample(RoyBoundsError):
    """An operation requires a nonempty sample."""


class EmptySector(EmptySample):
    """No observations in the requested sector."""


class BadInterval(RoyBoundsError):
    """Interval endpoints are not ordered."""


class QuantileOutOfRange(RoyBoundsError):
    """Quantile levels must satisfy 0 < q1 < q2 < 1."""


class OutOfRange(RoyBoundsError):
    """A parameter lies outside its admissible range: an instrument support
    past the response-type cap, or a design's tie-break probability pi."""


class InputError(RoyBoundsError):
    """Malformed user input (CLI/data layer)."""
