"""Semantic exception hierarchy for the toolkit.

Every error raised on a contract violation derives from CitError so callers
(and the CLI) can distinguish domain errors from programming mistakes.
"""


class CitError(Exception):
    """Base class for all toolkit errors."""


# ---- distribution validation ------------------------------------------------

class NegativeMass(CitError):
    """A probability entry is negative."""


class NotNormalized(CitError):
    """Total mass differs from 1 by more than the input tolerance."""


class EmptyMatrix(CitError):
    """The matrix has no cells or carries no mass at all."""


class UnknownAxis(CitError):
    """An axis name does not exist in the tensor."""


class OverlappingAxes(CitError):
    """Axis groups that must be disjoint overlap."""


# ---- structure extraction ---------------------------------------------------

class DegenerateMarginal(CitError):
    """A marginal carries no positive-probability symbol (defensive)."""


class MarkovViolation(CitError):
    """A required Markov chain does not hold within tolerance."""


class ExtractionFailure(CitError):
    """No consistent common function exists; the input is numerically inconsistent."""


# ---- optimization and search ------------------------------------------------

class KernelInvalid(CitError):
    """An auxiliary conditional table violates its simplex or size constraints."""


class NoFeasiblePoint(CitError):
    """No candidate met the conditional-independence threshold (defensive)."""


class SizeBudgetExceeded(CitError):
    """A requested computation would exceed the enumeration/memory budget."""


class BudgetExceeded(CitError):
    """An exact search scored more set partitions than its budget allows."""


class NoFeasibleChain(CitError):
    """No chain under the caps met the feasibility threshold."""


class DeltaOutOfRange(CitError):
    """Binary symmetric crossover probability outside (0, 1/2)."""


class LemmaViolation(CitError):
    """The per-atom dichotomy failed; the chain is not actually feasible."""


# ---- simulation ---------------------------------------------------------------

class RateOutOfRange(CitError):
    """A binning rate outside the meaningful range for the source."""


class RateInfeasible(CitError):
    """Requested key rate exceeds what the chain can extract."""
