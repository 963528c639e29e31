"""Exception types shared across the toolkit.

Input errors (bad arguments, malformed files) derive from ValueError or
IndexError so callers can catch them broadly; the one numeric failure, an
inverse cdf that does not converge, derives from RuntimeError.  The CLI maps
input errors to exit code 2 and domain failures to exit code 1.
"""


class PartialRecordsError(Exception):
    """Base class for all toolkit-specific errors."""


class PlanValidationError(PartialRecordsError, ValueError):
    """An operation received a comparison plan that fails compatibility checks."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class BadFirstIndex(PartialRecordsError, ValueError):
    """Chained plans must start at time index 1."""


class IndexOutOfRange(PartialRecordsError, IndexError):
    """A position, time index, or grid index is outside its valid range."""


class EmptySelection(PartialRecordsError, ValueError):
    """A joint-event query selected no positions."""


class TooManyIndices(PartialRecordsError, ValueError):
    """Exhaustive permutation enumeration would be too large."""


class RankTooLarge(PartialRecordsError, ValueError):
    """Requested record rank cannot be resolved within the horizon."""


class UnknownFamily(PartialRecordsError, ValueError):
    """Built-in density family name not recognized."""


class BadParams(PartialRecordsError, ValueError):
    """Parameters invalid for the requested density family."""


class InversionFailure(PartialRecordsError, RuntimeError):
    """Numeric CDF inversion did not converge."""


class UnboundedSupport(PartialRecordsError, ValueError):
    """Operation requires a density with bounded support."""


class ZeroMass(PartialRecordsError, ValueError):
    """Discretization grid carries no probability mass."""


class NonIntegerGrid(PartialRecordsError, ValueError):
    """Support bound times grid resolution must be an integer."""


class StateSpaceTooLarge(PartialRecordsError, ValueError):
    """A size guard was exceeded: exhaustive discrete enumeration, or
    materializing every comparison set of a plan (to_comparison_plan).
    Saving and hashing a plan use its O(j) form and never raise it."""


class NegativeCutoff(PartialRecordsError, ValueError):
    """Cutoff values must be strictly positive."""
