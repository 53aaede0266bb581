"""Exception types shared across the package."""


class QcsError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitian(QcsError):
    """Matrix is not equal to its conjugate transpose within tolerance."""


class DimensionMismatch(QcsError):
    """Operands live in spaces of different dimension."""


class OutOfDomain(QcsError):
    """Argument falls outside the open unit interval (or another stated domain)."""


class DomainGap(QcsError):
    """A required evaluation point is covered by no piece of a piecewise function."""


class BadSpec(QcsError):
    """Map specification parameters are outside their valid ranges."""


class NotInjective(QcsError):
    """Map is not bijective up to null sets, so it has no inverse."""


class DistributionMismatch(QcsError):
    """Pushforward of the label measure does not match the target atom weights."""


class ValueNotInSupport(QcsError):
    """A function value is not a support point of the target step CDF."""


class NotABarrier(QcsError):
    """Map does not push the label measure forward to Lebesgue measure."""


class LabelOnBreakpoint(QcsError):
    """Label sits on a breakpoint of the barrier, where values are ambiguous."""


class NotAResolution(QcsError):
    """Projectors are not pairwise orthogonal or do not resolve the identity."""


class NotMonotone(QcsError):
    """Function is not strictly increasing on the required interval."""


class NotNormalized(QcsError):
    """State vector does not have unit norm within tolerance."""


class UndefinedEquivalence(QcsError):
    """A map table has no map for the requested key and no default."""


class SchemaError(QcsError):
    """Experiment configuration is malformed."""


class EmptySample(QcsError):
    """Statistic requested on an empty sample."""
