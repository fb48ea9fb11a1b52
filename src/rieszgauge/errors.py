"""Exception types shared across the library."""


class RieszGaugeError(Exception):
    """Base class for every error raised by this library."""


class MixedVariant(RieszGaugeError):
    """Operands belong to different value lattices."""


class DimensionMismatch(RieszGaugeError):
    """Vector operands have different dimensions."""


class NonComputableEnvelope(RieszGaugeError):
    """The regulator family admits no finite envelope evaluation scheme."""


class EmptyFamily(RieszGaugeError):
    """An operation that needs at least one member got an empty family."""


class EmptyProbeSet(RieszGaugeError):
    """A convergence check was invoked with no index-map probes."""


class DepthExceeded(RieszGaugeError):
    """A sliver too narrow to cut is not fine: the gauge floor is wrong."""


class EnvelopeTooSmall(RieszGaugeError):
    """No positive margin achieves the requested regularity bound."""


class NotDisjoint(RieszGaugeError):
    """Sets that must not overlap do overlap on a set of positive length."""


class NotCertifiable(RieszGaugeError):
    """No integral certificate exists for the requested integrand."""


class GaugeConstructionFailed(RieszGaugeError):
    """The integrand carries no modulus from which a gauge can be built."""


class NegativeScaleUnsupported(RieszGaugeError):
    """Set scaling is only defined for nonnegative multipliers."""


class UnboundedMultifunction(RieszGaugeError):
    """The multifunction has no common bounding element."""


class ZeroNotInValues(RieszGaugeError):
    """A monotonicity check requires every value set to contain zero."""


class PiecesOverlap(RieszGaugeError):
    """Pieces of a simple (multi)function overlap on positive length."""


class EmptySelectionFamily(RieszGaugeError):
    """An Aumann integral was requested with no selections."""


class MembershipUndecided(RieszGaugeError):
    """A point lies within float rounding of an edge of the set-valued
    integral widened by the envelope, so no membership verdict is issued."""
