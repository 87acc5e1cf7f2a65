"""Exception types shared across the package."""


class ClutterError(Exception):
    """Base class for all domain errors raised by this package."""


class BadLabel(ClutterError):
    """Element label is empty, contains whitespace or ',', or is the reserved token '-'."""


class DuplicateLabel(ClutterError):
    """The same label was given twice for one ground set."""


class ForeignElement(ClutterError):
    """A row or candidate set mentions an element outside the ground set."""


class AntichainViolation(ClutterError):
    """One row is contained in another."""


class ElementNotFound(ClutterError):
    """The named element is not in the ground set."""


class InvalidSpec(ClutterError):
    """A minor spec overlaps itself or leaves the ground set."""


class ParseError(ClutterError):
    """Malformed clutter or matroid text."""


class VertexNotFound(ClutterError):
    """The named vertex is not in the graph."""


class NotBlack(ClutterError):
    """A black vertex was required but a white one was given."""


class NoTwin(ClutterError):
    """The black vertex has no twin."""


class NotMinimal(ClutterError):
    """The black vertex is not minimal."""


class PreconditionViolation(ClutterError):
    """Inputs fail the documented preconditions of a splitter operation."""


class TheoremCounterexample(ClutterError):
    """No single-element reduction preserves both connectivity and the minor.

    Carries the offending pair so harnesses can record and report it.
    """

    def __init__(self, message, M, N):
        super().__init__(message)
        self.M = M
        self.N = N


class TooLarge(ClutterError):
    """Requested exhaustive enumeration beyond the supported size."""


class CircuitAxiomViolation(ClutterError):
    """A circuit family fails the matroid circuit axioms."""


class GroundOverlap(ClutterError):
    """Direct sum operands share ground elements."""


class BadRank(ClutterError):
    """Uniform matroid rank outside 0..n."""
