"""Exception hierarchy shared by all boxworld modules.

Every error carries enough context to reconstruct what went wrong; nothing
is reported as a bare string where a witness (offending input tuple, sum,
count) is available.
"""


class BoxworldError(Exception):
    """Base class for all boxworld errors."""


class DimensionMismatch(BoxworldError):
    """A table key or constructor argument has the wrong arity or range."""


class NotNormalized(BoxworldError):
    """Some conditional distribution does not sum to exactly 1."""

    def __init__(self, x, total):
        super().__init__(f"distribution for inputs {x} sums to {total}, not 1")
        self.x = x
        self.total = total


class NegativeProbability(BoxworldError):
    """A table entry lies outside [0, 1]."""

    def __init__(self, key, value):
        super().__init__(f"entry {key} has probability {value} outside [0, 1]")
        self.key = key
        self.value = value


class SignalingAmbiguity(BoxworldError):
    """A marginal was requested across a cut where the box signals."""


class WrongShape(BoxworldError):
    """Operation requires a box of a specific shape (e.g. 2-party binary)."""


class ShapeMismatch(BoxworldError):
    """Two objects that must agree dimensionally do not."""


class TooLarge(BoxworldError):
    """An enumeration would exceed its configured cap."""

    def __init__(self, count, cap):
        super().__init__(f"enumeration size {count} exceeds cap {cap}")
        self.count = count
        self.cap = cap


class MissingAssignment(BoxworldError):
    """A circuit evaluation is missing a value for some input bit."""


class UnownedInputBit(BoxworldError):
    """A circuit input bit is not assigned to any party."""


class Unvalidated(BoxworldError):
    """A protocol failed validation and cannot be executed."""


class VerificationFailed(BoxworldError):
    """An internal result failed its exact re-verification: an engine bug,
    raised explicitly so that `python -O` cannot strip the check."""


class Infeasible(BoxworldError):
    """An exact feasibility problem has no solution."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NotAVertex(BoxworldError):
    """Vertex classification was asked about a non-extremal box."""
