"""Exception taxonomy shared across the package.

Plain ``ValueError`` is used for usage errors (bad arguments, shape
mismatches); the classes below mark conditions a caller may want to
handle separately.
"""


class ValidationError(ValueError):
    """Parameters or state fail a hard validity requirement."""


class FeasibilityError(ValidationError):
    """A sampling or construction budget was exhausted."""


class StateCorruptionError(RuntimeError):
    """Disks overlap beyond tolerance; the trajectory is untrustworthy."""


class NumericalFailureError(RuntimeError):
    """A conservation law or iteration drifted beyond its tolerance."""


class SingularSegmentError(RuntimeError):
    """A trajectory segment carries singular events and was refused."""


class TangentialFrameError(RuntimeError):
    """Collision frame requested at a (near-)tangential collision."""


class IllConditionedAdvanceError(RuntimeError):
    """Advance extraction attempted at a near-zero relative velocity."""


class PerturbationTooLargeError(RuntimeError):
    """A configuration translation left the admissible region."""


class ConfigError(ValueError):
    """Config text failed to parse or validate.

    ``line`` is the 1-based source line when known, else 0.
    """

    def __init__(self, message, line=0):
        super().__init__(message if not line else f"line {line}: {message}")
        self.line = line
