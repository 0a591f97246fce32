"""Exception types raised across the package."""


class ZeroMagnitude(ValueError):
    """Quaternion (qinv) or pose quaternion part (aq_inverse) too small to invert."""


class AVQClosureViolation(RuntimeError):
    """Conjugation left the augmented-vector-quaternion subspace.

    This signals an arithmetic bug, not a domain error.
    """


class ConstraintViolated(ValueError):
    """Dual quaternion violates the unit or orthogonality constraint."""


class StepDiverged(RuntimeError):
    """Integrator state became non-finite, or the Lyapunov function of
    an exponential-dynamics run rose."""


class InfeasibleInit(ValueError):
    """Solver initial guess violates the unit-quaternion constraints."""


class NonFiniteObjective(RuntimeError):
    """Objective evaluated to NaN or infinity at an accepted iterate."""


class OutOfRange(ValueError):
    """Rotation vector outside the representable angle range."""


class ParseError(ValueError):
    """Malformed problem, solution, or truth file."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
            if line is not None:
                where += f"{line}:"
            where += " "
        super().__init__(f"{where}{message}")
