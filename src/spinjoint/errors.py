"""Exception types shared across the library."""


class SpinJointError(Exception):
    """Base class for all spinjoint errors."""


class BlochOutOfBall(SpinJointError):
    """Bloch vector longer than 1 cannot describe a physical state."""


class NotHermitian(SpinJointError):
    pass


class NotUnit(SpinJointError):
    """A direction that must be a unit vector is not."""


class InvalidPovm(SpinJointError):
    """Effects fail positivity or do not sum to the identity."""


class InvalidState(SpinJointError):
    pass


class NotSaturating(SpinJointError):
    """The construction is defined only on the sharpness boundary, where
    both effect eigenvalues of the general family lie within TOL of 0."""


class BoundViolated(SpinJointError):
    """Sharpness bound exceeded; no joint measurement exists for these
    parameters.

    Attributes:
        min_eigenvalue: most negative effect eigenvalue of the attempted
            four-outcome measurement, when available.
    """

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class DegenerateDirection(SpinJointError):
    """A direction that must be normalized vanishes."""


class ZeroAlpha(SpinJointError):
    """The relations divide by alpha^2 alpha'^2, which is 0 (alpha = 0, or underflow)."""


class CollinearDirections(SpinJointError):
    """The normal to the measurement plane is undefined."""


class EtaOutOfRange(SpinJointError):
    """Universal-cloner shrink factor must lie in (0, 2/3]."""
