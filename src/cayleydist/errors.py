"""Exception types shared across the package."""


class CayleyDistError(Exception):
    """Base class for all library errors."""


class BadParam(CayleyDistError):
    """Parameter outside its documented range."""


class BadMatrix(BadParam):
    """Twist matrix rejected: determinant not +-1 or eigenvalues on the unit circle."""


class CapExceeded(CayleyDistError):
    """A size or iteration cap was hit before the computation finished."""


class Overflow(CayleyDistError):
    """Checked integer overflow in parent-group arithmetic."""


class FamilyMismatch(CayleyDistError):
    """Element payload does not belong to the group it was used with."""


class IncompatibleSpecs(CayleyDistError):
    """No canonical projection between the two specs."""


class InfiniteNeedsRadius(BadParam):
    """BFS over an infinite parent requires an explicit radius."""


class BadScale(BadParam):
    """Requested radius or scale outside the supported range."""


class ZeroGradient(CayleyDistError):
    """All generator differences vanish; the Rayleigh quotient is undefined."""


class ZeroNorm(CayleyDistError):
    """Embedding sends a non-identity element to zero; contraction is infinite."""


class DegenerateInput(CayleyDistError):
    """Coincident embedded points at positive metric distance."""


class NoConvergence(CayleyDistError):
    """Iterative solver failed to reach the requested tolerance."""
