"""Exception types shared across the package."""


class CayleyDistError(Exception):
    """Base class for all library errors."""

    exit_code = 1  # the CLI's status: 1 usage or config, 2 numerical, 3 cap


class BadParam(CayleyDistError):
    """Parameter outside its documented range."""


class BadMatrix(BadParam):
    """Twist matrix rejected: determinant not +-1 or eigenvalues on the unit circle."""


class CapExceeded(CayleyDistError):
    """A size or iteration cap was hit before the computation finished."""

    exit_code = 3


class Overflow(CayleyDistError):
    """Checked integer overflow in parent-group arithmetic."""

    exit_code = 3


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

    exit_code = 2


class ZeroNorm(CayleyDistError):
    """Embedding sends a non-identity element to zero; contraction is infinite."""

    exit_code = 2


class DegenerateInput(CayleyDistError):
    """Coincident embedded points at positive metric distance."""

    exit_code = 2


class NoConvergence(CayleyDistError):
    """Iterative solver failed to reach the requested tolerance."""

    exit_code = 2
