"""Exception types shared across the package."""


class TwoDstError(Exception):
    """Base class for all package-specific errors."""


class SizeLimitError(TwoDstError):
    """A construction would exceed a configured size cap.

    `projected` carries the size that tripped the cap. A check made before
    building reports the exact size; a builder that checks its cap as it
    grows reports the size it had reached, so cap < projected <= full size.
    """

    def __init__(self, message: str, projected: int, cap: int):
        super().__init__(f"{message} (projected {projected} > cap {cap})")
        self.projected = projected
        self.cap = cap


class InfeasibleInstanceError(TwoDstError):
    """The instance cannot satisfy the connectivity requirement."""


class ModelInconsistencyError(TwoDstError):
    """A solver artifact violates an assumption of the consuming stage."""


class SolverError(TwoDstError):
    """The linear-program backend produced an unusable result."""


class ExactTimeoutError(TwoDstError):
    """Exhaustive search exceeded its time budget."""
