"""Exception types shared across the package."""


class HarmoniaError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(HarmoniaError):
    """A value violates a documented invariant; names the offending field."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class ParseError(HarmoniaError):
    """Input (a scenario document or the command line) could not be parsed at all."""


class CollisionSingularity(HarmoniaError):
    """A singular potential was evaluated at (or below) zero separation.

    ``pair`` holds the 1-based body numbers (i, j) of the colliding pair and
    ``separation`` their distance.
    """

    def __init__(self, message: str, pair: tuple, separation: float):
        self.pair = pair
        self.separation = separation
        super().__init__(message)


class NonFiniteState(HarmoniaError):
    """Integration produced NaN or infinite coordinates.

    ``step`` is the first retained step found non-finite and ``t`` its time.
    """

    def __init__(self, message: str, step: int, t: float):
        self.step = step
        self.t = t
        super().__init__(message)


class DegenerateGradient(HarmoniaError):
    """The potential gradient vanishes, so the central-configuration
    multiplier cannot be determined."""


class NoConvergence(HarmoniaError):
    """Iterative refinement stopped short of its tolerance.

    ``iterations`` counts the steps taken and ``residual`` is the
    central-configuration residual of the last iterate.
    """

    def __init__(self, message: str, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(message)


class ZeroInertia(HarmoniaError):
    """Moment of inertia vanishes at the reference sample (total collision)."""
