"""Exception types raised across the package, and the one integer rule."""

from numbers import Integral


class EdhsimError(Exception):
    """Base class for all edhsim errors."""


class ParseError(EdhsimError):
    """A file (depth map, config, boundary set) could not be parsed."""


class DepthOutOfRangeError(EdhsimError):
    """A depth value is not finite or lies outside the valid (0, z_limit] range."""

    def __init__(self, value, limit):
        super().__init__(f"depth must be finite and in (0, {limit!r}] m, got {value!r} m")
        self.value = value
        self.limit = limit


class InvalidParamsError(EdhsimError):
    """Parameters violate a documented precondition."""


def check_int(name: str, value, least: int, error: type[EdhsimError] = InvalidParamsError) -> int:
    """``value`` as a Python int. Raises ``error`` unless it is an integer
    (a numpy integer is, a bool or a float is not) >= ``least``."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


class DistanceExceedsRangeError(EdhsimError):
    """Round-trip time of flight does not fit inside one laser period."""


class TooFewPhotonsError(EdhsimError):
    """Not enough pooled photons to place the requested quantiles."""


class PowerOfTwoError(EdhsimError):
    """Hierarchical histogramming requires a power-of-two bin count."""


class BinCountError(EdhsimError):
    """Requested equi-width bin count is unusable for this stream."""


class EmptyHistogramError(EdhsimError):
    """Peak lookup on a histogram with no bins."""


class BinPositionError(EdhsimError):
    """A time-bin position lies outside [0, B]."""


class ShapeMismatchError(EdhsimError):
    """Estimate and ground-truth grids have different shapes."""


class QuantileMismatchError(EdhsimError):
    """Two boundary sets track different quantile counts."""


class SweepValueError(EdhsimError):
    """A sweep value violates the swept parameter's valid range."""
