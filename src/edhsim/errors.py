"""The package's four exception types, one per kind of fault, and the one
rule per kind of input that every value object checks with: integers
(:func:`check_int`), finite real numbers (:func:`check_real`), instances of
one type (:func:`check_type`), distinct values (:func:`check_distinct`),
arrays of integers or floats (:func:`real_array`) and read-only array fields
(:func:`frozen_array`)."""

import math
from numbers import Integral, Real

import numpy as np


class EdhsimError(Exception):
    """Base class for all edhsim errors."""


class ParseError(EdhsimError):
    """A file (depth map, config, boundary set) could not be parsed."""


class InvalidParamsError(EdhsimError):
    """A value breaks a documented precondition."""


class KernelBuildError(EdhsimError):
    """The compiled kernel could not be built (no C compiler, or an
    unwritable cache)."""


def check_int(name: str, value, least: int) -> int:
    """``value`` as a Python int. Raises InvalidParamsError unless it is an
    integer (a numpy integer is, a bool or a float is not) >= ``least``."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < least:
        raise InvalidParamsError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def is_real(value) -> bool:
    """Whether ``value`` is a real number (a numpy float or integer is, a
    bool, a string, None or a complex number is not)."""
    # a float is tested first: an isinstance test against the Real ABC is
    # several times slower, and most values checked are floats
    return type(value) is float or (isinstance(value, Real) and not isinstance(value, bool))


def check_real(name: str, value, low, high=math.inf, ends: str = "()") -> None:
    """Raise InvalidParamsError unless ``value`` is a finite real number (see
    :func:`is_real`) inside the interval from ``low`` to ``high``. ``ends``
    gives its brackets: each end is open, ``(`` or ``)``, unless it is closed,
    ``[`` or ``]``."""
    if not (is_real(value) and -math.inf < value < math.inf
            and (low <= value if ends[0] == "[" else low < value)
            and (value <= high if ends[1] == "]" else value < high)):
        raise InvalidParamsError(
            f"{name} must be a real number in {ends[0]}{low}, {high}{ends[1]}, got {value!r}")


def check_type(name: str, value, cls: type) -> None:
    """Raise InvalidParamsError unless ``value`` is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise InvalidParamsError(f"{name} must be one {cls.__name__}, not {type(value).__name__}")


def real_array(name: str, values, dtype=np.float64) -> np.ndarray:
    """``values`` as an array of ``dtype`` (None keeps the input's), not
    copied if it already is one. Raises InvalidParamsError unless the
    input's own dtype is integer or float: a bool, string, complex or object
    array is not, though numpy would convert it."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise InvalidParamsError(f"{name} must be integers or floats, not {arr.dtype}")
    return np.asarray(arr, dtype=dtype)


def frozen_array(owner, name: str, dtype) -> np.ndarray:
    """Store field ``name`` of the frozen dataclass ``owner`` as a C-contiguous,
    read-only :func:`real_array` of ``dtype`` and return it; an input array
    that already is one is frozen in place, not copied."""
    arr = np.ascontiguousarray(real_array(name, getattr(owner, name), dtype))
    arr.setflags(write=False)
    object.__setattr__(owner, name, arr)
    return arr


def check_distinct(name: str, values, label) -> None:
    """Raise InvalidParamsError, naming both, if two of ``values`` are equal
    or get the same ``label(value)``: the key or the column they are
    reported under."""
    seen, labels = {}, {}
    for v in values:
        key = label(v)
        if v in seen:
            raise InvalidParamsError(f"{name} must be distinct, got {seen[v]!r} and {v!r}")
        if key in labels:
            raise InvalidParamsError(f"{name} {labels[key]!r} and {v!r} share the label {key!r}")
        seen[v] = labels[key] = v
