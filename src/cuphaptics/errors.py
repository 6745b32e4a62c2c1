"""Exception types shared across the package, and its number and array checks."""

import math
import operator

import numpy as np


class CupHapticsError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(CupHapticsError):
    """A numeric input is non-finite or violates a value constraint."""


class ConfigError(CupHapticsError):
    """A configuration object or flag combination is unusable."""


def require_count(name: str, value: object, minimum: int | None = None) -> int:
    """``value`` as an int; ConfigError unless it is an integer (``operator.index``
    takes it) of at least ``minimum``, if one is given."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and count < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {count}")
    return count


def as_real(value: object) -> float:
    """``float(value)``, except that text, which it parses, raises TypeError."""
    if isinstance(value, (str, bytes, bytearray)):
        raise TypeError(f"text is not a real number: {value!r}")
    return float(value)  # type: ignore[arg-type]


def as_reals(name: str, values: object, shape: tuple[int | None, ...] | None = None) -> np.ndarray:
    """``values`` as a float64 array, the same one if it is; InvalidInputError unless
    numpy reads bools, integers or floats (not text, bytes, None or a ragged nesting)
    of ``shape``, if given, where None matches any length. The array form of ``as_real``."""
    try:
        array = np.asarray(values)
    except ValueError as exc:  # numpy refuses a ragged nesting
        raise InvalidInputError(f"{name} must be an array, got a ragged nesting") from exc
    if array.dtype.kind not in "biuf":
        raise InvalidInputError(f"{name} must be real numbers, got dtype {array.dtype}")
    if shape is not None and (
        array.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape))
    ):
        want = str(shape).replace("None", "n")
        raise InvalidInputError(f"{name} must have shape {want}, got {array.shape}")
    return array.astype(np.float64, copy=False)


def require_real(name: str, value: object, low=0.0, high=math.inf, *, open_low=True) -> float:
    """``value`` as a float; ConfigError unless ``as_real`` takes it and it lies
    in (low, high), or in [low, high) if not ``open_low``."""
    try:
        real = as_real(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a real number, got {value!r}") from None
    if not (low < real if open_low else low <= real) or not real < high:
        lo, hi = (str(bound).removesuffix(".0") for bound in (low, high))  # 0.0 reads 0
        rule = f"in {'(' if open_low else '['}{lo}, {hi})"
        if high == math.inf:
            rule = f"finite and {'>' if open_low else '>='} {lo}"
        raise ConfigError(f"{name} must be {rule}, got {value}")
    return real


def _hold(config: object, **checked: object) -> None:
    """Store each checked value on ``config``, a frozen dataclass, in place of the
    caller's: the int or float that ``require_count`` or ``require_real`` returned."""
    for name, value in checked.items():
        object.__setattr__(config, name, value)


class CsvParseError(CupHapticsError):
    """A dataset file failed to parse.

    Carries the 1-based file line and the offending column name so the
    message pinpoints the bad cell.
    """

    def __init__(self, message: str, *, line: int | None = None, column: str | None = None):
        self.line = line
        self.column = column
        where = []
        if line is not None:
            where.append(f"line {line}")
        if column is not None:
            where.append(f"column {column!r}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


class ModelFormatError(CupHapticsError):
    """A model file is truncated, corrupt, or of an unsupported version."""


class DegenerateChannelError(CupHapticsError):
    """A feature channel has zero spread and cannot be standardized."""
