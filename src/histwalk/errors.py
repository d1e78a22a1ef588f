"""Exception types shared across the package, and the tests behind its
input checks: ``_integer`` for every count, window, seed and index,
``_real`` and ``_number`` for every other number, and ``_sequence`` for the
tuples a law or model is built from."""

import numbers


class HistwalkError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(HistwalkError, ValueError):
    """A parameter or model description violates a documented precondition."""


class NonConvergenceError(HistwalkError):
    """An iterative solve exhausted its iteration budget."""


class InvalidChainError(HistwalkError, ValueError):
    """Transition probabilities do not describe a valid one-step-neighbour chain."""


class AssumptionError(HistwalkError):
    """A model failed the standing assumptions required by the speed formulas."""


class DegenerateEstimateError(HistwalkError):
    """Too many Monte Carlo cells came back empty to fit anything."""


class ExcessCensoringError(HistwalkError):
    """Censored fraction exceeded the configured limit; estimates would be biased."""


class ConfigError(HistwalkError, ValueError):
    """A config document could not be parsed into a model/run description."""


def _integer(name: str, value, low, high=2**53) -> int:
    """``value`` as an int in [low, high], or InvalidInputError.

    Any real with an integer value is taken, 3.0 as 3; bools, strings, NaN
    and infinities are not. The default ceiling is 2**53, past which a float
    no longer holds every integer: batch and checkpoint times are computed in
    floats, and numpy's int64 overflows at 2**63. ``high=math.inf`` lifts it.
    """
    try:
        ok = not isinstance(value, bool) and isinstance(value, numbers.Real) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not (ok and low <= value <= high):
        raise InvalidInputError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


def _real(x) -> bool:
    """Whether ``x`` is a real number a float can hold, NaN and infinities
    included; strings and bools are not, though ``float`` takes them."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _sequence(name: str, value) -> tuple:
    """``value``'s items as a tuple, or InvalidInputError if it has none."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be a sequence, got {value!r}") from None


def _number(name: str, value):
    """``value`` itself if ``_real`` takes it, else InvalidInputError."""
    if not _real(value):
        raise InvalidInputError(f"{name} must be a number, got {value!r}")
    return value
