"""Exception types shared across the package; ``_whole`` and ``_real``, the
integer and number tests behind its input checks; and ``_check_count``, the
ceiling on step counts."""

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


def _whole(x) -> bool:
    """Whether ``x`` is a real number, not a bool, with an integer value; NaN and infinities are not."""
    try:
        return not isinstance(x, bool) and isinstance(x, numbers.Real) and int(x) == x
    except (TypeError, ValueError, OverflowError):
        return False


def _check_count(name: str, value: int) -> None:
    """Refuse a step count above 2**53, past which a float no longer holds
    every integer: batch and checkpoint times are computed in floats, and
    numpy's int64 overflows at 2**63."""
    if value > 2**53:
        raise InvalidInputError(f"{name}={value} is above 2**53, the largest step count handled")


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
