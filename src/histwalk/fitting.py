"""Least-squares slope fits on log-transformed Monte Carlo estimates.

Exponential decay/growth rates are read off as the unweighted least-squares
slope of +-log(estimate) against the window size. Slope standard errors come
from propagating each point's Monte Carlo error, |d log v / dv| = 1/v, through
the fixed OLS weights; with 3 or 4 grid points a residual-based error would be
meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEstimateError, InvalidInputError, _integer

__all__ = ["SlopeFit", "binomial_se", "check_grid", "fit_log_decay", "fit_log_growth"]


@dataclass(frozen=True)
class SlopeFit:
    """A fitted exponential rate.

    ``values`` are the raw per-n estimates (probabilities or means) that were
    log-transformed into ``log_values`` and regressed on ``ns``. ``dropped_ns``
    lists grid points discarded because their estimate was not positive.
    ``target`` is an optional theoretical rate for the same quantity.
    """

    ns: tuple[int, ...]
    values: tuple[float, ...]
    stderrs: tuple[float, ...]
    log_values: tuple[float, ...]
    slope: float
    slope_se: float
    intercept: float
    dropped_ns: tuple[int, ...] = ()
    target: float | None = None


def check_grid(n_grid, minimum: int = 3) -> tuple[int, ...]:
    """A window grid: at least ``minimum`` strictly increasing positive integers."""
    grid = tuple(_integer("grid point", n, 1) for n in n_grid)
    if len(grid) < minimum:
        raise InvalidInputError(f"need at least {minimum} grid points, got {len(grid)}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInputError(f"grid must be strictly increasing positive integers, got {grid}")
    return grid


def binomial_se(p, m):
    """Standard error of a proportion ``p`` (a float or an array) estimated
    from ``m`` independent trials."""
    return np.sqrt(p * (1.0 - p) / m)


def _fit(ns, values, stderrs, sign: int, target: float | None) -> SlopeFit:
    ns = [int(n) for n in ns]
    keep = [i for i, v in enumerate(values) if v > 0.0]
    dropped = tuple(ns[i] for i, v in enumerate(values) if v <= 0.0)
    if len(keep) < 3:
        raise DegenerateEstimateError(
            f"only {len(keep)} positive estimates out of {len(ns)}; need at least 3 to fit a slope"
        )
    x = np.array([ns[i] for i in keep], dtype=float)
    v = np.array([values[i] for i in keep], dtype=float)
    s = np.array([stderrs[i] for i in keep], dtype=float)
    y = sign * np.log(v)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise DegenerateEstimateError("slope fit needs at least two distinct n values")
    c = (x - xbar) / sxx
    slope = float(np.dot(c, y))
    intercept = float(y.mean() - slope * xbar)
    # Var(log v) ~ (se/v)^2 per point, points independent by construction
    slope_se = float(np.sqrt(np.sum((c * s / v) ** 2)))
    return SlopeFit(
        ns=tuple(int(n) for n in x),
        values=tuple(float(q) for q in v),
        stderrs=tuple(float(q) for q in s),
        log_values=tuple(float(q) for q in y),
        slope=slope,
        slope_se=slope_se,
        intercept=intercept,
        dropped_ns=dropped,
        target=target,
    )


def fit_log_decay(ns, values, stderrs, target: float | None = None) -> SlopeFit:
    """Slope of -log(value) vs n: the decay exponent of a vanishing probability."""
    return _fit(ns, values, stderrs, sign=-1, target=target)


def fit_log_growth(ns, values, stderrs, target: float | None = None) -> SlopeFit:
    """Slope of +log(value) vs n: the growth exponent of a diverging mean."""
    return _fit(ns, values, stderrs, sign=+1, target=target)
