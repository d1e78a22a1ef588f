"""Increment distributions: the step laws a walk can draw from.

Three families are supported: Gaussian, Rademacher (two atoms at -1/+1), and
an arbitrary finite discrete law. Each exposes its mean, cumulant generating
function K(t) = log E[e^{tX}] with first two derivatives, and tail
probabilities. All of these stay finite and stable for |t| up to several
hundred; discrete laws use a max-exponent shift, never raw exp sums.

This module is plain Python on floats and imports no numpy, so the theory
commands that only evaluate these functions never load it. Sums over atoms
run left to right. Laws are plain frozen values that carry no sampling
state: drawing from them, and any table built for it, is ``sampling``'s job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError, _real, _sequence

__all__ = [
    "Gaussian",
    "Rademacher",
    "FiniteDiscrete",
    "IncrementDistribution",
    "mean",
    "cgf",
    "cgf_derivatives",
    "tail_prob",
    "support_bounds",
]


@dataclass(frozen=True)
class Gaussian:
    """Normal law with mean ``mu`` and variance ``sigma2 > 0``."""

    mu: float
    sigma2: float

    def __post_init__(self) -> None:
        if not (_real(self.mu) and _real(self.sigma2)):
            raise InvalidInputError(f"mu and sigma2 must be numbers, got {self.mu!r} and {self.sigma2!r}")
        if not (self.sigma2 > 0.0) or not math.isfinite(self.sigma2):
            raise InvalidInputError(f"sigma2 must be finite and > 0, got {self.sigma2}")
        if not math.isfinite(self.mu):
            raise InvalidInputError(f"mu must be finite, got {self.mu}")


@dataclass(frozen=True)
class Rademacher:
    """Atoms at +1 and -1 with weights ``p`` and ``1 - p``; mean 2p - 1."""

    p: float

    def __post_init__(self) -> None:
        if not (_real(self.p) and 0.0 < self.p < 1.0):
            raise InvalidInputError(f"p must lie in (0, 1), got {self.p!r}")


@dataclass(frozen=True)
class FiniteDiscrete:
    """Finite support law. Atoms strictly increasing, weights positive, sum 1.

    The weight-sum tolerance is 1e-12; anything looser is a caller bug, not
    something to renormalise silently.
    """

    atoms: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        atoms, weights = _sequence("atoms", self.atoms), _sequence("weights", self.weights)
        if not all(map(_real, atoms + weights)):
            raise InvalidInputError(f"atoms and weights must be numbers, got {atoms} and {weights}")
        atoms, weights = tuple(map(float, atoms)), tuple(map(float, weights))
        if len(atoms) == 0 or len(atoms) != len(weights):
            raise InvalidInputError("atoms and weights must be equal-length and non-empty")
        if any(not math.isfinite(a) for a in atoms):
            raise InvalidInputError("atoms must be finite")
        if any(b <= a for a, b in zip(atoms, atoms[1:])):
            raise InvalidInputError("atoms must be strictly increasing")
        if any(not w > 0.0 for w in weights):  # NaN fails too
            raise InvalidInputError("weights must be strictly positive")
        if not abs(sum(weights) - 1.0) <= 1e-12:
            raise InvalidInputError(f"weights must sum to 1 within 1e-12, got {sum(weights)!r}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)


IncrementDistribution = Gaussian | Rademacher | FiniteDiscrete


def _law(name: str, d):
    """``d`` itself if it is a Gaussian, Rademacher or FiniteDiscrete law, else InvalidInputError."""
    if not isinstance(d, IncrementDistribution):
        raise InvalidInputError(f"{name} must be a Gaussian, Rademacher or FiniteDiscrete law, got {d!r}")
    return d


def _as_finite_discrete(d: IncrementDistribution) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Atoms and weights of the two discrete families; InvalidInputError
    for anything that is not a law."""
    if isinstance(d, Rademacher):
        return (-1.0, 1.0), (1.0 - d.p, d.p)
    if isinstance(d, FiniteDiscrete):
        return d.atoms, d.weights
    _law("d", d)
    raise TypeError(f"not a discrete distribution: {d!r}")


def _tilted(d: IncrementDistribution, t: float) -> tuple[tuple[float, ...], list[float], float]:
    """Atoms, their weights times e^{t a - m}, and the shift m: the largest
    log of a tilted weight, so the largest term is exactly 1."""
    atoms, weights = _as_finite_discrete(d)
    expo = [t * a + math.log(w) for a, w in zip(atoms, weights)]
    m = max(expo)
    return atoms, [math.exp(e - m) for e in expo], m


def mean(d: IncrementDistribution) -> float:
    if isinstance(d, Gaussian):
        return float(d.mu)
    if isinstance(d, Rademacher):
        return 2.0 * d.p - 1.0
    atoms, weights = _as_finite_discrete(d)
    return sum(a * w for a, w in zip(atoms, weights))


def support_bounds(d: IncrementDistribution) -> tuple[float, float]:
    """Essential infimum and supremum of the law (+-inf for Gaussian)."""
    if isinstance(d, Gaussian):
        return (-math.inf, math.inf)
    atoms, _ = _as_finite_discrete(d)
    return (atoms[0], atoms[-1])


def cgf(d: IncrementDistribution, t: float) -> float:
    """Cumulant generating function K(t) = log E[e^{tX}].

    Finite for all real t for every supported family.
    """
    if isinstance(d, Gaussian):
        return d.mu * t + 0.5 * d.sigma2 * t * t
    _, terms, m = _tilted(d, t)
    return m + math.log(sum(terms))


def cgf_derivatives(d: IncrementDistribution, t: float) -> tuple[float, float]:
    """K'(t) and K''(t).

    For discrete laws these are the mean and variance of the exponentially
    tilted law, computed from shift-normalised tilted weights.
    """
    if isinstance(d, Gaussian):
        return (d.mu + d.sigma2 * t, d.sigma2)
    atoms, terms, _ = _tilted(d, t)
    total = sum(terms)
    tilted = [x / total for x in terms]
    m1 = sum(p * a for p, a in zip(tilted, atoms))
    m2 = sum(p * (a - m1) ** 2 for p, a in zip(tilted, atoms))
    return (m1, m2)


def tail_prob(d: IncrementDistribution, r: float, side: str) -> float:
    """P(X >= r) for side="ge", P(X < r) for side="lt"."""
    if side not in ("ge", "lt"):
        raise InvalidInputError(f"side must be 'ge' or 'lt', got {side!r}")
    if isinstance(d, Gaussian):
        z = (r - d.mu) / math.sqrt(2.0 * d.sigma2)
        ge = 0.5 * math.erfc(z)
        return ge if side == "ge" else 0.5 * math.erfc(-z)
    atoms, weights = _as_finite_discrete(d)
    if side == "ge":
        return sum((w for a, w in zip(atoms, weights) if a >= r), 0.0)
    return sum((w for a, w in zip(atoms, weights) if a < r), 0.0)
