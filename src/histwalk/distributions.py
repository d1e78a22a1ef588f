"""Increment distributions: the step laws a walk can draw from.

Three families are supported: Gaussian, Rademacher (two atoms at -1/+1), and
an arbitrary finite discrete law. Each exposes its mean, cumulant generating
function K(t) = log E[e^{tX}] with first two derivatives, tail probabilities,
and sampling. All of these stay finite and stable for |t| up to several
hundred; discrete laws use a max-exponent shift, never raw exp sums.

A finite discrete law maps a uniform u to the atom whose cumulative weight
first exceeds it. Up to the 128 atoms an int8 count holds, it counts the
cumulative weights at or below u, one vectorised comparison per atom; larger
supports take a binary search, ``searchsorted``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, _real, _whole

__all__ = [
    "Gaussian",
    "Rademacher",
    "FiniteDiscrete",
    "IncrementDistribution",
    "mean",
    "cgf",
    "cgf_derivatives",
    "tail_prob",
    "base_variates",
    "from_base",
    "sample_n",
    "sample_mean_sums",
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
    # cached atom array and cumulative weights for inverse-CDF sampling; the
    # weights are positive, so ``_cumw`` increases and counting its entries
    # at or below u finds the same atom as searching it
    _atoms: np.ndarray = field(init=False, repr=False, compare=False)
    _cumw: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        atoms, weights = tuple(self.atoms), tuple(self.weights)
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
        object.__setattr__(self, "_atoms", np.asarray(atoms))
        object.__setattr__(self, "_cumw", np.cumsum(np.asarray(weights)))


IncrementDistribution = Gaussian | Rademacher | FiniteDiscrete


def _as_finite_discrete(d: IncrementDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Atom/weight arrays for the two discrete families."""
    if isinstance(d, Rademacher):
        return np.array([-1.0, 1.0]), np.array([1.0 - d.p, d.p])
    if isinstance(d, FiniteDiscrete):
        return np.asarray(d.atoms), np.asarray(d.weights)
    raise TypeError(f"not a discrete distribution: {d!r}")


def mean(d: IncrementDistribution) -> float:
    if isinstance(d, Gaussian):
        return float(d.mu)
    if isinstance(d, Rademacher):
        return 2.0 * d.p - 1.0
    atoms, weights = _as_finite_discrete(d)
    return float(np.dot(atoms, weights))


def support_bounds(d: IncrementDistribution) -> tuple[float, float]:
    """Essential infimum and supremum of the law (+-inf for Gaussian)."""
    if isinstance(d, Gaussian):
        return (-math.inf, math.inf)
    atoms, _ = _as_finite_discrete(d)
    return (float(atoms[0]), float(atoms[-1]))


def cgf(d: IncrementDistribution, t: float) -> float:
    """Cumulant generating function K(t) = log E[e^{tX}].

    Finite for all real t for every supported family.
    """
    if isinstance(d, Gaussian):
        return d.mu * t + 0.5 * d.sigma2 * t * t
    atoms, weights = _as_finite_discrete(d)
    expo = t * atoms + np.log(weights)
    m = float(np.max(expo))
    return m + math.log(float(np.sum(np.exp(expo - m))))


def cgf_derivatives(d: IncrementDistribution, t: float) -> tuple[float, float]:
    """K'(t) and K''(t).

    For discrete laws these are the mean and variance of the exponentially
    tilted law, computed from shift-normalised tilted weights.
    """
    if isinstance(d, Gaussian):
        return (d.mu + d.sigma2 * t, d.sigma2)
    atoms, weights = _as_finite_discrete(d)
    expo = t * atoms + np.log(weights)
    expo -= np.max(expo)
    tilted = np.exp(expo)
    tilted /= tilted.sum()
    m1 = float(np.dot(tilted, atoms))
    m2 = float(np.dot(tilted, (atoms - m1) ** 2))
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
    ge = float(np.sum(weights[atoms >= r]))
    return ge if side == "ge" else float(np.sum(weights[atoms < r]))


def base_variates(d: IncrementDistribution, n: int, rng) -> np.ndarray:
    """``n`` base variates: standard normals for a Gaussian law, uniforms otherwise."""
    return rng.standard_normal(n) if isinstance(d, Gaussian) else rng.random(n)


def from_base(d: IncrementDistribution, z: np.ndarray) -> np.ndarray:
    """One draw of ``d`` per base variate: affine for a Gaussian, inverse CDF otherwise.

    A finite discrete law's index for u is the number of cumulative weights
    at or below u, which is ``searchsorted(u, "right")``; up to 128 atoms it
    is counted with one comparison per atom.
    """
    if isinstance(d, Gaussian):
        return d.mu + math.sqrt(d.sigma2) * z
    if isinstance(d, Rademacher):
        return np.where(z < 1.0 - d.p, -1.0, 1.0)
    cumw = d._cumw
    # A binary search costs more per draw than one comparison and its add,
    # so counting wins on long arrays while it does at most 127 of them.
    # Timed on one CPU of a shared 2-CPU x86 host (numpy 2.4, best of 7, on
    # 2^15 uniforms), counting took 0.8 against 18 ns/draw at 4 atoms, 8.4
    # against 48 at 32 and 30 against 73 at 128, the most an int8 count
    # holds. On a single draw, as the reference step makes, it is slower:
    # about 9 against 0.9 us at 4 atoms. The last weight is skipped: only a
    # u at or above the total, which may fall short of 1 by rounding, passes
    # it, and the clip gives that u the top atom anyway.
    if cumw.size <= 128:
        idx = np.zeros(z.shape, dtype=np.int8)
        for c in cumw[:-1]:
            idx += (z >= c).view(np.int8)
    else:
        idx = cumw.searchsorted(z, "right")
    return d._atoms.take(idx, mode="clip")


def sample_n(d: IncrementDistribution, n: int, rng) -> np.ndarray:
    """``n`` draws, one base variate each."""
    return from_base(d, base_variates(d, n, rng))


def sample_mean_sums(d: IncrementDistribution, n: int, size: int, rng) -> np.ndarray:
    """Draws of S_n = X_1 + ... + X_n, sampled from the exact law of S_n.

    Gaussian sums are Gaussian; Rademacher sums follow a shifted binomial;
    finite discrete sums are multinomial atom counts dotted with the atoms.
    Distributionally identical to summing n single draws, at O(size) cost.
    """
    if not _whole(n) or n < 1:
        raise InvalidInputError(f"n must be an integer >= 1, got {n!r}")
    n = int(n)
    if isinstance(d, Gaussian):
        return n * d.mu + math.sqrt(n * d.sigma2) * rng.standard_normal(size)
    if isinstance(d, Rademacher):
        k = rng.binomial(n, d.p, size=size)
        return 2.0 * k - n
    counts = rng.multinomial(n, np.asarray(d.weights), size=size)
    return counts @ np.asarray(d.atoms)
