"""Drawing from the increment laws of ``distributions``, with numpy.

Every draw maps one base variate: a standard normal for a Gaussian law, a
uniform for a discrete one, Rademacher included. Only the Monte Carlo layer
(``simulator`` and ``experiments``) imports this module, so commands that
only evaluate the laws' scalar functions never load numpy.

A discrete law maps a uniform u, through a table cached here, to the atom
whose cumulative weight first exceeds it. Up to the 128 atoms an int8 count
holds, it counts the cumulative weights at or below u, one vectorised
comparison per atom; larger supports take a binary search, ``searchsorted``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .distributions import Gaussian, IncrementDistribution, _as_finite_discrete
from .errors import _integer

__all__ = ["lattice_arrays", "base_variates", "from_base", "sample_n", "sample_mean_sums"]


@lru_cache(maxsize=64)
def _lattice_table(d: IncrementDistribution, signs: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    atoms, weights = _as_finite_discrete(d)
    table = np.array(atoms), np.array(list(accumulate(weights)))
    for array in table:
        array.flags.writeable = False  # every caller gets the same arrays
    return table


def lattice_arrays(d: IncrementDistribution) -> tuple[np.ndarray, np.ndarray]:
    """A discrete law's atoms and cumulative weights as arrays, built once.

    The weights are positive, so the cumulative weights increase and
    counting those at or below u finds the same atom as searching them.
    ``accumulate`` adds left to right, as ``np.cumsum`` does. Equal laws may
    differ in a zero atom's sign, which a draw keeps, so signs key the cache.
    """
    atoms, _ = _as_finite_discrete(d)
    return _lattice_table(d, tuple(math.copysign(1.0, a) for a in atoms))


def base_variates(d: IncrementDistribution, n: int, rng) -> np.ndarray:
    """``n`` base variates: standard normals for a Gaussian law, uniforms otherwise."""
    return rng.standard_normal(n) if isinstance(d, Gaussian) else rng.random(n)


def from_base(d: IncrementDistribution, z: np.ndarray) -> np.ndarray:
    """One draw of ``d`` per base variate: affine for a Gaussian, inverse CDF otherwise.

    A discrete law's index for u is the number of cumulative weights
    at or below u, which is ``searchsorted(u, "right")``; up to 128 atoms it
    is counted with one comparison per atom.
    """
    if isinstance(d, Gaussian):
        return d.mu + math.sqrt(d.sigma2) * z
    atoms, cumw = lattice_arrays(d)
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
    return atoms.take(idx, mode="clip")


def sample_n(d: IncrementDistribution, n: int, rng) -> np.ndarray:
    """``n`` draws, one base variate each."""
    return from_base(d, base_variates(d, n, rng))


def sample_mean_sums(d: IncrementDistribution, n: int, size: int, rng) -> np.ndarray:
    """Draws of S_n = X_1 + ... + X_n, sampled from the exact law of S_n.

    Gaussian sums are Gaussian; discrete sums, Rademacher ones included, are
    multinomial atom counts dotted with the atoms. Distributionally identical
    to summing n single draws, at O(size) cost.
    """
    n = _integer("n", n, 1)
    size = _integer("size", size, 0)
    if isinstance(d, Gaussian):
        return n * d.mu + math.sqrt(n * d.sigma2) * rng.standard_normal(size)
    atoms, weights = _as_finite_discrete(d)
    return rng.multinomial(n, weights, size=size) @ np.array(atoms)
