"""Drawing from the increment laws of ``distributions``, with numpy.

Every draw maps one base variate: a standard normal for a Gaussian law, a
uniform otherwise. Only the Monte Carlo layer (``simulator`` and
``experiments``) imports this module, so commands that only evaluate the
laws' scalar functions never load numpy.

A finite discrete law maps a uniform u to the atom whose cumulative weight
first exceeds it. Up to the 128 atoms an int8 count holds, it counts the
cumulative weights at or below u, one vectorised comparison per atom; larger
supports take a binary search, ``searchsorted``.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .distributions import FiniteDiscrete, Gaussian, IncrementDistribution, Rademacher
from .errors import _integer

__all__ = ["lattice_arrays", "base_variates", "from_base", "sample_n", "sample_mean_sums"]


def lattice_arrays(d: FiniteDiscrete) -> list[np.ndarray]:
    """``d``'s atoms and cumulative weights as arrays, built on the first
    call and kept on the law.

    The weights are positive, so the cumulative weights increase and
    counting those at or below u finds the same atom as searching them.
    ``accumulate`` adds left to right, as ``np.cumsum`` does.
    """
    arrays = d._arrays
    if not arrays:
        arrays += (np.array(d.atoms), np.array(list(accumulate(d.weights))))
    return arrays


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

    Gaussian sums are Gaussian; Rademacher sums follow a shifted binomial;
    finite discrete sums are multinomial atom counts dotted with the atoms.
    Distributionally identical to summing n single draws, at O(size) cost.
    """
    n = _integer("n", n, 1)
    size = _integer("size", size, 0)
    if isinstance(d, Gaussian):
        return n * d.mu + math.sqrt(n * d.sigma2) * rng.standard_normal(size)
    if isinstance(d, Rademacher):
        k = rng.binomial(n, d.p, size=size)
        return 2.0 * k - n
    counts = rng.multinomial(n, np.asarray(d.weights), size=size)
    return counts @ np.asarray(d.atoms)
