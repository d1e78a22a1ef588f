"""Large-deviation rate functions via the Legendre-Fenchel transform.

For an increment law with cumulant generating function K, the rate function is
I(r) = sup_t [t r - K(t)]. Empirical means then satisfy Cramer's theorem:
(1/n) log P(S_n/n >= r) -> -I(r) for r above the mean, and symmetrically
below; ``experiments.verify_cramer_slope`` measures that decay by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import Gaussian, IncrementDistribution, cgf, cgf_derivatives, support_bounds, tail_prob
from .errors import InvalidInputError, NonConvergenceError, _number

__all__ = ["RateFunction"]

# residual tolerance scale for the stationarity condition K'(t) = r
_TOL_SCALE = 1e-10

# iteration budget of one Newton solve, bracket expansion included
_MAX_ITER = 200


@dataclass(frozen=True)
class RateFunction:
    """Legendre-Fenchel transform of one increment law's CGF.

    Gaussian laws use the exact closed form (r - mu)^2 / (2 sigma2). Discrete
    laws solve the stationarity condition K'(t*) = r with a bracketed Newton
    iteration (bisection fallback), to residual 1e-10 * max(1, |r|) within
    ``_MAX_ITER`` steps. Values at the support endpoints are the exact
    -log(atom weight); outside the support the transform is +inf.
    """

    dist: IncrementDistribution

    def evaluate(self, r: float) -> float:
        return self.solve(r)[0]

    def solve(self, r: float) -> tuple[float, float]:
        """Return (I(r), t*): the value and the maximising tilt.

        The tilt is +-inf at a support endpoint and nan outside the support.
        """
        r = float(_number("r", r))
        if not math.isfinite(r):
            raise InvalidInputError(f"r must be finite, got {r}")
        d = self.dist
        if isinstance(d, Gaussian):
            tilt = (r - d.mu) / d.sigma2
            return (0.5 * (r - d.mu) ** 2 / d.sigma2, tilt)
        lo, hi = support_bounds(d)
        if r < lo or r > hi:
            return (math.inf, math.nan)
        if r == lo and r == hi:  # point mass
            return (0.0, 0.0)
        if r == hi:
            return (-math.log(tail_prob(d, hi, "ge")), math.inf)
        if r == lo:
            return (-math.log(tail_prob(d, math.nextafter(lo, math.inf), "lt")), -math.inf)
        tilt = self._newton(r)
        return (tilt * r - cgf(d, tilt), tilt)

    def _newton(self, r: float) -> float:
        d = self.dist
        tol = _TOL_SCALE * max(1.0, abs(r))
        budget = _MAX_ITER
        lam = 0.0
        d1, _ = cgf_derivatives(d, lam)
        if abs(d1 - r) <= tol:
            return lam
        # expand a bracket [blo, bhi] with K'(blo) < r < K'(bhi) from 0 towards
        # the side of r; K' approaches the support edge exponentially, so
        # doubling is enough
        side = 1.0 if d1 < r else -1.0
        near, far = lam, side
        while (cgf_derivatives(d, far)[0] - r) * side < 0:
            near, far = far, 2.0 * far
            budget -= 1
            if budget <= 0:
                raise NonConvergenceError(f"bracket expansion exhausted at r={r}")
        blo, bhi = min(near, far), max(near, far)
        lam = 0.5 * (blo + bhi)
        for _ in range(budget):
            d1, d2 = cgf_derivatives(d, lam)
            if abs(d1 - r) <= tol:
                return lam
            if d1 < r:
                blo = lam
            else:
                bhi = lam
            step = (d1 - r) / d2 if d2 > 0.0 else math.inf
            cand = lam - step
            lam = cand if blo < cand < bhi else 0.5 * (blo + bhi)
        raise NonConvergenceError(
            f"Newton solve for K'(t)={r} did not reach |residual|<={tol} in {_MAX_ITER} iterations"
        )
