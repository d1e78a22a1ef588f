"""Model descriptions and closed-form speed predictions.

A model is a ladder of l+1 increment laws with strictly increasing means and
l thresholds interlacing those means. The walk's long-run speed is decided by
per-regime exponents built from the laws' rate functions evaluated at the
neighbouring thresholds, all reported by ``predict_limiting_speed``:

* ``RegimeExponents.up_exp``/``down_exp``: decay rates of the chain's moves;
* ``RegimeExponents.sojourn_exp``: growth rate of the expected time per visit;
* ``RegimeExponents.nu_exp``: growth rate of the chain's stationary weight,
  obtained by telescoping detailed balance;
* ``TheoryReport.lambdas``: the dominance exponents, each regime's combined
  weight in the speed formula. The regime with the strictly largest one wins
  and its mean is the predicted limiting speed; ties are reported, never guessed.

All exponents are exact functions of the model (no Monte Carlo here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

from .distributions import IncrementDistribution, _law, mean, tail_prob
from .errors import AssumptionError, InvalidChainError, InvalidInputError, _integer, _real
from .ratefn import RateFunction

__all__ = [
    "VERSIONS",
    "ModelSpec",
    "ValidationReport",
    "RegimeExponents",
    "TheoryReport",
    "validate",
    "threshold_bounds",
    "invariant_distribution",
    "speed_formula",
    "predict_limiting_speed",
]

# the two switching rules, delayed first, by the names that configs and the CLI use
VERSIONS = ("delayed", "instantaneous")


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model description.

    ``dists`` has l+1 entries, ``thresholds`` has l (strictly increasing).
    ``window`` is the history length N; ``initial_regime`` picks the law used
    for the first N steps. Structural shape is enforced here; the standing
    assumptions (mean interlacing, reachable thresholds) are checked by
    ``validate`` so that failures can be reported rather than thrown.
    """

    dists: tuple[IncrementDistribution, ...]
    thresholds: tuple[float, ...]
    window: int
    initial_regime: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dists", tuple(_law(f"dists[{i}]", d) for i, d in enumerate(self.dists)))
        thresholds = tuple(self.thresholds)
        if not all(map(_real, thresholds)):
            raise InvalidInputError(f"thresholds must be numbers, got {thresholds}")
        object.__setattr__(self, "thresholds", tuple(map(float, thresholds)))
        if len(self.thresholds) < 1:
            raise InvalidInputError("need at least one threshold")
        if len(self.dists) != len(self.thresholds) + 1:
            raise InvalidInputError(
                f"{len(self.thresholds)} thresholds require {len(self.thresholds) + 1} laws, got {len(self.dists)}"
            )
        if any(not math.isfinite(r) for r in self.thresholds):
            raise InvalidInputError("thresholds must be finite")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise InvalidInputError(f"thresholds must be strictly increasing, got {self.thresholds}")
        object.__setattr__(self, "window", _integer("window", self.window, 1))
        object.__setattr__(self, "initial_regime", _integer("initial_regime", self.initial_regime, 0, self.l))

    @property
    def l(self) -> int:
        return len(self.thresholds)

    @property
    def regime_means(self) -> tuple[float, ...]:
        return tuple(mean(d) for d in self.dists)


def threshold_bounds(spec: ModelSpec, i: int) -> tuple[float, float]:
    """Regime i keeps its law while the window average stays in [lo, hi).

    The outermost bounds are the infinite sentinels: regime 0 cannot move
    down, regime l cannot move up.
    """
    if not (0 <= i <= spec.l):
        raise InvalidInputError(f"regime index {i} out of range for l={spec.l}")
    lo = -math.inf if i == 0 else spec.thresholds[i - 1]
    hi = math.inf if i == spec.l else spec.thresholds[i]
    return (lo, hi)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the standing-assumption checks, with human-readable details."""

    mean_ordering: bool
    tail_support: bool
    light_tails: bool
    details: tuple[str, ...] = ()
    passed: bool = field(init=False)  # all three checks hold; derived, never given

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", self.mean_ordering and self.tail_support and self.light_tails)


def validate(spec: ModelSpec) -> ValidationReport:
    """Check the assumptions under which the speed prediction is proved.

    * mean ordering: mu_0 < r_1 < mu_1 < ... < r_l < mu_l;
    * tail support: each regime has positive probability of producing window
      averages beyond the thresholds it must be able to cross (regime i can
      fall below its lower threshold and climb above its upper one);
    * light tails: every law has finite exponential moments of all orders
      (automatic for the supported families, recorded for completeness).
    """
    details: list[str] = []
    means = spec.regime_means
    ordering = True
    for i in range(spec.l):
        if not (means[i] < spec.thresholds[i] < means[i + 1]):
            ordering = False
            details.append(
                f"threshold {spec.thresholds[i]} must lie strictly between mean({i})={means[i]} and mean({i + 1})={means[i + 1]}"
            )
    support = True
    for i in range(spec.l + 1):
        lo, hi = threshold_bounds(spec, i)
        if i > 0 and tail_prob(spec.dists[i], lo, "lt") <= 0.0:
            support = False
            details.append(f"regime {i} has zero mass below its lower threshold {lo}; it could never move down")
        if i < spec.l and tail_prob(spec.dists[i], hi, "ge") <= 0.0:
            support = False
            details.append(f"regime {i} has zero mass at or above its upper threshold {hi}; it could never move up")
    return ValidationReport(mean_ordering=ordering, tail_support=support, light_tails=True,
                            details=tuple(details))


def _rate_values(spec: ModelSpec):
    """I_i evaluated at the lower/upper thresholds of each regime (None at sentinels)."""
    rates = [RateFunction(d) for d in spec.dists]
    at_lower = [None] + [rates[i].evaluate(spec.thresholds[i - 1]) for i in range(1, spec.l + 1)]
    at_upper = [rates[i].evaluate(spec.thresholds[i]) for i in range(spec.l)] + [None]
    return at_lower, at_upper


def _exponents(spec: ModelSpec):
    """Dominance, (ups, downs), sojourn and invariant exponents, all derived
    from one evaluation of the rate functions at the thresholds."""
    at_lower, at_upper = _rate_values(spec)
    l = spec.l
    lam = [at_upper[0]]
    ups: list = [0.0] + [None] * l
    downs: list = [None] * l + [0.0]
    sojourn = [at_upper[0]]
    prefix = 0.0
    for i in range(1, l):
        prefix += at_lower[i] - at_upper[i]
        lam.append(at_upper[i] + prefix)
        ups[i] = max(at_upper[i] - at_lower[i], 0.0)
        downs[i] = max(at_lower[i] - at_upper[i], 0.0)
        sojourn.append(min(at_lower[i], at_upper[i]))
    lam.append(at_lower[l] + prefix)
    sojourn.append(at_lower[l])
    nu = [0.0]
    for i in range(1, l + 1):
        nu.append(nu[-1] + downs[i] - ups[i - 1])
    return tuple(lam), (tuple(ups), tuple(downs)), tuple(sojourn), tuple(nu)


def invariant_distribution(up_probs, down_probs) -> tuple[float, ...]:
    """Stationary law of a birth-death regime chain from its move probabilities.

    ``up_probs[i]`` is the chance regime i hands off upward (i = 0..l-1) and
    ``down_probs[i-1]`` the chance regime i hands off downward (i = 1..l).
    Accepts exact values or Monte Carlo estimates. Computed by telescoping
    detailed balance in log space, then normalising.
    """
    up = tuple(float(p) for p in up_probs)
    down = tuple(float(p) for p in down_probs)
    if len(up) == 0 or len(up) != len(down):
        raise InvalidChainError(f"need equal, non-empty up/down lists, got {len(up)} and {len(down)}")
    for p in up + down:
        if not (0.0 < p <= 1.0):
            raise InvalidChainError(f"move probabilities must lie in (0, 1], got {p}")
    logw = list(accumulate((math.log(u) - math.log(d) for u, d in zip(up, down)), initial=0.0))
    top = max(logw)
    w = [math.exp(x - top) for x in logw]
    total = sum(w)
    return tuple(x / total for x in w)


def speed_formula(nu, mean_sojourn_steps, mean_displacements) -> float:
    """Long-run speed of a regime-switching walk from per-regime statistics.

    nu weights each regime by visit frequency; the speed is total expected
    displacement per cycle over total expected duration. Scale of nu cancels.
    Every entry must be a finite number.
    """
    try:
        nu, steps, disp = (tuple(map(float, xs)) for xs in (nu, mean_sojourn_steps, mean_displacements))
    except (TypeError, ValueError) as err:
        raise InvalidInputError(f"nu, sojourn steps and displacements must be sequences of numbers: {err}") from err
    if not (len(nu) == len(steps) == len(disp)) or not nu:
        raise InvalidInputError("nu, sojourn steps and displacements must be equal-length 1-D sequences")
    if not all(map(math.isfinite, nu + steps + disp)):
        raise InvalidInputError("nu, sojourn steps and displacements must be finite")
    if any(x < 0 for x in nu) or any(s <= 0 for s in steps):
        raise InvalidInputError("nu must be nonnegative and sojourn steps positive")
    denom = sum(x * s for x, s in zip(nu, steps))
    if denom <= 0.0:
        raise InvalidInputError("total expected duration must be positive")
    return sum(x * y for x, y in zip(nu, disp)) / denom


@dataclass(frozen=True)
class RegimeExponents:
    """One regime's exponents: its up/down moves (None where that direction
    does not exist), its sojourn growth and its stationary weight's growth."""

    up_exp: float | None
    down_exp: float | None
    sojourn_exp: float
    nu_exp: float


# dominance exponents this close to the largest tie with it
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class TheoryReport:
    """Everything the exponent calculus says about one model."""

    lambdas: tuple[float, ...]
    argmax: tuple[int, ...]
    predicted_speed: float | None
    regime_means: tuple[float, ...]
    per_regime: tuple[RegimeExponents, ...]
    tie_tol: float
    warnings: tuple[str, ...] = ()


def predict_limiting_speed(spec: ModelSpec) -> TheoryReport:
    """Predict the walk's long-run speed from the model alone.

    Raises AssumptionError if the model fails validation. When two or more
    dominance exponents agree within ``_TIE_TOL``, reported as ``tie_tol``,
    the prediction is withheld (``predicted_speed`` is None) and the tie is
    reported in ``warnings``.
    """
    report = validate(spec)
    if not report.passed:
        raise AssumptionError("; ".join(report.details) or "model failed validation")
    lam, (ups, downs), sojourn, nu = _exponents(spec)
    warnings: list[str] = []
    top = max(lam)
    argmax = tuple(i for i, v in enumerate(lam) if top - v <= _TIE_TOL)
    means = spec.regime_means
    if len(argmax) == 1:
        speed = means[argmax[0]]
    else:
        speed = None
        warnings.append(
            f"dominance exponents tie within {_TIE_TOL} between regimes {list(argmax)}; no speed predicted"
        )
    per_regime = tuple(RegimeExponents(*exps) for exps in zip(ups, downs, sojourn, nu))
    return TheoryReport(
        lambdas=lam,
        argmax=argmax,
        predicted_speed=speed,
        regime_means=means,
        per_regime=per_regime,
        tie_tol=_TIE_TOL,
        warnings=tuple(warnings),
    )
