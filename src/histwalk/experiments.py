"""Monte Carlo experiment drivers.

Everything here consumes a master seed, fans replicas or grid points out over
independent child streams, and folds results back together in a fixed order,
so identical inputs give identical reports. Speed runs aggregate per-replica
terminal averages with batch-means error bars; the grid experiments wrap raw
counts into slope fits against the matching rate-function values.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .distributions import IncrementDistribution, mean, sample_n
from .errors import AssumptionError, DegenerateEstimateError, ExcessCensoringError, InvalidInputError
from .fitting import SlopeFit, binomial_se, check_grid, check_samples, fit_log_decay, fit_log_growth
from .ratefn import RateFunction
from .simulator import BlockOutcome, run, sample_block_outcomes, sample_exit
from .theory import ModelSpec, predict_limiting_speed, sojourn_exponents

__all__ = [
    "RegimeStats",
    "SimReport",
    "estimate_speed",
    "default_steps_rule",
    "SweepResult",
    "sweep_window",
    "BlockExponentReport",
    "fit_block_exponents",
    "ExitReport",
    "fit_exit_statistics",
    "estimate_persistence_constant",
]

_BATCHES_PER_REPLICA = 32


def _check_seed(master_seed: int) -> int:
    if master_seed < 0:
        raise InvalidInputError(f"master_seed must be a nonnegative integer, got {master_seed}")
    return int(master_seed)


@dataclass(frozen=True)
class RegimeStats:
    """Sojourn statistics for one regime, over completed stays only.

    ``wald_residual`` is the mean of displacement minus (regime mean times
    stay length) across stays; each stay is a sum of draws from the regime's
    own law, so this residual has zero expectation however stays end.
    """

    regime: int
    completed: int
    mean_sojourn: float | None
    mean_displacement: float | None
    exit_up_fraction: float | None
    wald_residual: float | None
    wald_stderr: float | None


@dataclass(frozen=True)
class SimReport:
    version: str
    window: int
    steps: int
    replicas: int
    master_seed: int
    est_speed: float
    stderr: float
    n_batches: int
    regime_occupancy: tuple[float, ...]
    switch_frequencies: tuple[float, ...]
    per_regime: tuple[RegimeStats, ...]
    warnings: tuple[str, ...] = ()


def _batch_boundaries(steps: int) -> np.ndarray:
    ends = np.round(np.linspace(steps / _BATCHES_PER_REPLICA, steps, _BATCHES_PER_REPLICA))
    return np.unique(ends.astype(np.int64))


def _check_steps(steps: int, n: int) -> None:
    """A run must span at least 50 windows."""
    if steps < 50 * n:
        raise InvalidInputError(f"steps={steps} is too short for window {n}; need at least {50 * n}")


def estimate_speed(
    spec: ModelSpec, version: str, steps: int, replicas: int, master_seed: int
) -> SimReport:
    """Estimate the long-run average step from ``replicas`` independent runs.

    The point estimate is total displacement over total steps. Its error bar
    comes from batch means: each run is cut into 32 equal time batches and the
    scatter of per-batch average steps is pooled across replicas, which
    absorbs the strong dependence between steps inside one regime stay.
    Sojourn, displacement and exit-direction statistics use completed stays
    only; a regime with no completed stay is reported with a warning rather
    than an error.
    """

    steps = int(steps)
    replicas = int(replicas)
    master_seed = _check_seed(master_seed)
    _check_steps(steps, spec.window)
    if replicas < 2:
        raise InvalidInputError(f"need at least 2 replicas, got {replicas}")

    bounds = _batch_boundaries(steps)
    nregimes = spec.l + 1
    total_disp = 0.0
    batch_means: list[np.ndarray] = []
    occupancy = np.zeros(nregimes, dtype=np.int64)
    visits = np.zeros(nregimes, dtype=np.int64)
    stay_steps: list[list[int]] = [[] for _ in range(nregimes)]
    stay_disp: list[list[float]] = [[] for _ in range(nregimes)]
    stay_up = np.zeros(nregimes, dtype=np.int64)

    for child in np.random.SeedSequence(master_seed).spawn(replicas):
        res = run(spec, version, steps, np.random.default_rng(child), checkpoint_times=bounds)
        total_disp += res.position
        batch_means.append(np.diff(res.trace.positions, prepend=0.0) / np.diff(bounds, prepend=0))
        for rec in res.records:
            visits[rec.regime] += 1
            occupancy[rec.regime] += rec.steps
            if rec.censored:
                continue
            stay_steps[rec.regime].append(rec.steps)
            stay_disp[rec.regime].append(rec.displacement)
            if rec.exit_direction == "up":
                stay_up[rec.regime] += 1

    pooled = np.concatenate(batch_means)
    est = total_disp / (replicas * steps)
    stderr = float(np.std(pooled, ddof=1) / math.sqrt(pooled.size))

    means = spec.regime_means
    warnings: list[str] = []
    per_regime: list[RegimeStats] = []
    for i in range(nregimes):
        s = np.asarray(stay_steps[i], dtype=float)
        if s.size == 0:
            warnings.append(f"insufficient data: regime {i} has no completed sojourns")
            per_regime.append(RegimeStats(i, 0, None, None, None, None, None))
            continue
        d = np.asarray(stay_disp[i], dtype=float)
        resid = d - means[i] * s
        wald_se = None
        if resid.size >= 2:
            wald_se = float(np.std(resid, ddof=1) / math.sqrt(resid.size))
        else:
            warnings.append(f"insufficient data: regime {i} has a single completed sojourn")
        per_regime.append(
            RegimeStats(
                regime=i,
                completed=int(s.size),
                mean_sojourn=float(s.mean()),
                mean_displacement=float(d.mean()),
                exit_up_fraction=float(stay_up[i] / s.size),
                wald_residual=float(resid.mean()),
                wald_stderr=wald_se,
            )
        )

    return SimReport(
        version=version,
        window=spec.window,
        steps=steps,
        replicas=replicas,
        master_seed=master_seed,
        est_speed=float(est),
        stderr=stderr,
        n_batches=int(pooled.size),
        regime_occupancy=tuple(float(x) for x in occupancy / (replicas * steps)),
        switch_frequencies=tuple(float(x) for x in visits / visits.sum()),
        per_regime=tuple(per_regime),
        warnings=tuple(warnings),
    )


_STEPS_FLOOR = 1_000_000
_STEPS_CAP = 100_000_000


def default_steps_rule(spec: ModelSpec):
    """Step budget per window size: 200 times the longest expected stay.

    The stay length grows exponentially in N at the largest sojourn rate, so
    the budget does too, floored at 1e6 and capped at 1e8 steps. Grids should
    stay below the cap or the largest windows see only a few regime switches.
    """

    rate = max(sojourn_exponents(spec))

    def steps_for(n: int) -> int:
        if n * rate >= math.log(_STEPS_CAP / 200.0) + 1.0:
            return _STEPS_CAP
        return int(min(_STEPS_CAP, max(_STEPS_FLOOR, 200 * round(math.exp(n * rate)))))

    return steps_for


@dataclass(frozen=True)
class SweepResult:
    """Speed estimates across window sizes against one theoretical limit.

    ``monotone_within_noise`` is True when each successive gap to the
    predicted speed is no larger than the previous one plus three combined
    standard errors.
    """

    version: str
    n_grid: tuple[int, ...]
    replicas: int
    master_seed: int
    predicted_speed: float
    steps_used: tuple[int, ...]
    reports: tuple[SimReport, ...]
    gaps: tuple[float, ...]
    final_gap: float
    monotone_within_noise: bool


def sweep_window(
    spec: ModelSpec,
    version: str,
    n_grid,
    replicas: int,
    master_seed: int,
    steps: int | None = None,
) -> SweepResult:
    """Re-estimate the speed over a grid of window sizes and compare each
    estimate to the predicted limit.

    ``spec.window`` is ignored; each grid point replaces it. Each point runs
    ``steps`` steps per replica, or ``default_steps_rule``'s budget when
    ``steps`` is None. The prediction must be untied, otherwise there is no
    single limit to converge to.
    """

    grid = check_grid(n_grid, minimum=1)
    master_seed = _check_seed(master_seed)
    theory = predict_limiting_speed(spec)
    if theory.predicted_speed is None:
        raise AssumptionError(
            "predicted speed is tied between regimes; sweep verdict is undefined"
        )
    if steps is None:
        steps_used = tuple(map(default_steps_rule(spec), grid))
    else:
        steps_used = (int(steps),) * len(grid)
    for n, steps_n in zip(grid, steps_used):
        _check_steps(steps_n, n)

    seeds = np.random.SeedSequence(master_seed).generate_state(len(grid), dtype=np.uint64)
    reports = []
    for n, steps_n, seed in zip(grid, steps_used, seeds):
        spec_n = dataclasses.replace(spec, window=n)
        reports.append(estimate_speed(spec_n, version, steps_n, replicas, int(seed)))

    gaps = [abs(rep.est_speed - theory.predicted_speed) for rep in reports]
    monotone = True
    for k in range(len(gaps) - 1):
        slack = 3.0 * math.hypot(reports[k].stderr, reports[k + 1].stderr)
        if gaps[k + 1] > gaps[k] + slack:
            monotone = False
    return SweepResult(
        version=version,
        n_grid=grid,
        replicas=int(replicas),
        master_seed=master_seed,
        predicted_speed=theory.predicted_speed,
        steps_used=steps_used,
        reports=tuple(reports),
        gaps=tuple(gaps),
        final_gap=gaps[-1],
        monotone_within_noise=monotone,
    )


def _check_law_grid(d, r_lo, r_hi, n_grid, samples_per_n, master_seed):
    """Input checks shared by the single-law grid fits.

    Returns the checked grid, sample count and seed, then the rate function
    of ``d`` at ``r_lo`` and ``r_hi``, which must both be finite.
    """
    if not r_lo < r_hi:
        raise InvalidInputError(f"need r_lo < r_hi, got ({r_lo}, {r_hi})")
    grid = check_grid(n_grid)
    samples_per_n = check_samples(samples_per_n)
    master_seed = _check_seed(master_seed)
    rate = RateFunction(d)
    i_lo = rate.evaluate(r_lo)
    i_hi = rate.evaluate(r_hi)
    if not (math.isfinite(i_lo) and math.isfinite(i_hi)):
        raise InvalidInputError(
            f"rate function must be finite at both thresholds, got I(lo)={i_lo}, I(hi)={i_hi}"
        )
    return grid, samples_per_n, master_seed, i_lo, i_hi


@dataclass(frozen=True)
class BlockExponentReport:
    """Decay rates of the three crossing outcomes of a fresh increment block.

    ``up`` and ``down`` carry targets from the rate function at the matching
    threshold. The doubly-crossing outcome only admits a one-sided statement:
    its fitted slope should exceed both single-crossing slopes, and its target
    is an upper-bound rate, never matched two-sided. When that outcome was too
    rare to fit, ``both`` is None and a warning says so.
    """

    r_lo: float
    r_hi: float
    n_grid: tuple[int, ...]
    samples_per_n: int
    master_seed: int
    up: SlopeFit
    down: SlopeFit
    both: SlopeFit | None
    both_dominates_singles: bool | None
    warnings: tuple[str, ...] = ()


def fit_block_exponents(
    d: IncrementDistribution,
    r_lo: float,
    r_hi: float,
    n_grid,
    samples_per_n: int,
    master_seed: int,
) -> BlockExponentReport:
    grid, samples_per_n, master_seed, i_lo, i_hi = _check_law_grid(
        d, r_lo, r_hi, n_grid, samples_per_n, master_seed
    )
    counts = {out: [] for out in (BlockOutcome.UP, BlockOutcome.DOWN, BlockOutcome.BOTH)}
    for n, child in zip(grid, np.random.SeedSequence(master_seed).spawn(len(grid))):
        tally = sample_block_outcomes(d, r_lo, r_hi, n, np.random.default_rng(child), samples_per_n)
        for out in counts:
            counts[out].append(tally[out])

    def probs(out: BlockOutcome) -> tuple[np.ndarray, np.ndarray]:
        p = np.asarray(counts[out], dtype=float) / samples_per_n
        return p, binomial_se(p, samples_per_n)

    p_up, se_up = probs(BlockOutcome.UP)
    p_dn, se_dn = probs(BlockOutcome.DOWN)
    p_bo, se_bo = probs(BlockOutcome.BOTH)
    up = fit_log_decay(grid, p_up, se_up, target=i_hi)
    down = fit_log_decay(grid, p_dn, se_dn, target=i_lo)
    warnings: list[str] = []
    both = None
    dominates = None
    try:
        both = fit_log_decay(grid, p_bo, se_bo, target=i_lo + i_hi)
    except DegenerateEstimateError:
        warnings.append("doubly-crossing outcome too rare to fit a slope")
    if both is not None:
        floor = max(up.slope, down.slope)
        floor_se = max(up.slope_se, down.slope_se)
        dominates = bool(both.slope >= floor - 3.0 * math.hypot(both.slope_se, floor_se))
    return BlockExponentReport(
        r_lo=float(r_lo),
        r_hi=float(r_hi),
        n_grid=grid,
        samples_per_n=samples_per_n,
        master_seed=master_seed,
        up=up,
        down=down,
        both=both,
        both_dominates_singles=dominates,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class ExitReport:
    """How a fresh stay between two thresholds ends, across window sizes.

    ``exit_down`` fits the decay of the downward-exit probability; its target
    is the positive part of the rate difference, which is zero when downward
    exits stay likely. ``mean_stay`` fits the growth of the mean exit time
    against the smaller of the two rates.
    """

    r_lo: float
    r_hi: float
    n_grid: tuple[int, ...]
    samples_per_n: int
    cap: int
    master_seed: int
    exit_down: SlopeFit
    mean_stay: SlopeFit
    censored_fractions: tuple[float, ...]


def fit_exit_statistics(
    d: IncrementDistribution,
    r_lo: float,
    r_hi: float,
    n_grid,
    samples_per_n: int,
    cap: int,
    master_seed: int,
) -> ExitReport:
    grid, samples_per_n, master_seed, i_lo, i_hi = _check_law_grid(
        d, r_lo, r_hi, n_grid, samples_per_n, master_seed
    )
    cap = int(cap)
    if cap < grid[-1]:
        raise InvalidInputError(f"cap={cap} is below the largest window {grid[-1]}")
    p_down = np.empty(len(grid))
    se_down = np.empty(len(grid))
    mean_stay = np.empty(len(grid))
    se_stay = np.empty(len(grid))
    censored_fracs = []
    for k, (n, child) in enumerate(zip(grid, np.random.SeedSequence(master_seed).spawn(len(grid)))):
        rng = np.random.default_rng(child)
        stays = []
        downs = 0
        censored = 0
        for _ in range(samples_per_n):
            rec = sample_exit(d, r_lo, r_hi, n, rng, cap=cap)
            if rec.censored:
                censored += 1
                continue
            stays.append(rec.steps - n)
            if rec.exit_direction == "down":
                downs += 1
        frac = censored / samples_per_n
        censored_fracs.append(frac)
        if frac > 0.05:
            raise ExcessCensoringError(
                f"{frac:.1%} of stays at N={n} hit the {cap}-step cap; raise the cap"
            )
        m = len(stays)
        stays_arr = np.asarray(stays, dtype=float)
        p_down[k] = downs / m
        se_down[k] = binomial_se(p_down[k], m)
        mean_stay[k] = stays_arr.mean()
        se_stay[k] = float(np.std(stays_arr, ddof=1) / math.sqrt(m)) if m >= 2 else 0.0

    target_down = max(0.0, i_lo - i_hi)
    return ExitReport(
        r_lo=float(r_lo),
        r_hi=float(r_hi),
        n_grid=grid,
        samples_per_n=samples_per_n,
        cap=cap,
        master_seed=master_seed,
        exit_down=fit_log_decay(grid, p_down, se_down, target=target_down),
        mean_stay=fit_log_growth(grid, mean_stay, se_stay, target=min(i_lo, i_hi)),
        censored_fractions=tuple(censored_fracs),
    )


_PERSIST_CHUNK_ELEMENTS = 1 << 22


def _persistence_profile(d, r: float, horizon: int, samples: int, rng) -> float:
    """Fraction of ``samples`` running-mean paths that stay at or above ``r``
    up to ``horizon``. Dead paths are dropped as soon as any prefix mean falls
    below ``r``, keeping memory proportional to the number of survivors.
    """

    sums = np.zeros(samples)
    t = 0
    while t < horizon and sums.size:
        width = min(horizon - t, max(1, _PERSIST_CHUNK_ELEMENTS // sums.size))
        draws = sample_n(d, sums.size * width, rng).reshape(sums.size, width)
        trail = sums[:, None] + np.cumsum(draws, axis=1)
        ok = np.all(trail >= r * np.arange(t + 1, t + width + 1), axis=1)
        sums = trail[ok, -1]
        t += width
    return sums.size / samples


def estimate_persistence_constant(
    d: IncrementDistribution, r: float, horizon: int, samples: int, master_seed: int
) -> float:
    """Fraction of walks whose running mean stays at or above ``r`` for every
    step up to ``horizon``.

    This upper-bounds the infinite-horizon staying probability and decreases
    toward it as the horizon grows; it is a diagnostic, not an estimator with
    error bars.
    """

    if not r < mean(d):
        raise AssumptionError(f"need r strictly below the mean {mean(d)}, got r={r}")
    horizon = int(horizon)
    samples = int(samples)
    if horizon < 1 or samples < 1:
        raise InvalidInputError("horizon and samples must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(_check_seed(master_seed)))
    return _persistence_profile(d, r, horizon, samples, rng)
