"""Oracle tests for the Monte Carlo drivers.

The speed estimator is checked against a near-deterministic two-regime
oscillator whose occupancy and sojourn statistics are known exactly, the
block and persistence estimators against exhaustive enumeration of short
Rademacher strings, and the slope fits against closed-form rate values.
"""

import atexit
import itertools
import json
import math
import os
import pickle
import signal
import sys
import tempfile
import threading
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedRNG, wait_for
from histwalk import experiments
from histwalk.distributions import FiniteDiscrete, Gaussian, Rademacher, tail_prob
from histwalk.errors import (
    AssumptionError,
    DegenerateEstimateError,
    ExcessCensoringError,
    InvalidInputError,
)
from histwalk.experiments import (
    default_steps_rule,
    estimate_persistence_constant,
    estimate_speed,
    fit_block_exponents,
    fit_exit_statistics,
    sweep_window,
    verify_cramer_slope,
)
from histwalk.ratefn import RateFunction
from histwalk.simulator import sample_block_outcomes, sample_exit
from histwalk.theory import ModelSpec, speed_formula


def l1_gaussian(window=10):
    return ModelSpec(
        dists=(Gaussian(0.0, 1.0), Gaussian(1.0, 1.0)),
        thresholds=(0.4,),
        window=window,
        initial_regime=0,
    )


def near_flip_spec():
    # regime 0 steps ~0.75 (window avg above 0.5, exits up), regime 1 steps
    # ~0.25 (exits down); the walk oscillates with period 4 at window 2
    eps = 1e-9
    hi = FiniteDiscrete(atoms=(0.75 - eps, 0.75 + eps), weights=(0.5, 0.5))
    lo = FiniteDiscrete(atoms=(0.25 - eps, 0.25 + eps), weights=(0.5, 0.5))
    return ModelSpec(dists=(hi, lo), thresholds=(0.5,), window=2, initial_regime=0)


class TestEstimateSpeed:
    def test_near_point_mass_oscillator_is_exact(self):
        rep = estimate_speed(near_flip_spec(), "delayed", 400, 2, 5)
        assert abs(rep.est_speed - 0.5) < 1e-6
        assert rep.regime_occupancy == pytest.approx((0.5, 0.5), abs=1e-12)
        assert rep.switch_frequencies == pytest.approx((0.5, 0.5), abs=1e-12)
        assert rep.per_regime[0].exit_up_fraction == 1.0
        assert rep.per_regime[1].exit_up_fraction == 0.0
        assert rep.per_regime[0].mean_sojourn == pytest.approx(2.0, abs=1e-12)
        assert rep.per_regime[1].mean_sojourn == pytest.approx(2.0, abs=1e-12)
        for stats in rep.per_regime:
            assert abs(stats.wald_residual) < 1e-7
        recon = speed_formula(
            rep.switch_frequencies,
            tuple(s.mean_sojourn for s in rep.per_regime),
            tuple(s.mean_displacement for s in rep.per_regime),
        )
        assert abs(recon - rep.est_speed) < 1e-6
        assert rep.warnings == ()

    def test_gaussian_report_statistics(self):
        rep = estimate_speed(l1_gaussian(), "delayed", 200_000, 3, 42)
        assert math.isclose(sum(rep.regime_occupancy), 1.0, abs_tol=1e-9)
        assert math.isclose(sum(rep.switch_frequencies), 1.0, abs_tol=1e-12)
        assert rep.stderr > 0.0
        assert rep.n_batches == 32 * 3
        # one threshold: regime 0 can only leave upward, regime 1 downward
        assert rep.per_regime[0].exit_up_fraction == 1.0
        assert rep.per_regime[1].exit_up_fraction == 0.0
        # the regime sequence alternates, so visit counts differ by at most
        # one per replica
        v0, v1 = rep.switch_frequencies
        total = sum(s.completed for s in rep.per_regime) + 3
        assert abs(v0 - v1) <= 3.0 / total + 1e-12

    def test_wald_residuals_vanish_within_errors(self):
        rep = estimate_speed(l1_gaussian(), "delayed", 200_000, 3, 42)
        for stats in rep.per_regime:
            assert stats.completed > 1000
            assert abs(stats.wald_residual) <= 3.0 * stats.wald_stderr

    def test_speed_reconstructs_from_sojourn_components(self):
        rep = estimate_speed(l1_gaussian(), "delayed", 200_000, 3, 42)
        recon = speed_formula(
            rep.switch_frequencies,
            tuple(s.mean_sojourn for s in rep.per_regime),
            tuple(s.mean_displacement for s in rep.per_regime),
        )
        assert abs(recon - rep.est_speed) <= 3.0 * rep.stderr

    def test_unreachable_regime_warns_instead_of_raising(self):
        spec = ModelSpec(
            dists=(Gaussian(0.0, 0.01), Gaussian(5.0, 0.01)),
            thresholds=(2.5,),
            window=2,
            initial_regime=0,
        )
        rep = estimate_speed(spec, "delayed", 500, 2, 9)
        assert any("regime 0" in w for w in rep.warnings)
        assert any("regime 1" in w for w in rep.warnings)
        assert rep.per_regime[0].completed == 0
        assert rep.per_regime[1].mean_sojourn is None
        assert rep.switch_frequencies == (1.0, 0.0)
        assert rep.regime_occupancy == (1.0, 0.0)
        assert abs(rep.est_speed) < 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steps": 99},
            {"replicas": 1},
            {"master_seed": -1},
            {"version": "sofort"},
            # counts that are not whole numbers are refused, not truncated
            {"steps": 5_000.9},
            {"replicas": 2.9},
            {"master_seed": 1.5},
            {"steps": math.nan},
            {"replicas": math.inf},
            {"master_seed": math.nan},
            {"steps": "5000"},
            # past 2**53 a float no longer holds every batch boundary
            {"steps": 10**20},
            # bools, which int() would take as seed 0
            {"master_seed": False},
            {"master_seed": np.True_},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        args = {"version": "delayed", "steps": 5_000, "replicas": 2, "master_seed": 0}
        args.update(kwargs)
        with pytest.raises(InvalidInputError):
            estimate_speed(near_flip_spec(), **args)

    def test_whole_floats_are_taken_as_counts(self):
        a = estimate_speed(near_flip_spec(), "delayed", 5_000.0, 2.0, 4.0)
        b = estimate_speed(near_flip_spec(), "delayed", 5_000, 2, 4)
        assert (a.steps, a.replicas, a.master_seed) == (5_000, 2, 4)
        assert json.dumps(asdict(a), sort_keys=True) == json.dumps(asdict(b), sort_keys=True)

    def test_reports_are_reproducible(self):
        a = estimate_speed(l1_gaussian(), "instantaneous", 30_000, 2, 77)
        b = estimate_speed(l1_gaussian(), "instantaneous", 30_000, 2, 77)
        assert json.dumps(asdict(a), sort_keys=True) == json.dumps(asdict(b), sort_keys=True)
        c = estimate_speed(l1_gaussian(), "instantaneous", 30_000, 2, 78)
        assert c.est_speed != a.est_speed


@given(st.integers(min_value=50, max_value=10_000_000))
@settings(max_examples=60, deadline=None)
def test_batch_boundaries_partition_the_run(steps):
    bounds = experiments._batch_boundaries(steps)
    assert bounds[-1] == steps
    assert bounds[0] >= 1
    assert np.all(np.diff(bounds) >= 1)
    assert len(bounds) <= 32


class TestStepsRule:
    def test_matches_hand_computed_budgets(self):
        rule = default_steps_rule(l1_gaussian())
        # largest sojourn rate of this model is 0.18, from the upper regime
        assert rule(10) == 1_000_000
        assert rule(60) == 200 * 49_021
        assert rule(70) == 200 * 296_559
        assert rule(90) == 100_000_000

    def test_huge_windows_do_not_overflow(self):
        rule = default_steps_rule(l1_gaussian())
        assert rule(10**6) == 100_000_000

    def test_invalid_model_is_rejected(self):
        # the rule reads the sojourn exponents off the prediction, which
        # refuses a model whose means do not interlace its threshold
        spec = ModelSpec(
            dists=(Gaussian(0.0, 1.0), Gaussian(0.0, 1.0)),
            thresholds=(0.0,),
            window=4,
            initial_regime=0,
        )
        with pytest.raises(AssumptionError):
            default_steps_rule(spec)


class TestSweepWindow:
    def test_small_sweep_against_known_limit(self):
        sw = sweep_window(l1_gaussian(), "delayed", (4, 6, 8), 2, 7, steps=50_000)
        assert sw.predicted_speed == 1.0
        assert sw.n_grid == (4, 6, 8)
        assert sw.steps_used == (50_000,) * 3
        assert [r.window for r in sw.reports] == [4, 6, 8]
        for rep, gap in zip(sw.reports, sw.gaps):
            assert gap == abs(rep.est_speed - 1.0)
        assert sw.final_gap == sw.gaps[-1]
        expect_monotone = all(
            sw.gaps[k + 1] <= sw.gaps[k] + 3.0 * math.hypot(sw.reports[k].stderr, sw.reports[k + 1].stderr)
            for k in range(len(sw.gaps) - 1)
        )
        assert sw.monotone_within_noise == expect_monotone
        assert len(sw.reports) == len(sw.gaps) == len(sw.n_grid)

    def test_both_versions_share_the_predicted_limit(self):
        a = sweep_window(l1_gaussian(), "delayed", (4,), 2, 3, steps=20_000)
        b = sweep_window(l1_gaussian(), "instantaneous", (4,), 2, 3, steps=20_000)
        assert a.predicted_speed == b.predicted_speed == 1.0

    def test_sweep_is_reproducible(self):
        kw = {"steps": 20_000}
        a = sweep_window(l1_gaussian(), "delayed", (4, 6), 2, 19, **kw)
        b = sweep_window(l1_gaussian(), "delayed", (4, 6), 2, 19, **kw)
        assert json.dumps(asdict(a), sort_keys=True) == json.dumps(asdict(b), sort_keys=True)

    def test_tied_prediction_is_rejected(self):
        spec = ModelSpec(
            dists=(Gaussian(0.0, 1.0), Gaussian(1.0, 1.0), Gaussian(2.0, 1.0)),
            thresholds=(0.5, 1.5),
            window=4,
            initial_regime=0,
        )
        with pytest.raises(AssumptionError):
            sweep_window(spec, "delayed", (4, 6), 2, 0, steps=10_000)

    def test_invalid_model_is_rejected(self):
        spec = ModelSpec(
            dists=(Gaussian(0.0, 1.0), Gaussian(0.0, 1.0)),
            thresholds=(0.0,),
            window=4,
            initial_regime=0,
        )
        with pytest.raises(AssumptionError):
            sweep_window(spec, "delayed", (4, 6), 2, 0, steps=10_000)

    def test_grid_must_increase(self):
        with pytest.raises(InvalidInputError):
            sweep_window(l1_gaussian(), "delayed", (4, 4), 2, 0, steps=10_000)
        with pytest.raises(InvalidInputError):
            sweep_window(l1_gaussian(), "delayed", (), 2, 0, steps=10_000)

    @pytest.mark.parametrize(
        "grid, steps", [((4, 5.5), 10_000), ((4, math.nan), 10_000), ((4, 6), 10_000.5), ((4, 6), 10**20)]
    )
    def test_grid_and_steps_must_be_whole(self, grid, steps):
        with pytest.raises(InvalidInputError):
            sweep_window(l1_gaussian(), "delayed", grid, 2, 0, steps=steps)

    def test_every_step_budget_is_checked_before_the_first_run(self, monkeypatch):
        calls = []
        real_run = experiments.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(experiments, "run", counting_run)
        with pytest.raises(InvalidInputError, match=r"steps must be an integer in \[50000, \d+\], got 2000$"):
            sweep_window(l1_gaussian(), "delayed", (10, 20, 1000), 2, 1, steps=2000)
        assert calls == []


def exact_block_probs(p, r_lo, r_hi, n):
    """Enumerate all +-1 strings of one block and add up outcome weights."""
    up = down = both = 0.0
    for bits in itertools.product((1, -1), repeat=2 * n - 1):
        w = 1.0
        for b in bits:
            w *= p if b == 1 else 1.0 - p
        sums = [sum(bits[j:j + n]) for j in range(n)]
        hit_up = max(sums) >= n * r_hi
        hit_dn = min(sums) < n * r_lo
        if hit_up and hit_dn:
            both += w
        elif hit_up:
            up += w
        elif hit_dn:
            down += w
    return up, down, both


def ols_slope(ns, values, sign):
    x = np.asarray(ns, dtype=float)
    y = sign * np.log(values)
    return float(np.polyfit(x, y, 1)[0])


class TestBlockExponents:
    def test_estimates_match_exhaustive_enumeration(self):
        # the doubly-crossing outcome needs N >= 4 here: on the +-1 lattice a
        # shorter block cannot fit both an up-crossing and a down-crossing
        p, lo, hi = 0.6, -0.5, 0.5
        grid = (4, 5, 6)
        rep = fit_block_exponents(Rademacher(p), lo, hi, grid, 150_000, 11)
        exact = {n: exact_block_probs(p, lo, hi, n) for n in grid}
        for k, fit in enumerate((rep.up, rep.down, rep.both)):
            assert fit.dropped_ns == ()
            for n, value, se in zip(fit.ns, fit.values, fit.stderrs):
                assert abs(value - exact[n][k]) <= 4.0 * se + 1e-12
        exact_up_slope = ols_slope(grid, [exact[n][0] for n in grid], -1)
        assert abs(rep.up.slope - exact_up_slope) <= 4.0 * rep.up.slope_se
        assert rep.both.target == pytest.approx(rep.up.target + rep.down.target, abs=1e-12)

    def test_targets_come_from_the_rate_function(self):
        rep = fit_block_exponents(Rademacher(0.6), -0.5, 0.5, (2, 3, 4), 1_000, 0)
        q = 0.75  # (1 + 0.5) / 2
        up_target = q * math.log(q / 0.6) + (1 - q) * math.log((1 - q) / 0.4)
        dn_target = q * math.log(q / 0.4) + (1 - q) * math.log((1 - q) / 0.6)
        assert rep.up.target == pytest.approx(up_target, abs=1e-10)
        assert rep.down.target == pytest.approx(dn_target, abs=1e-10)

    def test_symmetric_law_gives_equal_slopes(self):
        # a continuous symmetric law; on a lattice the half-open threshold
        # rule genuinely breaks the up/down symmetry
        rep = fit_block_exponents(Gaussian(0.0, 1.0), -0.5, 0.5, (4, 8, 12), 100_000, 13)
        joint = math.hypot(rep.up.slope_se, rep.down.slope_se)
        assert abs(rep.up.slope - rep.down.slope) <= 3.0 * joint

    def test_double_crossing_decays_faster_than_singles(self):
        rep = fit_block_exponents(Gaussian(1.0, 1.0), 0.4, 1.6, (6, 10, 14), 100_000, 3)
        assert rep.both is not None
        assert rep.both_dominates_singles is True
        assert rep.both.slope > max(rep.up.slope, rep.down.slope)

    def test_impossible_double_crossing_is_reported_not_raised(self):
        # inside one block of 2N-1 steps, windows at N <= 3 cannot reach +N
        # and -N with only 2N-1 signs available
        rep = fit_block_exponents(Rademacher(0.5), -0.5, 0.5, (1, 2, 3), 5_000, 1)
        assert rep.both is None
        assert rep.both_dominates_singles is None
        assert any("too rare" in w for w in rep.warnings)
        assert rep.up.slope > 0.0

    def test_starved_grid_raises_degenerate(self):
        with pytest.raises(DegenerateEstimateError):
            fit_block_exponents(Gaussian(1.0, 1.0), 0.4, 1.6, (40, 50, 60), 200, 0)

    @pytest.mark.parametrize(
        "args",
        [
            {"r_lo": 0.5, "r_hi": -0.5},
            {"n_grid": (2, 3)},
            {"samples_per_n": 0},
            {"master_seed": -1},
            {"r_hi": 1.5},
            {"n_grid": (2, 3.5, 4)},
            {"samples_per_n": 100.5},
            {"master_seed": math.inf},
        ],
    )
    def test_rejects_bad_arguments(self, args):
        kw = {
            "d": Rademacher(0.5),
            "r_lo": -0.5,
            "r_hi": 0.5,
            "n_grid": (2, 3, 4),
            "samples_per_n": 100,
            "master_seed": 0,
        }
        kw.update(args)
        with pytest.raises(InvalidInputError):
            fit_block_exponents(**kw)


class TestExitStatistics:
    def test_symmetric_thresholds_split_exits_evenly(self):
        rep = fit_exit_statistics(Gaussian(1.0, 1.0), 0.4, 1.6, (10, 20, 30), 5_000, 1_000_000, 1)
        assert rep.exit_down.target == 0.0
        for value, se in zip(rep.exit_down.values, rep.exit_down.stderrs):
            assert abs(value - 0.5) <= 4.0 * se + 0.01
        assert abs(rep.exit_down.slope) <= 0.01
        assert rep.censored_fractions == (0.0, 0.0, 0.0)

    def test_mean_stay_grows_at_the_smaller_rate(self):
        rep = fit_exit_statistics(Gaussian(1.0, 1.0), 0.4, 1.6, (10, 20, 30), 5_000, 1_000_000, 1)
        assert rep.mean_stay.target == pytest.approx(0.18, abs=1e-12)
        assert abs(rep.mean_stay.slope - 0.18) <= 0.25 * 0.18
        # stays lengthen monotonically across this grid
        assert rep.mean_stay.values[0] < rep.mean_stay.values[1] < rep.mean_stay.values[2]

    def test_unbalanced_rates_keep_the_likely_exit_flat(self):
        # I(0.6) = 0.08 < I(1.8) = 0.32, so downward exits stay dominant
        rep = fit_exit_statistics(Gaussian(1.0, 1.0), 0.6, 1.8, (6, 10, 14), 2_000, 1_000_000, 4)
        assert rep.exit_down.target == 0.0
        assert abs(rep.exit_down.slope) <= 0.05
        assert all(v >= 0.7 for v in rep.exit_down.values)

    def test_tight_cap_raises_excess_censoring(self, monkeypatch):
        # the error names the smallest censored window, though the largest run first
        use_cpus(monkeypatch, 2)
        cases = [
            # every window is censored
            ((Gaussian(0.0, 1.0), -5.0, 5.0, (2, 3, 4), 40, 60, 0), 2),
            # N=10 and N=20 are, N=2 is not
            ((Gaussian(1.0, 1.0), 0.4, 1.6, (2, 10, 20), 400, 40, 0), 10),
        ]
        for args, window in cases:
            cap = args[5]
            with pytest.raises(ExcessCensoringError, match=rf"% of stays at N={window} hit the {cap}-step cap; raise the cap$"):
                fit_exit_statistics(*args)

    def test_samples_split_into_chunks_count_exactly(self, monkeypatch):
        # 2500 stays per window is two full chunks and a half one
        args = (Gaussian(1.0, 1.0), 0.4, 1.6, (4, 6, 8), 2_500, 100_000, 3)
        counts = {}

        def counting(d, r_lo, r_hi, n, rng, cap, count):
            counts[n] = counts.get(n, 0) + count
            return sample_exit(d, r_lo, r_hi, n, rng, cap=cap, count=count)

        use_cpus(monkeypatch, 1)
        with monkeypatch.context() as m:
            m.setattr(experiments, "sample_exit", counting)
            one = fit_exit_statistics(*args)
        assert counts == {4: 2_500, 6: 2_500, 8: 2_500}
        use_cpus(monkeypatch, 2)
        assert fit_exit_statistics(*args) == one

    @pytest.mark.parametrize(
        "args",
        [
            {"cap": 3},
            {"r_lo": 0.5, "r_hi": -0.5},
            {"r_lo": -1.5},
            {"samples_per_n": 0},
            {"master_seed": -1},
            # counts that are not whole numbers are refused, not truncated
            {"samples_per_n": 50.7},
            {"cap": 10_000.5},
            {"cap": math.nan},
            {"cap": math.inf},
            {"cap": 10**20},
            {"n_grid": (2, 3, 4.5)},
            {"n_grid": (2, 3, math.nan)},
            {"master_seed": 1.5},
        ],
    )
    def test_rejects_bad_arguments(self, args):
        kw = {
            "d": Rademacher(0.5),
            "r_lo": -0.5,
            "r_hi": 0.5,
            "n_grid": (2, 3, 4),
            "samples_per_n": 50,
            "cap": 10_000,
            "master_seed": 0,
        }
        kw.update(args)
        with pytest.raises(InvalidInputError):
            fit_exit_statistics(**kw)

    def test_reports_are_reproducible(self):
        a = fit_exit_statistics(Gaussian(1.0, 1.0), 0.4, 1.6, (4, 6, 8), 500, 100_000, 3)
        b = fit_exit_statistics(Gaussian(1.0, 1.0), 0.4, 1.6, (4, 6, 8), 500, 100_000, 3)
        assert json.dumps(asdict(a), sort_keys=True) == json.dumps(asdict(b), sort_keys=True)

    def test_whole_floats_are_taken_as_counts(self):
        a = fit_exit_statistics(Gaussian(1.0, 1.0), 0.4, 1.6, (4.0, 6.0, 8.0), 500.0, 100_000.0, 3.0)
        b = fit_exit_statistics(Gaussian(1.0, 1.0), 0.4, 1.6, (4, 6, 8), 500, 100_000, 3)
        assert (a.n_grid, a.samples_per_n, a.cap, a.master_seed) == ((4, 6, 8), 500, 100_000, 3)
        assert json.dumps(asdict(a), sort_keys=True) == json.dumps(asdict(b), sort_keys=True)


class TestPersistence:
    def test_single_step_horizon_is_the_tail_probability(self):
        d = Gaussian(0.3, 1.0)
        est = estimate_persistence_constant(d, 0.0, 1, 40_000, 6)
        exact = tail_prob(d, 0.0, "ge")
        assert abs(est - exact) <= 4.0 * math.sqrt(exact * (1 - exact) / 40_000)

    def test_matches_exhaustive_three_step_value(self):
        # P(S_n >= 0 for n <= 3) for steps +1 w.p. 0.7: only the first sign
        # matters at n=1,2; at n=3 the path (+,-,-) dies
        exact = 0.343 + 0.147 + 0.147
        est = estimate_persistence_constant(Rademacher(0.7), 0.0, 3, 100_000, 12)
        assert abs(est - exact) <= 4.0 * math.sqrt(exact * (1 - exact) / 100_000)

    def test_profile_stays_positive_at_a_long_horizon(self):
        assert experiments._persistence_profile(Gaussian(0.5, 1.0), 0.0, 64, 20_000, np.random.default_rng(2)) > 0.0

    def test_scripted_paths_survive_exactly_as_enumerated(self):
        # 4 paths draw one step each; at horizon 2 the two survivors draw again
        rng = ScriptedRNG([0.9, 0.9, 0.1, 0.1])
        assert experiments._persistence_profile(Rademacher(0.7), 0.5, 1, 4, rng) == 0.5
        assert rng.consumed == 4
        rng = ScriptedRNG([0.9, 0.9, 0.1, 0.1, 0.1, 0.9])
        assert experiments._persistence_profile(Rademacher(0.7), 0.5, 2, 4, rng) == 0.25
        assert rng.consumed == 6

    def test_memory_is_a_few_arrays_of_samples(self):
        # running sums, one step's draws and a mask: 20k samples is a few
        # hundred KiB
        estimate_persistence_constant(Gaussian(1.0, 1.0), 0.4, 2, 100, 3)  # lazy imports
        tracemalloc.start()
        try:
            estimate_persistence_constant(Gaussian(1.0, 1.0), 0.4, 200, 20_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_long_horizon_estimate_stays_in_the_exact_sandwich(self):
        d = Gaussian(1.0, 1.0)
        est = estimate_persistence_constant(d, 0.0, 10_000, 20_000, 11)
        assert 0.5 < est < tail_prob(d, 0.0, "ge")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": -3},
            {"samples": -1},
            {"horizon": 0},
            {"samples": 0},
            {"master_seed": -1},
            {"horizon": 5.5},
            {"samples": math.nan},
            {"master_seed": 0.5},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        args = {"d": Gaussian(1.0, 1.0), "r": 0.0, "horizon": 5, "samples": 10, "master_seed": 0}
        args.update(kwargs)
        with pytest.raises(InvalidInputError):
            estimate_persistence_constant(**args)

    @pytest.mark.parametrize("kwargs", [{"r": 0.0, "d": Rademacher(0.5)}, {"r": 1.5}])
    def test_level_at_or_above_the_mean_is_a_domain_error(self, kwargs):
        args = {"d": Gaussian(1.0, 1.0), "r": 0.0, "horizon": 5, "samples": 10, "master_seed": 0}
        args.update(kwargs)
        with pytest.raises(AssumptionError):
            estimate_persistence_constant(**args)

    def test_estimates_are_reproducible(self):
        a = estimate_persistence_constant(Gaussian(0.5, 1.0), 0.0, 50, 5_000, 3)
        b = estimate_persistence_constant(Gaussian(0.5, 1.0), 0.0, 50, 5_000, 3)
        assert a == b


def use_cpus(monkeypatch, count):
    """Make ``count`` CPUs look available to the process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def split_task(tmp_path, in_child):
    """A task that runs ``in_child(k)`` in a forked child and returns ``k`` in
    the caller, but only once some child has started a task, so that every
    run hands at least one task to a child."""
    caller = os.getpid()
    started = tmp_path / "a child started"

    def task(k):
        if os.getpid() == caller:
            wait_for(started)
            return k
        started.touch()
        return in_child(k)

    return task


def use_empty_tempdir(monkeypatch, tmp_path):
    """Point ``tempfile`` at a new empty directory, and return it."""
    temp = tmp_path / "tempdir"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    return temp


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class NeedsTwoArguments(Exception):
    """Pickles, but unpickling calls ``__init__`` with the message alone."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class TestInOrder:
    """``_in_order`` runs independent tasks in forked worker processes and
    hands results back in task order, the way the speed and block drivers
    fold them."""

    def test_results_come_back_in_task_order(self, monkeypatch):
        use_cpus(monkeypatch, 4)
        delays = [0.2, 0.0, 0.1, 0.0, 0.05, 0.0]

        def nap(k):
            time.sleep(delays[k])
            return k * k, time.monotonic()

        values, finished = zip(*experiments._in_order(nap, range(len(delays))))
        assert values == tuple(k * k for k in range(6))
        assert list(finished) != sorted(finished)  # the tasks did finish out of order

    def test_first_failure_in_task_order_is_reraised(self, monkeypatch):
        use_cpus(monkeypatch, 4)

        def task(k):
            if k == 1:
                time.sleep(0.2)
                raise InvalidInputError("task 1")
            if k == 2:
                raise KeyError("task 2")  # fails first, but later in task order
            return k

        results = experiments._in_order(task, range(4))
        assert next(results) == 0
        with pytest.raises(InvalidInputError, match="^task 1$") as failure:
            next(results)
        assert failure.type is InvalidInputError

    def test_a_childs_failure_keeps_its_type_and_message(self, monkeypatch, tmp_path):
        use_cpus(monkeypatch, 2)

        def fail(k):
            raise ExcessCensoringError(f"task {k} in a child")

        with pytest.raises(ExcessCensoringError, match=r"^task \d+ in a child$") as failure:
            list(experiments._in_order(split_task(tmp_path, fail), range(4)))
        assert failure.type is ExcessCensoringError

    @pytest.mark.parametrize("what", ["local exception", "exception that fails to unpickle", "lambda"])
    def test_what_a_child_cannot_pickle_comes_back_as_a_pickling_error(self, monkeypatch, tmp_path, what):
        use_cpus(monkeypatch, 2)

        class Local(Exception):
            pass

        def in_child(k):
            if what == "local exception":
                raise Local(f"task {k}")
            if what == "exception that fails to unpickle":
                raise NeedsTwoArguments(f"task {k}", "more")
            return lambda: k

        pattern = {
            "local exception": r"task \d+ raised Local\('task \d+'\), which cannot be pickled",
            "exception that fails to unpickle": r"task \d+ raised NeedsTwoArguments\('task \d+ and more'\), which cannot be pickled",
            "lambda": r"task \d+ returned a function, which cannot be pickled",
        }[what]
        with pytest.raises(pickle.PicklingError, match=pattern):
            list(experiments._in_order(split_task(tmp_path, in_child), range(4)))
        assert_no_child_left()

    @pytest.mark.parametrize("failing", ["task 1", "the caller"])
    def test_no_task_starts_after_a_failure(self, monkeypatch, tmp_path, failing):
        use_cpus(monkeypatch, 2)
        caller = os.getpid()

        def task(k):
            (tmp_path / f"started {k}").touch()
            sleeps = k == 0 if failing == "task 1" else os.getpid() != caller
            if sleeps:
                time.sleep(0.5)  # the other worker fails a task meanwhile
                return k
            if k == 0:
                # the caller holds task 0 until the child starts task 1, then fails task 2
                wait_for(tmp_path / "started 1")
                return k
            raise ArithmeticError(f"task {k}")

        with pytest.raises(ArithmeticError, match=r"^task [12]$") as failure:
            list(experiments._in_order(task, range(20)))
        failed = int(str(failure.value).split()[1])
        if failing == "task 1":
            assert failed == 1
        # tasks start in order, and none after the failed one
        assert sorted(path.name for path in tmp_path.iterdir()) == [f"started {k}" for k in range(failed + 1)]

    def test_ctrl_c_does_not_wait_for_running_tasks(self, monkeypatch, tmp_path):
        use_cpus(monkeypatch, 2)
        temp = use_empty_tempdir(monkeypatch, tmp_path)
        caller = os.getpid()
        survived = tmp_path / "the child survived its own Ctrl-C"

        def in_child(k):
            os.kill(os.getpid(), signal.SIGINT)  # a terminal's Ctrl-C reaches the children too
            time.sleep(0.05)
            survived.touch()
            os.kill(caller, signal.SIGINT)
            time.sleep(30)
            return k

        # a process started with SIGINT ignored, as a background job of a
        # non-interactive shell is, gets no KeyboardInterrupt from it
        old = signal.signal(signal.SIGINT, signal.default_int_handler)
        start = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                list(experiments._in_order(split_task(tmp_path, in_child), range(8)))
        finally:
            signal.signal(signal.SIGINT, old)
        assert time.monotonic() - start < 5
        assert survived.exists()
        assert_no_child_left()
        assert list(temp.iterdir()) == []

    @pytest.mark.parametrize("ending", ["success", "failure in a child", "early close"])
    def test_every_child_is_reaped(self, monkeypatch, tmp_path, ending):
        use_cpus(monkeypatch, 3)
        temp = use_empty_tempdir(monkeypatch, tmp_path)

        def in_child(k):
            if ending == "failure in a child":
                raise LookupError(f"task {k}")
            if ending == "early close" and k > 0:
                time.sleep(30)
            return k

        results = experiments._in_order(split_task(tmp_path, in_child), range(6))
        start = time.monotonic()
        if ending == "success":
            assert list(results) == list(range(6))
        elif ending == "failure in a child":
            with pytest.raises(LookupError):
                list(results)
        else:
            assert next(results) == 0
            results.close()
        assert time.monotonic() - start < 5
        assert_no_child_left()
        assert list(temp.iterdir()) == []

    def test_a_task_whose_child_dies_is_reported_lost(self, monkeypatch, tmp_path):
        use_cpus(monkeypatch, 2)

        def die(k):
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(ChildProcessError, match=r"^task \d+ was lost: .*-9"):
            list(experiments._in_order(split_task(tmp_path, die), range(4)))
        assert_no_child_left()

    def test_children_neither_flush_stdio_nor_run_atexit_hooks(self, monkeypatch, tmp_path):
        use_cpus(monkeypatch, 2)
        hook = tmp_path / "atexit ran"

        def at_exit():
            hook.touch()

        atexit.register(at_exit)
        try:
            with open(tmp_path / "out.txt", "w") as out:
                out.write("written once")  # still buffered when the children fork
                results = experiments._in_order(split_task(tmp_path, lambda k: k), range(4))
                assert list(results) == list(range(4))
        finally:
            atexit.unregister(at_exit)
        assert (tmp_path / "out.txt").read_text() == "written once"
        assert not hook.exists()

    def test_every_task_runs_once_past_the_pipe_buffer(self, monkeypatch, tmp_path):
        # more task indices than a pipe buffer holds, claimed at one shared
        # file offset by more workers than cores: a lost or repeated claim
        # would skip a task or log it twice
        use_cpus(monkeypatch, 4)
        count = 40_000
        log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def task(k):
            os.write(log, k.to_bytes(4, sys.byteorder))
            return k

        start = time.monotonic()
        try:
            assert list(experiments._in_order(task, range(count))) == list(range(count))
        finally:
            os.close(log)
        assert time.monotonic() - start < 30
        logged = np.frombuffer((tmp_path / "log").read_bytes(), dtype=np.uint32)
        assert np.array_equal(np.sort(logged), np.arange(count))

    @pytest.mark.parametrize("why", ["one-cpu", "no-fork", "another-thread", "no-temp-file"])
    def test_runs_every_task_inline(self, monkeypatch, why):
        use_cpus(monkeypatch, 1 if why == "one-cpu" else 4)
        if why == "no-temp-file":

            def no_room(*args, **kwargs):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(tempfile, "TemporaryFile", no_room)
        if why == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:

            def refuse():
                raise AssertionError("a process was forked")

            monkeypatch.setattr(os, "fork", refuse)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        if why == "another-thread":
            other.start()
        try:
            assert list(experiments._in_order(lambda k: -k, range(5))) == [0, -1, -2, -3, -4]
        finally:
            release.set()
            if other.is_alive():
                other.join(10)
        assert not other.is_alive()

    def test_cpu_count_stands_in_for_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert experiments._available_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert experiments._available_cpus() == 1


# the middle law of the exit-stays benchmark ladder (thresholds 0.4 and 1.3)
EXIT_STAYS_MIDDLE = FiniteDiscrete((-1.0, 0.0, 1.0, 2.0), (0.1, 0.2, 0.4, 0.3))


class TestReportsDoNotDependOnCpus:
    @staticmethod
    def reports():
        return (
            estimate_speed(l1_gaussian(), "delayed", 20_000, 4, 5),
            fit_block_exponents(Gaussian(1.0, 1.0), 0.4, 1.6, (4, 6, 8), 20_000, 3),
            fit_exit_statistics(Gaussian(1.0, 1.0), 0.4, 1.6, (4, 6, 8), 4_000, 100_000, 3),
            # a lattice law: forked workers draw through the table they inherit
            fit_exit_statistics(EXIT_STAYS_MIDDLE, 0.4, 1.3, (4, 6, 8), 4_000, 100_000, 3),
            verify_cramer_slope(Gaussian(0.0, 1.0), 0.5, "ge", (4, 8, 12), np.random.default_rng(3), 20_000),
        )

    def test_one_cpu_matches_the_default_and_four_cpus(self, monkeypatch):
        default = self.reports()
        use_cpus(monkeypatch, 1)
        one = self.reports()
        use_cpus(monkeypatch, 4)
        four = self.reports()
        assert one == default
        assert four == default


class _NoSpawn(np.random.SeedSequence):
    def spawn(self, n_children):
        raise AssertionError(f"SeedSequence.spawn({n_children}) was reached")


def _unreached(*args, **kwargs):
    raise AssertionError("a sampler was reached")


LAW = Gaussian(1.0, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda k: fit_block_exponents(LAW, 0.4, 1.6, (4, 6, 8), k, 1), id="blocks-samples_per_n"),
        pytest.param(lambda k: fit_exit_statistics(LAW, 0.4, 1.6, (4, 6, 8), k, 1_000, 1), id="exits-samples_per_n"),
        pytest.param(lambda k: sample_exit(LAW, 0.4, 1.6, 4, np.random.default_rng(0), count=k), id="sample_exit-count"),
        pytest.param(lambda k: sample_exit(LAW, 0.4, 1.6, k, np.random.default_rng(0)), id="sample_exit-N"),
        pytest.param(lambda k: estimate_speed(near_flip_spec(), "delayed", 5_000, k, 0), id="replicas"),
        pytest.param(lambda k: estimate_persistence_constant(LAW, 0.4, k, 10, 0), id="horizon"),
        pytest.param(lambda k: estimate_persistence_constant(LAW, 0.4, 10, k, 0), id="persistence-samples"),
        pytest.param(l1_gaussian, id="ModelSpec-window"),
    ],
)
def test_every_count_above_2_53_is_refused(call, monkeypatch):
    # the first use of the count raises, so a missing check fails at once
    # instead of running for hours or allocating without bound
    monkeypatch.setattr(experiments, "sample_block_outcomes", _unreached)
    monkeypatch.setattr(experiments, "_persistence_profile", _unreached)
    monkeypatch.setattr(np.random, "SeedSequence", _NoSpawn)
    with pytest.raises(InvalidInputError):
        call(2**53 + 1)


def _thresholds_refused(lo, hi):
    rng = np.random.default_rng(0)
    return [
        pytest.param(lambda: sample_exit(LAW, lo, hi, 3, rng, count=2), id=f"sample_exit-{lo!r}"),
        pytest.param(lambda: sample_block_outcomes(LAW, lo, hi, 3, rng, 2), id=f"sample_block_outcomes-{lo!r}"),
        pytest.param(lambda: fit_block_exponents(LAW, lo, hi, (4, 6, 8), 100, 1), id=f"blocks-{lo!r}"),
        pytest.param(lambda: fit_exit_statistics(LAW, lo, hi, (4, 6, 8), 100, 1_000, 1), id=f"exits-{lo!r}"),
    ]


@pytest.mark.parametrize(
    "call",
    [
        *_thresholds_refused("0.4", "1.6"),
        *_thresholds_refused(True, 1.6),
        pytest.param(lambda: RateFunction(LAW).solve("0.4"), id="solve-'0.4'"),
        pytest.param(lambda: RateFunction(LAW).solve(True), id="solve-True"),
        pytest.param(
            lambda: verify_cramer_slope(LAW, "1.5", "ge", (4, 6, 8), np.random.default_rng(0), 100), id="cramer-'1.5'"
        ),
        pytest.param(
            lambda: verify_cramer_slope(Gaussian(0.0, 1.0), True, "ge", (4, 6, 8), np.random.default_rng(0), 100),
            id="cramer-True",
        ),
        pytest.param(lambda: estimate_persistence_constant(LAW, "0.4", 10, 10, 0), id="persistence-'0.4'"),
        pytest.param(lambda: estimate_persistence_constant(LAW, True, 10, 10, 0), id="persistence-True"),
        pytest.param(lambda: estimate_persistence_constant(LAW, math.nan, 10, 10, 0), id="persistence-nan"),
    ],
)
def test_every_level_that_is_not_a_number_is_refused(call, monkeypatch):
    # strings and bools pass float(), and a string threshold times N is a
    # repeated string; each must be refused before any draw or fork
    monkeypatch.setattr(experiments, "sample_block_outcomes", _unreached)
    monkeypatch.setattr(experiments, "_persistence_profile", _unreached)
    monkeypatch.setattr(np.random, "SeedSequence", _NoSpawn)
    with pytest.raises(InvalidInputError, match="must be a number"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: estimate_speed(l1_gaussian(), "bogus", 1_000, 2, 1), id="estimate_speed"),
        pytest.param(lambda: sweep_window(l1_gaussian(), "bogus", (10, 20), 2, 1, steps=1_000), id="sweep_window"),
    ],
)
def test_every_version_that_is_not_a_rule_is_refused(call, monkeypatch):
    # the replicas would check it, but only once forked
    monkeypatch.setattr(experiments, "run", _unreached)
    monkeypatch.setattr(np.random, "SeedSequence", _NoSpawn)
    with pytest.raises(InvalidInputError, match="version must be one of"):
        call()


def _laws_refused(bad):
    rng = np.random.default_rng(0)
    return [
        pytest.param(lambda: ModelSpec((bad, LAW), (0.4,), 10, 0), id=f"ModelSpec-{bad!r}"),
        pytest.param(lambda: sample_exit(bad, 0.0, 1.0, 3, rng), id=f"sample_exit-{bad!r}"),
        pytest.param(lambda: sample_block_outcomes(bad, 0.0, 1.0, 3, rng, 2), id=f"sample_block_outcomes-{bad!r}"),
        pytest.param(lambda: fit_block_exponents(bad, 0.4, 1.6, (4, 6, 8), 100, 1), id=f"blocks-{bad!r}"),
        pytest.param(lambda: fit_exit_statistics(bad, 0.4, 1.6, (4, 6, 8), 100, 1_000, 1), id=f"exits-{bad!r}"),
        pytest.param(lambda: verify_cramer_slope(bad, 1.5, "ge", (4, 6, 8), 0, 100), id=f"cramer-{bad!r}"),
        pytest.param(lambda: estimate_persistence_constant(bad, 0.4, 10, 10, 0), id=f"persistence-{bad!r}"),
    ]


@pytest.mark.parametrize("call", [*_laws_refused("x"), *_laws_refused(None), *_laws_refused(1.0)])
def test_everything_that_is_not_a_law_is_refused(call, monkeypatch):
    # a string, None or a number has no law's fields, which numpy or the
    # scalar functions would otherwise fail on with a bare AttributeError
    monkeypatch.setattr(experiments, "sample_block_outcomes", _unreached)
    monkeypatch.setattr(experiments, "_persistence_profile", _unreached)
    monkeypatch.setattr(np.random, "SeedSequence", _NoSpawn)
    with pytest.raises(InvalidInputError, match="must be a Gaussian, Rademacher or FiniteDiscrete law"):
        call()
