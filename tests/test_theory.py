import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from histwalk.distributions import FiniteDiscrete, Gaussian, Rademacher
from histwalk.errors import AssumptionError, InvalidChainError, InvalidInputError
from histwalk.ratefn import RateFunction
from histwalk.theory import (
    ModelSpec,
    invariant_distribution,
    predict_limiting_speed,
    speed_formula,
    threshold_bounds,
    validate,
)


def l1_gaussian(r1=0.4, window=10):
    return ModelSpec(
        dists=(Gaussian(0.0, 1.0), Gaussian(1.0, 1.0)),
        thresholds=(r1,),
        window=window,
        initial_regime=0,
    )


def l2_gaussian(r=(0.4, 1.3), window=10):
    return ModelSpec(
        dists=(Gaussian(0.0, 1.0), Gaussian(1.0, 1.0), Gaussian(2.0, 1.0)),
        thresholds=tuple(r),
        window=window,
        initial_regime=0,
    )


# ------------------------------------------------------------------ ModelSpec


def test_model_spec_shape():
    spec = l2_gaussian()
    assert spec.l == 2
    assert threshold_bounds(spec, 0) == (-math.inf, 0.4)
    assert threshold_bounds(spec, 1) == (0.4, 1.3)
    assert threshold_bounds(spec, 2) == (1.3, math.inf)


@pytest.mark.parametrize("kwargs", [
    dict(dists=(Gaussian(0, 1),), thresholds=(), window=5, initial_regime=0),
    dict(dists=(Gaussian(0, 1), Gaussian(1, 1)), thresholds=(0.4, 0.6), window=5, initial_regime=0),
    dict(dists=(Gaussian(0, 1), Gaussian(1, 1)), thresholds=(0.4,), window=0, initial_regime=0),
    dict(dists=(Gaussian(0, 1), Gaussian(1, 1)), thresholds=(0.4,), window=5, initial_regime=2),
    dict(dists=(Gaussian(0, 1), Gaussian(1, 1), Gaussian(2, 1)), thresholds=(1.3, 0.4), window=5, initial_regime=0),
    # non-integers, which int() would truncate or fail on with another error
    dict(dists=(Gaussian(0, 1), Gaussian(1, 1)), thresholds=(0.4,), window=math.nan, initial_regime=0),
    dict(dists=(Gaussian(0, 1), Gaussian(1, 1)), thresholds=(0.4,), window=math.inf, initial_regime=0),
    dict(dists=(Gaussian(0, 1), Gaussian(1, 1)), thresholds=(0.4,), window=5, initial_regime=0.5),
    # strings and bools, which float() would coerce to 0.4 and 1.0
    dict(dists=(Gaussian(0, 1), Gaussian(1, 1)), thresholds=("0.4",), window=5, initial_regime=0),
    dict(dists=(Gaussian(0, 1), Gaussian(1, 1)), thresholds=(True,), window=5, initial_regime=0),
    dict(dists=(Gaussian(0, 1), Gaussian(1, 1)), thresholds=(None,), window=5, initial_regime=0),
    # bools, which int() would take as window 1 and regime 0
    dict(dists=(Gaussian(0, 1), Gaussian(1, 1)), thresholds=(0.4,), window=True, initial_regime=0),
    dict(dists=(Gaussian(0, 1), Gaussian(1, 1)), thresholds=(0.4,), window=5, initial_regime=np.False_),
    # a law or a number where a sequence belongs, which tuple() would fail on with a TypeError
    dict(dists=(Gaussian(0, 1), Gaussian(1, 1)), thresholds=0.4, window=10, initial_regime=0),
    dict(dists=Gaussian(0, 1), thresholds=(0.4,), window=10, initial_regime=0),
])
def test_model_spec_structural_errors(kwargs):
    with pytest.raises(InvalidInputError):
        ModelSpec(**kwargs)


def test_model_spec_stores_whole_numbers_as_ints():
    spec = ModelSpec(dists=(Gaussian(0, 1), Gaussian(1, 1)), thresholds=(0.4,), window=5.0, initial_regime=1.0)
    assert (spec.window, spec.initial_regime) == (5, 1)
    assert type(spec.window) is int and type(spec.initial_regime) is int


def test_threshold_bounds_out_of_range():
    with pytest.raises(InvalidInputError):
        threshold_bounds(l1_gaussian(), 2)


# ------------------------------------------------------------------- validate


def test_validate_passes_gaussian_ladder():
    rep = validate(l1_gaussian())
    assert rep.passed and rep.mean_ordering and rep.tail_support and rep.light_tails


def test_validate_passes_rademacher_ladder():
    spec = ModelSpec(
        dists=(Rademacher(0.2), Rademacher(0.5), Rademacher(0.8)),
        thresholds=(-0.4, 0.3),
        window=6,
        initial_regime=1,
    )
    rep = validate(spec)
    assert rep.passed


def test_validate_fails_on_equal_means():
    spec = ModelSpec(
        dists=(Gaussian(0.5, 1.0), Gaussian(0.5, 2.0)),
        thresholds=(0.5,),
        window=5,
        initial_regime=0,
    )
    rep = validate(spec)
    assert not rep.passed and not rep.mean_ordering
    assert any("mean" in d for d in rep.details)


def test_validate_fails_on_threshold_outside_mean_gap():
    spec = ModelSpec(
        dists=(Gaussian(0.0, 1.0), Gaussian(1.0, 1.0)),
        thresholds=(1.5,),
        window=5,
        initial_regime=0,
    )
    assert not validate(spec).passed


def test_validate_fails_on_missing_tail_mass():
    # the lower law cannot reach the threshold, so the walk could never move up
    spec = ModelSpec(
        dists=(FiniteDiscrete((-1.0, 0.2), (0.5, 0.5)), Gaussian(1.0, 1.0)),
        thresholds=(0.4,),
        window=5,
        initial_regime=0,
    )
    rep = validate(spec)
    assert not rep.passed and not rep.tail_support


# -------------------------------------------------------- exponent formulas


def test_dominance_exponents_l1():
    lam = predict_limiting_speed(l1_gaussian()).lambdas
    assert lam == pytest.approx((0.08, 0.18), abs=1e-12)


def test_dominance_exponents_l2():
    lam = predict_limiting_speed(l2_gaussian((0.4, 1.3))).lambdas
    # 0.38 = I_2(1.3) + (I_1(0.4) - I_1(1.3)) = 0.245 + 0.135
    assert lam == pytest.approx((0.08, 0.18, 0.38), abs=1e-12)


def test_transition_exponents_l2():
    regimes = predict_limiting_speed(l2_gaussian((0.4, 1.3))).per_regime
    assert regimes[0].up_exp == 0.0 and regimes[0].down_exp is None
    assert regimes[2].up_exp is None and regimes[2].down_exp == 0.0
    assert regimes[1].up_exp == pytest.approx(0.0, abs=1e-12)
    assert regimes[1].down_exp == pytest.approx(0.135, abs=1e-12)


def test_sojourn_exponents_l2():
    regimes = predict_limiting_speed(l2_gaussian((0.4, 1.3))).per_regime
    assert [r.sojourn_exp for r in regimes] == pytest.approx((0.08, 0.045, 0.245), abs=1e-12)


def test_invariant_exponents_detailed_balance_steps():
    spec = l2_gaussian((0.4, 1.3))
    regimes = predict_limiting_speed(spec).per_regime
    assert regimes[0].nu_exp == 0.0
    for below, above in zip(regimes, regimes[1:]):
        assert above.nu_exp - below.nu_exp == pytest.approx(above.down_exp - below.up_exp, abs=1e-12)


def test_dominance_equals_invariant_plus_sojourn_up_to_constant():
    for spec in (l1_gaussian(0.7), l2_gaussian((0.4, 1.3)), l2_gaussian((0.2, 1.8))):
        rep = predict_limiting_speed(spec)
        combo = [r.nu_exp + r.sojourn_exp for r in rep.per_regime]
        for i in range(len(rep.lambdas)):
            assert rep.lambdas[i] - rep.lambdas[0] == pytest.approx(combo[i] - combo[0], abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=2.0), min_size=2, max_size=5),
       st.floats(min_value=0.2, max_value=0.8))
def test_exponent_identity_random_gaussian_ladders(gaps, frac):
    # build means 0, g1, g1+g2, ... and put each threshold frac-way across the gap
    means = [0.0]
    for g in gaps:
        means.append(means[-1] + g)
    thresholds = tuple(means[i] + frac * (means[i + 1] - means[i]) for i in range(len(gaps)))
    spec = ModelSpec(
        dists=tuple(Gaussian(m, 1.0) for m in means),
        thresholds=thresholds,
        window=5,
        initial_regime=0,
    )
    rep = predict_limiting_speed(spec)
    lam, regimes = rep.lambdas, rep.per_regime
    for i in range(len(lam)):
        assert lam[i] - lam[0] == pytest.approx(
            (regimes[i].nu_exp + regimes[i].sojourn_exp) - (regimes[0].nu_exp + regimes[0].sojourn_exp),
            abs=1e-10)


# --------------------------------------------------------------- prediction


def test_predict_l1_speed():
    rep = predict_limiting_speed(l1_gaussian(0.4))
    assert rep.argmax == (1,)
    assert rep.predicted_speed == 1.0
    assert rep.lambdas == pytest.approx((0.08, 0.18), abs=1e-12)


def test_predict_l1_dichotomy_mirror():
    rep = predict_limiting_speed(l1_gaussian(0.9))
    # I_0(0.9) = 0.405 > I_1(0.9) = 0.005, so the slow law wins
    assert rep.argmax == (0,)
    assert rep.predicted_speed == 0.0


def test_predict_l2_speed():
    rep = predict_limiting_speed(l2_gaussian((0.4, 1.3)))
    assert rep.argmax == (2,)
    assert rep.predicted_speed == 2.0


def test_predict_tie_reported_not_guessed():
    rep = predict_limiting_speed(l2_gaussian((0.4, 1.5)))
    assert rep.argmax == (1, 2)
    assert rep.predicted_speed is None
    assert any("tie" in w.lower() for w in rep.warnings)


def test_predict_requires_valid_spec():
    bad = ModelSpec(
        dists=(Gaussian(1.0, 1.0), Gaussian(0.0, 1.0)),
        thresholds=(0.5,),
        window=5,
        initial_regime=0,
    )
    with pytest.raises(AssumptionError):
        predict_limiting_speed(bad)


def test_predict_deterministic_and_json_ready():
    r1 = predict_limiting_speed(l2_gaussian((0.4, 1.3)))
    r2 = predict_limiting_speed(l2_gaussian((0.4, 1.3)))
    assert r1 == r2
    blob = json.dumps(asdict(r1), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["argmax"] == [2]
    assert parsed["predicted_speed"] == 2.0
    assert len(parsed["per_regime"]) == 3
    assert parsed["per_regime"][1]["down_exp"] == pytest.approx(0.135)
    assert parsed["per_regime"][0]["up_exp"] == 0.0
    assert parsed["per_regime"][0]["down_exp"] is None


def test_predict_solves_each_rate_once_per_threshold(monkeypatch):
    # 2l = 4 (law, threshold) pairs on a 3-law ladder, whatever the number of
    # exponent families derived from them
    calls = []
    solve = RateFunction.solve
    monkeypatch.setattr(RateFunction, "solve", lambda self, r: calls.append(r) or solve(self, r))
    lattice = [(0.3, 0.4, 0.2, 0.1), (0.1, 0.2, 0.4, 0.3), (0.05, 0.1, 0.3, 0.55)]
    spec = ModelSpec(
        dists=tuple(FiniteDiscrete((-1.0, 0.0, 1.0, 2.0), w) for w in lattice),
        thresholds=(0.4, 1.3),
        window=5,
        initial_regime=0,
    )
    predict_limiting_speed(spec)
    assert len(calls) == 4


def test_tie_tolerance_is_respected():
    # nudge one lambda by less than the tolerance: still a tie
    rep = predict_limiting_speed(l2_gaussian((0.4, 1.5)))
    assert len(rep.argmax) == 2
    rep2 = predict_limiting_speed(l2_gaussian((0.4, 1.5 + 1e-3)))
    assert len(rep2.argmax) == 1


# ------------------------------------------------- invariant distribution


def test_invariant_distribution_hand_value():
    nu = invariant_distribution((1.0, 0.3), (0.7, 1.0))
    assert nu == pytest.approx((0.35, 0.5, 0.15), abs=1e-12)


def test_invariant_distribution_l1():
    assert invariant_distribution((1.0,), (1.0,)) == pytest.approx((0.5, 0.5), abs=1e-15)


def test_invariant_distribution_is_stationary():
    up = (1.0, 0.3, 0.6)
    down = (0.7, 0.2, 1.0)
    nu = np.array(invariant_distribution(up, down))
    l = len(up)
    P = np.zeros((l + 1, l + 1))
    for i in range(l):
        P[i, i + 1] = up[i]
        P[i + 1, i] = down[i]
    # exits not accounted for by up/down stay put
    for i in range(l + 1):
        P[i, i] = 1.0 - P[i].sum()
    assert np.max(np.abs(nu @ P - nu)) < 1e-10
    assert nu.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("up,down", [
    ((1.0, 0.0), (0.7, 1.0)),
    ((1.0, -0.2), (0.7, 1.0)),
    ((1.0, 1.2), (0.7, 1.0)),
    ((1.0,), (0.7, 1.0)),
    ((), ()),
])
def test_invariant_distribution_rejects_bad_chains(up, down):
    with pytest.raises(InvalidChainError):
        invariant_distribution(up, down)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=6),
       st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=6, max_size=6))
def test_invariant_distribution_detailed_balance_random(up, down):
    down = down[: len(up)]
    nu = invariant_distribution(tuple(up), tuple(down))
    for i in range(len(up)):
        assert nu[i] * up[i] == pytest.approx(nu[i + 1] * down[i], rel=1e-9)


# -------------------------------------------------------------- speed formula


def test_speed_formula_hand_value():
    assert speed_formula((0.5, 0.5), (100.0, 900.0), (0.0, 900.0)) == pytest.approx(0.9, abs=1e-15)


def test_speed_formula_scale_invariant_in_nu():
    a = speed_formula((0.2, 0.8), (10.0, 20.0), (1.0, 30.0))
    b = speed_formula((2.0, 8.0), (10.0, 20.0), (1.0, 30.0))
    assert a == pytest.approx(b, rel=1e-12)


def test_speed_formula_validates():
    for args in [
        ((0.5, 0.5), (100.0,), (0.0, 900.0)),
        ((0.0, 0.0), (1.0, 1.0), (0.0, 0.0)),
        # a non-finite entry once gave nan or 0.0 instead of an error
        ((1.0, math.nan), (1.0, 1.0), (1.0, 1.0)),
        ((1.0, 1.0), (1.0, math.inf), (1.0, 1.0)),
        ((1.0, 1.0), (1.0, 1.0), (-math.inf, 1.0)),
        # not one-dimensional, or not numbers
        (((0.5, 0.5),), ((1.0, 1.0),), ((0.0, 1.0),)),
        ((0.5, "x"), (1.0, 1.0), (0.0, 1.0)),
    ]:
        with pytest.raises(InvalidInputError):
            speed_formula(*args)
