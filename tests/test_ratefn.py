import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from histwalk import experiments, ratefn
from histwalk.distributions import FiniteDiscrete, Gaussian, Rademacher, cgf, mean, support_bounds
from histwalk.errors import DegenerateEstimateError, InvalidInputError, NonConvergenceError
from histwalk.experiments import verify_cramer_slope
from histwalk.ratefn import RateFunction


def binary_entropy_rate(p: float, r: float) -> float:
    """Independent closed form for the Rademacher(p) rate function.

    Tilting moves the +1 weight from p to q = (1+r)/2, and the cost is the
    relative entropy between the two coin laws.
    """
    q = (1.0 + r) / 2.0
    return q * math.log(q / p) + (1.0 - q) * math.log((1.0 - q) / (1.0 - p))


# ------------------------------------------------------------- closed forms


def test_gaussian_closed_form():
    I = RateFunction(Gaussian(1.0, 1.0))
    assert I.evaluate(0.4) == pytest.approx(0.18, abs=1e-15)
    for r in np.linspace(-3, 5, 50):
        assert I.evaluate(r) == pytest.approx((r - 1.0) ** 2 / 2.0, abs=1e-12)
    val, tilt = I.solve(0.4)
    assert tilt == pytest.approx(-0.6, abs=1e-15)


def test_gaussian_scaled_variance():
    I = RateFunction(Gaussian(-0.5, 4.0))
    assert I.evaluate(1.5) == pytest.approx(2.0 * 2.0 / 8.0, abs=1e-12)
    assert support_bounds(I.dist) == (-math.inf, math.inf)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_rademacher_newton_matches_binary_entropy(p):
    I = RateFunction(Rademacher(p))
    for r in np.linspace(-0.99, 0.99, 50):
        assert abs(I.evaluate(r) - binary_entropy_rate(p, r)) < 1e-8


def test_rademacher_hand_values():
    I = RateFunction(Rademacher(0.5))
    # at the upper support endpoint: -log weight(+1)
    assert I.evaluate(1.0) == pytest.approx(math.log(2.0), abs=1e-12)
    # interior value worked by hand: q=0.75
    expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert expected == pytest.approx(0.130812, abs=1e-6)  # guard the hand value
    assert I.evaluate(0.5) == pytest.approx(expected, abs=1e-10)


def test_zero_at_the_mean():
    for d in (Gaussian(0.3, 2.0), Rademacher(0.7),
              FiniteDiscrete((-1.0, 0.0, 2.0), (0.25, 0.5, 0.25))):
        I = RateFunction(d)
        assert I.evaluate(mean(d)) == pytest.approx(0.0, abs=1e-12)
        assert I.evaluate(mean(d)) >= 0.0


# ---------------------------------------------------- domain and boundaries


def test_outside_support_is_infinite():
    I = RateFunction(Rademacher(0.5))
    assert I.evaluate(1.2) == math.inf
    assert I.evaluate(-3.0) == math.inf
    val, tilt = I.solve(2.0)
    assert val == math.inf and math.isnan(tilt)


@pytest.mark.parametrize(
    "atoms, weights",
    [
        ((-2.0, 0.0, 1.5), (0.1, 0.6, 0.3)),
        ((-1.0, 0.0, 1.0, 2.0), (0.3, 0.4, 0.2, 0.1)),
        ((-1.0, 0.0, 1.0, 2.0), (0.1, 0.2, 0.4, 0.3)),
        ((-1.0, 0.0, 1.0, 2.0), (0.05, 0.1, 0.3, 0.55)),
        ((-3.0, 1.0, 7.0), (0.2, 0.3, 0.5)),
    ],
    ids=["three-atom", "ladder-low", "ladder-mid", "ladder-high", "integer"],
)
def test_boundary_atoms_exact_log_weight(atoms, weights):
    # each endpoint reads one atom's weight, with no tail sums subtracted
    d = FiniteDiscrete(atoms, weights)
    I = RateFunction(d)
    assert support_bounds(d) == (atoms[0], atoms[-1])
    assert I.solve(atoms[-1]) == (-math.log(weights[-1]), math.inf)
    assert I.solve(atoms[0]) == (-math.log(weights[0]), -math.inf)


def test_point_mass():
    I = RateFunction(FiniteDiscrete((0.7,), (1.0,)))
    assert I.evaluate(0.7) == 0.0
    assert I.evaluate(0.700001) == math.inf
    assert support_bounds(I.dist) == (0.7, 0.7)


def test_newton_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(ratefn, "_MAX_ITER", 2)
    with pytest.raises(NonConvergenceError):
        RateFunction(Rademacher(0.5)).evaluate(0.9)


# ------------------------------------------------------------- shape checks


@pytest.mark.parametrize("d", [
    Gaussian(0.0, 1.0),
    Rademacher(0.35),
    FiniteDiscrete((-1.0, 0.0, 2.0), (0.25, 0.5, 0.25)),
])
def test_monotone_away_from_mean(d):
    I = RateFunction(d)
    mu = mean(d)
    lo, hi = support_bounds(d)
    lo = max(lo, mu - 4.0)
    hi = min(hi, mu + 4.0)
    up = [I.evaluate(r) for r in np.linspace(mu, hi, 100)]
    down = [I.evaluate(r) for r in np.linspace(lo, mu, 100)]
    assert all(b >= a - 1e-9 for a, b in zip(up, up[1:]))
    assert all(a >= b - 1e-9 for a, b in zip(down, down[1:]))
    # strictly increasing once clearly away from the mean
    assert up[-1] > up[len(up) // 2] > up[0]


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-0.95, max_value=0.95, allow_nan=False),
       st.integers(min_value=0, max_value=10_000))
def test_duality_supremum(r, seed):
    # the solved tilt must beat random competitors in lambda*r - K(lambda)
    d = Rademacher(0.4)
    I = RateFunction(d)
    val, tilt = I.solve(r)
    rng = np.random.default_rng(seed)
    for lam in tilt + rng.normal(0, 2.0, size=50):
        assert val >= lam * r - cgf(d, lam) - 1e-9


# ------------------------------------------------------ Monte Carlo slopes


def exact_binomial_tail_20() -> float:
    # P(S_20/20 >= 0.5) for fair Rademacher: at least 15 heads out of 20
    count = sum(math.comb(20, k) for k in range(15, 21))
    assert count == 21700
    return count / 2**20


def test_mc_tail_matches_exact_binomial():
    p_exact = exact_binomial_tail_20()
    fit = verify_cramer_slope(Rademacher(0.5), 0.5, "ge", (10, 20, 40), 42,
                              samples_per_n=1_000_000)
    i = fit.ns.index(20)
    p_hat, se = fit.values[i], fit.stderrs[i]
    assert abs(p_hat - p_exact) < 3 * se


def test_cramer_slope_gaussian_small_budget():
    fit = verify_cramer_slope(Gaussian(0.0, 1.0), 0.5, "ge", (10, 20, 40), 1234,
                              samples_per_n=200_000)
    assert fit.target == pytest.approx(0.125, abs=1e-12)
    assert abs(fit.slope - 0.125) / 0.125 < 0.25
    assert fit.slope_se > 0.0


def test_cramer_slope_lower_tail():
    fit = verify_cramer_slope(Gaussian(0.0, 1.0), -0.5, "le", (10, 20, 40), 99,
                              samples_per_n=200_000)
    assert abs(fit.slope - 0.125) / 0.125 < 0.25


def test_cramer_slope_rejects_wrong_side_of_mean():
    with pytest.raises(InvalidInputError):
        verify_cramer_slope(Gaussian(0.0, 1.0), -0.5, "ge", (10, 20, 40), 0, 1000)
    with pytest.raises(InvalidInputError):
        verify_cramer_slope(Gaussian(0.0, 1.0), 1.2, "ge", (10, 20), 0, 1000)


def test_cramer_slope_degenerate_budget():
    # a tail this deep never produces a hit at these budgets
    with pytest.raises(DegenerateEstimateError):
        verify_cramer_slope(Gaussian(0.0, 1.0), 5.0, "ge", (40, 60, 80), 7,
                            samples_per_n=2_000)


def test_cramer_slope_deterministic_given_seed():
    f1 = verify_cramer_slope(Gaussian(0.0, 1.0), 0.5, "ge", (10, 20, 40), 5, 50_000)
    f2 = verify_cramer_slope(Gaussian(0.0, 1.0), 0.5, "ge", (10, 20, 40), 5, 50_000)
    assert f1.slope == f2.slope and f1.values == f2.values


def _unreached(*args, **kwargs):
    raise AssertionError("a grid point was run")


@pytest.mark.parametrize(
    "seed",
    [-1, "5", 1.5, None, np.random.SeedSequence(5)],
    ids=["negative", "string", "fraction", "None", "SeedSequence"],
)
def test_cramer_slope_refuses_a_seed_that_is_neither_int_nor_generator(seed, monkeypatch):
    # refused before any grid point is drawn or forked
    monkeypatch.setattr(experiments, "_by_grid_point", _unreached)
    with pytest.raises(InvalidInputError, match="seed must be an integer"):
        verify_cramer_slope(Gaussian(0.0, 1.0), 0.5, "ge", (4, 6, 8), seed, 100)


def test_cramer_slope_refuses_a_generator(monkeypatch):
    # the seed is an int only: default_rng(s) would give the streams of s
    monkeypatch.setattr(experiments, "_by_grid_point", _unreached)
    with pytest.raises(InvalidInputError, match="seed must be an integer"):
        verify_cramer_slope(Gaussian(0.0, 1.0), 0.5, "ge", (4, 6, 8), np.random.default_rng(5), 100)
