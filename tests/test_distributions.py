import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from histwalk import ratefn
from histwalk.distributions import (
    FiniteDiscrete,
    Gaussian,
    Rademacher,
    _as_finite_discrete,
    cgf,
    cgf_derivatives,
    mean,
    support_bounds,
    tail_prob,
)
from histwalk.errors import InvalidInputError
from histwalk.ratefn import RateFunction
from histwalk.sampling import from_base, lattice_arrays, sample_mean_sums, sample_n


def finite_discretes(max_atoms=6):
    """Strategy: random finite laws of up to ``max_atoms`` atoms with
    normalised weights."""

    @st.composite
    def build(draw):
        k = draw(st.integers(min_value=1, max_value=max_atoms))
        atoms = sorted(draw(st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=k, max_size=k, unique=True)))
        raw = draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                            min_size=k, max_size=k))
        total = sum(raw)
        w = [x / total for x in raw]
        w[-1] = 1.0 - sum(w[:-1])
        return FiniteDiscrete(tuple(atoms), tuple(w))

    return build()


# ---------------------------------------------------------------- construction


def test_mean_hand_values():
    assert mean(FiniteDiscrete((-1.0, 0.0, 2.0), (0.25, 0.5, 0.25))) == pytest.approx(0.25, abs=1e-15)
    assert mean(Gaussian(0.3, 2.0)) == 0.3
    assert mean(Rademacher(0.5)) == 0.0
    assert mean(Rademacher(0.75)) == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [
    lambda: Gaussian(0.0, 0.0),
    lambda: Gaussian(0.0, -1.0),
    lambda: Rademacher(0.0),
    lambda: Rademacher(1.0),
    lambda: FiniteDiscrete((1.0, 1.0), (0.5, 0.5)),
    lambda: FiniteDiscrete((2.0, 1.0), (0.5, 0.5)),
    lambda: FiniteDiscrete((0.0, 1.0), (0.5, 0.6)),
    lambda: FiniteDiscrete((0.0, 1.0), (-0.1, 1.1)),
    lambda: FiniteDiscrete((), ()),
    lambda: FiniteDiscrete((-1.0, 1.0), (math.nan, 0.5)),
    lambda: FiniteDiscrete((-1.0, 1.0), (0.5, math.nan)),
    # strings and bools are refused, not coerced by float() or compared
    lambda: Gaussian("0", 1.0),
    lambda: Gaussian(0.0, "1"),
    lambda: Gaussian(True, 1.0),
    lambda: Gaussian(None, 1.0),
    lambda: Rademacher("0.3"),
    lambda: FiniteDiscrete(("-1", "1"), (0.5, 0.5)),
    lambda: FiniteDiscrete((-1.0, 1.0), ("0.5", "0.5")),
    lambda: FiniteDiscrete((0.0,), (True,)),
])
def test_invalid_construction_rejected(bad):
    with pytest.raises(InvalidInputError):
        bad()


def test_support_bounds():
    assert support_bounds(Gaussian(0, 1)) == (-math.inf, math.inf)
    assert support_bounds(Rademacher(0.3)) == (-1.0, 1.0)
    assert support_bounds(FiniteDiscrete((-2.0, 0.5), (0.5, 0.5))) == (-2.0, 0.5)


# ------------------------------------------------------------------------ cgf


def test_cgf_hand_values():
    # Gaussian: K(t) = mu t + sigma2 t^2 / 2
    assert cgf(Gaussian(0.0, 1.0), 2.0) == pytest.approx(2.0, abs=1e-15)
    # fair Rademacher: K(t) = log cosh t
    assert cgf(Rademacher(0.5), 1.0) == pytest.approx(math.log(math.cosh(1.0)), abs=1e-12)
    # point mass at c: K(t) = c t
    assert cgf(FiniteDiscrete((3.0,), (1.0,)), 2.0) == pytest.approx(6.0, abs=1e-12)


def test_cgf_zero_is_zero():
    for d in (Gaussian(1.5, 0.7), Rademacher(0.2),
              FiniteDiscrete((-1.0, 0.0, 2.0), (0.25, 0.5, 0.25))):
        assert cgf(d, 0.0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("t", [700.0, -700.0, 350.0])
def test_cgf_large_argument_stays_finite(t):
    for d in (Rademacher(0.3), FiniteDiscrete((-2.0, 0.1, 1.7), (0.2, 0.5, 0.3))):
        v = cgf(d, t)
        assert math.isfinite(v)
        dv, d2v = cgf_derivatives(d, t)
        assert math.isfinite(dv) and math.isfinite(d2v)


def test_cgf_derivatives_hand_values():
    assert cgf_derivatives(Gaussian(1.0, 1.0), 0.0) == (1.0, 1.0)
    d1, d2 = cgf_derivatives(Rademacher(0.5), 0.0)
    assert d1 == pytest.approx(0.0, abs=1e-15)
    assert d2 == pytest.approx(1.0, abs=1e-15)
    d1, d2 = cgf_derivatives(Rademacher(0.5), 0.7)
    assert d1 == pytest.approx(math.tanh(0.7), abs=1e-12)
    assert d2 == pytest.approx(1.0 / math.cosh(0.7) ** 2, abs=1e-12)
    # point mass: zero variance at any tilt
    assert cgf_derivatives(FiniteDiscrete((0.0,), (1.0,)), 5.0) == (0.0, 0.0)


@pytest.mark.parametrize("d", [
    Rademacher(0.3),
    FiniteDiscrete((-1.0, 0.0, 2.0), (0.25, 0.5, 0.25)),
    Gaussian(-0.5, 2.0),
])
@pytest.mark.parametrize("t", np.linspace(-5, 5, 9).tolist())
def test_cgf_derivatives_match_finite_differences(d, t):
    h = 1e-5
    fd1 = (cgf(d, t + h) - cgf(d, t - h)) / (2 * h)
    fd2 = (cgf(d, t + h) - 2 * cgf(d, t) + cgf(d, t - h)) / (h * h)
    d1, d2 = cgf_derivatives(d, t)
    assert abs(d1 - fd1) <= 1e-6 * max(1.0, abs(d1))
    assert abs(d2 - fd2) <= 1e-4 * max(1.0, abs(d2))


@settings(max_examples=60, deadline=None)
@given(finite_discretes(), st.floats(min_value=-30, max_value=30, allow_nan=False))
def test_cgf_properties_random_laws(d, t):
    assert cgf(d, 0.0) == pytest.approx(0.0, abs=1e-12)
    d1, d2 = cgf_derivatives(d, t)
    assert d2 >= -1e-12  # convexity: tilted variance
    lo, hi = support_bounds(d)
    assert lo - 1e-9 <= d1 <= hi + 1e-9  # tilted mean stays in the support hull


# ----------------------------------------------------------------- tail_prob


def test_tail_prob_hand_values():
    assert tail_prob(Gaussian(0, 1), 0.0, "ge") == pytest.approx(0.5, abs=1e-15)
    assert tail_prob(Rademacher(0.5), 1.0, "ge") == pytest.approx(0.5, abs=1e-15)
    assert tail_prob(Rademacher(0.5), 1.0, "lt") == pytest.approx(0.5, abs=1e-15)
    d = FiniteDiscrete((-1.0, 0.0, 2.0), (0.25, 0.5, 0.25))
    assert tail_prob(d, 0.0, "ge") == pytest.approx(0.75, abs=1e-15)
    assert tail_prob(d, 2.1, "ge") == 0.0
    assert tail_prob(d, -1.0, "lt") == 0.0


def test_tail_prob_rejects_bad_side():
    with pytest.raises(InvalidInputError):
        tail_prob(Gaussian(0, 1), 0.0, "le")


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-6, max_value=6, allow_nan=False))
def test_tail_prob_sides_sum_to_one_gaussian(r):
    assert tail_prob(Gaussian(0.3, 1.7), r, "ge") + tail_prob(Gaussian(0.3, 1.7), r, "lt") == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(finite_discretes(), st.floats(min_value=-6, max_value=6, allow_nan=False))
def test_tail_prob_sides_sum_to_one_discrete(d, r):
    assert tail_prob(d, r, "ge") + tail_prob(d, r, "lt") == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------- numpy formulas as an oracle

# The scalar functions are plain Python. These numpy versions of the same
# formulas are an independent oracle: the same shifted exponentials, summed
# by numpy's reductions and dot products instead of left to right.


def np_law(d):
    if isinstance(d, Rademacher):
        return np.array([-1.0, 1.0]), np.array([1.0 - d.p, d.p])
    return np.asarray(d.atoms), np.asarray(d.weights)


def np_mean(d):
    atoms, weights = np_law(d)
    return float(np.dot(atoms, weights))


def np_cgf(d, t):
    atoms, weights = np_law(d)
    expo = t * atoms + np.log(weights)
    m = float(np.max(expo))
    return m + math.log(float(np.sum(np.exp(expo - m))))


def np_cgf_derivatives(d, t):
    atoms, weights = np_law(d)
    expo = t * atoms + np.log(weights)
    expo -= np.max(expo)
    tilted = np.exp(expo)
    tilted /= tilted.sum()
    m1 = float(np.dot(tilted, atoms))
    m2 = float(np.dot(tilted, (atoms - m1) ** 2))
    return (m1, m2)


def np_tail_prob(d, r, side):
    atoms, weights = np_law(d)
    return float(np.sum(weights[atoms >= r] if side == "ge" else weights[atoms < r]))


# Every oracle value is a sum of at most six terms of size at most
# |t| max|atom| <= 250, each rounded alike up to the last bit of a log or an
# exp, so the two sides agree to a few units in the last place: 1e-12
# relative, or 1e-12 absolute where a value cancels to near zero.
ORACLE_REL = 1e-12
# The Newton solves stop anywhere within 1e-10 * max(1, |r|) of K'(t) = r, so
# the two sides' tilts may differ by that over K''; the value I(r) is
# stationary in the tilt and moves by only the square of that step.
SOLVE_REL = 1e-9

laws = st.one_of(finite_discretes(), st.floats(min_value=0.01, max_value=0.99).map(Rademacher))


def close(x, want, rel=ORACLE_REL):
    return abs(x - want) <= rel * max(1.0, abs(want))


@settings(max_examples=200, deadline=None)
@given(laws, st.floats(min_value=-50, max_value=50), st.floats(min_value=-6, max_value=6))
def test_scalar_functions_match_the_numpy_oracle(d, t, r):
    assert close(mean(d), np_mean(d))
    assert close(cgf(d, t), np_cgf(d, t))
    for got, want in zip(cgf_derivatives(d, t), np_cgf_derivatives(d, t)):
        assert close(got, want)
    for side in ("ge", "lt"):
        assert close(tail_prob(d, r, side), np_tail_prob(d, r, side))


@settings(max_examples=200, deadline=None)
@given(laws, st.floats(min_value=-50, max_value=50))
def test_rate_function_solve_matches_the_numpy_oracle(d, t):
    # r is the tilted mean at t, so the solve's tilt is t up to its tolerance
    r, k2 = np_cgf_derivatives(d, t)
    lo, hi = support_bounds(d)
    assume(lo < r < hi and k2 > 0.0)
    value, tilt = RateFunction(d).solve(r)
    with mock.patch.multiple(ratefn, cgf=np_cgf, cgf_derivatives=np_cgf_derivatives):
        want_value, want_tilt = RateFunction(d).solve(r)
    assert close(value, want_value, SOLVE_REL)
    tol = 2e-10 * max(1.0, abs(r)) / k2
    assert abs(tilt - want_tilt) <= tol + SOLVE_REL * max(1.0, abs(want_tilt))


# ------------------------------------------------------------------- sampling


def test_gaussian_sample_mean_fixed_seed():
    rng = np.random.default_rng(20240817)
    x = sample_n(Gaussian(0.0, 1.0), 1_000_000, rng)
    # 4 sigma / sqrt(n) band
    assert abs(x.mean()) < 4e-3


@pytest.mark.parametrize("d", [
    Gaussian(0.7, 2.3),
    Rademacher(0.3),
    FiniteDiscrete((-1.0, 0.0, 2.0), (0.25, 0.5, 0.25)),
])
def test_sample_mean_within_5_se(d):
    rng = np.random.default_rng(7)
    n = 200_000
    x = sample_n(d, n, rng)
    _, var = cgf_derivatives(d, 0.0)
    se = math.sqrt(var / n)
    assert abs(x.mean() - mean(d)) < 5 * se
    assert np.all(np.isfinite(x))


def test_scalar_sample_matches_vector_mapping():
    # inverse-CDF contract: u below the cumulative weight of -1 maps to -1;
    # one draw at a time, as the reference step takes them, or all at once
    class Scripted:
        def __init__(self, us):
            self.us = list(us)

        def random(self, n):
            return np.array([self.us.pop(0) for _ in range(n)])

    def one_at_a_time(d, r, k):
        return [float(sample_n(d, 1, r)[0]) for _ in range(k)]

    d = Rademacher(0.25)  # weight 0.75 on -1
    assert one_at_a_time(d, Scripted([0.0, 0.7499, 0.75, 0.99]), 4) == [-1.0, -1.0, 1.0, 1.0]
    assert sample_n(d, 4, Scripted([0.0, 0.7499, 0.75, 0.99])).tolist() == [-1.0, -1.0, 1.0, 1.0]

    fd = FiniteDiscrete((-1.0, 0.0, 2.0), (0.25, 0.5, 0.25))
    r = Scripted([0.1, 0.25, 0.6, 0.76, 0.9999])
    assert one_at_a_time(fd, r, 5) == [-1.0, 0.0, 0.0, 2.0, 2.0]
    r = Scripted([0.1, 0.25, 0.6, 0.76, 0.9999])
    assert sample_n(fd, 5, r).tolist() == [-1.0, 0.0, 0.0, 2.0, 2.0]


def test_inverse_cdf_maps_u_at_the_rounded_total_to_the_top_atom():
    # these cumulative weights end at 0.9999999999999999, the largest uniform
    # below 1, which the right-sided search puts past the last atom
    fd = FiniteDiscrete((-1.0, 0.0, 1.0, 2.0), (0.3, 0.4, 0.2, 0.1))
    top = np.nextafter(1.0, 0.0)
    assert lattice_arrays(fd)[1][-1] == top
    assert from_base(fd, np.array([0.0, 0.3, top])).tolist() == [-1.0, 0.0, 2.0]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(finite_discretes(max_atoms=64), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(Rademacher)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_lattice_mapping_is_the_right_sided_search(fd, seed):
    # from_base counts the cumulative weights at or below u; that must be the
    # atom searchsorted(u, "right") picks, clipped to the top one for u at or
    # above the rounded total. A Rademacher law is its two-atom lattice.
    law_atoms, weights = _as_finite_discrete(fd)
    atoms, cumw = lattice_arrays(fd)
    assert np.array_equal(cumw, np.cumsum(weights))
    assert atoms.tolist() == list(law_atoms)
    edges = np.concatenate(([0.0, 1.0], cumw, np.nextafter(cumw, 0.0), np.nextafter(cumw, 1.0)))
    # the edges, then random uniforms up to a whole number of rows of 64
    u = np.concatenate((edges, np.random.default_rng(seed).random(64 * (edges.size // 64 + 4) - edges.size)))
    want = atoms.take(cumw.searchsorted(u, "right"), mode="clip")
    assert np.array_equal(from_base(fd, u), want)
    assert np.array_equal(from_base(fd, u.reshape(-1, 64)), want.reshape(-1, 64))
    assert np.array_equal(from_base(fd, edges), want[:edges.size])
    assert [from_base(fd, u[i:i + 1])[0] for i in range(edges.size)] == want[:edges.size].tolist()
    if isinstance(fd, Rademacher):
        # the direct two-atom map, which cuts at the same double 1 - p
        assert np.array_equal(from_base(fd, u), np.where(u < 1.0 - fd.p, -1.0, 1.0))


def test_equal_laws_draw_their_own_signed_zero():
    # -0.0 == 0.0, so these laws compare equal, but each draws its own zero
    pos, neg = FiniteDiscrete((0.0, 1.0), (0.5, 0.5)), FiniteDiscrete((-0.0, 1.0), (0.5, 0.5))
    assert pos == neg
    u = np.array([0.25])
    for d, sign in [(pos, 1.0), (neg, -1.0), (pos, 1.0)]:
        assert math.copysign(1.0, from_base(d, u)[0]) == sign
        assert math.copysign(1.0, lattice_arrays(d)[0][0]) == sign
    # every draw of a law reads the one cached table, so no caller may write it
    assert not any(array.flags.writeable for array in lattice_arrays(pos))


@pytest.mark.parametrize("k", [127, 128, 129, 200])
def test_lattice_mapping_around_the_largest_count(k):
    # an int8 count holds the 127 comparisons of 128 atoms; larger laws are
    # searched, and both must give the right-sided search's atom
    rng = np.random.default_rng(k)
    w = rng.random(k) + 0.05
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    fd = FiniteDiscrete(tuple(map(float, range(k))), tuple(w))
    atoms, cumw = lattice_arrays(fd)
    u = np.concatenate(([0.0, 1.0], cumw, np.nextafter(cumw, 0.0), rng.random(4096)))
    want = atoms.take(cumw.searchsorted(u, "right"), mode="clip")
    assert np.array_equal(from_base(fd, u), want)
    assert want.max() == k - 1


def test_sample_discrete_only_hits_atoms():
    fd = FiniteDiscrete((-1.5, 0.25, 3.0), (0.2, 0.3, 0.5))
    rng = np.random.default_rng(11)
    x = sample_n(fd, 10_000, rng)
    assert set(np.unique(x)) <= {-1.5, 0.25, 3.0}


# ------------------------------------------------------------ sum-law sampling


def test_sum_sampler_point_mass_exact():
    d = FiniteDiscrete((0.5,), (1.0,))
    rng = np.random.default_rng(3)
    s = sample_mean_sums(d, 12, 100, rng)
    assert np.all(s == 6.0)


def test_sum_sampler_rademacher_parity():
    # S_n has the same parity as n and lives in [-n, n]
    rng = np.random.default_rng(5)
    s = sample_mean_sums(Rademacher(0.4), 7, 5000, rng)
    assert np.all(np.abs(s) <= 7)
    assert np.all((s - 7) % 2 == 0)


def test_rademacher_sums_are_those_of_its_two_atom_lattice():
    # one sampler for every discrete law: the same stream gives the same sums
    lattice = FiniteDiscrete((-1.0, 1.0), (0.7, 0.3))
    for n in (1, 7, 40):
        s = sample_mean_sums(Rademacher(0.3), n, 1000, np.random.default_rng(n))
        assert np.array_equal(s, sample_mean_sums(lattice, n, 1000, np.random.default_rng(n)))


@pytest.mark.parametrize("d", [
    Gaussian(0.2, 1.5),
    Rademacher(0.6),
    FiniteDiscrete((-1.0, 0.0, 2.0), (0.25, 0.5, 0.25)),
])
def test_sum_sampler_rejects_counts_that_are_not_whole(d):
    # n=2.5 would give Rademacher sums off the lattice, such as -0.5;
    # size=True would be taken as 1
    for n, size in [(2.5, 10), (math.nan, 10), (math.inf, 10), ("3", 10), (3, -1), (3, 2.5), (3, True)]:
        with pytest.raises(InvalidInputError):
            sample_mean_sums(d, n, size, np.random.default_rng(0))
    whole = sample_mean_sums(d, 3.0, 10, np.random.default_rng(0))
    assert np.array_equal(whole, sample_mean_sums(d, 3, 10, np.random.default_rng(0)))


@pytest.mark.parametrize("d", [
    Gaussian(0.2, 1.5),
    Rademacher(0.6),
    FiniteDiscrete((-1.0, 0.0, 2.0), (0.25, 0.5, 0.25)),
])
def test_sum_sampler_moments(d):
    n, size = 9, 400_000
    rng = np.random.default_rng(13)
    s = sample_mean_sums(d, n, size, rng)
    _, var = cgf_derivatives(d, 0.0)
    se_mean = math.sqrt(n * var / size)
    assert abs(s.mean() - n * mean(d)) < 5 * se_mean
    assert abs(s.var() - n * var) < 0.05 * max(1.0, n * var)
