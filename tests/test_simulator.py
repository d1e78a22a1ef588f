import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedRNG, oracle_regime_path, rademacher_script
from histwalk import simulator
from histwalk.distributions import FiniteDiscrete, Gaussian, Rademacher
from histwalk.errors import InvalidInputError
from histwalk.simulator import (
    BlockOutcome,
    WalkState,
    init,
    run,
    sample_block_outcomes,
    sample_exit,
    step_delayed,
    step_instantaneous,
)
from histwalk.theory import ModelSpec


def point(v):
    return FiniteDiscrete((v,), (1.0,))


def flip_spec(window):
    """Deterministic ping-pong: law 0 always lands above the threshold,
    law 1 always below. Dyadic atoms keep every comparison exact."""
    return ModelSpec(
        dists=(point(0.75), point(0.25)),
        thresholds=(0.5,),
        window=window,
        initial_regime=0,
    )


def rademacher_spec(window, i0=0):
    return ModelSpec(
        dists=(Rademacher(0.3), Rademacher(0.7)),
        thresholds=(0.0,),
        window=window,
        initial_regime=i0,
    )


AnyRng = np.random.default_rng


# ----------------------------------------------------------------------- init


def test_init_point_mass():
    spec = ModelSpec(
        dists=(point(1.0), point(2.0)),
        thresholds=(1.5,),
        window=5,
        initial_regime=0,
    )
    st = init(spec, AnyRng(0))
    assert st.position == 5.0
    assert st.time == 5
    assert st.consecutive_uses == 5
    assert st.regime == 0
    assert st.window_sum == 5.0
    assert st.window.tolist() == [1.0] * 5


def test_init_uses_initial_regime_law():
    spec = ModelSpec(
        dists=(point(1.0), point(2.0)),
        thresholds=(1.5,),
        window=4,
        initial_regime=1,
    )
    st = init(spec, AnyRng(0))
    assert st.position == 8.0 and st.regime == 1


# -------------------------------------------------------- step-by-step traces


def hand_step_regimes(spec, version, horizon):
    step = step_delayed if version == "delayed" else step_instantaneous
    st = init(spec, AnyRng(0))
    regimes = [spec.initial_regime] * spec.window
    while st.time < horizon:
        step(st, spec, AnyRng(0))
        regimes.append(st.regime)
    return regimes, st


def test_delayed_flip_pattern():
    # N=2: two forced steps per visit, then the rule flips the regime
    regimes, st = hand_step_regimes(flip_spec(2), "delayed", 12)
    assert regimes == [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]
    assert st.time == 12
    # positions: six 0.75-draws and six 0.25-draws
    assert st.position == pytest.approx(6 * 0.75 + 6 * 0.25, abs=1e-12)


def test_instantaneous_flip_pattern():
    # the rule fires every step: mixed windows average exactly onto the
    # threshold, and the half-open convention sends them up
    regimes, _ = hand_step_regimes(flip_spec(2), "instantaneous", 10)
    assert regimes == [0, 0, 1, 1, 0, 1, 1, 0, 1, 1]


def test_instantaneous_sojourns_can_be_shorter_than_window():
    regimes, _ = hand_step_regimes(flip_spec(2), "instantaneous", 10)
    stays = [len(list(g)) for _, g in itertools.groupby(regimes)]
    assert min(stays[1:]) == 1  # the delayed version could never do this
    assert all(s >= 1 for s in stays)


def test_delayed_sojourns_at_least_window():
    regimes, _ = hand_step_regimes(flip_spec(3), "delayed", 30)
    stays = [len(list(g)) for _, g in itertools.groupby(regimes)]
    assert all(s >= 3 for s in stays[:-1])


def test_step_window_sum_tracks_buffer():
    spec = rademacher_spec(5)
    rng = AnyRng(7)
    st = init(spec, rng)
    for k in range(2000):
        step_delayed(st, spec, rng)
        if k % 100 == 0:
            assert st.window_sum == pytest.approx(float(st.window.sum()), abs=1e-9)
    assert st.time == 2005


def test_step_periodic_exact_resum(monkeypatch):
    monkeypatch.setattr(simulator, "_RESUM_INTERVAL", 16)
    spec = ModelSpec(
        dists=(Gaussian(0.0, 1.0), Gaussian(1.0, 1.0)),
        thresholds=(0.4,),
        window=4,
        initial_regime=0,
    )
    rng = AnyRng(3)
    st = init(spec, rng)
    for _ in range(100):
        step_delayed(st, spec, rng)
        assert st.window_sum == pytest.approx(float(st.window.sum()), abs=1e-9)
    assert st.steps_since_resum < 16


# ------------------------------------------------- exhaustive rule enumeration


@pytest.mark.parametrize("version", ["delayed", "instantaneous"])
@pytest.mark.parametrize("window", [2, 3])
def test_exhaustive_enumeration_small(version, window):
    spec = rademacher_spec(window)
    horizon = 10
    step = step_delayed if version == "delayed" else step_instantaneous
    for bits in itertools.product((-1.0, 1.0), repeat=horizon):
        expected = oracle_regime_path(bits, spec.thresholds, window, 0, version)
        rng = rademacher_script(bits)
        st = init(spec, rng)
        got = [spec.initial_regime] * window
        for _ in range(horizon - window):
            step(st, spec, rng)
            got.append(st.regime)
        assert got == expected, f"bits={bits}"
        assert st.position == pytest.approx(sum(bits), abs=1e-12)


# ----------------------------------------------------------------- run engine


def test_run_rejects_bad_args():
    spec = rademacher_spec(4)
    with pytest.raises(InvalidInputError):
        run(spec, "sometimes", 100, AnyRng(0))
    with pytest.raises(InvalidInputError):
        run(spec, "delayed", 3, AnyRng(0))


def reference_path(spec, version, steps, rng):
    """Increments and regimes of ``init`` plus repeated step_* calls."""
    step = step_delayed if version == "delayed" else step_instantaneous
    st = init(spec, rng)
    incs = st.window.tolist()
    regimes = [spec.initial_regime] * spec.window
    while st.time < steps:
        step(st, spec, rng)
        incs.append(float(st.window[st.head - 1]))
        regimes.append(st.regime)
    return np.array(incs), regimes


def regime_path(res):
    return np.repeat([rec.regime for rec in res.records], [rec.steps for rec in res.records]).tolist()


LADDERS = {
    "gaussian-l1": ModelSpec(
        dists=(Gaussian(0.0, 1.0), Gaussian(1.0, 1.0)), thresholds=(0.4,), window=10, initial_regime=0,
    ),
    "gaussian-l2": ModelSpec(
        dists=(Gaussian(0.0, 1.0), Gaussian(1.0, 1.0), Gaussian(2.0, 1.0)),
        thresholds=(0.45, 1.55), window=4, initial_regime=1,
    ),
    "rademacher": rademacher_spec(3),
    "point-masses": flip_spec(2),
    "integer-atoms": ModelSpec(
        dists=(FiniteDiscrete((-3.0, 1.0, 7.0), (0.5, 0.3, 0.2)), FiniteDiscrete((-3.0, 1.0, 7.0), (0.2, 0.3, 0.5))),
        thresholds=(1.0,), window=3, initial_regime=0,
    ),
}


@pytest.mark.parametrize("version", ["delayed", "instantaneous"])
@pytest.mark.parametrize("ladder", sorted(LADDERS))
def test_run_is_the_reference_draw_for_draw(ladder, version):
    # the engine reads the stream one base variate per step, carrying the
    # variates a chunk drew past a switch into the next sojourn
    spec = LADDERS[ladder]
    switches = 0
    for seed in range(20):
        res = run(spec, version, 3000, AnyRng(seed), record_increments=True)
        incs, regimes = reference_path(spec, version, 3000, AnyRng(seed))
        assert np.array_equal(res.increments, incs), f"seed={seed}"
        assert regime_path(res) == regimes, f"seed={seed}"
        switches += len(res.records) - 1
    assert switches > 20 * 10


def test_run_mixed_ladder_drops_carried_variates_of_the_other_kind():
    # normals left over from the Gaussian regime must not be read as the
    # uniforms of the two-atom law, nor uniforms as normals
    spec = ModelSpec(
        dists=(Gaussian(0.0, 1.0), FiniteDiscrete((0.0, 2.0), (0.5, 0.5))),
        thresholds=(0.5,),
        window=3,
        initial_regime=0,
    )
    res = run(spec, "instantaneous", 100_000, AnyRng(31), record_increments=True)
    upper = res.increments[np.array(regime_path(res)) == 1]
    assert set(np.unique(upper)) <= {0.0, 2.0}
    assert len(upper) > 10_000
    freq = float(np.mean(upper == 0.0))
    assert abs(freq - 0.5) < 5 * math.sqrt(0.25 / len(upper))


def block_edges(n, count):
    """The times at which the walker's first ``count`` blocks end: the N
    forced draws, then blocks of max(64, 2N) << k capped at the block cap."""
    edges = [n]
    for k in range(count - 1):
        edges.append(edges[-1] + min(max(64, 2 * n) << k, simulator._BLOCK_CAP))
    return edges


def stays_of(regimes):
    """(regime, steps, exit direction, censored) of each stay in a regime path."""
    stays = [(r, len(list(g))) for r, g in itertools.groupby(regimes)]
    out = [(r, k, "up" if nxt > r else "down", False) for (r, k), (nxt, _) in zip(stays, stays[1:])]
    return out + [(*stays[-1], None, True)]


def edge_ladder(kind, gap, n, i0):
    """Two laws about a threshold; ``gap`` sets how far apart their means are."""
    if kind == "gaussian":
        dists, r = (Gaussian(-gap, 1.0), Gaussian(gap, 1.0)), 0.0
    elif kind == "rademacher":
        dists, r = (Rademacher(0.5 - gap / 2), Rademacher(0.5 + gap / 2)), 0.0
    else:
        dists, r = LADDERS["integer-atoms"].dists, 1.0
    return ModelSpec(dists=dists, thresholds=(r,), window=n, initial_regime=i0)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "rademacher", "integer-atoms"]),
    version=st.sampled_from(["delayed", "instantaneous"]),
    n=st.integers(min_value=1, max_value=300),
    gap=st.floats(min_value=0.0, max_value=0.8),
    i0=st.integers(min_value=0, max_value=1),
    edge=st.integers(min_value=0, max_value=4),
    offset=st.integers(min_value=-1, max_value=1),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_run_is_the_reference_at_block_edges(kind, version, n, gap, i0, edge, offset, seed):
    # horizons just before, at and after a block's end, where refills and
    # instantaneous re-entries straddle two blocks
    spec = edge_ladder(kind, gap, n, i0)
    steps = max(n, block_edges(n, edge + 1)[edge] + offset)
    res = run(spec, version, steps, AnyRng(seed), record_increments=True)
    incs, regimes = reference_path(spec, version, steps, AnyRng(seed))
    assert np.array_equal(res.increments, incs)
    assert regime_path(res) == regimes
    assert [(r.regime, r.steps, r.exit_direction, r.censored) for r in res.records] == stays_of(regimes)


@pytest.mark.parametrize("version", ["delayed", "instantaneous"])
@pytest.mark.parametrize("ladder", ["gaussian-l1", "integer-atoms"])
def test_run_is_the_reference_in_blocks_at_the_cap(ladder, version):
    # two full blocks at the cap and part of a third, with switches throughout
    spec = LADDERS[ladder]
    steps = block_edges(spec.window, 11)[10] + 1000
    assert steps - block_edges(spec.window, 9)[8] > 2 * simulator._BLOCK_CAP
    res = run(spec, version, steps, AnyRng(5), record_increments=True)
    incs, regimes = reference_path(spec, version, steps, AnyRng(5))
    assert np.array_equal(res.increments, incs)
    assert regime_path(res) == regimes
    assert np.array_equal(res.window, incs[-spec.window:])


@pytest.mark.parametrize("version", ["delayed", "instantaneous"])
def test_run_trace_and_final_window_are_read_off_the_increments(version):
    # a checkpoint at every time puts some inside every delayed refill and
    # every instantaneous straddle (the N-1 windows after a stay re-enters a
    # regime that already drew in the same block); the drift keeps positions
    # and window averages far from 0, so relative errors are meaningful
    n, steps = 10, 3000
    spec = ModelSpec(dists=(Gaussian(1.0, 1.0), Gaussian(2.0, 1.0)), thresholds=(1.5,), window=n, initial_regime=0)
    res = run(spec, version, steps, AnyRng(4), checkpoint_times=range(1, steps + 1), record_increments=True)
    incs, path = res.increments, regime_path(res)
    starts = np.cumsum([rec.steps for rec in res.records])[:-1]
    edges = block_edges(n, 8)
    reentries = [s for s in starts if path[s] in path[max(e for e in edges if e <= s):s]]
    assert len(starts) > 20 and reentries
    tr = res.trace
    assert np.array_equal(tr.times, np.arange(1, steps + 1))
    assert tr.regimes.tolist() == path
    np.testing.assert_allclose(tr.positions, np.cumsum(incs), rtol=1e-12, atol=0)
    assert np.isnan(tr.window_avgs[:n - 1]).all()
    sums = np.lib.stride_tricks.sliding_window_view(incs, n).sum(axis=1)
    np.testing.assert_allclose(tr.window_avgs[n - 1:], sums / n, rtol=1e-12, atol=0)
    assert np.array_equal(res.window, incs[-n:])


def test_run_memory_is_a_few_blocks():
    # the walker holds a few arrays of one block (at most 2^13 draws), not
    # chunks of 2^17 several times over
    spec = ModelSpec(
        dists=(Gaussian(0.0, 1.0), Gaussian(1.0, 1.0), Gaussian(2.0, 1.0)),
        thresholds=(0.4, 1.3), window=40, initial_regime=0,
    )
    run(spec, "instantaneous", 100_000, AnyRng(0))  # lazy imports are not the walker's memory
    tracemalloc.start()
    try:
        run(spec, "instantaneous", 2_000_000, AnyRng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("version", ["delayed", "instantaneous"])
def test_run_matches_rule_oracle_gaussian_l2(version):
    spec = ModelSpec(
        dists=(Gaussian(0.0, 1.0), Gaussian(1.0, 1.0), Gaussian(2.0, 1.0)),
        thresholds=(0.45, 1.55),
        window=4,
        initial_regime=1,
    )
    res = run(spec, version, 3000, AnyRng(2024), record_increments=True)
    incs = res.increments
    assert len(incs) == 3000
    expected = oracle_regime_path(incs.tolist(), spec.thresholds, 4, 1, version)
    got = []
    for rec in res.records:
        got.extend([rec.regime] * rec.steps)
    assert got == expected
    # sojourn displacements partition the increments
    offset = 0
    for rec in res.records:
        assert rec.displacement == pytest.approx(float(incs[offset:offset + rec.steps].sum()), abs=1e-9)
        offset += rec.steps
    assert res.position == pytest.approx(float(incs.sum()), abs=1e-9)


@pytest.mark.parametrize("version", ["delayed", "instantaneous"])
def test_run_matches_step_functions_rademacher(version):
    spec = rademacher_spec(3)
    res = run(spec, version, 500, AnyRng(99), record_increments=True)
    # replay the recorded increments through the one-step reference
    rng = rademacher_script(res.increments)
    st = init(spec, rng)
    got = [spec.initial_regime] * 3
    step = step_delayed if version == "delayed" else step_instantaneous
    while st.time < 500:
        step(st, spec, rng)
        got.append(st.regime)
    expected = []
    for rec in res.records:
        expected.extend([rec.regime] * rec.steps)
    assert got == expected
    assert st.position == pytest.approx(res.position, abs=1e-9)


def test_run_draws_from_the_regime_law():
    # regimes with disjoint atom sets: every increment must belong to the
    # law of the regime that drew it
    spec = ModelSpec(
        dists=(
            FiniteDiscrete((-1.0, 0.75), (0.5, 0.5)),
            FiniteDiscrete((-0.75, 1.0), (0.5, 0.5)),
        ),
        thresholds=(0.0,),
        window=3,
        initial_regime=0,
    )
    res = run(spec, "delayed", 4000, AnyRng(5), record_increments=True)
    regimes = np.repeat(
        [rec.regime for rec in res.records],
        [rec.steps for rec in res.records],
    )
    incs = res.increments
    assert set(np.unique(incs[regimes == 0])) <= {-1.0, 0.75}
    assert set(np.unique(incs[regimes == 1])) <= {-0.75, 1.0}
    assert (regimes == 1).any() and (regimes == 0).any()


@pytest.mark.parametrize("version", ["delayed", "instantaneous"])
def test_run_record_invariants(version):
    spec = ModelSpec(
        dists=(Gaussian(0.0, 1.0), Gaussian(1.0, 1.0), Gaussian(2.0, 1.0)),
        thresholds=(0.45, 1.55),
        window=5,
        initial_regime=0,
    )
    res = run(spec, version, 20_000, AnyRng(1))
    recs = res.records
    assert recs[0].regime == 0
    assert sum(r.steps for r in recs) == 20_000
    assert all(not r.censored for r in recs[:-1])
    assert recs[-1].censored and recs[-1].exit_direction is None
    for a, b in zip(recs, recs[1:]):
        assert abs(b.regime - a.regime) == 1
        assert b.regime == a.regime + (1 if a.exit_direction == "up" else -1)
    if version == "delayed":
        assert all(r.steps >= 5 for r in recs[:-1])
    else:
        assert all(r.steps >= 1 for r in recs[:-1])
    assert res.steps == 20_000


def test_run_trace_checkpoints():
    spec = rademacher_spec(4)
    res = run(spec, "delayed", 5000, AnyRng(8), checkpoint_times=[4, 100, 2500, 5000],
              record_increments=True)
    tr = res.trace
    assert tr.times.tolist() == [4, 100, 2500, 5000]  # given times replace the default set
    csum = np.cumsum(res.increments)
    for t, p, wa in zip(tr.times, tr.positions, tr.window_avgs):
        assert p == pytest.approx(csum[t - 1], abs=1e-9)
        assert wa == pytest.approx(float(res.increments[t - 4:t].sum()) / 4, abs=1e-9)


def test_run_deterministic_per_seed():
    spec = rademacher_spec(6)
    a = run(spec, "delayed", 10_000, AnyRng(77))
    b = run(spec, "delayed", 10_000, AnyRng(77))
    assert a.position == b.position
    assert a.records == b.records
    assert np.array_equal(a.trace.positions, b.trace.positions)


# ---------------------------------------------------------------- sample_exit


def test_sample_exit_point_mass_immediate_up():
    rec = sample_exit(point(1.0), 0.0, 0.9, 6, AnyRng(0))
    assert rec.steps == 6
    assert rec.displacement == pytest.approx(6.0, abs=1e-12)
    assert rec.exit_direction == "up" and not rec.censored


def test_sample_exit_point_mass_immediate_down():
    rec = sample_exit(point(-1.0), -0.9, 1.0, 5, AnyRng(0))
    assert rec.steps == 5 and rec.exit_direction == "down"


def test_sample_exit_one_sided_always_up():
    for seed in range(20):
        rec = sample_exit(Gaussian(1.0, 1.0), -math.inf, 1.4, 4, AnyRng(seed), cap=100_000)
        assert rec.exit_direction == "up" and not rec.censored


def test_sample_exit_censoring_at_cap():
    rec = sample_exit(point(0.5), 0.0, 1.0, 4, AnyRng(0), cap=57)
    assert rec.censored and rec.exit_direction is None
    assert rec.steps == 57


def test_sample_exit_validates():
    with pytest.raises(InvalidInputError):
        sample_exit(Gaussian(0, 1), 1.0, 0.5, 4, AnyRng(0))
    with pytest.raises(InvalidInputError):
        sample_exit(Gaussian(0, 1), 0.0, 0.5, 10, AnyRng(0), cap=5)


@pytest.mark.parametrize(
    "d, r_lo, r_hi",
    [
        (Gaussian(1.0, 1.0), 0.4, 1.3),
        (FiniteDiscrete((-1.0, 0.0, 1.0, 2.0), (0.1, 0.2, 0.4, 0.3)), 0.4, 1.3),
        (Rademacher(0.5), -0.25, 0.25),
    ],
    ids=["gaussian", "lattice", "rademacher"],
)
@pytest.mark.parametrize("n", [1, 3, 10, 40])
def test_sample_exit_is_the_first_stay_of_run(d, r_lo, r_hi, n):
    # A fresh stay and a run's first sojourn from the middle regime walk the
    # same draws. They differ only at the horizon: sample_exit counts an exit
    # on its cap-th draw, run censors it since no draw follows the decision.
    spec = ModelSpec(dists=(d, d, d), thresholds=(r_lo, r_hi), window=n, initial_regime=1)
    edges = 0
    for seed in range(10):
        # the free stay's length puts its exit on the last draw of a horizon
        free = sample_exit(d, r_lo, r_hi, n, AnyRng(seed), cap=20 * n + 300).steps
        for steps in (20 * n + 300, free, max(n, free - 1)):
            rec = sample_exit(d, r_lo, r_hi, n, AnyRng(seed), cap=steps)
            first = run(spec, "delayed", steps, AnyRng(seed)).records[0]
            assert first.regime == 1 and rec.steps == first.steps
            # a checkpoint inside the refill makes run sum it by cumsum
            assert rec.displacement == pytest.approx(first.displacement, abs=1e-9)
            if rec.steps == steps and not rec.censored:
                edges += 1
                assert first.censored and first.exit_direction is None
            else:
                assert (rec.exit_direction, rec.censored) == (first.exit_direction, first.censored)
    assert edges > 0


def test_sample_exit_steps_match_oracle_rademacher():
    # replaying a one-regime stay through the oracle with l=0-style bounds
    d = Rademacher(0.5)
    for seed in range(50):
        rng = AnyRng(seed)
        rec = sample_exit(d, -0.5, 0.5, 3, rng, cap=10_000)
        rng2 = AnyRng(seed)
        draws = []
        # regenerate the exact stream the sampler consumed
        while len(draws) < rec.steps:
            draws.extend(np.where(rng2.random(min(64, 10_000)) < 0.5, -1.0, 1.0)[: rec.steps - len(draws)])
        sums = [sum(draws[j:j + 3]) for j in range(rec.steps - 3 + 1)]
        # every window before the last is inside, the last one is out
        assert all(-1.5 <= s < 1.5 for s in sums[:-1])
        assert not (-1.5 <= sums[-1] < 1.5)


# --------------------------------------------------------------- block samples


def one_block(d, r_lo, r_hi, n, rng):
    """The outcome of a single fresh block."""
    counts = sample_block_outcomes(d, r_lo, r_hi, n, rng, 1)
    assert sum(counts.values()) == 1
    return next(out for out, k in counts.items() if k)


def test_block_point_mass_cases():
    rng = AnyRng(0)
    assert one_block(point(0.5), 0.0, 1.0, 5, rng) is BlockOutcome.NONE
    assert one_block(point(1.5), 0.0, 1.0, 5, rng) is BlockOutcome.UP
    assert one_block(point(-0.5), 0.0, 1.0, 5, rng) is BlockOutcome.DOWN


def test_block_n1_rademacher_never_none():
    rng = AnyRng(4)
    counts = sample_block_outcomes(Rademacher(0.5), -0.5, 0.5, 1, rng, 4000)
    assert counts[BlockOutcome.NONE] == 0 and counts[BlockOutcome.BOTH] == 0
    total = counts[BlockOutcome.UP] + counts[BlockOutcome.DOWN]
    assert total == 4000
    assert abs(counts[BlockOutcome.UP] / 4000 - 0.5) < 0.05


def test_block_counts_sum_and_union_bound():
    d = Gaussian(0.0, 1.0)
    n, r_hi, count = 6, 0.8, 200_000
    rng = AnyRng(12)
    counts = sample_block_outcomes(d, -0.8, r_hi, n, rng, count)
    assert sum(counts.values()) == count
    # crossing the upper threshold is at most N times one window's chance
    single = 0.5 * math.erfc(r_hi * math.sqrt(n) / math.sqrt(2))
    p_up = (counts[BlockOutcome.UP] + counts[BlockOutcome.BOTH]) / count
    se = math.sqrt(p_up * (1 - p_up) / count)
    assert p_up <= n * single + 5 * se


def test_block_scalar_and_batch_agree_in_distribution():
    d = Rademacher(0.5)
    rng = AnyRng(3)
    # exact distribution of window sums for N=2 blocks: increments (a,b,c),
    # windows (a+b, b+c); enumerate all 8 equally likely blocks by hand:
    # UP needs max >= 1 (sum >= 2 given parity), DOWN needs min < -1
    outcomes = {BlockOutcome.UP: 0, BlockOutcome.DOWN: 0, BlockOutcome.BOTH: 0, BlockOutcome.NONE: 0}
    for block in itertools.product((-1, 1), repeat=3):
        w = (block[0] + block[1], block[1] + block[2])
        up = max(w) >= 1.0
        dn = min(w) < -1.0
        key = (BlockOutcome.UP if up and not dn else BlockOutcome.DOWN if dn and not up
               else BlockOutcome.BOTH if up and dn else BlockOutcome.NONE)
        outcomes[key] += 1
    # scripted check on two hand blocks
    assert one_block(d, -0.5, 0.5, 2, rademacher_script([1, 1, -1])) is BlockOutcome.UP
    assert one_block(d, -0.5, 0.5, 2, rademacher_script([-1, -1, 1])) is BlockOutcome.DOWN
    assert one_block(d, -0.5, 0.5, 2, rademacher_script([-1, 1, -1])) is BlockOutcome.NONE
    # BOTH is impossible for N=2 with these thresholds: windows overlap in b
    assert outcomes[BlockOutcome.BOTH] == 0
    counts = sample_block_outcomes(d, -0.5, 0.5, 2, rng, 20_000)
    assert counts[BlockOutcome.BOTH] == 0
    for key in (BlockOutcome.UP, BlockOutcome.DOWN, BlockOutcome.NONE):
        assert abs(counts[key] / 20_000 - outcomes[key] / 8) < 0.02


def test_block_validates():
    with pytest.raises(InvalidInputError):
        sample_block_outcomes(Gaussian(0, 1), 0.5, 0.5, 3, AnyRng(0), 1)
    with pytest.raises(InvalidInputError):
        sample_block_outcomes(Gaussian(0, 1), -0.5, 0.5, 0, AnyRng(0), 10)
