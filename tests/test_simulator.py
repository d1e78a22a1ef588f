import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedRNG, oracle_regime_path, rademacher_script
from histwalk import simulator
from histwalk.distributions import FiniteDiscrete, Gaussian, Rademacher
from histwalk.errors import InvalidInputError
from histwalk.sampling import base_variates, from_base, sample_n
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
    # counts that are not whole numbers are refused, not truncated, and so are
    # counts past 2**53, where a float no longer holds every checkpoint time
    for steps in (100.7, "100", math.nan, math.inf, 10**20, 2**63):
        with pytest.raises(InvalidInputError):
            run(spec, "delayed", steps, AnyRng(0))
    whole = run(spec, "delayed", 100.0, AnyRng(0))
    assert whole.steps == 100 and whole.position == run(spec, "delayed", 100, AnyRng(0)).position
    for times in ([50.7], [math.nan], ["5"], [math.inf], [True], [np.True_]):
        with pytest.raises(InvalidInputError):
            run(spec, "delayed", 100, AnyRng(0), checkpoint_times=times)


def test_checkpoint_times_past_the_horizon_are_dropped_however_large():
    spec = rademacher_spec(4)
    want = run(spec, "delayed", 100, AnyRng(0), checkpoint_times=[50])
    for times in ([50, 1e30], [50.0, 10**30, 101], [0, 50, -(10**30)]):
        got = run(spec, "delayed", 100, AnyRng(0), checkpoint_times=times)
        assert got.trace.times.tolist() == [50]
        assert got.trace.positions.tolist() == want.trace.positions.tolist()


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


DECIMAL_ATOMS = ModelSpec(
    dists=(FiniteDiscrete((-0.3, 0.1, 0.7), (0.5, 0.3, 0.2)), FiniteDiscrete((-0.3, 0.1, 0.7), (0.2, 0.3, 0.5))),
    thresholds=(0.1,), window=3, initial_regime=0,
)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: a window sum such as 0.1+0.1+0.1 that ties 3*0.1 only up to rounding "
    "is decided differently by the engine and the reference; remove this marker once decisions "
    "use exact integer sums",
)
@pytest.mark.parametrize("version", ["delayed", "instantaneous"])
def test_run_is_the_reference_on_decimal_atoms(version):
    # the integer-atoms ladder scaled by 0.1: ties are exact there, rounded here
    for seed in range(20):
        res = run(DECIMAL_ATOMS, version, 2000, AnyRng(seed), record_increments=True)
        incs, _ = reference_path(DECIMAL_ATOMS, version, 2000, AnyRng(seed))
        assert np.array_equal(res.increments, incs), f"seed={seed}"


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
    """The end of the N forced draws, then the times at which the walker's
    first ``count - 1`` blocks of ``simulator._block_size`` end, the first
    one headed by the forced draws."""
    blocks = [simulator._block_size(n, k) for k in range(count - 1)]
    return [n] + np.cumsum(blocks).tolist()


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
@pytest.mark.parametrize("ladder", ["gaussian-l1", "gaussian-l2", "integer-atoms"])
def test_run_is_the_reference_in_blocks_at_the_cap(ladder, version):
    # two full blocks at the cap and part of a third, with switches throughout;
    # gaussian-l2's middle regime exits both ways, and its outer regimes often
    # build their lanes mid-block
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
def test_run_memory_per_stay_is_a_few_typed_entries(version):
    # a switchy run keeps each stay as three typed column entries, about 20
    # bytes, not as a record object plus a tuple, about 250
    spec = LADDERS["gaussian-l1"]
    run(spec, version, 100_000, AnyRng(0))  # lazy imports are not the walker's memory
    tracemalloc.start()
    try:
        res = run(spec, version, 1_000_000, AnyRng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stays = len(res.stay_steps)
    assert stays > 10_000
    assert peak < 100 * stays


@pytest.mark.parametrize("version", ["delayed", "instantaneous"])
@pytest.mark.parametrize("ladder", ["gaussian-l2", "integer-atoms"])
def test_run_stay_columns_are_the_records(ladder, version):
    res = run(LADDERS[ladder], version, 20_000, AnyRng(6))
    regimes, steps, disps, exits = (res.stay_regimes, res.stay_steps, res.stay_displacements, res.stay_exits)
    assert len(regimes) == len(steps) == len(disps) == len(exits) > 100
    assert steps.sum() == res.steps
    assert exits[-1] == 0 and np.isin(exits[:-1], (-1, 1)).all()
    # each exit code is the move to the next stay's regime
    assert np.array_equal(np.diff(regimes), exits[:-1])
    assert len(res.records) == len(steps)
    for k, rec in enumerate(res.records):
        assert rec.regime == regimes[k] and rec.steps == steps[k] and rec.displacement == disps[k]
        assert rec.exit_direction == {-1: "down", 0: None, 1: "up"}[exits[k]]
        assert rec.censored == (exits[k] == 0)


EXIT_LAW = FiniteDiscrete((-1.0, 0.0, 1.0, 2.0), (0.1, 0.2, 0.4, 0.3))
DIRECTION = {-1: "down", 0: None, 1: "up"}

# SHA-256 of every float and integer a run returns, pinned so that a change to
# the engine that moves a single last digit (of a stay's displacement, a
# checkpoint position or a window average) shows; the report digests cannot
# see such a drift in columns a report does not print
PINNED_ENGINE_DIGESTS = {
    "gaussian-l1/delayed": "bb1a2397adb3a5986afd8886d077d41ac0ced218bc4e682bdfabcbf9cc362441",
    "gaussian-l1/instantaneous": "4419c9a324fb054e4049033318c2514f87c3dfb9a389c0367b7f188fc3f2967b",
    "gaussian-l2/delayed": "19cc8ff7bffe503365bc2984a9ddd82470397d1f0a06aed0362d12fd36ec9d77",
    "gaussian-l2/instantaneous": "1a661db5602750eb3f527de4f3b278cbc6c815b3fb2eed21777bbb796a5319a2",
    "integer-atoms/delayed": "fe3c638380ff14d956d5b13c40f8b9ee05ec4b90624f73a6720b8b8a098cc81c",
    "integer-atoms/instantaneous": "1a8d88b5292abc4cad0de52d31c4ca820fb991a30aa35352cfac767fc4acde18",
    "exit-stays/N=10": "e0fc4c79be327c783ed9c00cbea363793b0c851002221c5dc864f93894b84d40",
    "exit-stays/N=20": "2600d0384592df2d2f65b7e6f2a0e2e467e9e5ef276f740113c3b392198af9ae",
    "exit-stays/N=30": "a2b5bd5b3a53f79603cb9f73774108bae4fc5272d04096eb1b19e8323a8b7aad",
}


def run_digest(res):
    h = hashlib.sha256()
    cols = (res.increments, res.stay_regimes, res.stay_steps, res.stay_displacements, res.stay_exits)
    trace = (res.trace.times, res.trace.positions, res.trace.regimes, res.trace.window_avgs)
    for col in (*cols, np.float64(res.position), res.window, *trace):
        h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()


def test_run_outputs_match_pinned_digest():
    # gaussian-l1 at 40k steps spans several blocks at the 2^13 cap with about
    # 100 stays each; a checkpoint every 7 steps lands inside refills and
    # straddles; the exit stays are one-stay samples on the exit-stays law,
    # each hashed as its (steps, displacement, direction, censored) tuple
    got = {}
    for ladder in ("gaussian-l1", "gaussian-l2", "integer-atoms"):
        for version in ("delayed", "instantaneous"):
            res = run(
                LADDERS[ladder], version, 40_000, AnyRng(11),
                checkpoint_times=range(1, 40_001, 7), record_increments=True,
            )
            got[f"{ladder}/{version}"] = run_digest(res)
    for n in (10, 20, 30):
        rng, h = AnyRng(n), hashlib.sha256()
        for _ in range(300):
            stay = sample_exit(EXIT_LAW, 0.4, 1.3, n, rng)
            code = int(stay.stay_exits[0])
            row = (int(stay.stay_steps[0]), float(stay.stay_displacements[0]).hex(), DIRECTION[code], code == 0)
            h.update(repr(row).encode())
        got[f"exit-stays/N={n}"] = h.hexdigest()
    assert got == PINNED_ENGINE_DIGESTS


@pytest.mark.parametrize("version", ["delayed", "instantaneous"])
@pytest.mark.parametrize("ladder", ["gaussian-l1", "gaussian-l2", "integer-atoms"])
def test_run_without_increments_is_the_pinned_run(ladder, version):
    # the pinned digests all keep increments; a run that does not must return
    # the same stays, trace, position and final window bit for bit
    kw = dict(checkpoint_times=range(1, 40_001, 7))
    res = run(LADDERS[ladder], version, 40_000, AnyRng(11), **kw)
    kept = run(LADDERS[ladder], version, 40_000, AnyRng(11), record_increments=True, **kw)
    assert res.increments is None
    for name in ("stay_regimes", "stay_steps", "stay_displacements", "stay_exits", "position", "window"):
        assert np.array_equal(getattr(res, name), getattr(kept, name)), name
    for name in ("times", "positions", "regimes", "window_avgs"):
        assert np.array_equal(getattr(res.trace, name), getattr(kept.trace, name), equal_nan=True), name


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
    stay = sample_exit(point(1.0), 0.0, 0.9, 6, AnyRng(0))
    assert stay.stay_steps.tolist() == [6]
    assert stay.stay_displacements[0] == pytest.approx(6.0, abs=1e-12)
    assert stay.stay_exits.tolist() == [1] and stay.censored == 0


def test_sample_exit_point_mass_immediate_down():
    stay = sample_exit(point(-1.0), -0.9, 1.0, 5, AnyRng(0))
    assert stay.stay_steps.tolist() == [5] and stay.stay_exits.tolist() == [-1]


def test_sample_exit_one_sided_always_up():
    for seed in range(20):
        stay = sample_exit(Gaussian(1.0, 1.0), -math.inf, 1.4, 4, AnyRng(seed), cap=100_000)
        assert stay.stay_exits.tolist() == [1] and stay.censored == 0


def test_sample_exit_censoring_at_cap():
    stay = sample_exit(point(0.5), 0.0, 1.0, 4, AnyRng(0), cap=57)
    assert stay.censored == 1 and stay.stay_exits.tolist() == [0]
    assert stay.stay_steps.tolist() == [57]


def test_sample_exit_censors_every_row_at_a_tight_cap():
    stays = sample_exit(point(0.5), 0.0, 1.0, 4, AnyRng(0), cap=57, count=5)
    assert stays.censored == 5 and stays.steps == 5 * 57
    assert stays.stay_steps.tolist() == [57] * 5 and stays.stay_exits.tolist() == [0] * 5
    assert stays.stay_displacements.tolist() == [0.5 * 57] * 5


def test_sample_exit_validates():
    with pytest.raises(InvalidInputError):
        sample_exit(Gaussian(0, 1), 1.0, 0.5, 4, AnyRng(0))
    with pytest.raises(InvalidInputError):
        sample_exit(Gaussian(0, 1), 0.0, 0.5, 10, AnyRng(0), cap=5)
    for count in (0, -1, 2.5, True, np.True_):
        with pytest.raises(InvalidInputError):
            sample_exit(Gaussian(0, 1), 0.0, 0.5, 4, AnyRng(0), count=count)
    for n, cap in ((True, 100), (1, True), (np.True_, 100)):
        with pytest.raises(InvalidInputError):
            sample_exit(Gaussian(0, 1), 0.0, 0.5, n, AnyRng(0), cap=cap)
    with pytest.raises(InvalidInputError):
        sample_exit(Gaussian(0, 1), 0.0, 0.5, 10.5, AnyRng(0))
    # caps up to 2**53 are taken, larger ones refused
    for cap in (2**53 + 1, 10**20):
        with pytest.raises(InvalidInputError):
            sample_exit(Gaussian(0, 1), 0.0, 0.5, 4, AnyRng(0), cap=cap)
    assert sample_exit(Gaussian(0, 1), 0.0, 0.5, 4, AnyRng(0), cap=2**53).censored == 0
    with pytest.raises(InvalidInputError):
        sample_exit(Gaussian(0, 1), 0.0, 0.5, 4, AnyRng(0), cap=100.5)
    whole = sample_exit(Gaussian(0, 1), 0.0, 0.5, 4.0, AnyRng(0), cap=100.0, count=3.0)
    ints = sample_exit(Gaussian(0, 1), 0.0, 0.5, 4, AnyRng(0), cap=100, count=3)
    assert whole.stay_steps.tolist() == ints.stay_steps.tolist()


EXIT_CASES = pytest.mark.parametrize(
    "d, r_lo, r_hi",
    [
        (Gaussian(1.0, 1.0), 0.4, 1.3),
        (FiniteDiscrete((-1.0, 0.0, 1.0, 2.0), (0.1, 0.2, 0.4, 0.3)), 0.4, 1.3),
        (Rademacher(0.5), -0.25, 0.25),
    ],
    ids=["gaussian", "lattice", "rademacher"],
)


@EXIT_CASES
@pytest.mark.parametrize("n", [1, 3, 10, 40])
def test_sample_exit_is_the_first_stay_of_run(d, r_lo, r_hi, n):
    # A fresh stay and a run's first sojourn from the middle regime walk the
    # same draws. They differ only at the horizon: sample_exit counts an exit
    # on its cap-th draw, run censors it since no draw follows the decision.
    spec = ModelSpec(dists=(d, d, d), thresholds=(r_lo, r_hi), window=n, initial_regime=1)
    edges = 0
    for seed in range(10):
        # the free stay's length puts its exit on the last draw of a horizon
        free = int(sample_exit(d, r_lo, r_hi, n, AnyRng(seed), cap=20 * n + 300).stay_steps[0])
        for steps in (20 * n + 300, free, max(n, free - 1)):
            stay = sample_exit(d, r_lo, r_hi, n, AnyRng(seed), cap=steps)
            first = run(spec, "delayed", steps, AnyRng(seed))
            assert first.stay_regimes[0] == 1 and stay.stay_steps[0] == first.stay_steps[0]
            assert stay.stay_displacements[0] == first.stay_displacements[0]
            if stay.stay_steps[0] == steps and stay.censored == 0:
                edges += 1
                assert first.stay_exits[0] == 0
            else:
                assert stay.stay_exits[0] == first.stay_exits[0]
    assert edges > 0


@EXIT_CASES
@pytest.mark.parametrize("n", [1, 3, 10, 40])
def test_sample_exit_rows_are_single_stays(d, r_lo, r_hi, n):
    # round k draws a block for each row whose stay goes on past the blocks
    # before it, row after row; fed its own draws, a single stay ends alike.
    # Draws made in several calls are those of one call, so one call
    # regenerates the stream.
    count, cap = 60, 20 * n + 300
    stays = sample_exit(d, r_lo, r_hi, n, AnyRng(n), cap=cap, count=count)
    stream = base_variates(d, stays.steps, AnyRng(n))
    assert stays.censored == np.count_nonzero(stays.stay_exits == 0)
    own = [[] for _ in range(count)]
    t = k = used = 0
    while t < cap:
        m = min(max(64, 2 * n) << k, simulator._BLOCK_CAP, cap - t)
        for row in np.flatnonzero(stays.stay_steps > t):
            own[row].append(stream[used:used + m])
            used += m
        t, k = t + m, k + 1
    assert used == len(stream)
    for row, draws in enumerate(own):
        draws = np.concatenate(draws)
        replay = ScriptedRNG(draws)
        stay = sample_exit(d, r_lo, r_hi, n, replay, cap=cap)
        assert replay.consumed == len(draws)
        assert stay.stay_steps[0] == stays.stay_steps[row]
        assert stay.stay_displacements[0] == stays.stay_displacements[row]
        assert stay.stay_exits[0] == stays.stay_exits[row]


@EXIT_CASES
@pytest.mark.parametrize("n", [1, 3, 10, 40, 100])
def test_sample_exit_at_cap_n_decides_on_the_refill(d, r_lo, r_hi, n):
    # at cap == N the only block is the refill, and its window sum is the
    # stay's only evaluation, on its last allowed draw: out of band it exits
    # there, else the stay is censored there. At N=100 the 50 rows take two
    # slices.
    count = 50
    stays = sample_exit(d, r_lo, r_hi, n, AnyRng(n), cap=n, count=count)
    rows = from_base(d, base_variates(d, count * n, AnyRng(n)).reshape(count, n))
    assert stays.steps == count * n and stays.stay_steps.tolist() == [n] * count
    for row, disp, code in zip(rows.tolist(), stays.stay_displacements.tolist(), stays.stay_exits.tolist()):
        s = 0.0
        for x in row:
            s += x
        assert disp == s
        assert code == (1 if s >= n * r_hi else -1 if s < n * r_lo else 0)
    assert stays.censored == np.count_nonzero(stays.stay_exits == 0)


@EXIT_CASES
@pytest.mark.parametrize("n", [10, 20])
def test_sample_exit_blocks_shorter_than_the_refill(monkeypatch, d, r_lo, r_hi, n):
    # a block cap of 8 ends the first blocks inside the refill, as 2^13 does
    # for N > 2^13: at N=20 rounds 0 and 1 evaluate nothing. Each row, fed its
    # own draws, must end as a single stay under the real cap, whose first
    # block holds the whole refill; the script is padded past the exit.
    count, cap = 40, 120
    monkeypatch.setattr(simulator, "_BLOCK_CAP", 8)
    stays = sample_exit(d, r_lo, r_hi, n, AnyRng(n), cap=cap, count=count)
    monkeypatch.undo()
    stream = base_variates(d, stays.steps, AnyRng(n))
    own = [[] for _ in range(count)]
    used = 0
    for t in range(0, cap, 8):
        for row in np.flatnonzero(stays.stay_steps > t):
            own[row].append(stream[used:used + 8])
            used += 8
    assert used == len(stream)
    assert stays.censored == np.count_nonzero(stays.stay_exits == 0)
    assert np.count_nonzero(stays.stay_exits == 1) > 0 and np.count_nonzero(stays.stay_exits == -1) > 0
    for row, draws in enumerate(own):
        draws = np.concatenate(draws + [np.full(cap - 8 * len(draws), 0.5)])
        stay = sample_exit(d, r_lo, r_hi, n, ScriptedRNG(draws), cap=cap)
        assert stay.stay_steps[0] == stays.stay_steps[row]
        assert stay.stay_exits[0] == stays.stay_exits[row]
        assert stay.stay_displacements[0] == pytest.approx(stays.stay_displacements[row], abs=1e-9)


@EXIT_CASES
def test_sample_exit_does_not_depend_on_the_slice_size(monkeypatch, d, r_lo, r_hi):
    # the cap of 200 keeps the blocks (64, 128, 8) under both block caps, so
    # only the slices change: one or two rows each at the small cap, every
    # row in one at the large one; 1001 rows fill no whole number of slices
    got = []
    for block_cap in (200, 1 << 22):
        monkeypatch.setattr(simulator, "_BLOCK_CAP", block_cap)
        got.append(sample_exit(d, r_lo, r_hi, 3, AnyRng(9), cap=200, count=1001))
    a, b = got
    assert np.array_equal(a.stay_steps, b.stay_steps)
    assert np.array_equal(a.stay_displacements, b.stay_displacements)
    assert np.array_equal(a.stay_exits, b.stay_exits)
    assert (a.steps, a.censored) == (b.steps, b.censored)


def test_sample_exit_steps_match_oracle_rademacher():
    # replaying a one-regime stay through the oracle with l=0-style bounds
    d = Rademacher(0.5)
    for seed in range(50):
        rng = AnyRng(seed)
        steps = int(sample_exit(d, -0.5, 0.5, 3, rng, cap=10_000).stay_steps[0])
        rng2 = AnyRng(seed)
        draws = []
        # regenerate the exact stream the sampler consumed
        while len(draws) < steps:
            draws.extend(np.where(rng2.random(min(64, 10_000)) < 0.5, -1.0, 1.0)[: steps - len(draws)])
        sums = [sum(draws[j:j + 3]) for j in range(steps - 3 + 1)]
        # every window before the last is inside, the last one is out
        assert all(-1.5 <= s < 1.5 for s in sums[:-1])
        assert not (-1.5 <= sums[-1] < 1.5)


@pytest.mark.parametrize("n", [3, 40])
def test_sample_exit_refill_is_the_head_of_the_first_block(n):
    # the refill is decided off the first block of max(64, 2N) draws, so a
    # stay that exits at time N still leaves the rest of that block unused
    rng = ScriptedRNG([0.999] * 80)
    stay = sample_exit(Rademacher(0.5), -0.5, 0.5, n, rng)
    assert (stay.stay_steps[0], stay.stay_exits[0], stay.censored) == (n, 1, 0)
    assert rng.consumed == max(64, 2 * n)


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


@pytest.mark.parametrize("n", [1, 3, 40])
@pytest.mark.parametrize(
    "d", [Gaussian(0.0, 1.0), Rademacher(0.3), FiniteDiscrete((-1.0, 0.0, 1.0, 2.0), (0.3, 0.4, 0.2, 0.1))],
    ids=["gaussian", "rademacher", "lattice"],
)
def test_block_counts_do_not_depend_on_the_batch_size(monkeypatch, d, n):
    # 1001 blocks fill no whole number of batches; at N=3 a cap of 5 is below
    # one block's 2N, so every batch holds a single row
    counts = []
    for cap in (5, 1 << 22):
        monkeypatch.setattr(simulator, "_BLOCK_CAP", cap)
        counts.append(sample_block_outcomes(d, -0.5, 0.5, n, AnyRng(8), 1001))
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) == 1001


# Each law with a band its windows leave often at N <= 40 and a narrow one
# for N=5000, whose single row of 9999 draws is longer than the 2^13 batch
# cap. The lattice thresholds are window sums its float cumsums tie only up
# to rounding, at every N.
BLOCK_LAWS = {
    "gaussian": (Gaussian(1.0, 1.0), (0.6, 1.4), (0.98, 1.02)),
    "rademacher": (Rademacher(0.3), (-0.5, 0.0), (-0.42, -0.38)),
    "lattice": (FiniteDiscrete((-0.3, 0.1, 0.7), (0.2, 0.3, 0.5)), (0.1, 0.5), (0.31, 0.33)),
}
PINNED_BLOCK_DIGESTS = {
    "gaussian": "8df100f1c43618dff6c04baa9b83004c7d605d847656a1cbd1c862fb3dd3efd8",
    "rademacher": "c7171790c900ec86cab8bc0712ced79bd85dff399f451e6b51557e11267b1f48",
    "lattice": "88c6002bd5ffe4ad1bb8942df0206717d8ebdb4cb734a09ec9196f4a85c385db",
}


@pytest.mark.parametrize("law", sorted(BLOCK_LAWS))
def test_block_counts_match_pinned_digest(law):
    # a change of batch layout or summation order that moves a single window
    # sum across a threshold moves a tally, and so the digest
    d, band, narrow = BLOCK_LAWS[law]
    h = hashlib.sha256()
    cases = ((1, 5000, band), (2, 5000, band), (3, 5000, band), (7, 3001, band), (40, 1001, band), (5000, 5, narrow))
    for n, count, (r_lo, r_hi) in cases:
        for seed in (0, 1, 2):
            counts = sample_block_outcomes(d, r_lo, r_hi, n, AnyRng(seed), count)
            h.update(repr((n, seed, [counts[out] for out in BlockOutcome])).encode())
    assert h.hexdigest() == PINNED_BLOCK_DIGESTS[law]


def test_block_memory_is_a_few_batches():
    # each batch holds at most 2^13 elements, not 2^22 several times over
    d = Gaussian(1.0, 1.0)
    sample_block_outcomes(d, 0.4, 1.6, 40, AnyRng(0), 1000)  # lazy imports are not the sampler's memory
    tracemalloc.start()
    try:
        sample_block_outcomes(d, 0.4, 1.6, 40, AnyRng(1), 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_block_validates():
    with pytest.raises(InvalidInputError):
        sample_block_outcomes(Gaussian(0, 1), 0.5, 0.5, 3, AnyRng(0), 1)
    with pytest.raises(InvalidInputError):
        sample_block_outcomes(Gaussian(0, 1), -0.5, 0.5, 0, AnyRng(0), 10)
    with pytest.raises(InvalidInputError):
        sample_block_outcomes(Gaussian(0, 1), -0.5, 0.5, 2.5, AnyRng(0), 10)
    with pytest.raises(InvalidInputError):
        sample_block_outcomes(Gaussian(0, 1), -0.5, 0.5, 3, AnyRng(0), 2.5)
    for n, count in ((True, 10), (3, True), (np.True_, 10), (3, np.True_)):
        with pytest.raises(InvalidInputError):
            sample_block_outcomes(Gaussian(0, 1), -0.5, 0.5, n, AnyRng(0), count)


# ------------------------------------------------- exact lattice decisions

# DECIMAL_ATOMS's upper law on its band, and the same ladder scaled by ten,
# whose float window sums are exact
EXACT_LATTICE_CASES = pytest.mark.parametrize("d, r_lo, r_hi", [
    pytest.param(
        FiniteDiscrete((-0.3, 0.1, 0.7), (0.2, 0.3, 0.5)), -0.3, 0.1,
        marks=pytest.mark.xfail(
            strict=True,
            raises=AssertionError,
            reason="ROADMAP item 1: a window sum that ties a threshold only up to rounding is "
            "decided on float cumsum differences; remove this marker once decisions use exact "
            "integer sums",
        ),
        id="decimal",
    ),
    pytest.param(FiniteDiscrete((-3.0, 1.0, 7.0), (0.2, 0.3, 0.5)), -3.0, 1.0, id="integer"),
])


def exact_sums(draws, n):
    """The window sums of ``draws`` at times n, n+1, ..., in exact arithmetic."""
    xs = [Fraction(x) for x in draws]
    s = sum(xs[:n])
    yield s
    for old, new in zip(xs, xs[n:]):
        s += new - old
        yield s


@EXACT_LATTICE_CASES
def test_sample_exit_decides_ties_exactly(d, r_lo, r_hi):
    # each row's draws regrouped as in test_sample_exit_rows_are_single_stays,
    # its exit found from the definition with exact window sums
    n, cap, count = 3, 2000, 50
    lo, hi = n * Fraction(r_lo), n * Fraction(r_hi)
    wrong = []
    for seed in range(20):
        stays = sample_exit(d, r_lo, r_hi, n, AnyRng(seed), cap=cap, count=count)
        stream = from_base(d, base_variates(d, stays.steps, AnyRng(seed)))
        own = [[] for _ in range(count)]
        t = k = used = 0
        while t < cap:
            m = min(simulator._block_size(n, k), cap - t)
            for row in np.flatnonzero(stays.stay_steps > t):
                own[row].extend(stream[used:used + m])
                used += m
            t, k = t + m, k + 1
        for row, draws in enumerate(own):
            exact = next(((j, 1 if s >= hi else -1) for j, s in enumerate(exact_sums(draws, n), start=n)
                          if not lo <= s < hi), (cap, 0))
            if exact != (stays.stay_steps[row], stays.stay_exits[row]):
                wrong.append((seed, row))
    assert wrong == []


@EXACT_LATTICE_CASES
def test_block_outcomes_decide_ties_exactly(d, r_lo, r_hi):
    # the blocks are the stream's consecutive 2N-1 draws, each tallied from
    # its N exact window sums
    n, count = 3, 200
    lo, hi = n * Fraction(r_lo), n * Fraction(r_hi)
    wrong = []
    for seed in range(20):
        got = sample_block_outcomes(d, r_lo, r_hi, n, AnyRng(seed), count)
        draws = sample_n(d, count * (2 * n - 1), AnyRng(seed)).reshape(count, 2 * n - 1)
        exact = dict.fromkeys(BlockOutcome, 0)
        for block in draws:
            sums = list(exact_sums(block, n))
            up, down = max(sums) >= hi, min(sums) < lo
            exact[BlockOutcome.BOTH if up and down else BlockOutcome.UP if up
                  else BlockOutcome.DOWN if down else BlockOutcome.NONE] += 1
        if got != exact:
            wrong.append(seed)
    assert wrong == []
