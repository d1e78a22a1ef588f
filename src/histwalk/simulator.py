"""Walk dynamics: single-step reference semantics and a fast block walker.

A walk keeps a ring buffer of its last N increments. At each step it may
first re-evaluate its regime (always, for the instantaneous version; only
once the current law has produced the full window, for the delayed version)
and then draws one increment from the active law. Decisions compare the
window SUM against N*threshold, half-open: strictly below the lower threshold
moves down, at-or-above the upper one moves up. The first N steps always use
the initial regime, for both versions. Except in the one-step reference and
``_straddle``'s roll, window sums are differences of one zero-prefixed
cumsum, taken by ``_window_sums``, and ``_outside`` is the half-open test.

``step_delayed``/``step_instantaneous`` implement exactly one step and are
the reference semantics. ``run`` implements the same dynamics with a block
walker, which draws base variates in blocks on one schedule from time 0:
blocks of ``max(64, 2N) << k``, capped at 2^13 and at the remaining budget.
The N forced initial draws are the head of the first block, read against a
carried window of N zeros, so the window sum at time N is the refill's sum
and the first decision is found like every later one. The cap keeps the
walker's memory to a few arrays of one block, each small enough that the
allocator reuses freed blocks instead of mapping new pages. For each block,
and for each regime the first time it draws in the block, a lane maps the
block with that regime's law and lists as Python ints the positions where
the window sum is outside the regime's bounds and on which side.

The block is then walked as a chain of passes, one per stay's draws in the
block. A pass looks up its stay's exit, the first listed position at or
after its first rule evaluation: N draws after a delayed switch, one after an
instantaneous one, whose first N-1 windows still hold the old law's draws and
are rolled from the actual window by ``_straddle`` instead. It moves the position by the
difference of two cumsum entries, read as Python floats through a memoryview,
and records where it ends, without reading a numpy scalar. As soon as it is
walked, it copies its draws into the block's actual draws, unless its lane is
the block's first, whose buffer holds them; so every reader finds them
current: the head of a lane built mid-block, an instantaneous re-entry's
windows, the final window, the checkpoints and a run's kept increments.
Each stay is one entry in three typed columns (regime, end time, end
position), about 20 bytes, and its draws, displacement and exit code are the
steps between entries, taken once at the end of a run; ``SojournRecord``s are
built only when a caller asks for them.

The k-th increment of a run maps the k-th base variate of the stream, exactly
as ``init`` and step_* calls do. The exceptions: a switch between a Gaussian
and a discrete law drops the rest of the block, as normals cannot stand in
for uniforms, and starts the schedule over, so that frequent such switches
waste only the rest of small blocks; and a window sum that ties a threshold
only up to rounding may be decided differently, as the two add in other
orders.

``sample_exit`` walks ``count`` fresh stays as the rows of one block
schedule. Every stay starts at time 0, so the rows whose stays go on share
round k's block of ``max(64, 2N) << k`` draws, capped at 2^13 and at the
remaining budget, and the round draws the next (rows x block) base variates,
row-major, in stay order. It takes them in slices of at most 2^13 elements
(one row at least): a slice maps its draws into one column per stay below
the carried windows, and one argmax finds each column's first window sum
outside the bounds from the stay's first evaluation (time N) on; the rows
whose stays end in the block retire, leaving the rest of it unused.
Consecutive slices use the stream as one would, so the stays do not depend
on the slice size. With one row this is ``run``'s schedule, so a fresh stay
and a run's first sojourn from the same seed make the same draws. They
differ only at the horizon: ``run`` censors a stay whose exit is decided on
its last draw, because that decision would govern a draw that never
happens, while ``sample_exit`` counts an exit on its cap-th draw. The 2^13
cap first shortens the block that starts 6,150 to 16,320 draws into the
walk for N <= 2048, 4,098 to 8,192 draws in for 2048 < N <= 4096, and the
first block when N > 4096; above N = 2^13, the first blocks end inside the
refill and evaluate nothing. Its window sums are cumsum differences too, as
are ``sample_block_outcomes``', so a sum that ties a threshold only up to
rounding may go either way.

``sample_block_outcomes`` lays its batches of fresh blocks out one column
per block, and decides by the max and min of each block's window sums: the
half-open test in fewer passes than ``_outside``'s masks.

Known limit: each lane copies and sums the whole carried window of N
increments, so above N = 2^13 a block of at most 2^13 draws also pays for N,
and the cost per step grows with N / 2^13. No shipped config uses such
windows.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .distributions import Gaussian, IncrementDistribution, _law
from .errors import InvalidInputError, _integer, _number
from .sampling import base_variates, from_base, sample_n
from .theory import VERSIONS, ModelSpec, threshold_bounds

__all__ = [
    "VERSIONS",
    "WalkState",
    "SojournRecord",
    "TraceSummary",
    "RunResult",
    "ExitSample",
    "BlockOutcome",
    "init",
    "step_delayed",
    "step_instantaneous",
    "run",
    "sample_exit",
    "sample_block_outcomes",
]

# rolling window sums are refreshed by exact recomputation this often
_RESUM_INTERVAL = 1 << 20

# the largest block of base variates, for the block walker, the slices of
# fresh stays and the batches of fresh blocks alike. Each block array must
# stay under glibc's 128 KiB mmap threshold, so that a freed one is reused from
# the heap instead of being unmapped and faulted in again. The walker's
# largest, c0, holds N + 2^13 + 1 doubles, which fit for N below about 8k; a
# slice's or a batch's c0 holds at most 2^13 doubles, or one row's N + m + 1
# or 2N when that row alone exceeds the cap.
_BLOCK_CAP = 1 << 13


@dataclass
class WalkState:
    """Mutable per-walk state. ``window`` is a ring buffer; ``head`` marks the
    oldest entry (the next one to be overwritten)."""

    position: float
    time: int
    regime: int
    consecutive_uses: int
    window: np.ndarray
    window_sum: float
    head: int = 0
    steps_since_resum: int = 0


@dataclass(frozen=True)
class SojournRecord:
    """One stay in one regime. ``steps`` counts every draw made under that
    regime's law (the forced window-refill included); ``exit_direction`` is
    'up'/'down', or None when the run's horizon cut the stay short."""

    regime: int | None
    steps: int
    displacement: float
    exit_direction: str | None
    censored: bool = False


@dataclass(frozen=True)
class TraceSummary:
    """Checkpoint rows: running position, regime and window average."""

    times: np.ndarray
    positions: np.ndarray
    regimes: np.ndarray
    window_avgs: np.ndarray


# exit codes of the stay columns
_DIRECTIONS = {-1: "down", 0: None, 1: "up"}


@dataclass(frozen=True)
class RunResult:
    """A finished run: ``position`` is where the walk ended and ``window``
    holds its last N increments, oldest first.

    Its stays, in order, are four columns of equal length: ``stay_regimes``,
    ``stay_steps`` (draws made under the stay's law), ``stay_displacements``
    and ``stay_exits``, the exit code -1 (down), +1 (up) or 0 (censored).
    Only the last stay is censored, as the horizon always cuts a run inside
    one. ``records`` holds the same stays as ``SojournRecord``s, built on
    first use.
    """

    steps: int
    position: float
    window: np.ndarray
    stay_regimes: np.ndarray
    stay_steps: np.ndarray
    stay_displacements: np.ndarray
    stay_exits: np.ndarray
    trace: TraceSummary
    increments: np.ndarray | None = None

    @cached_property
    def records(self) -> tuple[SojournRecord, ...]:
        cols = (self.stay_regimes, self.stay_steps, self.stay_displacements, self.stay_exits)
        return tuple(
            SojournRecord(regime, steps, disp, _DIRECTIONS[code], code == 0)
            for regime, steps, disp, code in zip(*(col.tolist() for col in cols))
        )


@dataclass(frozen=True)
class ExitSample:
    """Fresh stays from ``sample_exit``, in order, as three columns named as in
    ``RunResult``: ``stay_steps``, ``stay_displacements`` and ``stay_exits``,
    the exit code -1 (down), +1 (up) or 0 (censored at the cap). ``steps``
    counts every draw made, the unused rest of each stay's last block
    included, and ``censored`` the censored stays.
    """

    stay_steps: np.ndarray
    stay_displacements: np.ndarray
    stay_exits: np.ndarray
    steps: int
    censored: int


def _block_size(n: int, k: int) -> int:
    """The k-th block of the schedule that ``run`` and ``sample_exit`` share,
    before each clips it to its remaining budget."""
    return min(max(64, 2 * n) << k, _BLOCK_CAP)


def _check_version(version: str) -> bool:
    """Whether ``version`` is the delayed rule; any name not in ``VERSIONS`` is an error."""
    if version not in VERSIONS:
        raise InvalidInputError(f"version must be one of {VERSIONS}, got {version!r}")
    return version == VERSIONS[0]


def init(spec: ModelSpec, rng) -> WalkState:
    """Fresh walk after its N forced initial-regime steps."""
    n = spec.window
    draws = sample_n(spec.dists[spec.initial_regime], n, rng)
    return WalkState(
        position=float(draws.sum()),
        time=n,
        regime=spec.initial_regime,
        consecutive_uses=n,
        window=np.array(draws, dtype=float),
        window_sum=float(draws.sum()),
    )


def _step(state: WalkState, spec: ModelSpec, rng, delayed: bool) -> WalkState:
    n = spec.window
    if not delayed or state.consecutive_uses >= n:
        lo, hi = threshold_bounds(spec, state.regime)
        if state.window_sum < n * lo:
            state.regime -= 1
            state.consecutive_uses = 0
        elif state.window_sum >= n * hi:
            state.regime += 1
            state.consecutive_uses = 0
    x = float(sample_n(spec.dists[state.regime], 1, rng)[0])
    old = float(state.window[state.head])
    state.window[state.head] = x
    state.head = (state.head + 1) % n
    state.window_sum += x - old
    state.steps_since_resum += 1
    if state.steps_since_resum >= _RESUM_INTERVAL:
        state.window_sum = float(state.window.sum())
        state.steps_since_resum = 0
    state.position += x
    state.time += 1
    state.consecutive_uses += 1
    return state


def step_delayed(state: WalkState, spec: ModelSpec, rng) -> WalkState:
    """One step; the regime rule only fires once the current law filled the window."""
    return _step(state, spec, rng, delayed=True)


def step_instantaneous(state: WalkState, spec: ModelSpec, rng) -> WalkState:
    """One step; the regime rule fires before every draw."""
    return _step(state, spec, rng, delayed=False)


def _default_checkpoints(n: int, steps: int) -> np.ndarray:
    pts = np.geomspace(n, steps, num=64).round().astype(np.int64)
    pts = pts[np.diff(pts, prepend=-1) != 0]  # sorted already; np.unique would import numpy.ma
    return pts[(pts >= n) & (pts <= steps)]


def _window_sums(x: np.ndarray, n: int, first: int = 0):
    """The zero-prefixed cumsum ``c0`` of ``x`` down its first axis, and its N-window sums from the
    ``first``-th on, ``c0[first + N:] - c0[first:-N]``; each column sums in order, whatever the layout."""
    c0 = np.zeros((len(x) + 1, *x.shape[1:]))
    np.cumsum(x, axis=0, out=c0[1:])
    return c0, c0[first + n:] - c0[first:-n]


def _outside(ws: np.ndarray, lo: float, hi: float):
    """The half-open test: ``(out, up)`` marks window sums outside [lo, hi), and at or above hi."""
    up = ws >= hi
    out = ws < lo
    out |= up
    return out, up


def _straddle(actual: np.ndarray, full: memoryview, o: int, p: int, m: int, n: int, lo: float, hi: float):
    """The first window sum at block positions p+1..p+N-1 (at most m) outside
    [lo, hi), for a stay that re-enters its regime at ``p`` under the
    instantaneous rule. Those windows still hold draws made before ``p`` by
    other laws, which the regime's lane, built before ``p``, does not; so the
    sum rolls from the actual window at ``p`` through the lane's draws
    ``full[o + p:]``, as the reference's does. Returns the position and
    whether the sum is at or above ``hi``, or None."""
    window = actual[p:p + n].tolist()
    s = sum(window)
    for i, x in enumerate(full[o + p:o + p + min(n - 1, m - p)].tolist()):
        s += x - window[i]
        if s < lo or s >= hi:
            return p + 1 + i, s >= hi
    return None


class _Walk:
    """One ``run`` on the block schedule.

    Regime i draws ``laws[i]`` and is left when its window sum falls outside
    ``bounds[i]``; the outer regimes have an infinite side, so no stay leaves
    the ladder, and the walk ends after ``budget`` draws. Each block is
    walked as a chain of passes, one per stay's draws in the block, over
    plain ints and the Python floats of its lanes' cumsums.
    """

    def __init__(self, laws, bounds, n, delayed, budget, rng, regime, checkpoints=(), keep_increments=False):
        self.laws = laws
        self.gaussian = [isinstance(d, Gaussian) for d in laws]
        self.kinds_differ = len(laws) > 1 and len(set(self.gaussian)) > 1
        self.bounds = bounds
        self.n = n
        self.delayed = delayed
        self.budget = budget
        self.rng = rng
        self.cur = regime
        self.t = 0  # draws made before the current block
        self.pos = 0.0  # position after those draws
        self.window = np.zeros(n)  # the last N draws before the current block, zeros at first
        self.decide = n  # time of the current stay's next rule evaluation
        self.grown = 0  # the next block is max(64, 2N) << grown draws
        # one entry per stay ended so far: its regime, and the time and
        # position at which it ended. Each stay begins where the last one
        # ended and moves to the next one's regime, or to ``cur`` after the
        # last; the walk's last stay ends with the walk.
        self.stay_regimes = array("i")
        self.stay_ends = array("q")
        self.stay_end_positions = array("d")
        self.ckpt_times = [*checkpoints, math.inf]  # the sentinel is never reached
        self.ckpt_next = 0
        self.ckpt_pos: list[float] = []
        self.ckpt_regime: list[int] = []
        self.ckpt_wavg: list[float] = []
        self.keep_increments = keep_increments
        self.increments: list[np.ndarray] = []

    def walk(self) -> None:
        alive = True
        while alive:
            m = min(_block_size(self.n, self.grown), self.budget - self.t)
            self.grown += 1
            alive = self._block(m)

    def _block(self, m: int) -> bool:
        """Draw ``m`` base variates and walk them; False once the walk has ended.

        Each pass of the chain looks up the first exit at or after the
        stay's next evaluation in its regime's lane, built the first time
        the regime draws in the block, and reads the exit's side off the
        lane too; a stay that re-enters its regime under the instantaneous
        rule sums its first N-1 windows by ``_straddle`` instead. The pass
        then copies its draws from its lane into ``actual``, moves the
        position by two of the lane's cumsum entries and, if its stay ends,
        appends the stay's entry. So every reader of ``actual`` finds it
        current: a new lane's head, a straddle's window, the final window,
        the checkpoints and the kept increments. A switch between a Gaussian
        and a discrete law drops the rest of the block.
        """
        n, t, pos0 = self.n, self.t, self.pos
        refill = n if self.delayed else 1  # draws from a switch to the next stay's first evaluation
        gaussian, kinds_differ = self.gaussian, self.kinds_differ
        z = base_variates(self.laws[self.cur], m, self.rng)
        cur, pos = self.cur, pos0
        # once regime r has drawn in the block, from block position q on,
        # lanes[r] is (N - q, exits, ups, c0, full), as ``_lane`` describes
        lanes = [None] * len(self.laws)
        lanes[cur] = self._lane(cur, self.window, z, 0)
        # actual[N + b] is the draw at block position b, after the carried
        # window. It is a numpy view of the first lane's ``full``, so only the
        # passes of other lanes copy their draws into it.
        into = lanes[cur][4]
        actual = np.asarray(into)
        d = self.decide - t  # block position of the current stay's next evaluation
        # pass k of the block appends the stay entry first + k when its stay ends
        add_regime, add_end, add_end_pos = self.stay_regimes.append, self.stay_ends.append, self.stay_end_positions.append
        first = len(self.stay_ends)
        p = 0  # the block position where the current pass begins
        while True:
            lane = lanes[cur]
            found = None
            look = d  # the first block position the lookup may return
            if lane is None:
                lane = lanes[cur] = self._lane(cur, actual[p:p + n], z, p)
            elif p and d < p + n:  # a re-entry, only under the instantaneous rule
                found = _straddle(actual, lane[4], lane[0], p, m, n, *self.bounds[cur])
                look = p + n
            o, exits, ups, c, full = lane
            if found is None:
                hit = exits[bisect_left(exits, look)]
                up = hit <= m and ups[hit]  # past m: no exit in the rest of the block
            else:
                hit, up = found
            end = hit if hit < m else m
            if full is not into:
                into[n + p:n + end] = full[o + p:o + end]
            if hit >= m:  # the stay goes on into the next block, or its exit ends this one
                break
            pos += c[o + hit] - c[o + p]
            add_regime(cur)
            add_end(t + hit)
            add_end_pos(pos)
            cur += 1 if up else -1
            d = hit + refill
            if kinds_differ and gaussian[cur] != gaussian[cur - 1 if up else cur + 1]:
                # normals and uniforms cannot stand in for each other: the rest
                # of the block is dropped, and the next block starts small again
                self.grown = 0
                break
            p = hit
        if hit >= m:  # the last pass runs to the block's end
            pos += c[o + m] - c[o + p]
            if hit == m or t + m == self.budget:
                add_regime(cur)
                add_end(t + m)
                add_end_pos(pos)
            if hit == m:
                cur, d = cur + 1 if up else cur - 1, m + refill
            else:
                d = max(d, m + 1)
        else:
            m = hit
        times, ck = self.ckpt_times, self.ckpt_next
        while times[ck] <= t + m:
            k = times[ck] - t
            j = bisect_left(self.stay_ends, t + k, first)  # the stay entry of the pass that holds it
            start = self.stay_ends[j - 1] - t if j > first else 0
            self.ckpt_pos.append((self.stay_end_positions[j - 1] if j > first else pos0)
                                 + float(actual[n + start:n + k].sum()))
            # a stay still going at the block's end has no entry yet
            self.ckpt_regime.append(self.stay_regimes[j] if j < len(self.stay_regimes) else cur)
            # windows before time N are incomplete and average to NaN
            self.ckpt_wavg.append(float(actual[k:k + n].sum()) / n if t + k >= n else math.nan)
            ck += 1
        self.ckpt_next = ck
        self.cur, self.decide, self.pos = cur, t + d, pos
        self.t = t + m
        self.window = actual[m:m + n]
        if self.keep_increments:
            self.increments.append(actual[n:n + m])
        return t + m < self.budget

    def _lane(self, regime: int, window: np.ndarray, z: np.ndarray, q: int):
        """Regime ``regime``'s lane: its view of the block from position ``q``,
        where ``window`` ends, as ``(N - q, exits, ups, c0, full)``.

        ``full`` is ``window``, the actual last N draws (zeros before time
        N), followed by the regime's law mapped over ``z[q:]``, and ``c0`` is
        its ``_window_sums`` cumsum, both as memoryviews of floats. So the draw
        at block position b is ``full[N - q + b]``, and the sum of the N draws
        before it is ``c0[N - q + b] - c0[b - q]``. ``exits`` lists, ascending,
        the block positions from q on at which ``_outside`` finds that sum out,
        and ``ups[b]`` is 1 where it is out upward. A last exit at m + N + 1,
        for a block of m draws, stands for none: a stay's next evaluation is
        at most N past the block's end.
        """
        n, m = self.n, len(z)
        full = np.concatenate((window, from_base(self.laws[regime], z[q:])))
        c0, ws = _window_sums(full, n)
        out, up = _outside(ws, *self.bounds[regime])
        exits = out.nonzero()[0]
        if q:
            exits += q
        exits = exits.tolist()
        exits.append(m + n + 1)
        ups = up.tobytes()
        if q:
            ups = bytes(q) + ups
        return n - q, exits, ups, c0.data, full.data

    def result(self) -> RunResult:
        # each stay's draws and displacement are the steps between stay ends,
        # and its exit code the step to the next stay's regime
        regimes = np.asarray(self.stay_regimes)
        exits = np.diff(regimes, append=self.cur).astype(np.int8)
        # a run always ends inside a stay: an exit decided on its last draw
        # would govern a draw that never happens, so that stay is censored
        exits[-1] = 0
        trace = TraceSummary(
            times=np.asarray(self.ckpt_times[: self.ckpt_next], dtype=np.int64),
            positions=np.asarray(self.ckpt_pos),
            regimes=np.asarray(self.ckpt_regime, dtype=np.int64),
            window_avgs=np.asarray(self.ckpt_wavg),
        )
        incs = None
        if self.keep_increments:
            incs = np.concatenate(self.increments)
        return RunResult(
            steps=self.budget,
            position=self.pos,
            window=self.window.copy(),
            stay_regimes=regimes,
            stay_steps=np.diff(np.asarray(self.stay_ends), prepend=0),
            stay_displacements=np.diff(np.asarray(self.stay_end_positions), prepend=0.0),
            stay_exits=exits,
            trace=trace,
            increments=incs,
        )


def run(
    spec: ModelSpec,
    version: str,
    steps: int,
    rng,
    *,
    checkpoint_times=None,
    record_increments: bool = False,
) -> RunResult:
    """Simulate ``steps`` draws and return the stays, trace, final position
    and final window.

    ``checkpoint_times`` defaults to ~64 geometrically spaced times in
    [N, steps]; times given replace that set. Each must be an integer; they
    are deduplicated, and those outside [1, steps] are dropped.
    """
    delayed = _check_version(version)
    steps = _integer("steps", steps, spec.window)
    if checkpoint_times is None:
        ckpts = _default_checkpoints(spec.window, steps).tolist()
    else:
        times = [_integer("checkpoint time", t, -math.inf, math.inf) for t in checkpoint_times]
        ckpts = sorted({t for t in times if 1 <= t <= steps})
    bounds = [tuple(spec.window * r for r in threshold_bounds(spec, i)) for i in range(spec.l + 1)]
    walk = _Walk(
        spec.dists, bounds, spec.window, delayed, steps, rng, spec.initial_regime, ckpts, record_increments
    )
    walk.walk()
    return walk.result()


def _fresh_args(d, r_lo, r_hi, n, count):
    """A fresh sampler's N and count as checked ints, and N times each threshold."""
    _law("d", d)
    if not _number("r_lo", r_lo) < _number("r_hi", r_hi):
        raise InvalidInputError(f"need r_lo < r_hi, got ({r_lo}, {r_hi})")
    n = _integer("N", n, 1)
    count = _integer("count", count, 1)
    return n, count, n * r_lo, n * r_hi


def sample_exit(
    d: IncrementDistribution,
    r_lo: float,
    r_hi: float,
    n: int,
    rng,
    cap: int = 10_000_000,
    count: int = 1,
) -> ExitSample:
    """``count`` fresh stays between thresholds: each refills its window with
    N draws of ``d``, then steps until the window average leaves [r_lo, r_hi).

    A stay's steps count its draws up to the exit, the N refill draws
    included; infinite bounds make that side unreachable. A stay that would
    exceed ``cap`` draws is censored at ``cap``. The stays are the rows of one
    block schedule, as the module docstring describes.
    """
    n, count, lo, hi = _fresh_args(d, r_lo, r_hi, n, count)
    cap = _integer("cap", cap, n)
    stay_steps = np.full(count, cap, dtype=np.int64)
    stay_displacements = np.zeros(count)
    stay_exits = np.zeros(count, dtype=np.int8)
    live = np.arange(count)  # the stays that go on, in stay order
    # their last N draws, one column each, read from round 1 on: round 0's
    # carried windows are zeros. Stays kept in a round move to the front of
    # ``live`` and ``windows``, at or before the slice they are read from.
    windows = np.empty((n, count))
    t = drawn = grown = 0
    while live.size and t < cap:
        m = min(_block_size(n, grown), cap - t)
        grown += 1
        first = max(n - t, 1)  # the first block position evaluated; past m in a block inside the refill
        rows_per_slice = max(1, _BLOCK_CAP // (n + m + 1))
        kept = 0
        for a in range(0, live.size, rows_per_slice):
            rows = live[a:a + rows_per_slice]
            k = rows.size
            window = windows[:, a:a + k] if t else np.zeros((n, k))
            full = np.concatenate((window, from_base(d, base_variates(d, k * m, rng).reshape(k, m)).T))
            c0, ws = _window_sums(full, n, first)  # window sums at block positions first..m
            each = np.arange(k)
            end = np.full(k, m)  # the block position where each stay's pass ends
            going = np.ones(k, dtype=bool)  # the stays that go on past the block
            if first <= m:
                out, up = _outside(ws, lo, hi)
                j = out.argmax(axis=0)
                hit = out[j, each].nonzero()[0]
                j = j[hit]
                end[hit] = first + j
                going[hit] = False
                stay_steps[rows[hit]] = t + end[hit]
                stay_exits[rows[hit]] = np.where(up[j, hit], 1, -1)
            stay_displacements[rows] += c0[n + end, each] - c0[n]
            rows = rows[going]
            live[kept:kept + rows.size] = rows
            windows[:, kept:kept + rows.size] = full[m:, going]
            kept += rows.size
        drawn += live.size * m
        t += m
        live = live[:kept]
    # the stays still going at the cap are censored there
    return ExitSample(stay_steps, stay_displacements, stay_exits, steps=drawn, censored=int(live.size))


class BlockOutcome(Enum):
    """What the N window averages inside one 2N-1 increment block did:
    UP crossed the upper threshold only, DOWN dropped below the lower only,
    BOTH did both, NONE stayed inside."""

    UP = "up"
    DOWN = "down"
    BOTH = "both"
    NONE = "none"


def sample_block_outcomes(
    d: IncrementDistribution, r_lo: float, r_hi: float, n: int, rng, count: int
) -> dict[BlockOutcome, int]:
    """Outcome counts over ``count`` fresh blocks of 2N-1 increments.

    Blocks are drawn in batches of max(1, 2^13 // 2N) rows, each row the next
    2N-1 draws of the stream, so the counts do not depend on the batch size.
    A batch is laid out one column per block, so the max and min of its
    ``_window_sums`` are element-wise reductions across contiguous rows.
    """
    n, count, lo, hi = _fresh_args(d, r_lo, r_hi, n, count)
    rows_per_batch = max(1, _BLOCK_CAP // (2 * n))
    up = down = both = 0
    for done in range(0, count, rows_per_batch):
        rows = min(rows_per_batch, count - done)
        _, ws = _window_sums(sample_n(d, rows * (2 * n - 1), rng).reshape(rows, 2 * n - 1).T, n)
        crossed_up = ws.max(axis=0) >= hi
        crossed_down = ws.min(axis=0) < lo
        up += int(np.count_nonzero(crossed_up))
        down += int(np.count_nonzero(crossed_down))
        both += int(np.count_nonzero(crossed_up & crossed_down))
    return {
        BlockOutcome.UP: up - both,
        BlockOutcome.DOWN: down - both,
        BlockOutcome.BOTH: both,
        BlockOutcome.NONE: count - up - down + both,
    }
