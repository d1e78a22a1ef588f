"""Walk dynamics: single-step reference semantics and a fast block walker.

A walk keeps a ring buffer of its last N increments. At each step it may
first re-evaluate its regime (always, for the instantaneous version; only
once the current law has produced the full window, for the delayed version)
and then draws one increment from the active law. Decisions compare the
window SUM against N*threshold, half-open: strictly below the lower threshold
moves down, at-or-above the upper one moves up. The first N steps always use
the initial regime, for both versions.

``step_delayed``/``step_instantaneous`` implement exactly one step and are
the reference semantics. ``run`` implements the same dynamics with a block
walker, which draws base variates in blocks on one schedule for the whole
walk: the N forced initial draws as a block of their own, then blocks of
``max(64, 2N) << k``, capped at 2^13 and at the remaining budget. The cap
keeps the walker's memory to a few arrays of one block, each small enough
that the allocator reuses freed blocks instead of mapping new pages. For each
block, and for each regime the first time it draws in the block, a lane maps
the block with that regime's law, takes one cumsum over the actual window
followed by the mapped draws, and lists the positions where the window sum
leaves the regime's [lo, hi). A stay's exit is the first listed position at
or after its first rule evaluation: N draws after a delayed switch, one after
an instantaneous one, whose first N-1 windows still hold the old law's draws
and are summed from the actual window instead. Position, checkpoints,
records and kept increments are read off the lane cumsums once per stay.

The k-th increment of a run maps the k-th base variate of the stream, exactly
as ``init`` and step_* calls do. The exceptions: a switch between a Gaussian
and a discrete law drops the rest of the block, as normals cannot stand in
for uniforms, and starts the schedule over, so that frequent such switches
waste only the rest of small blocks; and a window sum that ties a threshold
only up to rounding may be decided differently, as the two add in other
orders.

``run`` and ``sample_exit`` are the same walk, so a fresh stay and a run's
first sojourn from the same seed make the same draws. They differ only at the
horizon: ``run`` censors a stay whose exit is decided on its last draw,
because that decision would govern a draw that never happens, while
``sample_exit`` counts an exit on its cap-th draw. A ``sample_exit`` stay
leaves the rest of its last block unused, so the blocks it draws set where
the next stay's draws begin. The 2^13 cap first shortens a block 6k to 16k
draws after the refill (sooner when 2N > 2^12, at once when 2N > 2^13).

Known limit: each lane copies and sums the whole carried window of N
increments, so above N = 2^13 a block of at most 2^13 draws also pays for N,
and the cost per step grows with N / 2^13. No shipped config uses such
windows.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import Gaussian, IncrementDistribution, base_variates, from_base, sample, sample_n
from .errors import InvalidInputError
from .theory import ModelSpec, threshold_bounds

__all__ = [
    "WalkState",
    "SojournRecord",
    "TraceSummary",
    "RunResult",
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

# the block walker's largest block of base variates. Each block array (z,
# full, c0, ws) must stay under glibc's 128 KiB mmap threshold, so that a freed
# one is reused from the heap instead of being unmapped and faulted in again;
# the largest, c0, holds N + 2^13 + 1 doubles, which fit for N below about 8k.
_BLOCK_CAP = 1 << 13

_BLOCK_BATCH_ELEMENTS = 1 << 22

_NO_DRAWS = np.empty(0)

_VERSIONS = ("delayed", "instantaneous")


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


@dataclass(frozen=True)
class RunResult:
    """A finished run: ``position`` is where the walk ended and ``window``
    holds its last N increments, oldest first."""

    steps: int
    position: float
    window: np.ndarray
    records: tuple[SojournRecord, ...]
    trace: TraceSummary
    increments: np.ndarray | None = None


def _check_version(version: str) -> bool:
    if version not in _VERSIONS:
        raise InvalidInputError(f"version must be one of {_VERSIONS}, got {version!r}")
    return version == "delayed"


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
    x = sample(spec.dists[state.regime], rng)
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
    pts = np.unique(np.geomspace(n, steps, num=64).round().astype(np.int64))
    return pts[(pts >= n) & (pts <= steps)]


def _straddle(actual: np.ndarray, full: np.ndarray, q: int, p: int, m: int, n: int, lo: float, hi: float):
    """The first window sum at block positions p+1..p+N-1 (at most m) outside
    [lo, hi), for a stay that re-enters its regime at ``p`` under the
    instantaneous rule. Those windows still hold draws made before ``p`` by
    other laws, which the regime's lane, built at ``q`` < ``p``, does not; so
    the sum rolls from the actual window at ``p`` as the reference's does.
    Returns the position and whether the sum fell below ``lo``, or two Nones."""
    window = actual[p:p + n].tolist()
    s = sum(window)
    for i, x in enumerate(full[n + p - q:n + p - q + min(n - 1, m - p)].tolist()):
        s += x - window[i]
        if s < lo or s >= hi:
            return p + 1 + i, s < lo
    return None, None


class _Walk:
    """One walk on the block schedule; a ``run`` is one, and so is a ``sample_exit`` stay.

    Regime i draws ``laws[i]`` and is left when its window sum falls outside
    ``bounds[i]``. The walk ends after ``budget`` draws or when a stay leaves
    the ladder: ``sample_exit`` gives its one law finite bounds, while a
    run's outer regimes have an infinite side. Position, checkpoints, records
    and kept increments are read off the lanes once per stay and block.
    """

    def __init__(self, laws, bounds, n, delayed, budget, rng, regime, checkpoints=(), keep_increments=False):
        self.laws = laws
        self.gaussian = [isinstance(d, Gaussian) for d in laws]
        self.bounds = bounds
        self.n = n
        self.delayed = delayed
        self.budget = budget
        self.rng = rng
        self.cur = regime
        self.t = 0  # draws made before the current block
        self.pos = 0.0  # position at the start of the current stay segment
        self.window = _NO_DRAWS  # the last N draws before the current block
        self.stay_t = 0
        self.stay_pos = 0.0
        self.decide = n  # time of the current stay's next rule evaluation
        self.grown = 0  # the next block is max(64, 2N) << grown draws
        self.stays: list[tuple] = []  # (regime, steps, displacement, exit direction or None)
        self.ckpt_times = checkpoints
        self.ckpt_next = 0
        self.ckpt_pos: list[float] = []
        self.ckpt_regime: list[int] = []
        self.ckpt_wavg: list[float] = []
        self.keep_increments = keep_increments
        self.increments: list[np.ndarray] = []

    def walk(self) -> None:
        n, law = self.n, self.laws[self.cur]
        x = from_base(law, base_variates(law, n, self.rng))  # the forced refill, a block of its own
        # only checkpoints read it; windows before time N are incomplete and average to NaN
        actual = np.concatenate((np.full(n, math.nan), x)) if self.ckpt_times else None
        s = float(x.sum())  # exact: the one evaluation of the refill, at time N
        self._advance(actual, 0, n, s)
        self.t, self.window = n, x
        if self.keep_increments:
            self.increments.append(x)
        lo, hi = self.bounds[self.cur]
        if s < lo or s >= hi:
            alive = self._close(n, "down" if s < lo else "up")
        else:
            self.decide = n + 1
            alive = n < self.budget or self._close(n, None)
        while alive:
            m = min(max(64, 2 * n) << self.grown, _BLOCK_CAP, self.budget - self.t)
            self.grown += 1
            alive = self._block(m)

    def _block(self, m: int) -> bool:
        """Draw ``m`` base variates and walk them; False once the walk has ended.

        Each pass handles one stay's draws in the block: the first exit at or
        after the stay's next evaluation is looked up in its regime's lane,
        built the first time the regime draws in the block. A stay that
        starts a block, or builds its lane, reads every window sum off the
        lane; one that re-enters its regime under the instantaneous rule sums
        its first N-1 windows by ``_straddle``. A switch between a Gaussian
        and a discrete law drops the rest of the block.
        """
        n, t = self.n, self.t
        z = base_variates(self.laws[self.cur], m, self.rng)
        lanes = {}
        # actual[N + k] is the draw at block position k, after the carried window.
        # It is the first lane's ``full``: every other regime writes its draws
        # over positions at which that lane's law draws nothing.
        actual = None
        p = 0  # the block position where the current stay's draws in this block begin
        while True:
            cur = self.cur
            lo, hi = self.bounds[cur]
            d = self.decide - t  # block position of the stay's next evaluation
            hit = down = None
            if cur in lanes:
                q, full, c0, exits = lanes[cur]
                if d < p + n:  # only under the instantaneous rule
                    hit, down = _straddle(actual, full, q, p, m, n, lo, hi)
                    d = p + n
            else:
                q = p
                window = self.window if actual is None else actual[p:p + n]
                full, c0, exits = self._lane(cur, window, z[p:])
                lanes[cur] = q, full, c0, exits
                if actual is None:
                    actual = full
            if hit is None:
                i = bisect_left(exits, d - q)
                if i < len(exits):
                    hit = exits[i] + q
                    down = float(c0[n + hit - q] - c0[hit - q]) < lo
            stop = m if hit is None else hit
            if actual is not full:
                actual[n + p:n + stop] = full[n + p - q:n + stop - q]
            self._advance(actual, p, stop, float(c0[n + stop - q] - c0[n + p - q]))
            if hit is None:
                self.decide = max(self.decide, t + m + 1)
                alive = t + m < self.budget or self._close(t + m, None)
                break
            alive = self._close(t + hit, "down" if down else "up")
            if not alive or hit == m:
                m = hit
                break
            if self.gaussian[self.cur] != self.gaussian[cur]:
                # normals and uniforms cannot stand in for each other: the rest
                # of the block is dropped, and the next block starts small again
                m, self.grown = hit, 0
                break
            p = hit
        self.t = t + m
        self.window = actual[m:m + n].copy()
        if self.keep_increments:
            self.increments.append(actual[n:n + m])
        return alive

    def _lane(self, regime: int, window: np.ndarray, z: np.ndarray):
        """Regime ``regime``'s view of the block from the position ``window`` ends at.

        ``full`` is ``window``, the actual last N draws, followed by the
        regime's law mapped over ``z``; ``c0`` is its zero-prefixed cumsum,
        so ``c0[N + j] - c0[j]`` is the window sum after j more draws of that
        law. ``exits`` lists the j at which that sum leaves the regime's
        [lo, hi), ascending.
        """
        n, k = self.n, len(z)
        lo, hi = self.bounds[regime]
        full = np.concatenate((window, from_base(self.laws[regime], z)))
        c0 = np.empty(n + k + 1)
        c0[0] = 0.0
        full.cumsum(out=c0[1:])
        ws = c0[n:] - c0[:-n]
        return full, c0, ((ws < lo) | (ws >= hi)).nonzero()[0].tolist()

    def _advance(self, actual: np.ndarray, p: int, stop: int, disp: float) -> None:
        """Account for the current regime's draws at block positions p..stop-1,
        already in ``actual[N + p:N + stop]``, which add up to ``disp``."""
        n, t, times = self.n, self.t, self.ckpt_times
        while self.ckpt_next < len(times) and times[self.ckpt_next] <= t + stop:
            k = times[self.ckpt_next] - t
            self.ckpt_pos.append(self.pos + float(actual[n + p:n + k].sum()))
            self.ckpt_regime.append(self.cur)
            self.ckpt_wavg.append(float(actual[k:k + n].sum()) / n)
            self.ckpt_next += 1
        self.pos += disp

    def _close(self, now: int, direction: str | None) -> bool:
        """End the current stay at time ``now``, leaving ``direction`` (None
        at the horizon), and start the next one; False when the walk ends."""
        self.stays.append((self.cur, now - self.stay_t, self.pos - self.stay_pos, direction))
        if direction is None or now == self.budget:
            return False
        self.cur += 1 if direction == "up" else -1
        self.stay_t, self.stay_pos = now, self.pos
        self.decide = now + (self.n if self.delayed else 1)
        return 0 <= self.cur < len(self.laws)

    def result(self) -> RunResult:
        # a run always ends inside a stay: an exit decided on its last draw
        # would govern a draw that never happens, so that stay is censored
        *done, (regime, steps, disp, _) = self.stays
        records = tuple(SojournRecord(*stay) for stay in done) + (SojournRecord(regime, steps, disp, None, True),)
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
            records=records,
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
    """Simulate ``steps`` draws and return records, trace, final position
    and final window.

    ``checkpoint_times`` defaults to ~64 geometrically spaced times in
    [N, steps]; times given replace that set (they are deduplicated and
    clipped to [1, steps]).
    """
    delayed = _check_version(version)
    steps = int(steps)
    if steps < spec.window:
        raise InvalidInputError(f"steps={steps} must be at least the window length {spec.window}")
    if checkpoint_times is None:
        ckpts = _default_checkpoints(spec.window, steps)
    else:
        ckpts = np.unique(np.asarray(list(checkpoint_times), dtype=np.int64))
        ckpts = ckpts[(ckpts >= 1) & (ckpts <= steps)]
    bounds = [tuple(spec.window * r for r in threshold_bounds(spec, i)) for i in range(spec.l + 1)]
    walk = _Walk(
        spec.dists, bounds, spec.window, delayed, steps, rng, spec.initial_regime, ckpts.tolist(), record_increments
    )
    walk.walk()
    return walk.result()


def sample_exit(
    d: IncrementDistribution,
    r_lo: float,
    r_hi: float,
    n: int,
    rng,
    cap: int = 10_000_000,
) -> SojournRecord:
    """One fresh stay between thresholds: refill the window with N draws of
    ``d``, then step until the window average leaves [r_lo, r_hi).

    Returns steps (exit time + N), displacement, and the exit direction;
    infinite bounds make that side unreachable. If the stay would exceed
    ``cap`` total draws it is returned censored.
    """
    if not r_lo < r_hi:
        raise InvalidInputError(f"need r_lo < r_hi, got ({r_lo}, {r_hi})")
    if n < 1 or cap < n:
        raise InvalidInputError(f"need 1 <= N <= cap, got N={n}, cap={cap}")
    # a one-law ladder: the walk ends when the stay does, so which rule
    # would refill the window after a switch never matters
    walk = _Walk((d,), ((n * r_lo, n * r_hi),), n, True, cap, rng, 0)
    walk.walk()
    ((_, steps, disp, direction),) = walk.stays
    return SojournRecord(None, steps, disp, direction, direction is None)


class BlockOutcome(Enum):
    """What the N window averages inside one 2N-1 increment block did:
    UP crossed the upper threshold only, DOWN dropped below the lower only,
    BOTH did both, NONE stayed inside."""

    UP = "up"
    DOWN = "down"
    BOTH = "both"
    NONE = "none"


def _classify(ws: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Outcome codes 0=UP 1=DOWN 2=BOTH 3=NONE for rows of window sums."""
    up = ws.max(axis=1) >= hi
    dn = ws.min(axis=1) < lo
    return np.where(up & ~dn, 0, np.where(~up & dn, 1, np.where(up & dn, 2, 3)))


_OUTCOME_BY_CODE = (BlockOutcome.UP, BlockOutcome.DOWN, BlockOutcome.BOTH, BlockOutcome.NONE)


def _block_window_sums(d, n: int, count: int, rng) -> np.ndarray:
    draws = sample_n(d, count * (2 * n - 1), rng).reshape(count, 2 * n - 1)
    c0 = np.zeros((count, 2 * n))  # allocated after sampling's temporaries are gone
    np.cumsum(draws, axis=1, out=c0[:, 1:])
    return c0[:, n:] - c0[:, :n]  # N sums per row


def sample_block_outcomes(
    d: IncrementDistribution, r_lo: float, r_hi: float, n: int, rng, count: int
) -> dict[BlockOutcome, int]:
    """Outcome counts over ``count`` fresh blocks of 2N-1 increments, drawn in batches."""
    if not r_lo < r_hi:
        raise InvalidInputError(f"need r_lo < r_hi, got ({r_lo}, {r_hi})")
    if n < 1 or count < 1:
        raise InvalidInputError("N and count must be >= 1")
    rows_per_batch = max(1, _BLOCK_BATCH_ELEMENTS // (2 * n - 1))
    tallies = np.zeros(4, dtype=np.int64)
    done = 0
    while done < count:
        rows = min(rows_per_batch, count - done)
        ws = _block_window_sums(d, n, rows, rng)
        tallies += np.bincount(_classify(ws, n * r_lo, n * r_hi), minlength=4)
        done += rows
    return {out: int(tallies[i]) for i, out in enumerate(_OUTCOME_BY_CODE)}
