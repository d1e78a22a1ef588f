"""Walk dynamics: single-step reference semantics and a fast chunked engine.

A walk keeps a ring buffer of its last N increments. At each step it may
first re-evaluate its regime (always, for the instantaneous version; only
once the current law has produced the full window, for the delayed version)
and then draws one increment from the active law. Decisions compare the
window SUM against N*threshold, half-open: strictly below the lower threshold
moves down, at-or-above the upper one moves up. The first N steps always use
the initial regime, for both versions.

``step_delayed``/``step_instantaneous`` implement exactly one step and are
the reference semantics. ``run`` implements the same dynamics but draws base
variates in chunks and scans window sums vectorised. Variates drawn past a
switch carry over to the next law, so the k-th increment of a run maps the
k-th base variate of the stream, exactly as ``init`` and step_* calls do. The
exceptions: a switch between a Gaussian and a discrete law drops them, as
normals cannot stand in for uniforms, and a window sum that ties a threshold
only up to rounding may be decided differently, as the two add in other orders.

``run`` and ``sample_exit`` are built on one stay scan, so a fresh stay and a
run's first sojourn from the same seed make the same draws. They differ only
at the horizon: ``run`` censors a stay whose exit is decided on its last draw,
because that decision would govern a draw that never happens, while
``sample_exit`` counts an exit on its cap-th draw.
"""

from __future__ import annotations

import math
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
    spec: ModelSpec
    version: str
    steps: int
    final_state: WalkState
    records: tuple[SojournRecord, ...]
    trace: TraceSummary
    occupancy_steps: np.ndarray
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


def _topped_up(law, ahead: np.ndarray, m: int, rng) -> np.ndarray:
    """At least ``m`` base variates of ``law``: ``ahead``, topped up from ``rng``."""
    if len(ahead) >= m:
        return ahead
    fresh = base_variates(law, m - len(ahead), rng)
    return np.concatenate([ahead, fresh]) if len(ahead) else fresh


def _scan_stay(law, window, n, lo, hi, forced, budget, rng, ahead=_NO_DRAWS, absorb=None):
    """The one sequential stay scan, shared by ``run`` and ``sample_exit``.

    From ``window`` (the last min(t, N) draws), make ``forced`` draws of
    ``law`` with no rule evaluation, then check the exact window sum, then
    draw chunks of ``max(64, 2N) << k`` (capped at 2^17) and find the first
    window sum outside [lo, hi) by a cumsum of window+chunk, until one leaves
    or ``budget`` draws are made. The window after the last draw is always
    checked. Draws map the base variates in ``ahead`` first, then fresh ones.
    ``absorb(window, chunk, c0, total)`` sees each batch of draws after
    ``window``, with ``c0`` the zero-prefixed cumsum of window+chunk or None,
    and ``total`` their sum. Returns the final window, 'up'/'down' (None when
    the budget ran out first), the number of draws, their sum and the unused
    base variates.
    """
    steps = min(forced, budget)
    z = _topped_up(law, ahead, steps, rng)
    chunk, ahead = from_base(law, z[:steps]), z[steps:]
    disp = float(chunk.sum())
    if absorb is not None:
        absorb(window, chunk, None, disp)
    window = chunk if steps == n else np.concatenate([window, chunk])[-n:]
    grown = 0
    while True:
        s = float(window.sum())  # exact: kills rolling drift
        if s < lo or s >= hi:
            return window, "down" if s < lo else "up", steps, disp, ahead
        if steps == budget:
            return window, None, steps, disp, ahead
        m = min(max(64, 2 * n) << grown, 1 << 17, budget - steps)
        grown += 1
        z = _topped_up(law, ahead, m, rng)
        full = np.concatenate([window, from_base(law, z[:m])])
        c0 = np.zeros(n + m + 1)
        np.cumsum(full, out=c0[1:])
        ws = c0[n:] - c0[: m + 1]  # ws[j]: window sum after j draws of this chunk
        viol = (ws < lo) | (ws >= hi)
        viol[0] = False  # checked exactly above
        hit = int(np.argmax(viol))  # 0 when every window sum stays inside
        used = hit or m
        ahead = z[used:] if used < len(z) else _NO_DRAWS
        total = float(c0[n + used] - c0[n])
        if absorb is not None:
            absorb(window, full[n:n + used], c0, total)
        window = full[used:used + n].copy()  # frees the chunk buffers before the next draw
        steps += used
        disp += total
        if hit:
            return window, "down" if ws[hit] < lo else "up", steps, disp, ahead


class _Engine:
    """Chunked implementation of one run: one ``_scan_stay`` per sojourn.
    ``_absorb`` keeps position, time, occupancy, checkpoints and recorded
    increments in step with the draws the scan makes."""

    def __init__(self, spec, delayed, steps, rng, checkpoint_times, record_increments):
        self.spec = spec
        self.delayed = delayed
        self.steps = steps
        self.rng = rng
        self.n = spec.window
        self.sum_bounds = [[self.n * r for r in threshold_bounds(spec, i)] for i in range(spec.l + 1)]
        self.pos = 0.0
        self.t = 0
        self.cur = spec.initial_regime
        self.window = np.empty(0, dtype=float)
        self.records: list[SojournRecord] = []
        self.occupancy = np.zeros(spec.l + 1, dtype=np.int64)
        self.ckpt_times = checkpoint_times
        self.ckpt_next = 0
        self.ckpt_pos: list[float] = []
        self.ckpt_regime: list[int] = []
        self.ckpt_wavg: list[float] = []
        self.keep_increments = record_increments
        self.increments: list[np.ndarray] = []

    def _absorb(self, window: np.ndarray, chunk: np.ndarray, c0: np.ndarray | None, total: float) -> None:
        """Account for ``chunk`` being drawn under the current regime after
        ``window``. When a checkpoint falls inside the chunk and ``c0`` is
        None, it is built here and its difference replaces ``total``."""
        k = len(chunk)
        b = len(window)
        while self.ckpt_next < len(self.ckpt_times) and self.ckpt_times[self.ckpt_next] <= self.t + k:
            u = int(self.ckpt_times[self.ckpt_next])
            if c0 is None:
                full = np.concatenate([window, chunk])
                c0 = np.concatenate([[0.0], np.cumsum(full)])
                total = float(c0[b + k] - c0[b])
            j = u - self.t  # in 1..k
            self.ckpt_pos.append(self.pos + float(c0[b + j] - c0[b]))
            self.ckpt_regime.append(self.cur)
            back = b + j - self.n
            if u >= self.n and back >= 0:
                self.ckpt_wavg.append(float(c0[b + j] - c0[back]) / self.n)
            else:
                self.ckpt_wavg.append(math.nan)
            self.ckpt_next += 1
        if self.keep_increments:
            self.increments.append(chunk.copy())
        self.pos += total
        self.occupancy[self.cur] += k
        self.t += k

    def run(self) -> RunResult:
        forced = self.n  # the initial window refill, both versions
        ahead = _NO_DRAWS
        while True:
            start = self.pos
            law = self.spec.dists[self.cur]
            self.window, direction, steps, _, ahead = _scan_stay(
                law, self.window, self.n, *self.sum_bounds[self.cur],
                forced, self.steps - self.t, self.rng, ahead, self._absorb,
            )
            if self.t == self.steps:
                direction = None  # a decision on the last draw governs no draw
            self.records.append(SojournRecord(self.cur, steps, self.pos - start, direction, direction is None))
            if direction is None:
                return self._result()
            self.cur += 1 if direction == "up" else -1
            if isinstance(self.spec.dists[self.cur], Gaussian) != isinstance(law, Gaussian):
                ahead = _NO_DRAWS  # normals and uniforms cannot stand in for each other
            forced = self.n if self.delayed else 1

    def _result(self) -> RunResult:
        win = self.window.copy()
        # the run always ends inside a sojourn, so the last (censored) record
        # counts the draws since the most recent switch
        state = WalkState(
            position=self.pos,
            time=self.t,
            regime=self.cur,
            consecutive_uses=self.records[-1].steps,
            window=win,
            window_sum=float(win.sum()),
        )
        trace = TraceSummary(
            times=np.asarray(self.ckpt_times[: self.ckpt_next], dtype=np.int64),
            positions=np.asarray(self.ckpt_pos),
            regimes=np.asarray(self.ckpt_regime, dtype=np.int64),
            window_avgs=np.asarray(self.ckpt_wavg),
        )
        incs = None
        if self.keep_increments:
            incs = np.concatenate(self.increments) if self.increments else np.empty(0)
        return RunResult(
            spec=self.spec,
            version="delayed" if self.delayed else "instantaneous",
            steps=self.steps,
            final_state=state,
            records=tuple(self.records),
            trace=trace,
            occupancy_steps=self.occupancy,
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
    """Simulate ``steps`` draws and return records, trace and final state.

    ``checkpoint_times`` defaults to ~64 geometrically spaced times in
    [N, steps]; extra times can be supplied (they are merged, deduplicated and
    clipped).
    """
    delayed = _check_version(version)
    steps = int(steps)
    if steps < spec.window:
        raise InvalidInputError(f"steps={steps} must be at least the window length {spec.window}")
    if checkpoint_times is None:
        ckpts = _default_checkpoints(spec.window, steps)
    else:
        extra = np.asarray(list(checkpoint_times), dtype=np.int64)
        ckpts = np.unique(np.concatenate([_default_checkpoints(spec.window, steps), extra]))
        ckpts = ckpts[(ckpts >= 1) & (ckpts <= steps)]
    eng = _Engine(spec, delayed, steps, rng, ckpts, record_increments)
    return eng.run()


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
    _, direction, steps, disp, _ = _scan_stay(d, _NO_DRAWS, n, n * r_lo, n * r_hi, n, cap, rng)
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
