"""Monte Carlo experiment drivers.

Everything here consumes a master seed, fans replicas or grid points out over
independent child streams, and folds results back together in a fixed order,
so identical inputs give identical reports. Speed replicas and the chunks of
the grid fits run in worker processes, the caller and children it forks, one
per available CPU. Each worker claims the next task by reading its index from
one unlinked temporary file at the offset they all share, and a task that
fails moves that offset to the end, so no task starts after it. Each task
keeps its own generator, and the results are folded in task order, so reports
do not depend on how many CPUs there are.

The grid fits (block crossings, fresh exits and ``verify_cramer_slope``'s
check of Cramer's theorem on one law) run their grid points through
``_by_grid_point``, which hands them out largest window first and gives back
each point's results once its last chunk is in. The exit fit cuts each grid
point's stays into chunks of ``_EXIT_CHUNK``, each with its own child of the
grid point's stream, since whole grid points cannot balance the CPUs when the
largest window dominates. Speed runs aggregate per-replica terminal averages
with batch-means error bars; the grid fits wrap raw counts into slope fits
against the matching rate-function values.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import os
import pickle
import select
import signal
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .distributions import IncrementDistribution, _law, mean, support_bounds
from .errors import AssumptionError, DegenerateEstimateError, ExcessCensoringError, InvalidInputError, _integer, _number
from .fitting import SlopeFit, binomial_se, check_grid, fit_log_decay, fit_log_growth
from .ratefn import RateFunction
from .sampling import sample_mean_sums, sample_n
from .simulator import BlockOutcome, _check_version, run, sample_block_outcomes, sample_exit
from .theory import ModelSpec, predict_limiting_speed

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
    "verify_cramer_slope",
    "estimate_persistence_constant",
]

_BATCHES_PER_REPLICA = 32

# fresh stays per task of fit_exit_statistics: the largest window costs most
# of a grid, so its stays must split across the CPUs. A task holds N carried
# draws per stay. On the exit-stays workload 1000 ran no slower than 500 or
# 2000 (20 alternating CLI runs each, 2-CPU host).
_EXIT_CHUNK = 1000


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_INDEX_BYTES = 4  # a task index, in the shared index file and in a record
_SIZE_BYTES = 8  # the length of a pickled record, after its task index


@contextlib.contextmanager
def _sigint_held():
    """Hold back SIGINT: a child forked here cannot be interrupted before it
    ignores SIGINT, and the caller is not interrupted while it reaps."""
    old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, old)


def _claim(queue: int) -> int | None:
    """Read the next task index from ``queue``, the index file whose offset
    every worker shares, or None at its end: every task is claimed, or a
    failed task moved the offset there.

    Linux serialises reads on a shared regular-file offset (since 3.14), so
    each index reaches exactly one worker. The file must stay a regular file
    on disk: on an ``os.memfd_create`` descriptor the offset is not
    serialised (Linux 6.18), and three forked readers of 200,000 indices made
    268k-386k claims, handing some indices out up to eight times, where a
    ``TemporaryFile`` handed out each index once.
    ``test_every_task_runs_once_past_the_pipe_buffer`` fails on such a switch.
    """
    index = os.read(queue, _INDEX_BYTES)
    return int.from_bytes(index, sys.byteorder) if index else None


def _write_all(fd: int, data) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_exactly(fd: int, size: int) -> bytearray | None:
    """``size`` bytes from ``fd``, or None if it reaches end of file first."""
    data = bytearray(size)
    view = memoryview(data)
    got = 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if not n:
            return None
        got += n
    return data


def _send(out: int, index: int, value, error: BaseException | None) -> None:
    """Write one task's record, its index, size and pickled (value, error), to ``out``."""
    try:
        data = pickle.dumps((value, error), pickle.HIGHEST_PROTOCOL)
        if error is not None:
            pickle.loads(data)  # an exception can pickle yet fail to unpickle
    except Exception as why:
        what = f"raised {error!r}" if error is not None else f"returned a {type(value).__name__}"
        failure = pickle.PicklingError(f"task {index} {what}, which cannot be pickled: {why}")
        data = pickle.dumps((None, failure), pickle.HIGHEST_PROTOCOL)
    _write_all(out, index.to_bytes(_INDEX_BYTES, sys.byteorder) + len(data).to_bytes(_SIZE_BYTES, sys.byteorder))
    _write_all(out, data)


def _serve(fn, tasks, queue: int, out: int) -> None:
    """A forked child's whole life: run the tasks it claims and send each
    one's record to ``out``. It ignores SIGINT, and leaves by ``os._exit``,
    so it neither flushes the parent's stdio nor runs its atexit hooks; it
    never returns."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        while (i := _claim(queue)) is not None:
            try:
                value, error = fn(tasks[i]), None
            except BaseException as err:  # sent back, and no worker claims another task
                os.lseek(queue, 0, os.SEEK_END)
                value, error = None, err
            _send(out, i, value, error)
        status = 0
    finally:
        os._exit(status)


def _in_order(fn, tasks):
    """Yield ``fn(task)`` for each of ``tasks``, in task order.

    The tasks run in ``min(len(tasks), available CPUs)`` processes, the
    caller and the children it forks on entry. Every task index is written
    once to an unlinked temporary file before the fork, and each worker
    claims the next task by reading an index at the file's shared offset, so
    tasks start in task order. A child pickles each task's value, or the
    exception it raised, back to the caller; one that cannot be pickled comes
    back as a ``pickle.PicklingError`` naming it. The caller yields the
    values in task order and runs a task itself only while the next value is
    not in, after reading every record already sent, so no child waits on it
    while it computes. A worker whose task fails moves the file's offset to
    its end, so no task starts after it, and the first failure in task order
    is re-raised as it was raised. When the caller finishes, raises, is
    interrupted or is closed early, it kills and reaps every child first:
    children ignore SIGINT, so a Ctrl-C does not wait for their tasks.

    The caller runs every task itself, forking nothing, on one CPU, where
    ``os.fork`` is missing, while other threads are alive (a lock one of
    them holds would stay held in every child), or when the index file
    cannot be created.
    """
    tasks = list(tasks)
    workers = min(len(tasks), _available_cpus())
    index_file = None
    if workers > 1 and hasattr(os, "fork") and len(sys._current_frames()) == 1:
        with contextlib.suppress(OSError):  # no writable temporary directory
            index_file = tempfile.TemporaryFile(buffering=0)
    if index_file is None:
        yield from map(fn, tasks)
        return

    queue = index_file.fileno()  # unclaimed task indices, at the offset all workers share
    results = {}  # (value, error) of each task done and not yet yielded
    children = {}  # pid of each child not yet reaped, by the read end of its pipe
    ended = []  # exit statuses of children that ended before being killed

    def collect(timeout: float | None) -> None:
        # one record from each child that has sent one, or its end
        for r in select.select(list(children), [], [], timeout)[0]:
            header = _read_exactly(r, _INDEX_BYTES + _SIZE_BYTES)
            data = header and _read_exactly(r, int.from_bytes(header[_INDEX_BYTES:], sys.byteorder))
            if data is None:  # the child has exited
                os.close(r)
                ended.append(os.waitstatus_to_exitcode(os.waitpid(children.pop(r), 0)[1]))
            else:
                results[int.from_bytes(header[:_INDEX_BYTES], sys.byteorder)] = pickle.loads(data)

    try:
        _write_all(queue, np.arange(len(tasks), dtype=np.uint32).tobytes())
        os.lseek(queue, 0, os.SEEK_SET)
        with _sigint_held():
            for _ in range(workers - 1):
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # out of processes or memory: go on with the workers there are
                    os.close(r)
                    os.close(w)
                    break
                if pid == 0:
                    os.close(r)
                    _serve(fn, tasks, queue, w)
                os.close(w)
                children[r] = pid
        for k in range(len(tasks)):
            collect(0)
            while k not in results:
                i = _claim(queue)
                if i is not None:
                    try:
                        results[i] = (fn(tasks[i]), None)
                    except Exception as err:
                        os.lseek(queue, 0, os.SEEK_END)
                        results[i] = (None, err)
                elif not children:
                    raise ChildProcessError(
                        f"task {k} was lost: worker processes exited with statuses {ended}"
                    )
                collect(0 if i is not None else None)
            value, error = results.pop(k)
            if error is not None:
                raise error
            yield value
    finally:
        with _sigint_held():
            for pid in children.values():
                os.kill(pid, signal.SIGKILL)
            for r, pid in children.items():
                os.waitpid(pid, 0)
                os.close(r)
        index_file.close()


def _by_grid_point(fn, grid, chunks):
    """Yield ``(k, results)`` for each grid point k once its last chunk is in.

    ``chunks[k]`` lists point k's ``(seed, count)`` pairs, and ``results``
    holds ``fn(grid[k], np.random.default_rng(seed), count)`` for each of
    them, in chunk order. The chunks run through ``_in_order`` largest window
    first, as fresh blocks and stays cost more draws the larger N is, so the
    workers finish close together; the points therefore come back from the
    last to the first, and a caller that folds each one as it comes holds one
    point's results at a time.
    """
    tasks = [(k, seed, count) for k in reversed(range(len(grid))) for seed, count in chunks[k]]
    results = []
    for (k, _, _), result in zip(tasks, _in_order(lambda t: fn(grid[t[0]], np.random.default_rng(t[1]), t[2]), tasks)):
        results.append(result)
        if len(results) == len(chunks[k]):
            yield k, results
            results = []


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
    ends = np.round(np.linspace(steps / _BATCHES_PER_REPLICA, steps, _BATCHES_PER_REPLICA)).astype(np.int64)
    return ends[np.diff(ends, prepend=-1) != 0]  # sorted already; np.unique would import numpy.ma


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

    _check_version(version)  # here, as a bad name would otherwise fork the replicas first
    steps = _integer("steps", steps, 50 * spec.window)  # a run spans at least 50 windows
    replicas = _integer("replicas", replicas, 2)
    master_seed = _integer("master_seed", master_seed, 0, math.inf)

    bounds = _batch_boundaries(steps)
    nregimes = spec.l + 1
    total_disp = 0.0
    batch_means: list[np.ndarray] = []
    columns = []  # each replica's stay regimes, exits, steps and displacements

    def replica(child):
        return run(spec, version, steps, np.random.default_rng(child), checkpoint_times=bounds)

    for res in _in_order(replica, np.random.SeedSequence(master_seed).spawn(replicas)):
        total_disp += res.position
        batch_means.append(np.diff(res.trace.positions, prepend=0.0) / np.diff(bounds, prepend=0))
        columns.append((res.stay_regimes, res.stay_exits, res.stay_steps, res.stay_displacements))

    # every replica's stays, in replica and then stay order
    regimes, exits, lengths, displacements = map(np.concatenate, zip(*columns))
    occupancy = np.bincount(regimes, weights=lengths, minlength=nregimes)  # exact: sums below 2**53
    visits = np.bincount(regimes, minlength=nregimes)
    stay_up = np.bincount(regimes[exits == 1], minlength=nregimes)
    completed = exits != 0
    pooled = np.concatenate(batch_means)
    est = total_disp / (replicas * steps)
    stderr = float(np.std(pooled, ddof=1) / math.sqrt(pooled.size))

    means = spec.regime_means
    warnings: list[str] = []
    per_regime: list[RegimeStats] = []
    for i in range(nregimes):
        done = completed & (regimes == i)
        s = lengths[done].astype(float)
        if s.size == 0:
            warnings.append(f"insufficient data: regime {i} has no completed sojourns")
            per_regime.append(RegimeStats(i, 0, None, None, None, None, None))
            continue
        d = displacements[done]
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
    """Step budget per window size: 200 * exp(N * rate), where rate is the
    largest sojourn exponent, floored at 1e6 and capped at 1e8 steps.

    exp(N * rate) has the growth of the longest mean stay but not its
    prefactor, so the budget is not 200 stays long: measured mean fresh stays
    run 19 to 48 times longer (two Gaussians, threshold 0.4, N = 10 to 50), and
    a replica at N = 40 sees about 17 stays of the slower regime. Grids should
    stay below the cap or the largest windows see only a few regime switches.
    Raises AssumptionError if the model fails validation.
    """

    rate = max(r.sojourn_exp for r in predict_limiting_speed(spec).per_regime)

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
    replicas = _integer("replicas", replicas, 2)
    master_seed = _integer("master_seed", master_seed, 0, math.inf)
    theory = predict_limiting_speed(spec)
    if theory.predicted_speed is None:
        raise AssumptionError(
            "predicted speed is tied between regimes; sweep verdict is undefined"
        )
    budgets = map(default_steps_rule(spec), grid) if steps is None else [steps] * len(grid)
    # estimate_speed's floor, checked on every budget before the first run
    steps_used = tuple(_integer("steps", s, 50 * n) for n, s in zip(grid, budgets))

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
        replicas=replicas,
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
    _law("d", d)
    if not _number("r_lo", r_lo) < _number("r_hi", r_hi):
        raise InvalidInputError(f"need r_lo < r_hi, got ({r_lo}, {r_hi})")
    grid = check_grid(n_grid)
    samples_per_n = _integer("samples_per_n", samples_per_n, 1)
    master_seed = _integer("master_seed", master_seed, 0, math.inf)
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
    children = np.random.SeedSequence(master_seed).spawn(len(grid))
    tallies = dict(_by_grid_point(
        functools.partial(sample_block_outcomes, d, r_lo, r_hi), grid, [[(c, samples_per_n)] for c in children]
    ))

    def probs(out: BlockOutcome) -> tuple[np.ndarray, np.ndarray]:
        p = np.array([tallies[k][0][out] for k in range(len(grid))], dtype=float) / samples_per_n
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
    cap = _integer("cap", cap, grid[-1])
    p_down, se_down, mean_stay, se_stay = np.empty((4, len(grid)))
    censored_fracs = [0.0] * len(grid)
    n_chunks = -(-samples_per_n // _EXIT_CHUNK)
    counts = [min(_EXIT_CHUNK, samples_per_n - c * _EXIT_CHUNK) for c in range(n_chunks)]
    points = np.random.SeedSequence(master_seed).spawn(len(grid))

    def chunk(n, rng, count):
        sample = sample_exit(d, r_lo, r_hi, n, rng, cap=cap, count=count)
        ended = sample.stay_exits != 0
        return (sample.stay_steps[ended] - n).astype(float), np.count_nonzero(sample.stay_exits == -1), sample.censored

    for k, parts in _by_grid_point(chunk, grid, [list(zip(point.spawn(n_chunks), counts)) for point in points]):
        stays = np.concatenate([p[0] for p in parts])
        downs = sum(p[1] for p in parts)
        censored_fracs[k] = sum(p[2] for p in parts) / samples_per_n
        if censored_fracs[k] > 0.05:
            continue  # raised below, for the smallest such window
        m = len(stays)
        p_down[k] = downs / m
        se_down[k] = binomial_se(p_down[k], m)
        mean_stay[k] = stays.mean()
        se_stay[k] = float(np.std(stays, ddof=1) / math.sqrt(m)) if m >= 2 else 0.0
    for n, frac in zip(grid, censored_fracs):
        if frac > 0.05:
            raise ExcessCensoringError(
                f"{frac:.1%} of stays at N={n} hit the {cap}-step cap; raise the cap"
            )

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


def verify_cramer_slope(
    d: IncrementDistribution,
    r: float,
    side: str,
    n_grid,
    rng,
    samples_per_n: int,
) -> SlopeFit:
    """Fit the Monte Carlo decay exponent of P(S_n/n >= r) (or <= r) over n_grid.

    By Cramer's theorem (1/n) log P(S_n/n >= r) -> -I(r) for r above the
    mean, and symmetrically below. Each grid point gets an independent child
    stream of ``rng`` and ``samples_per_n`` draws of S_n from its exact law.
    ``rng`` is a Generator or an int seed; seed s gives the streams of
    ``np.random.default_rng(s)``. The fitted slope is comparable to
    RateFunction(d).evaluate(r), returned as ``target``.

    Grid points whose estimate is zero are dropped; fewer than 3 surviving
    points raises DegenerateEstimateError.
    """
    _law("d", d)
    if side not in ("ge", "le"):
        raise InvalidInputError(f"side must be 'ge' or 'le', got {side!r}")
    n_grid = check_grid(n_grid)
    samples_per_n = _integer("samples_per_n", samples_per_n, 1)
    if not isinstance(rng, np.random.Generator):
        # a Generator's children are those of its SeedSequence
        rng = np.random.SeedSequence(_integer("seed", rng, 0, math.inf))
    _number("r", r)
    mu = mean(d)
    slo, shi = support_bounds(d)
    if side == "ge" and not (mu < r < shi):
        raise InvalidInputError(f"for side='ge', r must lie strictly between the mean {mu} and the upper support edge {shi}")
    if side == "le" and not (slo < r < mu):
        raise InvalidInputError(f"for side='le', r must lie strictly between the lower support edge {slo} and the mean {mu}")

    def hits(n, stream, count):
        sums = sample_mean_sums(d, n, count, stream)
        return int(np.count_nonzero(sums >= n * r if side == "ge" else sums <= n * r))

    streams = rng.spawn(len(n_grid))
    points = dict(_by_grid_point(hits, n_grid, [[(s, samples_per_n)] for s in streams]))
    probs = [points[k][0] / samples_per_n for k in range(len(n_grid))]
    ses = [binomial_se(p, samples_per_n) for p in probs]
    target = RateFunction(d).evaluate(r)
    return fit_log_decay(n_grid, probs, ses, target=target)


def _persistence_profile(d, r: float, horizon: int, samples: int, rng) -> float:
    """Fraction of ``samples`` running-mean paths that stay at or above ``r``
    up to ``horizon``.

    One step per time: each surviving path draws one increment, and a path is
    dropped as soon as its running sum falls below ``r * t``, so memory is a
    few arrays the size of ``samples``. Each step costs about 5 us however
    few paths survive, so a handful of samples over a horizon of 1e6 takes
    seconds.
    """

    sums = np.zeros(samples)
    for t in range(1, horizon + 1):
        sums += sample_n(d, sums.size, rng)
        sums = sums[sums >= r * t]
        if not sums.size:
            break
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

    if math.isnan(_number("r", r)):
        raise InvalidInputError("r must be a number, got nan")
    if not r < mean(_law("d", d)):
        raise AssumptionError(f"need r strictly below the mean {mean(d)}, got r={r}")
    horizon = _integer("horizon", horizon, 1)
    samples = _integer("samples", samples, 1)
    rng = np.random.default_rng(np.random.SeedSequence(_integer("master_seed", master_seed, 0, math.inf)))
    return _persistence_profile(d, r, horizon, samples, rng)
