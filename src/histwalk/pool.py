"""A fork pool: independent tasks run in worker processes, and their results
come back in task order.

The workers are the caller and children it forks, one per available CPU.
Each worker claims the next task by reading its index from one unlinked
temporary file at the offset they all share, and a task that fails moves
that offset to the end, so no task starts after it. Results are handed back
in task order, so a caller whose tasks each keep their own generator gets
reports that do not depend on how many CPUs there are. Nothing here knows
what a task computes.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import signal
import sys
import tempfile

import numpy as np


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
