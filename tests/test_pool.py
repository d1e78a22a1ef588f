"""Tests for the fork pool: tasks run in forked worker processes, come back
in task order, and leave no child, temporary file or buffered output behind,
however the caller ends."""

import atexit
import os
import pickle
import signal
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

from conftest import use_cpus, wait_for
from histwalk import pool
from histwalk.errors import ExcessCensoringError, InvalidInputError


def split_task(tmp_path, in_child):
    """A task that runs ``in_child(k)`` in a forked child and returns ``k`` in
    the caller, but only once some child has started a task, so that every
    run hands at least one task to a child."""
    caller = os.getpid()
    started = tmp_path / "a child started"

    def task(k):
        if os.getpid() == caller:
            wait_for(started)
            return k
        started.touch()
        return in_child(k)

    return task


def use_empty_tempdir(monkeypatch, tmp_path):
    """Point ``tempfile`` at a new empty directory, and return it."""
    temp = tmp_path / "tempdir"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    return temp


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class NeedsTwoArguments(Exception):
    """Pickles, but unpickling calls ``__init__`` with the message alone."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class TestInOrder:
    """``_in_order`` runs independent tasks in forked worker processes and
    hands results back in task order, the way the speed and block drivers
    fold them."""

    def test_results_come_back_in_task_order(self, monkeypatch):
        use_cpus(monkeypatch, 4)
        delays = [0.2, 0.0, 0.1, 0.0, 0.05, 0.0]

        def nap(k):
            time.sleep(delays[k])
            return k * k, time.monotonic()

        values, finished = zip(*pool._in_order(nap, range(len(delays))))
        assert values == tuple(k * k for k in range(6))
        assert list(finished) != sorted(finished)  # the tasks did finish out of order

    def test_first_failure_in_task_order_is_reraised(self, monkeypatch):
        use_cpus(monkeypatch, 4)

        def task(k):
            if k == 1:
                time.sleep(0.2)
                raise InvalidInputError("task 1")
            if k == 2:
                raise KeyError("task 2")  # fails first, but later in task order
            return k

        results = pool._in_order(task, range(4))
        assert next(results) == 0
        with pytest.raises(InvalidInputError, match="^task 1$") as failure:
            next(results)
        assert failure.type is InvalidInputError

    def test_a_childs_failure_keeps_its_type_and_message(self, monkeypatch, tmp_path):
        use_cpus(monkeypatch, 2)

        def fail(k):
            raise ExcessCensoringError(f"task {k} in a child")

        with pytest.raises(ExcessCensoringError, match=r"^task \d+ in a child$") as failure:
            list(pool._in_order(split_task(tmp_path, fail), range(4)))
        assert failure.type is ExcessCensoringError

    @pytest.mark.parametrize("what", ["local exception", "exception that fails to unpickle", "lambda"])
    def test_what_a_child_cannot_pickle_comes_back_as_a_pickling_error(self, monkeypatch, tmp_path, what):
        use_cpus(monkeypatch, 2)

        class Local(Exception):
            pass

        def in_child(k):
            if what == "local exception":
                raise Local(f"task {k}")
            if what == "exception that fails to unpickle":
                raise NeedsTwoArguments(f"task {k}", "more")
            return lambda: k

        pattern = {
            "local exception": r"task \d+ raised Local\('task \d+'\), which cannot be pickled",
            "exception that fails to unpickle": r"task \d+ raised NeedsTwoArguments\('task \d+ and more'\), which cannot be pickled",
            "lambda": r"task \d+ returned a function, which cannot be pickled",
        }[what]
        with pytest.raises(pickle.PicklingError, match=pattern):
            list(pool._in_order(split_task(tmp_path, in_child), range(4)))
        assert_no_child_left()

    @pytest.mark.parametrize("failing", ["task 1", "the caller"])
    def test_no_task_starts_after_a_failure(self, monkeypatch, tmp_path, failing):
        use_cpus(monkeypatch, 2)
        caller = os.getpid()

        def task(k):
            (tmp_path / f"started {k}").touch()
            sleeps = k == 0 if failing == "task 1" else os.getpid() != caller
            if sleeps:
                time.sleep(0.5)  # the other worker fails a task meanwhile
                return k
            if k == 0:
                # the caller holds task 0 until the child starts task 1, then fails task 2
                wait_for(tmp_path / "started 1")
                return k
            raise ArithmeticError(f"task {k}")

        with pytest.raises(ArithmeticError, match=r"^task [12]$") as failure:
            list(pool._in_order(task, range(20)))
        failed = int(str(failure.value).split()[1])
        if failing == "task 1":
            assert failed == 1
        # tasks start in order, and none after the failed one
        assert sorted(path.name for path in tmp_path.iterdir()) == [f"started {k}" for k in range(failed + 1)]

    def test_ctrl_c_does_not_wait_for_running_tasks(self, monkeypatch, tmp_path):
        use_cpus(monkeypatch, 2)
        temp = use_empty_tempdir(monkeypatch, tmp_path)
        caller = os.getpid()
        survived = tmp_path / "the child survived its own Ctrl-C"

        def in_child(k):
            os.kill(os.getpid(), signal.SIGINT)  # a terminal's Ctrl-C reaches the children too
            time.sleep(0.05)
            survived.touch()
            os.kill(caller, signal.SIGINT)
            time.sleep(30)
            return k

        # a process started with SIGINT ignored, as a background job of a
        # non-interactive shell is, gets no KeyboardInterrupt from it
        old = signal.signal(signal.SIGINT, signal.default_int_handler)
        start = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                list(pool._in_order(split_task(tmp_path, in_child), range(8)))
        finally:
            signal.signal(signal.SIGINT, old)
        assert time.monotonic() - start < 5
        assert survived.exists()
        assert_no_child_left()
        assert list(temp.iterdir()) == []

    @pytest.mark.parametrize("ending", ["success", "failure in a child", "early close"])
    def test_every_child_is_reaped(self, monkeypatch, tmp_path, ending):
        use_cpus(monkeypatch, 3)
        temp = use_empty_tempdir(monkeypatch, tmp_path)

        def in_child(k):
            if ending == "failure in a child":
                raise LookupError(f"task {k}")
            if ending == "early close" and k > 0:
                time.sleep(30)
            return k

        results = pool._in_order(split_task(tmp_path, in_child), range(6))
        start = time.monotonic()
        if ending == "success":
            assert list(results) == list(range(6))
        elif ending == "failure in a child":
            with pytest.raises(LookupError):
                list(results)
        else:
            assert next(results) == 0
            results.close()
        assert time.monotonic() - start < 5
        assert_no_child_left()
        assert list(temp.iterdir()) == []

    def test_a_task_whose_child_dies_is_reported_lost(self, monkeypatch, tmp_path):
        use_cpus(monkeypatch, 2)

        def die(k):
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(ChildProcessError, match=r"^task \d+ was lost: .*-9"):
            list(pool._in_order(split_task(tmp_path, die), range(4)))
        assert_no_child_left()

    def test_children_neither_flush_stdio_nor_run_atexit_hooks(self, monkeypatch, tmp_path):
        use_cpus(monkeypatch, 2)
        hook = tmp_path / "atexit ran"

        def at_exit():
            hook.touch()

        atexit.register(at_exit)
        try:
            with open(tmp_path / "out.txt", "w") as out:
                out.write("written once")  # still buffered when the children fork
                results = pool._in_order(split_task(tmp_path, lambda k: k), range(4))
                assert list(results) == list(range(4))
        finally:
            atexit.unregister(at_exit)
        assert (tmp_path / "out.txt").read_text() == "written once"
        assert not hook.exists()

    def test_every_task_runs_once_past_the_pipe_buffer(self, monkeypatch, tmp_path):
        # more task indices than a pipe buffer holds, claimed at one shared
        # file offset by more workers than cores: a lost or repeated claim
        # would skip a task or log it twice
        use_cpus(monkeypatch, 4)
        count = 40_000
        log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def task(k):
            os.write(log, k.to_bytes(4, sys.byteorder))
            return k

        start = time.monotonic()
        try:
            assert list(pool._in_order(task, range(count))) == list(range(count))
        finally:
            os.close(log)
        assert time.monotonic() - start < 30
        logged = np.frombuffer((tmp_path / "log").read_bytes(), dtype=np.uint32)
        assert np.array_equal(np.sort(logged), np.arange(count))

    @pytest.mark.parametrize("why", ["one-cpu", "no-fork", "another-thread", "no-temp-file"])
    def test_runs_every_task_inline(self, monkeypatch, why):
        use_cpus(monkeypatch, 1 if why == "one-cpu" else 4)
        if why == "no-temp-file":

            def no_room(*args, **kwargs):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(tempfile, "TemporaryFile", no_room)
        if why == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:

            def refuse():
                raise AssertionError("a process was forked")

            monkeypatch.setattr(os, "fork", refuse)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        if why == "another-thread":
            other.start()
        try:
            assert list(pool._in_order(lambda k: -k, range(5))) == [0, -1, -2, -3, -4]
        finally:
            release.set()
            if other.is_alive():
                other.join(10)
        assert not other.is_alive()

    def test_cpu_count_stands_in_for_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert pool._available_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool._available_cpus() == 1
