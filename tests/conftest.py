"""Shared test helpers: a scripted uniform source, a from-scratch rule
oracle that recomputes regime trajectories directly from the definition,
with no ring buffers or chunking, a wait for a file that another process
makes, and a stand-in for the CPUs available to the process."""

import math
import os
import time

import numpy as np


def wait_for(path, seconds=10.0):
    """Return once ``path`` exists, or after ``seconds``."""
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.005)


def use_cpus(monkeypatch, count):
    """Make ``count`` CPUs look available to the process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class ScriptedRNG:
    """Feeds preset base variates, in order: uniforms to the inverse-CDF
    samplers, or normals to the Gaussian one.

    For two-atom laws, 0.0 forces the lower atom and 0.999 the upper one
    (for any weight bounded away from the extremes).
    """

    def __init__(self, us):
        self._us = [float(u) for u in us]
        self._i = 0

    def random(self, n=None):
        if n is None:
            u = self._us[self._i]
            self._i += 1
            return u
        out = self._us[self._i:self._i + n]
        if len(out) != n:
            raise IndexError("scripted uniforms exhausted")
        self._i += n
        return np.array(out)

    standard_normal = random

    @property
    def consumed(self):
        return self._i


def rademacher_script(increments):
    """Uniforms that force the given +-1 increments for any p in (0.01, 0.99)."""
    return ScriptedRNG([0.999 if x > 0 else 0.0 for x in increments])


def oracle_regime_path(increments, thresholds, window, initial_regime, version):
    """Regime used at each step, recomputed from the definition.

    Step n (1-indexed) first re-evaluates the regime from the plain sum of
    increments n-N..n-1 (instantaneous: always once n > N; delayed: only when
    the last N or more draws all used the current law), then consumes
    increment n. Window sums are compared against N*threshold, half-open.
    """
    l = len(thresholds)
    n_win = window
    regimes = []
    cur = initial_regime
    consec = 0
    for n, _x in enumerate(increments, start=1):
        if n > n_win and (version == "instantaneous" or consec >= n_win):
            wsum = sum(increments[n - 1 - n_win:n - 1])
            lo = thresholds[cur - 1] if cur > 0 else -math.inf
            hi = thresholds[cur] if cur < l else math.inf
            if wsum < n_win * lo:
                cur -= 1
                consec = 0
            elif wsum >= n_win * hi:
                cur += 1
                consec = 0
        regimes.append(cur)
        consec += 1
    return regimes
