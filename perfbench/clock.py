"""Iteration and set-up times calibrated against the host's speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to about 2x over seconds to minutes, as its neighbours come and go; fixed
reference work slows down and speeds up together with every workload. So
the runner times each step of an iteration and, after every step, times a
short library-independent reference (``host_factor``, 20 to 40 ms) of the
kinds of work the workload leans on. A
step's calibrated time is its wall time divided by the geometric mean of
the factors taken just before and just after it. Calibrated seconds are
seconds on a host whose reference takes the nominal time, so they stay
comparable across runs while the raw wall time of the same work swings
with the neighbours. The reference runs between steps, outside the
measured time, and touches nothing of craftkit: a change to the library
moves the calibrated time exactly as it moves the wall time."""

import math
import time
from contextlib import contextmanager

import numpy as np

_SAMPLES = 5
_gen = np.random.default_rng(0)
_matrix = _gen.random((200, 200))
_row, _basis = _gen.random(20), _gen.random((20, 2))


def _loop():
    acc = 0
    for i in range(50_000):
        acc += i * i


def _matmul():
    for _ in range(8):
        _matrix @ _matrix


def _small():
    # tiny NumPy calls, the per-call overhead of single-row solves
    for _ in range(300):
        np.maximum(_row @ _basis, 0.0).sum()


# reference parts and their nominal durations, on a 2-vCPU x86-64 host
# with BLAS on one thread
REFERENCE = {"loop": (_loop, 3.6e-3), "matmul": (_matmul, 2.8e-3),
             "small": (_small, 1.4e-3)}


def host_factor(parts):
    """Duration of the reference work relative to its nominal duration:
    1.0 on the nominal host, 1.5 when the host runs 1.5x slower. parts
    names the kinds of work the timed code leans on (a Python loop, a
    small matmul, tiny NumPy calls); the mean over several samples keeps
    the reference's own noise small."""
    total = 0.0
    for _ in range(_SAMPLES):
        for part in parts:
            fn, nominal = REFERENCE[part]
            start = time.perf_counter()
            fn()
            total += (time.perf_counter() - start) / nominal
    return total / (_SAMPLES * len(parts))


class Clock:
    """Raw and calibrated time of one piece of work made of steps.

    ``start()`` begins the piece; ``step(name)`` is a context manager (with
    the signature of a tracer's ``span``) that closes a step on exit;
    ``stop()`` adds whatever ran after the last step. ``wall`` and
    ``calibrated`` then hold the piece's times, reference excluded.
    """

    def __init__(self, parts):
        self.parts = parts
        self.factor = host_factor(parts)
        self.start()

    def start(self):
        self.wall = self.calibrated = 0.0
        self.mark = time.perf_counter()

    def _add(self, elapsed, factor):
        self.wall += elapsed
        self.calibrated += elapsed / factor

    @contextmanager
    def step(self, name=None):
        try:
            yield {}
        finally:
            elapsed = time.perf_counter() - self.mark
            factor = host_factor(self.parts)
            self._add(elapsed, math.sqrt(self.factor * factor))
            self.factor = factor
            self.mark = time.perf_counter()

    def stop(self):
        self._add(time.perf_counter() - self.mark, self.factor)
        self.mark = time.perf_counter()
