"""Timings scaled to a fixed machine speed, measured while the code runs.

On the shared 2-vCPU host this benchmark was tuned on, the same code runs
up to 1.9x slower for seconds to minutes at a time: the vCPUs share
physical cores with other tenants, hypervisor steal reads zero and process
CPU time tracks wall time, so nothing in one run's own timings tells a
slow period from slower code. A fixed reference kernel, run often enough,
does: it slows down with the machine and never with the program.

A ``Metronome`` interrupts the timed code every ``PERIOD_S`` (``SIGALRM``;
the Python handler runs between bytecodes, whatever the code is doing) and
runs one short burst of a reference kernel. Each piece of timed code
between two bursts is scaled by the kernel's nominal burst time over the
mean of those two bursts, and the sum of the scaled pieces is the time the
code would have taken at the reference speed. The bursts themselves are
not counted. A change to the program moves the scaled time as much as it
moves the wall time; a slow period of the host moves both the code and the
bursts, and the ratio cancels it.

The kernels are frozen copies of the two kinds of work femtoq does: one
learning iteration at M=15 (interpreter loops and small numpy calls) and
one chunk of the oracle's batched enumeration (large numpy arrays). They
use no femtoq code, so no change to the package can speed them up. Each
phase is timed with the kernel of its kind.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.025  # timed code between two bursts; a burst takes 1-3 ms


def _learning_burst(
    _q=np.linspace(0.0, 1.0, 15 * 31).reshape(15, 31),
    _cross=np.linspace(0.5, 1.5, 15 * 15).reshape(15, 15),
    _to_mue=np.linspace(0.1, 0.2, 15),
    _levels=np.logspace(-2.0, 1.0, 31),
    _idx=np.arange(15),
) -> float:
    """Twenty iterations shaped like ``DensityStep.step`` at M=15, 31 levels."""
    rng = np.random.default_rng(0)
    qmat = _q.copy()
    delta = 0.0
    for _ in range(20):
        snapshot = qmat.copy()
        actions = np.argmax(qmat, axis=1)
        for i in range(15):
            if rng.random() < 0.5:
                actions[i] = int(rng.integers(31))
        powers = _levels[actions]
        c_mue = math.log1p(1.0 / (float(powers @ _to_mue) + 1e-3)) / math.log(2.0)
        received = powers @ _cross
        signal_ = powers * 0.9
        c_fue = np.log1p(signal_ / (received + 1e-3)) / math.log(2.0)
        rewards = c_fue - np.abs(c_fue - 1.0) * c_mue
        row_max = qmat.max(axis=1)
        qmat[_idx, actions] = 0.5 * qmat[_idx, actions] + 0.5 * (rewards + 0.9 * row_max)
        delta = float(np.abs(qmat - snapshot).max())
        _ = (tuple(int(a) for a in actions), tuple(float(c) for c in c_fue))
    return delta


def _oracle_burst(
    _weights=25 ** np.arange(4, -1, -1, dtype=np.int64),
    _levels=np.logspace(-2.0, 1.0, 25),
    _cross=np.linspace(0.5, 1.5, 25).reshape(5, 5),
    _to_mue=np.linspace(0.1, 0.2, 5),
) -> float:
    """One 8192-action chunk shaped like ``oracle.exhaustive_search``'s, at M=5."""
    flat = np.arange(1_000_000, 1_008_192, dtype=np.int64)
    digits = (flat[:, None] // _weights[None, :]) % 25
    powers = _levels[digits]
    c_mue = np.log1p(1.0 / (powers @ _to_mue + 1e-3))
    received = powers @ _cross
    signal_ = powers * 0.9
    c_fue = np.log1p(signal_ / (received + 1e-3))
    sums = c_fue.sum(axis=1)
    feasible = (c_fue >= 0.5).all(axis=1) & (c_mue >= 0.5)
    return float(np.where(feasible, sums, -np.inf).max())


# kind -> (kernel, its burst time in seconds at the reference speed). The
# reference speed is a fixed scale, close to the tuning host's fast periods,
# where a learning burst took about 1.2 ms and an oracle burst about 1.4 ms.
KERNELS = {
    "learning": (_learning_burst, 1.2e-3),
    "oracle": (_oracle_burst, 1.4e-3),
}


class Metronome:
    """Context manager; ``scaled_s`` and ``wall_s`` cover the code inside it.

    ``wall_s`` is the plain time of the timed code with the bursts taken
    out; ``scaled_s`` is that time at the reference speed. ``bursts``
    holds every burst's duration. Only one metronome may run at a time,
    in the main thread.
    """

    _running: "Metronome | None" = None
    _installed = False

    def __init__(self, kind: str, period_s: float = PERIOD_S):
        self._kernel, self._nominal_s = KERNELS[kind]
        self._period_s = period_s
        self.scaled_s = 0.0
        self.wall_s = 0.0
        self.bursts: list[float] = []

    def _burst(self) -> float:
        start = time.perf_counter()
        self._kernel()
        took = time.perf_counter() - start
        self.bursts.append(took)
        return took

    def _close_piece(self) -> None:
        piece = time.perf_counter() - self._mark
        before = self.bursts[-1]
        after = self._burst()
        self.wall_s += piece
        self.scaled_s += piece * self._nominal_s / (0.5 * (before + after))
        self._mark = time.perf_counter()

    @staticmethod
    def _tick(signum, frame) -> None:
        running = Metronome._running
        # a signal raised just before __exit__ disarmed the timer can land
        # after the metronome stopped: ignore it, and do not re-arm
        if running is None:
            return
        running._close_piece()
        signal.setitimer(signal.ITIMER_REAL, running._period_s)

    def __enter__(self) -> "Metronome":
        if Metronome._running is not None:
            raise RuntimeError("a metronome is already running")
        if not Metronome._installed:
            # stays installed: a late signal then finds a no-op, not the
            # default action, which would end the process
            signal.signal(signal.SIGALRM, Metronome._tick)
            Metronome._installed = True
        self._burst()
        self._mark = time.perf_counter()
        Metronome._running = self
        signal.setitimer(signal.ITIMER_REAL, self._period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        Metronome._running = None
        self._close_piece()


class Stopwatch:
    """A ``Metronome`` stand-in that only reads the clock: no bursts, no scaling.

    The traced repetitions use it, so that their spans hold no bursts.
    """

    def __init__(self, kind: str | None = None):
        self.scaled_s = 0.0
        self.wall_s = 0.0
        self.bursts: list[float] = []

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = self.scaled_s = time.perf_counter() - self._start
