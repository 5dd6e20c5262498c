"""Host-speed calibration: a fixed reference loop sampled during every pass.

On a shared two-core Xeon VM, host speed changes by up to 1.6x within a
minute, per core, through other tenants' load (not CPU steal: process CPU
time drifts with wall time). Raw seconds from two runs minutes
apart are therefore not comparable. While a pass or set-up runs, a timer
signal every ``PERIOD_S`` seconds times one reference loop on the same CPU;
the harness reports the pass time scaled by ``REFERENCE_S / mean loop time``,
that is, seconds on a host that runs the loop in ``REFERENCE_S``. Time spent
in the samples is subtracted from the pass, and raw seconds are kept in the
record beside the scaled ones.

The loop is random reads over a shuffled list of half a million ints.
Sampled on the same core inside each pass, it cut the spread (interquartile
range over median) of ``wall_s`` across ten seeded runs from 22-50% raw to
4-10% scaled; sampled only before and after each pass, or on the other
core, it did not help. It runs in a child process so
its memory stays out of the benchmark's peak RSS; the harness pins itself and
the child to one CPU, and blocks while the child runs the loop. The child
lives for one workload run and is always waited for.

    python3 perfbench/calibration.py    # serve: one loop per input line
"""

from __future__ import annotations

import random
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Iterator

# Median seconds of one loop on the reference host (2-core Xeon VM, Python
# 3.11); scaled times read as seconds on that host at its typical speed.
REFERENCE_S = 0.0055
VALUES = 500_000
READS = 15_000
PERIOD_S = 0.25


def _serve() -> None:
    rng = random.Random(0)
    values = list(range(VALUES))
    rng.shuffle(values)
    order = [rng.randrange(VALUES) for _ in range(READS)]

    def loop() -> int:
        total = 0
        for index in order:
            total += values[index]
        return total

    for _ in sys.stdin:
        start = time.perf_counter()
        loop()
        print(repr(time.perf_counter() - start), flush=True)


class Sampling:
    """Reference-loop samples taken during one timed block."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.seconds = 0.0
        self.in_samples_s = 0.0

    @property
    def scale(self) -> float:
        """Factor from raw seconds to seconds at the reference speed."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)


class Calibrator:
    """Owns the reference-loop child process; use as a context manager."""

    def __init__(self) -> None:
        self._child: subprocess.Popen[str] | None = None

    def __enter__(self) -> "Calibrator":
        self._child = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc: object) -> None:
        child, self._child = self._child, None
        if child is None:
            return
        try:
            child.stdin.close()
            child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        finally:
            child.stdout.close()

    def reference_s(self) -> float:
        """Seconds of one reference loop, run now on the child."""
        assert self._child is not None, "calibrator not started"
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        reply = self._child.stdout.readline()
        if not reply:
            raise RuntimeError("calibration process exited")
        return float(reply)

    @contextmanager
    def sampling(self) -> Iterator[Sampling]:
        """Time the block, sampling the loop at its ends and every PERIOD_S.

        ``seconds`` is the block's wall time minus the time spent sampling.
        """
        sampled = Sampling()
        state = {"timing": False, "busy": False}

        def tick(signum: int, frame: object) -> None:
            if state["busy"]:
                return
            state["busy"] = True
            began = time.perf_counter()
            sampled.samples.append(self.reference_s())
            if state["timing"]:
                sampled.in_samples_s += time.perf_counter() - began
            state["busy"] = False

        tick(0, None)
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        state["timing"] = True
        start = time.perf_counter()
        try:
            yield sampled
        finally:
            elapsed = time.perf_counter() - start
            state["timing"] = False
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            sampled.seconds = elapsed - sampled.in_samples_s
        tick(0, None)

if __name__ == "__main__":
    _serve()
