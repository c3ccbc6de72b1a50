"""Host-speed calibration for the end-to-end times.

Shared hosts change speed under the benchmark by up to 2x within
seconds, and identical work then reads very differently from one run to
the next. So every timed stretch is bracketed by short runs of a fixed
pure-Python kernel, and the time is rescaled to a reference host: one on
which a kernel chunk takes :data:`REFERENCE_S` seconds.

A stretch the benchmark cannot split into steps (one figures-fast label
runs for up to ~10 s) is sampled from inside instead: a
:class:`Sampler` runs a chunk from a ``SIGALRM`` handler every
:data:`SAMPLE_PERIOD_S` of wall time and keeps the time those chunks
took out of the stretch.

The kernel belongs to the benchmark, not to the program, so a change to
the program never moves it. It exercises what the simulator leans on:
dict updates, a small heap, and allocating slotted objects.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: Kernel iterations per chunk (a few milliseconds).
CHUNK = 1_500
#: Chunk time on the reference host, in seconds; rescaled times read as
#: if measured there.
REFERENCE_S = 0.0025
#: Wall seconds between a Sampler's chunks.
SAMPLE_PERIOD_S = 0.2


class _Item:
    __slots__ = ("key", "index")

    def __init__(self, key: int, index: int) -> None:
        self.key = key
        self.index = index


def _kernel(n: int) -> int:
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        item = _Item(key, i)
        acc += item.index - item.key
    return acc


def chunk_seconds() -> float:
    """Wall time of one kernel chunk."""
    started = time.perf_counter()
    _kernel(CHUNK)
    return time.perf_counter() - started


def scale(chunks: int = 3) -> float:
    """Factor that rescales a wall time measured now to the reference
    host (below 1 when this host is slower than the reference)."""
    return REFERENCE_S / statistics.median(chunk_seconds()
                                           for _ in range(chunks))


class Sampler:
    """Host-speed samples taken while a stretch of work runs.

    Use as a context manager around the stretch (or call :meth:`start`
    and :meth:`stop`); afterwards
    :attr:`factor` is the mean host-speed factor over the samples
    (including one on either side) and :attr:`spent` the wall time the
    in-stretch chunks took, to subtract from the stretch's wall time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append(scale(1))
        self.spent += time.perf_counter() - started

    def start(self) -> "Sampler":
        self.samples.append(scale())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(scale())

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def factor(self) -> float:
        return statistics.fmean(self.samples)
