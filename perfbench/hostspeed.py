"""A fixed host-speed probe, sampled around and during every benchmark
operation.

The shared virtual machines this benchmark runs on change speed by up to
2x over tens of seconds to minutes, as other tenants load the host; the
program's wall times follow.  The probe is a tiny 8x8 mesh model written
here, in the benchmark's own files, so it never changes with the program:
every cycle each router takes in one packet and forwards one packet per
port along XY routes, through ``__slots__`` objects, deques and dict
lookups, the same interpreter work the simulator does.  ``run.py`` scales
each operation's time by ``REFERENCE_PROBE_S`` over the median of the
probes taken just before it, every ``SAMPLE_EVERY_S`` during it and just
after it, which states every time at one reference host speed.
"""

from __future__ import annotations

import signal
import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Tuple

#: Probe seconds that define the reference host speed: about the median
#: on the 2-vCPU Xeon virtual machine the bounds were set on.
REFERENCE_PROBE_S = 0.038
#: Interval of the probes taken during an operation.  Each costs about
#: 5% of it; the time they take is not counted as the operation's.
SAMPLE_EVERY_S = 0.5
MESH = 8
CYCLES = 200
LOCAL = 4  # the injection port; 0 carries X hops, 1 carries Y hops


class _Packet:
    __slots__ = ("dst", "hops", "payload")

    def __init__(self, dst: Tuple[int, int], payload: List[int]):
        self.dst = dst
        self.hops = 0
        self.payload = payload


class _Port:
    __slots__ = ("buf", "sent")

    def __init__(self) -> None:
        self.buf: Deque[_Packet] = deque()
        self.sent = 0


def mesh_model(cycles: int = CYCLES, size: int = MESH) -> Dict[str, int]:
    """Run the probe's model; returns its delivery counters."""
    routers = {(x, y): [_Port() for _ in range(5)] for x in range(size) for y in range(size)}
    stats = {"delivered": 0, "hops": 0}
    state = 12345
    for cycle in range(cycles):
        for (x, y), ports in routers.items():
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            ports[LOCAL].buf.append(
                _Packet((state % size, (state >> 8) % size), [cycle, x, y])
            )
            for port in ports:
                if not port.buf:
                    continue
                packet = port.buf.popleft()
                dx, dy = packet.dst
                if dx == x and dy == y:
                    stats["delivered"] += 1
                    stats["hops"] += packet.hops
                    continue
                nx = x + (dx > x) - (dx < x)
                ny = y if nx != x else y + (dy > y) - (dy < y)
                packet.hops += 1
                routers[(nx, ny)][0 if nx != x else 1].buf.append(packet)
                port.sent += 1
    return stats


def probe_seconds() -> float:
    """Wall seconds of one run of the probe's model."""
    t0 = time.perf_counter()
    mesh_model()
    return time.perf_counter() - t0


class HostSpeed:
    """Probe samples in the order taken, and the seconds spent taking the
    ones that interrupted an operation."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.interrupted_s = 0.0

    def probe(self) -> None:
        self.samples.append(probe_seconds())

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Probe every ``SAMPLE_EVERY_S`` of wall time until the block ends.
        The interval timer is not inherited by forked workers."""

        def on_alarm(signum: int, frame: object) -> None:
            t0 = time.perf_counter()
            self.probe()
            self.interrupted_s += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
