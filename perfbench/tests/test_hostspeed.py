"""The host-speed probe must do the same work on every call, or rescaling
by it would move the benchmark's times."""

import signal
import time

from perfbench import hostspeed


def test_the_probe_model_is_deterministic():
    first = hostspeed.mesh_model(cycles=50)
    assert first == hostspeed.mesh_model(cycles=50)
    assert first["delivered"] > 0 and first["hops"] > first["delivered"]



def test_sampling_probes_during_a_block_and_restores_the_timer():
    speed = hostspeed.HostSpeed()
    handler = signal.getsignal(signal.SIGALRM)
    end = time.perf_counter() + 3 * hostspeed.SAMPLE_EVERY_S
    with speed.sampling():
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 2
    assert 0 < speed.interrupted_s < 3 * hostspeed.SAMPLE_EVERY_S
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
