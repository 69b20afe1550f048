"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper_hbh --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  With ``--trace 0`` the workload's operations repeat for
``--seconds`` and the end-to-end metrics are printed; with ``--trace 1``
one untraced and one traced operation give the per-layer metrics and the
tracing overhead.  Every operation's outputs are gated; a failed gate or
an exception counts in ``failed``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files go to
``.perfbench/`` in the checkout; span traces are kept there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper_hbh", "fault_free_load", "verify_standard", "campaign")
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
IMPORT_PROBES = 5


def per_layer_spec() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    from perfbench.workloads import ALL_LAYERS, CHECKPOINT_LAYERS, RESULT_COUNTERS, STEP

    spec = []
    for layer in ALL_LAYERS:
        spec.append((f"{layer}.calls", "count", "lower"))
        spec.append((f"{layer}.self_s", "s", "lower"))
    spec.append((f"{STEP}.p50_us", "us", "lower"))
    spec.append((f"{STEP}.p99_us", "us", "lower"))
    for layer in CHECKPOINT_LAYERS:
        spec.append((f"{layer}.bytes", "B", "lower"))
    spec.append(("campaign.worker_wait_s", "s", "lower"))
    spec.extend((name, "count", better) for name, (_, better) in RESULT_COUNTERS.items())
    spec.append(("noc.kernel_built", "count", "higher"))
    spec.append(("service.cache.hit_ratio", "ratio", "higher"))
    spec.append(("trace.overhead", "ratio", "lower"))
    spec.append(("error_rate", "ratio", "lower"))
    return spec


class Tally:
    """Operations attempted and failed, with the gates' messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.info: Dict[str, Any] = {}

    def add(self, outcome: Any) -> None:
        if outcome is None:
            return
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        self.info.update(outcome.info)

    def crash(self, ops: int) -> None:
        traceback.print_exc(file=sys.stderr)
        self.attempted += ops
        self.failed += ops
        self.problems.append(f"exception: {sys.exc_info()[1]!r}")


def import_seconds() -> float:
    """Median time for a fresh interpreter to import the program's API:
    set-up every command pays before its first call."""
    probe = "import time; t = time.perf_counter(); import repro.api; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", probe], cwd=ROOT, env=env, check=True,
            capture_output=True, text=True, timeout=120,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """This process's peak resident set plus the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_op(wl: Any, tally: Tally, speed: Optional[Any] = None
             ) -> Optional[Tuple[float, float, Any]]:
    """One operation: ``(setup seconds, wall seconds, outcome)``, or None
    when it raised (counted as failed).  With ``speed`` (a
    ``hostspeed.HostSpeed``) the host is probed during the execution and
    the probes' time is left out of the wall seconds.  The outcome's
    ``rates`` gain the workload's work per wall second."""
    # Every operation starts from the same heap: garbage left by the last
    # one is not collected on this one's clock.
    gc.collect()
    try:
        t0 = time.perf_counter()
        prepared = wl.prepare()
        t1 = time.perf_counter()
        interrupted = speed.interrupted_s if speed else 0.0
        with speed.sampling() if speed else contextlib.nullcontext():
            output = wl.execute(prepared)
        t2 = time.perf_counter()
        outcome = wl.check(prepared, output)
    except Exception:  # noqa: BLE001 — any failure of the program counts
        tally.crash(wl.ops_per_execute)
        return None
    tally.add(outcome)
    wall = t2 - t1 - ((speed.interrupted_s - interrupted) if speed else 0.0)
    outcome.rates[f"{wl.work_unit}_per_s"] = outcome.work / wall
    return t1 - t0, wall, outcome


def measure(wl: Any, seconds: float, tally: Tally) -> Dict[str, float]:
    """Repeat operations for ``seconds`` and report medians of their times
    stated at the reference host speed (see ``hostspeed``).  An operation
    that would end past the deadline, judged by the median length of those
    before it, is not started, so a run with long operations keeps to its
    time; the first one always runs."""
    from perfbench.hostspeed import REFERENCE_PROBE_S, HostSpeed

    speed = HostSpeed()
    speed.probe()
    setups: List[float] = []
    walls: List[float] = []
    raw_walls: List[float] = []
    rates: Dict[str, List[float]] = {}
    lengths: List[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        before = len(speed.samples) - 1
        op = timed_op(wl, tally, speed if wl.in_process else None)
        speed.probe()
        lengths.append(time.perf_counter() - t0)
        if op is not None:
            setup, wall, outcome = op
            scale = REFERENCE_PROBE_S / statistics.median(speed.samples[before:])
            setups.append(setup * scale)
            walls.append(wall * scale)
            raw_walls.append(wall)
            for name, value in outcome.rates.items():
                rates.setdefault(name, []).append(value)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            break
    tally.info["operations"] = len(walls)
    if not walls:
        return {}
    # Reported, not bounded: for a fixed input each is a transform of the
    # wall time.  Rates and raw_wall_s are as measured, not rescaled.
    for name, values in rates.items():
        tally.info[name] = statistics.median(values)
    tally.info["raw_wall_s"] = statistics.median(raw_walls)
    tally.info["probe_s"] = statistics.median(speed.samples)
    imports = import_seconds() * REFERENCE_PROBE_S / statistics.median(speed.samples)
    return {
        "setup_s": imports + statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb(),
    }


def percentile_us(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e6


def trace(wl: Any, tally: Tally, out_path: Path) -> Dict[str, float]:
    from perfbench.spans import SpanRecorder, patched
    from perfbench.workloads import (
        ALL_LAYERS, CHECKPOINT_LAYERS, RESULT_COUNTERS, STEP, WORKER_WAIT,
        layer_target,
    )

    untraced = timed_op(wl, tally)
    recorder = SpanRecorder(distributions=[STEP])
    traced: Optional[Any] = None
    traced_wall = 0.0
    try:
        targets = [layer_target(name) for name in wl.traced_layers]
        with patched(recorder, targets):
            prepared = wl.prepare()
            t0 = time.perf_counter()
            output = wl.execute(prepared)
            traced_wall = time.perf_counter() - t0
        # Gated after the wrappers are gone, so the drain is not traced.
        traced = wl.check(prepared, output)
        tally.add(traced)
        if hasattr(wl, "checkpoint_drill"):
            targets = [layer_target(name) for name in CHECKPOINT_LAYERS]
            with patched(recorder, targets):
                drill, size = wl.checkpoint_drill(
                    traced.info["cycles"] // 2, traced.info["digest"]
                )
            tally.add(drill)
            for name in CHECKPOINT_LAYERS:
                recorder.count(f"{name}.bytes", size)
    except Exception:  # noqa: BLE001
        tally.crash(wl.ops_per_execute)
    recorder.write(out_path)

    metrics: Dict[str, float] = {}
    for name in ALL_LAYERS:
        metrics[f"{name}.calls"] = recorder.calls(name)
        metrics[f"{name}.self_s"] = recorder.self_s(name)
    steps = recorder.durations[STEP]
    metrics[f"{STEP}.p50_us"] = percentile_us(steps, 0.50)
    metrics[f"{STEP}.p99_us"] = percentile_us(steps, 0.99)
    for name in CHECKPOINT_LAYERS:
        metrics[f"{name}.bytes"] = recorder.counts.get(f"{name}.bytes", 0)
    metrics["campaign.worker_wait_s"] = recorder.self_s(WORKER_WAIT)
    counters = traced.counters if traced else {}
    for name in RESULT_COUNTERS:
        metrics[name] = counters.get(name, 0)
    metrics["noc.kernel_built"] = int(bool(tally.info.get("kernel_built")))
    lookups = recorder.calls("service.cache.ResultCache.get")
    hits = traced.info.get("cache_hits", 0) if traced else 0
    metrics["service.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["trace.overhead"] = (
        traced_wall / untraced[1] if traced and untraced else 0.0
    )
    metrics["error_rate"] = tally.failed / tally.attempted if tally.attempted else 1.0
    tally.info["spans_dropped"] = recorder.dropped
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)  # workloads.DEFAULT_SEED
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    from perfbench import workloads

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    # The campaign runner's own temporary files must stay in the checkout.
    tempfile.tempdir = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    tally = Tally()
    try:
        wl = workloads.make(args.workload, args.seed, scratch, workloads.load_pins())
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tally.info["spans_file"] = str(spans.relative_to(ROOT))
            values = trace(wl, tally, spans)
            spec = per_layer_spec()
        else:
            values = measure(wl, args.seconds, tally)
            spec = list(END_TO_END)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{tally.attempted} attempted, {tally.failed} failed"
    )
    for problem in tally.problems[:20]:
        print(f"  gate: {problem}")
    print("report: " + json.dumps(tally.info, sort_keys=True))
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in spec
        if name in values
    }
    correct = tally.failed == 0 and tally.attempted > 0 and len(metrics) == len(spec)
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
