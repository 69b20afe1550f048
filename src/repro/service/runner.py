"""The durable campaign supervisor — the one campaign engine.

Builds the fleet-scale execution loop on top of the primitives next door:
attempts run in-process when nothing needs a watchdog, otherwise in
watchdogged worker processes (one per attempt, SIGKILL on wall-clock
overrun); retry scheduling through :class:`~repro.service.policy.RetryPolicy`
backoff, the :mod:`~repro.service.journal` for durability across a
supervisor SIGKILL, the :mod:`~repro.service.cache` for content-addressed
result reuse, and a whole-campaign deadline with graceful degradation.

Supervision is event-driven: the loop blocks in
:func:`multiprocessing.connection.wait` on the worker process sentinels
(with a timeout bounded by the nearest watchdog/backoff/deadline edge)
instead of polling on a fixed ``sleep`` — idle supervision of a long
campaign costs no CPU.

All wall-clock reads here are supervisor infrastructure, never simulation
state, hence the ``# det: ok`` markers (docs/VERIFICATION.md, DET003).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.cache import ResultCache, cache_key, canonical_envelope
from repro.service.journal import (
    CampaignJournal,
    JournalError,
    JournalState,
    read_journal,
)
from repro.service.policy import RetryPolicy

__all__ = ["CampaignOutcome", "resume_campaign", "run_service_campaign"]


def _ok_row(name: str, config_dict: Dict[str, Any], result: Any) -> Dict[str, Any]:
    return {
        "name": name,
        "config": config_dict,
        "avg_latency": result.avg_latency,
        "avg_hops": result.avg_hops,
        "energy_per_packet_nj": result.energy_per_packet_nj,
        "throughput": result.throughput_flits_per_node_cycle,
        "packets_delivered": result.packets_delivered,
        "packets_lost": result.packets_lost,
        "counters": dict(result.counters),
        "error": None,
    }


def _failed_row(name: str, config_dict: Dict[str, Any], error: str) -> Dict[str, Any]:
    return {
        "name": name,
        "config": config_dict,
        "avg_latency": 0.0,
        "avg_hops": 0.0,
        "energy_per_packet_nj": 0.0,
        "throughput": 0.0,
        "packets_delivered": 0,
        "packets_lost": 0,
        "counters": {},
        "error": error,
        "resumed_from_cycle": None,
    }


def _attempt(
    name: str,
    config_dict: Dict[str, Any],
    ckpt_path: Optional[str],
    ckpt_interval: int,
) -> Dict[str, Any]:
    """Run one attempt of a variant and return its row; never raises.

    Any exception — a config the constructors reject, an invariant
    violation, a bug tickled by one parameter corner — becomes a failed
    row, so one bad variant cannot take the campaign down.

    Resumes from ``ckpt_path`` when a previous attempt left one behind; a
    checkpoint that turns out corrupt or truncated is *discarded* — the
    attempt restarts from cycle 0 and reports the discard on
    ``row["checkpoint_discarded"]`` — instead of failing the variant on an
    artifact of its own crash.
    """
    from repro.noc.simulator import Simulator
    from repro.serialization import config_from_dict

    resumed: Optional[int] = None
    discarded: Optional[str] = None
    sim = None
    try:
        if ckpt_path is not None and os.path.exists(ckpt_path):
            from repro.checkpoint import CheckpointError, load_checkpoint

            try:
                sim = load_checkpoint(ckpt_path)
                resumed = sim.resumed_from_cycle
            except CheckpointError as exc:
                discarded = str(exc)
                try:
                    os.unlink(ckpt_path)
                except OSError:
                    pass
        if sim is None:
            config = config_from_dict(config_dict)
            if ckpt_path is not None:
                config = config.replace(
                    checkpoint_interval=ckpt_interval,
                    checkpoint_path=ckpt_path,
                )
            sim = Simulator(config)
        row = _ok_row(name, config_dict, sim.run())
    except Exception as exc:  # noqa: BLE001 — the row carries the error
        row = _failed_row(name, config_dict, f"{type(exc).__name__}: {exc}")
    row["resumed_from_cycle"] = resumed
    if discarded is not None:
        row["checkpoint_discarded"] = discarded
    return row


def _worker(
    name: str,
    config_dict: Dict[str, Any],
    ckpt_path: Optional[str],
    ckpt_interval: int,
    result_path: str,
) -> None:
    """Child-process entry point: one :func:`_attempt` under a watchdog.

    Communicates through an atomically-written JSON result file rather
    than a pipe/queue, so a SIGKILL from the watchdog (or the OOM killer)
    can never leave the supervisor holding a half-readable message: either
    the file exists and is complete, or the attempt is treated as crashed.
    """
    row = _attempt(name, config_dict, ckpt_path, ckpt_interval)
    tmp = f"{result_path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(row, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, result_path)


class _Job:
    """Supervisor-side bookkeeping for one campaign variant."""

    __slots__ = (
        "index",
        "name",
        "config_dict",
        "key",
        "attempts",
        "attempt_errors",
        "checkpoint_discarded",
        "ckpt_path",
        "result_path",
        "row",
    )

    def __init__(self, index: int, name: str, config_dict: Dict[str, Any]):
        self.index = index
        self.name = name
        self.config_dict = config_dict
        self.key = cache_key(config_dict)
        self.attempts = 0
        self.attempt_errors: List[str] = []
        self.checkpoint_discarded: Optional[str] = None
        self.ckpt_path: Optional[str] = None
        self.result_path: Optional[str] = None
        self.row: Optional[Dict[str, Any]] = None


@dataclass
class CampaignOutcome:
    """Raw rows (dict form, variant order) plus the service counters."""

    rows: List[Dict[str, Any]]
    stats: Dict[str, Any] = field(default_factory=dict)


#: Header keys :func:`run_service_campaign` records and
#: :func:`resume_campaign` reads back (plus ``backoff``).
_SETTINGS = (
    "processes", "retries", "timeout", "deadline", "deadline_grace",
    "checkpoint_dir", "checkpoint_interval", "cache_dir", "cache_verify",
)


def run_service_campaign(
    items: Sequence[Tuple[str, Dict[str, Any]]],
    *,
    processes: int = 1,
    retries: int = 0,
    timeout: Optional[float] = None,
    deadline: Optional[float] = None,
    deadline_grace: float = 2.0,
    checkpoint_dir: Optional[str] = None,
    checkpoint_interval: int = 500,
    backoff: Optional[RetryPolicy] = None,
    journal_path: Optional[str] = None,
    cache_dir: Optional[str] = None,
    cache_verify: bool = False,
    resume_state: Optional[JournalState] = None,
) -> CampaignOutcome:
    """Run ``(name, config_dict)`` variants under full supervision.

    This is the one engine behind :func:`repro.campaign.run_campaign`
    (which adds linting and typed rows), :func:`resume_campaign` and
    ``repro campaign``.  Configs travel as serialized dicts for
    picklability.  Attempts run in-process when nothing needs a watchdog
    (``processes == 1`` with no ``timeout`` or ``deadline``) and in
    forked worker processes otherwise.  A new journal's header records
    the effective settings, so a resume continues under them.  See
    docs/CAMPAIGNS.md for the state machine and failure semantics.
    """
    import multiprocessing
    from multiprocessing.connection import wait as sentinel_wait

    if processes < 1:
        raise ValueError("processes must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive (seconds)")
    if deadline is not None and deadline <= 0:
        raise ValueError("deadline must be positive (seconds)")
    if checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1 cycle")
    policy = backoff if backoff is not None else RetryPolicy()
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
    in_process = processes == 1 and timeout is None and deadline is None

    stats: Dict[str, Any] = {
        "variants": len(items),
        "completed": 0,
        "failed": 0,
        "attempts": 0,
        "retries": 0,
        "timeouts": 0,
        "cache_hits": 0,
        "cache_stores": 0,
        "cache_verified": 0,
        "cache_mismatches": 0,
        "checkpoints_discarded": 0,
        "deadline_expired": False,
        "deadline_failed": 0,
        "max_queue_depth": 0,
        "backoff_total_s": 0.0,
    }

    journal: Optional[CampaignJournal] = None
    if journal_path is not None:
        if resume_state is not None:
            journal = CampaignJournal.append_to(journal_path)
        else:
            # The header carries the expected variant count so a resume
            # can detect a journal whose enqueue phase was cut short (a
            # supervisor crash mid-enqueue commits only a prefix of the
            # queued records).
            journal = CampaignJournal.create(
                journal_path,
                {
                    "variants": len(items),
                    "processes": processes,
                    "retries": retries,
                    "timeout": timeout,
                    "deadline": deadline,
                    "deadline_grace": deadline_grace,
                    "checkpoint_dir": checkpoint_dir and os.path.abspath(checkpoint_dir),
                    "checkpoint_interval": checkpoint_interval,
                    "cache_dir": cache_dir and os.path.abspath(cache_dir),
                    "cache_verify": cache_verify,
                    "backoff": policy.to_dict(),
                },
            )

    def record(type_: str, **fields: Any) -> None:
        if journal is not None:
            journal.append(type_, **fields)

    start = time.monotonic()  # det: ok — supervisor wall clock
    deadline_at = start + deadline if deadline is not None else None

    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as workdir:
        jobs: List[_Job] = []
        for i, (name, config_dict) in enumerate(items):
            job = _Job(i, name, config_dict)
            if checkpoint_dir is not None:
                job.ckpt_path = os.path.join(
                    checkpoint_dir, f"variant_{i:04d}.ckpt"
                )
            job.result_path = os.path.join(workdir, f"result_{i:04d}.json")
            jobs.append(job)

        if resume_state is not None:
            for job in jobs:
                job.attempts = resume_state.attempts.get(job.index, 0)
                stats["attempts"] += job.attempts
                # Carry the pre-crash attempt history so the final row's
                # metadata covers the whole lifecycle, not just the
                # resumed supervisor's share of it.
                job.attempt_errors = list(
                    resume_state.attempt_errors.get(job.index, [])
                )
                job.checkpoint_discarded = resume_state.discards.get(
                    job.index
                )
                if job.index in resume_state.rows:
                    job.row = resume_state.rows[job.index]
                    # Pre-crash results count toward the service totals,
                    # so the summary record and --json stats cover the
                    # whole campaign, not just the resumed share.
                    if job.row.get("error") is None:
                        stats["completed"] += 1
                    else:
                        stats["failed"] += 1
            record(
                "resumed",
                finished=len(resume_state.rows),
                pending=len(jobs) - len(resume_state.rows),
            )
        else:
            for job in jobs:
                record(
                    "queued",
                    variant=job.index,
                    name=job.name,
                    config=job.config_dict,
                    config_sha256=job.key,
                )

        # (ready_time, index) — ready_time moves forward on backoff.
        ready: List[Tuple[float, int]] = []
        for job in jobs:
            if job.row is None:
                heappush(ready, (0.0, job.index))
        by_index = {job.index: job for job in jobs}
        running: List[Tuple[_Job, Any, Optional[float]]] = []

        def finish(job: _Job, row: Dict[str, Any], terminal: str) -> None:
            """Commit a variant's final row and journal the transition."""
            row.setdefault("attempts", job.attempts)
            if job.attempt_errors:
                row["attempt_errors"] = list(job.attempt_errors)
            if (
                job.checkpoint_discarded is not None
                and "checkpoint_discarded" not in row
            ):
                row["checkpoint_discarded"] = job.checkpoint_discarded
            job.row = row
            if row["error"] is None:
                stats["completed"] += 1
            else:
                stats["failed"] += 1
            if row["error"] == "timeout" and job.ckpt_path is not None:
                # Report how far the checkpoints got so the campaign table
                # shows the variant's last durable cycle.
                try:
                    from repro.checkpoint import read_checkpoint_header

                    row["last_checkpoint_cycle"] = read_checkpoint_header(
                        job.ckpt_path
                    )["cycle"]
                except Exception:  # noqa: BLE001 — best-effort provenance
                    pass
            record(terminal, variant=job.index, row=row)
            if job.ckpt_path is not None and row["error"] is None:
                # The run completed; its checkpoint is stale state now.
                try:
                    os.unlink(job.ckpt_path)
                except OSError:
                    pass

        def note_discard(job: _Job, row: Dict[str, Any]) -> None:
            discarded = row.get("checkpoint_discarded")
            if discarded is not None:
                job.checkpoint_discarded = discarded
                stats["checkpoints_discarded"] += 1
                record(
                    "checkpoint_discarded",
                    variant=job.index,
                    attempt=job.attempts,
                    error=discarded,
                )

        def attempt_failed(job: _Job, row: Dict[str, Any]) -> None:
            """One attempt failed: back off and requeue, or finalize."""
            error = row["error"]
            job.attempt_errors.append(error)
            note_discard(job, row)
            if error == "timeout":
                stats["timeouts"] += 1
            if job.attempts <= retries:
                pause = policy.delay(job.index, job.attempts)
                stats["retries"] += 1
                stats["backoff_total_s"] += pause
                record(
                    "attempt",
                    variant=job.index,
                    attempt=job.attempts,
                    error=error,
                    retry_in=round(pause, 6),
                )
                heappush(
                    ready,
                    (time.monotonic() + pause, job.index),  # det: ok
                )
            else:
                finish(
                    job, row, "timeout" if error == "timeout" else "failed"
                )

        def complete_attempt(job: _Job, row: Dict[str, Any]) -> None:
            """An attempt produced a row — success or failure."""
            if row["error"] is not None:
                attempt_failed(job, row)
                return
            note_discard(job, row)
            if cache is not None:
                fresh = canonical_envelope(job.config_dict, row)
                stored = cache.get_bytes(job.key)
                if cache_verify and stored is not None:
                    if stored == fresh:
                        row["cache_verified"] = True
                        stats["cache_verified"] += 1
                    else:
                        row["cache_verified"] = False
                        stats["cache_mismatches"] += 1
                        record(
                            "cache_mismatch",
                            variant=job.index,
                            key=job.key,
                        )
                        cache.put(job.key, fresh)
                elif stored != fresh:
                    cache.put(job.key, fresh)
                    stats["cache_stores"] += 1
            finish(job, row, "done")

        def reap(job: _Job, proc: Any) -> None:
            """Collect a finished (or killed) worker's outcome."""
            proc.join()
            if os.path.exists(job.result_path):
                with open(job.result_path) as fh:
                    complete_attempt(job, json.load(fh))
            else:
                error = f"worker died without a result (exit code {proc.exitcode})"
                attempt_failed(
                    job, _failed_row(job.name, job.config_dict, error)
                )

        deadline_expired = False
        while ready or running:
            now = time.monotonic()  # det: ok — supervisor wall clock
            if deadline_at is not None and now >= deadline_at:
                deadline_expired = True
                break
            # Launch every ready job a process slot can take.
            while ready and len(running) < processes and ready[0][0] <= now:
                _, index = heappop(ready)
                job = by_index[index]
                if (
                    cache is not None
                    and not cache_verify
                    and job.attempts == 0
                ):
                    cached = cache.get(job.key)
                    if cached is not None:
                        stats["cache_hits"] += 1
                        record("cache_hit", variant=job.index, key=job.key)
                        row = dict(
                            cached,
                            name=job.name,
                            config=job.config_dict,
                            cache_hit=True,
                            attempts=0,
                        )
                        finish(job, row, "done")
                        continue
                job.attempts += 1
                stats["attempts"] += 1
                depth = len(ready) + len(running) + 1  # + this attempt
                if depth > stats["max_queue_depth"]:
                    stats["max_queue_depth"] = depth
                record("leased", variant=job.index, attempt=job.attempts)
                if in_process:
                    complete_attempt(
                        job,
                        _attempt(
                            job.name,
                            job.config_dict,
                            job.ckpt_path,
                            checkpoint_interval,
                        ),
                    )
                    continue
                if os.path.exists(job.result_path):
                    os.unlink(job.result_path)
                proc = multiprocessing.Process(
                    target=_worker,
                    args=(
                        job.name,
                        job.config_dict,
                        job.ckpt_path,
                        checkpoint_interval,
                        job.result_path,
                    ),
                    daemon=True,
                )
                proc.start()
                kill_at = (
                    time.monotonic() + timeout  # det: ok — watchdog
                    if timeout is not None
                    else None
                )
                running.append((job, proc, kill_at))
            # Sleep until the nearest edge: a worker exiting (its sentinel
            # wakes us immediately), a watchdog expiry, a backoff-delayed
            # job coming ready, or the campaign deadline.
            now = time.monotonic()  # det: ok — supervisor wall clock
            edges = [0.5]
            if deadline_at is not None:
                edges.append(deadline_at - now)
            for _, _, kill_at in running:
                if kill_at is not None:
                    edges.append(kill_at - now)
            if ready and len(running) < processes:
                edges.append(ready[0][0] - now)
            pause = max(0.0, min(edges))
            if running:
                sentinel_wait(
                    [proc.sentinel for _, proc, _ in running], timeout=pause
                )
            elif ready and pause > 0.0:
                # Nothing running and every queued job is backing off:
                # sleep until the earliest comes ready.
                time.sleep(pause)
            # Reap exits and enforce per-attempt watchdogs.
            now = time.monotonic()  # det: ok — supervisor wall clock
            still_running = []
            for job, proc, kill_at in running:
                if proc.is_alive():
                    if kill_at is not None and now >= kill_at:
                        proc.kill()
                        proc.join()
                        attempt_failed(
                            job,
                            _failed_row(job.name, job.config_dict, "timeout"),
                        )
                    else:
                        still_running.append((job, proc, kill_at))
                    continue
                reap(job, proc)
            running = still_running

        if deadline_expired:
            stats["deadline_expired"] = True
            record(
                "deadline",
                in_flight=[job.index for job, _, _ in running],
                queued=[index for _, index in ready],
            )
            # Graceful degradation: in-flight workers get a grace period
            # to finish on their own, then SIGKILL; everything unfinished
            # comes back as a partial row with error="campaign_deadline".
            grace_end = time.monotonic() + max(deadline_grace, 0.0)  # det: ok
            while running:
                remaining = grace_end - time.monotonic()  # det: ok
                if remaining <= 0:
                    break
                sentinel_wait(
                    [proc.sentinel for _, proc, _ in running],
                    timeout=remaining,
                )
                still_running = []
                for job, proc, kill_at in running:
                    if proc.is_alive():
                        still_running.append((job, proc, kill_at))
                    else:
                        reap(job, proc)
                running = still_running
            for job, proc, _ in running:
                proc.kill()
                proc.join()
                if os.path.exists(job.result_path):
                    # The worker finished during the kill window; its
                    # result is complete — keep it.
                    with open(job.result_path) as fh:
                        complete_attempt(job, json.load(fh))
                    continue
                stats["deadline_failed"] += 1
                finish(
                    job,
                    _failed_row(job.name, job.config_dict, "campaign_deadline"),
                    "failed",
                )
            while ready:
                _, index = heappop(ready)
                job = by_index[index]
                if job.row is not None:
                    continue
                stats["deadline_failed"] += 1
                finish(
                    job,
                    _failed_row(job.name, job.config_dict, "campaign_deadline"),
                    "failed",
                )

        stats["backoff_total_s"] = round(stats["backoff_total_s"], 6)
        stats["wall_s"] = round(time.monotonic() - start, 6)  # det: ok
        record("summary", stats=stats)
        if journal is not None:
            journal.close()
        return CampaignOutcome(rows=[job.row for job in jobs], stats=stats)


def resume_campaign(
    journal_path: str,
    *,
    processes: Optional[int] = None,
    retries: Optional[int] = None,
    timeout: Optional[float] = None,
    deadline: Optional[float] = None,
    deadline_grace: Optional[float] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_interval: Optional[int] = None,
    backoff: Optional[RetryPolicy] = None,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    cache_verify: Optional[bool] = None,
) -> Tuple[List[Any], Dict[str, Any]]:
    """Resume a journaled campaign after a supervisor crash.

    Replays the journal, re-enqueues only variants without a terminal
    record (completed variants keep their recorded rows and are never
    re-run), and continues under the same settings the journal's header
    recorded — any keyword given here overrides the recorded value, a
    setting the header lacks takes :func:`run_service_campaign`'s
    default, and ``no_cache=True`` disables the result cache even when the
    header recorded a ``cache_dir``.  Returns ``(rows, stats)`` with rows
    as typed :class:`~repro.campaign.CampaignRow` in the original queue
    order.

    Raises :class:`JournalError` when the journal holds fewer ``queued``
    records than the header's expected variant count: the supervisor
    crashed mid-enqueue, the missing variants' configs were never
    journaled, and resuming would silently drop them — restart such a
    campaign from its spec instead.
    """
    from repro.campaign import rows_from_raw

    state = read_journal(journal_path)
    meta = state.meta
    expected = meta.get("variants")
    if expected is not None and len(state.variants) < expected:
        raise JournalError(
            f"{journal_path}: journal holds {len(state.variants)} of "
            f"{expected} queued variants — the supervisor crashed before "
            "the work list was fully journaled, so the missing variants "
            "cannot be resumed; restart the campaign from its spec"
        )

    settings: Dict[str, Any] = {
        key: meta[key] for key in _SETTINGS if meta.get(key) is not None
    }
    if meta.get("backoff") is not None:
        settings["backoff"] = RetryPolicy.from_dict(meta["backoff"])
    overrides = dict(
        processes=processes, retries=retries, timeout=timeout,
        deadline=deadline, deadline_grace=deadline_grace,
        checkpoint_dir=checkpoint_dir, checkpoint_interval=checkpoint_interval,
        backoff=backoff, cache_dir=cache_dir, cache_verify=cache_verify,
    )
    settings.update((k, v) for k, v in overrides.items() if v is not None)
    if no_cache:
        settings.pop("cache_dir", None)
    items = [(v["name"], v["config"]) for v in state.variants]
    outcome = run_service_campaign(
        items, journal_path=journal_path, resume_state=state, **settings
    )
    return rows_from_raw(outcome.rows), outcome.stats
