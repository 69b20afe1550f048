"""The benchmark's workloads and the layer table of its traced run.

Every workload is a closed loop with one caller: ``prepare`` builds the
inputs of one operation from the seed (timed as set-up), ``execute`` runs
it through the program's public entry points (timed), and ``check`` gates
the outputs (untimed).  The program only ever sees the generated configs;
the seed never reaches it as a benchmark setting.

NOTES.md gives each workload's reason and the layer -> metric map.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import api
from repro import checkpoint
from repro.analysis import verify
from repro.campaign import campaign_row_to_dict
from repro.experiments.common import PAPER_INJECTION_RATE, paper_noc, workload
from repro.noc.kernel import kernel_supports
from repro.service.cache import result_core
from repro.types import LinkProtection

DEFAULT_SEED = 1
#: Never used while tuning the benchmark: a speed claim must also hold here.
HELD_OUT_SEED = 2

PINS_PATH = Path(__file__).with_name("pins.json")

# -- the layers of the traced run ------------------------------------------

#: Cycle loop, links, fault draws and traffic generation.
SIM_LAYERS = (
    "noc.network.Network.step",
    "noc.network.NetworkInterface.receive",
    "noc.network.NetworkInterface.inject",
    "noc.router.Router.receive",
    "noc.router.Router.compute",
    "noc.link.DelayLine.pop_due",
    "noc.kernel.BatchedKernel.step",
    "faults.injector.FaultInjector.link_upset",
    "traffic.injection.PeriodicInjection.fires",
)
#: Topology, routing-table rebuilds and certification.
ROUTING_LAYERS = (
    "noc.topology.MeshTopology.neighbor",
    "noc.routing.FaultAwareRouting.rebuild",
    "analysis.verify.certify_routing",
    "analysis.verify.certify_fault_trial",
)
#: Functions the campaign supervisor calls itself.  Worker processes are
#: forked from the supervisor and inherit whatever is wrapped, so campaign
#: runs wrap only these: a worker's spans would die with it.
SUPERVISOR_LAYERS = (
    "analysis.linter.lint_config",
    "analysis.cdg.ChannelDependencyGraph.build",
    "analysis.cdg.ChannelDependencyGraph.find_cycle",
    "service.cache.ResultCache.get",
    "service.cache.ResultCache.put",
    "service.journal.CampaignJournal.append",
)
CHECKPOINT_LAYERS = ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint")
ALL_LAYERS = SIM_LAYERS + ROUTING_LAYERS + SUPERVISOR_LAYERS + CHECKPOINT_LAYERS
#: The supervisor blocking on its workers' sentinels.
WORKER_WAIT = "campaign.worker_wait"
STEP = "noc.network.Network.step"
#: Result counters reported by the traced run:
#: metric name -> (counter, which direction is better).
RESULT_COUNTERS = {
    "core.retransmission_rounds": ("retransmission_rounds", "lower"),
    "faults.link_errors_corrected": ("link_errors_corrected", "higher"),
    "noc.flits_ejected": ("flits_ejected", "higher"),
}


def layer_target(name: str) -> Tuple[str, Any, str]:
    """``(name, owner, attribute)`` for a layer name such as
    ``noc.router.Router.compute`` (module ``repro.noc.router``, class
    ``Router``) or ``analysis.verify.certify_routing`` (a module function)."""
    if name == WORKER_WAIT:
        return name, importlib.import_module("multiprocessing.connection"), "wait"
    parts = name.split(".")
    split = next(
        (i for i, part in enumerate(parts) if part[0].isupper()), len(parts) - 1
    )
    owner: Any = importlib.import_module("repro." + ".".join(parts[:split]))
    for part in parts[split:-1]:
        owner = getattr(owner, part)
    return name, owner, parts[-1]


# -- outcomes and digests ----------------------------------------------------


@dataclass
class Outcome:
    """What one operation did, as the gates saw it."""

    attempted: int
    problems: List[str] = field(default_factory=list)
    failed: int = 0
    work: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)
    #: work rates the operation measured itself, e.g. per campaign pass
    rates: Dict[str, float] = field(default_factory=dict)


def digest(data: Any) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> Dict[str, Dict[str, str]]:
    return json.loads(PINS_PATH.read_text())


class Workload:
    name = ""
    #: Operations one ``execute`` counts as (a campaign variant is one).
    ops_per_execute = 1
    #: What ``Outcome.work`` counts; the report gives ``<unit>_per_s``.
    work_unit = ""
    traced_layers: Sequence[str] = SIM_LAYERS + ROUTING_LAYERS + SUPERVISOR_LAYERS
    #: Whether an operation runs in this process alone.  Only such
    #: operations are probed for host speed while they run: a probe
    #: during a campaign would compete with its worker processes.
    in_process = True
    #: Simulated messages per run and warm-up messages excluded from stats.
    messages = 0
    warmup = 0

    def __init__(self, seed: int, scratch: Path, pins: Optional[Dict[str, str]] = None,
                 messages: Optional[int] = None, warmup: Optional[int] = None):
        self.seed = seed
        self.scratch = scratch
        #: seed (as text) -> pinned output digest; empty disables the pin gate
        self.pins = pins or {}
        if messages is not None:
            self.messages = messages
        if warmup is not None:
            self.warmup = warmup

    def prepare(self) -> Any:
        raise NotImplementedError

    def execute(self, prepared: Any) -> Any:
        raise NotImplementedError

    def check(self, prepared: Any, output: Any) -> Outcome:
        raise NotImplementedError

    def pin_problem(self, value: str) -> Optional[str]:
        pinned = self.pins.get(str(self.seed))
        if pinned is not None and value != pinned:
            return f"output digest {value[:12]} != pinned {pinned[:12]} for seed {self.seed}"
        return None


# -- simulation workloads ----------------------------------------------------


class SimWorkload(Workload):
    """The 8x8 paper platform with HBH links, uniform traffic injected
    open-loop (PeriodicInjection) at a fixed rate, run to completion on
    the requested ``batched`` backend."""

    work_unit = "sim_cycles"
    link_error_rate = 0.0
    injection_rate = 0.0

    def config(self) -> api.SimulationConfig:
        if self.link_error_rate:
            faults = api.FaultConfig.link_only(
                self.link_error_rate, multi_bit_fraction=0.2, seed=self.seed
            )
        else:
            faults = api.FaultConfig.fault_free(seed=self.seed)
        return api.SimulationConfig(
            noc=paper_noc(link_protection=LinkProtection.HBH),
            faults=faults,
            workload=workload(
                self.injection_rate, self.messages, self.warmup, seed=self.seed
            ),
            backend="batched",
        )

    def prepare(self) -> api.Simulator:
        return api.Simulator(self.config())

    def execute(self, sim: api.Simulator) -> api.SimulationResult:
        return sim.run()

    def check(self, sim: api.Simulator, result: api.SimulationResult) -> Outcome:
        problems = []
        if result.hit_cycle_limit:
            problems.append("hit the cycle limit")
        # Drain without new traffic: every injected packet must end up
        # delivered or counted lost.
        network = sim.network
        for _ in range(20 * max(result.cycles, 100)):
            if network.completed >= result.packets_injected:
                break
            network.step()
        if network.completed != result.packets_injected:
            problems.append(
                f"{result.packets_injected} packets injected but "
                f"{network.delivered} delivered + {network.lost} lost after draining"
            )
        value = digest(result.to_dict(include_config=False))
        problem = self.pin_problem(value)
        if problem:
            problems.append(problem)
        config = sim.config
        reason = kernel_supports(config)
        return Outcome(
            attempted=1,
            problems=problems,
            failed=int(bool(problems)),
            work=result.cycles,
            counters={
                metric: result.counter(name) for metric, (name, _) in RESULT_COUNTERS.items()
            },
            info={
                "digest": value,
                "cycles": result.cycles,
                "backend_requested": config.backend,
                "kernel_built": sim.network.kernel is not None,
                "kernel_supports": reason if reason is not None else "supported",
            },
        )

    def checkpoint_drill(self, mid_cycle: int, expected_digest: str) -> Tuple[Outcome, int]:
        """Run to ``mid_cycle``, save, load and finish: the finished result
        must equal the uninterrupted run.  Returns the outcome and the
        checkpoint's size in bytes."""
        sim = self.prepare()
        sim.run_to_cycle(mid_cycle)
        path = self.scratch / "drill.ckpt"
        checkpoint.save_checkpoint(sim, path)
        size = path.stat().st_size
        resumed = checkpoint.load_checkpoint(path)
        outcome = self.check(resumed, resumed.run())
        if outcome.info["digest"] != expected_digest:
            outcome.problems.append("resumed run differs from the uninterrupted run")
            outcome.failed = 1
        return outcome, size


class PaperHBH(SimWorkload):
    """The Fig-5 HBH point as ``run_figure5`` builds it: 1e-3 link errors,
    20% of them multi-bit, PAPER_INJECTION_RATE, its default 1500 messages
    with 300 of warm-up."""

    name = "paper_hbh"
    link_error_rate = 1e-3
    injection_rate = PAPER_INJECTION_RATE
    messages = 1500
    warmup = 300


class FaultFreeLoad(SimWorkload):
    """The same platform, fault-free, near the XY knee (0.3 flits/node/cycle)."""

    name = "fault_free_load"
    injection_rate = 0.3
    messages = 6000
    warmup = 1200


# -- routing certification ---------------------------------------------------


class VerifyStandard(Workload):
    """``build_standard_certificate()``: the ``repro verify`` artifact.  Its
    targets and sweep seed are pinned by the artifact itself, so the
    benchmark seed does not change this workload's inputs."""

    name = "verify_standard"
    work_unit = "targets"

    def __init__(self, seed: int, scratch: Path, pins: Optional[Dict[str, str]] = None,
                 expected: Optional[str] = None):
        super().__init__(seed, scratch, pins)
        root = Path(verify.__file__).resolve().parents[3]  # src/repro/analysis/verify.py
        self.expected = (
            expected if expected is not None
            else (root / "CERT_routing.json").read_text()
        )

    def prepare(self) -> None:
        return None

    def execute(self, prepared: None) -> Dict[str, Any]:
        return verify.build_standard_certificate()

    def check(self, prepared: None, certificate: Dict[str, Any]) -> Outcome:
        problems = []
        # The same rendering tools/cert_record.py commits.
        text = json.dumps(certificate, indent=2, sort_keys=True) + "\n"
        if text != self.expected:
            problems.append("certificate differs from CERT_routing.json")
        for entry in certificate["targets"]:
            problems.extend(verify.check_expectations(entry, entry["expect"]))
        return Outcome(
            attempted=1,
            problems=problems,
            failed=int(bool(problems)),
            work=len(certificate["targets"]),
            info={"targets": len(certificate["targets"])},
        )


# -- the durable campaign ----------------------------------------------------

PROTECTIONS = ("hbh", "e2e", "fec", "none")
LINK_ERROR_RATES = (1e-4, 1e-3, 1e-2, 3e-2)
CAMPAIGN_PROCESSES = 2


@dataclass
class CampaignPass:
    directory: Path
    variants: List[Tuple[str, api.SimulationConfig]]


class Campaign(Workload):
    """A 16-variant grid (link protection x link error rate) through
    ``api.campaign`` with a journal, checkpoints and a result cache laid
    out as ``repro campaign --dir`` lays them out.  One operation is a
    cold pass into an empty cache (workers spawned, checkpoints written,
    results stored and journaled) followed by a warm pass of the same
    variants over that cache (cache reads and journal appends only)."""

    name = "campaign"
    ops_per_execute = 2 * len(PROTECTIONS) * len(LINK_ERROR_RATES)
    work_unit = "variants"
    traced_layers = SUPERVISOR_LAYERS + (WORKER_WAIT,)
    in_process = False

    messages = 300
    warmup = 60

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        #: the first cold pass's (name, result core) rows: every later pass
        #: of this run must reproduce them
        self.reference: Optional[List[Any]] = None

    def variants(self) -> List[Tuple[str, api.SimulationConfig]]:
        base = api.SimulationConfig(
            noc=paper_noc(),
            faults=api.FaultConfig.link_only(
                LINK_ERROR_RATES[0], multi_bit_fraction=0.2, seed=self.seed
            ),
            workload=workload(
                PAPER_INJECTION_RATE, self.messages, self.warmup, seed=self.seed
            ),
        )
        return api.grid(
            {
                "noc.link_protection": list(PROTECTIONS),
                "faults.rates.link": list(LINK_ERROR_RATES),
            },
            base,
        )

    def prepare(self) -> Tuple[CampaignPass, CampaignPass]:
        directory = Path(tempfile.mkdtemp(prefix="op-", dir=self.scratch))
        variants = self.variants()
        return (
            CampaignPass(directory / "cold", variants),
            CampaignPass(directory / "warm", variants),
        )

    def run_pass(self, run: CampaignPass, cache_dir: Path) -> Tuple[List[Any], Dict[str, Any]]:
        return api.campaign(
            run.variants,
            processes=CAMPAIGN_PROCESSES,
            journal_path=str(run.directory / "journal.jsonl"),
            checkpoint_dir=str(run.directory / "checkpoints"),
            cache_dir=str(cache_dir),
            return_stats=True,
        )

    def execute(self, passes: Tuple[CampaignPass, CampaignPass]) -> Tuple[Any, Any, float, float]:
        """Both passes' ``(rows, stats)`` and their wall seconds."""
        cold, warm = passes
        cache_dir = cold.directory / "cache"
        t0 = time.perf_counter()
        cold_output = self.run_pass(cold, cache_dir)
        t1 = time.perf_counter()
        warm_output = self.run_pass(warm, cache_dir)
        return cold_output, warm_output, t1 - t0, time.perf_counter() - t1

    def check(self, passes: Tuple[CampaignPass, CampaignPass],
              output: Tuple[Any, Any, float, float]) -> Outcome:
        cold_output, warm_output, cold_s, warm_s = output
        shutil.rmtree(passes[0].directory.parent, ignore_errors=True)
        cold = self.check_pass(cold_output, warm=False)
        warm = self.check_pass(warm_output, warm=True)
        variants = len(passes[0].variants)
        return Outcome(
            attempted=cold.attempted + warm.attempted,
            problems=cold.problems + warm.problems,
            failed=cold.failed + warm.failed,
            work=len(cold_output[0]) + len(warm_output[0]),
            counters=cold.counters,
            info={
                "digest": cold.info["digest"],
                "cache_hits": cold.info["cache_hits"] + warm.info["cache_hits"],
            },
            rates={
                "cold_variants_per_s": variants / cold_s,
                "warm_variants_per_s": variants / warm_s,
            },
        )

    def check_pass(self, output: Tuple[List[Any], Dict[str, Any]], warm: bool) -> Outcome:
        """Gate one pass: no errored rows, every row equal to the first cold
        pass's, the pinned digest, and (warm) every row from the cache."""
        rows, stats = output
        variants = self.ops_per_execute // 2
        cores = [(row.name, result_core(campaign_row_to_dict(row))) for row in rows]
        problems: List[str] = []
        failed = set()
        for i, row in enumerate(rows):
            if row.failed:
                problems.append(f"{row.name}: {row.error}")
                failed.add(i)
            if warm and not row.metadata.get("cache_hit"):
                problems.append(f"{row.name}: not served from the cache")
                failed.add(i)
        if len(rows) != variants:
            problems.append(f"{len(rows)} rows for {variants} variants")
            failed.update(range(len(rows), variants))
        if self.reference is None:
            self.reference = cores
        else:
            for i, (core, ref) in enumerate(zip(cores, self.reference)):
                if core != ref:
                    problems.append(f"{core[0]}: result differs from the first cold pass")
                    failed.add(i)
        value = digest(cores)
        problem = self.pin_problem(value)
        if problem:
            problems.append(problem)
            failed.update(range(len(rows)))
        counters = {
            metric: sum(row.counter(name) for row in rows)
            for metric, (name, _) in RESULT_COUNTERS.items()
        }
        return Outcome(
            attempted=variants,
            problems=problems,
            failed=len(failed),
            counters=counters,
            info={"digest": value, "cache_hits": stats.get("cache_hits", 0)},
        )


WORKLOADS = {
    "paper_hbh": PaperHBH,
    "fault_free_load": FaultFreeLoad,
    "verify_standard": VerifyStandard,
    "campaign": Campaign,
}


def make(name: str, seed: int, scratch: Path, pins: Dict[str, Dict[str, str]]) -> Workload:
    cls = WORKLOADS[name]
    return cls(seed, scratch, pins.get(cls.name, {}))
