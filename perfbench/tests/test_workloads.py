"""Tiny-size smoke runs of every workload, the traced run's layer
predictions, and the benchmark's contract with BENCHMARK.json."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench
from perfbench import workloads
from repro.analysis import verify

ROOT = bench.ROOT


TINY = {"paper_hbh": 80, "fault_free_load": 160, "campaign": 20}


def tiny(name, seed, scratch):
    messages = TINY[name]
    return workloads.WORKLOADS[name](seed, scratch, messages=messages, warmup=messages // 8)


@pytest.mark.parametrize("name", ["paper_hbh", "fault_free_load", "campaign"])
def test_one_operation_passes_every_gate(name, tmp_path):
    tally = bench.Tally()
    values = bench.measure(tiny(name, 3, tmp_path), 0, tally)
    assert tally.failed == 0, tally.problems
    assert tally.attempted >= 1
    assert set(values) == {name for name, _, _ in bench.END_TO_END}
    assert all(value > 0 for value in values.values())


def test_verify_standard_gates_against_the_committed_artifact(tmp_path, monkeypatch):
    # Two small targets keep the smoke run short; the gate compares them
    # with the same two entries of the committed certificate.
    monkeypatch.setattr(verify, "STANDARD_TARGETS", verify.STANDARD_TARGETS[:2])
    committed = json.loads((ROOT / "CERT_routing.json").read_text())
    committed["targets"] = committed["targets"][:2]
    expected = json.dumps(committed, indent=2, sort_keys=True) + "\n"
    tally = bench.Tally()
    bench.measure(workloads.VerifyStandard(1, tmp_path, expected=expected), 0, tally)
    assert (tally.attempted, tally.failed) == (1, 0), tally.problems

    tally = bench.Tally()
    wrong = workloads.VerifyStandard(1, tmp_path, expected=expected + " ")
    bench.measure(wrong, 0, tally)
    assert tally.failed == 1


def test_a_wrong_pin_counts_as_a_failed_operation(tmp_path):
    wl = workloads.PaperHBH(3, tmp_path, {"3": "0" * 64}, messages=80, warmup=10)
    tally = bench.Tally()
    bench.measure(wl, 0, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "pinned" in tally.problems[0]


def test_paper_hbh_trace_shows_the_object_loop_and_a_checkpoint(tmp_path):
    tally = bench.Tally()
    metrics = bench.trace(tiny("paper_hbh", 3, tmp_path), tally, tmp_path / "s.jsonl")
    assert tally.failed == 0, tally.problems
    assert set(metrics) == {name for name, _, _ in bench.per_layer_spec()}
    assert metrics["noc.kernel.BatchedKernel.step.calls"] == 0
    assert metrics["noc.router.Router.compute.calls"] > 0
    assert metrics["faults.injector.FaultInjector.link_upset.calls"] > 0
    assert metrics["checkpoint.save_checkpoint.calls"] == 1
    assert metrics["checkpoint.load_checkpoint.bytes"] > 0
    assert tally.info["kernel_supports"] == "transient fault rates are nonzero"
    assert metrics["error_rate"] == 0


def test_fault_free_trace_runs_the_kernel_only(tmp_path):
    tally = bench.Tally()
    metrics = bench.trace(
        tiny("fault_free_load", 3, tmp_path), tally, tmp_path / "s.jsonl"
    )
    assert tally.failed == 0, tally.problems
    assert metrics["noc.kernel.BatchedKernel.step.calls"] > 0
    assert metrics["noc.router.Router.compute.calls"] == 0
    assert metrics["faults.injector.FaultInjector.link_upset.calls"] == 0
    assert metrics["noc.kernel_built"] == 1


def test_campaign_operation_is_a_cold_then_a_warm_pass(tmp_path):
    tally = bench.Tally()
    bench.measure(tiny("campaign", 3, tmp_path), 0, tally)
    assert (tally.attempted, tally.failed) == (32, 0), tally.problems
    assert tally.info["cold_variants_per_s"] < tally.info["warm_variants_per_s"]


def test_campaign_trace_stores_on_the_cold_pass_and_hits_on_the_warm_one(tmp_path):
    tally = bench.Tally()
    metrics = bench.trace(tiny("campaign", 3, tmp_path), tally, tmp_path / "s.jsonl")
    assert tally.failed == 0, tally.problems
    assert metrics["service.cache.ResultCache.get.calls"] == 32
    assert metrics["service.cache.ResultCache.put.calls"] == 16
    assert metrics["service.cache.hit_ratio"] == 0.5
    assert metrics["noc.network.Network.step.calls"] == 0  # worker side: not wrapped


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(workloads.WORKLOADS) == list(bench.WORKLOAD_NAMES)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]
    ] == list(bench.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == bench.per_layer_spec()


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_hbh",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
