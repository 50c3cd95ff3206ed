"""The benchmark's own tests, at sizes that run in seconds.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench.layers import METRICS, LayerTracer
from perfbench.run import END_TO_END, end_to_end, measure
from perfbench.workloads import (
    WORKLOADS,
    PolicySweep,
    SweepSizes,
    TaxiPipeline,
    TaxiServe,
    TaxiSizes,
    TruckingLive,
    TruckSizes,
)
from repro.dbms.database import MovingObjectDatabase
from repro.index.timespace import TimeSpaceIndex

ROOT = Path(__file__).resolve().parents[2]

SMALL_TAXI = TaxiSizes(taxis=8, minutes=8.0, final_queries=30,
                       instants=4, stream=6)


def small(name: str):
    """Each workload at a size that runs in about a second per pass."""
    return {
        "taxi-pipeline": lambda: TaxiPipeline(SMALL_TAXI),
        "taxi-serve": lambda: TaxiServe(SMALL_TAXI),
        "trucking-live": lambda: TruckingLive(TruckSizes(
            trucks=10, minutes=8.0, batch_every=60, batch_size=12)),
        "policy-sweep": lambda: PolicySweep(SweepSizes(
            trips=8, minutes=10.0, costs=(2.0, 10.0), sampled_trips=4)),
    }[name]()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_is_correct(name):
    out = measure(small(name), seed=7, seconds=0.1)
    assert not out.broken
    assert out.failed == 0
    assert out.attempted > 0
    values = end_to_end(out)
    assert set(values) == {metric for metric, _ in END_TO_END}
    assert all(value > 0 for value in values.values())


def test_perturbed_answer_raises_error_rate(monkeypatch):
    """A range answer missing one object must count as a failure."""
    original = MovingObjectDatabase.range_query

    def lossy(self, *args, **kwargs):
        answer = original(self, *args, **kwargs)
        if answer.may:
            dropped = min(answer.may)
            answer = type(answer)(
                time=answer.time, may=answer.may - {dropped},
                must=answer.must - {dropped}, examined=answer.examined,
                candidates=answer.candidates,
            )
        return answer

    monkeypatch.setattr(MovingObjectDatabase, "range_query", lossy)
    out = measure(small("taxi-serve"), seed=7, seconds=0.1)
    assert not out.broken
    assert out.failed > 0


def test_perturbed_index_is_caught_by_the_replica(monkeypatch):
    """An index that loses candidates disagrees with the scan replica."""
    original = TimeSpaceIndex.candidates_at_many

    def lossy(self, windows, stats=None):
        return [set(sorted(found)[::2])
                for found in original(self, windows, stats)]

    monkeypatch.setattr(TimeSpaceIndex, "candidates_at_many", lossy)
    out = measure(small("taxi-pipeline"), seed=7, seconds=0.1)
    assert out.failed > 0


#: Layers each workload must reach (their busy time is not zero).
REACHED = {
    "taxi-pipeline": ("routes", "sim.vehicle", "dbms.update", "index.replace",
                      "index.oplane", "dbms.batch"),
    "taxi-serve": ("dbms.insert", "index.search", "dbms.query.range",
                   "dbms.query.nearest", "dbms.query.proximity", "dbms.batch"),
    "trucking-live": ("dbms.update", "shard.update", "shard.batch",
                      "dbms.batch"),
    "policy-sweep": ("sim.trip", "exec.run", "exec.grid"),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_reports_every_layer_metric(name):
    tracer = LayerTracer()
    out = measure(small(name), seed=7, seconds=0.1, tracer=tracer)
    assert out.failed == 0 and out.traced_run_s
    values = tracer.metrics(len(out.traced_run_s), 1.0)
    assert [metric for metric, _ in METRICS] == list(values)
    assert all(values[f"{layer}.busy_s"] > 0 for layer in REACHED[name])
    wall = values["trace.setup_s"] + values["trace.run_s"]
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert self_total + values["unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert tracer.partition_error() < 1e-6
    assert tracer.spans


def test_calibration_kernel_is_taken_out_of_frames():
    """Kernel time that falls inside a frame is not charged to its layer."""
    tracer = LayerTracer()
    tracer.clock = SimpleNamespace(kernel_s=0.0)

    def sampled_kernel():
        time.sleep(0.05)
        tracer.clock.kernel_s += 0.05

    with tracer.phase("run"):
        tracer._call("routes", sampled_kernel, (), {})
    assert tracer.timing["routes"][1] < 0.01
    assert tracer.phase_s["run"] < 0.01
    assert tracer.partition_error() < 1e-9


def test_trace_restores_the_wrapped_methods():
    before = MovingObjectDatabase.__dict__["process_update"]
    with LayerTracer().installed():
        assert MovingObjectDatabase.__dict__["process_update"] is not before
    assert MovingObjectDatabase.__dict__["process_update"] is before


def test_layer_shares_agree_with_cprofile():
    """The traced shares of the big layers match an external profiler.

    cProfile charges every Python call, so the many small tick-loop
    calls look costlier under it; the bound is loose on purpose.
    """
    workload = TaxiPipeline(TaxiSizes(taxis=16, minutes=20.0, final_queries=50))
    tracer = LayerTracer()
    state = workload.setup(7)
    workload.prepare(state, 7)
    with tracer.installed(), tracer.phase("run"):
        workload.run(state)
    run_s = tracer.phase_s["run"]
    traced = {
        "replace": tracer.timing["index.replace"][1] / run_s,
        "observe": tracer.timing["sim.vehicle"][1] / run_s,
    }

    state = workload.setup(7)
    workload.prepare(state, 7)
    profile = cProfile.Profile()
    profile.runcall(workload.run, state)
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]

    def cumulative(path_end: str, function: str) -> float:
        return sum(entry[3] for (path, _, name), entry in stats.items()
                   if path.endswith(path_end) and name == function)

    total = cumulative("perfbench/workloads.py", "run")
    profiled = {
        "replace": cumulative("index/timespace.py", "replace") / total,
        "observe": cumulative("sim/vehicle.py", "observe") / total,
    }
    assert traced["replace"] > 0.2
    for layer in traced:
        assert abs(traced[layer] - profiled[layer]) < 0.2, (traced, profiled)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(METRICS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "taxi-pipeline",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
