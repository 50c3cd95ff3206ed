"""The executor's vectorized dispatch is invisible in the results.

A sweep run through the vectorized engine must equal the scalar run
(dispatch floor raised out of reach) cell for cell, serially and
across worker counts, and the dispatch gate must actually route
eligible cells through the batch engine (and only eligible ones).
"""

import math

import pytest

pytest.importorskip("numpy")

from repro.exec import SweepExecutor
from repro.exec import executor as executor_module
from repro.experiments.sweep import SweepSpec


def small_spec(**overrides) -> SweepSpec:
    defaults = dict(
        policy_names=("dl", "ail", "cil"),
        update_costs=(1.0, 5.0),
        num_curves=6,
        duration=10.0,
        dt=0.1,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def scalar_run(monkeypatch, spec):
    """``spec`` run with the dispatch floor out of reach (all scalar)."""
    with monkeypatch.context() as patch:
        patch.setattr(executor_module, "_MIN_VEC_TRIPS", math.inf)
        return SweepExecutor(jobs=1).run(spec)


@pytest.fixture
def vec_gate(monkeypatch):
    """Lower the dispatch floor so small test sweeps vectorize."""
    monkeypatch.setattr(executor_module, "_MIN_VEC_TRIPS", 2)


def test_vectorized_serial_run_equals_scalar(vec_gate, monkeypatch):
    spec = small_spec()
    scalar = scalar_run(monkeypatch, spec)
    vec = SweepExecutor(jobs=1).run(spec)
    assert vec == scalar


def test_vectorized_parallel_run_equals_serial(vec_gate):
    spec = small_spec()
    serial = SweepExecutor(jobs=1).run(spec)
    parallel = SweepExecutor(jobs=4).run(spec)
    assert parallel == serial


def test_vectorized_dispatch_actually_engages(vec_gate, monkeypatch):
    calls = []
    original = executor_module._simulate_cell

    def spy(spec, grid, cell):
        calls.append(cell)
        return original(spec, grid, cell)

    monkeypatch.setattr(executor_module, "_simulate_cell", spy)
    spec = small_spec()
    SweepExecutor(jobs=1).run(spec)
    assert calls == []  # every cell went through the batch engine
    scalar_run(monkeypatch, spec)
    assert len(calls) == 3 * 2 * 6


def test_dispatch_floor_falls_back_to_scalar(monkeypatch):
    calls = []
    original = executor_module._simulate_cell

    def spy(spec, grid, cell):
        calls.append(cell)
        return original(spec, grid, cell)

    monkeypatch.setattr(executor_module, "_simulate_cell", spy)
    spec = small_spec(num_curves=2)  # below _MIN_VEC_TRIPS
    scalar = scalar_run(monkeypatch, spec)
    calls.clear()
    vec = SweepExecutor(jobs=1).run(spec)
    assert vec == scalar
    assert len(calls) == 3 * 2 * 2  # every cell stayed scalar

