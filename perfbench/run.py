"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload taxi-pipeline --seed 7 --seconds 10 --trace 0

The program under test is imported from ``src/`` of the same checkout.
A run repeats passes (timed set-up, untimed input generation, timed
phase, untimed checks) until the timed phases add up to ``--seconds``
and at least three passes are done, then reports medians.  With
``--trace 1`` passes alternate between untraced and traced (see
``layers.py``) and the per-layer metrics are reported instead; the
spans are written to ``.perfbench_out/`` in the checkout.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics: every workload reports all of them.
END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"), ("peak_rss_mb", "MB"),
)
#: Scenarios per run: pass ``i`` builds its inputs from seed
#: ``seed + 1000 * (i % SCENARIOS)``, so one run averages over several
#: fleets (cross-seed spread) as well as over repeats (host noise).
SCENARIOS = 3
#: Passes per run, at least: every scenario once.
MIN_PASSES = SCENARIOS
#: No pass starts once a run has taken this long, so it exits in time.
WALL_LIMIT_S = 150.0


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit with 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    from repro.obs.registry import get_registry

    if get_registry().enabled:
        print("error: repro telemetry is on; the benchmark needs it off",
              file=sys.stderr)
        raise SystemExit(2)


def _p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[94]


class Measurement:
    """Everything a run gathers across its passes, in calibrated seconds."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.run_s: list[float] = []
        self.traced_run_s: list[float] = []
        self.raw_setup_s: list[float] = []
        self.raw_run_s: list[float] = []
        self.op_latencies: list[float] = []
        self.samples: dict[str, list[float]] = {}
        self.batch_queries = 0
        self.batch_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.broken = False
        self.host_speed = 1.0


def measure(workload: Any, seed: int, seconds: float,
            tracer: Any = None) -> Measurement:
    """Repeat passes of ``workload`` until the time budget is spent."""
    from perfbench.hostclock import REFERENCE_S, HostClock

    with HostClock() as clock:
        if tracer is not None:
            tracer.clock = clock
        out = _passes(workload, seed, seconds, tracer, clock)
    if clock.durations:
        out.host_speed = REFERENCE_S / statistics.median(clock.durations)
    return out


def _passes(workload: Any, seed: int, seconds: float, tracer: Any,
            clock: Any) -> Measurement:
    out = Measurement()
    firsts: dict[int, Any] = {}
    started = perf_counter()
    passes = 0
    timed = 0.0
    while True:
        traced = tracer is not None and passes % 2 == 1
        # Traced and untraced passes come in pairs on the same scenario.
        scenario = (passes // 2 if tracer is not None else passes) % SCENARIOS
        scenario_seed = seed + 1000 * scenario
        phase = tracer.phase if traced else (lambda name: nullcontext())
        pass_started = perf_counter()
        try:
            gc.collect()
            with tracer.installed() if traced else nullcontext():
                setup_start = perf_counter()
                with phase("setup"):
                    state = workload.setup(scenario_seed)
                setup_end = perf_counter()
                workload.prepare(state, scenario_seed)
                gc.collect()
                run_start = perf_counter()
                with phase("run"):
                    result = workload.run(state)
                run_end = perf_counter()
            if traced:
                for name, value in workload.gauges(state).items():
                    tracer.gauge(name, value)
            failed = workload.check(state, result, firsts.get(scenario))
        except Exception:  # a failing program still gets a result line
            traceback.print_exc(file=sys.stderr)
            out.attempted += 1
            out.failed += 1
            out.broken = True
            return out
        del state
        firsts.setdefault(scenario, result)
        out.attempted += result.attempted
        out.failed += failed
        passes += 1
        calibrated = clock.calibrated
        run_s = calibrated(run_start, run_end)
        if traced:
            out.traced_run_s.append(run_s)
        else:
            out.setup_s.append(calibrated(setup_start, setup_end))
            out.run_s.append(run_s)
            out.raw_setup_s.append(setup_end - setup_start
                                   - clock.kernel_time(setup_start, setup_end))
            out.raw_run_s.append(run_end - run_start
                                 - clock.kernel_time(run_start, run_end))
            out.op_latencies.extend(calibrated(*span) for span in result.op_latencies)
            for name, spans in result.samples.items():
                out.samples.setdefault(name, []).extend(
                    calibrated(*span) for span in spans)
            out.batch_queries += result.batch_queries
            out.batch_s += sum(calibrated(*span) for span in result.batch_spans)
        timed += run_end - run_start
        enough = (len(out.run_s) >= 1 and len(out.traced_run_s) >= 1
                  if tracer is not None else passes >= MIN_PASSES)
        if enough and timed >= seconds:
            return out
        elapsed = perf_counter() - started
        if elapsed + (perf_counter() - pass_started) > WALL_LIMIT_S:
            return out


def end_to_end(out: Measurement) -> dict[str, float]:
    return {
        "setup_s": statistics.median(out.setup_s),
        "run_s": statistics.median(out.run_s),
        "op_p50_ms": 1e3 * statistics.median(out.op_latencies),
        "op_p95_ms": 1e3 * _p95(out.op_latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report_lines(out: Measurement, values: dict[str, float]) -> list[str]:
    """The workload's named metrics, for people reading the output.

    Times are calibrated (see ``hostclock.py``); the raw wall medians
    and the host speed they were scaled by are printed too.
    """
    lines = [f"{name} {values[name]:.6g} {unit}" for name, unit in END_TO_END]
    lines.append(f"op_samples {len(out.op_latencies)} count")
    lines.append(f"raw_setup_s {statistics.median(out.raw_setup_s):.6g} s")
    lines.append(f"raw_run_s {statistics.median(out.raw_run_s):.6g} s")
    lines.append(f"host_speed {out.host_speed:.4g} ratio")
    updates = out.samples.get("update")
    if updates:
        lines.append(f"update_p50_ms {1e3 * statistics.median(updates):.6g} ms")
        lines.append(f"update_p95_ms {1e3 * _p95(updates):.6g} ms "
                     f"(n={len(updates)})")
    queries: list[float] = []
    for kind in ("position", "range", "within", "nearest", "proximity"):
        values_ = out.samples.get(kind)
        if values_:
            queries.extend(values_)
            lines.append(f"{kind}_p50_ms {1e3 * statistics.median(values_):.6g} ms "
                         f"(n={len(values_)})")
    if queries:
        lines.append(f"query_p95_ms {1e3 * _p95(queries):.6g} ms (n={len(queries)})")
    if out.batch_queries:
        lines.append(f"batch_qps {out.batch_queries / out.batch_s:.6g} 1/s")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    from perfbench.layers import METRICS, LayerTracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    tracer = LayerTracer() if args.trace else None
    out = measure(workload, args.seed, args.seconds, tracer)
    print(f"workload {args.workload} seed {args.seed} "
          f"passes {len(out.run_s) + len(out.traced_run_s)} trace {args.trace}")

    metrics: dict[str, dict[str, Any]] = {}
    if out.broken or not out.run_s:
        pass
    elif tracer is None:
        values = end_to_end(out)
        print("\n".join(report_lines(out, values)))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        if out.traced_run_s:
            overhead = (statistics.median(out.traced_run_s)
                        / statistics.median(out.run_s))
            values = tracer.metrics(len(out.traced_run_s), overhead)
            error = tracer.partition_error()
            wall = values["trace.setup_s"] + values["trace.run_s"]
            if error > 1e-6 * wall * len(out.traced_run_s):
                out.failed += 1
            print(f"partition_error_s {error:.3g} s "
                  "(layer self times + unattributed_s vs traced wall time)")
            for name, unit in METRICS:
                print(f"{name} {values[name]:.6g} {unit}")
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in METRICS}
            tracer.write_spans(
                ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json",
                {"workload": args.workload, "seed": args.seed,
                 "passes": len(out.traced_run_s)},
            )
    attempted = max(out.attempted, 1)
    print(f"error_rate {out.failed / attempted:.6g} ratio "
          f"({out.failed} of {attempted})")
    print(json.dumps({
        "correct": not out.broken and out.failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
