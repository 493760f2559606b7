"""Measurement core of the repository benchmark (see ``run.py``).

Set-up, the instrumented pass, the timed passes and the metrics they
yield.  Imports the program, so ``run.py`` imports this module only after
it has found the sources.
"""

from __future__ import annotations

import gc
import resource
import statistics
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional, Set, Tuple

from cells import WIDE_MODELS, WORKLOADS, CellTrace
from hostspeed import PROBE, clock
from layers import APP_MSG, LOOPS, MESSAGE_SPANS, Tracer, instrument

#: Set-up is repeated at least this many times, and further (up to
#: SETUP_MAX) until SETUP_MIN_S seconds have been spent, so cheap set-ups
#: still report a median over enough samples.
SETUP_REPEATS = 3
SETUP_MAX = 25
SETUP_MIN_S = 1.0


class BenchmarkError(Exception):
    """The ledger or the traced/untraced comparison failed."""


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Pass:
    """Wall of one pass over the cells, split by delay model."""

    def __init__(self) -> None:
        self.wall = 0.0
        #: ``wall`` at reference host speed (see ``hostspeed``).
        self.scaled = 0.0
        self.by_model: Dict[str, float] = {}

    def add(self, model: str, took: float) -> None:
        self.wall += took
        if model:
            self.by_model[model] = self.by_model.get(model, 0.0) + took


class Bench:
    """One workload at one seed: set-up, passes, failures, signatures."""

    def __init__(self, workload: Any, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        #: One line per failing cell, for standard error.
        self.failures: List[str] = []
        #: Cells whose instrumented run failed its oracle: their reruns
        #: reproduce the same outputs, so they fail it too.
        self.wrong: Set[str] = set()
        self.signatures: Dict[str, tuple] = {}

    # -- set-up ---------------------------------------------------------
    def setup(self, seconds: float) -> Dict[str, float]:
        """Time set-up on fresh inputs, at least SETUP_REPEATS times and
        until ``min(SETUP_MIN_S, seconds)`` has been spent.  Call it while
        the host-speed probe runs."""
        times, scaled, bounds, builds = [], [], [], []
        budget = min(SETUP_MIN_S, seconds)
        setup = None
        while len(times) < SETUP_REPEATS or (
            sum(times) < budget and len(times) < SETUP_MAX
        ):
            setup = None  # drop the previous inputs before timing anew
            gc.collect()
            since = PROBE.mark()
            start = clock()
            setup = self.workload.setup(self.seed)
            times.append(clock() - start)
            scaled.append(PROBE.scale(times[-1], since))
            bounds.append(setup.pulse_bound_s)
            builds.append(setup.build_s)
        self.cells = setup.cells
        return {
            "setup_s": _median(scaled),
            "net.sync_runtime.pulse_bound_s": _median(bounds),
            "covers.build_s": _median(builds),
            "covers.clusters": setup.clusters,
        }

    # -- passes ---------------------------------------------------------
    def _run(self, cell, tracer: Optional[Tracer]) -> Tuple[Any, float]:
        """One attempt at ``cell`` (traced when ``tracer`` is given) and its
        wall; a run that raises is counted as failed, not fatal."""
        self.attempted += 1
        gc.collect()
        try:
            if tracer is None:
                start = clock()
                raw = cell.run()
                return raw, clock() - start
            tracer.runs.clear()
            tracer.repairs.clear()
            with instrument(tracer):
                start = clock()
                raw = tracer.wrap("bench.cell", cell.run_traced)(tracer)
                return raw, clock() - start
        except Exception:  # counted as a failed run, with its traceback
            self.failed += 1
            self.failures.append(f"{cell.name}: raised\n{traceback.format_exc()}")
            return None, 0.0

    def instrumented_pass(self, tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Run every cell traced once; check oracles and the ledger."""
        sums = dict(messages=0, base_messages=0, time=0.0, base_time=0.0,
                    answered=0, survivors=0)
        counts: Dict[str, int] = {}
        for cell in self.cells:
            before = {name: tracer.count(name) for name in MESSAGE_SPANS}
            raw, _ = self._run(cell, tracer)
            if raw is None:
                continue
            trace = CellTrace(
                layer_msgs={n: tracer.count(n) - before[n] for n in MESSAGE_SPANS},
                runs=list(tracer.runs),
                repairs=list(tracer.repairs),
            )
            errors = cell.oracle(raw, trace)
            if errors:
                self.failed += 1
                self.wrong.add(cell.name)
                self.failures.append(f"{cell.name}: " + "; ".join(errors))
            self.signatures[cell.name] = cell.signature(raw)
            cost = cell.cost(raw, trace)
            for key in sums:
                sums[key] += getattr(cost, key)
            for key, value in cell.counts(raw).items():
                counts[key] = counts.get(key, 0) + value
        _check_ledger(tracer)
        return sums, counts

    def timed_pass(self, tracer: Optional[Tracer] = None) -> Pass:
        """One pass over every cell; compares each result's signature with
        the instrumented pass.  Call it while the host-speed probe runs."""
        since = PROBE.mark()
        timing = Pass()
        for cell in self.cells:
            if cell.name not in self.signatures:
                continue  # failed in the instrumented pass; counted there
            raw, took = self._run(cell, tracer)
            if raw is None:
                continue
            timing.add(cell.model, took)
            if cell.signature(raw) != self.signatures[cell.name]:
                side = "untraced" if tracer is None else "traced"
                raise BenchmarkError(
                    f"{cell.name}: {side} run gave {cell.signature(raw)},"
                    f" instrumented pass gave {self.signatures[cell.name]}"
                )
            if cell.name in self.wrong:
                self.failed += 1
        if tracer is not None:
            _check_ledger(tracer)
        timing.scaled = PROBE.scale(timing.wall, since)
        return timing


def _check_ledger(tracer: Tracer) -> None:
    if tracer.ledger_errors:
        raise BenchmarkError("ledger: " + "; ".join(tracer.ledger_errors[:5]))


def _layer_metrics(
    setup: Dict[str, float], counts: Dict[str, int], instr, window,
    traced_passes: int, plain: List[Pass], traced: List[Pass],
) -> Dict[str, float]:
    k = max(traced_passes, 1)

    def self_s(*names: str) -> float:
        return sum(window.self_s(n) for n in names) / k

    wall = _median([p.wall for p in plain])
    events = sum(instr.counters.get(f"net.async_runtime.{loop}_events", 0)
                 for loop in LOOPS)
    reg_msgs = instr.count("core.registration")
    app_msgs = instr.count(APP_MSG)
    executions = counts.get("check.executions", 0)
    metrics: Dict[str, float] = {
        "net.async_runtime.events": events,
        "net.async_runtime.events_per_s": _ratio(events, wall),
        "net.async_runtime.self_s": self_s(
            *(f"net.async_runtime.{loop}" for loop in LOOPS)
        ),
    }
    for loop in LOOPS:
        metrics[f"net.async_runtime.{loop}_s"] = self_s(f"net.async_runtime.{loop}")
    metrics["net.delays.fills"] = instr.count("net.delays.fill")
    metrics["net.delays.fill_s"] = self_s("net.delays.fill")
    for model in WIDE_MODELS:
        metrics[f"net.delays.replay_s.{model.__name__}"] = _median(
            [p.by_model.get(model.__name__, 0.0) for p in plain]
        )
    metrics.update({
        "net.sync_runtime.pulse_bound_s": setup["net.sync_runtime.pulse_bound_s"],
        "covers.build_s": setup["covers.build_s"],
        "covers.clusters": setup["covers.clusters"],
        "core.registration.msgs": reg_msgs,
        "core.registration.self_s": self_s("core.registration"),
        "core.registration.msgs_per_app_msg": _ratio(reg_msgs, app_msgs),
        "core.cluster_ops.msgs": instr.count("core.cluster_ops"),
        "core.cluster_ops.self_s": self_s("core.cluster_ops"),
        "core.synchronizer.msgs": instr.count("core.synchronizer"),
        "core.synchronizer.self_s": self_s("core.synchronizer", APP_MSG),
        "apps.msgs": app_msgs,
        "apps.self_s": self_s("apps"),
        "net.faults.dropped": instr.counters.get("net.faults.dropped", 0),
        "core.recovery.repair_msgs": counts.get("core.recovery.repair_msgs", 0),
        "core.recovery.repair_s": self_s("core.recovery.repair"),
        "check.executions": executions,
        "check.steps": counts.get("check.steps", 0),
        "check.states": counts.get("check.states", 0),
        "check.useful_ratio": _ratio(counts.get("check.useful", 0), executions),
        "check.execs_per_s": _ratio(executions, wall),
        "check.probe_s": self_s("check.probe"),
        "trace.overhead_s": (_median([p.scaled for p in traced])
                             - _median([p.scaled for p in plain])),
        "host.wall_raw_s": wall,
    })
    return metrics


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> Dict[str, Any]:
    bench = Bench(WORKLOADS[workload_name](smoke=smoke), seed)
    first_sample = PROBE.mark()
    with PROBE.running():
        setup = bench.setup(seconds)
    instr = Tracer()
    sums, counts = bench.instrumented_pass(instr)

    window = Tracer()
    plain: List[Pass] = []
    traced: List[Pass] = []
    with PROBE.running():
        deadline = perf_counter() + seconds
        while True:
            plain.append(bench.timed_pass())
            if trace:
                traced.append(bench.timed_pass(window))
            if perf_counter() >= deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    end_to_end = {
        "wall_s": _median([p.scaled for p in plain]),
        "setup_s": setup["setup_s"],
        "msg_overhead": _ratio(sums["messages"], sums["base_messages"]),
        "time_overhead": _ratio(sums["time"], sums["base_time"]),
        "answered_frac": _ratio(sums["answered"], sums["survivors"]),
        "peak_rss_mb": peak_rss_mb,
    }
    layers = _layer_metrics(setup, counts, instr, window, len(traced),
                            plain, traced)
    layers["host.yardstick_s"] = _median(PROBE.samples[first_sample:])
    return {
        "failures": bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "passes": len(plain),
        "traced_passes": len(traced),
        "end_to_end": end_to_end,
        "per_layer": layers,
    }
