"""The four benchmark workloads, their cells and their oracles.

A workload's ``setup(seed)`` builds every input from the seed (graphs, edge
weights, delay models, fault schedules) plus the per-graph set-up the
program needs before a run (pulse bound, cover registry, sweeps, election
covers, model-checker cells).  It returns the cells: one cell is one
simulated run, replay, ``run_churn`` or ``explore`` call.  Each cell can
run untraced (``run``) or under a :class:`~layers.Tracer` (``run_traced``,
called inside :func:`layers.instrument`), and carries its oracle.

Why these workloads (each loads the layers a later change is likely to
touch, and leaves others nearly idle):

* ``deep-cycle`` - single-source BFS on cycles: the pulse bound is n, so
  registration carries most messages (the fault-free fast loop).
* ``wide-apps`` - BFS, leader election and MST on a random 4-regular
  weighted graph under five delay shapes: low diameter, so aggregation
  and virtual-node waves dominate and registration is light; the five
  shapes load the delay draws unevenly.
* ``churn`` - ``run_churn`` under link churn, flapping links, crashes in
  all three repair modes and crash-with-rejoin: the only workload on the
  faulty loop, ``net.faults`` and ``core.recovery``.
* ``check`` - ``repro.check.explore`` over fixed cells: the only workload
  on the controlled loop and the DPOR explorer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps import (
    ElectionStructure,
    bfs_spec,
    leader_election_spec,
    mst_spec,
    reference_mst,
)
from repro.apps.mst import mst_edges_from_outputs
from repro.check.explorer import explore
from repro.check.workloads import build_workload, expand_workloads
from repro.core import (
    SynchronizerSweep,
    pulse_bound_for,
    registry_for_threshold,
    run_churn,
    run_synchronized,
)
from repro.net import (
    AlternatingDelay,
    BimodalDelay,
    ConstantDelay,
    FaultSchedule,
    SlowEdgesDelay,
    UniformDelay,
    digest_outputs,
    run_synchronous,
    topology,
)

from hostspeed import clock as now
from layers import (
    APP_MSG,
    TracedDelay,
    Tracer,
    trace_probes,
    traced_process_class,
    traced_spec,
)


@dataclass
class Cost:
    """One cell's share of the paper's overhead ratios (Theorem 5.3)."""

    messages: int = 0        # M(A'), repair passes included
    base_messages: int = 0   # M(A) + m
    time: float = 0.0        # T(A'), simulated time to output in tau
    base_time: float = 0.0   # T(A), synchronous rounds to output
    answered: int = 0
    survivors: int = 0


@dataclass
class CellTrace:
    """What the tracer saw while one cell ran in the instrumented pass."""

    layer_msgs: Dict[str, int]
    #: ``(loop, graph, crashed, rejoined, AsyncResult)`` per engine run.
    runs: List[Tuple[str, Any, Any, Any, Any]]
    repairs: List[Any]


@dataclass
class Cell:
    name: str
    #: Delay model class of the run ("" where no model is passed in).
    model: str
    run: Callable[[], Any]
    run_traced: Callable[[Tracer], Any]
    signature: Callable[[Any], tuple]
    oracle: Callable[[Any, CellTrace], List[str]]
    cost: Callable[[Any, CellTrace], Cost]
    #: Exact per-layer counts the result itself carries.
    counts: Callable[[Any], Dict[str, int]] = lambda raw: {}


@dataclass
class Setup:
    cells: List[Cell]
    pulse_bound_s: float = 0.0
    build_s: float = 0.0
    clusters: int = 0


class _SetupClock:
    """Times the pulse-bound and cover calls that set-up makes."""

    def __init__(self) -> None:
        self.pulse_bound_s = 0.0
        self.build_s = 0.0
        self.clusters = 0

    def pulse_bound(self, graph, spec) -> int:
        start = now()
        bound = pulse_bound_for(graph, spec)
        self.pulse_bound_s += now() - start
        return bound

    def registry(self, graph, bound):
        start = now()
        registry = registry_for_threshold(graph, bound)
        self.build_s += now() - start
        return registry

    def count(self, registry) -> None:
        self.clusters += len(registry.layered.all_cluster_trees())

    def setup(self, cells: List[Cell]) -> Setup:
        return Setup(cells, self.pulse_bound_s, self.build_s, self.clusters)


def _reference(graph, spec) -> Callable[[], Any]:
    """The synchronous run, computed on first use: oracle runs stay out of
    the timed set-up."""
    return functools.cache(lambda: run_synchronous(graph, spec))


def _bfs_dist(graph, live, root: int = 0) -> Dict[int, int]:
    """Hop distances from ``root`` inside the subgraph induced by ``live``."""
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in graph.neighbors(v):
                if u in live and u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def _run_signature(result) -> tuple:
    return (result.messages, result.events_fired, result.time_to_output,
            digest_outputs(result.outputs))


def _sync_oracle(reference: Callable[[], Any],
                 extra: Optional[Callable[[Any], List[str]]] = None):
    """Outputs and program messages equal the synchronous run's."""

    def oracle(result, trace: CellTrace) -> List[str]:
        ref = reference()
        errors = []
        if result.outputs != ref.outputs:
            errors.append("outputs differ from run_synchronous")
        if trace.layer_msgs[APP_MSG] != ref.messages:
            errors.append(
                f"apps.msgs {trace.layer_msgs[APP_MSG]} != synchronous"
                f" M(A) {ref.messages}"
            )
        if extra is not None:
            errors.extend(extra(result))
        return errors

    return oracle


def _sync_cost(graph, reference: Callable[[], Any]):
    def cost(result, trace: CellTrace) -> Cost:
        ref = reference()
        return Cost(
            messages=result.messages,
            base_messages=ref.messages + graph.num_edges,
            time=result.time_to_output,
            base_time=ref.rounds_to_output,
            answered=sum(1 for v in graph.nodes if v in result.outputs),
            survivors=graph.num_nodes,
        )

    return cost


class DeepCycle:
    """Single-source BFS via ``run_synchronized`` on cycles, one
    ``UniformDelay`` adversary."""

    name = "deep-cycle"

    def __init__(self, smoke: bool = False) -> None:
        self.sizes = (16, 24) if smoke else (192, 256)

    def setup(self, seed: int) -> Setup:
        clock = _SetupClock()
        model = UniformDelay(seed)
        cells = []
        for n in self.sizes:
            graph = topology.cycle_graph(n)
            spec = bfs_spec(0)
            bound = clock.pulse_bound(graph, spec)
            registry = clock.registry(graph, bound)
            clock.count(registry)
            cells.append(self._cell(graph, spec, model, registry, bound))
        return clock.setup(cells)

    def _cell(self, graph, spec, model, registry, bound) -> Cell:
        ref = _reference(graph, spec)

        def run():
            return run_synchronized(
                graph, spec, model, registry=registry, max_pulse=bound
            )

        def run_traced(tracer: Tracer):
            return run_synchronized(
                graph, traced_spec(spec, tracer), TracedDelay(model, tracer),
                registry=registry, max_pulse=bound,
            )

        return Cell(
            name=f"bfs:cycle-{graph.num_nodes}",
            model=type(model).__name__,
            run=run,
            run_traced=run_traced,
            signature=_run_signature,
            oracle=_sync_oracle(ref),
            cost=_sync_cost(graph, ref),
        )


#: The five delay shapes of ``wide-apps``, one instance each per graph.
WIDE_MODELS = (ConstantDelay, UniformDelay, BimodalDelay, SlowEdgesDelay,
               AlternatingDelay)


def _wide_models(seed: int) -> Tuple[Any, ...]:
    return tuple(
        model() if model is ConstantDelay else model(seed)
        for model in WIDE_MODELS
    )


class WideApps:
    """BFS, leader election and MST replayed through ``SynchronizerSweep``
    on seeded, weighted, random 4-regular graphs under five delay shapes.

    Several graphs per run: one graph's pulse bounds jump by powers of
    two from seed to seed, and averaging over a few keeps the run-to-run
    spread of the overhead ratios small.
    """

    name = "wide-apps"

    def __init__(self, smoke: bool = False) -> None:
        self.n, self.graphs = (16, 1) if smoke else (32, 6)

    def setup(self, seed: int) -> Setup:
        clock = _SetupClock()
        cells = []
        for i in range(self.graphs):
            graph_seed = seed * self.graphs + i
            graph = topology.with_random_weights(
                topology.random_regular_graph(self.n, 4, graph_seed), graph_seed
            )
            cells.extend(self._graph_cells(
                f"regular-{self.n}#{i}", graph, _wide_models(graph_seed), clock
            ))
        return clock.setup(cells)

    def _graph_cells(self, gname, graph, models, clock) -> List[Cell]:
        start = now()
        structure = ElectionStructure.build(graph)
        clock.build_s += now() - start
        clock.clusters += sum(len(c.clusters) for c in structure.covers)
        leader = min(graph.nodes)
        mst = functools.cache(lambda: reference_mst(graph))

        def elects_min(result) -> List[str]:
            wrong = sorted(v for v, out in result.outputs.items() if out != leader)
            return [f"nodes {wrong[:5]} did not elect {leader}"] if wrong else []

        def matches_kruskal(result) -> List[str]:
            if mst_edges_from_outputs(result.outputs) != mst():
                return ["MST differs from reference_mst"]
            return []

        apps = (
            ("bfs", bfs_spec(0), None),
            ("leader", leader_election_spec(structure), elects_min),
            ("mst", mst_spec(), matches_kruskal),
        )
        cells = []
        for app, spec, extra in apps:
            bound = clock.pulse_bound(graph, spec)
            registry = clock.registry(graph, bound)
            clock.count(registry)
            sweep = SynchronizerSweep(
                graph, spec, registry=registry, max_pulse=bound
            )
            ref = _reference(graph, spec)
            cells.extend(self._cells(
                f"{app}:{gname}", graph, spec, sweep, models,
                _sync_oracle(ref, extra), _sync_cost(graph, ref),
            ))
        return cells

    def _cells(self, app, graph, spec, sweep, models, oracle, cost):
        """One cell per delay model; ``app`` names the program and graph."""
        traced: Dict[Tracer, SynchronizerSweep] = {}

        def traced_sweep(tracer: Tracer) -> SynchronizerSweep:
            if tracer not in traced:
                traced.clear()
                traced[tracer] = SynchronizerSweep(
                    graph, traced_spec(spec, tracer),
                    registry=sweep.registry, max_pulse=sweep.max_pulse,
                )
            return traced[tracer]

        def cell(model) -> Cell:
            return Cell(
                name=f"{app}:{type(model).__name__}",
                model=type(model).__name__,
                run=lambda: sweep.run(model),
                run_traced=lambda tracer: traced_sweep(tracer).run(
                    TracedDelay(model, tracer)
                ),
                signature=_run_signature,
                oracle=oracle,
                cost=cost,
            )

        return [cell(model) for model in models]


#: Churn cells: (label, fault-schedule keyword arguments, recovery mode,
#: graphs).  Crash schedules protect the BFS root, as ``run_churn``
#: requires.  Two grid cells fail on some seeds because of defects in
#: ``core.recovery``, so the grid runs neither: its ``reanchor`` patch
#: (orphans and anchors) can induce a disconnected subgraph, and
#: ``run_synchronized`` then raises; and after a crash with re-join, the
#: degrade pass can answer a neighbour of the root above ``dist_H``.  The
#: grid's rejoin cell runs in ``rebuild`` mode instead, whose outputs are
#: exact.  ``test_perfbench.py`` reproduces both defects.
CHURN_CELLS = (
    ("link", dict(down_rate=0.05), "degrade", ("cycle", "grid")),
    ("flap", dict(down_rate=0.05, recurrent=True), "degrade",
     ("cycle", "grid")),
    ("crash", dict(crash_rate=0.1, protect=(0,)), "degrade", ("cycle", "grid")),
    ("crash", dict(crash_rate=0.1, protect=(0,)), "reanchor", ("cycle",)),
    ("crash", dict(crash_rate=0.1, protect=(0,)), "rebuild", ("cycle", "grid")),
    ("rejoin", dict(crash_rate=0.1, rejoin_rate=1.0, protect=(0,)), "degrade",
     ("cycle",)),
    ("rejoin", dict(crash_rate=0.1, rejoin_rate=1.0, protect=(0,)), "reanchor",
     ("cycle",)),
    ("rejoin", dict(crash_rate=0.1, rejoin_rate=1.0, protect=(0,)), "rebuild",
     ("grid",)),
)


class Churn:
    """``run_churn`` on a cycle and a grid under seeded fault schedules."""

    name = "churn"

    def __init__(self, smoke: bool = False) -> None:
        self.cycle_n, self.grid_side = (24, 5) if smoke else (128, 16)
        # Crash and rejoin cells average several seeded schedules: one
        # schedule's crash set moves the overheads by several percent.
        self.draws = 1 if smoke else 3

    def setup(self, seed: int) -> Setup:
        clock = _SetupClock()
        model = UniformDelay(seed)
        cells = []
        graphs = (
            ("cycle", f"cycle-{self.cycle_n}",
             topology.cycle_graph(self.cycle_n)),
            ("grid", f"grid-{self.grid_side}x{self.grid_side}",
             topology.grid_graph(self.grid_side, self.grid_side)),
        )
        for kind, gname, graph in graphs:
            # run_churn builds its registry through the same graph-keyed
            # cache, so the cover is set-up here, not part of the run.
            bound = clock.pulse_bound(graph, bfs_spec(0))
            clock.count(clock.registry(graph, bound))
            ref = _reference(graph, bfs_spec(0))
            dist_g = functools.cache(
                lambda graph=graph: _bfs_dist(graph, set(graph.nodes))
            )
            for label, kwargs, mode, kinds in CHURN_CELLS:
                if kind not in kinds:
                    continue
                exact = label in ("link", "flap")
                for k in range(1 if exact else self.draws):
                    # Draw 0 uses FaultSchedule's default label, so seed
                    # 2305 gives the schedules DESIGN.md and E12 quote.
                    faults = FaultSchedule(
                        seed, label="faults" if k == 0 else f"faults-{k}",
                        **kwargs,
                    )
                    cells.append(self._cell(
                        f"{label}-{mode}:{gname}#{k}", graph, bound, model,
                        faults, mode, ref, dist_g, exact=exact,
                    ))
        return clock.setup(cells)

    def _cell(self, name, graph, bound, model, faults, mode, ref, dist_g,
              exact: bool) -> Cell:
        def run():
            return run_churn(graph, bfs_spec, model, faults, mode=mode,
                             max_pulse=bound)

        def run_traced(tracer: Tracer):
            return run_churn(
                graph, lambda root: traced_spec(bfs_spec(root), tracer),
                TracedDelay(model, tracer), faults, mode=mode,
                max_pulse=bound,
            )

        def signature(out) -> tuple:
            return (out.total_messages, out.dropped, out.answered,
                    out.events_fired, out.time_to_output,
                    out.time_to_quiescence, digest_outputs(out.outputs))

        def oracle(out, trace: CellTrace) -> List[str]:
            errors = []
            if out.stop_reason != "quiescent":
                errors.append(f"stopped: {out.stop_reason}")
            if exact and out.outputs != ref().outputs:
                errors.append("link-only churn changed the outputs")
            low = dist_g()
            high = _bfs_dist(graph, set(out.survivors))
            for v, value in out.outputs.items():
                if not low[v] <= value[0] <= high[v]:
                    errors.append(
                        f"node {v}: {value[0]} outside [{low[v]}, {high[v]}]"
                    )
                    break
            if mode != "degrade" and out.answered != out.survivor_count:
                errors.append(
                    f"{mode} answered {out.answered} of"
                    f" {out.survivor_count} survivors"
                )
            return errors

        def cost(out, trace: CellTrace) -> Cost:
            time = out.time_to_output
            if trace.repairs:
                # A repair pass starts once the degrade pass is quiescent.
                time = out.time_to_quiescence + sum(
                    r.time_to_output for r in trace.repairs
                )
            return Cost(
                messages=out.total_messages,
                base_messages=ref().messages + graph.num_edges,
                time=time,
                base_time=ref().rounds_to_output,
                answered=out.answered,
                survivors=out.survivor_count,
            )

        return Cell(
            name=name,
            model=type(model).__name__,
            run=run,
            run_traced=run_traced,
            signature=signature,
            oracle=oracle,
            cost=cost,
            counts=lambda out: {
                "core.recovery.repair_msgs":
                    out.rebuild_messages + out.reanchor_messages,
            },
        )


class Check:
    """``repro.check.explore`` over fixed cells: two exhaustive ones (the
    registration cell is the crash-at-each-point matrix) and two at a
    fixed execution budget.  The cells take no seed: their graphs are
    fixed and the controller, not a delay model, orders events."""

    name = "check"

    def __init__(self, smoke: bool = False) -> None:
        if smoke:
            self.specs = (("sync-bfs:star:2", None), ("reg:star:2:crash", None),
                          ("churn:cycle:5:crash:2", 1),
                          ("rejoin:cycle:5:crash:2", 1))
        else:
            self.specs = (("sync-bfs:star:4", None), ("reg:star:4:crash", None),
                          ("churn:cycle:5:crash:2", 30),
                          ("rejoin:cycle:5:crash:2", 30))

    def setup(self, seed: int) -> Setup:
        cells = []
        for spec, budget in self.specs:
            for workload in expand_workloads(spec):
                cells.append(self._cell(workload, budget))
        return Setup(cells)

    def _cell(self, workload, budget: Optional[int]) -> Cell:
        spec = getattr(workload, "spec", None)
        ref = None if spec is None else _reference(workload.graph, spec)
        traced: Dict[Tracer, Any] = {}

        def run():
            return explore(workload, budget=budget)

        def run_traced(tracer: Tracer):
            if tracer not in traced:
                traced.clear()
                copy = build_workload(workload.name)
                attrs = {} if spec is None else {
                    "spec": traced_spec(copy.spec, tracer)
                }
                copy.process_cls = traced_process_class(
                    copy.process_cls, tracer, **attrs
                )
                trace_probes(copy, tracer)
                traced[tracer] = copy
            return explore(traced[tracer], budget=budget)

        def signature(report) -> tuple:
            return (report.executions, report.steps_total, report.states,
                    report.state_pruned, report.pruned_executions,
                    report.exhausted, report.violation)

        def oracle(report, trace: CellTrace) -> List[str]:
            errors = []
            if report.violation is not None:
                errors.append(f"violation {report.violation}")
            if budget is None and not report.exhausted:
                errors.append("exhaustive cell did not exhaust")
            return errors

        def cost(report, trace: CellTrace) -> Cost:
            total = Cost()
            for loop, graph, crashed, rejoined, result in trace.runs:
                live = (set(graph.nodes) - set(crashed)) | set(rejoined)
                survivors = _bfs_dist(graph, live, workload.root)
                total.answered += sum(1 for v in survivors if v in result.outputs)
                total.survivors += len(survivors)
                if ref is not None:
                    total.messages += result.messages
                    total.base_messages += ref().messages + graph.num_edges
                    total.time += result.time_to_output
                    total.base_time += ref().rounds_to_output
            return total

        def counts(report) -> Dict[str, int]:
            return {
                "check.executions": report.executions,
                "check.useful": report.executions - report.state_pruned
                - report.pruned_executions,
                "check.steps": report.steps_total,
                "check.states": report.states,
            }

        return Cell(
            name=f"{workload.name}" + ("" if budget is None else f"@{budget}"),
            model="",
            run=run,
            run_traced=run_traced,
            signature=signature,
            oracle=oracle,
            cost=cost,
            counts=counts,
        )


WORKLOADS = {w.name: w for w in (DeepCycle, WideApps, Churn, Check)}
