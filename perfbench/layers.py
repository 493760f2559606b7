"""Per-layer spans taken from outside the program.

Every span is recorded by a wrapper around a public entry point of one
layer; nothing under ``src/`` is edited.  :func:`instrument` swaps those
entry points for the wrapped versions and puts the originals back on exit,
so untraced runs execute the unmodified code.

A span has a name, a start, an end and a parent (the span open when it
began).  Spans are aggregated as they close, per name: count, total
seconds and self seconds, where self time is the duration minus the part
the span's children cover.  The simulator is a single-threaded
discrete-event loop in which nothing waits, so busy time and counts are
the whole story for each layer.

Layer names follow the modules: ``net.async_runtime`` (one span per
``AsyncRuntime.run``, named by the dispatch loop it takes),
``net.delays`` (block fills), ``core.cluster_ops`` / ``core.registration``
/ ``core.synchronizer`` (dispatch-table entries, grouped by the opcode
constants those modules define), ``apps`` (program ``on_start`` /
``on_pulse``), ``core.recovery`` (repair passes) and ``check`` (model
checker executions and probes).
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Callable, Dict, Iterator, List, Sequence

from repro.check import explorer as check_explorer
from repro.core import cluster_ops, recovery, registration, synchronizer
from repro.core import sweep as core_sweep
from repro.net.async_runtime import AsyncRuntime
from repro.net.program import ProgramSpec

from hostspeed import clock

#: Span name of each synchronizer wire opcode.  Program messages (opcode
#: 8) get their own name so ``apps.msgs`` can count them; their handler is
#: synchronizer code, so its time is reported with ``core.synchronizer``.
APP_MSG = "core.synchronizer.app_msg"


def _opcode_layers() -> tuple:
    layers: Dict[int, str] = {}
    for op in (cluster_ops.OP_AGG_UP, cluster_ops.OP_AGG_DOWN):
        layers[op] = "core.cluster_ops"
    for op in (registration.OP_REG_UP, registration.OP_REG_DONE,
               registration.OP_REG_DEREG, registration.OP_REG_GO_AHEAD):
        layers[op] = "core.registration"
    for op in (synchronizer.OP_CHILD_ANS, synchronizer.OP_VFLOW,
               synchronizer.OP_VGA, synchronizer.OP_VRELEASE):
        layers[op] = "core.synchronizer"
    layers[synchronizer.OP_APP] = APP_MSG
    if sorted(layers) != list(range(len(layers))):
        raise RuntimeError(f"opcode ranges are not contiguous: {sorted(layers)}")
    return tuple(layers[op] for op in range(len(layers)))


OPCODE_LAYERS = _opcode_layers()
#: Span names whose counts are delivered messages; they partition every
#: delivery, which is what the ledger check relies on.
MESSAGE_SPANS = tuple(sorted(set(OPCODE_LAYERS)))
LOOPS = ("fast", "faulty", "controlled")


class Tracer:
    """In-memory span aggregation plus a few plain counters."""

    def __init__(self) -> None:
        self._stats: Dict[str, List[float]] = {}
        self._stack: List[List[float]] = []
        self.counters: Dict[str, float] = {}
        #: One line per ``AsyncRuntime.run`` whose delivered messages did
        #: not add up to ``messages - dropped``.
        self.ledger_errors: List[str] = []
        #: ``(loop, graph, crashed, rejoined, AsyncResult)`` of every
        #: ``AsyncRuntime.run`` that returned, in call order.
        self.runs: List[tuple] = []
        #: ``AsyncResult`` of every repair pass, in call order.
        self.repairs: List[Any] = []

    def _slot(self, name: str) -> List[float]:
        slot = self._stats.get(name)
        if slot is None:
            slot = self._stats[name] = [0, 0.0, 0.0]
        return slot

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        slot = self._slot(name)
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                slot[0] += 1
                slot[1] += took
                slot[2] += took - frame[0]
                if stack:
                    stack[-1][0] += took

        return traced

    def wrap_by_opcode(self, fn: Callable) -> Callable:
        """A message handler whose span is named by the payload's opcode."""
        by_op = [self.wrap(name, fn) for name in OPCODE_LAYERS]
        return lambda sender, payload: by_op[payload[0]](sender, payload)

    def count(self, name: str) -> int:
        return int(self._stats.get(name, (0,))[0])

    def self_s(self, name: str) -> float:
        return self._stats.get(name, (0, 0.0, 0.0))[2]

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def delivered(self) -> int:
        return sum(self.count(name) for name in MESSAGE_SPANS)


class _TracedProcess:
    """Mixin for a process class: wraps its handlers after ``__init__``.

    Both delivery entry points are wrapped.  The transport calls exactly one
    of them per delivery, and ``SynchronizerProcess.on_message`` dispatches
    through the node's own (unwrapped) table, so no delivery is counted
    twice.
    """

    tracer: Tracer

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        tracer = self.tracer
        table = self.on_message_table
        if table is not None:
            self.on_message_table = tuple(
                tracer.wrap(OPCODE_LAYERS[op], handler)
                for op, handler in enumerate(table)
            )
        self.on_message = tracer.wrap_by_opcode(self.on_message)


def traced_process_class(base: type, tracer: Tracer, **attrs: Any) -> type:
    """A subclass of ``base`` whose instances record handler spans."""
    return type(
        "Traced" + base.__name__, (_TracedProcess, base),
        dict(attrs, tracer=tracer),
    )


def traced_spec(spec: ProgramSpec, tracer: Tracer) -> ProgramSpec:
    """``spec`` with each program's ``on_start``/``on_pulse`` as ``apps``
    spans (wrapped on the instance the factory returns)."""
    factory = spec.node_factory

    def node_factory(info):
        program = factory(info)
        program.on_start = tracer.wrap("apps", program.on_start)
        program.on_pulse = tracer.wrap("apps", program.on_pulse)
        return program

    return dataclasses.replace(spec, node_factory=node_factory)


class TracedDelay:
    """Delegating delay model: every block fill is a ``net.delays`` span.

    Exposes exactly the draw APIs the wrapped model has, so the transport
    picks the same path it would pick for the model itself.
    """

    def __init__(self, model: Any, tracer: Tracer) -> None:
        self._model = model
        self._tracer = tracer

    def __call__(self, u, v, seq, now):
        return self._model(u, v, seq, now)

    def __getattr__(self, name: str) -> Any:
        # Only reached for names not defined here: link_stream,
        # pair_stream and the model's own attributes.
        return getattr(self._model, name)

    @property
    def block_stream(self) -> Callable:
        inner = self._model.block_stream  # AttributeError if absent
        tracer = self._tracer

        def block_stream(u, v):
            return tracer.wrap("net.delays.fill", inner(u, v))

        return block_stream


def _traced_runtime_run(tracer: Tracer, run: Callable) -> Callable:
    """``AsyncRuntime.run`` as a span named by its dispatch loop, with the
    per-run ledger check: deliveries equal ``messages - dropped``."""
    spans = {loop: tracer.wrap(f"net.async_runtime.{loop}", run)
             for loop in LOOPS}

    def traced_run(self, *args, **kwargs):
        # The same rule AsyncRuntime.run uses to pick its loop.
        if self.controller is not None:
            loop = "controlled"
        elif self.faults is not None:
            loop = "faulty"
        else:
            loop = "fast"
        before = tracer.delivered()
        result = spans[loop](self, *args, **kwargs)
        delivered = tracer.delivered() - before
        tracer.add(f"net.async_runtime.{loop}_events", result.events_fired)
        tracer.add("net.faults.dropped", result.dropped)
        tracer.runs.append((loop, self.graph, dict(self.crashed),
                            dict(self.rejoined), result))
        if delivered != result.messages - result.dropped:
            tracer.ledger_errors.append(
                f"{loop} run on n={self.graph.num_nodes}: layers saw"
                f" {delivered} deliveries, runtime reports"
                f" {result.messages} messages - {result.dropped} dropped"
            )
        return result

    return traced_run


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Swap each layer's entry points for traced wrappers; restore on exit.

    Process classes are replaced at the names their callers look up
    (``run_synchronized``, ``SynchronizerSweep`` and ``run_churn`` build
    their per-run subclasses from these module globals).
    """
    sync_cls = traced_process_class(synchronizer.SynchronizerProcess, tracer)
    recovery_cls = traced_process_class(
        recovery.RecoverySynchronizerProcess, tracer
    )
    repair = tracer.wrap("core.recovery.repair", recovery.run_synchronized)

    def traced_repair(*args, **kwargs):
        result = repair(*args, **kwargs)
        tracer.repairs.append(result)
        return result

    swaps = [
        (AsyncRuntime, "run", _traced_runtime_run(tracer, AsyncRuntime.run)),
        (synchronizer, "SynchronizerProcess", sync_cls),
        (core_sweep, "SynchronizerProcess", sync_cls),
        (recovery, "RecoverySynchronizerProcess", recovery_cls),
        (recovery, "run_synchronized", traced_repair),
        (check_explorer, "run_execution",
         tracer.wrap("check.execution", check_explorer.run_execution)),
    ]
    saved = [(target, name, getattr(target, name)) for target, name, _ in swaps]
    try:
        for target, name, value in swaps:
            setattr(target, name, value)
        yield
    finally:
        for target, name, value in saved:
            setattr(target, name, value)


def trace_probes(workload: Any, tracer: Tracer) -> None:
    """Make every probe the workload hands the explorer record its hook
    calls as ``check.probe`` spans."""
    make = workload.probes

    def probes() -> Sequence[Any]:
        made = make()
        for probe in made:
            for hook in ("reset", "before_step", "after_step", "at_end"):
                setattr(probe, hook,
                        tracer.wrap("check.probe", getattr(probe, hook)))
        return made

    workload.probes = probes

