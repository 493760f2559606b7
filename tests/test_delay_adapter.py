"""The transport's fill adapter for callable-only delay models.

A delay model that is just a callable (no ``block_stream``) is served by
the same block path as the shipped models: the transport wraps it in a
fill that calls it once per draw.  Wrapping each shipped model so that
only its ``__call__`` is visible must therefore change nothing — delivery
trace, outputs, message and ack counts are byte-identical to the model's
own block fills, fault-free, under a seeded fault schedule, and through
the ``on_delivered`` double-inject race whose acknowledgment is re-drawn
via ``__call__``.
"""

import pytest

from test_engine_equivalence import AckChainSender

from repro.apps.programs import bfs_spec
from repro.core.sweep import SynchronizerSweep
from repro.net import (
    AsyncRuntime,
    FaultSchedule,
    Process,
    standard_adversaries,
    topology,
)

MODELS = standard_adversaries(seed=5)


class CallableOnly:
    """Exposes only ``__call__`` of the wrapped model."""

    def __init__(self, model):
        self._model = model

    def __call__(self, u, v, seq, now):
        return self._model(u, v, seq, now)


def _run(graph, process_cls, model, **kwargs):
    trace = []
    runtime = AsyncRuntime(
        graph, process_cls, model,
        trace=lambda t, u, v, p: trace.append((t, u, v, p)), **kwargs,
    )
    return trace, runtime.run()


def _assert_adapter_identical(graph, process_cls, model, **kwargs):
    block_trace, block_result = _run(graph, process_cls, model, **kwargs)
    call_trace, call_result = _run(
        graph, process_cls, CallableOnly(model), **kwargs
    )
    assert call_trace == block_trace
    # Dataclass equality: outputs, messages, acks, times, every field.
    assert call_result == block_result
    return block_result


class Gossip(Process):
    """Max-flooding with ack interest and crash handling."""

    def on_start(self):
        self.best = self.ctx.node_id
        for v in self.ctx.neighbors:
            self.ctx.send(v, ("max", self.best))

    def on_message(self, sender, payload):
        value = payload[1]
        if value > self.best:
            self.best = value
            self.ctx.set_output(value)
            for v in self.ctx.neighbors:
                self.ctx.send(v, ("max", value))

    def on_delivered(self, to, payload):
        self.acked = getattr(self, "acked", 0) + 1

    def on_neighbor_dead(self, neighbor):
        self.ctx.reset_link(neighbor)


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_adapter_fault_free(model):
    graph = topology.cycle_graph(8)
    sync = SynchronizerSweep(graph, bfs_spec(0)).process_cls
    result = _assert_adapter_identical(graph, sync, model)
    assert result.stop_reason == "quiescent"
    _assert_adapter_identical(topology.grid_graph(3, 4), Gossip, model)


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_adapter_under_seeded_faults(model):
    faults = FaultSchedule(seed=21, crash_rate=0.2, down_rate=0.3,
                           drop_rate=0.1)
    result = _assert_adapter_identical(
        topology.grid_graph(3, 4), Gossip, model, faults=faults
    )
    assert result.dropped > 0  # the schedule really bites


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_adapter_double_inject_ack_redraw(model, monkeypatch):
    redraws = []
    ack_delay = AsyncRuntime._ack_delay

    def counting_ack_delay(self, lid):
        redraws.append(lid)
        return ack_delay(self, lid)

    monkeypatch.setattr(AsyncRuntime, "_ack_delay", counting_ack_delay)
    graph = topology.path_graph(2)
    for burst in (1, 3):
        for extra in (2, 5):
            process_cls = type(
                "AckChain", (AckChainSender,), {"burst": burst, "extra": extra}
            )
            _assert_adapter_identical(graph, process_cls, model)
    assert redraws  # the race re-drew acknowledgments through __call__
