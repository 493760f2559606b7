"""The slow dispatch loop and its two pickers (DESIGN.md §11, §13, §15).

Fault-schedule runs pick the next record by the clock; controlled runs pick
it by ``ScheduleController.choose``.  Everything after the pick is one
dispatch, so a controller that always picks the earliest ``(time, seq)``
must reproduce the plain clock-ordered run exactly, and a node the
controller crashes must lose its environment steps just as a node a fault
schedule crashes does.
"""

import pytest

from repro.check.workloads import SyncWorkload
from repro.net.async_runtime import (
    CTRL_CALLBACK,
    CTRL_CRASH,
    AsyncRuntime,
    Process,
    ScheduleController,
)
from repro.net.delays import ConstantDelay, standard_adversaries
from repro.net.topology import cycle_graph, grid_graph, path_graph, star_graph


class _TimeOrder(ScheduleController):
    """Always fires the record the clock would fire next."""

    def choose(self, events):
        return min(
            range(len(events)),
            key=lambda i: (events[i].record[0], events[i].seq),
        )


_GRAPHS = {
    "cycle8": lambda: cycle_graph(8),
    "grid3x3": lambda: grid_graph(3, 3),
    "star6": lambda: star_graph(6),
}


@pytest.mark.parametrize("adversary", range(len(standard_adversaries())))
@pytest.mark.parametrize("graph_name", sorted(_GRAPHS))
def test_time_order_controller_reproduces_the_clock(graph_name, adversary):
    graph = _GRAPHS[graph_name]()
    process_cls = SyncWorkload("sync-bfs", graph).process_cls
    clock = AsyncRuntime(
        graph, process_cls, standard_adversaries()[adversary],
        count_fused_acks=True,
    ).run()
    controlled = AsyncRuntime(
        graph, process_cls, standard_adversaries()[adversary],
        controller=_TimeOrder(),
    ).run()
    assert controlled.stop_reason == clock.stop_reason == "quiescent"
    assert controlled.outputs == clock.outputs
    assert controlled.output_time == clock.output_time
    assert controlled.messages == clock.messages
    assert controlled.acks == clock.acks
    assert controlled.time_to_output == clock.time_to_output
    assert controlled.time_to_quiescence == clock.time_to_quiescence
    assert controlled.events_fired == clock.events_fired


def test_controlled_run_rejects_max_time():
    runtime = AsyncRuntime(
        path_graph(2), Process, ConstantDelay(0.5), controller=_TimeOrder()
    )
    with pytest.raises(ValueError, match="max_time"):
        runtime.run(max_time=1.0)
    # Nothing was scheduled: the runtime still runs under its step budget.
    assert runtime.run(max_events=100).stop_reason == "quiescent"


def test_controller_crash_drops_environment_steps():
    steps = []

    class EnvSender(Process):
        def on_start(self):
            if self.ctx.node_id == 0:
                self.ctx.schedule_environment_event(0.5, self._late_send)

        def _late_send(self):
            steps.append(self.ctx.node_id)
            self.ctx.send(1, ("late",))

    class StartThenCrash(ScheduleController):
        """Start node 0, crash it, then fire the rest in seq order."""

        crashable = (0,)

        def __init__(self):
            self.offered = []
            self.script = {1: (CTRL_CALLBACK, 0), 2: (CTRL_CRASH, 0)}

        def choose(self, events):
            self.offered.append([(e.kind, e.node) for e in events])
            want = self.script.get(len(self.offered))
            if want is None:
                return 0
            return [(e.kind, e.node) for e in events].index(want)

    controller = StartThenCrash()
    result = AsyncRuntime(
        path_graph(3), EnvSender, ConstantDelay(), controller=controller
    ).run()
    # The environment event was offered as a step of node 0 and fired as a
    # no-op: the corpse takes no environment step and sends nothing.
    assert any(
        (CTRL_CALLBACK, 0) in offered for offered in controller.offered[2:]
    )
    assert steps == []
    assert result.messages == 0
    assert result.stop_reason == "quiescent"
