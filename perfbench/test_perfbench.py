"""Tests of the benchmark itself, at the smoke scale of each workload.

They check the output contract (every metric of BENCHMARK.json printed by
name with its unit, last line one JSON object), that counts repeat exactly
across invocations, that the seed drives the inputs, and that the command
fails without printing a result when the program's sources are absent.
The last two tests reproduce the ``core.recovery`` defects that keep two
cells off the ``churn`` workload's grid (see ``cells.CHURN_CELLS``); they
are expected to fail until the program is fixed, and then the cells go
back.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 2305

_cache = {}


def invoke(workload: str, trace: int, seed: int = SEED, again: bool = False):
    """(exit code, stdout lines) of one smoke invocation, memoized unless
    ``again`` asks for a fresh one."""
    key = (workload, trace, seed)
    if again or key not in _cache:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main([
                "--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace), "--scale", "smoke",
            ])
        result = (code, out.getvalue().splitlines())
        if again:
            return result
        _cache[key] = result
    return _cache[key]


def metrics_of(lines):
    return json.loads(lines[-1])["metrics"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    code, lines = invoke(workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
               if not line.startswith("#")}
    for m in expected:
        assert printed[m["name"]] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _exact(metrics, trace):
    """The metrics that are counts or ratios of counts: they must repeat."""
    if trace:
        return {k: v["value"] for k, v in metrics.items()
                if v["unit"] == "count" or k.endswith(("_ratio", "_per_app_msg"))}
    return {k: v["value"] for k, v in metrics.items()
            if k in ("msg_overhead", "time_overhead", "answered_frac")}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_invocations(workload, trace):
    first = _exact(metrics_of(invoke(workload, trace)[1]), trace)
    code, lines = invoke(workload, trace, again=True)
    assert code == 0
    assert _exact(metrics_of(lines), trace) == first


def test_layer_messages_add_up_and_split_as_designed():
    layer = metrics_of(invoke("deep-cycle", 1)[1])
    assert layer["apps.msgs"]["value"] > 0
    assert layer["core.registration.msgs"]["value"] > 0
    assert layer["net.async_runtime.faulty_s"]["value"] == 0
    assert layer["net.async_runtime.controlled_s"]["value"] == 0
    churn = metrics_of(invoke("churn", 1)[1])
    assert churn["net.async_runtime.faulty_s"]["value"] > 0
    assert churn["net.async_runtime.controlled_s"]["value"] == 0
    check = metrics_of(invoke("check", 1)[1])
    assert check["net.async_runtime.controlled_s"]["value"] > 0
    assert check["net.async_runtime.faulty_s"]["value"] == 0
    assert check["check.executions"]["value"] > 0


@pytest.mark.parametrize("workload", ["deep-cycle", "wide-apps", "churn"])
def test_seed_drives_the_inputs(workload):
    """A second seed gives other inputs (other overheads) and still passes
    every oracle."""
    code, lines = invoke(workload, 0, seed=SEED + 1)
    assert code == 0
    assert json.loads(lines[-1])["correct"] is True
    assert _exact(metrics_of(lines), 0) != _exact(
        metrics_of(invoke(workload, 0)[1]), 0
    )


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="core.recovery: a root neighbour answers above dist_H")
def test_rejoin_degrade_on_grid_stays_within_dist_h():
    """Every crashed node re-joins, so H is the whole 5x5 grid and node 5,
    a neighbour of the root, must answer 1; on this schedule it answers
    more."""
    from repro.apps import bfs_spec
    from repro.core import pulse_bound_for, run_churn
    from repro.net import FaultSchedule, UniformDelay, topology

    graph = topology.grid_graph(5, 5)
    faults = FaultSchedule(17, crash_rate=0.1, rejoin_rate=1.0, protect=(0,))
    out = run_churn(graph, bfs_spec, UniformDelay(17), faults, mode="degrade",
                    max_pulse=pulse_bound_for(graph, bfs_spec(0)))
    assert 5 in out.survivors
    assert out.outputs[5][0] <= 1


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="core.recovery: the reanchor patch can be disconnected")
def test_crash_reanchor_on_grid_runs():
    """The reanchor pass runs the synchronizer on the subgraph induced by
    the orphans and their anchors; on this schedule of the 6x6 grid that
    subgraph is disconnected and building its covers raises."""
    from repro.apps import bfs_spec
    from repro.core import pulse_bound_for, run_churn
    from repro.net import FaultSchedule, UniformDelay, topology

    graph = topology.grid_graph(6, 6)
    faults = FaultSchedule(29, crash_rate=0.1, protect=(0,))
    out = run_churn(graph, bfs_spec, UniformDelay(29), faults, mode="reanchor",
                    max_pulse=pulse_bound_for(graph, bfs_spec(0)))
    assert out.answered == out.survivor_count
