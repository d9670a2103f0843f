"""Tests of the benchmark's own parts.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Recorder, Span, layer_metrics, self_time  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _child(parent, name, start, end, **counts):
    span = Span(name, parent, start, end, counts)
    parent.children.append(span)
    return span


def test_self_time_on_nested_span_tree():
    root = Span("cli.main", None, 0.0, 10.0)
    a = _child(root, "fluctuation_sim.estimate_V", 1.0, 4.0)
    _child(a, "batch.run_chunks", 1.5, 2.0, chunks=1, pools=0)
    _child(a, "batch.run_chunks", 3.0, 3.5, chunks=1, pools=0)
    b = _child(root, "transfer_operator.solve_poisson", 5.0, 9.0, G=512, poisson_terms=8)
    assert self_time(root) == pytest.approx(10.0 - 3.0 - 4.0)
    assert self_time(a) == pytest.approx(3.0 - 1.0)
    assert self_time(b) == pytest.approx(4.0)
    # overlapping or out-of-range children are covered once and clipped
    c = Span("cli.main", None, 0.0, 4.0)
    _child(c, "x.y", 1.0, 3.0)
    _child(c, "x.y", 2.0, 5.0)
    assert self_time(c) == pytest.approx(1.0)


def test_layer_metrics_attribute_self_time_once():
    root = Span("cli.main", None, 0.0, 10.0)
    v = _child(root, "fluctuation_sim.estimate_V", 1.0, 4.0, nominal_steps=1000)
    _child(v, "batch.run_chunks", 1.5, 3.5, chunks=2, pools=1)
    p = _child(root, "transfer_operator.solve_poisson", 5.0, 9.0, G=1024, poisson_terms=60)
    spans = [root, *root.children, *v.children]
    values = layer_metrics(spans, artifact_bytes=1 << 20)
    assert values["cli.self_s"] == pytest.approx(3.0)
    assert values["fluctuation_sim.estimate_V_s"] == pytest.approx(1.0)
    assert values["batch.run_chunks_s"] == pytest.approx(2.0)
    assert values["batch.chunks"] == 2 and values["batch.pools_started"] == 1
    assert values["transfer_operator.solve_poisson_s.G1024"] == pytest.approx(p.duration)
    assert values["transfer_operator.poisson_terms.G1024"] == 60
    assert values["transfer_operator.dense_mb.G1024"] == pytest.approx(8.0)
    assert values["fluctuation_sim.ns_per_killed_nominal_step"] == pytest.approx(1e9 * 3.0 / 1000)
    assert values["cli.artifact_mb"] == pytest.approx(1.0)
    self_total = values["cli.self_s"] + values["fluctuation_sim.self_s"]
    self_total += values["batch.run_chunks_s"] + values["transfer_operator.self_s"]
    assert self_total == pytest.approx(root.duration)


def test_metric_names_are_valid_and_match_the_code():
    bench = _benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_traced_wrappers_restore_the_originals():
    import importlib

    points = tracing._trace_points()
    originals = {(mod, attr): getattr(importlib.import_module(mod), attr) for mod, attr, _, _ in points}
    with pytest.raises(KeyError):
        with tracing.traced(Recorder()):
            for (mod, attr), fn in originals.items():
                wrapped = getattr(importlib.import_module(mod), attr)
                assert wrapped is not fn and wrapped.__wrapped__ is fn
            raise KeyError("leave the block by an exception")
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn, f"{mod}.{attr} was not restored"


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    bench = _benchmark()
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if trace:
        values = {n: m["value"] for n, m in result["metrics"].items()}
        assert values["trace.wall_s"] > 0.0 and values["trace.untraced_wall_s"] > 0.0
        if workload == "mc-d3k64":
            assert values["batch.pools_started"] > 0 and values["transfer_operator.self_s"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "spectral-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
