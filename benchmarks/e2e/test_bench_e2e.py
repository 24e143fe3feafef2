"""Self-tests of the end-to-end benchmark (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  Everything
here uses the ``--quick`` world (bits 13, 600 services).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import checks, inputs, run, stats  # noqa: E402
from benchmarks.e2e.catalogue import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from benchmarks.e2e.tracing import TARGETS, Tracer, install_platform_wrappers  # noqa: E402

WORKLOAD_NAMES = [name for name, _why in WORKLOADS]
RUN_PY = str(ROOT / "benchmarks" / "e2e" / "run.py")


def _driver_run(workload: str, trace: int) -> subprocess.CompletedProcess:
    """The command exactly as the driver issues it (plus ``--quick``)."""
    return subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", "11",
         "--seconds", "8", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_benchmark_json_declares_the_catalogue():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["run_seconds"] == inputs.NOMINAL_SECONDS
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == PER_LAYER
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]] + WORKLOAD_NAMES
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in declared["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_quick_run_emits_exactly_the_declared_metrics(workload, trace):
    done = _driver_run(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = PER_LAYER if trace else END_TO_END
    assert list(last["metrics"]) == [row[0] for row in declared]
    for row in declared:
        metric = last["metrics"][row[0]]
        assert set(metric) == {"value", "unit"} and metric["unit"] == row[1]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in last["metrics"].values())
    # One human-readable line per metric: workload metric value unit.
    lines = {tuple(line.split()[:2]) for line in done.stdout.splitlines()}
    assert all((workload, row[0]) in lines for row in declared)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command fails fast."""
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for source in (ROOT / "benchmarks" / "e2e").glob("*.py"):
        (bare / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "map_build", "--seed", "1",
         "--seconds", "8", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")


def test_span_self_times_sum_to_each_root_and_wrappers_come_off():
    result = run.run_one("serve_under_ingest", seed=11, seconds=8.0, trace=True, quick=True)
    spans = result["spans"]
    n = len(spans["start"])
    assert n == result["info"]["span_count"] > 0
    duration = [spans["end"][i] - spans["start"][i] for i in range(n)]
    own = list(duration)
    root_of = list(range(n))
    for i, parent in enumerate(spans["parent"]):
        if parent >= 0:
            assert parent < i and spans["start"][parent] <= spans["start"][i]
            assert spans["end"][i] <= spans["end"][parent]
            own[parent] -= duration[i]
            root_of[i] = root_of[parent]
    assert min(own) > -1e-9
    per_root = {}
    for i in range(n):
        per_root[root_of[i]] = per_root.get(root_of[i], 0.0) + own[i]
    for root, total in per_root.items():
        assert total == pytest.approx(duration[root], abs=1e-6)
    # Layer seconds are those same self times, regrouped.
    layer_total = sum(
        m["value"] for name, m in result["metrics"].items()
        if name.endswith("_s") and not name.startswith("tick.")
    )
    assert layer_total + result["info"]["tick_self_s"] == pytest.approx(sum(duration[r] for r in per_root), rel=1e-6)


def test_wrappers_are_fully_removed(tmp_path):
    from repro.core.platform import CensysPlatform

    world = inputs.build_world(11, inputs.sizes_for(8.0, quick=True))
    plat = CensysPlatform(world, inputs.full_config(11, str(tmp_path)), start_time=-24.0)
    try:
        tracer = Tracer()
        install_platform_wrappers(tracer, plat)
        wrapped = [(getattr(plat, path) if path else plat, attr) for path, attr, _ in TARGETS]
        assert not tracer.skipped
        assert all(attr in vars(obj) for obj, attr in wrapped)
        plat.tick(6.0)
        plat.lookup_host(1)
        counts = {name: row["count"] for name, row in tracer.summary().items()}
        assert counts["tick"] == 1 and counts["serving.lookup_host"] == 1
        tracer.uninstall()
        assert all(attr not in vars(obj) for obj, attr in wrapped)
        before = len(tracer)
        plat.tick(1.0)
        assert len(tracer) == before
    finally:
        plat.close()


def test_missing_targets_are_skipped_not_guessed():
    class Slotted:
        __slots__ = ()

        def go(self):
            return 1

    tracer = Tracer()
    assert tracer.wrap(Slotted(), "go", "slotted.go") is False
    assert tracer.wrap(object(), "absent", "object.absent") is False
    assert tracer.skipped == ["slotted.go", "object.absent"]


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(range(999), 0.99) is None
    assert stats.percentile(range(1000), 0.99) == 989
    assert stats.percentile(range(19), 0.5) is None
    assert stats.percentile(range(20), 0.5) == 9
    for n in range(1, 1200, 7):
        for q in (0.5, 0.9, 0.99):
            value = stats.percentile(range(n), q)
            if value is not None:
                assert n - 1 - value >= stats.MIN_BEYOND
    with pytest.raises(ValueError):
        stats.require_percentile(range(50), 0.99, "too few")


def test_a_corrupted_sampled_answer_fails_the_command(monkeypatch, capsys):
    keep = checks.AnswerSample.keep
    state = {"corrupted": False}

    def corrupting_keep(self, position, answer):
        if not state["corrupted"] and isinstance(answer, list):
            state["corrupted"] = True
            answer = answer + ["host:not-an-answer"]
        keep(self, position, answer)

    monkeypatch.setattr(checks.AnswerSample, "keep", corrupting_keep)
    code = run.main(["--workload", "serve_read", "--seed", "11", "--trace", "0", "--quick"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert state["corrupted"]
    assert code == 1
    assert last["correct"] is False and last["failed"] == last["attempted"]


def test_no_wal_directories_are_left_behind():
    """After every run above: no stray segment files, no workload dirs."""
    assert checks.leaked_wal_files(str(ROOT)) == []
    if run.WORK_ROOT.exists():
        assert [p.name for p in run.WORK_ROOT.iterdir() if p.is_dir()] == []
