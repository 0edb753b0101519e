"""Self-tests of the benchmark itself (not collected by the tier-1 suite).

    python3 -m pytest perfbench/selftest.py -q

They check the span arithmetic on a synthetic trace, that a corrupted
reference digest is counted as a failure, that a smoke-size run of every
workload in both modes emits every metric ``BENCHMARK.json`` names with its
unit, that the benchmark refuses to report without the program, and that
its code passes ``repro-axc lint`` (and ruff, where installed).
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          text=True, capture_output=True, timeout=600)


# ------------------------------------------------------------ arithmetic


def test_self_time_on_a_synthetic_nested_trace():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping: their
    # union [1, 6] covers 5 s); a has child c [1, 2]; d [12, 13] is a
    # second root.
    starts = np.array([0.0, 1.0, 3.0, 1.0, 12.0])
    ends = np.array([10.0, 4.0, 6.0, 2.0, 13.0])
    parents = np.array([-1, 0, 0, 1, -1])
    assert tracing.self_times(starts, ends, parents).tolist() == [5.0, 2.0, 3.0, 1.0, 1.0]

    trace = tracing.Trace(names=["root", "a", "b", "c"],
                          name_ids=np.array([0, 1, 2, 3, 0]), starts=starts,
                          ends=ends, parents=parents,
                          requests=np.array([1, 1, 1, 1, 2]), counters={})
    stats = tracing.aggregate(trace, window=(0.0, 20.0))
    assert stats["root"] == {"calls": 2.0, "self_s": 6.0, "total_s": 11.0}
    assert stats["a"]["self_s"] == 2.0
    assert stats[""]["covered_s"] == 11.0
    assert tracing.aggregate(trace, window=(5.0, 12.5))[""]["covered_s"] == 5.5


def test_recorder_nests_spans_and_shares_request_ids():
    recorder = tracing.SpanRecorder()
    outer = recorder.begin(recorder.name_id("outer"), new_request=True)
    inner = recorder.begin(recorder.name_id("inner"))
    recorder.end(inner)
    recorder.record("observed", 1.0, 2.0)
    recorder.end(outer)
    other = recorder.begin(recorder.name_id("outer"), new_request=True)
    recorder.end(other)
    trace = recorder.trace()
    assert trace.parents.tolist() == [-1, 0, 0, -1]
    assert trace.requests.tolist() == [1, 1, 1, 2]
    assert not np.isnan(trace.ends).any()


def test_install_wraps_and_uninstall_restores():
    from repro.dse.evaluator import Evaluator
    from repro.experiments import runner
    from repro.service import daemon

    before = (Evaluator.evaluate, runner.run_experiment, daemon.run_experiment)
    uninstall = tracing.install(tracing.SpanRecorder())
    try:
        assert Evaluator.evaluate is not before[0]
        assert runner.run_experiment is not before[1]
        assert daemon.run_experiment is runner.run_experiment
    finally:
        uninstall()
    assert (Evaluator.evaluate, runner.run_experiment, daemon.run_experiment) == before


def test_end_to_end_reports_reference_and_measured_seconds():
    tally = workloads.Tally()
    tally.add_time(1.0, [1.0], 0.5)                     # machine at double speed
    tally.add_time(2.0, [2.0, 4.0], 0.5)
    tally.steps, tally.points = 600, 30
    tally.attempted, tally.failed = 4, 1
    reference = workloads.end_to_end(tally, [1.5, 0.5, 1.0], 10.0)
    raw = workloads.end_to_end(tally, [3.0, 1.0, 2.0], 10.0, reference=False)
    assert raw["steps_per_s"] == 200.0 and reference["steps_per_s"] == 400.0
    assert raw["points_per_s"] == 10.0 and raw["requests_per_s"] == 1.0
    assert raw["request_p50_s"] == 2.0 and reference["request_p50_s"] == 1.0
    assert raw["request_p90_s"] == 4.0 and reference["request_p90_s"] == 2.0
    assert raw["setup_s"] == 2.0 and reference["setup_s"] == 1.0
    assert raw["ok_frac"] == reference["ok_frac"] == 0.75
    assert raw["peak_rss_mb"] == 10.0


def test_calibration_is_kept_only_while_the_program_is_idle():
    calibrator = workloads.Calibrator()
    busy = threading.Event()

    def spin() -> None:
        while not busy.is_set():
            pass

    try:
        assert calibrator.sample() is not None
        spinner = threading.Thread(target=spin)
        spinner.start()
        try:
            assert calibrator.sample() is None
        finally:
            busy.set()
            spinner.join()
        assert calibrator.rejected == 1 and len(calibrator.kept) == 1
        assert calibrator.factor(None, None) == (
            workloads.REFERENCE_LOOP_S / calibrator.kept[0])
    finally:
        calibrator.close()


def test_coverage_is_the_share_of_request_time_inside_child_spans():
    # Two requests of 10 s each; children cover 6 s of the first (one of
    # them nested in another, which must not count twice) and 9 s of the
    # second, so 15 of 20 s are covered.
    trace = tracing.Trace(
        names=["experiments.run_experiment", "layer", "inner"],
        name_ids=np.array([0, 1, 2, 0, 1]),
        starts=np.array([0.0, 1.0, 2.0, 20.0, 20.5]),
        ends=np.array([10.0, 7.0, 3.0, 30.0, 29.5]),
        parents=np.array([-1, 0, 1, -1, 3]),
        requests=np.array([1, 1, 1, 2, 2]), counters={})
    assert tracing.coverage(trace) == 0.75
    without_children = tracing.Trace(
        names=trace.names, name_ids=trace.name_ids[[0, 3]], starts=trace.starts[[0, 3]],
        ends=trace.ends[[0, 3]], parents=np.array([-1, -1]),
        requests=np.array([1, 2]), counters={})
    assert tracing.coverage(without_children) == 0.0


def test_a_missing_layer_wrapper_lowers_coverage(monkeypatch):
    from repro.experiments import runner
    from repro.experiments.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict({
        "kind": "campaign", "benchmarks": ["matmul_10x10"], "agents": ["q-learning"],
        "seeds": [0, 1], "max_steps": 300})

    def traced_coverage() -> float:
        recorder = tracing.SpanRecorder()
        uninstall = tracing.install(recorder)
        try:
            runner.run_experiment(spec)
        finally:
            uninstall()
        return tracing.coverage(recorder.trace())

    full = traced_coverage()
    every = tracing._layer_targets
    # Leave out the job-execution chain: executor, job, explorer, env,
    # agent, evaluator and everything below them.
    kept = ("experiments.", "runtime.store.", "runtime.expand", "planner.")
    monkeypatch.setattr(tracing, "_layer_targets", lambda: [
        target for target in every()
        if isinstance(target[2], str) and target[2].startswith(kept)])
    partial = traced_coverage()
    assert full > 0.9
    assert partial < full - 0.2


# ----------------------------------------------------------------- inputs


def test_sequences_are_seeded_and_covered_by_the_references():
    for workload in workloads.WORKLOADS:
        reference = workloads.load_reference(workload)
        first = list(itertools.islice(workloads.sequence(workload, 3), 40))
        assert first == list(itertools.islice(workloads.sequence(workload, 3), 40))
        assert first != list(itertools.islice(workloads.sequence(workload, 4), 40))
        for group in workloads.pools()[workload].values():
            for spec in group:
                assert workloads.fingerprint(spec) in reference


def test_corrupted_reference_digest_counts_as_failure(monkeypatch):
    real = workloads.load_reference("sweep_cold")
    corrupted = {key: "0" * 64 for key in real}
    monkeypatch.setattr(workloads, "load_reference", lambda workload: corrupted)
    run = workloads.Run("sweep_cold", seed=0, seconds=0.01, trace=False)
    metrics, attempted, failed = run.measure()
    assert attempted >= 1 and failed == attempted
    assert metrics["ok_frac"] == 0.0


# ------------------------------------------------------------------ runs


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    meta, result = [json.loads(line) for line in done.stdout.strip().splitlines()[-2:]]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()}
    if trace == "0":
        assert all(value["value"] > 0 for value in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage"]["value"] > 0.5
        assert meta["meta"]["digests_identical"]
    for key in ("python", "numpy", "nproc", "cpu", "git_commit", "src_lines"):
        assert key in meta["meta"]


def test_refuses_to_report_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "sweep_cold", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ---------------------------------------------------------------- contract


def test_declared_metrics_match_what_the_benchmark_produces():
    produced = dict(tracing.layer_metrics())
    produced.update(workloads.service_layer_metrics(None, None, None))
    produced.update(dict.fromkeys(
        ("trace.overhead_frac", "trace.coverage", "trace.spans", "trace.units")))
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(produced)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_benchmark_code_passes_the_repo_lint():
    from repro.cli import main

    assert main(["lint", str(ROOT / "perfbench")]) == 0
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed")
    done = subprocess.run([ruff, "check", "perfbench"], cwd=ROOT, text=True,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stdout
