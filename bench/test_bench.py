"""Tests of the benchmark itself, on its quick (small) workloads.

Run from the root of the repository: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_benchmark_json_names_every_workload():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_one_seed_generates_identical_bytes(name):
    a, b = workloads.make(name, 11), workloads.make(name, 11)
    assert (a.document, a.scenario) == (b.document, b.scenario)
    assert a.node_names == b.node_names
    other = workloads.make(name, 12)
    assert (a.document, a.scenario) != (other.document, other.scenario)
    assert len(a.node_names) == len(other.node_names)  # sizes do not depend on the seed


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_reports_every_metric_and_no_failure(name, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}


def _wrong_root(w):
    w.root_results[3] = "FAILURE" if w.root_results[3] != "FAILURE" else "SUCCESS"


def _wrong_lane(w):
    w.lanes[0].step += 1


def _wrong_names(w):
    w.node_names = w.node_names[:-1] + ["not_a_node"]


@pytest.mark.parametrize("name, plant", [
    ("wide_star", _wrong_root),
    ("mission_loop", _wrong_lane),
    ("template_zoo", _wrong_names),
])
def test_planted_wrong_expectation_is_counted_as_failed(name, plant):
    w = workloads.make(name, 5, quick=True)
    assert worker.measure(w)["failed"] == 0
    plant(w)
    out = worker.measure(w)
    assert out["failed"] >= 1
    assert out["attempted"] == w.steady_ticks + 4


def test_cli_check_rejects_wrong_output():
    w = workloads.make("template_zoo", 5, quick=True)
    assert not w.cli_ok("root: zoo\n", "0" * 64)
    assert not workloads.make("wide_star", 5, quick=True).cli_ok("result=SUCCESS\n", None)


def test_self_time_is_duration_minus_child_spans():
    recorder = spans.Spans("r")
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    outer, first, second = recorder.records
    assert outer[3] is None and first[3] == second[3] == 0
    own = spans.self_times(recorder.records)
    inner = (first[2] - first[1]) + (second[2] - second[1])
    assert own == {"outer": outer[2] - outer[1] - inner, "inner": inner}
    doubled = spans.self_times(recorder.records, lambda start, end: 2 * (end - start))
    assert doubled == {k: 2 * v for k, v in own.items()}


def test_timeline_scales_by_the_probes_around_an_interval():
    timeline = calibrate.Timeline()
    timeline.times = [100, 200, 10**9]
    timeline.probes = [calibrate.REFERENCE_NS, 3 * calibrate.REFERENCE_NS, 7]
    # the first two probes lie within the window of [150, 160]; their mean is 2x the reference
    assert timeline.scale(150, 160) == pytest.approx(5.0)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
