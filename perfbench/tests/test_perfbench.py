"""Self-tests of the benchmark: seeded inputs, metric names, refusal outside a checkout.

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workload_names_match_the_manifest():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    inputs = workloads.WORKLOADS[name].inputs
    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
    assert len(inputs(7)) == len(inputs(8))


def _tiny(monkeypatch, name, keep=slice(0, 3)):
    """Cut the workload to a few jobs so a smoke run takes seconds."""
    w = workloads.WORKLOADS[name]
    full = w.jobs
    monkeypatch.setitem(workloads.WORKLOADS, name,
                        replace(w, jobs=lambda seed, traced=False: full(seed, traced)[keep]))


def _summary(capsys, name, trace=0) -> dict:
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_manifest_metric(monkeypatch, capsys, name, trace, key):
    _tiny(monkeypatch, name)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    names = [m["name"] for m in MANIFEST[key]]
    assert sorted(summary["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in MANIFEST[key]}
    for metric, value in summary["metrics"].items():
        assert value["unit"] == units[metric]
        assert any(line.startswith(metric + " ") for line in lines)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_library_self_check_failure_makes_the_run_incorrect(monkeypatch, capsys):
    # the closed form is off by one, so count()'s own cross-check raises
    # SelfCheckError in every job (the warm-up is skipped: it would raise too)
    closed_form = workloads.counting.count_closed_form
    _tiny(monkeypatch, "count-large")
    w = workloads.WORKLOADS["count-large"]
    monkeypatch.setitem(workloads.WORKLOADS, "count-large", replace(w, warm_up=lambda: None))
    monkeypatch.setattr(workloads.counting, "count_closed_form", lambda p: closed_form(p) + 1)
    summary = _summary(capsys, "count-large")
    assert summary["correct"] is False
    assert summary["failed"] == summary["attempted"] == 3


def test_the_known_digit_limit_defect_fails_without_making_the_run_incorrect(monkeypatch, capsys):
    # the last three cli-small jobs print counts of about 4300 digits or more
    _tiny(monkeypatch, "cli-small", slice(-3, None))
    expected_failures = round(workloads.too_long_share(3) * len(workloads.cli_small_inputs(3)))
    assert expected_failures == 2
    summary = _summary(capsys, "cli-small")
    assert summary["correct"] is True
    assert (summary["attempted"], summary["failed"]) == (3, expected_failures)


def test_a_marked_job_failing_another_way_is_unexpected():
    job = workloads.Job("count", lambda: None, lambda out: None, workloads.DIGIT_LIMIT_ERROR)
    digit_limit = run.Outcome(0.1, None, None, "JobFailed: exit 1: ValueError: "
                              + workloads.DIGIT_LIMIT_ERROR, False, None)
    inconsistent = run.Outcome(0.1, None, None, "JobFailed: exit 1: internal inconsistency", False, None)
    assert run.evaluate([job], [(0.1, [digit_limit])])["unexpected"] == 0
    assert run.evaluate([job], [(0.1, [inconsistent])])["unexpected"] == 1


def test_job_times_are_scaled_by_the_probe_and_take_the_lower_quartile():
    job = workloads.Job("job", lambda: None, lambda out: None)
    quiet = run.PROBE_QUIET_S
    passes = [(secs, [run.Outcome(secs, reading, b"same", None, False, None)])
              for secs, reading in ((1.0, quiet), (4.0, 2 * quiet), (3.0, quiet), (9.0, quiet))]
    # scaled times 1, 2, 3 and 9 s; their inclusive lower quartile is 1.75 s
    assert run.evaluate([job], passes)["per_job"] == [pytest.approx(1.75)]
