"""Tests of the benchmark of record: its output contract, the span
arithmetic, the tracer's clean-up and the comparison rules."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import jobs
from tracer import Tracer, self_times

BENCH_DIR = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_smoke_run_emits_every_declared_metric(tmp_path):
    output = tmp_path / "latest.json"
    start = time.monotonic()
    done = _run("--smoke", "--output", str(output))
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stderr
    # About 6 s on a 2-core host; the margin absorbs a loaded machine.
    assert elapsed < 30
    document = json.loads(output.read_text())
    assert set(document["workloads"]) == {w["name"] for w in DECLARED["workloads"]}
    for workload, result in document["workloads"].items():
        assert result["correct"] and result["failed"] == 0, result["failures"]
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in DECLARED[section]}
            emitted = {name: m["unit"] for name, m in result[section].items()}
            assert emitted == declared, (workload, section)
            assert all(NAME.fullmatch(name) for name in emitted)
        checks = result["trace_checks"]
        assert checks["coverage_min"] >= 0.95, (workload, checks)
        trace = json.loads((tmp_path / f"trace-{workload}.json").read_text())
        assert {job["model"] for job in trace["jobs"]} == set(jobs.MODELS)


def test_one_workload_prints_the_result_line(tmp_path):
    done = _run(
        "--smoke", "--workload", "spec-single", "--trace", "0",
        "--output", str(tmp_path / "latest.json"),
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_self_times_subtract_the_covered_part_of_children():
    spans = [
        ["job", 0.0, 10.0, -1, 0],
        ["synth", 1.0, 3.0, 0, 0],
        ["warmup", 3.0, 6.0, 0, 0],
        ["memory:a", 4.0, 5.0, 2, 0],
        ["memory:b", 4.5, 5.5, 2, 0],  # overlaps its sibling by 0.5
        ["timed", 6.0, 9.5, 0, 0],
        ["memory:c", 9.0, 11.0, 5, 0],  # runs past its parent's end
        ["memory:d", 9.2, 9.4, 6, 0],
    ]
    assert self_times(spans) == pytest.approx([
        10.0 - (2.0 + 3.0 + 3.5),
        2.0,
        3.0 - 1.5,
        1.0,
        1.0,
        3.5 - 0.5,
        2.0 - 0.2,
        0.2,
    ])


def test_traced_round_restores_every_wrapped_method():
    targets = jobs.layer_targets()
    originals = {(cls, name): vars(cls).get(name) for cls, name, _ in targets}
    job = jobs.build_jobs("parsec-4t", seed=0, smoke=True)[0]
    untraced = jobs.job_record(job.run())

    tracer = Tracer()
    tracer.install(targets)
    try:
        tracer.begin_job(0)
        traced = jobs.job_record(job.run())
        summary = tracer.end_job()
    finally:
        tracer.restore()

    for (cls, name), original in originals.items():
        assert vars(cls).get(name) is original, f"{cls.__name__}.{name}"
    assert traced["digest"] == untraced["digest"]
    for group in ("synth", "columnar", "warmup", "timed", "memory", "branch", "sync"):
        assert summary["calls"].get(group, 0) > 0, group
    phases = [span["name"] for span in summary["spans"]]
    assert phases[0] == "job" and phases[-2:] == ["warmup", "timed"]


def test_compare_verdicts_follow_the_pair_and_spread_rules():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [value * 1.05 for value in parent]
    slower = [value * 0.85 for value in parent]
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0, 100.0, 80.0, 120.0, 90.0, 110.0]
    assert compare.verdict(parent, faster, "higher", 0.1)["verdict"] == "improved"
    assert compare.verdict(parent, parent, "higher", 0.1)["verdict"] == "unchanged"
    assert compare.verdict(parent, slower, "higher", 0.1)["verdict"] == "regressed"
    assert compare.verdict(noisy, noisy[::-1], "higher", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] == "improved"
