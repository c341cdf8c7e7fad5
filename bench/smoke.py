"""Smoke tests for the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 -m pytest bench/smoke.py -q

They check that every metric named in BENCHMARK.json is emitted with its
unit, that the correctness gate rejects a tampered expected value, and
that the benchmark fails cleanly where there are no eigm sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_workload_lists_agree():
    import run

    assert WORKLOADS == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--scale", "tiny")
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])
    if trace:
        assert result["metrics"]["trace.absent"]["value"] == 0
        assert result["metrics"]["trace.self_sum_frac"]["value"] == pytest.approx(1.0, abs=0.02)
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def run_worker(workload: str, tmp_path: Path, expected: dict | None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", "5", "--scale", "tiny", "--workdir", str(tmp_path / "work")]
    if expected is not None:
        path = tmp_path / "expected.json"
        path.write_text(json.dumps(expected), encoding="utf-8")
        cmd += ["--expected", str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failed_ops(report: dict) -> list[str]:
    return [op["why"] for rep in report["reps"] for op in rep["ops"] if not op["ok"]]


def _tamper_sweep(records, factor):
    values = records["rows"][0]["values"]
    values["degree_pearson_mean"] *= factor


def _tamper_count(records, _):
    records["ingest"]["triangles"] += 1


def _tamper_status(records, _):
    records["tri"][0]["status"] = "False"


@pytest.mark.parametrize("workload, tamper", [
    ("sweep_clustered", _tamper_sweep),
    ("cli_pipeline", _tamper_count),
    ("audit", _tamper_status),
])
def test_gate_rejects_tampered_expected_value(workload, tamper, tmp_path):
    records = run_worker(workload, tmp_path, None)["records"]
    assert failed_ops(run_worker(workload, tmp_path, records)) == []
    tamper(records, 1.0 + 1e-3)
    assert failed_ops(run_worker(workload, tmp_path, records))


def test_gate_float_tolerance():
    row = {"values": {"a": 1.0, "b": float("nan"), "n": 3.0}}
    same = {"values": {"a": 1.0 + 1e-9, "b": float("nan"), "n": 3.0}}
    assert workloads.compare_records(row, same, exact=("n",)) == ""
    assert workloads.compare_records(row, {"values": {"a": 1.001, "b": float("nan"), "n": 3.0}})
    assert workloads.compare_records(row, {"values": {"a": 1.0, "b": 0.0, "n": 3.0}})
    assert workloads.compare_records(row, {"values": {"a": 1.0, "b": float("nan"), "n": 3.0 + 1e-12}},
                                     exact=("n",))


def test_kcycle_trace_seed_avoids_the_oracle():
    for seed in (0, 1, 21):
        cand = workloads.kcycle_trace_seed(seed, 400, 100)
        assert cand % 2**32 == seed
        assert min(workloads._kcycle_trial_n(cand, t, 400) for t in range(100)) > 14


def test_normalize_rescales_to_the_reference_speed():
    from calibration import CAL_REF_S, normalize

    assert normalize(2.0, [CAL_REF_S] * 6) == pytest.approx(2.0)
    # the median of the chunks around the step, so one stray chunk is ignored
    assert normalize(2.0, [2 * CAL_REF_S] * 5 + [100.0]) == pytest.approx(1.0)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
