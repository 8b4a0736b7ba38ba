"""Smoke tests of the benchmark at toy sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench

Each workload runs once untraced and once traced with ``--size tiny``; every
end-to-end and per-layer metric that BENCHMARK.json names must be emitted
with its unit, and every output check must pass.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    env = json.loads(lines[0].removeprefix("env "))
    for key in ("nproc", "python", "numpy", "blas", "blas_threads", "thread_env",
                "loadavg_start", "loadavg_end", "seed"):
        assert key in env
    assert env["blas_threads"] in (1, None)
    assert f"{workload} ops_failed_frac = 0 " in proc.stdout


def test_tape_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        proc = _run("--workload", "train-accept", "--seed", "4", "--seconds", "1",
                    "--trace", "1", "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if k.startswith("autodiff.nodes")})
    assert counts[0] == counts[1]


def test_exits_nonzero_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
