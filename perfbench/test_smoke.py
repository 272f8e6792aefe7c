"""Smoke test of the benchmark runner itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Not part of the package's own suite (pytest's testpaths is tests/).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=300, check=False, cwd=cwd)


def tiny(workload, trace):
    return run("--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", str(trace), "--tiny")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = tiny(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        assert any(line.startswith(f"{metric['name']} = ")
                   and line.endswith(f" {metric['unit']}") for line in lines)
    assert any(line.startswith("fail_frac = 0.0 ") for line in lines)


def checkout(path, with_program=True):
    """A copy of the benchmark (and of the program) under ``path``."""
    shutil.copy(ROOT / "BENCHMARK.json", path)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, path / "perfbench", ignore=skip)
    if with_program:
        shutil.copytree(ROOT / "src", path / "src", ignore=skip)
    return path


def test_wrong_reference_digest_is_counted_as_a_failure(tmp_path):
    reference = checkout(tmp_path) / "perfbench" / "reference.json"
    doc = json.loads(reference.read_text(encoding="utf-8"))
    for digests in doc["digests"].values():
        digests[:] = ["0" * 64] * len(digests)
    reference.write_text(json.dumps(doc), encoding="utf-8")
    done = run("--workload", "plane_sweep", "--seed", "3", "--seconds", "0.2",
               "--trace", "0", "--tiny", cwd=tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    frac = next(line for line in done.stdout.splitlines()
                if line.startswith("fail_frac = "))
    assert float(frac.split()[2]) > 0.0


def test_refuses_a_checkout_without_the_program(tmp_path):
    checkout(tmp_path, with_program=False)
    done = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
