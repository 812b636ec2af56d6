"""Tests of the benchmark itself, on the smoke size of every workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (run.py imports nothing from ncps)

WORKLOADS = ("checks", "coupled-deep", "conformal-heat", "lattice")
EXACT_UNITS = ("count", "bytes", "ratio")


def bench(cwd: Path, workload: str, trace: int, seed: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT) -> dict:
    proc = bench(cwd, workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def units(res: dict) -> dict:
    return {name: m["unit"] for name, m in res["metrics"].items()}


def copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert units(res) == run.END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_and_sizes_repeat(workload):
    first, second = result(workload, 1), result(workload, 1)
    for res in (first, second):
        assert res["correct"]
        assert units(res) == run.PER_LAYER
    exact = [name for name, unit in run.PER_LAYER.items() if unit in EXACT_UNITS]
    assert {n: first["metrics"][n]["value"] for n in exact} == {
        n: second["metrics"][n]["value"] for n in exact
    }


def test_coupled_smoke_sizes_and_layers():
    metrics = {n: m["value"] for n, m in result("coupled-deep", 1)["metrics"].items()}
    terms = [metrics[f"symbols.sign_word_terms.deg{d}"] for d in range(0, -5, -1)]
    assert terms == [6, 24, 240, 1862, 0]
    for layer in ("sqrt_symbol", "invert_symbol", "star_product"):
        assert metrics[f"symbols.{layer}_s"] > 0
    assert metrics["heat.heat_coefficients_s"] == 0
    assert metrics["numeric.build_operator_s"] == 0
    assert metrics["scalars.mul_calls"] > 0 and metrics["scalars.add_calls"] > 0
    assert 0 < metrics["symbols.output_terms_per_scalar_op"] < 1


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_mismatch_is_counted_not_fatal(tmp_path):
    copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    pins_file = tmp_path / "perfbench" / "pins.json"
    pins = json.loads(pins_file.read_text())
    pins["coupled-deep.sign@floor-3"]["level"] = "density"
    pins_file.write_text(json.dumps(pins))
    res = result("coupled-deep", 0, cwd=tmp_path)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1


def test_exits_nonzero_without_the_package(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench(tmp_path, "checks", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
