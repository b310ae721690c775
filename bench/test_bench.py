"""Tests of the benchmark itself, on test-sized (--tiny) inputs.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import END_TO_END, WORKLOADS, per_layer  # noqa: E402


def bench(*args: str, work: Path, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "0", "--seconds", "0", "--tiny",
         "--work-dir", str(work), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed_digests(proc: subprocess.CompletedProcess) -> list[str]:
    return [line.split()[1] for line in proc.stdout.splitlines()
            if line.strip().startswith("digest ")]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    work = tmp_path_factory.mktemp("untraced")
    return bench("--workload", "all", "--trace", "0", work=work), work


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    work = tmp_path_factory.mktemp("traced")
    return bench("--workload", "all", "--trace", "1", work=work), work


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    proc, _ = untraced
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}.{m}": unit for w in WORKLOADS for m, (unit, _) in END_TO_END.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for w in WORKLOADS:
        table = proc.stdout.split(f"workload {w} ")[1].split("digest")[0]
        for metric, (unit, _) in {**END_TO_END, "failed_frac": ("fraction", "")}.items():
            assert any(line.split()[0] == metric and line.split()[-1] == unit
                       for line in table.splitlines()[1:]), (w, metric)
    assert '"seed": 0' in proc.stdout and '"nproc"' in proc.stdout


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    proc, _ = traced
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    expected = {f"{w}.{m}": unit for w in WORKLOADS for m, (unit, _) in per_layer().items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_benchmark_json_names_what_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer()


def test_traced_diag_records_cosine_knn_under_evaluate_and_build_hyperedges(traced):
    _, work = traced
    spans = [json.loads(line)
             for path in sorted((work / "diag-600-s0-t1").glob("*.spans.jsonl"))
             for line in path.read_text().splitlines()]
    assert spans and all(set(s) == {"run", "id", "name", "start", "end", "parent"}
                         for s in spans)
    by_id = {(s["run"], s["id"]): s for s in spans}
    parents = {by_id[(s["run"], s["parent"])]["name"]
               for s in spans if s["name"] == "hypergraph.cosine_knn"}
    assert {"trainer.evaluate", "hypergraph.build_hyperedges"} <= parents


def test_traced_models_are_the_untraced_models(untraced, traced):
    digests = printed_digests(untraced[0])
    assert len(digests) == len(WORKLOADS) and all(len(d) == 64 for d in digests)
    assert printed_digests(traced[0]) == digests


def test_expected_digest_is_enforced(untraced, tmp_path):
    right = printed_digests(untraced[0])[list(WORKLOADS).index("diag-600")]
    proc = bench("--workload", "diag-600", "--trace", "0", "--expect-digest", right,
                 work=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr

    proc = bench("--workload", "diag-600", "--trace", "0", "--expect-digest", "0" * 64,
                 work=tmp_path)
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"] and result["failed"] == 1
    assert f"model digest {right} differs from {'0' * 64}" in proc.stdout


def test_fails_without_the_engine_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "diag-600", "--trace", "0", work=tmp_path / "work",
                 cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
