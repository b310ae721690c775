"""Names that code outside the package reaches by string.

The benchmark's traced run wraps engine functions listed by name in
`bench/workloads.py`; a renamed or deleted function fails every traced
repetition but no other test. `hypersfda.__all__` is the public API.
"""
import importlib
import importlib.util
from pathlib import Path

import hypersfda

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_benchmark_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    missing = [
        f"{layer}.{name}"
        for layer, names in workloads.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hypersfda.{layer}"), name, None))
    ]
    assert not missing


def test_public_names_resolve():
    missing = [name for name in hypersfda.__all__ if not hasattr(hypersfda, name)]
    assert not missing
