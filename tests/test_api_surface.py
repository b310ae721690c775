"""Names that code outside the package reaches by string, and what it imports.

The benchmark's traced run wraps engine functions listed by name in
`bench/workloads.py`, and its cli workload passes flags to the CLI from
`bench/rep.py`; a renamed or deleted function or flag fails every
repetition but no other test. `hypersfda.__all__` is the public API. The
engine needs numpy alone; scipy is a test dependency. Every name the
package defines is used outside the tests.
"""
import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import hypersfda

from helpers import cli_options

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_traced_functions_exist():
    workloads = load_workloads()
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


def test_benchmark_cli_flags_are_registered():
    """Flags written in rep.py's cli(hs, "<command>", ...) calls, plus adapt's
    flags from the cli workloads' config dicts."""
    passed: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse((BENCH / "rep.py").read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "cli"
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            passed.setdefault(node.args[1].value, set()).update(
                arg.value for arg in node.args[2:]
                if isinstance(arg, ast.Constant) and str(arg.value).startswith("--"))
    assert {"--pretrain-epochs", "--lr"} <= passed["pretrain"]
    workloads = load_workloads()
    for name, spec in workloads.WORKLOADS.items():
        if spec["kind"] == "cli":
            for adapt in (spec["adapt"], workloads.TINY[name]["adapt"]):
                passed["adapt"].update(f"--{key.replace('_', '-')}" for key in adapt)
    missing = {cmd: flags - cli_options(cmd) for cmd, flags in passed.items()}
    assert not any(missing.values()), missing


NO_SCIPY_RUN = """
import sys
import numpy as np
import hypersfda
import hypersfda.cli
from hypersfda import trainer

refreshes = []
refresh = trainer.refresh_hypergraph
trainer.refresh_hypergraph = lambda *args: refreshes.append(1) or refresh(*args)
rng = np.random.default_rng(0)
target = hypersfda.EmbeddingDataset(
    rng.standard_normal((100, 4)), rng.integers(0, 3, 100), "target", 3)
cfg = hypersfda.AdaptConfig(k=4, h=2, m_prime=3, batch_size=16, epochs=1, t_in=3)
hypersfda.adapt(hypersfda.init_model(4, 3, seed=0), target, cfg)
print(len(refreshes), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
      "numpy.ma" in sys.modules)
"""


def test_engine_runs_without_scipy():
    src = str(Path(hypersfda.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True, timeout=120)
    # a labeled target runs the per-iteration neighbor search too; a plain
    # np.unique over its void rows would import numpy.ma
    assert out.stdout == "3 [] False\n"


def test_every_package_name_is_used_outside_the_tests():
    """Each function, class, method and module-level upper-case constant of
    the package (dunders aside) is named in src/, bench/, scripts/ or
    README.md somewhere besides its definitions: code that only tests reach
    belongs in tests/helpers.py. A re-export in __init__.py is no use."""
    package = Path(hypersfda.__file__).resolve().parent
    defined = Counter()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(node.name for node in ast.walk(tree) if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        defined.update(target.id for node in tree.body if isinstance(node, ast.Assign)
                       for target in node.targets
                       if isinstance(target, ast.Name) and target.id.isupper())
    modules = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    named = Counter(word for path in (
        *modules, *BENCH.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
        ROOT / "README.md") for word in re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unused = sorted(name for name, count in defined.items()
                    if not (name.startswith("__") and name.endswith("__"))
                    and named[name] <= count)
    assert not unused
