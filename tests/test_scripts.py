"""Smoke test of the probe scripts under scripts/: each runs and prints its rows."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, wanted", [
    pytest.param(["rss_phases.py", "--tiny"], ["adapt"],
                 marks=pytest.mark.skipif(not sys.platform.startswith("linux"),
                                          reason="reads /proc/self/statm")),
    (["refresh_probe.py", "--sizes", "200"], ["n stage cpu_s peak_mb minflt", "pca_rows"]),
    (["step_probe.py", "--epochs", "1", "--repeat", "1"], ["matmul floor"]),
    (["src_lines.py"], ["file total code docstring comment blank defaults", "total"]),
], ids=["rss_phases", "refresh_probe", "step_probe", "src_lines"])
def test_probe_script_runs(argv, wanted):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = {" ".join(line.split()) for line in done.stdout.splitlines()}
    for row in wanted:
        assert any(f" {row} " in f" {line} " for line in rows), done.stdout
