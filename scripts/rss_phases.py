"""Resident memory after each phase of the benchmark's cli-steps pipeline, in one process.

Runs `bench/rep.py`'s own `run_cli`, the cli-steps pipeline itself, with its
CLI commands and dataset loads and saves wrapped so that each prints, once
it returns, the process's current resident set (`/proc/self/statm`) and
its peak so far (`getrusage` `ru_maxrss`, which the benchmark reports as
`peak_rss_mb`). The phases are `gen`, the target's load, its two saves,
`pretrain`, `adapt` and the two `eval`s; the first `eval` line also covers
the adapted checkpoint's load and the `metrics.jsonl` check that precede
it. The first phase whose peak equals the last line's is the one that sets
the high-water mark. It has no gate and checks nothing; Linux only.

Run from the repository root (one BLAS thread, as the benchmark uses):

    python3 scripts/rss_phases.py [--seed 0] [--tiny]
"""
from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import hypersfda  # noqa: E402
import hypersfda.cli  # noqa: E402,F401  (not loaded by the package itself)
import rep  # noqa: E402
from workloads import workload  # noqa: E402

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def report(phase: str) -> None:
    with open("/proc/self/statm", encoding="ascii") as fh:
        rss_mb = int(fh.read().split()[1]) * PAGE_MB
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{phase:<10} {rss_mb:8.2f} {peak_mb:8.2f}", flush=True)


def reported(fn, phase):
    """`fn`, reporting after each call under the name `phase(*args)`."""
    def call(*args):
        out = fn(*args)
        report(phase(*args))
        return out
    return call


class Engine:
    """The package, with its dataset load and save reporting after each call."""

    load_dataset = staticmethod(reported(hypersfda.load_dataset, lambda *_: "load"))
    save_dataset = staticmethod(reported(hypersfda.save_dataset, lambda *_: "save"))

    def __getattr__(self, name):
        return getattr(hypersfda, name)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true", help="the benchmark's --tiny sizes")
    args = parser.parse_args()
    rep.cli = reported(rep.cli, lambda hs, command, *_: command)
    print(f"{'phase':<10} {'rss_mb':>8} {'peak_mb':>8}")
    report("start")
    with tempfile.TemporaryDirectory() as tmp:
        rep.run_cli(Engine(), workload("cli-steps", args.tiny), args.seed, Path(tmp))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
