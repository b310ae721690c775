"""Run a benchmark workload and print its metrics, each with its unit.

Run from the repository root:

    python3 bench/run.py --workload diag-600 --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 35 --trace 1

Each repetition is a fresh process (rep.py) with one BLAS/OpenMP thread,
so peak RSS and import cost start from zero every time. Every repetition
of a run adapts the same inputs, drawn from --seed; repetitions continue
until --seconds have passed, and there are at least two, so each run
checks that a rerun reproduces the model bytes. A metric is the median
over the repetitions.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics of the traced
ones plus the tracing overhead. Spans and the raw results go
to --work-dir. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A failed repetition or
check makes the exit code 1; a missing src/hypersfda makes it 2.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import END_TO_END, WORKLOADS, per_layer

HERE = Path(__file__).resolve().parent
# One thread: on a 2-core machine, 2 BLAS threads made refresh-3000 both
# slower and noisier (5.55-5.85 s against 5.74-7.15 s for one epoch).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_BUDGET_S = 170.0  # a run must end within 180 s
MAX_SECONDS = 120  # leaves room for the repetition that overruns --seconds


def run_rep(name: str, seed: int, traced: bool, rundir: Path, index: int,
            tiny: bool, timeout: float) -> dict:
    stem = f"rep{index:02d}"
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", name,
           "--seed", str(seed), "--data-dir", str(rundir / stem)]
    if traced:
        cmd += ["--spans", str(rundir / f"{stem}.spans.jsonl")]
    if tiny:
        cmd.append("--tiny")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env={**os.environ, **THREAD_ENV},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        rep = {"ok": False, "error": f"{stem} timed out after {timeout:.0f} s"}
    else:
        try:
            rep = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            rep = {"ok": False, "error": f"{stem} printed no result: {proc.stderr[-2000:]}"}
        if proc.returncode != 0:
            rep["ok"] = False
            rep["error"] = f"{stem} exited {proc.returncode}: {rep.get('error')}"
    rep["traced"] = traced
    if "adapt_start" in rep:
        rep["setup_wall_s"] = rep["adapt_start"] - spawned
        rep["samples_per_s"] = rep["samples"] / rep["adapt_s"]
    return rep


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 digest: str | None, work_dir: Path) -> dict:
    rundir = work_dir / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    start = time.monotonic()
    reps: list[dict] = []
    # at least two repetitions, so every run checks a rerun's model bytes;
    # traced runs alternate untraced and traced repetitions
    while len(reps) < 2 or time.monotonic() - start < seconds:
        i = len(reps)
        timeout = max(1.0, start + RUN_BUDGET_S - time.monotonic())
        rep = run_rep(name, seed, trace and i % 2 == 1, rundir, i, tiny, timeout)
        reps.append(rep)
        if rep["ok"]:
            digest = digest or rep["digest"]
            if rep["digest"] != digest:
                rep["ok"] = False
                rep["error"] = f"model digest {rep['digest']} differs from {digest}"
        if not rep["ok"]:
            break

    failed = sum(not rep["ok"] for rep in reps)
    plain = [rep for rep in reps if not rep["traced"]]
    traced_reps = [rep for rep in reps if rep["traced"]]
    metrics: dict[str, dict] = {}
    if not failed and not trace:
        for metric, (unit, _) in END_TO_END.items():
            value = statistics.median(rep[metric] for rep in plain)
            metrics[metric] = {"value": value, "unit": unit}
    if not failed and trace:
        for metric, (unit, _) in per_layer().items():
            if metric == "trace.overhead_frac":
                value = (statistics.median(rep["adapt_s"] for rep in traced_reps)
                         / statistics.median(rep["adapt_s"] for rep in plain) - 1.0)
            else:
                value = statistics.median(rep["layers"][metric] for rep in traced_reps)
            metrics[metric] = {"value": value, "unit": unit}
    result = {
        "workload": name, "seed": seed, "trace": int(trace), "tiny": tiny,
        "attempted": len(reps), "failed": failed, "digest": digest,
        "metrics": metrics, "repetitions": reps,
    }
    (rundir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_table(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  repetitions {result['attempted']}")
    for rep in result["repetitions"]:
        if not rep["ok"]:
            print(f"  FAILED: {rep['error']}")
    rows = dict(result["metrics"])
    rows["failed_frac"] = {"value": result["failed"] / result["attempted"],
                           "unit": "fraction"}
    for metric, entry in rows.items():
        print(f"  {metric:<52} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  digest {result['digest']}")


def git_sha(root: Path) -> str | None:
    """HEAD of a git checkout at root, read without leaving root."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (root / ".git" / name).is_file():
        return (root / ".git" / name).read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((root / "src" / "hypersfda").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
        "git_sha": git_sha(root),
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting repetitions until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="test-sized inputs (for the benchmark's own tests)")
    parser.add_argument("--expect-digest", default=None,
                        help="model digest printed by an earlier run of the same "
                             "workload and seed; any difference fails the run")
    parser.add_argument("--work-dir", type=Path, default=Path(".bench_work"))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hypersfda" / "__init__.py").is_file():
        print(f"error: no src/hypersfda under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    if not 0 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must lie in [0, {MAX_SECONDS}]")
    if args.expect_digest and args.workload == "all":
        parser.error("--expect-digest needs a single workload")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              args.tiny, args.expect_digest, args.work_dir)
        print_table(result)
        results.append(result)
    print("env " + json.dumps(environment(root, args.seed)))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
