"""Model digests of every benchmark workload at a few seeds, for byte-identity checks.

Runs `bench/run.py --workload W --seed S --seconds 0 --trace 0` for each
workload and seed (at least two repetitions each, so every run also checks
its own rerun) and prints one `workload seed digest` line per run. With
`--expect FILE`, a table printed by an earlier run, it exits 1 unless every
digest matches its entry.

For example, from the repository root:

    python3 scripts/bench_digests.py > digests.txt          # seeds 0-2
    python3 scripts/bench_digests.py --expect digests.txt   # after a change

The benchmark runs in the repository this script belongs to, in a
temporary work directory.
"""
from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402


def digest(workload: str, seed: int, work_dir: str) -> str:
    """The model digest bench/run.py prints for one workload and seed."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0", "--work-dir", work_dir],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"bench/run.py failed on {workload} seed {seed}:\n{out.stdout}"
                         f"{out.stderr}")
    return next(line.split()[1] for line in out.stdout.splitlines()
                if line.startswith("  digest "))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--expect", type=Path, default=None,
                        help="a table printed by an earlier run; exit 1 on any difference")
    args = parser.parse_args(argv)
    expected = {}
    if args.expect is not None:
        for line in filter(str.strip, args.expect.read_text().split("\n")):
            fields = line.split()
            if len(fields) < 3 or not fields[1].isdigit():
                parser.error(f"{args.expect}: not a line of digests: {line!r}")
            expected[fields[0], int(fields[1])] = fields[2]
    mismatches = 0
    with tempfile.TemporaryDirectory() as work_dir:
        for workload in args.workloads:
            for seed in args.seeds:
                got = digest(workload, seed, work_dir)
                want = expected.get((workload, seed))
                note = "" if args.expect is None else (
                    "  ok" if got == want else f"  DIFFERS from {want}")
                mismatches += args.expect is not None and got != want
                print(f"{workload} {seed} {got}{note}", flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
