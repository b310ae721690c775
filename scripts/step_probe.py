"""CPU time per adaptation iteration next to the bare matmuls of one step.

The setup has the benchmark's cli-steps shapes, built in memory: 10
classes in 128 dimensions (d = d_z = 128) at separation 4.5, a 30 degree
rotation with noise 0.7 between the domains, 1000 source and 1000 target
samples, 80 pretraining epochs at lr 0.01, then `adapt` on the unlabeled
target with batch 32, m' = 8 and a refresh interval past the run's end,
so it refreshes once. `adapt` runs REPEAT times and the least CPU time per
iteration is printed. The floor is the least CPU time of the step's seven
matrix products on the same shapes, with nothing else: the forward's two,
the backward's three and the loss's two.

Fresh-process times of the whole CLI spread widely on a shared machine,
so a change to the step that saves a few percent shows here first. Run
from the repository root, with one BLAS thread for steady times:

    OPENBLAS_NUM_THREADS=1 python3 scripts/step_probe.py
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
import hypersfda as hs  # noqa: E402
from hypersfda.trainer import iterations_per_epoch  # noqa: E402

CLASSES, DIM, N, BATCH = 10, 128, 1000, 32


def least_cpu(run, repeat: int) -> float:
    """Least CPU seconds of `repeat` calls of run()."""
    best = float("inf")
    for _ in range(repeat):
        start = time.process_time()
        run()
        best = min(best, time.process_time() - start)
    return best


def step_matmuls(model, x: np.ndarray, loops: int):
    """A function running the step's matrix products `loops` times on x's shapes."""
    z, p = hs.forward(model, x)
    w = p @ p.T

    def run():
        for _ in range(loops):
            x @ model.W_f  # the step's one forward
            z @ model.W_g
            z.T @ p  # backward: W_g, dz, W_f
            p @ model.W_g.T
            x.T @ z
            p @ p.T  # loss: background Gram matrix and push gradient
            w @ p

    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=150,
                        help="adaptation epochs (cli-steps runs 150)")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    shift = hs.ShiftSpec(rotation_angle=np.deg2rad(30.0), noise_sigma=0.7, seed=args.seed)
    source, target = hs.gen_gaussian_domains(CLASSES, DIM, N, N, shift, seed=args.seed,
                                             separation=4.5)
    model, _ = hs.pretrain_source(hs.init_model(DIM, CLASSES, seed=args.seed), source, 80,
                                  hs.AdaptConfig(seed=args.seed, lr=0.01))
    unlabeled = hs.EmbeddingDataset(target.features, None, "target", CLASSES)
    cfg = hs.AdaptConfig(seed=args.seed, batch_size=BATCH, m_prime=8, t_in=10**9,
                         epochs=args.epochs)
    iterations = args.epochs * iterations_per_epoch(N, BATCH)

    adapt_s = least_cpu(lambda: hs.adapt(model, unlabeled, cfg), args.repeat)
    floor_s = least_cpu(step_matmuls(model, target.features[:BATCH], iterations), args.repeat)
    per_iter, floor = adapt_s / iterations * 1e6, floor_s / iterations * 1e6
    print(f"iterations {iterations}, least of {args.repeat} runs")
    print(f"  adapt         {per_iter:8.1f} us/iteration")
    print(f"  matmul floor  {floor:8.1f} us/iteration ({floor / per_iter:.0%} of adapt)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
