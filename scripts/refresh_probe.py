"""CPU time and traced memory peak of each stage of a first hypergraph refresh.

The setup is the one the ROADMAP probes use: 4 classes in 16 dimensions at
separation 3.3, a 30 degree rotation with noise 0.7 between the domains,
600 source samples, 80 pretraining epochs at lr 0.01, and the default
AdaptConfig (m' = min(64, n - 1)). At each target size the pretrained
model's first refresh runs stage by stage, through the engine's own
functions: cosine_knn, solve_affinity_batch, pca_rows and
cluster_high_order. The self-loop merge and the building of H, between
the solve and the PCA, are not timed. Each stage runs REPEAT times
untraced, and the least CPU time is printed with the minor page faults
(getrusage) of the first of those runs, then once more under tracemalloc
for its peak above what was allocated before it.

Run from the repository root, with one BLAS thread for steady times:

    OPENBLAS_NUM_THREADS=1 python3 scripts/refresh_probe.py --sizes 600 2000 5000
"""
from __future__ import annotations

import argparse
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
import hypersfda as hs  # noqa: E402
from hypersfda import hypergraph  # noqa: E402
from hypersfda.trainer import knn_safe_features  # noqa: E402

REPEAT = 3


def measure(stage):
    """(result, least CPU seconds over REPEAT runs, traced peak in MB, first run's minor faults)."""
    cpu = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(REPEAT):
        start = time.process_time()
        result = stage()
        cpu.append(time.process_time() - start)
        if len(cpu) == 1:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    tracemalloc.start()
    stage()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return result, min(cpu), peak / 2**20, faults


def first_refresh_stages(n: int, seed: int):
    """Yield (stage name, CPU seconds, traced peak MB, minor faults) for one target size."""
    shift = hs.ShiftSpec(rotation_angle=np.deg2rad(30.0), noise_sigma=0.7, seed=seed)
    source, target = hs.gen_gaussian_domains(4, 16, 600, n, shift, seed=seed, separation=3.3)
    cfg = hs.AdaptConfig(seed=seed)
    model, _ = hs.pretrain_source(hs.init_model(16, 4, seed=seed), source, 80,
                                  hs.AdaptConfig(seed=seed, lr=0.01))
    z, p = hs.forward(model, target.features)
    z = knn_safe_features(z)

    neighbors, *row = measure(lambda: hs.cosine_knn(z, cfg.k - 1))
    yield "cosine_knn", *row
    (coeffs, _), *row = measure(
        lambda: hypergraph.solve_affinity_batch(z, neighbors, cfg.alpha))
    yield "solve_affinity_batch", *row
    affinity = hs.merge_self_loops(neighbors, np.column_stack((np.ones(n), coeffs)),
                                   hs.self_loop_affinities(neighbors, p))
    H = hs.build_relation_matrix(neighbors, affinity)
    m_prime = hypergraph.default_m_prime(n) if cfg.m_prime is None else cfg.m_prime
    (compressed, _, _), *row = measure(
        lambda: hypergraph.pca_rows(H, m_prime, cfg.seed))
    yield "pca_rows", *row
    _, *row = measure(lambda: hs.cluster_high_order(compressed, cfg.h))
    yield "cluster_high_order", *row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[600, 2000, 5000])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(f"{'n':>6}  {'stage':<22}{'cpu_s':>8}  {'peak_mb':>8}  {'minflt':>8}")
    for n in args.sizes:
        for name, cpu, peak, faults in first_refresh_stages(n, args.seed):
            print(f"{n:>6}  {name:<22}{cpu:>8.3f}  {peak:>8.2f}  {faults:>8}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
