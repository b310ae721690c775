"""One repetition of a benchmark workload, in a fresh process started by run.py.

Imports the engine from ./src (never an installed copy), builds the
workload's inputs from --seed, times the adapt step, checks the
result and prints one JSON object as the last line of stdout. Exits 1 when
a check fails. With --spans, the engine's public functions are wrapped
first (tracing.py) and the spans are written to that file.

Times are CPU time of this single-threaded process (one BLAS thread), so
time the core spends on other work (host steal, other processes) does not
count: `setup_s` is the CPU time from process start to the adapt step,
`adapt_s` that of the adapt step. Wall times are kept alongside:
`adapt_start` is on time.monotonic, a system-wide clock, so run.py can
subtract its own spawn time from it.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from workloads import DOMAIN_SEED, PRETRAIN, SHIFT, TARGET_POOL, workload

ROOT = Path.cwd()


def import_engine():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hypersfda
    import hypersfda.cli  # noqa: F401  (not loaded by the package itself)

    if Path(hypersfda.__file__).resolve().parent != (src / "hypersfda").resolve():
        raise RuntimeError(f"imported hypersfda from {hypersfda.__file__}, not {src}")
    return hypersfda


class Clock:
    """CPU and wall time of the timed region, from construction to stop()."""

    def __init__(self):
        self.setup_s = time.process_time()  # CPU time since the process started
        self.adapt_start = time.monotonic()

    def stop(self) -> None:
        self.adapt_s = time.process_time() - self.setup_s
        self.adapt_wall_s = time.monotonic() - self.adapt_start

    def times(self) -> dict:
        return {"setup_s": self.setup_s, "adapt_s": self.adapt_s,
                "adapt_start": self.adapt_start, "adapt_wall_s": self.adapt_wall_s}


def model_digest(model) -> str:
    h = hashlib.sha256()
    for t in model.tensors():
        h.update(t.astype("<f8").tobytes())
    return h.hexdigest()


def draw_target(hs, pool, n: int, seed: int):
    """The run's target: n rows of the generated pool, chosen by the seed."""
    rows = np.random.default_rng(seed).choice(pool.n, size=n, replace=False)
    return hs.EmbeddingDataset(pool.features[rows], pool.labels[rows], "target",
                               pool.class_count)


def run_api(hs, spec: dict, seed: int) -> dict:
    shift = hs.ShiftSpec(rotation_angle=np.deg2rad(SHIFT["rotate_deg"]),
                         noise_sigma=SHIFT["noise_sigma"], seed=DOMAIN_SEED)
    source, pool = hs.gen_gaussian_domains(
        spec["classes"], spec["dim"], spec["n_source"], TARGET_POOL * spec["n"], shift,
        seed=DOMAIN_SEED, separation=spec["separation"],
    )
    labeled = draw_target(hs, pool, spec["n"], seed)
    source_model, _ = hs.pretrain_source(
        hs.init_model(spec["dim"], spec["classes"], seed=seed), source,
        PRETRAIN["epochs"], hs.AdaptConfig(seed=seed, lr=PRETRAIN["lr"]),
    )
    target = labeled if spec["labeled"] else hs.EmbeddingDataset(
        labeled.features, None, "target", spec["classes"])
    cfg = hs.AdaptConfig(seed=seed, **spec["adapt"])

    clock = Clock()
    adapted, metrics, _ = hs.adapt(source_model, target, cfg)
    clock.stop()

    return {
        **clock.times(),
        "iterations": len(metrics),
        "model": adapted,
        "acc_source": hs.accuracy(source_model, labeled),
        "acc_final": hs.accuracy(adapted, labeled),
        "agreement_final": hs.evaluate(adapted, labeled).neighbor_agreement,
    }


def cli(hs, *argv) -> str:
    """Run one CLI command in-process; returns its stdout, raises on exit != 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hs.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"hypersfda {argv[0]} exited {code}")
    return out.getvalue()


def run_cli(hs, spec: dict, seed: int, data: Path) -> dict:
    cli(hs, "gen", "--classes", spec["classes"], "--dim", spec["dim"],
        "--n-source", spec["n_source"], "--n-target", TARGET_POOL * spec["n"],
        "--rotate-deg", SHIFT["rotate_deg"], "--noise-sigma", SHIFT["noise_sigma"],
        "--separation", spec["separation"], "--seed", DOMAIN_SEED,
        "--shift-seed", DOMAIN_SEED, "--out", data, "--quiet")
    labeled = draw_target(hs, hs.load_dataset(data / "target.csv"), spec["n"], seed)
    hs.save_dataset(labeled, data / "target_draw.csv")
    hs.save_dataset(
        hs.EmbeddingDataset(labeled.features, None, "target", labeled.class_count),
        data / "target_unlabeled.csv",
    )
    cli(hs, "pretrain", "--source", data / "source.csv",
        "--pretrain-epochs", PRETRAIN["epochs"], "--lr", PRETRAIN["lr"],
        "--seed", seed, "--out", data, "--quiet")
    flags = []
    for key, value in spec["adapt"].items():
        flags += [f"--{key.replace('_', '-')}", value]

    clock = Clock()
    cli(hs, "adapt", "--model", data / "source_model.ckpt",
        "--target", data / "target_unlabeled.csv", *flags,
        "--seed", seed, "--out", data, "--quiet")
    clock.stop()

    state = hs.load_checkpoint(data / "adapted.ckpt")
    with open(data / "metrics.jsonl", encoding="utf-8") as fh:
        iters = [json.loads(line)["iter"] for line in fh]
    if iters != list(range(len(iters))):
        raise RuntimeError("metrics.jsonl iterations are not 0, 1, 2, ...")
    source_eval = json.loads(cli(hs, "eval", "--model", data / "source_model.ckpt",
                                 "--data", data / "target_draw.csv"))
    final_eval = json.loads(cli(hs, "eval", "--model", data / "adapted.ckpt",
                                "--data", data / "target_draw.csv"))
    return {
        **clock.times(),
        "iterations": len(iters),
        "model": state.model,
        "acc_source": source_eval["acc"],
        "acc_final": final_eval["acc"],
        "agreement_final": final_eval["neighbor_agreement"],
    }


def trace_checks(layers: dict, iterations: int) -> list[str]:
    """Call-count identities that break if a wrapper missed a binding."""
    calls = {k[:-len(".calls")]: v for k, v in layers.items() if k.endswith(".calls")}
    problems = []
    if calls["hypergraph.cosine_knn"] != (
        calls["hypergraph.build_hyperedges"] + calls["trainer.evaluate"]
    ):
        problems.append("cosine_knn calls != build_hyperedges + evaluate calls")
    if calls["hypergraph.build_artifacts"] != calls["trainer.refresh_hypergraph"]:
        problems.append("build_artifacts calls != refresh_hypergraph calls")
    if calls["objective.adaptive_loss_batch"] != iterations:
        problems.append("adaptive_loss_batch calls != iterations")
    if layers["trainer.iterations"] != iterations:
        problems.append("iteration callbacks != iterations")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data-dir", type=Path, required=True,
                        help="scratch directory, removed at the end")
    parser.add_argument("--spans", type=Path, default=None,
                        help="trace the engine and write spans here")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    spec = workload(args.workload, args.tiny)
    result: dict = {"ok": False, "error": None}
    try:
        hs = import_engine()
        tracer = None
        if args.spans is not None:
            import tracing

            rep_name = args.spans.name.removesuffix(".spans.jsonl")
            run_id = f"{args.workload}-s{args.seed}/{rep_name}"
            tracer = tracing.Tracer(run_id)
            tracing.install(tracer)
        args.data_dir.mkdir(parents=True, exist_ok=True)
        if spec["kind"] == "api":
            out = run_api(hs, spec, args.seed)
        else:
            out = run_cli(hs, spec, args.seed, args.data_dir)
        model = out.pop("model")
        result.update(out)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["samples"] = spec["adapt"]["epochs"] * spec["n"]
        result["digest"] = model_digest(model)

        problems = []
        if not all(np.isfinite(t).all() for t in model.tensors()):
            problems.append("non-finite model tensor")
        batch = spec["adapt"].get("batch_size", hs.AdaptConfig().batch_size)
        expected = spec["adapt"]["epochs"] * math.ceil(spec["n"] / batch)
        if out["iterations"] != expected:
            problems.append(f"{out['iterations']} iterations, expected {expected}")
        if not out["acc_final"] > out["acc_source"]:
            problems.append(
                f"acc_final {out['acc_final']} not above source-only {out['acc_source']}")
        if tracer is not None:
            tracer.write(args.spans)
            result["layers"] = tracer.summary()
            problems += trace_checks(result["layers"], expected)
        result["error"] = "; ".join(problems) or None
        result["ok"] = not problems
    except Exception:  # reported to run.py, which counts the repetition as failed
        result["error"] = traceback.format_exc()
    finally:
        shutil.rmtree(args.data_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
