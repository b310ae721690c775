"""Command-line interface: gen, pretrain, adapt, eval.

pretrain, adapt and eval resolve their configuration as defaults < --config
JSON < explicit flags. Each registers flags only for the AdaptConfig fields
it reads, and AdaptConfig checks every value. Training-style commands write
a manifest recording the resolved configuration, inputs, and outputs before
work starts, so a run can be reproduced from its manifest alone.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime abort
(non-finite loss during adaptation).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import FIELD_TYPES, AdaptConfig, ConfigError
from .datagen import (
    DatasetFormatError,
    ShiftSpec,
    gen_gaussian_domains,
    gen_two_moons_domains,
    load_dataset,
    save_dataset,
)
from .model import CheckpointError, init_model, load_model, pretrain_source, save_model
from .trainer import (
    TrainingAborted,
    adapt,
    evaluate,
    load_checkpoint,
    save_checkpoint,
)

USAGE_ERROR = 2
RUNTIME_ABORT = 3

# the AdaptConfig fields each command reads, registered as its flags; the
# model comes from the checkpoint in adapt, and label smoothing belongs to
# the pretraining loss
_COMMAND_FIELDS = {
    "pretrain": ("batch_size", "lr", "momentum", "d_z", "seed", "label_smoothing"),
    "adapt": tuple(n for n in FIELD_TYPES if n not in ("d_z", "label_smoothing")),
    "eval": ("h",),
}


@dataclass
class RunManifest:
    """Reproducibility record written next to every command's outputs."""

    command: str
    config: dict
    inputs: dict
    outputs: dict
    seed: int
    tool_version: str = __version__
    started_at: str = ""
    finished_at: str = ""

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2) + "\n", encoding="utf-8")


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


def _add_output(parser: argparse.ArgumentParser, out: bool = True) -> None:
    if out:
        parser.add_argument("--out", type=Path, default=Path("."),
                            help="output directory (default: current directory)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def _add_config(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file (AdaptConfig fields or a run manifest)")
    for name in _COMMAND_FIELDS[command]:
        kind, _ = FIELD_TYPES[name]
        flag = f"--{name.replace('_', '-')}"
        if kind is bool:
            parser.add_argument(flag, default=None, action=argparse.BooleanOptionalAction)
        else:
            parser.add_argument(flag, type=kind, default=None)


def _resolve_config(args) -> AdaptConfig:
    """defaults < config file < explicit flags."""
    values = {} if args.config is None else AdaptConfig.from_json(args.config).to_dict()
    for name in FIELD_TYPES:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    return AdaptConfig.from_dict(values)


def _build_shift(args) -> ShiftSpec:
    translation = None
    if args.translate:
        translation = float(args.translate)
    return ShiftSpec(
        rotation_angle=float(np.deg2rad(args.rotate_deg)),
        translation=translation,
        noise_sigma=args.noise_sigma,
        seed=args.shift_seed,
    )


def cmd_gen(args) -> int:
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    shift = _build_shift(args)
    if args.kind == "gaussian":
        source, target = gen_gaussian_domains(
            class_count=args.classes, dim=args.dim, n_source=args.n_source,
            n_target=args.n_target, shift=shift, seed=args.seed,
            separation=args.separation, sigma=args.sigma,
        )
    else:
        source, target = gen_two_moons_domains(
            n_source=args.n_source, n_target=args.n_target, shift=shift,
            seed=args.seed, dim=args.dim, moon_noise=args.moon_noise,
        )
    source_path = out / "source.csv"
    target_path = out / "target.csv"
    save_dataset(source, source_path)
    save_dataset(target, target_path)
    manifest = RunManifest(
        command="gen",
        config={
            "kind": args.kind, "classes": source.class_count, "dim": args.dim,
            "n_source": args.n_source, "n_target": args.n_target,
            "rotate_deg": args.rotate_deg, "translate": args.translate,
            "noise_sigma": args.noise_sigma, "shift_seed": args.shift_seed,
            "separation": args.separation, "sigma": args.sigma,
            "moon_noise": args.moon_noise,
        },
        inputs={},
        outputs={"source": str(source_path), "target": str(target_path)},
        seed=args.seed,
        started_at=_now(),
        finished_at=_now(),
    )
    manifest.write(out / "gen_manifest.json")
    _say(args, f"wrote {source_path} and {target_path}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _resolve_config(args)
    source = load_dataset(args.source)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / "source_model.ckpt"
    manifest = RunManifest(
        command="pretrain",
        config=cfg.to_dict(),
        inputs={"source": str(args.source)},
        outputs={"checkpoint": str(ckpt_path)},
        seed=cfg.seed,
        started_at=_now(),
    )
    manifest_path = out / "pretrain_manifest.json"
    manifest.write(manifest_path)
    model = init_model(source.dim, source.class_count, cfg.seed, d_z=cfg.d_z)
    model, acc = pretrain_source(model, source, args.pretrain_epochs, cfg)
    save_model(model, ckpt_path)
    manifest.finished_at = _now()
    manifest.write(manifest_path)
    print(json.dumps({"source_accuracy": acc}))
    _say(args, f"wrote {ckpt_path}")
    return 0


def cmd_adapt(args) -> int:
    cfg = _resolve_config(args)
    model = load_model(args.model)
    target = load_dataset(args.target)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / "adapted.ckpt"
    metrics_path = out / "metrics.jsonl"
    manifest = RunManifest(
        command="adapt",
        config=cfg.to_dict(),
        inputs={"model": str(args.model), "target": str(args.target)},
        outputs={"checkpoint": str(ckpt_path), "metrics": str(metrics_path)},
        seed=cfg.seed,
        started_at=_now(),
    )
    manifest_path = out / "adapt_manifest.json"
    manifest.write(manifest_path)

    resume_state = None
    if args.resume is not None:
        resume_state = load_checkpoint(args.resume)
    model, metrics, state = adapt(
        model, target, cfg, resume_from=resume_state, abort_path=ckpt_path
    )
    with open(metrics_path, "w", encoding="utf-8") as fh:
        for record in metrics:
            fh.write(json.dumps(record.stream_dict()) + "\n")
    save_checkpoint(state, ckpt_path)
    manifest.finished_at = _now()
    manifest.write(manifest_path)
    if metrics:
        first, last = metrics[0], metrics[-1]
        _say(args, f"iterations: {len(metrics)}")
        if first.acc is not None:
            _say(args, f"target accuracy: {first.acc:.4f} -> {last.acc:.4f}")
    _say(args, f"wrote {ckpt_path} and {metrics_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    model = load_model(args.model)
    record = evaluate(model, load_dataset(args.data), bank=None, h=cfg.h)
    print(json.dumps(record.full_dict()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersfda",
        description="Source-free domain adaptation via hypergraph neighborhood clustering",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic source/target dataset pair")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")
    _add_output(gen)
    gen.add_argument("--kind", choices=["gaussian", "two-moons"], default="gaussian")
    gen.add_argument("--classes", type=int, default=4, help="number of classes (gaussian)")
    gen.add_argument("--dim", type=int, default=16, help="feature dimension")
    gen.add_argument("--n-source", type=int, default=400)
    gen.add_argument("--n-target", type=int, default=400)
    gen.add_argument("--rotate-deg", type=float, default=0.0,
                     help="target rotation in degrees")
    gen.add_argument("--translate", type=float, default=0.0,
                     help="scalar translation applied to every target coordinate")
    gen.add_argument("--noise-sigma", type=float, default=0.0,
                     help="extra target noise stdev")
    gen.add_argument("--shift-seed", type=int, default=0)
    gen.add_argument("--separation", type=float, default=4.0,
                     help="class mean separation in units of sigma (gaussian)")
    gen.add_argument("--sigma", type=float, default=1.0, help="class stdev (gaussian)")
    gen.add_argument("--moon-noise", type=float, default=0.1,
                     help="moon thickness (two-moons)")
    gen.set_defaults(func=cmd_gen)

    pre = sub.add_parser("pretrain", help="train the source model on a labeled dataset")
    _add_output(pre)
    pre.add_argument("--source", type=Path, required=True, help="labeled source CSV")
    pre.add_argument("--pretrain-epochs", type=int, default=30,
                     help="source training epochs")
    _add_config(pre, "pretrain")
    pre.set_defaults(func=cmd_pretrain)

    ada = sub.add_parser("adapt", help="adapt a source model to an unlabeled target CSV")
    _add_output(ada)
    ada.add_argument("--model", type=Path, required=True, help="source checkpoint")
    ada.add_argument("--target", type=Path, required=True, help="target CSV")
    ada.add_argument("--resume", type=Path, default=None,
                     help="trainer checkpoint to resume from")
    _add_config(ada, "adapt")
    ada.set_defaults(func=cmd_adapt)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a labeled CSV")
    _add_output(ev, out=False)
    ev.add_argument("--model", type=Path, required=True, help="model checkpoint")
    ev.add_argument("--data", type=Path, required=True, help="labeled CSV")
    _add_config(ev, "eval")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.checkpoint_path is not None:
            print(f"last good state saved to {exc.checkpoint_path}", file=sys.stderr)
        return RUNTIME_ABORT
    except (ConfigError, DatasetFormatError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
