"""Command-line interface: gen, pretrain, adapt, eval.

pretrain, adapt and eval resolve their configuration as defaults < --config
JSON < explicit flags. Each registers flags only for the AdaptConfig fields
it reads, and AdaptConfig checks every value. gen, pretrain and adapt write
<command>_manifest.json before work starts, recording the settings read,
every other argument, and the outputs, so a run can be reproduced from its
manifest alone. The commands here choose every file a run writes; the
engine writes none of its own, and an abort's last good state is saved
here too.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime abort
(non-finite values in pretraining or adaptation).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
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
from .model import (CheckpointError, check_pretrain_inputs, init_model, load_model,
                    pretrain_source, save_model)
from .trainer import (
    TrainingAborted,
    adapt,
    check_adapt_inputs,
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


# parsed arguments that are not inputs of a run: where it writes, how much
# it prints, the --config path (its values land in the manifest's config)
# and the subcommand dispatch
_NOT_INPUTS = ("out", "quiet", "config", "command", "func")


@contextlib.contextmanager
def _manifest(args, config: AdaptConfig | None, outputs: dict[str, Path]):
    """Write <command>_manifest.json into --out before the work, stamp it after.

    The manifest's config holds the AdaptConfig fields the command reads
    (gen, which has none, records its flags as given) and its inputs hold
    every other argument, so the run can be reproduced from the manifest
    alone. A run that raises leaves finished_at empty.
    """
    given = {name: str(value) if isinstance(value, Path) else value
             for name, value in vars(args).items() if name not in _NOT_INPUTS}
    settings = given if config is None else {
        name: getattr(config, name) for name in _COMMAND_FIELDS[args.command]}
    manifest = {
        "command": args.command,
        "config": settings,
        "inputs": {name: value for name, value in given.items() if name not in settings},
        "outputs": {name: str(path) for name, path in outputs.items()},
        "seed": settings["seed"],
        "tool_version": __version__,
        "started_at": _now(),
        "finished_at": "",
    }
    path = args.out / f"{args.command}_manifest.json"
    args.out.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    yield
    manifest["finished_at"] = _now()
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _trim_stream(path: Path, iteration: int) -> None:
    """Cut a metrics stream before its first record at or past `iteration`.

    A line that is not a whole JSON record (a run killed mid-write) ends the
    kept part too; a missing file becomes an empty one.
    """
    kept = []
    with contextlib.suppress(FileNotFoundError, ValueError, TypeError, KeyError):
        for line in path.read_bytes().splitlines(keepends=True):
            if not line.endswith(b"\n") or json.loads(line)["iter"] >= iteration:
                break
            kept.append(line)
    path.write_bytes(b"".join(kept))


@contextlib.contextmanager
def _save_on_abort(save, path: Path):
    """On TrainingAborted, save its last good state or model to `path`, say so, re-raise.

    main turns the abort into exit 3; a manifest around this keeps an empty
    finished_at.
    """
    try:
        yield
    except TrainingAborted as exc:
        save(exc.last_good, path)
        print(f"error: {exc}", file=sys.stderr)
        print(f"last good state saved to {path}", file=sys.stderr)
        raise


def cmd_gen(args) -> int:
    # generated in memory first: refused inputs must leave --out as it was
    shift = ShiftSpec(rotation_angle=float(np.deg2rad(args.rotate_deg)),
                      translation=args.translate, noise_sigma=args.noise_sigma,
                      seed=args.shift_seed)
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
    source_path, target_path = args.out / "source.csv", args.out / "target.csv"
    with _manifest(args, None, {"source": source_path, "target": target_path}):
        save_dataset(source, source_path)
        save_dataset(target, target_path)
    _say(args, f"wrote {source_path} and {target_path}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _resolve_config(args)
    source = load_dataset(args.source)
    ckpt_path = args.out / "source_model.ckpt"
    # refused inputs must leave the previous run in --out as it was
    model = init_model(source.dim, source.class_count, cfg.seed, d_z=cfg.d_z)
    check_pretrain_inputs(model, source, args.pretrain_epochs)
    with _manifest(args, cfg, {"checkpoint": ckpt_path}), _save_on_abort(save_model, ckpt_path):
        model, acc = pretrain_source(model, source, args.pretrain_epochs, cfg)
        save_model(model, ckpt_path)
    print(json.dumps({"source_accuracy": acc}))
    _say(args, f"wrote {ckpt_path}")
    return 0


def cmd_adapt(args) -> int:
    cfg = _resolve_config(args)
    model = load_model(args.model)
    target = load_dataset(args.target)
    ckpt_path = args.out / "adapted.ckpt"
    metrics_path = args.out / "metrics.jsonl"
    resume_state = None if args.resume is None else load_checkpoint(args.resume)
    # refused inputs must leave the previous run in --out as it was
    check_adapt_inputs(model, target, cfg, resume_state)
    # one line per iteration as it completes, handed to the OS as its line ends
    # (line-buffered); a resumed run keeps the records before its checkpoint
    # and appends the rest
    with (_manifest(args, cfg, {"checkpoint": ckpt_path, "metrics": metrics_path}),
          _save_on_abort(save_checkpoint, ckpt_path)):
        if resume_state is not None:
            _trim_stream(metrics_path, resume_state.iteration)
        with open(metrics_path, "w" if resume_state is None else "a", buffering=1,
                  encoding="utf-8") as fh:
            model, metrics, state = adapt(
                model, target, cfg, resume_from=resume_state,
                iteration_callback=lambda _, record: fh.write(
                    json.dumps(record.stream_dict()) + "\n"),
            )
        save_checkpoint(state, ckpt_path)
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
    print(json.dumps({**record.stream_dict(),
                      "misleading_ratio": list(record.misleading_ratio)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersfda",
        description="Source-free domain adaptation via hypergraph neighborhood clustering",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", allow_abbrev=False,
                         help="generate a synthetic source/target dataset pair")
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

    pre = sub.add_parser("pretrain", allow_abbrev=False,
                         help="train the source model on a labeled dataset")
    _add_output(pre)
    pre.add_argument("--source", type=Path, required=True, help="labeled source CSV")
    pre.add_argument("--pretrain-epochs", type=int, default=30,
                     help="source training epochs")
    _add_config(pre, "pretrain")
    pre.set_defaults(func=cmd_pretrain)

    ada = sub.add_parser("adapt", allow_abbrev=False,
                         help="adapt a source model to an unlabeled target CSV")
    _add_output(ada)
    ada.add_argument("--model", type=Path, required=True, help="source checkpoint")
    ada.add_argument("--target", type=Path, required=True, help="target CSV")
    ada.add_argument("--resume", type=Path, default=None,
                     help="trainer checkpoint to resume from")
    _add_config(ada, "adapt")
    ada.set_defaults(func=cmd_adapt)

    ev = sub.add_parser("eval", allow_abbrev=False,
                        help="evaluate a checkpoint on a labeled CSV")
    _add_output(ev, out=False)
    ev.add_argument("--model", type=Path, required=True, help="model checkpoint")
    ev.add_argument("--data", type=Path, required=True, help="labeled CSV")
    _add_config(ev, "eval")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # a diverged run is reported by its exit code and error line, not numpy warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except TrainingAborted:  # reported where its last good state was saved
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
