"""Command-line interface.

Subcommands: train, eval, gradcheck, ablate, gen-data. Exit codes:
0 success, 1 other package error, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from ..errors import ConfigError, NumericError, PairtrackError
from ..numerics import load_checkpoint, save_checkpoint
from .config import RunConfig, load_config
from .data import generate_dataset
from .metrics import HEADER, format_record, write_metrics
from .model import Tracker
from .train import ablate, evaluate, train
from .verify import end_to_end_gradient_check, frozen_backbone_check, unit_gradient_suite


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--config", type=str, default=None, help="flat key = value file")
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--lr", type=float, default=None)
    sp.add_argument("--n-experts", type=int, default=None, dest="n_experts")
    sp.add_argument("--top-k", type=int, default=None, dest="top_k")
    sp.add_argument("--reduction-g", type=int, default=None, dest="reduction_g")
    sp.add_argument("--shared-m", type=int, default=None, dest="shared_m")
    sp.add_argument("--epsilon-mode", choices=("auto", "fixed"), default=None,
                    dest="epsilon_mode")
    sp.add_argument("--epsilon", type=float, default=None, dest="epsilon_value")
    sp.add_argument("--lambda-iou", type=float, default=None, dest="lambda_iou")
    sp.add_argument("--lambda-l1", type=float, default=None, dest="lambda_l1")
    sp.add_argument("--alpha", type=float, default=None)
    for toggle in ("sdmoe", "mff", "gram", "mhg"):
        sp.add_argument(f"--toggle-{toggle}", action=argparse.BooleanOptionalAction,
                        default=None, dest=f"toggle_{toggle}")
    sp.add_argument("--out", type=str, default="pairtrack_out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairtrack",
        description="Train and ablate a miniature two-modality tracker on synthetic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("train", "train the tracker and write metrics plus a checkpoint"),
        ("eval", "evaluate a (fresh or checkpointed) model on the eval split"),
        ("gradcheck", "run the unit and end-to-end gradient suites"),
        ("ablate", "train the variant ladder and print the comparison table"),
        ("gen-data", "generate the synthetic dataset and write it to disk"),
    ):
        _add_common(sub.add_parser(name, help=desc))
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    keys = {f.name for f in fields(RunConfig)}
    overrides = {key: value for key, value in vars(args).items() if key in keys}
    return load_config(args.config, overrides)


def _cmd_train(cfg: RunConfig, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    result = train(cfg)
    write_metrics(result.records, os.path.join(out_dir, "metrics.tsv"))
    save_checkpoint(result.model.store, out_dir)
    sys.stdout.write(HEADER)
    sys.stdout.write(format_record(result.records[-1]))
    print(f"initial total {result.initial_loss:.6g} -> final {result.final_loss:.6g}")
    print(f"wrote metrics and checkpoint under {out_dir}")
    return 0


def _cmd_eval(cfg: RunConfig, out_dir: str) -> int:
    model = Tracker(cfg)
    manifest = os.path.join(out_dir, "checkpoint.manifest")
    if os.path.exists(manifest):
        load_checkpoint(model.store, out_dir)
        print(f"loaded checkpoint from {out_dir}")
    record = evaluate(model, generate_dataset(cfg, cfg.n_eval, "eval"))
    sys.stdout.write(HEADER)
    sys.stdout.write(format_record(record))
    return 0


def _cmd_gradcheck(cfg: RunConfig, out_dir: str) -> int:
    del cfg, out_dir  # suites pin their own tiny configuration
    failures = 0
    for result in unit_gradient_suite():
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} unit/{result.name} max_rel_err={result.error:.3e} tol={result.tol:g}")
        failures += 0 if result.passed else 1
    for result in end_to_end_gradient_check():
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} model/{result.name} max_rel_err={result.error:.3e} tol={result.tol:g}")
        failures += 0 if result.passed else 1
    frozen = frozen_backbone_check()
    print(f"{'PASS' if frozen.passed else 'FAIL'} model/{frozen.name}")
    failures += 0 if frozen.passed else 1
    if failures:
        raise NumericError(f"gradient suite: {failures} check(s) failed")
    print("gradient suite: all checks passed")
    return 0


def _cmd_ablate(cfg: RunConfig, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    rows = ablate(cfg)
    lines = ["# variant\ttrainable_params\tadapter_params\tmean_iou\tsuccess50\tsuccess70\n"]
    for row in rows:
        lines.append(
            f"{row.name}\t{row.trainable_params}\t{row.adapter_params}\t"
            f"{row.record.mean_iou:.6f}\t{row.record.success_at_50:.6f}\t"
            f"{row.record.success_at_70:.6f}\n"
        )
    with open(os.path.join(out_dir, "ablation.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    sys.stdout.writelines(lines)
    return 0


def _cmd_gen_data(cfg: RunConfig, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    samples = generate_dataset(cfg, cfg.n_train, "data")
    path = os.path.join(out_dir, "dataset.npz")
    np.savez(
        path,
        template_r=np.stack([s.template_r for s in samples]),
        template_x=np.stack([s.template_x for s in samples]),
        search_r=np.stack([s.search_r for s in samples]),
        search_x=np.stack([s.search_x for s in samples]),
        boxes=np.stack([s.gt_box.as_array() for s in samples]),
        tags=np.array([s.tag for s in samples]),
    )
    counts = {}
    for s in samples:
        counts[s.tag] = counts.get(s.tag, 0) + 1
    print(f"wrote {len(samples)} samples to {path}")
    for tag in sorted(counts):
        print(f"  {tag}: {counts[tag]}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "ablate": _cmd_ablate,
    "gen-data": _cmd_gen_data,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except PairtrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
