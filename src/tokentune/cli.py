"""Command-line entry point: train, eval, gradcheck, memsweep.

One JSON config file drives everything; `--set key=value` applies dot-path
overrides to it before the config is built and checked. `eval` reads one
checkpoint, `model.ckpt`: its header holds the model config and, for an
adapter run, the LoRA targets, rank and scaling, and its payload every
parameter that config makes, LoRA factors included.
Exit codes: 0 success, 1 failed verification property, 2 invalid config,
option, data or checkpoint, 3 non-finite loss abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import REGIMES, ConfigError, load_run_config
from .data import DataError

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NAN_ABORT = 3


def _out_fault(path, is_dir: bool) -> str | None:
    """Why `path` cannot be written as a directory (`is_dir`) or as a
    file: it is empty, it exists as the other kind, or the nearest of its
    parents that exists is no directory. None if it can be."""
    if not path:
        return "the path is empty"
    p = Path(path)
    if p.exists():
        if p.is_dir() == is_dir:
            return None
        return f"{p} is {'not ' if is_dir else ''}a directory"
    parent = next(q for q in p.parents if q.exists())
    return None if parent.is_dir() else f"{parent} is not a directory"


def cmd_train(args) -> int:
    from .optimize import StepError, run_training

    cfg = load_run_config(args.config, args.set)
    out_dir = cfg.out_dir if args.out is None else args.out
    if fault := _out_fault(out_dir, is_dir=True):
        print(f"invalid run directory: {fault}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        result = run_training(cfg, out_dir)
    except StepError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_NAN_ABORT
    print(f"trained {result.steps} steps; artifacts in {out_dir}")
    print(json.dumps(result.eval_metrics, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    from .checkpoint import CheckpointError, load_model
    from .data import build_task_datasets
    from .optimize import evaluate

    cfg = load_run_config(args.config, args.set)
    try:
        model = load_model(args.checkpoint)
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    if model.config != cfg.model:
        print("checkpoint error: checkpoint config does not match the "
              "run config", file=sys.stderr)
        return EXIT_BAD_CONFIG
    _, test_set = build_task_datasets(cfg.task, cfg.model)
    metrics = evaluate(model, test_set, cfg.task.kind)
    print(json.dumps(metrics, sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .verify import run_gradcheck

    for option, value, floor in (("--n-configs", args.n_configs, 1),
                                 ("--seed", args.seed, 0)):
        if value < floor:
            print(f"invalid {option} {value}: must be >= {floor}",
                  file=sys.stderr)
            return EXIT_BAD_CONFIG
    report = run_gradcheck(n_configs=args.n_configs, seed=args.seed,
                           mutant=args.mutant)
    print(f"equivalence records checked: {report['suite_records']}")
    print(f"finite-difference max rel err: {report['fd_max_rel_err']:.3e} "
          f"(worst: {report['fd_worst_param']})")
    if report["all_pass"]:
        print("gradcheck: all properties PASS")
        return EXIT_OK
    print("gradcheck: FAILED properties: "
          + ", ".join(report["failed_properties"]))
    for rec in report["suite_failures"]:
        print(f"  repro: {json.dumps(rec, sort_keys=True)}")
    return EXIT_PROPERTY_FAILED


def cmd_memsweep(args) -> int:
    from .memprofile import RATIOS, sweep_report

    cfg = load_run_config(args.config, args.set)
    try:
        ratios = ([float(r) for r in args.ratios.split(",")]
                  if args.ratios else RATIOS)
        valid = all(0.0 < r <= 1.0 for r in ratios)
    except ValueError:
        valid = False
    if not valid:
        print(f"invalid --ratios {args.ratios!r}: each selection ratio must "
              f"be a number in (0, 1]", file=sys.stderr)
        return EXIT_BAD_CONFIG
    regimes = (REGIMES if args.regimes is None
               else [r for r in args.regimes.split(",") if r])
    out_file = "memsweep.csv" if args.out is None else args.out
    if fault := _out_fault(out_file, is_dir=False):
        print(f"invalid --out: {fault}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    n = args.n if args.n is not None else cfg.task.seq_len
    try:
        rows = sweep_report(cfg.model, cfg.train, n, args.batch, regimes,
                            ratios, out_path=out_file)
    except ConfigError as exc:
        # the two config fields a sweep checks its options by
        option = {"task.seq_len": "--n",
                  "train.batch_size": "--batch"}.get(exc.field_name)
        if option is None:
            raise
        print(f"invalid {option}: {exc.message}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    print(f"wrote {len(rows)} rows to {out_file}")
    for row in sorted(rows, key=lambda r: r["peak_bytes"]):
        print(f"  {row['regime']:>15s} k={row['k']:<5d} "
              f"peak={row['peak_bytes']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    from .memprofile import RATIOS
    from .verify import MUTANTS

    parser = argparse.ArgumentParser(
        prog="tokentune",
        description="Token-selective fine-tuning engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="dot-path config override")

    p_train = sub.add_parser("train", help="train per the config")
    common(p_train)
    p_train.add_argument("--out", help="run directory (default: the "
                         "config's out_dir)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_gc = sub.add_parser("gradcheck", help="run the verification battery")
    p_gc.add_argument("--n-configs", type=int, default=20)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--inject-bug", dest="mutant", choices=MUTANTS)
    p_gc.set_defaults(func=cmd_gradcheck)

    p_ms = sub.add_parser("memsweep", help="memory sweep table")
    common(p_ms)
    p_ms.add_argument("--out", help="CSV file (default: memsweep.csv)")
    p_ms.add_argument("--n", type=int, help="sequence length "
                      "(default: task seq_len)")
    p_ms.add_argument("--batch", type=int, default=1)
    p_ms.add_argument("--regimes", help="comma list; empty string for an "
                      "empty grid")
    p_ms.add_argument("--ratios", help="comma list of selection ratios in "
                      "(0, 1] for the selective regimes (default: "
                      f"{','.join(map(str, RATIOS))})")
    p_ms.set_defaults(func=cmd_memsweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except DataError as exc:
        print(f"invalid data: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
