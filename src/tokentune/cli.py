"""Command-line entry point: train, eval, gradcheck, memsweep.

One JSON config file drives everything; `--set key=value` applies dot-path
overrides, and TOKENTUNE_SEED overrides the training seed. Exit codes:
0 success, 1 failed verification property, 2 invalid config/checkpoint,
3 non-finite loss abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import (ADAPTER_REGIMES, REGIMES, SELECTIVE_REGIMES,
                     ConfigError, RunConfig, apply_overrides,
                     load_run_config)

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NAN_ABORT = 3


def _resolve_config(path: str, overrides) -> RunConfig:
    cfg = load_run_config(path)  # validates the file exists / parses
    doc = cfg.to_dict()
    doc = apply_overrides(doc, overrides or [])
    env_seed = os.environ.get("TOKENTUNE_SEED")
    if env_seed is not None:
        doc.setdefault("train", {})["seed"] = int(env_seed)
    return RunConfig.from_dict(doc)


def cmd_train(args) -> int:
    from .optimize import StepError, run_training

    cfg = _resolve_config(args.config, args.set)
    out_dir = args.out or cfg.out_dir
    try:
        result = run_training(cfg, out_dir)
    except StepError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_NAN_ABORT
    print(f"trained {result.steps} steps; artifacts in {out_dir}")
    print(json.dumps(result.eval_metrics, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    from .checkpoint import CheckpointError, load_adapters, load_model
    from .data import build_task_datasets
    from .optimize import evaluate

    cfg = _resolve_config(args.config, args.set)
    if cfg.train.regime in ADAPTER_REGIMES and not args.adapters:
        print(f"eval error: a '{cfg.train.regime}' run trains adapters; "
              f"pass its adapter checkpoint with --adapters",
              file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        model = load_model(args.checkpoint)
        if args.adapters:
            load_adapters(model, args.adapters)
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
    from .memprofile import sweep_report
    from .partition import resolve_k

    cfg = _resolve_config(args.config, args.set)
    n = args.n or cfg.task.seq_len
    regimes = (args.regimes.split(",") if args.regimes is not None
               else REGIMES)
    try:
        ratios = ([float(r) for r in args.ratios.split(",")]
                  if args.ratios else [0.125, 0.25, 0.5, 1.0])
        valid = all(0.0 < r <= 1.0 for r in ratios)
    except ValueError:
        valid = False
    if not valid:
        print(f"invalid --ratios {args.ratios!r}: each selection ratio must "
              f"be a number in (0, 1]", file=sys.stderr)
        return EXIT_BAD_CONFIG
    grid = []
    for regime in regimes:
        if not regime:
            continue
        if regime in SELECTIVE_REGIMES:
            for ratio in ratios:
                grid.append({"regime": regime, "n": n,
                             "k": resolve_k(None, ratio, n),
                             "batch": args.batch})
        else:
            grid.append({"regime": regime, "n": n, "k": None,
                         "batch": args.batch})
    out_file = args.out or "memsweep.csv"
    Path(out_file).parent.mkdir(parents=True, exist_ok=True)
    rows = sweep_report(grid, cfg.model, cfg.train, out_path=out_file)
    print(f"wrote {len(rows)} rows to {out_file}")
    for row in sorted(rows, key=lambda r: r["peak_bytes"]):
        print(f"  {row['regime']:>15s} k={row['k']:<5d} "
              f"peak={row['peak_bytes']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    from .verify import MUTANTS

    parser = argparse.ArgumentParser(
        prog="tokentune",
        description="Token-selective fine-tuning engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dot-path config override")
        p.add_argument("--out", help="output directory/file")

    p_train = sub.add_parser("train", help="train per the config")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--adapters", help="adapter checkpoint to attach")
    p_eval.set_defaults(func=cmd_eval)

    p_gc = sub.add_parser("gradcheck", help="run the verification battery")
    p_gc.add_argument("--n-configs", type=int, default=20)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--inject-bug", dest="mutant", choices=MUTANTS)
    p_gc.set_defaults(func=cmd_gradcheck)

    p_ms = sub.add_parser("memsweep", help="memory sweep table")
    common(p_ms)
    p_ms.add_argument("--n", type=int, help="sequence length "
                      "(default: task seq_len)")
    p_ms.add_argument("--batch", type=int, default=1)
    p_ms.add_argument("--regimes", help="comma list; empty string for an "
                      "empty grid")
    p_ms.add_argument("--ratios", help="comma list of selection ratios")
    p_ms.set_defaults(func=cmd_memsweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
