"""Command line entry points: gen-data, train, eval, ablate, bench.

Exit code 0 on success; any failure prints a single machine-parsable
`error: <kind>: <detail>` line on stderr and exits nonzero.
"""

import argparse
import json
import os
import sys

from . import dataio
from .ablate import run_ablation, summarize
from .bench import run_bench
from .config import ExperimentConfig
from .evaluate import evaluate
from .train import load_trained_model, train


def _build_parser():
    parser = argparse.ArgumentParser(prog="handmesh",
                                     description="Hand mesh recovery toolkit: data, training, ablations, benchmarks.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic dataset")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=int, required=True, help="number of samples")

    t = sub.add_parser("train", help="train a model from a config")
    t.add_argument("--config", help="experiment config JSON (defaults used if omitted)")
    t.add_argument("--dataset", help="override dataset directory")
    t.add_argument("--out", help="override output directory")
    t.add_argument("--seed", type=int, help="override seed")
    t.add_argument("--steps", type=int, help="override total steps")

    e = sub.add_parser("eval", help="evaluate a finished run")
    e.add_argument("--config", required=True,
                   help="config snapshot inside the run directory (next to checkpoint.bin)")
    e.add_argument("--dataset", help="override dataset directory")
    e.add_argument("--out", help="report directory (default: the run directory)")

    a = sub.add_parser("ablate", help="run a config grid with shared seeds")
    a.add_argument("--grid", required=True, help="grid JSON path")
    a.add_argument("--config", help="base experiment config JSON")
    a.add_argument("--dataset", help="override dataset directory")
    a.add_argument("--out", required=True, help="directory for the ablation CSV and runs")
    a.add_argument("--seed", type=int, default=0, help="first of three consecutive seeds")
    a.add_argument("--steps", type=int, help="override per-cell training steps")

    b = sub.add_parser("bench", help="latency and parameter-count report")
    b.add_argument("--config", help="experiment config JSON")
    b.add_argument("--iters", type=int, default=50)
    b.add_argument("--out", help="directory for bench.json")
    b.add_argument("--seed", type=int, help="override seed")
    return parser


def _load_config(path, **overrides):
    cfg = ExperimentConfig.load(path) if path else ExperimentConfig()
    fields = {k: v for k, v in overrides.items() if v is not None}
    if fields:
        from dataclasses import replace

        cfg = replace(cfg, **fields)
    return cfg


def _cmd_gen_data(args):
    manifest = dataio.generate_dataset(args.out, args.count, args.seed)
    print(json.dumps({"out": args.out, "count": manifest["count"], "seed": manifest["seed"]}))


def _cmd_train(args):
    cfg = _load_config(args.config, dataset=args.dataset, out_dir=args.out,
                       seed=args.seed, total_steps=args.steps)
    if not cfg.dataset or not cfg.out_dir:
        raise ValueError("train needs a dataset and an output directory (config or flags)")
    art = train(cfg)
    print(json.dumps({"checkpoint": art.checkpoint, "initial_loss": art.initial_loss,
                      "final_loss": art.final_loss}))


def _cmd_eval(args):
    if os.path.basename(args.config) != "config.json" or not os.path.isfile(args.config):
        raise ValueError(f"eval reads the run beside its config.json snapshot; got {args.config}")
    run_dir = os.path.dirname(os.path.abspath(args.config))
    model, cfg = load_trained_model(run_dir)
    dataset_dir = args.dataset or cfg.dataset
    ds = dataio.Dataset(dataset_dir)
    report, _ = evaluate(model, ds, out_dir=args.out or run_dir)
    print(json.dumps(report, indent=2, sort_keys=True))


def _cmd_ablate(args):
    with open(args.grid) as fh:
        grid = json.load(fh)
    cfg = _load_config(args.config, dataset=args.dataset, total_steps=args.steps)
    if not cfg.dataset:
        raise ValueError("ablate needs a dataset (config or --dataset)")
    out_csv = os.path.join(args.out, "ablation.csv")
    seeds = tuple(args.seed + i for i in range(3))
    run_ablation(cfg, grid, out_csv, seeds=seeds)
    print(json.dumps(summarize(out_csv), indent=2, sort_keys=True))


def _cmd_bench(args):
    cfg = _load_config(args.config, seed=args.seed)
    result = run_bench(cfg, iters=args.iters)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "bench.json"), "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result, indent=2, sort_keys=True))


_DISPATCH = {"gen-data": _cmd_gen_data, "train": _cmd_train, "eval": _cmd_eval,
             "ablate": _cmd_ablate, "bench": _cmd_bench}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _DISPATCH[args.cmd](args)
    except Exception as err:  # one-line, machine-parsable failure contract
        detail = " ".join(str(err).split())
        print(f"error: {type(err).__name__}: {detail}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
