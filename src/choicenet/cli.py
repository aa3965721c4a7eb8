"""Command-line entry point.

Subcommands: train, eval, predict, attention, theory-check, gen-synthetic,
convert. The default output root comes from ``CHOICENET_OUT`` (default
``./runs``). All commands are deterministic under ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import data as D
from . import inference as I
from . import model as M
from . import oracle as O
from . import training as T

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_INPUT = 2


def _out_root(args) -> str:
    return args.out or os.environ.get("CHOICENET_OUT", "runs")


def _load_dataset(args) -> D.ChoiceDataset:
    if not os.path.exists(args.data):
        raise FileNotFoundError(f"dataset file not found: {args.data}")
    if args.format == "csv":
        return D.load_csv(args.data, args.item_features)
    return D.load_basket_transactions(args.data)


def _model_config(args, input_dim: int) -> M.TCNetConfig:
    return M.TCNetConfig(
        input_dim=input_dim,
        hidden_dim=args.hidden_dim,
        n_layers=args.layers,
        n_heads=args.heads,
        dropout_rate=args.dropout,
        seed=args.seed,
    )


def _train_config(args) -> T.TrainConfig:
    return T.TrainConfig(
        initial_lr=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        weight_decay=args.weight_decay,
    )


def cmd_train(args) -> int:
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    if not args.lr > 0:
        raise ValueError(f"--lr must be > 0, got {args.lr}")
    if not 0.0 < args.threshold < 1.0:
        raise ValueError(f"--threshold must lie in (0, 1), got {args.threshold}")
    train_config = _train_config(args)
    ds = _load_dataset(args)
    out_dir = os.path.join(_out_root(args), args.run_id)
    os.makedirs(out_dir, exist_ok=True)

    # one split for every repeat, so their validation losses compare; only
    # the training seed varies
    splits = tuple(
        D.reduce_split(part, args.task, args.seed, k)
        for k, part in enumerate(D.split(ds, seed=args.seed))
    )
    objective = "binary_ce" if args.task == "multi" else "ce"
    reports = []
    best_val, best_artifacts = np.inf, None
    for rep in range(args.repeats):
        seed = args.seed + rep
        mc = _model_config(args, D.effective_feature_dim(splits[0]))
        tc = dataclasses.replace(train_config, seed=seed)
        mc.seed = seed
        params, report = T.train(mc, splits, tc, objective=objective)
        metric = _test_metric(params, mc, splits[2], args.task, args.threshold)
        report.test_metrics.update(metric)
        reports.append(report)
        # keep the repeat with the lowest best validation loss
        val = report.val_losses[report.best_epoch]
        if val < best_val:
            best_val, best_artifacts = val, (params, mc, tc)
        with open(os.path.join(out_dir, f"report_{rep}.txt"), "w") as fh:
            fh.write(report.to_text())

    params, mc, tc = best_artifacts
    M.save_checkpoint(os.path.join(out_dir, "best.ckpt.npz"), params, mc)
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        fh.write(mc.to_json())

    key = next(iter(reports[0].test_metrics))
    vals = np.array([r.test_metrics[key] for r in reports])
    summary = {
        "metric": key,
        "mean": float(vals.mean()),
        "std": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
        "repeats": args.repeats,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"{key}: {summary['mean']:.4f} +/- {summary['std']:.4f} over {args.repeats} run(s)")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def _test_metric(params, config, test_ds, task, threshold):
    if task == "multi":
        rep = I.evaluate(params, config, test_ds, D.MULTI, mu=threshold)
        return {"f1_loss": rep["f1_loss"]}
    return {"ce": T.dataset_ce(test_ds, params, config)}


def cmd_eval(args) -> int:
    params, config = M.load_checkpoint(args.checkpoint)
    # a basket file is scored as `train` scores its test split
    ds = D.reduce_split(_load_dataset(args), args.task, args.seed, 2)
    for k, v in _test_metric(params, config, ds, args.task, args.threshold).items():
        print(f"{k}: {v}")
    if args.task == "multi":
        print(f"threshold: {args.threshold}")
    return EXIT_OK


def cmd_predict(args) -> int:
    if args.task == "multi":
        ignored = ["--candidates"] if args.candidates is not None else []
    else:
        ignored = [flag for flag, given in (
            ("--size", args.size is not None), ("--method sample", args.method == "sample")
        ) if given]
    if ignored:
        raise ValueError(f"--task {args.task} does not use {' or '.join(ignored)}")
    params, config = M.load_checkpoint(args.checkpoint)
    catalog, S, C = _catalog_and_sets(args, config)
    if args.task == "multi":
        if args.size is not None:
            stop = ("fixed_size", args.size)
        elif catalog.stop_index is not None:
            stop = ("stop_item", catalog.stop_index)
        else:
            raise ValueError("--size is required because the catalog has no stop item")
        pred = I.generate_basket(
            params, config, catalog, S, method=args.method,
            stop=stop, rng=np.random.default_rng(args.seed),
        )
        print(";".join(catalog.names[i] for i in sorted(pred.basket)))
    else:
        items, probs = I.predict_sequential(params, config, catalog, C or S, S)
        for i, p in zip(items, probs):
            print(f"{catalog.names[i]}\t{p:.6f}")
    return EXIT_OK


def _catalog_and_sets(args, config):
    if args.data:
        ds = _load_dataset(args)
        catalog = ds.catalog
    else:
        catalog = D.ItemCatalog.one_hot([s.strip() for s in args.items.split(";")])
    S = [catalog.index_of(s.strip()) for s in args.assortment.split(";")]
    C = (
        [catalog.index_of(s.strip()) for s in args.candidates.split(";")]
        if args.candidates
        else None
    )
    return catalog, S, C


def cmd_attention(args) -> int:
    params, config = M.load_checkpoint(args.checkpoint)
    catalog, S, C = _catalog_and_sets(args, config)
    written = I.export_attention(
        params, config, catalog, C or S, S, args.out_dir, svg=not args.no_svg
    )
    for path in written:
        print(path)
    return EXIT_OK


def cmd_theory_check(args) -> int:
    if args.tabular:
        model = O.TabularSequentialModel.load(args.tabular)
        models = [model]
    else:
        rng = np.random.default_rng(args.seed)
        models = [
            O.TabularSequentialModel.random(args.n, rng) for _ in range(args.models)
        ]
    worst = 0.0
    for k, model in enumerate(models):
        params, config = O.build_constructive_tcnet(model)
        err = O.verify_representation(params, config, model)
        worst = max(worst, err)
        print(f"model {k} (n={model.n}): max representation error {err:.3e}")
    print(f"worst error: {worst:.3e}")
    return EXIT_OK if worst < args.tol else EXIT_ERROR


def cmd_gen_synthetic(args) -> int:
    if args.multi:
        ds = D.generate_boosted_multi(args.samples, seed=args.seed)
    else:
        ds = D.generate_boosted_synthetic(
            args.samples, boost_kind=args.boost_kind, boost_value=args.boost_value,
            seed=args.seed,
        )
    D.save_csv(ds, args.out_file)
    print(f"wrote {len(ds)} observations to {args.out_file}")
    return EXIT_OK


def cmd_convert(args) -> int:
    ds = D.load_basket_transactions(args.data)
    if args.to == "multi-csv":
        D.save_csv(ds, args.out_file)
    elif args.to == "sequential-csv":
        if args.append_stop:
            ds = D.ChoiceDataset(
                ds.catalog.with_stop_item(), ds.observations, ds.kind
            )
        seq = D.multi_to_sequential(ds, np.random.default_rng(args.seed), args.append_stop)
        D.save_csv(seq, args.out_file)
    else:
        raise ValueError(f"unknown conversion {args.to!r}")
    print(f"wrote {args.out_file}")
    return EXIT_OK


def _add_data_args(p, required=True):
    p.add_argument("--data", required=required, help="dataset file")
    p.add_argument("--format", choices=["csv", "transactions"], default="csv")
    p.add_argument("--item-features", default=None, help="optional item feature CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="choicenet")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write checkpoint + reports")
    _add_data_args(p)
    p.add_argument("--task", choices=["single", "sequential", "multi"], required=True)
    p.add_argument("--run-id", default="run")
    p.add_argument("--out", default=None, help="output root (default $CHOICENET_OUT or ./runs)")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--hidden-dim", type=int, default=32)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_data_args(p)
    p.add_argument("--task", choices=["single", "sequential", "multi"], required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="probability vectors or generated baskets")
    _add_data_args(p, required=False)
    p.add_argument("--task", choices=["single", "sequential", "multi"], required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--items", default="", help="semicolon-separated catalog names")
    p.add_argument("--assortment", required=True)
    p.add_argument("--candidates", default=None)
    p.add_argument("--method", choices=["greedy", "sample"], default="greedy")
    p.add_argument("--size", type=int, default=None, help="fixed basket size")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("attention", help="export attention CSV/SVG for one input")
    _add_data_args(p, required=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--items", default="")
    p.add_argument("--assortment", required=True)
    p.add_argument("--candidates", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--no-svg", action="store_true")
    p.set_defaults(fn=cmd_attention)

    p = sub.add_parser("theory-check", help="exact-representation check for tabular models")
    p.add_argument("--tabular", default=None, help="tabular model file")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--models", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=cmd_theory_check)

    p = sub.add_parser("gen-synthetic", help="boosted-utility synthetic datasets")
    p.add_argument("--samples", type=int, default=24000)
    p.add_argument("--boost-kind", choices=["candidate", "chosen"], default="candidate")
    p.add_argument("--boost-value", type=float, default=100.0)
    p.add_argument("--multi", action="store_true")
    p.add_argument("--out-file", required=True)
    p.set_defaults(fn=cmd_gen_synthetic)

    p = sub.add_parser("convert", help="basket transactions -> CSV schemas")
    p.add_argument("--data", required=True)
    p.add_argument("--to", choices=["multi-csv", "sequential-csv"], default="multi-csv")
    p.add_argument("--append-stop", action="store_true")
    p.add_argument("--out-file", required=True)
    p.set_defaults(fn=cmd_convert)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (D.DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except T.DivergedError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
