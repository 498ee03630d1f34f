"""Command-line front end.

Subcommands:
  train           one training run: epoch history plus best checkpoints
  grid            inner 2-fold grid search, per-cell table
  suite           full strategy x seed evaluation bundle
  report          print the aggregate tables of a finished suite run
  plot            re-render reliability SVGs from a run's CSV tables

Every run subcommand accepts ``--config FILE`` (JSON) plus flag overrides;
flags win over the file. ``--set KEY=VALUE`` overrides any config field,
parsing VALUE as JSON when possible. A subcommand takes only the flags it
reads. No config field names the output directory: ``--out`` (default
``runs``) does, under CALIBTRAIN_OUT when that is set and the path is relative.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from pathlib import Path

from ..losses import STRATEGIES, LossSpec
from ..metrics import Bin, BinTable
from ..model import VaeClassifier, save_checkpoint
from .config import CRITERIA, ExperimentConfig
from .grid import grid_search
from .suite import (EVAL_MODES, HISTORY_COLUMNS, RELIABILITY_COLUMNS, generate_split,
                    history_rows, reliability_title, run_suite, write_csv)
from .svg import write_reliability_svg
from .training import train


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _read(path: Path, parse: Callable[[str], object], kind: str):
    """``parse`` of a file's text; a file that is not UTF-8, or that
    ``parse`` refuses with a ValueError, is a ValueError that names it."""
    try:
        return parse(path.read_text())
    except ValueError as err:        # a UnicodeDecodeError is one too
        raise ValueError(f"{path}: not {kind} ({err})") from None


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    data = {}
    if args.config:
        data = _read(Path(args.config), json.loads, "JSON")
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: a config must be a JSON object, "
                             f"got {type(data).__name__}")
    for item in args.set or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        data[key] = _parse_value(raw)
    for name in ("epochs", "batch_size", "data_seed", "noise_rate", "criterion"):
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    if getattr(args, "seeds", None) is not None:
        try:
            data["seeds"] = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise ValueError(f"--seeds expects comma-separated integers, "
                             f"got {args.seeds!r}") from None
    loss = data.get("loss", {})
    if getattr(args, "strategy", None) and isinstance(loss, dict):   # else the config refuses it
        data["loss"] = {**loss, "strategy": args.strategy}
    return ExperimentConfig.from_dict(data)


def out_dir(args: argparse.Namespace) -> Path:
    """``--out``, under CALIBTRAIN_OUT if set (joining keeps an absolute path)."""
    return Path(os.environ.get("CALIBTRAIN_OUT", ""), args.out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    config = load_config(args)
    seed = config.seeds[0]
    spec = LossSpec.from_dict(dict(config.loss))
    out = out_dir(args)
    # an earlier run's checkpoints must not sit beside this run's history
    for criterion in CRITERIA:
        for name in ("manifest.json", "params.bin"):
            (out / "checkpoints" / criterion / name).unlink(missing_ok=True)
    split = generate_split(config)
    history = train(config, split, seed=seed, spec=spec)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "history.csv", HISTORY_COLUMNS, history_rows(history))
    if history.failed:
        print(f"run failed: {history.failure} "
              f"({len(history.entries)} epochs kept)", file=sys.stderr)
        return 1
    for criterion in CRITERIA:
        best = history.best[criterion]
        model = VaeClassifier(d=config.d, hidden=config.hidden,
                              latent=config.latent, seed=seed)
        model.params.load_values(best["params"])
        save_checkpoint(model, out / "checkpoints" / criterion, epoch=best["epoch"],
                        extra={"criterion": criterion, "strategy": spec.strategy,
                               "seed": seed, "config": config.to_dict()})
        print(f"{criterion}: epoch {best['epoch']} "
              f"(validation value {best['value']:.4f})")
    print(f"history and checkpoints in {out}")
    return 0


def cmd_grid(args) -> int:
    config = load_config(args)
    split = generate_split(config)
    try:
        result = grid_search(config, split)
    except RuntimeError as err:
        print(f"grid search failed: {err}", file=sys.stderr)
        return 1
    out = out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    keys = sorted(config.grid)
    rows = []
    for cell in result.cells:
        row = [cell.values[k] for k in keys]
        scores = list(cell.fold_scores) + [None] * (2 - len(cell.fold_scores))
        row.extend(scores)
        row.append(cell.mean_score)
        row.append("yes" if cell.failed else "no")
        rows.append(row)
    write_csv(out / "grid.csv", keys + ["fold0", "fold1", "mean", "failed"], rows)
    best = {k: getattr(result.best, k) for k in keys}
    print(f"best cell under {config.criterion}: {best}")
    print(f"per-cell table in {out / 'grid.csv'}")
    return 0


def cmd_suite(args) -> int:
    config = load_config(args)
    out = out_dir(args)
    result = run_suite(config, out)
    for cell in result.cells:
        status = f"FAILED ({cell.failure})" if cell.failed else "ok"
        print(f"{cell.strategy} seed {cell.seed}: {status}")
    print(f"reports in {out}")
    return 0 if result.ok else 1


def _parse_table(text: str) -> list[list[str]]:
    """A report CSV's rows of cells, each as wide as the header."""
    table = [line.split(",") for line in text.splitlines()]
    if not table:
        raise ValueError("empty, not even a header")
    for row, cells in enumerate(table[1:], start=2):
        if len(cells) != len(table[0]):
            raise ValueError(f"line {row} has {len(cells)} columns, expected {len(table[0])}")
    return table


def _print_table(table: list[list[str]]) -> None:
    # shorten float cells for display; the CSV keeps full precision
    shown = []
    for row in table:
        cells = []
        for cell in row:
            try:
                f = float(cell)
                cells.append(f"{f:.4g}" if "." in cell or "e" in cell else cell)
            except ValueError:
                cells.append(cell)
        shown.append(cells)
    widths = [max(len(r[i]) for r in shown) for i in range(len(shown[0]))]
    for row in shown:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def cmd_report(args) -> int:
    run = Path(args.run_dir)
    manifest_path = run / "manifest.json"
    if not manifest_path.exists():
        print(f"no manifest.json under {run}", file=sys.stderr)
        return 1
    manifest = _read(manifest_path, json.loads, "JSON")
    try:
        header = f"config hash {manifest['config_hash']}, seeds {manifest['seeds']}"
        failed = [f"  {c['strategy']} seed {c['seed']}: {c['failure']}"
                  for c in manifest["cells"] if c["failed"]]
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed manifest {manifest_path}: "
                         f"{type(err).__name__}: {err}") from None
    # read every table before printing any, so a bad table prints nothing
    names = [f"metrics_{mode}" for mode in EVAL_MODES]
    names += ["selection_comparison", "mcnemar_vs_baseline"]
    tables = [(name, _read(run / f"{name}.csv", _parse_table, "a CSV table"))
              for name in names if (run / f"{name}.csv").exists()]
    print(header)
    if failed:
        print(f"{len(failed)} failed cell(s):")
        print("\n".join(failed))
    for name, table in tables:
        print(f"\n{name}")
        _print_table(table)
    return 0


def _table_from_csv(path: Path) -> BinTable:
    """A reliability table read back from its CSV; ValueError names the file."""
    scheme = next((s for s in ("equal_width", "adaptive")
                   if path.stem.endswith(f"_{s}")), None)
    if scheme is None:
        raise ValueError(f"{path}: the name ends in neither _equal_width nor _adaptive")
    header, *rows = _read(path, _parse_table, "a CSV table")
    if tuple(header) != RELIABILITY_COLUMNS:
        raise ValueError(f"{path}: header {','.join(header)}, "
                         f"expected {','.join(RELIABILITY_COLUMNS)}")
    if not rows:
        raise ValueError(f"{path}: no bins, only a header")
    opt = lambda s: None if s == "" else float(s)
    bins = []
    for row, cells in enumerate(rows, start=2):
        cell = dict(zip(RELIABILITY_COLUMNS, cells))
        try:
            bins.append(Bin(lower=opt(cell["lower"]), upper=opt(cell["upper"]),
                            count=int(cell["count"]), conf=opt(cell["conf"]),
                            acc=opt(cell["acc"])))
        except ValueError as err:
            raise ValueError(f"{path}: line {row}: {err}") from None
    n = sum(b.count for b in bins)
    return BinTable(scheme=scheme, m=len(bins), n=n, bins=bins)


def cmd_plot(args) -> int:
    run = Path(args.run_dir)
    rel = run / "reliability"
    paths = sorted(rel.glob("*.csv")) if rel.is_dir() else []
    if not paths:
        print(f"no reliability tables under {rel}", file=sys.stderr)
        return 1
    # read every table before writing any SVG, so a bad table writes nothing
    tables = [(path, _table_from_csv(path)) for path in paths]
    for path, table in tables:
        suffix = f"_{table.scheme}"
        strategy = path.stem[: -len(suffix)]
        write_reliability_svg(table, path.with_suffix(".svg"),
                              reliability_title(strategy, table.scheme))
        print(f"rendered {path.with_suffix('.svg')}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calibtrain",
        description="calibration-aware training experiments on synthetic data")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", default="runs",
                        help="output directory (default: runs, under $CALIBTRAIN_OUT if set)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override any config field; VALUE parsed as JSON")
    common.add_argument("--epochs", type=int)
    common.add_argument("--batch-size", type=int, dest="batch_size")
    common.add_argument("--seeds", help="comma-separated run seeds")
    common.add_argument("--data-seed", type=int, dest="data_seed")
    common.add_argument("--noise-rate", type=float, dest="noise_rate")
    # each subcommand takes only the flags it reads, and no abbreviation of
    # one (train --seed is not --seeds)
    run = dict(parents=[common], allow_abbrev=False)
    strategy = dict(choices=list(STRATEGIES), help="replace the configured loss strategy")

    p = sub.add_parser("train", **run, help="single training run, first seed")
    p.add_argument("--strategy", **strategy)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid", **run, help="grid search over loss hyperparameters")
    p.add_argument("--strategy", **strategy)
    p.add_argument("--criterion", choices=list(CRITERIA))
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("suite", **run, help="train and evaluate every configured strategy")
    p.add_argument("--criterion", choices=list(CRITERIA))
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("report", help="print the tables of a finished run")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("plot", help="re-render reliability SVGs for a run")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
