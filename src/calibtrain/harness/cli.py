"""Command-line front end.

Subcommands:
  train           one training run: epoch history plus best checkpoints
  grid            inner 2-fold grid search, per-cell table
  suite           full strategy x seed evaluation bundle
  report          print the aggregate tables of a finished suite run
  plot            re-render reliability SVGs from a run's CSV tables

Every run subcommand accepts ``--config FILE`` (JSON) plus flag overrides;
flags win over the file. ``--set KEY=VALUE`` overrides any config field,
parsing VALUE as JSON when possible. The CALIBTRAIN_OUT environment
variable prefixes relative output directories.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..losses import STRATEGIES, LossSpec
from ..metrics import Bin, BinTable
from ..model import VaeClassifier, save_checkpoint
from .config import CRITERIA, ExperimentConfig
from .grid import grid_search
from .suite import (HISTORY_COLUMNS, RELIABILITY_COLUMNS, generate_split, history_rows,
                    reliability_title, run_suite, write_csv)
from .svg import write_reliability_svg
from .training import train


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    data = {}
    if args.config:
        data = json.loads(Path(args.config).read_text())
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
    if getattr(args, "out", None):
        data["out_dir"] = args.out
    return ExperimentConfig.from_dict(data)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    config = load_config(args)
    seed = args.seed if args.seed is not None else config.seeds[0]
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")
    spec = LossSpec.from_dict(dict(config.loss))
    split = generate_split(config)
    history = train(config, split, seed=seed, spec=spec)
    out = config.resolve_out_dir()
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
    out = config.resolve_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    keys = sorted(config.grid)
    rows = []
    for cell in result.cells:
        row = [cell.values[k] for k in keys]
        scores = list(cell.fold_scores) + [None] * (2 - len(cell.fold_scores))
        row.extend(scores)
        row.append(None if cell.failed else cell.mean_score)
        row.append("yes" if cell.failed else "no")
        rows.append(row)
    write_csv(out / "grid.csv", keys + ["fold0", "fold1", "mean", "failed"], rows)
    best = {k: getattr(result.best, k) for k in keys}
    print(f"best cell under {config.criterion}: {best}")
    print(f"per-cell table in {out / 'grid.csv'}")
    return 0


def cmd_suite(args) -> int:
    config = load_config(args)
    result = run_suite(config, out_override=args.out)
    for cell in result.cells:
        status = f"FAILED ({cell.failure})" if cell.failed else "ok"
        print(f"{cell.strategy} seed {cell.seed}: {status}")
    print(f"reports in {result.out_dir}")
    return 0 if result.ok else 1


def _read_table(path: Path) -> list[list[str]]:
    """A report CSV's rows of cells; ValueError names the file."""
    table = [line.split(",") for line in path.read_text().splitlines()]
    if not table:
        raise ValueError(f"{path}: empty, not even a header")
    for row, cells in enumerate(table[1:], start=2):
        if len(cells) != len(table[0]):
            raise ValueError(f"{path}: line {row} has {len(cells)} columns, "
                             f"expected {len(table[0])}")
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
    manifest = json.loads(manifest_path.read_text())
    try:
        header = f"config hash {manifest['config_hash']}, seeds {manifest['seeds']}"
        failed = [f"  {c['strategy']} seed {c['seed']}: {c['failure']}"
                  for c in manifest["cells"] if c["failed"]]
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed manifest {manifest_path}: "
                         f"{type(err).__name__}: {err}") from None
    # read every table before printing any, so a bad table prints nothing
    names = ("metrics_softmax", "metrics_epistemic", "metrics_aleatoric",
             "selection_comparison", "mcnemar_vs_baseline")
    tables = [(name, _read_table(run / f"{name}.csv")) for name in names
              if (run / f"{name}.csv").exists()]
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
    header, *rows = _read_table(path)
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
    common.add_argument("--out", help="output directory (overrides the config)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override any config field; VALUE parsed as JSON")
    common.add_argument("--epochs", type=int)
    common.add_argument("--batch-size", type=int, dest="batch_size")
    common.add_argument("--seeds", help="comma-separated run seeds")
    common.add_argument("--data-seed", type=int, dest="data_seed")
    common.add_argument("--noise-rate", type=float, dest="noise_rate")
    common.add_argument("--criterion", choices=list(CRITERIA))
    common.add_argument("--strategy", choices=list(STRATEGIES),
                        help="replace the configured loss strategy")

    p = sub.add_parser("train", parents=[common], help="single training run")
    p.add_argument("--seed", type=int, help="run seed (default: first config seed)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid", parents=[common],
                       help="grid search over loss hyperparameters")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("suite", parents=[common],
                       help="train and evaluate every configured strategy")
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
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
