"""Benchmark of calibtrain's training throughput and suite workflow.

    python3 bench/run.py --workload train-small-batch --seed 0 --seconds 15 --trace 0

Run from the repository root or any checkout of it; the program is imported
from ``src/`` beside this directory. One round is a fixed set of operations
(seven ``train()`` calls, or one short ``suite`` with its ``report`` and
``plot``). Rounds repeat until ``--seconds`` have passed, at least once, and
``wall_s`` is the median round. The outputs of every round are checked.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run also
writes its spans to ``.bench_trace/<workload>-seed<seed>.json``.
"""

import time

_LOADED = time.perf_counter()

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
TMP_DIR = ROOT / ".bench_tmp"

# Batch 25 is the default; 250 makes the n x n loss terms and the training
# votes dominate a step instead of per-step graph overhead. Epochs are the
# fewest at which every default strategy learns on every seed tried (the
# accuracy check needs that): soft_ece is the slowest starter.
TRAIN_WORKLOADS = {
    "train-small-batch": {"batch_size": 25, "epochs": 3},
    "train-large-batch": {"batch_size": 250, "epochs": 20},
}
SUITE_EPOCHS = 2
SUITE_SEEDS = 2
GRAD_COORDS_PER_PARAM = 3
WORKLOADS = (*TRAIN_WORKLOADS, "suite-short")


def process_age_s() -> float:
    """Seconds since this process started.

    Read from /proc so interpreter start-up counts; falls back to the time
    since this module was loaded where /proc is unavailable or disagrees.
    """
    loaded = time.perf_counter() - _LOADED
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return loaded
    return age if loaded <= age < loaded + 5.0 else loaded


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/maps") as f:
        libs = [line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line]
    threads = None
    if libs:
        lib = ctypes.CDLL(libs[0])
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                threads = getattr(lib, symbol)()
                break
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": threads}


def digests(run: Path) -> dict:
    return {str(p.relative_to(run)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class TrainWorkload:
    """Every default-suite strategy trained once per round by ``train()``."""

    def __init__(self, name: str, seed: int, tracer):
        from calibtrain.data import generate_gaussian_mixture
        from calibtrain.harness.config import DEFAULT_SUITE, ExperimentConfig
        from calibtrain.losses import LossSpec

        self.seed = seed
        self.config = c = ExperimentConfig(**TRAIN_WORKLOADS[name], data_seed=seed, seeds=[seed])
        generate = generate_gaussian_mixture
        if tracer is not None:
            generate = tracer.wrap(generate, "data.generate")
        self.split = generate(sizes=c.sizes, d=c.d, separation=c.separation,
                              noise_rate=c.noise_rate, positive_fraction=c.positive_fraction,
                              seed=c.data_seed)
        self.specs = [LossSpec.from_dict(dict(entry)) for entry in DEFAULT_SUITE]
        self.strategies = [spec.strategy for spec in self.specs]
        self.ops_per_round = len(self.specs)
        self.samples_per_round = c.epochs * c.sizes[0] * len(self.specs)
        self.histories = None
        self.problems = []

    def run_round(self) -> tuple[float, int]:
        from calibtrain.harness import training

        histories, failed = [], 0
        start = time.perf_counter()
        for spec in self.specs:
            try:
                history = training.train(self.config, self.split, self.seed, spec)
            except Exception as err:   # count the failure and go on with the round
                print(f"train({spec.strategy}) raised {type(err).__name__}: {err}",
                      file=sys.stderr)
                history = None
            if history is None or history.failed:
                failed += 1
            histories.append(history)
        wall = time.perf_counter() - start
        if self.histories is None:
            self.histories = histories
        else:
            for spec, a, b in zip(self.specs, self.histories, histories):
                if not same_history(a, b):
                    self.problems.append(f"{spec.strategy}: a rerun gave another history")
        return wall, failed

    def check(self, tracer) -> list[str]:
        import numpy as np

        from calibtrain.data import FeatureScaler, features, labels, posteriors
        from calibtrain.model import VaeClassifier
        from calibtrain.uncertainty import epistemic_batch

        import checks

        c, split = self.config, self.split
        scaler = FeatureScaler().fit(features(split.train))
        x_val, g_val = scaler.transform(features(split.validation)), labels(split.validation)
        rng = np.random.default_rng((self.seed, 7))
        batch = rng.permutation(len(split.train))[:c.batch_size]
        xb = scaler.transform(features(split.train))[batch]
        gb = labels(split.train)[batch]

        problems = list(self.problems)
        for spec, history in zip(self.specs, self.histories):
            if history is None or history.failed:
                continue   # counted in ``failed``
            found = []
            if len(history.entries) != c.epochs:
                found.append(f"{len(history.entries)} epochs recorded, expected {c.epochs}")
            models = {}
            for criterion in checks.CRITERIA:
                best = history.best[criterion]
                model = VaeClassifier(d=c.d, hidden=c.hidden, latent=c.latent, seed=self.seed)
                model.params.load_values(best["params"])
                models[criterion] = model
                found += checks.check_val_ece(model.predict_probs(x_val), g_val,
                                              history.entries[best["epoch"]].val_ece)
            model = models["max-val-bacc"]
            found += checks.check_accuracy(model.predict_probs(x_val), g_val,
                                           posteriors(split.validation))
            conf = None
            if spec.strategy == "confidence_weight":
                conf = epistemic_batch(model, xb, n=c.n_uncertainty,
                                       rng=np.random.default_rng((self.seed, 2, 0, 0)))
            grads, loss_at = checks.gradient_probe(model, xb, gb, spec, (self.seed, 8), conf)
            coords = checks.sample_coords({k: g.shape for k, g in grads.items()}, rng,
                                          GRAD_COORDS_PER_PARAM)
            found += checks.check_gradient(loss_at, grads, coords)
            problems += [f"{spec.strategy}: {p}" for p in found]
        if tracer is not None:
            problems += check_traced_steps(tracer, c)
        return problems


def same_history(a, b) -> bool:
    import numpy as np

    if a is None or b is None:
        return a is b
    if a.failed != b.failed or a.entries != b.entries or a.best.keys() != b.best.keys():
        return False
    for criterion, best in a.best.items():
        other = b.best[criterion]
        if best["epoch"] != other["epoch"] or any(
                not np.array_equal(v, other["params"][k]) for k, v in best["params"].items()):
            return False
    return True


def check_traced_steps(tracer, config) -> list[str]:
    import checks

    problems = []
    for strategy, steps in tracer.steps_per_train():
        problems += [f"{strategy}: {p}" for p in
                     checks.check_steps(steps, config.epochs, config.sizes[0], config.batch_size)]
    return problems


class SuiteWorkload:
    """``calibtrain suite`` over the default strategies, then ``report`` and
    ``plot`` on its output, all through ``harness.cli.main``."""

    def __init__(self, seed: int):
        from calibtrain.harness.config import DEFAULT_SUITE, ExperimentConfig

        self.seeds = [seed + k for k in range(SUITE_SEEDS)]
        self.config = ExperimentConfig(epochs=SUITE_EPOCHS, seeds=self.seeds, data_seed=seed)
        self.strategies = [entry["strategy"] for entry in DEFAULT_SUITE]
        n_cells = len(self.strategies) * len(self.seeds)
        self.ops_per_round = n_cells + 2
        self.samples_per_round = SUITE_EPOCHS * self.config.sizes[0] * n_cells
        self.argv = ["--epochs", str(SUITE_EPOCHS), "--seeds", ",".join(map(str, self.seeds)),
                     "--data-seed", str(seed)]
        self.problems = []
        self.reference = None

    def run_round(self) -> tuple[float, int]:
        from calibtrain.harness import cli

        # one fixed path per process, since the manifest records the path
        run = TMP_DIR / f"suite-{os.getpid()}"
        shutil.rmtree(run, ignore_errors=True)
        run.mkdir(parents=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                suite_rc = cli.main(["suite", "--out", str(run), *self.argv])
                wall = time.perf_counter() - start
                svgs = {p.name: p.read_bytes() for p in (run / "reliability").glob("*.svg")}
                report = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(report):
                    report_rc = cli.main(["report", str(run)])
                plot_rc = cli.main(["plot", str(run)])
                wall += time.perf_counter() - start
            failed = self._failed_cells(run)
            failed += int(report_rc != 0 or "metrics_softmax" not in report.getvalue())
            failed += int(plot_rc != 0)
            self._check(run, svgs)
        finally:
            shutil.rmtree(run, ignore_errors=True)
            with contextlib.suppress(OSError):
                TMP_DIR.rmdir()
        return wall, failed

    def _failed_cells(self, run: Path) -> int:
        n_cells = self.ops_per_round - 2
        manifest = run / "manifest.json"
        if not manifest.exists():
            return n_cells
        cells = json.loads(manifest.read_text())["cells"]
        return n_cells - sum(not cell["failed"] for cell in cells)

    def _check(self, run: Path, svgs_before: dict) -> None:
        import checks

        if self.reference is None:
            svgs_after = {p.name: p.read_bytes() for p in (run / "reliability").glob("*.svg")}
            self.problems += checks.check_same_bytes(svgs_before, svgs_after, "plot SVG")
            self.problems += checks.check_suite_reports(
                run, self.config.sizes[2], self.seeds, self.config.criterion)
            self.reference = digests(run)
        elif digests(run) != self.reference:
            self.problems.append("a rerun of the suite wrote other bytes")

    def check(self, tracer) -> list[str]:
        problems = list(self.problems)
        if tracer is not None:
            problems += check_traced_steps(tracer, self.config)
        return problems


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "calibtrain").is_dir():
        print(f"error: no calibtrain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import calibtrain

    if Path(calibtrain.__file__).resolve().parent != (SRC / "calibtrain").resolve():
        print(f"error: imported calibtrain from {calibtrain.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    if args.workload == "suite-short":
        workload = SuiteWorkload(args.seed)
    else:
        workload = TrainWorkload(args.workload, args.seed, tracer)
    setup_s = process_age_s()

    walls, failed = [], 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        if tracer is not None:
            tracer.round = len(walls)
        wall, round_failed = workload.run_round()
        walls.append(wall)
        failed += round_failed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()
    wall_s = statistics.median(walls)
    problems = workload.check(tracer)

    if tracer is not None:
        values = tracer.metrics(len(walls), workload.strategies, wall_s)
        metrics = {k: {"value": v, "unit": spans.metric_unit(k)} for k, v in values.items()}
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "rounds": len(walls),
            "round_wall_s": walls, "environment": environment(),
            "span_fields": ["name", "start_ns", "end_ns", "parent", "strategy", "round"],
            "spans": tracer.spans}) + "\n")
        print(f"spans in {trace_path}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "train_samples_per_s": {"value": workload.samples_per_round / wall_s,
                                    "unit": "samples/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = len(walls) * workload.ops_per_round
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"rounds {len(walls)} ({' '.join(f'{w:.3f}' for w in walls)} s), "
          f"attempted {attempted}, failed {failed}, correct {not problems}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
