"""In-memory span recorder that times calibtrain layers from outside.

The recorder replaces public functions with timing wrappers at the place the
caller looks the name up (the harness imports with ``from ... import ...``,
so ``calibtrain.harness.training.backward`` is patched, not
``calibtrain.autodiff.backward``). Nothing inside ``src/`` changes; the
original functions are put back by :meth:`Tracer.restore`.

A span is ``[name, start_ns, end_ns, parent, strategy, round]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``strategy`` the strategy
of the enclosing ``train()`` call (``None`` outside training) and ``round``
the benchmark round the span belongs to (-1 during set-up).
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, STRATEGY = range(5)

# span name -> metric name for every timed layer
TIMED = {
    "harness.training.train": "harness.training.train_s",
    "model.forward": "model.forward_s",
    "autodiff.backward": "autodiff.backward_s",
    "autodiff.adam_step": "autodiff.adam_step_s",
    "losses.total_loss": "losses.total_loss_s",
    "uncertainty.epistemic_batch": "uncertainty.epistemic_batch_s",
    "model.predict_probs": "model.predict_probs_s",
    "metrics.records": "metrics.records_s",
    "metrics.calibration": "metrics.calibration_s",
    "metrics.classification": "metrics.classification_s",
    "uncertainty.epistemic_records": "uncertainty.epistemic_records_s",
    "uncertainty.aleatoric_records": "uncertainty.aleatoric_records_s",
    "harness.suite.write": "harness.suite.write_s",
    "harness.svg.render": "harness.svg.render_s",
    "harness.cli.report": "harness.cli.report_s",
    "harness.cli.plot": "harness.cli.plot_s",
    "data.generate": "data.generate_s",
}
# every per-layer metric; the first group is also reported per strategy,
# from the spans inside that strategy's train() calls
TRAINING_METRICS = (
    "harness.training.train_s", "harness.training.train_self_s",
    "harness.training.steps", "harness.training.step_ms_p50",
    "model.forward_s", "autodiff.backward_s", "autodiff.adam_step_s",
    "autodiff.nodes_per_step", "losses.total_loss_s", "model.predict_probs_s",
    "metrics.records_s", "metrics.calibration_s", "metrics.classification_s",
)
OTHER_METRICS = (
    "uncertainty.epistemic_batch_s", "uncertainty.epistemic_records_s",
    "uncertainty.aleatoric_records_s", "uncertainty.records",
    "harness.suite.write_s", "harness.svg.render_s", "harness.cli.report_s",
    "harness.cli.plot_s", "data.generate_s", "bench.traced_wall_s",
)
COUNT_METRICS = ("harness.training.steps", "autodiff.nodes_per_step", "uncertainty.records")


def metric_names(strategies: list[str]) -> list[str]:
    """Every per-layer metric, in report order."""
    names = list(TRAINING_METRICS + OTHER_METRICS)
    for strategy in strategies:
        names.extend(f"{m}.{strategy}" for m in TRAINING_METRICS)
    names.append("uncertainty.epistemic_batch_s.confidence_weight")
    return names


def metric_unit(name: str) -> str:
    if name.startswith(COUNT_METRICS):
        return "count"
    return "ms" if "step_ms" in name else "s"


def count_graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through ``Node.parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.round = -1
        self.strategy: str | None = None
        self.nodes: list[tuple[str | None, int]] = []   # (strategy, nodes) per loss
        self.records: list[tuple[int, int]] = []         # (round, records) per call
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.strategy, self.round])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name, after=None):
        """Time every call of ``fn`` as a span; ``name`` may be a function of
        the call's arguments. ``after(result, args, kwargs)`` runs outside
        the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def patch(self, owner, attr: str, name, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap each layer's public functions where the harness calls them."""
        from calibtrain import autodiff, model
        from calibtrain.harness import cli, suite, training

        signature = inspect.signature(training.train)
        timed_train = self.wrap(training.train, "harness.training.train")

        @functools.wraps(training.train)
        def train(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            spec = bound.arguments.get("spec")
            self.strategy = (spec.strategy if spec is not None
                             else bound.arguments["config"].loss["strategy"])
            try:
                return timed_train(*args, **kwargs)
            finally:
                self.strategy = None

        for owner in (training, suite):
            self._patches.append((owner, "train", owner.train))
            owner.train = train

        def count_nodes(result, args, kwargs):
            index = self.open("bench.graph_walk")
            self.nodes.append((self.strategy, count_graph_nodes(result[0])))
            self.close(index)

        def count_records(result, args, kwargs):
            self.records.append((self.round, len(result)))

        def records_kind(args, kwargs):
            kind = kwargs["kind"] if "kind" in kwargs else args[2]
            return f"uncertainty.{kind}_records"

        self.patch(model.VaeClassifier, "forward", "model.forward")
        self.patch(model.VaeClassifier, "predict_probs", "model.predict_probs")
        self.patch(autodiff.Adam, "step", "autodiff.adam_step")
        self.patch(training, "backward", "autodiff.backward")
        self.patch(training, "total_loss", "losses.total_loss", after=count_nodes)
        self.patch(training, "epistemic_batch", "uncertainty.epistemic_batch")
        self.patch(training, "records_from_probs", "metrics.records")
        for owner, names in ((training, ("ece",)),
                             (suite, ("ece", "aece", "oe", "mce", "brier",
                                      "reliability_table"))):
            for attr in names:
                self.patch(owner, attr, "metrics.calibration")
        self.patch(training, "classification_metrics", "metrics.classification")
        self.patch(suite, "classification_metrics", "metrics.classification")
        self.patch(suite, "mcnemar", "metrics.classification")
        self.patch(suite, "uncertainty_records", records_kind, after=count_records)
        self.patch(suite, "write_csv", "harness.suite.write")
        self.patch(suite, "write_reliability_svg", "harness.svg.render")
        self.patch(cli, "write_reliability_svg", "harness.svg.render")
        self.patch(suite, "generate_gaussian_mixture", "data.generate")
        self.patch(cli, "cmd_report", "harness.cli.report")
        self.patch(cli, "cmd_plot", "harness.cli.plot")

    # -- aggregation ---------------------------------------------------------

    def steps_per_train(self) -> list[tuple[str, int]]:
        """(strategy, optimiser steps) for every train() call."""
        steps = Counter(span[PARENT] for span in self.spans if span[NAME] == "autodiff.adam_step")
        return [(span[STRATEGY], steps[i]) for i, span in enumerate(self.spans)
                if span[NAME] == "harness.training.train"]

    def metrics(self, rounds: int, strategies: list[str], wall_s: float) -> dict:
        """Per-layer figures for one round: totals over the timed rounds
        divided by ``rounds``, plus whatever set-up (round -1) recorded.

        Unsuffixed metrics cover every span; ``<metric>.<strategy>`` covers
        the spans inside that strategy's train() calls.
        """
        totals = defaultdict(lambda: defaultdict(float))
        step_ms = defaultdict(list)
        child_ns = defaultdict(int)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        forward_start = None
        for i, (name, start, end, _, strategy, rnd) in enumerate(self.spans):
            weight = 1.0 if rnd < 0 else 1.0 / rounds
            keys = (None, strategy) if strategy is not None else (None,)
            for key in keys:
                if name in TIMED:
                    totals[key][TIMED[name]] += (end - start) * 1e-9 * weight
                if name == "harness.training.train":
                    totals[key]["harness.training.train_self_s"] += (
                        (end - start - child_ns[i]) * 1e-9 * weight)
                elif name == "autodiff.adam_step" and forward_start is not None:
                    totals[key]["harness.training.steps"] += weight
                    step_ms[key].append((end - forward_start) * 1e-6)
            if name == "bench.graph_walk":   # the benchmark's own work, not train()'s
                for key in keys:
                    totals[key]["harness.training.train_s"] -= (end - start) * 1e-9 * weight
                if forward_start is not None:
                    forward_start += end - start
            elif name == "model.forward":
                forward_start = start
            elif name == "autodiff.adam_step":
                forward_start = None
        nodes = defaultdict(list)
        for strategy, count in self.nodes:
            nodes[None].append(count)
            nodes[strategy].append(count)

        out = {}
        for name in metric_names(strategies):
            head, _, last = name.rpartition(".")
            base, key = (head, last) if last in strategies else (name, None)
            if base == "bench.traced_wall_s":
                value = wall_s
            elif base == "harness.training.step_ms_p50":
                value = statistics.median(step_ms[key]) if step_ms[key] else 0.0
            elif base == "autodiff.nodes_per_step":
                value = statistics.median(nodes[key]) if nodes[key] else 0
            elif base == "uncertainty.records":
                value = sum(n for rnd, n in self.records if rnd >= 0) / rounds
            else:
                value = totals[key].get(base, 0.0)
            out[name] = value
        return out
