"""Spans around the public functions of each stockcast layer, installed from
outside the package.

`Tracer` wraps every public function a layer module defines and puts the
wrapper everywhere the original is looked up: module globals of every
stockcast module (names imported by name, such as `backtest.train` or
`models.backward`) and module-level dicts (`cli.COMMANDS`). Each call
records a span `[name, label, start, end, parent]`; a layer's self time is
the duration of its spans minus the time their child spans cover.
Untraced passes touch no program internals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("market_data", "relation_graph", "models", "autodiff", "optim", "backtest", "cli")


def _hook_lstm_stack(tracer, span, a, result):
    tracer.counts["models.lstm_stack_seq"] += a["x"].shape[0]


def _hook_model_forward(tracer, span, a, result):
    span[1] = "train" if a["training"] else "eval"


def _hook_train(tracer, span, a, result):
    kind = a["spec"].kind
    span[1] = kind
    epochs = len(result.history)
    tracer.counts[f"models.epochs.{kind}"] += epochs
    tracer.counts[f"models.sample_epochs.{kind}"] += len(a["dataset"]) * epochs


def _hook_run_backtest(tracer, span, a, result):
    span[1] = a["spec"].kind
    tracer.counts["backtest.steps"] += len(a["plan"].steps)


def _counter(key, size):
    def hook(tracer, span, a, result):
        tracer.counts[key] += size(result)
    return hook


HOOKS = {
    "models.lstm_stack": _hook_lstm_stack,
    "models.model_forward": _hook_model_forward,
    "models.train": _hook_train,
    "backtest.run_backtest": _hook_run_backtest,
    "autodiff.topo_order": _counter("autodiff.tape_nodes", len),
    "relation_graph.apriori_frequent": _counter("relation_graph.frequent_itemsets", len),
    "relation_graph.mine_rules": _counter("relation_graph.rules", lambda r: len(r.rules)),
    "relation_graph.build_graph": _counter("relation_graph.edges", lambda r: len(r.edges)),
    "market_data.parse_ohlcv_csv": _counter("market_data.parse_rows", lambda r: len(r.rows)),
}


class Tracer:
    """Records one span per call of every public layer function while active."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []
        self._wrappers = wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"stockcast.{layer}")
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn, HOOKS.get(f"{layer}.{name}"))

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, "", clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, span, bound.arguments, result)
            return result

        return wrapper

    def __enter__(self):
        """Put each wrapper in place of its function in the module globals and
        module-level dicts of every loaded stockcast module."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "stockcast" or name.startswith("stockcast.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._undo.append((vars(mod), attr, value))
                    setattr(mod, attr, self._wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in self._wrappers:
                            self._undo.append((value, key, item))
                            value[key] = self._wrappers[item]
        return self

    def __exit__(self, *exc):
        for namespace, key, original in reversed(self._undo):
            namespace[key] = original
        self._undo.clear()
        return False

    @contextmanager
    def root(self):
        """The span `bench.pass` that covers one whole pass; its self time is
        the time no layer accounts for."""
        span = ["bench.pass", "", time.perf_counter(), 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        """Spans as CSV rows: index, name, label, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index,name,label,start,end,parent\n")
            for i, (name, label, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{label},{start!r},{end!r},{parent}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times and counts from the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, label, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, label, start, end, parent) in enumerate(self.spans):
            dur = end - start
            self_s[name.split(".")[0]] += dur - child[i]
            total[name] += dur
            calls[name] += 1
            if label:
                total[f"{name}:{label}"] += dur

        c = self.counts
        m: dict[str, float] = {}
        lstm_s = total["models.lstm_stack"]
        m["models.lstm_stack_s"] = lstm_s
        m["models.lstm_stack_calls"] = calls["models.lstm_stack"]
        m["models.lstm_stack_seq_per_s"] = c["models.lstm_stack_seq"] / lstm_s if lstm_s else 0.0
        m["models.forward_s.train"] = total["models.model_forward:train"]
        m["models.forward_s.eval"] = total["models.model_forward:eval"]
        m["models.gcn_s"] = total["models.gcn_forward"]
        m["models.predict_s"] = total["models.predict"]
        train_s = total["models.train:hybrid"]
        m["models.train_s.hybrid"] = train_s
        m["models.epochs.hybrid"] = c["models.epochs.hybrid"]
        m["models.sample_epochs_per_s.hybrid"] = (
            c["models.sample_epochs.hybrid"] / train_s if train_s else 0.0)
        m["models.self_s"] = self_s["models"]

        m["autodiff.backward_s"] = total["autodiff.backward"]
        m["autodiff.backward_calls"] = calls["autodiff.backward"]
        m["autodiff.tape_nodes"] = c["autodiff.tape_nodes"]
        m["autodiff.self_s"] = self_s["autodiff"]

        m["optim.adam_s"] = total["optim.adam_step"]
        m["optim.adam_steps"] = calls["optim.adam_step"]
        m["optim.self_s"] = self_s["optim"]

        rg = "relation_graph"
        m[f"{rg}.build_s"] = total[f"{rg}.build_graph"]
        m[f"{rg}.build_calls"] = calls[f"{rg}.build_graph"]
        m[f"{rg}.pearson_s"] = total[f"{rg}.pearson_matrix"] + total[f"{rg}.correlation_edges"]
        m[f"{rg}.transactions_s"] = total[f"{rg}.co_movement_transactions"]
        m[f"{rg}.apriori_s"] = total[f"{rg}.apriori_frequent"]
        m[f"{rg}.apriori_calls"] = calls[f"{rg}.apriori_frequent"]
        m[f"{rg}.frequent_itemsets"] = c[f"{rg}.frequent_itemsets"]
        m[f"{rg}.rules_s"] = total[f"{rg}.mine_rules"]
        m[f"{rg}.rules"] = c[f"{rg}.rules"]
        m[f"{rg}.assemble_s"] = total[f"{rg}.assemble_graph"] + total[f"{rg}.edge_records"]
        m[f"{rg}.adjacency_s"] = total[f"{rg}.normalized_adjacency"]
        m[f"{rg}.edges"] = c[f"{rg}.edges"]
        m[f"{rg}.self_s"] = self_s[rg]

        m["market_data.parse_s"] = total["market_data.parse_ohlcv_csv"]
        m["market_data.parse_rows"] = c["market_data.parse_rows"]
        m["market_data.align_s"] = total["market_data.align_panel"]
        m["market_data.scale_s"] = total["market_data.fit_scaler"] + total["market_data.scale"]
        m["market_data.windows_s"] = total["market_data.make_windows"]
        m["market_data.self_s"] = self_s["market_data"]

        m["backtest.run_s.hybrid"] = total["backtest.run_backtest:hybrid"]
        m["backtest.steps"] = c["backtest.steps"]
        m["backtest.self_s"] = self_s["backtest"]
        m["cli.self_s"] = self_s["cli"]

        m["trace.wall_s"] = total["bench.pass"]
        m["trace.unattributed_s"] = self_s["bench"]
        return m

