"""Run one benchmark workload and print its metrics as JSON on the last line.

    python3 bench/run.py --workload hybrid_default --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout: the program is imported from its
`src/` directory, never from an installed copy. With `--trace 0` the run
prints the end-to-end metrics, with `--trace 1` the per-layer metrics of one
untraced and one traced pass. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
IMPORT_REPEATS = 21

# name -> (unit, better); bounds of the end-to-end metrics are in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),  # median wall seconds of one pass
    "peak_rss_mb": ("MB", "lower"),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    names = ["models.lstm_stack_s", "models.lstm_stack_calls", "models.lstm_stack_seq_per_s",
             "models.forward_s.train", "models.forward_s.eval", "models.gcn_s", "models.predict_s",
             "models.train_s.hybrid", "models.epochs.hybrid", "models.sample_epochs_per_s.hybrid",
             "models.self_s",
              "autodiff.backward_s", "autodiff.backward_calls", "autodiff.tape_nodes",
              "autodiff.self_s",
              "optim.adam_s", "optim.adam_steps", "optim.self_s"]
    names += [f"relation_graph.{n}" for n in (
        "build_s", "build_calls", "pearson_s", "transactions_s", "apriori_s", "apriori_calls",
        "frequent_itemsets", "rules_s", "rules", "assemble_s", "adjacency_s", "edges", "self_s")]
    names += [f"market_data.{n}" for n in (
        "parse_s", "parse_rows", "align_s", "scale_s", "windows_s", "self_s")]
    names += ["backtest.run_s.hybrid", "backtest.step_s.hybrid", "backtest.mse.hybrid",
              "backtest.mse_ref.train_mean", "backtest.mse_ref.persistence",
              "backtest.mse_ref.linreg",
              "backtest.steps", "backtest.self_s",
              "cli.cmd_s.ingest", "cli.cmd_s.graph", "cli.self_s",
              "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.unattributed_s"]
    spec = {}
    for name in names:
        if "_per_s" in name:
            spec[name] = ("1/s", "higher")
        elif name.endswith("_s") or "_s." in name:
            spec[name] = ("s", "lower")
        elif ".mse" in name:
            spec[name] = ("1", "lower")
        else:
            spec[name] = ("count", "lower")
    return spec


PER_LAYER = _per_layer()


def _import_seconds(repeats: int) -> float:
    """Median seconds a fresh interpreter spends importing the package and its
    CLI, which every CLI command pays; work moved to import time shows here.
    numpy is imported first and not timed, so only the program's own import
    work is counted, not interpreter and numpy start-up."""
    code = (f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); import numpy; "
            "t = time.perf_counter(); import stockcast.cli; print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                                  text=True).stdout)
             for _ in range(repeats)]
    return statistics.median(times)


def _check(workload, state, passes):
    from workloads import CheckFailed

    try:
        if len({p.fingerprint for p in passes}) != 1:
            raise CheckFailed("outputs differ between passes over the same inputs")
        return workload.check(state, passes[-1]), None
    except CheckFailed as exc:
        return {}, str(exc)


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path,
            trace_path: Path | None = None) -> dict:
    """Run the workload and return the result object the benchmark prints."""
    if not trace:
        # the inputs are made afresh before every pass, so that the set-up
        # timings, like the passes, are spread over the whole run
        passes, inputs_s = [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            state = workload.setup(seed, workdir / f"setup{len(passes)}")
            inputs_s.append(time.perf_counter() - t0)
            shutil.rmtree(workdir / f"setup{len(passes) - 1}", ignore_errors=True)
            passes.append(workload.run_pass(state))
        # this process plus its largest child, such as a worker the program starts;
        # read before the import timings, whose interpreters would count as children
        peak_rss_kb = sum(resource.getrusage(who).ru_maxrss
                          for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        _, error = _check(workload, state, passes)
        values = {
            "setup_s": _import_seconds(IMPORT_REPEATS) + statistics.median(inputs_s),
            "pass_s": statistics.median(p.wall_s for p in passes),
            "peak_rss_mb": peak_rss_kb / 1024,
        }
        spec = END_TO_END
    else:
        state = workload.setup(seed, workdir / "setup0")
        plain = workload.run_pass(state)
        tracer = Tracer()
        with tracer, tracer.root():
            traced = workload.run_pass(state)
        passes = [plain, traced]
        refs, error = _check(workload, state, passes)
        values = dict.fromkeys(PER_LAYER, 0)
        values.update(tracer.layer_metrics())
        values.update(plain.metrics)
        values.update(refs)
        values["trace.untraced_wall_s"] = plain.wall_s
        values["trace.overhead_s"] = traced.wall_s - plain.wall_s
        if trace_path is not None:
            tracer.write(trace_path)
        spec = PER_LAYER

    if error:
        print(f"check failed: {error}", file=sys.stderr)
    return {
        "correct": error is None,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in spec.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "stockcast" / "__init__.py").is_file():
        print(f"no stockcast sources under {src}", file=sys.stderr)
        return 2
    # BLAS threads are fixed before numpy loads, so every run uses the same pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import stockcast
    from workloads import WORKLOADS

    if Path(stockcast.__file__).resolve().parent != (src / "stockcast").resolve():
        print(f"stockcast imported from {stockcast.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_path = ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.csv"
    try:
        result = measure(WORKLOADS[args.workload](), args.seed, args.seconds,
                         bool(args.trace), workdir, trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
