"""Benchmark of momentloc's training and evaluation, end to end and per layer.

Usage, from the root of a checkout (no install needed; ``src/`` is used):

    python3 perfbench/run.py --workload train-accept --seed 1 --seconds 20 --trace 0

Workloads (inputs are made from ``--seed``; the library only sees them):

* ``train-accept``  ``train()`` + ``save_checkpoint()`` at the acceptance shape
* ``train-paper``   the same call at paper widths, batch 8
* ``eval-paper``    ``momentloc eval`` of a paper-width checkpoint, in-process

Each run sets up several times (corpus generation and, for eval-paper,
writing it as files and training the checkpoint) and reports the median
as ``setup_s``.
It then starts a worker process that repeats the workload's operation for
``--seconds`` and checks every output. With ``--trace 0`` the last line
holds the end-to-end metrics:

* ``op_s``        median wall time of one operation (for eval-paper, eval_s)
* ``work_per_s``  optimiser steps/s (train-*) or localize calls/s
                  (eval-paper: num_queries + num_pairs over eval_s)
* ``loss_end``    mean loss of the last epoch, from the checkpoint's metrics
                  CSV (eval-paper: of the checkpoint under evaluation)
* ``peak_rss_mb`` peak RSS of the worker, which runs only the timed ops
* ``setup_s``

Failed operations (an exception or a failed output check) are the
result's ``failed`` count out of ``attempted``. With ``--trace 1`` the
worker alternates the plain operation with a replay of it through the
library's public functions, one span per layer call, and the last line
holds the per-layer metrics, among them the tracing overhead. Spans are
written to ``.perfbench/spans/``. The lines before the last one give the
environment and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
OUT = env.ROOT / ".perfbench"
# Whole-run limit; the worker is killed if it would run past it.
BUDGET_S = 175.0
SETUP_MIN_REPS, SETUP_MIN_S = 3, 1.0

E2E_UNITS = {"setup_s": "s", "op_s": "s", "work_per_s": "1/s", "loss_end": "nats",
             "peak_rss_mb": "MiB"}
# The same numbers under the names users know them by, per workload kind.
USER_NAMES = {
    "train": (("setup_s", "setup_s"), ("steps_per_s", "work_per_s"), ("loss_end", "loss_end"),
              ("peak_rss_mb", "peak_rss_mb")),
    "eval": (("setup_s", "setup_s"), ("eval_s", "op_s"), ("localize_per_s", "work_per_s"),
             ("loss_end", "loss_end"), ("peak_rss_mb", "peak_rss_mb")),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="momentloc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: toy sizes for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _setup(wl, seed, data_dir, workloads, tracer) -> list:
    """Set up repeatedly, at least SETUP_MIN_REPS times and until SETUP_MIN_S
    have passed, so that the median of a cheap set-up is steady too.

    The train workloads' worker reads the corpus from files written once,
    outside the timing: creating a few hundred small files took from 7 to
    30 ms on the same 2-CPU host from one minute to the next, which would
    swamp their 2-15 ms of corpus generation.
    """
    times = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S:
        shutil.rmtree(data_dir, ignore_errors=True)
        data_dir.mkdir(parents=True)
        start = time.perf_counter()
        corpus = workloads.setup(wl, seed, data_dir, tracer)
        times.append(time.perf_counter() - start)
    if wl.kind == "train":
        workloads.emit(corpus, data_dir, tracer)
    return times


def _worker(args, data_dir, work_dir, spans, remaining) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--data", str(data_dir), "--work", str(work_dir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining, check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads((work_dir / "result.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    # On SIGTERM, unwind: subprocess.run then kills the worker and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        env.bootstrap()
    except env.BenchSetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer, median

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    wl = workloads.get(args.workload, args.size)
    info = env.environment(args.seed, wl.name)
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    info["why"] = {w["name"]: w["why"] for w in spec["workloads"]}.get(wl.name)
    run_dir = OUT / f"run-{wl.name}-{args.seed}-{os.getpid()}"
    spans = OUT / "spans" / f"{wl.name}-s{args.seed}" if args.trace else None
    tracer = Tracer()
    try:
        setup_times = _setup(wl, args.seed, run_dir / "data", workloads, tracer)
        (run_dir / "work").mkdir()
        if spans is not None:
            spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(f"{spans}-setup.jsonl")
        result = _worker(args, run_dir / "data", run_dir / "work", spans,
                         BUDGET_S - (time.monotonic() - started))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    info["loadavg_end"] = os.getloadavg()
    info["setup_reps"] = len(setup_times)
    info.update(result["details"])
    for problem in result["problems"]:
        print(f"perfbench: failed check: {problem}", file=sys.stderr)
    if "e2e" not in result or (args.trace and "layers" not in result):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1

    e2e = dict(result["e2e"], setup_s=median(setup_times), peak_rss_mb=result["peak_rss_mb"])
    print("env " + json.dumps(info, sort_keys=True))
    for user_name, name in USER_NAMES[wl.kind]:
        print(f"{wl.name} {user_name} = {e2e[name]:.6g} {E2E_UNITS[name]}")
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"{wl.name} ops_failed_frac = {failed_frac:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    if args.trace:
        layers = dict(result["layers"])
        for name in ("generate_corpus", "emit_corpus"):
            layers[f"synthetic.{name}_ms"] = (median(tracer.durations_ms(f"synthetic.{name}")),
                                              "ms")
        for name, (value, unit) in sorted(layers.items()):
            print(f"{wl.name} {name} = {value:.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
