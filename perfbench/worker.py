"""Timed operations of one benchmark run.

Started by ``run.py`` after set-up, in a process of its own, so that its
peak RSS covers the timed operations and not the set-up (training the eval
checkpoint alone peaks near 1.4 GB). Writes one JSON result file.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import traceback
from pathlib import Path

import env

# The worker stops starting operations after this long, so that the whole
# benchmark ends well inside its 180-second limit.
HARD_STOP_S = 140.0

LAYER_SPANS = (
    "training.sample_batch", "network.lift", "losses.total_loss", "network.match",
    "network.encode", "autodiff.backward", "training.adam",
    "evaluation.predict_sentences", "evaluation.semantic_consistency",
    "data.load_corpus", "data.load_embeddings",
    "training.load_checkpoint", "training.save_checkpoint",
)
LAYER_COUNTS = (
    ("autodiff.nodes", "count"), ("autodiff.nodes.matmul", "count"),
    ("autodiff.nodes.transpose", "count"), ("autodiff.nodes.segment_max", "count"),
    ("autodiff.value_mb", "MiB"), ("autodiff.grad_mb", "MiB"),
    ("network.encodes_per_video", "ratio"),
    ("data.records_loaded", "count"), ("data.records_skipped", "count"),
)


def peak_rss_mb() -> float:
    """This process's own peak RSS (VmHWM). ru_maxrss is not used: across
    fork and exec it keeps the parent's peak, here the set-up's."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Tally:
    """Operations attempted and failed; an op fails if it raises or if any
    of its output checks does."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, fn):
        self.attempted += 1
        try:
            result = fn()
        except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=4))
            return None
        if result.problems:
            self.failed += 1
            self.problems.extend(result.problems)
            return None
        return result


def layer_metrics(main, probe, untraced, traced) -> tuple:
    """Per-layer metrics from the traced ops' spans, falling back to the
    probe's spans for layers the workload's own op does not call."""
    from tracing import median, tail

    def source(get):
        return main if get(main) else probe

    metrics, details = {}, {}
    for name in LAYER_SPANS:
        tracer = source(lambda t: t.durations_ms(name))
        metrics[f"{name}_ms"] = (median(tracer.durations_ms(name)), "ms")
    # The losses' own time: the forward minus its pair forwards.
    metrics["losses.self_ms"] = (metrics["losses.total_loss_ms"][0]
                                 - metrics["network.match_ms"][0], "ms")
    for name, unit in LAYER_COUNTS:
        metrics[name] = (source(lambda t: t.counted(name)).counted(name)[0], unit)
    calls = source(lambda t: t.durations_ms("network.localize")).durations_ms("network.localize")
    pct, value = tail(calls) or (100.0, max(calls))
    metrics["network.localize_ms.p50"] = (median(calls), "ms")
    metrics["network.localize_ms.tail"] = (value, "ms")
    details.update(localize_calls=len(calls), localize_tail_pct=pct)
    untraced_s = median([r.seconds for r in untraced])
    traced_s = median([r.seconds for r in traced])
    metrics["bench.untraced_op_s"] = (untraced_s, "s")
    metrics["bench.traced_op_s"] = (traced_s, "s")
    metrics["bench.trace_overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    details.update(untraced_ops=len(untraced), traced_ops=len(traced))
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    env.bootstrap()
    import workloads
    from tracing import Tracer, median

    wl = workloads.get(args.workload, args.size)
    tracer = Tracer()
    tally = Tally()
    run = workloads.runner(wl, args.seed, args.data, args.work, tracer)
    tally.run(run.warm_up)

    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() - started < HARD_STOP_S:
        done = time.perf_counter() >= deadline
        if args.trace:
            if done and untraced and traced:
                break
            want_traced = len(traced) < len(untraced)
        else:
            if done and len(untraced) >= wl.min_ops:
                break
            want_traced = False
        # Every op starts from an empty collector, so a full collection that
        # an earlier op made due does not land inside this one.
        gc.collect()
        outcome = tally.run(run.traced_op if want_traced else run.op)
        if outcome is not None:
            (traced if want_traced else untraced).append(outcome)

    result = {"attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems[:20],
              "details": {"op_seconds": [round(r.seconds, 4) for r in untraced]}}
    if untraced:
        result["e2e"] = {
            "op_s": median([r.seconds for r in untraced]),
            "work_per_s": median([r.work / r.seconds for r in untraced]),
            "loss_end": median([r.loss_end for r in untraced]),
        }
    # Peak of the plain and traced ops; the probe below runs layers the
    # workload does not, such as a paper-width backward on eval-paper.
    result["peak_rss_mb"] = peak_rss_mb()
    if args.trace:
        probe = Tracer()
        tally.run(lambda: run.probe(probe))
        if untraced and traced:
            result["layers"], details = layer_metrics(tracer, probe, untraced, traced)
            result["details"].update(details)
        if args.spans is not None:
            tracer.dump(f"{args.spans}-ops.jsonl")
            probe.dump(f"{args.spans}-probe.jsonl")
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
