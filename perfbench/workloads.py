"""The benchmark's workloads: inputs made from a seed, the timed operation,
its output checks, and a traced replay of the same operation through the
library's public functions.

Import only after ``env.bootstrap()``: this module imports numpy and the
checkout's ``momentloc``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import momentloc as ml
from momentloc import autodiff as ad
from momentloc.cli import main as cli_main
from tracing import Tracer

THRESHOLDS = (0.1, 0.3, 0.5, 0.7)
TAU_EVAL = 0.5
MAX_SENTENCE_LEN = 20
# Event lengths that fit the default windows (8, 12, 20, 32, 64) at l_c=128.
PAPER_EVENTS = (8, 12, 20, 32)
CKPT_NAME = "model.ckpt"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train": train() + save_checkpoint(); "eval": `momentloc eval`
    synth: dict  # SynthConfig fields other than the seed
    train: dict  # TrainConfig fields other than the seed
    pool_span: int = 1  # clip pooling when the emitted files are loaded
    ckpt_videos: int = 0  # eval: videos the set-up checkpoint is trained on
    probe_videos: int = 40  # train: videos in the traced run's eval probe
    check_sample: int = 16  # eval: per_query rows re-localised per op
    traced_sample: int = 100  # eval: rows re-localised, and timed, per traced op
    min_ops: int = 3

    @property
    def l_c(self) -> int:
        return self.synth.get("l_c", ml.SynthConfig().l_c)


def _full() -> dict:
    """The benchmark's workloads; why each was chosen is in BENCHMARK.json."""
    return {
        "train-accept": Workload(
            "train-accept", "train", synth={},
            train=dict(d=16, grid=ml.SYNTH_GRID, batch_videos=32, epochs=1,
                       learning_rate=1e-3)),
        "train-paper": Workload(
            "train-paper", "train",
            synth=dict(num_videos=16, l_c=128, event_lengths=PAPER_EVENTS, test_fraction=0.0),
            train=dict(d=256, batch_videos=8, epochs=1)),
        "eval-paper": Workload(
            "eval-paper", "eval",
            synth=dict(num_videos=100, l_c=128, event_lengths=PAPER_EVENTS, events_min=3),
            train=dict(d=256, batch_videos=4, epochs=1),
            pool_span=5, ckpt_videos=8, min_ops=2),
    }


def _tiny() -> dict:
    """Same code paths at toy sizes, for the benchmark's own tests."""
    return {
        "train-accept": Workload(
            "train-accept", "train", synth=dict(num_videos=8),
            train=dict(d=8, grid=ml.SYNTH_GRID, batch_videos=3, epochs=1, learning_rate=1e-3),
            probe_videos=6, min_ops=2),
        "train-paper": Workload(
            "train-paper", "train",
            synth=dict(num_videos=4, l_c=128, event_lengths=PAPER_EVENTS, test_fraction=0.0),
            train=dict(d=16, batch_videos=2, epochs=1),
            probe_videos=4, min_ops=2),
        "eval-paper": Workload(
            "eval-paper", "eval",
            synth=dict(num_videos=6, l_c=128, event_lengths=PAPER_EVENTS, events_min=3),
            train=dict(d=16, batch_videos=2, epochs=1),
            pool_span=5, ckpt_videos=4, check_sample=4, traced_sample=8,
            min_ops=2),
    }


NAMES = tuple(_full())


def get(name: str, size: str = "full") -> Workload:
    return (_tiny() if size == "tiny" else _full())[name]


# ---------------------------------------------------------------- set-up


def setup(wl: Workload, seed: int, data_dir: Path, tracer):
    """The set-up timed as ``setup_s``: generate the corpus and, for eval,
    write it as files into ``data_dir`` and train and save the checkpoint
    under evaluation there. Returns the corpus."""
    with tracer.span("synthetic.generate_corpus"):
        corpus = ml.generate_corpus(ml.SynthConfig(seed=seed, **wl.synth))
    if wl.kind == "eval":
        emit(corpus, data_dir, tracer)
        config = ml.TrainConfig(seed=seed, **wl.train)
        extra = {"pool_span": wl.pool_span, "max_sentence_len": MAX_SENTENCE_LEN}
        with tracer.span("training.train"):
            ckpt = ml.train(corpus.records[: wl.ckpt_videos], config, extra)
        ml.save_checkpoint(ckpt, str(data_dir / CKPT_NAME))
    return corpus


def emit(corpus, data_dir: Path, tracer):
    with tracer.span("synthetic.emit_corpus"):
        ml.emit_corpus(corpus, str(data_dir))


def load_records(data_dir: Path, config, tracer) -> list:
    with tracer.span("data.load_embeddings"):
        table = ml.load_embeddings(str(data_dir / "embeddings.txt"))
    with tracer.span("data.load_corpus"):
        result = ml.load_corpus(str(data_dir / "annotations.json"), str(data_dir / "features"),
                                table, config)
    tracer.count("data.records_loaded", len(result.records))
    tracer.count("data.records_skipped", result.skip_count)
    return list(result.records)


# ---------------------------------------------------------------- helpers


@dataclass
class OpResult:
    seconds: float
    work: int  # optimiser steps (train) or localize calls (eval)
    loss_end: float
    problems: list = field(default_factory=list)


def loss_end(ckpt) -> float:
    """Mean loss of the last epoch, read from the checkpoint's metrics CSV."""
    rows = list(csv.DictReader(io.StringIO(ckpt.metrics_csv)))
    return float(rows[-1]["loss"])


def _same_params(a, b) -> bool:
    na, nb = a.named_arrays(), b.named_arrays()
    return na.keys() == nb.keys() and all(np.array_equal(na[k], nb[k]) for k in na)


def _op_name(node) -> str:
    fn = getattr(node, "_backward", None)
    return "leaf" if fn is None else fn.__qualname__.split(".")[0]


def count_tape(root, batch, tracer):
    """Exact tape counts from a walk over ``parents`` after backward."""
    nodes = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node.parents)
    ops = Counter(_op_name(n) for n in nodes.values())
    tracer.count("autodiff.nodes", len(nodes))
    for op in ("matmul", "transpose", "segment_max"):
        tracer.count(f"autodiff.nodes.{op}", ops[op])
    mib = float(1 << 20)
    tracer.count("autodiff.value_mb", sum(np.asarray(n.value).nbytes for n in nodes.values()) / mib)
    tracer.count("autodiff.grad_mb",
                 sum(n.grad.nbytes for n in nodes.values() if n.grad is not None) / mib)
    videos = {item.video.id for item in batch}
    tracer.count("network.encodes_per_video", ops["segment_max"] / len(videos))


def step_pairs(batch, loss_cfg) -> list:
    """The (video, query) pairs total_loss scores for one batch."""
    pairs = []
    for item in batch:
        queries = [(item.query_a, item.neg_a)]
        if item.query_b is not None:
            queries.append((item.query_b, item.neg_b))
        pairs += [(item.video, q) for q, _ in queries]
        if loss_cfg.use_bce:
            for q, neg in queries:
                pairs += [(neg.neg_video, q), (item.video, neg.neg_query)]
        if item.query_b is not None and loss_cfg.use_smt:
            pairs.append((item.video, ml.concat_queries(item.query_a, item.query_b,
                                                        loss_cfg.max_concat_len)))
    return pairs


def replay_step(records, batch_videos, params, named, adam, loss_cfg, rng, tracer,
                probe: bool, held: list) -> float:
    """One optimiser step as train() takes it, with a span per layer call.

    ``held[0]`` keeps the last step's loss, and with it its whole tape,
    alive until this step's forward returns, as train()'s loop variable
    does; the garbage collector's work depends on it.

    With ``probe``, the step also replays its pair forwards through the
    public match and encode, and walks the tape after backward. That work
    is not train()'s, so steps timed against train() run without it.
    """
    with tracer.span("training.step"):
        with tracer.span("training.sample_batch"):
            batch = ml.sample_batch(records, batch_videos, rng)
        with tracer.span("network.lift"):
            lifted = ml.lift(params)
        if probe:
            pairs = step_pairs(batch, loss_cfg)
            with tracer.span("network.match"):
                for video, query in pairs:
                    ml.match(video, query, lifted, loss_cfg.grid)
            with tracer.span("network.encode"):
                for video, query in pairs:
                    ml.encode(video, query, lifted, loss_cfg.grid)
        with tracer.span("losses.total_loss"):
            breakdown = ml.total_loss(batch, lifted, loss_cfg)
        held[0] = breakdown
        value = float(breakdown.total)
        if not math.isfinite(value):
            return value
        with tracer.span("autodiff.backward"):
            ad.backward(breakdown.total)
        if probe:
            count_tape(breakdown.total, batch, tracer)
        grads = {name: leaf.grad for name, leaf in lifted.leaves.items()}
        with tracer.span("training.adam"):
            adam.step(named, grads)
    return value


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Paths:
    """A new file name for every output. Rewriting an existing file on ext4
    waits for its earlier data to reach the disk (auto_da_alloc), which adds
    tens of milliseconds of disk noise to an operation."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.n = 0

    def fresh(self, stem: str, suffix: str) -> Path:
        self.n += 1
        return self.work_dir / f"{stem}{self.n}{suffix}"


# ---------------------------------------------------------------- train


class TrainRunner:
    """`train()` then `save_checkpoint()` on the emitted corpus."""

    def __init__(self, wl: Workload, seed: int, data_dir: Path, work_dir: Path, tracer):
        self.wl = wl
        self.tracer = tracer
        config = ml.DataConfig(l_c=wl.l_c, pool_span=wl.pool_span,
                               max_sentence_len=MAX_SENTENCE_LEN)
        self.records = ml.filter_split(load_records(data_dir, config, tracer), "train")
        self.config = ml.TrainConfig(seed=seed, **wl.train)
        self.steps = self.config.epochs * math.ceil(len(self.records) / self.config.batch_videos)
        self.paths = _Paths(work_dir)
        self.ckpt_path = None  # the last checkpoint op() saved
        self._digest = None

    def warm_up(self) -> OpResult:
        return self.op()

    def op(self) -> OpResult:
        path = self.paths.fresh("op", ".ckpt")
        start = time.perf_counter()
        ckpt = ml.train(self.records, self.config, {"pool_span": self.wl.pool_span})
        ml.save_checkpoint(ckpt, str(path))
        seconds = time.perf_counter() - start
        if self.ckpt_path is not None:
            self.ckpt_path.unlink()
        self.ckpt_path = path
        result = OpResult(seconds, self.steps, loss_end(ckpt))
        if not math.isfinite(result.loss_end):
            result.problems.append(f"loss_end {result.loss_end} is not finite")
        if not _same_params(ml.load_checkpoint(str(path)).params, ckpt.params):
            result.problems.append("saved checkpoint reloads different from the trained params")
        digest = _digest(path)
        if self._digest is None:
            self._digest = digest
        elif digest != self._digest:
            result.problems.append("same-seed runs wrote different checkpoint bytes")
        return result

    def traced_op(self) -> OpResult:
        """Replay of op() through public calls, one span per layer call."""
        return self._replay(self.tracer, probe=False)

    def _replay(self, tr, probe: bool) -> OpResult:
        cfg = self.config
        first = self.records[0]
        d_v = first.clips.matrix.shape[1]
        d_t = first.paragraph[0].tokens.matrix.shape[1]
        path = self.paths.fresh("traced", ".ckpt")
        with tr.span("training.train", op=True) as root:
            rng = np.random.default_rng(cfg.seed)
            with tr.span("network.init_params"):
                params = ml.init_params(cfg.d, d_v, d_t, cfg.depth_self, cfg.depth_cross, rng)
            named = params.named_arrays()
            adam = ml.Adam(named, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
            loss_cfg = cfg.loss_config()
            held = [None]
            losses = [replay_step(self.records, cfg.batch_videos, params, named, adam,
                                  loss_cfg, rng, tr, probe, held) for _ in range(self.steps)]
            ckpt = ml.Checkpoint(
                params=ml.params_from_named({k: v.astype(np.float32) for k, v in named.items()},
                                            cfg.d, cfg.depth_self, cfg.depth_cross),
                config={"d": cfg.d, "d_v": d_v, "d_t": d_t, "l_c": self.wl.l_c,
                        "depth_self": cfg.depth_self, "depth_cross": cfg.depth_cross,
                        "window_sizes": list(cfg.grid.window_sizes),
                        "stride": cfg.grid.stride, "pool_span": self.wl.pool_span},
                epoch=cfg.epochs, rng_digest="", order_consistency=[],
                metrics_csv=f"epoch,loss,bce,tmp,smt\n0,{sum(losses) / len(losses)!r},0,0,0\n")
            with tr.span("training.save_checkpoint"):
                ml.save_checkpoint(ckpt, str(path))
        result = OpResult(root["end"] - root["start"], self.steps, loss_end(ckpt))
        with tr.span("training.load_checkpoint"):
            reloaded = ml.load_checkpoint(str(path))
        path.unlink()
        if not math.isfinite(result.loss_end):
            result.problems.append(f"replayed loss {result.loss_end} is not finite")
        if not _same_params(reloaded.params, ckpt.params):
            result.problems.append("replayed checkpoint reloads different from its params")
        return result

    def probe(self, tracer) -> OpResult:
        """One replay with the step probes, then the evaluation layers at
        this workload's shape on the last checkpoint op() saved, so that
        the traced run measures every layer."""
        replayed = self._replay(tracer, probe=True)
        if replayed.problems:
            return replayed
        ckpt = ml.load_checkpoint(str(self.ckpt_path))
        records = self.records[: self.wl.probe_videos]
        grid = ml.grid_from_snapshot(ckpt.config)
        start = time.perf_counter()
        with tracer.span("evaluation.predict_sentences"):
            preds = ml.predict_sentences(records, ckpt)
        with tracer.span("evaluation.semantic_consistency"):
            ml.semantic_consistency(records, ckpt, TAU_EVAL, None)
        result = OpResult(time.perf_counter() - start, 0, loss_end(ckpt))
        for rec in records:
            for sent in rec.paragraph:
                with tracer.span("network.localize"):
                    got = ml.localize(rec, sent, ckpt.params, grid)
                result.work += 1
                if tuple(got.seconds) != tuple(preds[(rec.id, sent.position)]):
                    result.problems.append(f"localize({rec.id}, {sent.position}) differs "
                                           "from predict_sentences")
        return result


# ---------------------------------------------------------------- eval


def check_report(doc: dict, records: list, sample: list, localize, problems: list):
    """Checks on an eval report: counts, recall monotonicity, and the
    sampled per_query rows against ``localize(record, sentence)``."""
    queries = sum(len(r.paragraph) for r in records)
    pairs = ml.count_pairs(records)
    if (doc["num_queries"], doc["num_pairs"]) != (queries, pairs):
        problems.append(f"report counts {doc['num_queries']}/{doc['num_pairs']} queries/pairs, "
                        f"corpus has {queries}/{pairs}")
    recall = {float(k): v for k, v in doc["recall_at"].items()}
    ordered = [recall[m] for m in sorted(recall)]
    if sorted(recall) != sorted(THRESHOLDS) or any(b > a for a, b in zip(ordered, ordered[1:])):
        problems.append(f"recall rises with the threshold or misses one: {recall}")
    by_id = {r.id: r for r in records}
    rows = doc["per_query"]
    for i in sample:
        row = rows[i % len(rows)]
        got = localize(by_id[row["video_id"]], by_id[row["video_id"]].paragraph[row["position"]])
        if [float(x) for x in got.seconds] != row["predicted"]:
            problems.append(f"per_query {row['video_id']}:{row['position']} predicted "
                            f"{row['predicted']}, localize gives {list(got.seconds)}")


class EvalRunner:
    """The `momentloc eval CKPT DIR --out ...` journey, run in-process."""

    def __init__(self, wl: Workload, seed: int, data_dir: Path, work_dir: Path, tracer):
        self.wl = wl
        self.data_dir = data_dir
        self.tracer = tracer
        self.paths = _Paths(work_dir)
        self.ckpt_path = data_dir / CKPT_NAME
        self.ckpt = ml.load_checkpoint(str(self.ckpt_path))
        self.grid = ml.grid_from_snapshot(self.ckpt.config)
        self.data_config = ml.DataConfig(l_c=self.ckpt.config["l_c"],
                                         pool_span=self.ckpt.config["pool_span"],
                                         max_sentence_len=self.ckpt.config["max_sentence_len"])
        # Independent copy of the data for the checks; its spans are dropped.
        self.records = load_records(data_dir, self.data_config, Tracer())
        self.rng = np.random.default_rng(seed)
        self.loss_end = loss_end(self.ckpt)

    def _localize(self, record, sentence):
        return ml.localize(record, sentence, self.ckpt.params, self.grid)

    def _timed_localize(self, record, sentence):
        with self.tracer.span("network.localize"):
            return self._localize(record, sentence)

    def _sample(self, n: int) -> list:
        total = sum(len(r.paragraph) for r in self.records)
        return [int(i) for i in self.rng.choice(total, size=min(n, total), replace=False)]

    def warm_up(self) -> OpResult:
        start = time.perf_counter()
        result = OpResult(0.0, 0, self.loss_end)
        for rec in self.records[: self.wl.check_sample]:
            self._localize(rec, rec.paragraph[0])
            result.work += 1
        result.seconds = time.perf_counter() - start
        return result

    def op(self) -> OpResult:
        out = self.paths.fresh("eval", ".json")
        argv = ["eval", str(self.ckpt_path), str(self.data_dir), "--out", str(out),
                "--thresholds", ",".join(str(t) for t in THRESHOLDS)]
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = cli_main(argv)
        seconds = time.perf_counter() - start
        result = OpResult(seconds, 0, self.loss_end)
        if code != 0:
            result.problems.append(f"momentloc eval exited {code}")
            return result
        try:
            doc = json.loads(out.read_text(encoding="utf-8"))
            out.unlink()
        except (OSError, ValueError) as exc:
            result.problems.append(f"eval report does not parse: {exc}")
            return result
        result.work = doc["num_queries"] + doc["num_pairs"]
        check_report(doc, self.records, self._sample(self.wl.check_sample), self._localize,
                     result.problems)
        return result

    def traced_op(self) -> OpResult:
        """Replay of the eval journey through public calls."""
        tr = self.tracer
        with tr.span("cli.eval", op=True) as root:
            with tr.span("training.load_checkpoint"):
                ckpt = ml.load_checkpoint(str(self.ckpt_path))
            records = load_records(self.data_dir, self.data_config, tr)
            with tr.span("evaluation.predict_sentences"):
                preds = ml.predict_sentences(records, ckpt)
            with tr.span("evaluation.recall_from_predictions"):
                recall, details = ml.recall_from_predictions(records, preds, THRESHOLDS)
            with tr.span("evaluation.temporal_consistency"):
                ml.temporal_consistency_from_predictions(records, preds)
            with tr.span("evaluation.semantic_consistency"):
                ml.semantic_consistency(records, ckpt, TAU_EVAL, None)
            doc = {"num_queries": len(details), "num_pairs": ml.count_pairs(records),
                   "recall_at": recall, "per_query": details}
        result = OpResult(root["end"] - root["start"], doc["num_queries"] + doc["num_pairs"],
                          loss_end(ckpt))
        for _ in range(3):
            with tr.span("network.lift"):
                ml.lift(ckpt.params)
        check_report(doc, self.records, self._sample(self.wl.traced_sample),
                     self._timed_localize, result.problems)
        return result

    def probe(self, tracer) -> OpResult:
        """Two training steps at the checkpoint's shape on this corpus, and
        a checkpoint save, so the traced run measures every layer."""
        config = self.ckpt.config
        named = {k: v.astype(np.float64) for k, v in self.ckpt.params.named_arrays().items()}
        params = ml.params_from_named(named, config["d"], config["depth_self"],
                                      config["depth_cross"])
        named = params.named_arrays()
        adam = ml.Adam(named, config["learning_rate"])
        loss_cfg = ml.LossConfig(self.grid, config["tau"], config["use_bce"], config["use_tmp"],
                                 config["use_smt"], config["max_concat_len"])
        rng = np.random.default_rng(config["seed"])
        start = time.perf_counter()
        held = [None]
        losses = [replay_step(self.records, config["batch_videos"], params, named, adam,
                              loss_cfg, rng, tracer, True, held) for _ in range(2)]
        with tracer.span("training.save_checkpoint"):
            ml.save_checkpoint(self.ckpt, str(self.paths.fresh("probe", ".ckpt")))
        result = OpResult(time.perf_counter() - start, len(losses), losses[-1])
        if not all(math.isfinite(v) for v in losses):
            result.problems.append(f"probe losses {losses} are not finite")
        return result


def runner(wl: Workload, seed: int, data_dir: Path, work_dir: Path, tracer):
    cls = TrainRunner if wl.kind == "train" else EvalRunner
    return cls(wl, seed, data_dir, work_dir, tracer)
