"""End-to-end training: sampling, optimisation, checkpointing, verification.

Everything is driven by a single seeded generator in a fixed draw order
(parameter init first, then batches), so a (corpus, config, seed) triple
maps to a bit-identical checkpoint and metrics log for a given BLAS thread
count. (A step's weight gradients are GEMMs over every row of the batch; a
multi-threaded BLAS may split such a sum, which changes its last bits.)
Ground-truth boundaries are never read here; the audit counter on
``Sentence.gt_segment`` stays untouched by ``train``.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .data import atomic_write
from .errors import ConfigError, DataError, TrainingDivergedError
from .losses import BatchItem, LossConfig, NegativeSample, total_loss
from .network import ModelParams, _param_table, init_params, lift, params_from_named
from .segments import GridConfig

_CHECKPOINT_MAGIC = b"CRMC"
_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation and model-shape settings.

    Defaults follow the reference setup: shared dimension 256, one attention
    unit per stack, batches of 64 videos, 50 epochs of Adam at 1e-4,
    tau = 0.5 and a 40-token cap for concatenated queries.
    """

    d: int = 256
    depth_self: int = 1
    depth_cross: int = 1
    grid: GridConfig = field(default_factory=GridConfig)
    batch_videos: int = 64
    epochs: int = 50
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    tau: float = 0.5
    max_concat_len: int = 40
    grad_clip: float = 0.0  # 0 disables clipping
    seed: int = 0
    use_bce: bool = True
    use_tmp: bool = True
    use_smt: bool = True

    def __post_init__(self):
        for key, least in (("model.d", 1), ("model.depth_self", 0), ("model.depth_cross", 0),
                           ("train.epochs", 1), ("train.max_concat_len", 1)):
            section, name = key.split(".")
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"[{section}] {name} must be >= {least}, got {value}", key=key)
        if self.batch_videos < 2:
            raise ConfigError("[train] batch_videos must be >= 2 (negative sampling)",
                              key="train.batch_videos")
        if self.learning_rate <= 0:
            raise ConfigError("[train] learning_rate must be positive", key="train.learning_rate")

    def loss_config(self) -> LossConfig:
        return LossConfig(self.grid, self.tau, self.use_bce, self.use_tmp,
                          self.use_smt, self.max_concat_len)


def sample_batch(corpus, n: int, rng) -> list:
    """Draw n videos, one query pair each, plus contrastive negatives.

    Videos are uniform without replacement (with replacement if the corpus
    is smaller than n). Each multi-sentence video yields an ordered sentence
    pair uniform over the distinct position pairs; single-sentence videos
    yield a solitary BCE-only query. Every query gets one negative video and
    one negative query, both uniform over the other batch videos.
    """
    records = list(corpus)
    if len(records) < 2:
        raise DataError("need at least 2 videos to sample a batch")
    idx = rng.choice(len(records), size=n, replace=len(records) < n)
    chosen = [records[int(i)] for i in idx]

    def other_video(self_id):
        for _ in range(10000):
            cand = chosen[int(rng.integers(n))]
            if cand.id != self_id:
                return cand
        raise DataError("cannot draw a negative: batch collapsed to one video")

    def negative_for(video):
        neg_video = other_video(video.id)
        source = other_video(video.id)
        neg_query = source.paragraph[int(rng.integers(len(source.paragraph)))]
        return NegativeSample(neg_video, neg_query)

    batch = []
    for video in chosen:
        l_q = len(video.paragraph)
        if l_q == 1:
            batch.append(BatchItem(video, video.paragraph[0], negative_for(video)))
            continue
        pairs = [(a, b) for a in range(l_q) for b in range(a + 1, l_q)]
        a, b = pairs[int(rng.integers(len(pairs)))]
        batch.append(BatchItem(video, video.paragraph[a], negative_for(video),
                               video.paragraph[b], negative_for(video)))
    return batch


class Adam:
    """Adaptive-moment gradient descent over a named array dict."""

    def __init__(self, named: dict, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in named.items()}
        self.v = {k: np.zeros_like(v) for k, v in named.items()}

    def step(self, named: dict, grads: dict):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name in sorted(named):
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(named[name])
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            named[name] -= self.lr * (self.m[name] / bc1) / (np.sqrt(self.v[name] / bc2) + self.eps)


def _clip_grads(grads: dict, max_norm: float):
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values() if g is not None))
    if total > max_norm > 0:
        scale = max_norm / total
        for name, g in grads.items():
            if g is not None:
                grads[name] = g * scale


@dataclass
class Checkpoint:
    """Trained parameters plus everything needed to reproduce and audit them."""

    params: ModelParams
    config: dict
    epoch: int
    rng_digest: str
    metrics_csv: str
    order_consistency: list


def grid_from_snapshot(config: dict) -> GridConfig:
    return GridConfig(tuple(config["window_sizes"]), config["stride"])


def _rng_digest(rng) -> str:
    state = json.dumps(rng.bit_generator.state, sort_keys=True)
    return hashlib.sha256(state.encode()).hexdigest()


def _one_shape(records) -> tuple:
    """The (l_c, feature width, token width) every record must share."""
    first = records[0]
    want = (first.clips.l_c, first.clips.matrix.shape[1],
            first.paragraph[0].tokens.matrix.shape[1])
    for rec in records:
        for sent in rec.paragraph:
            got = (rec.clips.l_c, rec.clips.matrix.shape[1], sent.tokens.matrix.shape[1])
            for name, g, w in zip(("l_c", "feature width", "token width"), got, want):
                if g != w:
                    raise DataError(f"{rec.id}: {name} {g} differs from the first record's "
                                    f"({first.id}) {w}")
    return want


def train(corpus, config: TrainConfig, extra_config: dict | None = None) -> Checkpoint:
    """Run the full optimisation loop over the given records.

    Each epoch draws ceil(len(corpus) / batch_videos) independent batches;
    every batch does one forward/backward/Adam step. A non-finite loss or
    gradient aborts, before Adam touches the parameters, with the offending
    batch named. Every record must share one ``l_c``, feature width and
    token width, since a step scores the whole batch in one stacked
    forward. ``extra_config`` entries (for example the clip-building
    parameters of the data pipeline) are merged into the checkpoint's
    config snapshot so evaluation can reload compatible data.
    """
    records = list(corpus)
    if not records:
        raise DataError("empty corpus")
    l_c, d_v, d_t = _one_shape(records)
    grid = config.grid.grid_for(l_c)  # a grid that no window fits fails here, before any forward
    if (config.use_tmp or config.use_smt) and not grid.starts.any():
        raise ConfigError(f"[model] window_sizes {list(config.grid.window_sizes)} and stride "
                          f"{config.grid.stride}: every proposal starts at clip 0 of l_c = "
                          f"{l_c}, so the tmp and smt losses have no temporally ordered "
                          "proposal pair", key="model.window_sizes")
    rng = np.random.default_rng(config.seed)
    params = init_params(config.d, d_v, d_t, config.depth_self, config.depth_cross, rng)
    adam = Adam(params, config.learning_rate, config.beta1, config.beta2, config.adam_eps)
    loss_cfg = config.loss_config()
    batches_per_epoch = math.ceil(len(records) / config.batch_videos)

    csv_rows = ["epoch,loss,bce,tmp,smt"]
    order_series = []
    for epoch in range(config.epochs):
        sums = np.zeros(4)
        flags = []
        for b in range(batches_per_epoch):
            batch = sample_batch(records, config.batch_videos, rng)
            lifted = lift(params)
            breakdown = total_loss(batch, lifted, loss_cfg)
            value = float(breakdown.total)
            if not np.isfinite(value):
                raise TrainingDivergedError(epoch, b, [it.video.id for it in batch])
            ad.backward(breakdown.total)
            grads = {name: leaf.grad for name, leaf in lifted.items()}
            if not all(g is None or np.isfinite(g).all() for g in grads.values()):
                raise TrainingDivergedError(epoch, b, [it.video.id for it in batch])
            if config.grad_clip > 0:
                _clip_grads(grads, config.grad_clip)
            adam.step(params, grads)
            sums += (value, breakdown.bce, breakdown.tmp, breakdown.smt)
            if breakdown.order_consistent_fraction is not None:
                flags.append(breakdown.order_consistent_fraction)
            # Free this step's tape before the next forward builds another.
            del breakdown, lifted, grads
        means = sums / batches_per_epoch
        csv_rows.append(",".join([str(epoch)] + [repr(float(x)) for x in means]))
        order_series.append(sum(flags) / len(flags) if flags else None)

    params32 = ModelParams({k: v.astype(np.float32) for k, v in params.items()})
    snapshot = asdict(config)
    grid = snapshot.pop("grid")
    snapshot.update(window_sizes=list(grid["window_sizes"]), stride=grid["stride"],
                    d_v=d_v, d_t=d_t, l_c=l_c)
    snapshot.update(extra_config or {})
    return Checkpoint(
        params=params32,
        config=snapshot,
        epoch=config.epochs,
        rng_digest=_rng_digest(rng),
        metrics_csv="\n".join(csv_rows) + "\n",
        order_consistency=order_series,
    )


def save_checkpoint(ckpt: Checkpoint, path):
    """Versioned container: JSON manifest + named float32 tensors."""
    params = ckpt.params
    manifest = {
        "format_version": _CHECKPOINT_VERSION,
        "config": ckpt.config,
        "epoch": ckpt.epoch,
        "rng_digest": ckpt.rng_digest,
        "metrics_csv": ckpt.metrics_csv,
        "order_consistency": ckpt.order_consistency,
        "tensors": [{"name": k, "shape": list(params[k].shape)} for k in sorted(params)],
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    with atomic_write(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(bytes([_CHECKPOINT_VERSION]))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in sorted(params):
            fh.write(np.ascontiguousarray(params[name], dtype="<f4").tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a truncated or malformed file, or one holding a
    non-finite tensor value, raises DataError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    if len(blob) < 9:
        raise DataError(f"{path}: truncated checkpoint header")
    if blob[4] != _CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {blob[4]}")
    (mlen,) = struct.unpack("<I", blob[5:9])
    try:
        manifest = json.loads(blob[9 : 9 + mlen].decode())
        config = manifest["config"]
        d, depth_self, depth_cross = config["d"], config["depth_self"], config["depth_cross"]
        table = dict(_param_table(d, config["d_v"], config["d_t"], depth_self, depth_cross))
        tensors = [(e["name"], tuple(int(n) for n in e["shape"])) for e in manifest["tensors"]]
        fields = [manifest[k] for k in ("epoch", "rng_digest", "metrics_csv", "order_consistency")]
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: malformed checkpoint manifest ({exc!r})") from None
    for name, shape in tensors:
        if table.get(name, shape) != shape:
            raise DataError(f"{path}: tensor {name!r} has shape {list(shape)}, "
                            f"the model needs {list(table[name])}")
    offset = 9 + mlen
    expected = offset + 4 * sum(math.prod(shape) for _, shape in tensors)
    if expected != len(blob):
        raise DataError(f"{path}: checkpoint has {len(blob)} bytes, its manifest {expected}")
    named = {}
    for name, shape in tensors:
        count = math.prod(shape)
        named[name] = np.frombuffer(blob, "<f4", count, offset).reshape(shape).copy()
        offset += 4 * count
        if not np.isfinite(named[name]).all():
            raise DataError(f"{path}: tensor {name!r} holds non-finite values")
    return Checkpoint(params_from_named(named, d, depth_self, depth_cross), config, *fields)


def default_gradient_check(seed=0, *, use_bce=True, use_tmp=True, use_smt=True,
                           num_coords=240) -> "GradCheckReport":
    """Gradient check on a fixed tiny instance (D=8, 16 clips, 3 proposals)."""
    from .synthetic import SynthConfig, generate_corpus

    synth = generate_corpus(SynthConfig(
        num_videos=4, l_c=16, d_v=8, d_t=8, num_event_types=3,
        events_min=2, events_max=2, event_lengths=(4, 6),
        ambiguity_rate=0.25, noise_std=0.1, tokens_per_sentence=(2, 3), seed=seed,
    ))
    rng = np.random.default_rng(seed)
    params = init_params(8, 8, 8, 1, 1, rng)
    batch = sample_batch(synth.records[:2], 2, rng)
    cfg = LossConfig(GridConfig((8, 16), 8), 0.5, use_bce, use_tmp, use_smt, 40)
    return gradient_check(batch, params, cfg, num_coords=num_coords, seed=seed)


@dataclass
class GradCheckReport:
    """Analytic-vs-finite-difference comparison over sampled coordinates."""

    max_rel_error: float
    num_coords: int
    tolerance: float
    offenders: list  # (tensor name, flat index, analytic, fd, rel error)

    def __float__(self):
        return self.max_rel_error


def gradient_check(batch, params: ModelParams, loss_cfg: LossConfig, *, step=1e-4,
                   num_coords=240, tolerance=1e-3, seed=0) -> GradCheckReport:
    """Compare analytic gradients of the batch objective against central
    finite differences on a seeded sample of parameter coordinates.

    The relative error denominator is floored at 1e-4: coordinates whose
    gradient is smaller than the optimiser step are compared absolutely.
    """
    lifted = lift(params)
    breakdown = total_loss(batch, lifted, loss_cfg)
    ad.backward(breakdown.total)
    analytic = {name: leaf.grad for name, leaf in lifted.items()}

    names = sorted(params)
    sizes = [params[n].size for n in names]
    total = sum(sizes)
    rng = np.random.default_rng(seed)
    take = min(num_coords, total)
    flat_choice = np.sort(rng.choice(total, size=take, replace=False))

    def loss_value() -> float:
        return float(total_loss(batch, lift(params), loss_cfg).total)

    bounds = np.cumsum([0] + sizes)
    max_rel = 0.0
    offenders = []
    for flat in flat_choice:
        tensor_i = int(np.searchsorted(bounds, flat, side="right") - 1)
        name = names[tensor_i]
        idx = int(flat - bounds[tensor_i])
        arr = params[name]
        orig = arr.flat[idx]
        arr.flat[idx] = orig + step
        f_plus = loss_value()
        arr.flat[idx] = orig - step
        f_minus = loss_value()
        arr.flat[idx] = orig
        fd = (f_plus - f_minus) / (2.0 * step)
        a = 0.0 if analytic[name] is None else float(analytic[name].flat[idx])
        rel = abs(a - fd) / max(abs(a), abs(fd), 1e-4)
        if rel > max_rel:
            max_rel = rel
        if rel >= tolerance:
            offenders.append((name, idx, a, fd, rel))
    return GradCheckReport(max_rel, take, tolerance, offenders)
