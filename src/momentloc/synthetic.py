"""Deterministic synthetic corpus of structured moments.

Each video is a fixed-length clip grid (one clip = one second) holding a few
disjoint, temporally ordered events. An event paints its type's prototype
vector onto the covered clips (plus Gaussian noise); background clips are
noise only. Each event is described by a short sentence whose tokens come
from the event type's token pool, except that every token is independently
replaced by a shared confuser token with probability ``ambiguity_rate``.
Sentences made entirely of confusers are indistinguishable by content and
resolvable only through paragraph order, which is exactly the weakness the
order and union losses are meant to exploit.

The module also ships a corpus-aware oracle matcher (cosine between the
resolved type prototype and the proposal's mean feature) and a random-pick
chance baseline; both serve as reference points for the learned model.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .data import (ClipSequence, EmbeddingTable, Sentence, VideoRecord, atomic_write, save_corpus,
                   tokenize)
from .errors import DataError, require
from .segments import GridConfig, Segment, clips_to_seconds, iou

# Grid used throughout the synthetic experiments: fine stride, window sizes
# bracketing every event length.
SYNTH_GRID = GridConfig(window_sizes=(4, 6, 8, 10, 16, 24, 32), stride=2)


@dataclass(frozen=True)
class SynthConfig:
    """Settings of the synthetic corpus: the ``[synth]`` INI keys, with
    ``tokens_per_sentence`` spelled ``tokens_min``/``tokens_max`` there. A
    value out of range raises ConfigError naming its key (CLI exit 2)."""

    num_videos: int = 200
    l_c: int = 32
    d_v: int = 16
    d_t: int = 16
    num_event_types: int = 6
    events_min: int = 2
    events_max: int = 3
    event_lengths: tuple = (4, 6, 8, 10)
    ambiguity_rate: float = 0.5
    noise_std: float = 0.1
    tokens_per_sentence: tuple = (1, 5)
    tokens_per_type: int = 6
    num_confusers: int = 10
    test_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        for name, least in (("events_max", 2), ("num_event_types", 2), ("num_videos", 1),
                            ("d_v", 1), ("d_t", 1), ("tokens_per_type", 1), ("seed", 0)):
            require(getattr(self, name) >= least, f"[synth] {name}", f"be >= {least}",
                    getattr(self, name))
        require(self.events_max <= self.num_event_types, "[synth] events_max",
                f"be <= num_event_types = {self.num_event_types} (event types are drawn "
                "without replacement per video)", self.events_max)
        require(self.event_lengths and all(l >= 2 and l % 2 == 0 for l in self.event_lengths),
                "[synth] event_lengths", "be one or more positive even clip counts",
                list(self.event_lengths))
        spans = {"events": (self.events_min, self.events_max), "tokens": self.tokens_per_sentence}
        for kind, (lo, hi) in spans.items():
            require(1 <= lo <= hi, f"[synth] {kind}_min", f"lie in [1, {kind}_max = {hi}]", lo)
        for name in ("test_fraction", "ambiguity_rate"):
            require(0 <= getattr(self, name) <= 1, f"[synth] {name}", "lie in [0, 1]",
                    getattr(self, name))
        require(self.noise_std >= 0, "[synth] noise_std", "be >= 0", self.noise_std)
        require(self.num_confusers >= 1 or self.ambiguity_rate == 0, "[synth] num_confusers",
                "be >= 1 when ambiguity_rate > 0", self.num_confusers)


@dataclass
class SynthCorpus:
    """Records plus the hidden generating structure (for oracles and tests)."""

    records: tuple
    table: EmbeddingTable
    prototypes: np.ndarray  # K x d_v visual prototypes
    events: dict  # video id -> tuple of (type index, clip-unit Segment)
    token_pools: tuple  # per type, tuple of words
    confusers: tuple
    config: SynthConfig

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


def _place_events(rng, config) -> list:
    """Disjoint ordered (length, start) placements on the even-clip lattice."""
    m = int(rng.integers(config.events_min, config.events_max + 1))
    for _ in range(100):
        lengths = [int(l) for l in rng.choice(config.event_lengths, size=m)]
        if sum(lengths) <= config.l_c:
            break
    else:
        raise DataError(f"cannot fit {m} events of lengths {list(config.event_lengths)} into "
                        f"[synth] l_c = {config.l_c} clips")
    slack_units = (config.l_c - sum(lengths)) // 2
    gaps = rng.multinomial(slack_units, [1.0 / (m + 1)] * (m + 1))
    placements = []
    cursor = 0
    for k in range(m):
        cursor += 2 * int(gaps[k])
        placements.append((cursor, cursor + lengths[k]))
        cursor += lengths[k]
    return placements


def _sentence_words(rng, config, pool, confusers) -> list:
    lo, hi = config.tokens_per_sentence
    length = int(rng.integers(lo, hi + 1))
    words = []
    for _ in range(length):
        if rng.random() < config.ambiguity_rate:
            words.append(confusers[int(rng.integers(len(confusers)))])
        else:
            words.append(pool[int(rng.integers(len(pool)))])
    return words


def generate_corpus(config: SynthConfig) -> SynthCorpus:
    """Build the corpus; bit-identical for a fixed config (single rng, fixed
    draw order: prototypes, vocabulary, then videos in index order)."""
    rng = np.random.default_rng(config.seed)
    k = config.num_event_types
    prototypes = rng.normal(size=(k, config.d_v))

    vectors = {}
    token_pools = []
    for t in range(k):
        center = rng.normal(size=config.d_t)
        pool = []
        for i in range(config.tokens_per_type):
            word = f"act{t}w{i}"
            vectors[word] = center + 0.25 * rng.normal(size=config.d_t)
            pool.append(word)
        token_pools.append(tuple(pool))
    confusers = []
    for i in range(config.num_confusers):
        word = f"filler{i}"
        vectors[word] = rng.normal(size=config.d_t)
        confusers.append(word)
    table = EmbeddingTable(vectors, config.d_t)

    n_test = int(round(config.test_fraction * config.num_videos))
    records = []
    events = {}
    for v in range(config.num_videos):
        vid = f"synth{v:04d}"
        placements = _place_events(rng, config)
        types = rng.choice(k, size=len(placements), replace=False)
        matrix = config.noise_std * rng.normal(size=(config.l_c, config.d_v))
        video_events = []
        sentences = []
        for pos, ((start, end), t) in enumerate(zip(placements, types)):
            t = int(t)
            matrix[start:end] += prototypes[t]
            video_events.append((t, Segment(start, end)))
            words = _sentence_words(rng, config, token_pools[t], confusers)
            tokens = tokenize(" ".join(words), table, max_len=20)
            gt = Segment(float(start), float(end))  # one clip = one second
            sentences.append(Sentence(tokens, pos, gt))
        clips = ClipSequence(matrix.astype(np.float32), config.l_c)
        split = "train" if v < config.num_videos - n_test else "test"
        records.append(VideoRecord(vid, float(config.l_c), clips, sentences, split))
        events[vid] = tuple(video_events)
    return SynthCorpus(tuple(records), table, prototypes, events,
                       tuple(token_pools), tuple(confusers), config)


def emit_corpus(corpus: SynthCorpus, out_dir) -> dict:
    """Write annotation/feature/embedding files plus a seed manifest.

    The manifest digest covers every emitted byte, so identical seeds yield
    identical digests.
    """
    save_corpus(corpus.records, corpus.table, out_dir)
    digest = hashlib.sha256()
    with open(os.path.join(out_dir, "annotations.json"), "rb") as fh:
        digest.update(fh.read())
    for rec in corpus.records:
        with open(os.path.join(out_dir, "features", f"{rec.id}.crmf"), "rb") as fh:
            digest.update(fh.read())
    with open(os.path.join(out_dir, "embeddings.txt"), "rb") as fh:
        digest.update(fh.read())
    manifest = {
        "seed": corpus.config.seed,
        "config": asdict(corpus.config),
        "num_videos": len(corpus.records),
        "digest": digest.hexdigest(),
    }
    with atomic_write(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return manifest


def resolve_event_type(corpus: SynthCorpus, record, sentence) -> int:
    """Majority vote of the sentence's informative tokens over type pools.

    Fully ambiguous sentences (confusers only) fall back to a deterministic
    pseudo-random type derived from the video id and position, so the oracle
    stays reproducible while being genuinely uninformed.
    """
    pool_of = {w: t for t, pool in enumerate(corpus.token_pools) for w in pool}
    votes = {}
    for word in sentence.tokens.raw_tokens:
        t = pool_of.get(word)
        if t is not None:
            votes[t] = votes.get(t, 0) + 1
    if votes:
        return min(votes, key=lambda t: (-votes[t], t))
    digest = hashlib.sha256(f"{record.id}:{sentence.position}".encode()).hexdigest()
    return int(digest, 16) % len(corpus.token_pools)


def oracle_match(corpus: SynthCorpus, record, sentence,
                 grid_config: GridConfig = SYNTH_GRID) -> Segment:
    """Content-based reference matcher.

    Scores each proposal by cosine similarity between the resolved type's
    prototype and the proposal's mean clip feature. Near-ties (within 1e-9)
    are resolved by larger mean norm, then longer window, then earlier
    start, which lands exactly on the event interval in the noiseless case.
    """
    t = resolve_event_type(corpus, record, sentence)
    proto = corpus.prototypes[t]
    grid = grid_config.grid_for(record.clips.l_c)
    matrix = record.clips.matrix.astype(np.float64)
    prefix = np.vstack([np.zeros(matrix.shape[1]), np.cumsum(matrix, axis=0)])
    sums = prefix[grid.ends] - prefix[grid.starts]
    lengths = (grid.ends - grid.starts).astype(np.float64)
    means = sums / lengths[:, None]
    norms = np.linalg.norm(means, axis=1)
    proto_norm = np.linalg.norm(proto)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(norms > 0, means @ proto / (norms * proto_norm), 0.0)
    best = max(
        range(len(grid)),
        key=lambda i: (round(cos[i], 9), round(norms[i], 9), lengths[i], -grid.starts[i]),
    )
    return grid.segments[best]


def oracle_predictions(corpus: SynthCorpus, grid_config: GridConfig = SYNTH_GRID,
                       split: str | None = None) -> dict:
    """(video id, position) -> predicted seconds from the oracle matcher."""
    preds = {}
    for rec in corpus.records:
        if split is not None and rec.split != split:
            continue
        for sent in rec.paragraph:
            seg = oracle_match(corpus, rec, sent, grid_config)
            preds[(rec.id, sent.position)] = clips_to_seconds(seg, rec.duration, rec.clips.l_c)
    return preds


def chance_baseline(corpus, thresholds, trials=64, seed=0,
                    grid_config: GridConfig = SYNTH_GRID) -> dict:
    """Recall of a uniform-random proposal pick, averaged over trials."""
    if trials < 1:
        raise DataError("trials must be >= 1")
    records = list(corpus)
    rng = np.random.default_rng(seed)
    per_query = []  # IoU of every proposal with this query's ground truth
    for rec in records:
        grid = grid_config.grid_for(rec.clips.l_c)
        spans = [clips_to_seconds(seg, rec.duration, rec.clips.l_c) for seg in grid.segments]
        for sent in rec.paragraph:
            gt = sent.gt_segment
            per_query.append(np.array([iou(span, gt) for span in spans]))
    result = {float(m): 0.0 for m in thresholds}
    for _ in range(trials):
        picks = [q[int(rng.integers(len(q)))] for q in per_query]
        for m in result:
            result[m] += float(np.mean([p > m for p in picks]))
    return {m: v / trials for m, v in result.items()}
