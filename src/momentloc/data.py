"""Domain types and ingestion for paragraph-annotated video corpora.

A corpus is a directory triple: a JSON annotation file mapping video id to
``{duration, timestamps, sentences, split?}``, one binary feature file per
video (magic ``CRMF``), and a plain-text word-embedding table. Loading turns
each annotated video into an immutable :class:`VideoRecord` whose frame
features have been pooled onto a fixed clip grid and whose sentences are
embedded token matrices.

Ground-truth moment boundaries ride along on :class:`Sentence` for evaluation
and paragraph ordering only. Every read of ``Sentence.gt_segment`` increments
``GT_AUDIT.count`` so tests can prove the training path never touches them.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import string
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError, require
from .segments import Segment

SPLITS = ("train", "val", "test")

_FEATURE_MAGIC = b"CRMF"
_FEATURE_VERSION = 1


class _GtAudit:
    """Counts reads of ground-truth boundaries (leak detection)."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


GT_AUDIT = _GtAudit()


@dataclass(frozen=True)
class DataConfig:
    """Knobs for turning raw corpus files into records."""

    l_c: int = 128
    pool_span: int = 5
    max_sentence_len: int = 20

    def __post_init__(self):
        for name in ("l_c", "pool_span", "max_sentence_len"):
            require(getattr(self, name) >= 1, f"[data] {name}", "be >= 1", getattr(self, name))


@dataclass(frozen=True)
class FrameFeatures:
    """Per-frame feature matrix (F rows, one per frame)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise DataError(f"frame features must be a non-empty 2-D matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise DataError("frame features contain non-finite values")


@dataclass(frozen=True)
class ClipSequence:
    """Fixed-length clip grid; rows at index >= valid_count are zero padding."""

    matrix: np.ndarray
    valid_count: int

    def __post_init__(self):
        if not (1 <= self.valid_count <= self.matrix.shape[0]):
            raise DataError(
                f"valid_count {self.valid_count} out of range for {self.matrix.shape[0]} clips"
            )
        if np.any(self.matrix[self.valid_count :]):
            raise DataError("padded clip rows must be exactly zero")

    @property
    def l_c(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class TokenSequence:
    """Word-embedding rows for one sentence plus the surviving raw tokens."""

    matrix: np.ndarray
    raw_tokens: tuple[str, ...]

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[0] < 1:
            raise DataError("token sequence must have at least one row")
        if self.matrix.shape[0] != len(self.raw_tokens):
            raise DataError("token matrix and raw tokens disagree in length")

    def __len__(self) -> int:
        return self.matrix.shape[0]


class Sentence:
    """One query sentence at a paragraph position.

    ``gt_segment`` (seconds) is evaluation/ordering metadata; reading it bumps
    the audit counter. Training code must never touch it.
    """

    __slots__ = ("tokens", "position", "_gt_segment")

    def __init__(self, tokens: TokenSequence, position: int, gt_segment=None):
        self.tokens = tokens
        self.position = position
        self._gt_segment = gt_segment

    @property
    def gt_segment(self):
        GT_AUDIT.count += 1
        return self._gt_segment

    def __repr__(self):
        return f"Sentence(position={self.position}, tokens={len(self.tokens)})"


class VideoRecord:
    """An untrimmed video: clip features plus its ordered sentence paragraph."""

    __slots__ = ("id", "duration", "clips", "paragraph", "split")

    def __init__(self, id: str, duration: float, clips: ClipSequence, paragraph, split="train"):
        if not 0 < duration < math.inf:
            raise DataError(f"{id}: duration must be finite and > 0, got {duration}")
        if split not in SPLITS:
            raise DataError(f"unknown split {split!r}")
        paragraph = tuple(paragraph)
        if not paragraph:
            raise DataError("paragraph must contain at least one sentence")
        if [s.position for s in paragraph] != list(range(len(paragraph))):
            raise DataError("sentence positions must be 0..L_q-1 in order")
        self.id = id
        self.duration = float(duration)
        self.clips = clips
        self.paragraph = paragraph
        self.split = split

    def __repr__(self):
        return f"VideoRecord({self.id!r}, sentences={len(self.paragraph)}, split={self.split!r})"


class EmbeddingTable:
    """Word -> d_t vector lookup; unknown words map to the zero vector."""

    def __init__(self, vectors: dict, d_t: int):
        for w, v in vectors.items():
            if len(v) != d_t or not np.isfinite(v).all():
                raise DataError(f"embedding for {w!r} is not a finite {d_t}-vector")
        self._vectors = {w: np.asarray(v, dtype=np.float64) for w, v in vectors.items()}
        self.d_t = d_t

    def lookup(self, word: str) -> np.ndarray:
        vec = self._vectors.get(word)
        if vec is None:
            return np.zeros(self.d_t)
        return vec

    def words(self):
        return self._vectors.keys()


def build_clips(frames: FrameFeatures, l_c: int, pool_span: int) -> ClipSequence:
    """Pool F frame rows onto a fixed grid of ``l_c`` clips.

    Clip i max-pools frames [ceil(i*F/l_c), ceil(i*F/l_c) + pool_span),
    intersected with [0, F). Clips whose window falls entirely past the last
    frame are zero rows; valid_count counts the frame-backed prefix.
    """
    if l_c < 1 or pool_span < 1:
        raise DataError("l_c and pool_span must be >= 1")
    m = frames.matrix
    f = m.shape[0]
    out = np.zeros((l_c, m.shape[1]), dtype=m.dtype)
    valid = 0
    for i in range(l_c):
        anchor = -((-i * f) // l_c)  # ceil(i*f/l_c)
        if anchor >= f:
            break
        out[i] = m[anchor : min(anchor + pool_span, f)].max(axis=0)
        valid = i + 1
    return ClipSequence(out, valid)


_PUNCT_TO_SPACE = str.maketrans(string.punctuation, " " * len(string.punctuation))


def tokenize(sentence_text: str, table: EmbeddingTable, max_len: int) -> TokenSequence:
    """Lowercase, strip punctuation, embed, truncate to ``max_len`` tokens."""
    words = sentence_text.lower().translate(_PUNCT_TO_SPACE).split()
    if not words:
        raise DataError(f"no tokens survive in {sentence_text!r}")
    words = words[:max_len]
    rows = np.stack([table.lookup(w) for w in words])
    return TokenSequence(rows, tuple(words))


@contextlib.contextmanager
def atomic_write(path, mode="w", **open_kwargs):
    """Write through a temporary file beside ``path``, then rename it into place.

    If the body raises, the temporary file is removed and an earlier file at
    ``path`` is left as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_features(path, matrix: np.ndarray):
    """Write a feature matrix in the binary interchange format."""
    m = np.ascontiguousarray(matrix, dtype="<f4")
    if m.ndim != 2:
        raise DataError("feature matrix must be 2-D")
    with atomic_write(path, "wb") as fh:
        fh.write(_FEATURE_MAGIC)
        fh.write(bytes([_FEATURE_VERSION]))
        fh.write(struct.pack("<II", m.shape[0], m.shape[1]))
        fh.write(m.tobytes(order="C"))


def read_features(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _FEATURE_MAGIC:
        raise DataError(f"{path}: bad magic, not a feature file")
    if len(blob) < 13:
        raise DataError(f"{path}: truncated header, {len(blob)} of 13 bytes")
    if blob[4] != _FEATURE_VERSION:
        raise DataError(f"{path}: unsupported feature format version {blob[4]}")
    rows, cols = struct.unpack("<II", blob[5:13])
    expected = 13 + 4 * rows * cols
    if len(blob) != expected:
        raise DataError(f"{path}: size mismatch, expected {expected} bytes, got {len(blob)}")
    flat = np.frombuffer(blob, dtype="<f4", offset=13)
    return flat.reshape(rows, cols).copy()


@contextlib.contextmanager
def open_text(path, error=DataError):
    """A UTF-8 text file opened for reading, with universal newlines. Bytes
    that are not UTF-8, read anywhere inside the ``with`` block, raise
    ``error`` (:class:`DataError`, or :class:`ConfigError` for a run
    configuration) naming the file; an unreadable file raises OSError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path} is not UTF-8 text: {exc}") from None


def read_annotations(path) -> dict:
    try:
        with open_text(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read annotations {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: annotation document must be an object")
    return doc


def write_annotations(path, doc: dict):
    with atomic_write(path, encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_embeddings(path) -> EmbeddingTable:
    """Read a 'word v1 v2 ... vDt' text table."""
    vectors = {}
    d_t = None
    with open_text(path) as fh:
        for n, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            word, values = parts[0], parts[1:]
            try:
                vec = [float(v) for v in values]
            except ValueError as exc:
                raise DataError(f"{path}:{n}: non-numeric embedding value") from exc
            if not vec:
                raise DataError(f"{path}:{n}: no embedding values after {word!r}")
            if d_t is None:
                d_t = len(vec)
            elif len(vec) != d_t:
                raise DataError(f"{path}:{n}: expected {d_t} values, got {len(vec)}")
            vectors[word] = vec
    if not vectors:
        raise DataError(f"{path}: empty embedding table")
    return EmbeddingTable(vectors, d_t)


def save_embeddings(path, table: EmbeddingTable):
    with atomic_write(path, encoding="utf-8") as fh:
        for word in sorted(table.words()):
            values = " ".join(repr(float(v)) for v in table.lookup(word))
            fh.write(f"{word} {values}\n")


class CorpusLoadResult:
    """Loaded records plus a per-record skip report.

    ``skipped`` holds (id, reason) pairs, and every reason starts with the
    id it names.
    """

    def __init__(self, records, skipped):
        self.records = tuple(records)
        self.skipped = tuple(skipped)

    @property
    def skip_count(self) -> int:
        return len(self.skipped)


def read_timestamps(vid, entry, duration=math.inf) -> list:
    """An entry's ``timestamps`` as Segments (seconds); DataError unless each
    is a [start, end] list of finite JSON numbers (not strings or booleans)
    with 0 <= start < end <= duration."""
    timestamps = entry.get("timestamps") if isinstance(entry, dict) else None
    if not isinstance(timestamps, list):
        raise DataError(f"{vid}: timestamps missing or not a list")
    segments = []
    for ts in timestamps:
        if not (isinstance(ts, list) and len(ts) == 2):
            raise DataError(f"{vid}: timestamp {ts!r} is not a [start, end] pair")
        try:
            s, e = (float(x) for x in ts if isinstance(x, (int, float)) and not isinstance(x, bool))
        except (ValueError, OverflowError):  # not two numbers, or an int past float range
            s = e = math.nan
        if not (math.isfinite(s) and math.isfinite(e)):
            raise DataError(f"{vid}: timestamp {ts!r} is not a pair of numbers")
        if not (0 <= s < e <= duration):
            raise DataError(f"{vid}: timestamp [{s}, {e}] outside [0, {duration}]")
        segments.append(Segment(s, e))
    return segments


def load_corpus(annotation_path, feature_dir, table: EmbeddingTable, config: DataConfig) -> CorpusLoadResult:
    """Build one VideoRecord per well-formed annotated video.

    Records that fail any check (missing or malformed feature file, malformed
    entry, out-of-range timestamp, empty sentence) are skipped and reported in
    ``CorpusLoadResult.skipped`` instead of aborting the whole load. So are
    records whose feature width is not the corpus's most common one (ties go
    to the width of the first record in id order).
    """
    doc = read_annotations(annotation_path)
    records, skipped = [], []
    for vid in sorted(doc):
        try:
            records.append(_load_record(vid, doc[vid], feature_dir, table, config))
        except DataError as exc:
            reason = str(exc)
            skipped.append((vid, reason if reason.startswith(f"{vid}: ") else f"{vid}: {reason}"))
    counts = Counter(r.clips.matrix.shape[1] for r in records)
    width = max(counts, key=counts.get, default=None)  # first maximum = earliest id
    skipped += [(r.id, f"{r.id}: feature width {r.clips.matrix.shape[1]} differs from "
                 f"the corpus's {width}") for r in records if r.clips.matrix.shape[1] != width]
    return CorpusLoadResult([r for r in records if r.clips.matrix.shape[1] == width], skipped)


def _load_record(vid, entry, feature_dir, table, config) -> VideoRecord:
    if not isinstance(entry, dict):
        raise DataError(f"{vid}: entry must be an object")
    try:
        duration = float(entry["duration"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise DataError(f"{vid}: missing or non-numeric duration") from None
    segments = read_timestamps(vid, entry, duration)
    sentences = entry.get("sentences")
    if not isinstance(sentences, list) or len(sentences) != len(segments) or not sentences:
        raise DataError(f"{vid}: need a list of sentences, one per timestamp, at least one")
    feature_path = f"{feature_dir}/{vid}.crmf"
    try:
        matrix = read_features(feature_path)
    except FileNotFoundError:
        raise DataError(f"{vid}: missing feature file {feature_path}") from None
    clips = build_clips(FrameFeatures(matrix), config.l_c, config.pool_span)
    paragraph = [Sentence(tokenize(str(text), table, config.max_sentence_len), pos, gt)
                 for pos, (text, gt) in enumerate(zip(sentences, segments))]
    return VideoRecord(vid, duration, clips, paragraph, entry.get("split", "train"))


def save_corpus(records, table: EmbeddingTable, out_dir):
    """Re-emit records as annotation + feature + embedding files.

    Feature files carry the frame-backed clip rows, so a reload with
    pool_span=1 and the same l_c reproduces the records exactly whenever
    valid_count == l_c (always true for the synthetic corpus).
    """
    os.makedirs(f"{out_dir}/features", exist_ok=True)
    doc = {}
    for rec in records:
        doc[rec.id] = {
            "duration": rec.duration,
            "timestamps": [[s._gt_segment.start, s._gt_segment.end] for s in rec.paragraph],
            "sentences": [" ".join(s.tokens.raw_tokens) for s in rec.paragraph],
            "split": rec.split,
        }
        write_features(f"{out_dir}/features/{rec.id}.crmf", rec.clips.matrix[: rec.clips.valid_count])
    write_annotations(f"{out_dir}/annotations.json", doc)
    save_embeddings(f"{out_dir}/embeddings.txt", table)


def restore_paragraph_order(record: VideoRecord) -> VideoRecord:
    """Re-index sentences so positions ascend with ground-truth start time.

    Ties broken by earlier end time, then original annotation index. This is
    the one sanctioned reader of ground-truth boundaries outside evaluation,
    so it goes through the private field rather than the audited property:
    boundaries are used for ordering only and never exposed as targets.
    """
    for s in record.paragraph:
        if s._gt_segment is None:
            raise DataError(f"{record.id}: sentence {s.position} lacks ground truth for ordering")
    order = sorted(
        range(len(record.paragraph)),
        key=lambda i: (
            record.paragraph[i]._gt_segment.start,
            record.paragraph[i]._gt_segment.end,
            i,
        ),
    )
    reordered = [
        Sentence(record.paragraph[src].tokens, pos, record.paragraph[src]._gt_segment)
        for pos, src in enumerate(order)
    ]
    return VideoRecord(record.id, record.duration, record.clips, reordered, record.split)


def filter_split(records, split: str | None):
    """Records in the requested split; None keeps everything."""
    if split is None:
        return list(records)
    if split not in SPLITS:
        raise DataError(f"unknown split {split!r}")
    return [r for r in records if r.split == split]
