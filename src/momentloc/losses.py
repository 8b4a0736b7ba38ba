"""Training objectives over matching scores.

Three components:

- a multi-instance BCE that supervises the max proposal score with
  video-level positive/negative labels,
- a temporal-order loss over joint probabilities of within-video query
  pairs, partitioned by whether the proposal-pair order agrees with the
  paragraph order,
- a semantic-union loss that matches the concatenated query pair against
  the interval hull of its best temporally consistent proposal pair.

All functions build on the autodiff tape and return 0-d tensors, so they
compose into a differentiable batch objective; ``float()`` on any result
gives the plain value. Probabilities are clamped to [1e-7, 1 - 1e-7]
before any logarithm; on a float32 tape the top of that range rounds to
1 - 1.19e-7, the float32 number nearest to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import TokenSequence
from .errors import MomentlocError
from .network import MatchScores, _tokens_of, match_pairs
from .segments import GridConfig, ProposalGrid, hull, query_order

EPS = 1e-7


@dataclass(frozen=True)
class NegativeSample:
    """Contrastive partners for one (video, query) positive."""

    neg_video: object  # VideoRecord, different video
    neg_query: object  # Sentence from a different video's paragraph


@dataclass(frozen=True)
class BatchItem:
    """One training video with its sampled query pair and negatives.

    ``query_b``/``neg_b`` are None for single-sentence videos, which then
    contribute the BCE term only.
    """

    video: object
    query_a: object
    neg_a: NegativeSample
    query_b: object = None
    neg_b: NegativeSample = None


@dataclass(frozen=True)
class LossConfig:
    grid: GridConfig = GridConfig()
    tau: float = 0.5
    use_bce: bool = True
    use_tmp: bool = True
    use_smt: bool = True
    max_concat_len: int = 40


def _scores_tensor(scores) -> Tensor:
    if isinstance(scores, MatchScores):
        return scores.tensor if scores.tensor is not None else ad.constant(scores.scores)
    return ad.as_tensor(scores)


def video_score(scores) -> Tensor:
    """Video-level matching probability: the max over the last axis of the
    proposal scores, 0-d for one (L_s,) row and (pairs,) for stacked
    (pairs, L_s) scores. A tie routes the gradient to the first arg-max."""
    t = _scores_tensor(scores)
    best = ad.max_rows(ad.reshape(t, t.shape + (1,)))
    return ad.reshape(best, t.shape[:-1])


def bce_loss(p_pos, p_neg_q, p_neg_v) -> Tensor:
    """-2 log p_pos - log(1 - p_negQ) - log(1 - p_negV).

    The doubled positive term balances the one positive against the two
    negatives.
    """
    positive = ad.scale(ad.neg_log(p_pos, EPS), 2.0)
    return ad.add(ad.add(positive, ad.neg_log(p_neg_q, EPS, complement=True)),
                  ad.neg_log(p_neg_v, EPS, complement=True))


def joint_probability(scores_j, scores_jp) -> Tensor:
    """Outer product of two score vectors: entry (k, k') = p^{k,j} p^{k',j'}.

    Stacked (pairs, L_s) scores give one outer product per row.
    """
    a = _scores_tensor(scores_j)
    b = _scores_tensor(scores_jp)
    n, m = a.value.shape[-1], b.value.shape[-1]
    if n != m:
        raise ValueError("joint probability needs scores over the same grid")
    lead = a.value.shape[:-1]
    return ad.matmul(ad.reshape(a, lead + (n, 1)), ad.reshape(b, lead + (1, m)))


@dataclass
class TemporalPartition:
    """P+/P- split of all L_s^2 ordered proposal pairs for a query pair.

    A pair (k, k') is positive iff the temporal order of proposals S_k, S_k'
    equals the paragraph order of the two queries. ``positives`` and
    ``negatives`` materialise ((k, k'), probability) lists on demand; the
    loss itself works on the mask.
    """

    joint: np.ndarray
    consistent_mask: np.ndarray
    tensor: Tensor | None = field(default=None, repr=False)

    @property
    def positives(self):
        ks, kps = np.nonzero(self.consistent_mask)
        return [((int(k), int(kp)), float(self.joint[k, kp])) for k, kp in zip(ks, kps)]

    @property
    def negatives(self):
        ks, kps = np.nonzero(~self.consistent_mask)
        return [((int(k), int(kp)), float(self.joint[k, kp])) for k, kp in zip(ks, kps)]


def temporal_partition(joint, grid: ProposalGrid, j: int, j_prime: int) -> TemporalPartition:
    """Split every ordered proposal pair by order agreement with (j, j')."""
    if j == j_prime:
        raise ValueError("temporal partition needs two distinct paragraph positions")
    tensor = joint if isinstance(joint, Tensor) else None
    values = joint.value if tensor is not None else np.asarray(joint, dtype=np.float64)
    if values.shape != (len(grid), len(grid)):
        raise ValueError(f"joint matrix must be {len(grid)}x{len(grid)}")
    mask = grid.order_matrix() == query_order(j, j_prime)
    return TemporalPartition(values, mask, tensor)


def _max_over(rows: Tensor, mask: np.ndarray) -> Tensor:
    """Per-row max of a 2-D tensor over the True entries of ``mask``."""
    return ad.max_rows(ad.transpose(rows), mask.T)


def _contrast_sum(rows: Tensor, pos_mask: np.ndarray, neg_mask: np.ndarray) -> Tensor:
    """Sum over rows of -log(max positive) - log(1 - max negative).

    ``rows`` is a 2-D tensor of probabilities; a row with no negative entry
    contributes its first term only.
    """
    loss = ad.sum_all(ad.neg_log(_max_over(rows, pos_mask), EPS))
    has_neg = neg_mask.any(axis=1)
    if has_neg.any():
        keep = np.flatnonzero(has_neg)
        if len(keep) < len(has_neg):
            rows, neg_mask = ad.pick(rows, keep), neg_mask[keep]
        worst = _max_over(rows, neg_mask)
        loss = ad.add(loss, ad.sum_all(ad.neg_log(worst, EPS, complement=True)))
    return loss


def _tmp_sum(joint: Tensor, consistent: np.ndarray) -> Tensor:
    """tmp_loss summed over stacked (n, L_s, L_s) joints and P+ masks."""
    flat = consistent.reshape(len(consistent), -1)
    if not flat.any(axis=1).all():
        raise MomentlocError("no temporally consistent proposal pair exists")
    return _contrast_sum(ad.reshape(joint, flat.shape), flat, ~flat)


def tmp_loss(partition: TemporalPartition) -> Tensor:
    """-log(max P+) - log(1 - max P-); an empty P- contributes nothing."""
    jt = partition.tensor if partition.tensor is not None else ad.constant(partition.joint)
    return _tmp_sum(jt, partition.consistent_mask[None])


def concat_queries(qa, qb, max_concat: int = 40):
    """Token rows of the first query followed by the second, truncated."""
    ta, tb = _tokens_of(qa), _tokens_of(qb)
    matrix = np.concatenate([ta.matrix, tb.matrix], axis=0)[:max_concat]
    raw = (ta.raw_tokens + tb.raw_tokens)[:max_concat]
    return TokenSequence(matrix, raw)


@dataclass
class SemanticPartition:
    """Per-proposal split against the hull of the selected pair.

    The positive is the single proposal most overlapping the hull; negatives
    are all proposals with IoU below tau (the positive exempted); the rest
    are excluded from the loss. The three sets partition the grid.
    ``negatives`` and ``excluded`` materialise (proposal index, probability)
    lists on demand; the loss itself works on the mask.
    """

    positive: tuple  # (proposal index, probability)
    negative_mask: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)

    def _listed(self, mask: np.ndarray) -> list:
        return [(int(i), float(self.scores[i])) for i in np.flatnonzero(mask)]

    @property
    def negatives(self):
        return self._listed(self.negative_mask)

    @property
    def excluded(self):
        excluded_mask = ~self.negative_mask
        excluded_mask[self.positive[0]] = False
        return self._listed(excluded_mask)


def semantic_partition(scores: MatchScores, hull_seg, tau: float) -> SemanticPartition:
    ious = scores.grid.iou_with(hull_seg)
    pos_idx = int(ious.argmax())
    neg_mask = ious < tau
    neg_mask[pos_idx] = False
    return SemanticPartition((pos_idx, float(scores.scores[pos_idx])), neg_mask, scores.scores)


def _smt_sum(scores: Tensor, parts) -> Tensor:
    """smt_loss summed over stacked (n, L_s) concatenated-query scores and
    their semantic partitions."""
    pos = np.zeros(scores.shape, dtype=bool)
    pos[np.arange(len(parts)), [part.positive[0] for part in parts]] = True
    return _contrast_sum(scores, pos, np.stack([part.negative_mask for part in parts]))


def smt_loss(video, qa, qb, best_pair, params, tau: float, grid_config: GridConfig,
             max_concat: int = 40) -> Tensor:
    """Semantic-union loss for one query pair.

    Scores the concatenated query against the video, then demands that the
    proposal most overlapping hull(best_pair) outscore every proposal with
    hull-IoU below tau.
    """
    ms = match_pairs([(video, concat_queries(qa, qb, max_concat))], params, grid_config)
    part = semantic_partition(_row(ms, 0), hull(best_pair[0], best_pair[1]), tau)
    return _smt_sum(ms.tensor, [part])


def _row(ms: MatchScores, i: int) -> MatchScores:
    """Row i of stacked scores, values only."""
    return MatchScores(ms.scores[i], ms.grid)


def _best_consistent_pair(partition: TemporalPartition, grid: ProposalGrid):
    """Argmax of the joint probability over P+; ties prefer earlier starts."""
    if not partition.consistent_mask.any():
        raise MomentlocError("no temporally consistent proposal pair exists")
    masked = np.where(partition.consistent_mask, partition.joint, -np.inf)
    best = masked.max()
    if np.isnan(best):
        # Scores have gone non-finite; any consistent pair keeps the loss
        # value NaN so the trainer's divergence guard can report it.
        ks, kps = np.nonzero(partition.consistent_mask)
    else:
        ks, kps = np.nonzero(partition.consistent_mask & (partition.joint == best))
    order = min(
        range(len(ks)),
        key=lambda i: (grid.starts[ks[i]], grid.starts[kps[i]], int(ks[i]), int(kps[i])),
    )
    k, kp = int(ks[order]), int(kps[order])
    return grid.segments[k], grid.segments[kp], (k, kp)


@dataclass
class LossBreakdown:
    """Batch objective plus per-component means (as plain floats)."""

    total: Tensor
    bce: float
    tmp: float
    smt: float
    order_consistent_fraction: float | None

    def __float__(self) -> float:
        return float(self.total)


def total_loss(batch, params, config: LossConfig) -> LossBreakdown:
    """Mean BCE over all video-query pairs plus mean temporal and semantic
    terms over the videos that supply a query pair.

    Every (video, query) pair of the batch is scored in one stacked forward
    (:func:`match_pairs`), and each term reads its rows of those scores.
    Single-sentence videos contribute only their BCE term; each component
    mean divides by the number of contributing terms. Disabled components
    are skipped entirely.
    """
    if not batch:
        raise MomentlocError("empty batch")
    pairs = {}  # (id(video), id(query)) -> (row, video, query)

    def row(video, query) -> int:
        return pairs.setdefault((id(video), id(query)), (len(pairs), video, query))[0]

    bce_rows, tmp_rows, smt_rows = [], [], []
    for item in batch:
        queries = [(item.query_a, item.neg_a)]
        if item.query_b is not None:
            queries.append((item.query_b, item.neg_b))
        if config.use_bce:
            bce_rows += [(row(item.video, q), row(item.video, negs.neg_query),
                          row(negs.neg_video, q)) for q, negs in queries]
        if item.query_b is not None and (config.use_tmp or config.use_smt):
            tmp_rows.append((item, row(item.video, item.query_a), row(item.video, item.query_b)))
            if config.use_smt:
                cq = concat_queries(item.query_a, item.query_b, config.max_concat_len)
                smt_rows.append(row(item.video, cq))
    if not pairs:  # every component is switched off
        return LossBreakdown(ad.constant(0.0), 0.0, 0.0, 0.0, None)
    ms = match_pairs([(v, q) for _, v, q in pairs.values()], params, config.grid)
    scores = ms.tensor

    components = {}
    if bce_rows:
        pos, neg_q, neg_v = (np.array(c) for c in zip(*bce_rows))
        p_video = video_score(scores)
        terms = bce_loss(ad.pick(p_video, pos), ad.pick(p_video, neg_q), ad.pick(p_video, neg_v))
        components["bce"] = ad.scale(ad.sum_all(terms), 1.0 / len(bce_rows))
    consistent_flags = []
    if tmp_rows:
        items, rows_a, rows_b = zip(*tmp_rows)
        joint = joint_probability(ad.pick(scores, np.array(rows_a)),
                                  ad.pick(scores, np.array(rows_b)))
        parts = [temporal_partition(values, ms.grid, it.query_a.position, it.query_b.position)
                 for values, it in zip(joint.value, items)]
        consistent_flags = [bool(part.consistent_mask.flat[int(part.joint.argmax())])
                            for part in parts]
        if config.use_tmp:
            masks = np.stack([part.consistent_mask for part in parts])
            components["tmp"] = ad.scale(_tmp_sum(joint, masks), 1.0 / len(parts))
        if config.use_smt:
            sem = []
            for part, r in zip(parts, smt_rows):
                seg_a, seg_b, _ = _best_consistent_pair(part, ms.grid)
                sem.append(semantic_partition(_row(ms, r), hull(seg_a, seg_b), config.tau))
            components["smt"] = ad.scale(_smt_sum(ad.pick(scores, np.array(smt_rows)), sem),
                                         1.0 / len(sem))
    return LossBreakdown(
        total=reduce(ad.add, components.values()),
        bce=float(components.get("bce", 0.0)),
        tmp=float(components.get("tmp", 0.0)),
        smt=float(components.get("smt", 0.0)),
        order_consistent_fraction=(
            sum(consistent_flags) / len(consistent_flags) if consistent_flags else None
        ),
    )
