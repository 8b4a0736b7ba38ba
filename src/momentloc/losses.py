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
    return ad.max_rows(_scores_tensor(scores))


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
    equals the paragraph order of the two queries. A stack of n query pairs
    gives (n, L_s, L_s) ``joint`` and ``consistent_mask``.
    """

    joint: np.ndarray
    consistent_mask: np.ndarray
    tensor: Tensor | None = field(default=None, repr=False)


def temporal_partition(joint, grid: ProposalGrid, j, j_prime) -> TemporalPartition:
    """Split every ordered proposal pair by order agreement with (j, j').

    ``joint`` is one (L_s, L_s) matrix with positions (j, j'), or an
    (n, L_s, L_s) stack with one position per row in the arrays j and j'.
    """
    if np.any(np.equal(j, j_prime)):
        raise ValueError("temporal partition needs two distinct paragraph positions")
    tensor = joint if isinstance(joint, Tensor) else None
    values = joint.value if tensor is not None else np.asarray(joint, dtype=np.float64)
    order = np.expand_dims(query_order(j, j_prime), (-2, -1))
    if values.shape != order.shape[:-2] + (len(grid), len(grid)):
        raise ValueError(f"joint matrix must be {len(grid)}x{len(grid)} per query pair")
    return TemporalPartition(values, grid.order_matrix() == order, tensor)


def _contrast_sum(rows: Tensor, pos_mask: np.ndarray, neg_mask: np.ndarray) -> Tensor:
    """Sum over rows of -log(max positive) - log(1 - max negative).

    ``rows`` is a 2-D tensor of probabilities; a row with no negative entry
    contributes its first term only.
    """
    loss = ad.sum_all(ad.neg_log(ad.max_rows(rows, pos_mask), EPS))
    has_neg = neg_mask.any(axis=1)
    if has_neg.any():
        keep = np.flatnonzero(has_neg)
        if len(keep) < len(has_neg):
            rows, neg_mask = ad.pick(rows, keep), neg_mask[keep]
        worst = ad.max_rows(rows, neg_mask)
        loss = ad.add(loss, ad.sum_all(ad.neg_log(worst, EPS, complement=True)))
    return loss


def _consistent_rows(partition: TemporalPartition) -> np.ndarray:
    """The P+ mask with one flat row of L_s^2 pairs per query pair; raises
    if a row has no temporally consistent pair."""
    mask = partition.consistent_mask
    flat = mask.reshape(-1, mask.shape[-1] * mask.shape[-1])
    if not flat.any(axis=1).all():
        raise MomentlocError("no temporally consistent proposal pair exists")
    return flat


def tmp_loss(partition: TemporalPartition) -> Tensor:
    """-log(max P+) - log(1 - max P-), summed over a stack; an empty P-
    contributes nothing."""
    jt = partition.tensor if partition.tensor is not None else ad.constant(partition.joint)
    flat = _consistent_rows(partition)
    return _contrast_sum(ad.reshape(jt, flat.shape), flat, ~flat)


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
    are excluded from the loss. The three sets partition the grid. Stacked
    scores give one index and probability, and one mask row, per row.
    """

    positive: tuple  # (proposal index, probability)
    negative_mask: np.ndarray = field(repr=False)


def semantic_partition(scores: MatchScores, hull_seg, tau: float) -> SemanticPartition:
    """Split the proposals of ``scores`` by IoU with ``hull_seg``: one
    segment for all rows, or (starts, ends) arrays with one hull per row."""
    ious = np.broadcast_to(scores.grid.iou_with(hull_seg), scores.scores.shape)
    pos_idx = ious.argmax(axis=-1)
    at = np.expand_dims(pos_idx, -1)
    prob = np.take_along_axis(scores.scores, at, -1)[..., 0]
    return SemanticPartition((pos_idx, prob), (ious < tau) & (np.arange(ious.shape[-1]) != at))


def _smt_sum(scores: Tensor, part: SemanticPartition) -> Tensor:
    """smt_loss summed over stacked (n, L_s) scores and their partition."""
    pos = np.arange(scores.shape[-1]) == np.expand_dims(part.positive[0], -1)
    return _contrast_sum(scores, pos, part.negative_mask)


def smt_loss(video, qa, qb, best_pair, params, tau: float, grid_config: GridConfig,
             max_concat: int = 40) -> Tensor:
    """Semantic-union loss for one query pair.

    Scores the concatenated query against the video, then demands that the
    proposal most overlapping hull(best_pair) outscore every proposal with
    hull-IoU below tau.
    """
    ms = match_pairs([(video, concat_queries(qa, qb, max_concat))], params, grid_config)
    return _smt_sum(ms.tensor, semantic_partition(ms, hull(*best_pair), tau))


def _best_consistent_pair(partition: TemporalPartition, grid: ProposalGrid):
    """(k, k') index arrays of the joint's argmax over P+, one per query pair
    of a stack. Ties prefer earlier starts, then lower indices."""
    flat = _consistent_rows(partition)
    joint = partition.joint.reshape(flat.shape)
    best = np.where(flat, joint, -np.inf).max(axis=1, keepdims=True)
    # A row of non-finite scores has a NaN max; any consistent pair keeps its
    # loss NaN, so that the trainer's divergence guard can report it.
    tied = flat & ((joint == best) | np.isnan(best))
    k, kp = np.divmod(np.arange(flat.shape[1]), len(grid))
    rank = np.lexsort((kp, k, grid.starts[kp], grid.starts[k]))
    pick = rank[tied[:, rank].argmax(axis=1)].reshape(partition.joint.shape[:-2])
    return k[pick], kp[pick]


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
            tmp_rows.append((row(item.video, item.query_a), row(item.video, item.query_b),
                             item.query_a.position, item.query_b.position))
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
    consistent_fraction = None
    if tmp_rows:
        rows_a, rows_b, pos_a, pos_b = (np.array(c) for c in zip(*tmp_rows))
        joint = joint_probability(ad.pick(scores, rows_a), ad.pick(scores, rows_b))
        part = temporal_partition(joint, ms.grid, pos_a, pos_b)
        flat = part.consistent_mask.reshape(len(tmp_rows), -1)
        at_max = flat[np.arange(len(flat)), part.joint.reshape(flat.shape).argmax(axis=1)]
        consistent_fraction = float(at_max.mean())
        if config.use_tmp:
            components["tmp"] = ad.scale(tmp_loss(part), 1.0 / len(tmp_rows))
        if config.use_smt:
            k, kp = _best_consistent_pair(part, ms.grid)
            union = hull((ms.grid.starts[k], ms.grid.ends[k]),
                         (ms.grid.starts[kp], ms.grid.ends[kp]))
            sem = semantic_partition(MatchScores(ms.scores[smt_rows], ms.grid), union, config.tau)
            components["smt"] = ad.scale(_smt_sum(ad.pick(scores, np.array(smt_rows)), sem),
                                         1.0 / len(smt_rows))
    return LossBreakdown(
        total=reduce(ad.add, components.values()),
        bce=float(components.get("bce", 0.0)),
        tmp=float(components.get("tmp", 0.0)),
        smt=float(components.get("smt", 0.0)),
        order_consistent_fraction=consistent_fraction,
    )
