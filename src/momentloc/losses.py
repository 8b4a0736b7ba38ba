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
before any logarithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import MomentlocError
from .network import MatchScores, match
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


def _clamped(t: Tensor) -> Tensor:
    return ad.clamp(t, EPS, 1.0 - EPS)


def video_score(scores) -> Tensor:
    """Video-level matching probability: max over all proposal scores."""
    return ad.masked_max(_scores_tensor(scores))


def bce_loss(p_pos, p_neg_q, p_neg_v) -> Tensor:
    """-2 log p_pos - log(1 - p_negQ) - log(1 - p_negV).

    The doubled positive term balances the one positive against the two
    negatives.
    """
    terms = [
        ad.scale(ad.log(_clamped(ad.as_tensor(p_pos))), -2.0),
        ad.neg(ad.log(ad.rsub_const(1.0, _clamped(ad.as_tensor(p_neg_q))))),
        ad.neg(ad.log(ad.rsub_const(1.0, _clamped(ad.as_tensor(p_neg_v))))),
    ]
    return ad.add_n(terms)


def joint_probability(scores_j, scores_jp) -> Tensor:
    """Outer product of two score vectors: entry (k, k') = p^{k,j} p^{k',j'}."""
    a = _scores_tensor(scores_j)
    b = _scores_tensor(scores_jp)
    n, m = a.value.shape[0], b.value.shape[0]
    if n != m:
        raise ValueError("joint probability needs scores over the same grid")
    return ad.matmul(ad.reshape(a, (n, 1)), ad.reshape(b, (1, m)))


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
    j: int
    j_prime: int
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
    return TemporalPartition(values, mask, j, j_prime, tensor)


def tmp_loss(partition: TemporalPartition) -> Tensor:
    """-log(max P+) - log(1 - max P-); an empty P- contributes nothing."""
    mask = partition.consistent_mask
    if not mask.any():
        raise MomentlocError("no temporally consistent proposal pair exists")
    jt = partition.tensor if partition.tensor is not None else ad.constant(partition.joint)
    loss = ad.neg(ad.log(_clamped(ad.masked_max(jt, mask))))
    if not mask.all():
        worst_neg = ad.masked_max(jt, ~mask)
        loss = ad.add(loss, ad.neg(ad.log(ad.rsub_const(1.0, _clamped(worst_neg)))))
    return loss


def concat_queries(qa, qb, max_concat: int = 40):
    """Token rows of the first query followed by the second, truncated."""
    from .data import TokenSequence

    ta = qa.tokens if hasattr(qa, "tokens") else qa
    tb = qb.tokens if hasattr(qb, "tokens") else qb
    matrix = np.concatenate([ta.matrix, tb.matrix], axis=0)[:max_concat]
    raw = (ta.raw_tokens + tb.raw_tokens)[:max_concat]
    return TokenSequence(matrix, raw)


@dataclass
class SemanticPartition:
    """Per-proposal split against the hull of the selected pair.

    The positive is the single proposal most overlapping the hull; negatives
    are all proposals with IoU below tau (the positive exempted); the rest
    are excluded from the loss. The three sets partition the grid.
    """

    positive: tuple  # (proposal index, probability)
    negatives: list
    excluded: list
    negative_mask: np.ndarray = field(repr=False, default=None)


def semantic_partition(scores: MatchScores, hull_seg, tau: float) -> SemanticPartition:
    ious = scores.grid.iou_with(hull_seg)
    pos_idx = int(ious.argmax())
    neg_mask = ious < tau
    neg_mask[pos_idx] = False
    excluded_mask = ~neg_mask
    excluded_mask[pos_idx] = False
    values = scores.scores
    return SemanticPartition(
        positive=(pos_idx, float(values[pos_idx])),
        negatives=[(int(i), float(values[i])) for i in np.flatnonzero(neg_mask)],
        excluded=[(int(i), float(values[i])) for i in np.flatnonzero(excluded_mask)],
        negative_mask=neg_mask,
    )


def smt_loss(video, qa, qb, best_pair, params, tau: float, grid_config: GridConfig,
             max_concat: int = 40) -> Tensor:
    """Semantic-union loss for one query pair.

    Scores the concatenated query against the video, then demands that the
    proposal most overlapping hull(best_pair) outscore every proposal with
    hull-IoU below tau.
    """
    cq = concat_queries(qa, qb, max_concat)
    ms = match(video, cq, params, grid_config)
    part = semantic_partition(ms, hull(best_pair[0], best_pair[1]), tau)
    st = _scores_tensor(ms)
    loss = ad.neg(ad.log(_clamped(ad.pick(st, part.positive[0]))))
    if part.negative_mask.any():
        worst_neg = ad.masked_max(st, part.negative_mask)
        loss = ad.add(loss, ad.neg(ad.log(ad.rsub_const(1.0, _clamped(worst_neg)))))
    return loss


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


def _mean(terms) -> Tensor:
    return ad.scale(ad.add_n(terms), 1.0 / len(terms))


def total_loss(batch, params, config: LossConfig) -> LossBreakdown:
    """Mean BCE over all video-query pairs plus mean temporal and semantic
    terms over the videos that supply a query pair.

    Single-sentence videos contribute only their BCE term; each component
    mean divides by the number of contributing terms. Disabled components
    are skipped entirely.
    """
    if not batch:
        raise MomentlocError("empty batch")
    bce_terms, tmp_terms, smt_terms = [], [], []
    consistent_flags = []
    for item in batch:
        queries = [(item.query_a, item.neg_a)]
        if item.query_b is not None:
            queries.append((item.query_b, item.neg_b))
        pos_scores = [match(item.video, q, params, config.grid) for q, _ in queries]
        if config.use_bce:
            for (q, negs), ms in zip(queries, pos_scores):
                p_pos = video_score(ms)
                p_neg_v = video_score(match(negs.neg_video, q, params, config.grid))
                p_neg_q = video_score(match(item.video, negs.neg_query, params, config.grid))
                bce_terms.append(bce_loss(p_pos, p_neg_q, p_neg_v))
        if item.query_b is not None and (config.use_tmp or config.use_smt):
            joint = joint_probability(pos_scores[0], pos_scores[1])
            part = temporal_partition(joint, pos_scores[0].grid,
                                      item.query_a.position, item.query_b.position)
            flat_best = int(part.joint.argmax())
            consistent_flags.append(bool(part.consistent_mask.flat[flat_best]))
            if config.use_tmp:
                tmp_terms.append(tmp_loss(part))
            if config.use_smt:
                seg_a, seg_b, _ = _best_consistent_pair(part, pos_scores[0].grid)
                smt_terms.append(smt_loss(item.video, item.query_a, item.query_b,
                                          (seg_a, seg_b), params, config.tau, config.grid,
                                          config.max_concat_len))
    components = []
    if bce_terms:
        components.append(_mean(bce_terms))
    if tmp_terms:
        components.append(_mean(tmp_terms))
    if smt_terms:
        components.append(_mean(smt_terms))
    total = ad.add_n(components) if components else ad.constant(0.0)
    return LossBreakdown(
        total=total,
        bce=float(_mean(bce_terms)) if bce_terms else 0.0,
        tmp=float(_mean(tmp_terms)) if tmp_terms else 0.0,
        smt=float(_mean(smt_terms)) if smt_terms else 0.0,
        order_consistent_fraction=(
            sum(consistent_flags) / len(consistent_flags) if consistent_flags else None
        ),
    )
