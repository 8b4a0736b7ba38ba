"""Metrics over a trained checkpoint: recall at IoU and the two pairwise
consistency protocols.

Recall treats a query as correct when the top-1 prediction's IoU with
ground truth is strictly greater than the threshold. Temporal consistency
asks, over all sentence pairs in a video, whether the predicted segments
are ordered like the ground-truth segments. Semantic consistency localises
the concatenated sentence pair and asks whether the prediction overlaps the
hull of the two ground-truth segments with IoU strictly above tau.

Functions that take ``(corpus, checkpoint)`` run the network; the
``*_from_predictions`` variants score an externally supplied
``(video_id, position) -> (start_s, end_s)`` mapping, which is how
third-party predictions are audited.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import filter_split
from .errors import CheckpointMismatchError, DataError, PredictionsMismatchError
from .losses import concat_queries
from .network import localize_pairs
from .segments import hull, iou, order_relation
from .training import Checkpoint, TrainConfig, _one_shape, grid_from_snapshot


@dataclass
class EvalReport:
    recall_at: dict  # threshold -> recall
    temporal_consistency: float | None
    semantic_consistency: float | None
    per_query: list
    num_queries: int
    num_pairs: int
    split: str | None
    tau_eval: float


def _prepare(corpus, checkpoint: Checkpoint, split: str | None = None) -> tuple:
    """The records of ``split``, each checked against the others and the
    shape against the checkpoint, plus the float32 checkpoint tensors cast
    to float64 once, so that each stacked forward does not cast them again."""
    records = filter_split(corpus, split)
    if not records:
        raise DataError(f"no records in split {split!r}" if split else "no records to evaluate")
    for name, actual in zip(("l_c", "d_v", "d_t"), _one_shape(records)):
        if checkpoint.config[name] != actual:
            raise CheckpointMismatchError(name, checkpoint.config[name], actual)
    return records, {name: arr.astype(np.float64) for name, arr in checkpoint.params.items()}


def _localized(records, checkpoint: Checkpoint, params, queries_of):
    """Yield (key, LocalizeResult) for the (key, query) list ``queries_of``
    gives each record. A record's queries are stacked in forwards of at most
    as many queries as it has sentences, so that a forward grows with the
    paragraph, not with its square."""
    grid_config = grid_from_snapshot(checkpoint.config)
    for rec in records:
        queries, width = queries_of(rec), len(rec.paragraph)
        for chunk in (queries[i: i + width] for i in range(0, len(queries), width)):
            found = localize_pairs([(rec, query) for _, query in chunk], params, grid_config)
            yield from zip((key for key, _ in chunk), found)


def predict_sentences(records, checkpoint: Checkpoint) -> dict:
    """(video id, position) -> predicted (start_s, end_s) for every sentence."""
    records, params = _prepare(records, checkpoint)
    return _predict(records, checkpoint, params)


def _predict(records, checkpoint: Checkpoint, params) -> dict:
    """Localise each record's sentences in one stacked forward per record."""
    return {key: res.seconds for key, res in _localized(
        records, checkpoint, params,
        lambda rec: [((rec.id, sent.position), sent) for sent in rec.paragraph])}


def recall_from_predictions(records, preds: dict, thresholds) -> tuple:
    """Shared recall core; returns (recall dict, per-query detail rows)."""
    details = []
    for rec in records:
        for sent in rec.paragraph:
            gt = sent.gt_segment
            pred = preds[(rec.id, sent.position)]
            details.append({
                "video_id": rec.id,
                "position": sent.position,
                "predicted": [float(pred[0]), float(pred[1])],
                "ground_truth": [float(gt.start), float(gt.end)],
                "iou": iou(pred, gt),
            })
    ious = np.array([d["iou"] for d in details])
    recall = {float(m): float((ious > m).mean()) for m in thresholds}
    return recall, details


# The pair-consistency core: every protocol enumerates a video's sentence
# pairs with itertools.combinations and scores each with one of these.

def _order_consistent(pred_a, pred_b, gt_a, gt_b) -> bool:
    """The two predictions are ordered like the two ground-truth segments."""
    return order_relation(pred_a, pred_b) == order_relation(gt_a, gt_b)


def _hull_consistent(pred, gt_a, gt_b, tau_eval) -> bool:
    """The pair's prediction overlaps the hull of its two ground-truth
    segments with IoU strictly above tau_eval."""
    return iou(pred, hull(gt_a, gt_b)) > tau_eval


def _ratio(flags: list) -> float | None:
    return sum(flags) / len(flags) if flags else None


def temporal_consistency_from_predictions(records, preds: dict) -> float | None:
    """Ratio of sentence pairs whose predictions are ordered like the truth."""
    return _ratio([
        _order_consistent(preds[(rec.id, a.position)], preds[(rec.id, b.position)],
                          a.gt_segment, b.gt_segment)
        for rec in records for a, b in combinations(rec.paragraph, 2)
    ])


def analyze_predictions(preds: dict, gt_map: dict, tau_eval=0.5) -> dict:
    """Score an external predictions mapping against ground truth alone.

    ``gt_map`` maps video id to the list of ground-truth segments in sentence
    position order. Every prediction key must resolve to a known (video,
    position); pairs where either side lacks a prediction are skipped and
    counted. Returns both pairwise consistency ratios; the semantic one
    scores the hull of the pair's two predictions.
    """
    unmatched = [
        f"{vid}:{pos}"
        for vid, pos in preds
        if vid not in gt_map or not 0 <= pos < len(gt_map[vid])
    ]
    if unmatched:
        raise PredictionsMismatchError(sorted(unmatched))
    tempo, sem = [], []
    skipped = 0
    for vid in sorted(gt_map):
        for (a, gt_a), (b, gt_b) in combinations(enumerate(gt_map[vid]), 2):
            if (vid, a) not in preds or (vid, b) not in preds:
                skipped += 1
                continue
            pred_a, pred_b = preds[(vid, a)], preds[(vid, b)]
            tempo.append(_order_consistent(pred_a, pred_b, gt_a, gt_b))
            sem.append(_hull_consistent(hull(pred_a, pred_b), gt_a, gt_b, tau_eval))
    return {
        "temporal_consistency": _ratio(tempo),
        "semantic_consistency": _ratio(sem),
        "pairs_scored": len(tempo),
        "pairs_skipped": skipped,
    }


def semantic_consistency(corpus, checkpoint: Checkpoint, tau_eval=0.5,
                         split: str | None = None):
    """Localise each concatenated sentence pair; count predictions whose IoU
    with the hull of the pair's ground-truth segments exceeds tau_eval."""
    records, params = _prepare(corpus, checkpoint, split)
    return _semantic(records, checkpoint, params, tau_eval)


def _semantic(records, checkpoint: Checkpoint, params, tau_eval) -> float | None:
    """Localise each record's concatenated sentence pairs."""
    max_concat = checkpoint.config.get("max_concat_len", TrainConfig.max_concat_len)
    return _ratio([_hull_consistent(res.seconds, a.gt_segment, b.gt_segment, tau_eval)
                   for (a, b), res in _localized(
                       records, checkpoint, params,
                       lambda rec: [((a, b), concat_queries(a, b, max_concat))
                                    for a, b in combinations(rec.paragraph, 2)])])


def count_pairs(records) -> int:
    return sum(len(r.paragraph) * (len(r.paragraph) - 1) // 2 for r in records)


def evaluate(corpus, checkpoint: Checkpoint, thresholds=(0.1, 0.3, 0.5),
             split: str | None = None, tau_eval=0.5) -> EvalReport:
    """Full report: recall at every threshold plus both consistency ratios."""
    records, params = _prepare(corpus, checkpoint, split)
    preds = _predict(records, checkpoint, params)
    recall, details = recall_from_predictions(records, preds, thresholds)
    return EvalReport(
        recall_at=recall,
        temporal_consistency=temporal_consistency_from_predictions(records, preds),
        semantic_consistency=_semantic(records, checkpoint, params, tau_eval),
        per_query=details,
        num_queries=len(details),
        num_pairs=count_pairs(records),
        split=split,
        tau_eval=tau_eval,
    )


def report_to_json(report: EvalReport) -> str:
    doc = {
        "schema_version": 1,
        "split": report.split,
        "thresholds": sorted(report.recall_at),
        "recall_at": {repr(m): report.recall_at[m] for m in sorted(report.recall_at)},
        "temporal_consistency": report.temporal_consistency,
        "semantic_consistency": report.semantic_consistency,
        "tau_eval": report.tau_eval,
        "num_queries": report.num_queries,
        "num_pairs": report.num_pairs,
        "per_query": report.per_query,
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def _fmt(x) -> str:
    return "n/a" if x is None else f"{x:.4f}"


def report_to_table(report: EvalReport) -> str:
    lines = [
        f"split: {report.split or 'all'}   queries: {report.num_queries}   "
        f"pairs: {report.num_pairs}",
    ]
    for m in sorted(report.recall_at):
        lines.append(f"recall @ IoU>{m:<4}  {report.recall_at[m]:.4f}")
    lines.append(f"temporal consistency   {_fmt(report.temporal_consistency)}")
    lines.append(f"semantic consistency   {_fmt(report.semantic_consistency)}")
    return "\n".join(lines)
