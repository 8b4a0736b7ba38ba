import json
from itertools import combinations

import numpy as np
import pytest

from helpers import make_record, tiny_params
from momentloc import (
    Checkpoint,
    CheckpointMismatchError,
    DataError,
    GridConfig,
    PredictionsMismatchError,
    Segment,
    SynthConfig,
    TrainConfig,
    analyze_predictions,
    concat_queries,
    count_pairs,
    evaluate,
    generate_corpus,
    hull,
    iou,
    localize,
    predict_sentences,
    recall_from_predictions,
    report_to_json,
    report_to_table,
    semantic_consistency,
    temporal_consistency_from_predictions,
    train,
)
from momentloc import network


def gt_record(vid, gts, duration=30.0, d_v=2, d_t=2):
    rng = np.random.default_rng(hash(vid) % 2**32)
    sentences = [(rng.normal(size=(2, d_t)), gt) for gt in gts]
    return make_record(rng.normal(size=(8, d_v)), sentences, vid=vid, duration=duration)


class TestRecallFromPredictions:
    def test_two_query_hand_count(self):
        rec = gt_record("v", [(0, 10), (20, 30)])
        preds = {("v", 0): (0.0, 6.0), ("v", 1): (20.0, 24.0)}  # IoUs 0.6 and 0.4
        recall, details = recall_from_predictions([rec], preds, (0.1, 0.5, 0.7))
        assert recall[0.5] == 0.5
        assert recall[0.1] == 1.0
        assert recall[0.7] == 0.0
        assert [d["iou"] for d in details] == pytest.approx([0.6, 0.4])
        assert details[0]["video_id"] == "v" and details[1]["position"] == 1

    def test_copying_ground_truth_is_perfect(self):
        rec = gt_record("v", [(0, 10), (12, 20), (25, 30)])
        preds = {("v", i): (float(s.start), float(s.end))
                 for i, s in enumerate(g.gt_segment for g in rec.paragraph)}
        recall, _ = recall_from_predictions([rec], preds, (0.1, 0.5, 0.9, 0.99))
        assert all(v == 1.0 for v in recall.values())

    def test_disjoint_predictions_score_zero(self):
        rec = gt_record("v", [(0, 10), (12, 20)])
        preds = {("v", 0): (25.0, 30.0), ("v", 1): (25.0, 30.0)}
        recall, _ = recall_from_predictions([rec], preds, (0.0, 0.3))
        assert recall[0.0] == 0.0 and recall[0.3] == 0.0

    def test_boundary_iou_is_strict(self):
        rec = gt_record("v", [(0, 10)])
        recall, _ = recall_from_predictions([rec], {("v", 0): (0.0, 5.0)}, (0.5,))
        assert recall[0.5] == 0.0  # IoU exactly 0.5 does not clear m=0.5

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        recs, preds = [], {}
        for i in range(20):
            s = float(rng.integers(0, 20))
            e = s + float(rng.integers(1, 10))
            recs.append(gt_record(f"v{i}", [(s, e)]))
            ps = max(0.0, s + rng.normal() * 3)
            preds[(f"v{i}", 0)] = (ps, ps + float(rng.integers(1, 12)))
        thresholds = (0.1, 0.3, 0.5, 0.7, 0.9)
        recall, _ = recall_from_predictions(recs, preds, thresholds)
        vals = [recall[m] for m in thresholds]
        assert vals == sorted(vals, reverse=True)


class TestTemporalFromPredictions:
    def test_two_of_three_pairs(self):
        rec = gt_record("v", [(0, 10), (10, 20), (20, 30)])
        preds = {("v", 0): (0.0, 5.0), ("v", 1): (0.0, 2.0), ("v", 2): (12.0, 18.0)}
        assert temporal_consistency_from_predictions([rec], preds) == pytest.approx(2 / 3)

    def test_ground_truth_copy_is_one(self):
        rec = gt_record("v", [(0, 10), (12, 20), (25, 30)])
        preds = {("v", i): (float(g.gt_segment.start), float(g.gt_segment.end))
                 for i, g in enumerate(rec.paragraph)}
        assert temporal_consistency_from_predictions([rec], preds) == 1.0

    def test_reversed_predictions_are_zero(self):
        rec = gt_record("v", [(0, 10), (12, 20), (25, 30)])
        preds = {("v", 0): (25.0, 30.0), ("v", 1): (12.0, 20.0), ("v", 2): (0.0, 10.0)}
        assert temporal_consistency_from_predictions([rec], preds) == 0.0

    def test_midpoint_reflection_is_zero(self):
        gts = [(0, 10), (12, 20), (22, 30)]
        rec = gt_record("v", gts)
        preds = {("v", i): (30.0 - e, 30.0 - s) for i, (s, e) in enumerate(gts)}
        assert temporal_consistency_from_predictions([rec], preds) == 0.0

    def test_single_sentence_videos_yield_none(self):
        rec = gt_record("v", [(0, 10)])
        assert temporal_consistency_from_predictions([rec], {("v", 0): (0.0, 1.0)}) is None


def hull_consistency(recs, preds):
    gt_map = {r.id: [s.gt_segment for s in r.paragraph] for r in recs}
    return analyze_predictions(preds, gt_map)["semantic_consistency"]


class TestHullConsistencyFromPredictions:
    def test_four_pair_hand_count(self):
        # hull IoUs vs ground-truth hull (0, 20): 0.9, 0.6, 0.4, 0.2
        spans = [(0.0, 18.0), (0.0, 12.0), (0.0, 8.0), (0.0, 4.0)]
        recs, preds = [], {}
        for i, (lo, hi) in enumerate(spans):
            vid = f"v{i}"
            recs.append(gt_record(vid, [(0, 10), (10, 20)]))
            preds[(vid, 0)] = (lo, (lo + hi) / 2)
            preds[(vid, 1)] = ((lo + hi) / 2, hi)
        assert hull_consistency(recs, preds) == 0.5

    def test_exact_hull_counts(self):
        rec = gt_record("v", [(0, 10), (10, 20)])
        preds = {("v", 0): (0.0, 10.0), ("v", 1): (10.0, 20.0)}
        assert hull_consistency([rec], preds) == 1.0

    def test_boundary_is_strict(self):
        rec = gt_record("v", [(0, 10), (10, 20)])
        preds = {("v", 0): (0.0, 5.0), ("v", 1): (5.0, 10.0)}  # hull IoU exactly 0.5
        assert hull_consistency([rec], preds) == 0.0


class TestAnalyzePredictions:
    GT = {"a": [Segment(0, 10), Segment(10, 20)], "b": [Segment(5, 15)]}

    def test_unknown_video_rejected(self):
        with pytest.raises(PredictionsMismatchError) as exc:
            analyze_predictions({("zz", 0): (0.0, 1.0)}, self.GT)
        assert exc.value.unmatched == ["zz:0"]

    def test_position_out_of_range_rejected(self):
        with pytest.raises(PredictionsMismatchError) as exc:
            analyze_predictions({("b", 1): (0.0, 1.0), ("b", -1): (0.0, 1.0)}, self.GT)
        assert exc.value.unmatched == ["b:-1", "b:1"]

    def test_copy_of_ground_truth(self):
        preds = {("a", 0): (0.0, 10.0), ("a", 1): (10.0, 20.0), ("b", 0): (5.0, 15.0)}
        out = analyze_predictions(preds, self.GT)
        assert out["temporal_consistency"] == 1.0
        assert out["semantic_consistency"] == 1.0
        assert out["pairs_scored"] == 1 and out["pairs_skipped"] == 0

    def test_reversed_pair(self):
        preds = {("a", 0): (15.0, 20.0), ("a", 1): (0.0, 5.0)}
        out = analyze_predictions(preds, self.GT)
        assert out["temporal_consistency"] == 0.0

    def test_partial_predictions_skip_pairs(self):
        gt = {"v": [Segment(0, 5), Segment(5, 10), Segment(10, 15)]}
        preds = {("v", 0): (0.0, 5.0), ("v", 1): (5.0, 10.0)}
        out = analyze_predictions(preds, gt)
        assert out["pairs_scored"] == 1 and out["pairs_skipped"] == 2

    def test_no_pairs_yields_none(self):
        out = analyze_predictions({("b", 0): (0.0, 1.0)}, {"b": self.GT["b"]})
        assert out["temporal_consistency"] is None
        assert out["semantic_consistency"] is None


TINY_GRID = GridConfig((4, 8, 16), 2)


@pytest.fixture(scope="module")
def trained():
    corpus = generate_corpus(SynthConfig(num_videos=8, l_c=16, d_v=6, d_t=6,
                                         num_event_types=3, events_min=2, events_max=3,
                                         event_lengths=(4, 6), ambiguity_rate=0.25,
                                         noise_std=0.1, tokens_per_sentence=(2, 3), seed=5))
    cfg = TrainConfig(d=8, grid=TINY_GRID, batch_videos=4, epochs=2,
                      learning_rate=1e-3, seed=0, use_tmp=False, use_smt=False)
    ckpt = train([r for r in corpus.records], cfg, {"pool_span": 1})
    return corpus.records, ckpt


class TestCheckpointMetrics:
    def test_recall_dict_monotone(self, trained):
        records, ckpt = trained
        recall = evaluate(records, ckpt, (0.1, 0.3, 0.5, 0.7)).recall_at
        vals = [recall[m] for m in (0.1, 0.3, 0.5, 0.7)]
        assert vals == sorted(vals, reverse=True)
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_video_order_invariance(self, trained):
        records, ckpt = trained
        fwd = evaluate(records, ckpt, (0.3, 0.5))
        rev = evaluate(list(reversed(records)), ckpt, (0.3, 0.5))
        assert fwd.recall_at == rev.recall_at
        assert fwd.temporal_consistency == rev.temporal_consistency
        assert fwd.semantic_consistency == rev.semantic_consistency

    def test_split_filter(self, trained):
        records, ckpt = trained
        test_records = [r for r in records if r.split == "test"]
        assert test_records
        rep = evaluate(records, ckpt, (0.5,), split="test")
        assert rep.num_queries == sum(len(r.paragraph) for r in test_records)
        assert rep.num_pairs == count_pairs(test_records)
        assert rep.split == "test"

    def test_mismatched_data_rejected(self, trained):
        _, ckpt = trained
        bad = gt_record("x", [(0, 4), (4, 8)], duration=8.0, d_v=6, d_t=6)
        with pytest.raises(CheckpointMismatchError) as exc:
            evaluate([bad], ckpt, (0.5,))
        assert exc.value.field == "l_c"
        assert exc.value.expected == 16 and exc.value.actual == 8

    @pytest.mark.parametrize("entry", [evaluate, predict_sentences, semantic_consistency])
    def test_every_record_shape_checked(self, trained, entry):
        records, ckpt = trained
        narrow = make_record(np.zeros((16, 4)), [(np.zeros((2, 6)), (0, 4))], vid="narrow")
        with pytest.raises(DataError, match="narrow: feature width 4"):
            entry([records[0], narrow], ckpt)

    def test_consistency_ranges(self, trained):
        records, ckpt = trained
        tc = evaluate(records, ckpt).temporal_consistency
        sc = semantic_consistency(records, ckpt)
        assert 0.0 <= tc <= 1.0
        assert 0.0 <= sc <= 1.0

    def test_report_json_round_trip(self, trained):
        records, ckpt = trained
        rep = evaluate(records, ckpt, (0.3, 0.5))
        doc = json.loads(report_to_json(rep))
        assert doc["schema_version"] == 1
        assert doc["recall_at"]["0.3"] == rep.recall_at[0.3]
        assert doc["recall_at"]["0.5"] == rep.recall_at[0.5]
        assert doc["temporal_consistency"] == rep.temporal_consistency
        assert doc["semantic_consistency"] == rep.semantic_consistency
        assert doc["num_queries"] == rep.num_queries == len(doc["per_query"])

    def test_report_table_mentions_metrics(self, trained):
        records, ckpt = trained
        rep = evaluate(records, ckpt, (0.5,))
        table = report_to_table(rep)
        assert "recall @ IoU>0.5" in table
        assert "temporal consistency" in table
        assert "semantic consistency" in table
        assert f"queries: {rep.num_queries}" in table


class TestCountPairs:
    def test_hand_counts(self):
        recs = [gt_record("a", [(0, 5), (5, 10)]), gt_record("b", [(0, 5), (5, 10), (10, 15)]),
                gt_record("c", [(0, 5)])]
        assert count_pairs(recs) == 1 + 3 + 0


@pytest.fixture(scope="module")
def ragged():
    """Paragraphs of 1, 2 and 5 sentences of 1 to 7 tokens, scored by an
    untrained checkpoint."""
    rng = np.random.default_rng(31)
    gts = [(0, 6), (4, 12), (10, 16), (2, 8), (8, 16)]
    records = []
    for vid, count in (("one", 1), ("two", 2), ("five", 5)):
        sentences = [(rng.normal(size=(int(rng.integers(1, 8)), 3)), gt) for gt in gts[:count]]
        records.append(make_record(rng.normal(size=(16, 4)), sentences, vid=vid))
    params = {k: v.astype(np.float32) for k, v in tiny_params(6, 4, 3, seed=32).items()}
    config = {"d": 6, "d_v": 4, "d_t": 3, "l_c": 16, "depth_self": 1, "depth_cross": 1,
              "window_sizes": list(TINY_GRID.window_sizes), "stride": TINY_GRID.stride,
              "max_concat_len": 6}
    return records, Checkpoint(params, config, 0, "", "", [])


class TestBatchedEval:
    """evaluate scores each video's sentences in one stacked forward and its
    concatenated pairs in forwards of at most as many pairs as the video
    has sentences; the results equal per-query localize."""

    def test_per_query_rows_equal_localize(self, ragged):
        records, ckpt = ragged
        rows = evaluate(records, ckpt, (0.5,)).per_query
        want = [list(localize(rec, sent, ckpt.params, TINY_GRID).seconds)
                for rec in records for sent in rec.paragraph]
        assert [row["predicted"] for row in rows] == want

    def test_semantic_equals_per_pair_loop(self, ragged):
        records, ckpt = ragged
        flags = [iou(localize(rec, concat_queries(a, b, 6), ckpt.params, TINY_GRID).seconds,
                     hull(a.gt_segment, b.gt_segment)) > 0.5
                 for rec in records for a, b in combinations(rec.paragraph, 2)]
        assert len(flags) == 11
        assert semantic_consistency(records, ckpt) == sum(flags) / len(flags)

    def test_forward_sizes_bounded_by_paragraph_length(self, ragged, monkeypatch):
        records, ckpt = ragged
        sizes = []
        real = network.match_pairs

        def spy(pairs, params, grid_config):
            sizes.append(len(pairs))
            return real(pairs, params, grid_config)

        monkeypatch.setattr(network, "match_pairs", spy)
        evaluate(records, ckpt, (0.5,))
        # sentences of each video, then the pairs of each multi-sentence one,
        # at most as many per forward as the video has sentences
        assert sizes == [1, 2, 5, 1, 5, 5]
