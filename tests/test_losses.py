import math
from collections import Counter

import numpy as np
import pytest

from helpers import make_record, run_partition_property, tiny_params, token_seq
from momentloc import (
    BatchItem,
    GridConfig,
    LossConfig,
    MomentlocError,
    NegativeSample,
    ProposalGrid,
    Segment,
    bce_loss,
    concat_queries,
    joint_probability,
    match,
    semantic_partition,
    smt_loss,
    temporal_partition,
    tmp_loss,
    total_loss,
    video_score,
)
from momentloc import autodiff as ad
from momentloc.losses import _best_consistent_pair
from momentloc.network import MatchScores

GRID = GridConfig((2, 4), 2)
TWO_GRID = GridConfig((8,), 8)  # two proposals (0,8), (8,16) at l_c=16


def two_prop_partition(p_pos, p_neg, j=0, j_prime=1):
    """Joint matrix whose P+ max is p_pos and P- max is p_neg."""
    grid = TWO_GRID.grid_for(16)
    if j < j_prime:
        joint = np.full((2, 2), p_neg)
        joint[0, 1] = p_pos
    else:
        joint = np.full((2, 2), p_pos)
        joint[0, 1] = p_neg
    return temporal_partition(joint, grid, j, j_prime)


class TestVideoScore:
    def test_picks_max(self):
        assert float(video_score(np.array([0.2, 0.9, 0.4]))) == 0.9

    def test_all_equal(self):
        assert float(video_score(np.full(5, 0.5))) == 0.5

    def test_random_vs_scan(self):
        v = np.random.default_rng(0).uniform(0.01, 0.99, size=17)
        assert float(video_score(v)) == max(float(x) for x in v)

    def test_stacked_rows_equal_each_row(self):
        scores = np.random.default_rng(1).uniform(0.01, 0.99, size=(4, 7))
        stacked = video_score(scores)
        assert stacked.shape == (4,)
        assert list(stacked.value) == [float(video_score(row)) for row in scores]

    def test_tie_gradient_goes_to_first_argmax(self):
        leaf = ad.parameter(np.array([[0.2, 0.9, 0.9], [0.5, 0.5, 0.1]]))
        ad.backward(ad.sum_all(video_score(leaf)))
        assert np.array_equal(leaf.grad, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        row = ad.parameter(np.array([0.3, 0.7, 0.7]))
        ad.backward(video_score(row))
        assert np.array_equal(row.grad, [0.0, 1.0, 0.0])


class TestBceLoss:
    def test_perfect_separation_vanishes(self):
        assert float(bce_loss(1 - 1e-9, 1e-9, 1e-9)) < 1e-6

    def test_all_half(self):
        assert float(bce_loss(0.5, 0.5, 0.5)) == pytest.approx(4 * math.log(2), abs=1e-9)

    def test_point_nine(self):
        assert float(bce_loss(0.9, 0.1, 0.1)) == pytest.approx(-4 * math.log(0.9), abs=1e-9)

    def test_saturated_inputs_stay_finite(self):
        for args in [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 1.0, 1.0)]:
            assert np.isfinite(float(bce_loss(*args)))


class TestJointProbability:
    def test_direct_product(self):
        assert float(joint_probability(np.array([0.8]), np.array([0.5])).value[0, 0]) == 0.4

    def test_zero_factor(self):
        out = joint_probability(np.array([0.0, 0.5]), np.array([0.7, 0.3])).value
        assert np.all(out[0] == 0.0)

    def test_three_by_three_vs_nested_loop(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(0.01, 0.99, 3), rng.uniform(0.01, 0.99, 3)
        got = joint_probability(a, b).value
        for k in range(3):
            for kp in range(3):
                assert got[k, kp] == pytest.approx(a[k] * b[kp], abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            joint_probability(np.array([0.5]), np.array([0.5, 0.5]))


class TestTemporalPartition:
    def test_forward_order_enumeration(self):
        part = two_prop_partition(0.9, 0.2, j=0, j_prime=1)
        assert {p for p, _ in part.positives} == {(0, 1)}
        assert {p for p, _ in part.negatives} == {(0, 0), (1, 1), (1, 0)}

    def test_reversed_order_is_complement(self):
        part = two_prop_partition(0.9, 0.2, j=1, j_prime=0)
        assert {p for p, _ in part.positives} == {(1, 0), (0, 0), (1, 1)}
        assert {p for p, _ in part.negatives} == {(0, 1)}

    def test_single_proposal_routes_diagonal_by_query_order(self):
        grid = GridConfig((8,), 8).grid_for(8)
        assert len(grid) == 1
        joint = np.array([[0.4]])
        ahead = temporal_partition(joint, grid, 1, 0)  # query_order 1 matches
        assert {p for p, _ in ahead.positives} == {(0, 0)} and not ahead.negatives
        behind = temporal_partition(joint, grid, 0, 1)
        assert not behind.positives and {p for p, _ in behind.negatives} == {(0, 0)}

    def test_same_position_rejected(self):
        grid = TWO_GRID.grid_for(16)
        with pytest.raises(ValueError):
            temporal_partition(np.full((2, 2), 0.5), grid, 1, 1)

    def test_wrong_shape_rejected(self):
        grid = TWO_GRID.grid_for(16)
        with pytest.raises(ValueError):
            temporal_partition(np.full((3, 3), 0.5), grid, 0, 1)

    def test_exhaustive_partition_property(self):
        assert run_partition_property(300, seed=4) == 300


class TestTmpLoss:
    def test_confident_separation_vanishes(self):
        part = two_prop_partition(1 - 1e-9, 1e-9)
        assert float(tmp_loss(part)) < 1e-6

    def test_hand_value(self):
        part = two_prop_partition(0.9, 0.2)
        want = -math.log(0.9) - math.log(0.8)
        assert float(tmp_loss(part)) == pytest.approx(want, abs=1e-9)

    def test_all_half(self):
        part = two_prop_partition(0.5, 0.5)
        assert float(tmp_loss(part)) == pytest.approx(2 * math.log(2), abs=1e-9)

    def test_empty_positive_set_rejected(self):
        grid = GridConfig((8,), 8).grid_for(8)
        part = temporal_partition(np.array([[0.4]]), grid, 0, 1)
        with pytest.raises(MomentlocError):
            tmp_loss(part)

    def test_empty_negative_set_drops_second_term(self):
        grid = GridConfig((8,), 8).grid_for(8)
        part = temporal_partition(np.array([[0.4]]), grid, 1, 0)
        assert float(tmp_loss(part)) == pytest.approx(-math.log(0.4), abs=1e-9)

    def test_monotone_in_both_maxima(self):
        base = float(tmp_loss(two_prop_partition(0.6, 0.3)))
        assert float(tmp_loss(two_prop_partition(0.7, 0.3))) < base
        assert float(tmp_loss(two_prop_partition(0.6, 0.4))) > base


class TestConcatQueries:
    def test_rows_in_order(self):
        qa = token_seq(np.arange(6.0).reshape(3, 2))
        qb = token_seq(np.arange(6.0, 14.0).reshape(4, 2))
        cq = concat_queries(qa, qb)
        assert cq.matrix.shape == (7, 2)
        assert np.array_equal(cq.matrix, np.vstack([qa.matrix, qb.matrix]))
        assert cq.raw_tokens == qa.raw_tokens + qb.raw_tokens

    def test_self_concat_doubles(self):
        qa = token_seq(np.ones((5, 3)))
        assert len(concat_queries(qa, qa)) == 10

    def test_cap_at_forty(self):
        qa = token_seq(np.ones((25, 2)))
        qb = token_seq(np.zeros((25, 2)))
        cq = concat_queries(qa, qb)
        assert cq.matrix.shape == (40, 2)
        assert np.all(cq.matrix[:25] == 1.0) and np.all(cq.matrix[25:] == 0.0)

    def test_custom_cap(self):
        qa = token_seq(np.ones((4, 2)))
        assert len(concat_queries(qa, qa, max_concat=6)) == 6


class TestSemanticPartition:
    def test_spec_iou_triple(self):
        # IoUs vs hull (0,5): 1.0, 0.6, and 0.3
        grid = ProposalGrid((Segment(0, 5), Segment(0, 3), Segment(2, 10)))
        scores = MatchScores(np.array([0.7, 0.6, 0.2]), grid)
        part = semantic_partition(scores, Segment(0, 5), 0.5)
        assert part.positive == (0, 0.7)
        assert [i for i, _ in part.negatives] == [2]
        assert [i for i, _ in part.excluded] == [1]

    def test_argmax_positive_kept_even_below_tau(self):
        grid = ProposalGrid((Segment(0, 2), Segment(8, 10)))
        scores = MatchScores(np.array([0.5, 0.5]), grid)
        part = semantic_partition(scores, Segment(0, 1), 0.9)
        assert part.positive[0] == 0
        assert [i for i, _ in part.negatives] == [1]
        assert not part.excluded


class TestBestConsistentPair:
    def test_picks_argmax_within_positives(self):
        grid = TWO_GRID.grid_for(16)
        joint = np.array([[0.9, 0.3], [0.1, 0.8]])
        part = temporal_partition(joint, grid, 0, 1)  # P+ = {(0,1)}
        seg_a, seg_b, pair = _best_consistent_pair(part, grid)
        assert (seg_a, seg_b) == (Segment(0, 8), Segment(8, 16))
        assert pair == (0, 1)

    def test_tie_prefers_earlier_starts(self):
        grid = GridConfig((2,), 2).grid_for(8)  # starts 0,2,4,6
        joint = np.full((4, 4), 0.5)
        part = temporal_partition(joint, grid, 0, 1)
        seg_a, seg_b, pair = _best_consistent_pair(part, grid)
        assert pair == (0, 1)
        assert (seg_a.start, seg_b.start) == (0, 2)

    def test_no_consistent_pair_rejected(self):
        grid = GridConfig((8,), 8).grid_for(8)
        part = temporal_partition(np.array([[0.4]]), grid, 0, 1)
        with pytest.raises(MomentlocError):
            _best_consistent_pair(part, grid)


def oracle_params():
    """Weights that score a proposal by its token-type overlap.

    Clips carry one-hot type features, the query carries [1, -5]; the
    classifier reads the elementwise product so an exact event window
    scores sigmoid(50) and anything touching background scores below
    sigmoid(-200).
    """
    params = tiny_params(2, 2, 2, depth_self=0, depth_cross=0)
    params["video_proj.w"] = np.eye(2)
    params["query_proj.w"] = np.eye(2)
    params["fusion.w"] = np.zeros((2, 4))
    params["proposal_attn.w_v"] = np.zeros((6, 6))
    params["proposal_attn.fc_w"] = np.eye(6)
    params["proposal_attn.fc_b"] = np.zeros(6)
    params["classifier.w"] = np.array([0.0, 0.0, 50.0, 50.0, 0.0, 0.0])
    params["classifier.b"] = np.zeros(())
    return params


def event_video():
    clips = np.zeros((8, 2))
    clips[:2, 0] = 1.0  # event occupies clips 0-1
    clips[2:, 1] = 1.0  # everything else is background
    return make_record(clips, [(np.array([1.0, -5.0]), None)], duration=8.0)


class TestSmtLoss:
    def test_confident_separation_vanishes(self):
        video = event_video()
        q = token_seq(np.array([1.0, -5.0]))
        pair = (Segment(0, 2), Segment(0, 2))
        loss = float(smt_loss(video, q, q, pair, oracle_params(), 0.5, GRID))
        assert loss < 1e-6

    def test_all_half_scores(self):
        params = tiny_params(2, 2, 2)
        params["classifier.w"] = np.zeros(6)
        params["classifier.b"] = np.zeros(())
        video = event_video()
        q = token_seq(np.array([1.0, -5.0]))
        pair = (Segment(0, 2), Segment(2, 4))  # hull (0,4) sits on the grid
        loss = float(smt_loss(video, q, q, pair, params, 0.5, GRID))
        assert loss == pytest.approx(2 * math.log(2), abs=1e-9)


def pair_video(vid, seed, l_c=8, d_v=2, d_t=2):
    rng = np.random.default_rng(seed)
    return make_record(rng.normal(size=(l_c, d_v)),
                       [(rng.normal(size=(2, d_t)), None), (rng.normal(size=(2, d_t)), None)],
                       vid=vid, duration=float(l_c))


def single_video(vid, seed, l_c=8, d_v=2, d_t=2):
    rng = np.random.default_rng(seed + 100)
    return make_record(rng.normal(size=(l_c, d_v)),
                       [(rng.normal(size=(3, d_t)), None)], vid=vid, duration=float(l_c))


def make_item(video, other):
    negs_a = NegativeSample(other, other.paragraph[0])
    item_kwargs = {}
    if len(video.paragraph) > 1:
        item_kwargs = dict(query_b=video.paragraph[1],
                           neg_b=NegativeSample(other, other.paragraph[-1]))
    return BatchItem(video, video.paragraph[0], negs_a, **item_kwargs)


def manual_components(item, params, cfg):
    """Recompute one item's loss terms through the public pieces."""
    queries = [(item.query_a, item.neg_a)]
    if item.query_b is not None:
        queries.append((item.query_b, item.neg_b))
    bce_terms = []
    for q, negs in queries:
        p_pos = video_score(match(item.video, q, params, cfg.grid))
        p_neg_v = video_score(match(negs.neg_video, q, params, cfg.grid))
        p_neg_q = video_score(match(item.video, negs.neg_query, params, cfg.grid))
        bce_terms.append(float(bce_loss(p_pos, p_neg_q, p_neg_v)))
    if item.query_b is None:
        return bce_terms, None, None
    ms_a = match(item.video, item.query_a, params, cfg.grid)
    ms_b = match(item.video, item.query_b, params, cfg.grid)
    joint = joint_probability(ms_a, ms_b)
    part = temporal_partition(joint, ms_a.grid, item.query_a.position,
                              item.query_b.position)
    tmp = float(tmp_loss(part))
    seg_a, seg_b, _ = _best_consistent_pair(part, ms_a.grid)
    smt = float(smt_loss(item.video, item.query_a, item.query_b, (seg_a, seg_b),
                         params, cfg.tau, cfg.grid, cfg.max_concat_len))
    return bce_terms, tmp, smt


class TestTotalLoss:
    CFG = LossConfig(grid=GRID)

    def test_total_is_sum_of_component_means(self):
        params = tiny_params(3, 2, 2, seed=31)
        item = make_item(pair_video("a", 1), pair_video("b", 2))
        out = total_loss([item], params, self.CFG)
        bce_terms, tmp, smt = manual_components(item, params, self.CFG)
        assert out.bce == pytest.approx(np.mean(bce_terms), abs=1e-12)
        assert out.tmp == pytest.approx(tmp, abs=1e-12)
        assert out.smt == pytest.approx(smt, abs=1e-12)
        assert float(out) == pytest.approx(out.bce + out.tmp + out.smt, abs=1e-12)

    def test_two_items_average_single_item_losses(self):
        params = tiny_params(3, 2, 2, seed=32)
        va, vb = pair_video("a", 3), pair_video("b", 4)
        items = [make_item(va, vb), make_item(vb, va)]
        both = total_loss(items, params, self.CFG)
        solo = [total_loss([it], params, self.CFG) for it in items]
        assert float(both) == pytest.approx((float(solo[0]) + float(solo[1])) / 2, abs=1e-12)
        assert both.tmp == pytest.approx((solo[0].tmp + solo[1].tmp) / 2, abs=1e-12)

    def test_single_sentence_video_contributes_bce_only(self):
        params = tiny_params(3, 2, 2, seed=33)
        item = make_item(single_video("s", 5), pair_video("b", 6))
        out = total_loss([item], params, self.CFG)
        bce_terms, _, _ = manual_components(item, params, self.CFG)
        assert len(bce_terms) == 1
        assert float(out) == pytest.approx(bce_terms[0], abs=1e-12)
        assert out.tmp == 0.0 and out.smt == 0.0
        assert out.order_consistent_fraction is None

    def test_mixed_batch_means_count_contributors(self):
        params = tiny_params(3, 2, 2, seed=34)
        pv, sv = pair_video("p", 7), single_video("s", 8)
        items = [make_item(pv, sv), make_item(sv, pv)]
        out = total_loss(items, params, self.CFG)
        pair_bce, tmp, smt = manual_components(items[0], params, self.CFG)
        solo_bce, _, _ = manual_components(items[1], params, self.CFG)
        assert out.bce == pytest.approx(np.mean(pair_bce + solo_bce), abs=1e-12)
        assert out.tmp == pytest.approx(tmp, abs=1e-12)
        assert out.smt == pytest.approx(smt, abs=1e-12)

    def test_switches_disable_components(self):
        params = tiny_params(3, 2, 2, seed=35)
        item = make_item(pair_video("a", 9), pair_video("b", 10))
        cfg = LossConfig(grid=GRID, use_bce=True, use_tmp=False, use_smt=False)
        out = total_loss([item], params, cfg)
        assert out.tmp == 0.0 and out.smt == 0.0
        assert float(out) == pytest.approx(out.bce, abs=1e-12)
        off = LossConfig(grid=GRID, use_bce=False, use_tmp=False, use_smt=False)
        assert float(total_loss([item], params, off)) == 0.0

    def test_order_fraction_reports_joint_argmax(self):
        params = tiny_params(3, 2, 2, seed=36)
        item = make_item(pair_video("a", 11), pair_video("b", 12))
        out = total_loss([item], params, self.CFG)
        ms_a = match(item.video, item.query_a, params, GRID)
        ms_b = match(item.video, item.query_b, params, GRID)
        joint = joint_probability(ms_a, ms_b)
        part = temporal_partition(joint, ms_a.grid, 0, 1)
        flag = bool(part.consistent_mask.flat[int(part.joint.argmax())])
        assert out.order_consistent_fraction == (1.0 if flag else 0.0)

    def test_one_stacked_forward_per_batch(self):
        """The tape is sized by layers: more items add no nodes, and each
        video is pooled into proposals once, by one segment_max node."""
        params = tiny_params(3, 2, 2, seed=37)
        videos = [pair_video(v, 13 + i) for i, v in enumerate("abcdef")]
        counts = []
        for n in (2, 6):
            items = [make_item(videos[i], videos[(i + 1) % n]) for i in range(n)]
            nodes, stack = {}, [total_loss(items, params, self.CFG).total]
            while stack:
                node = stack.pop()
                if id(node) not in nodes:
                    nodes[id(node)] = node
                    stack.extend(node.parents)
            counts.append(Counter(node._backward.__qualname__.split(".")[0]
                                  for node in nodes.values() if node._backward is not None))
        assert counts[0] == counts[1]
        assert counts[0]["segment_max"] == 1

    def test_empty_batch_rejected(self):
        with pytest.raises(MomentlocError):
            total_loss([], tiny_params(2, 2, 2), self.CFG)
