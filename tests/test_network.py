import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import make_record, scalar_attention_oracle, token_seq
import momentloc
from momentloc import (
    DataError,
    GridConfig,
    attention_unit,
    clips_to_seconds,
    encode,
    init_params,
    lift,
    localize,
    localize_pairs,
    match,
    match_pairs,
)
from momentloc import autodiff as ad
from momentloc.losses import concat_queries

GRID = GridConfig((2, 4), 2)


def rand_attention(rng, dim) -> dict:
    return dict(
        w_q=rng.normal(size=(dim, dim)),
        w_k=rng.normal(size=(dim, dim)),
        w_v=rng.normal(size=(dim, dim)),
        fc_w=rng.normal(size=(dim, dim)),
        fc_b=rng.normal(size=dim),
    )


def unit(params, prefix) -> dict:
    """The five tensors of one attention unit, keyed w_q ... fc_b."""
    return {k: params[f"{prefix}.{k}"] for k in ("w_q", "w_k", "w_v", "fc_w", "fc_b")}


def stack(params, name) -> list:
    """The attention units ``name.0``, ``name.1``, ... of one stack."""
    depth = sum(1 for k in params if k.startswith(f"{name}.") and k.endswith(".w_q"))
    return [unit(params, f"{name}.{i}") for i in range(depth)]


def rig(d=4, d_v=3, d_t=2, l_c=8, l_w=3, valid=None, seed=0, **depths):
    """A seeded (video, query, params) triple on the small test grid."""
    rng = np.random.default_rng(seed)
    clip_m = rng.normal(size=(l_c, d_v))
    if valid is not None:
        clip_m[valid:] = 0.0
    video = make_record(clip_m, [(np.ones(d_t), None)], valid=valid, duration=float(l_c))
    query = token_seq(rng.normal(size=(l_w, d_t)))
    params = init_params(d, d_v, d_t, depths.get("depth_self", 1),
                         depths.get("depth_cross", 1), rng)
    return video, query, params


def _unit_names(prefix, dim):
    return [(f"{prefix}.{k}", (dim,) if k == "fc_b" else (dim, dim))
            for k in ("w_q", "w_k", "w_v", "fc_w", "fc_b")]


class TestInitParams:
    def test_names_shapes_order_and_values_pinned(self):
        params = init_params(4, 3, 2, 2, 1, np.random.default_rng(0))
        want = [("video_proj.w", (4, 3)), ("video_proj.b", (4,)),
                ("query_proj.w", (4, 2)), ("query_proj.b", (4,))]
        for prefix in ("v2v.0", "v2v.1", "q2q.0", "q2q.1", "q2v.0", "v2q.0"):
            want += _unit_names(prefix, 4)
        want += [("fusion.w", (4, 8)), ("fusion.b", (4,))]
        want += _unit_names("proposal_attn", 12)
        want += [("classifier.w", (12,)), ("classifier.b", ())]
        assert [(name, arr.shape) for name, arr in params.items()] == want
        digest = hashlib.sha256()
        for arr in params.values():
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        # captured from the seeded draws before parameters became one mapping
        assert digest.hexdigest() == (
            "34e5a8f76b201442290f73de4b2552f19530262c237780c4d8ebd2ba1b330bf6")


class TestAttentionUnit:
    def test_matches_scalar_oracle(self):
        for case in range(50):
            rng = np.random.default_rng(1000 + case)
            dim = int(rng.integers(1, 7))
            lt = int(rng.integers(1, 7))
            lr = int(rng.integers(1, 7))
            params = rand_attention(rng, dim)
            target = rng.normal(size=(lt, dim))
            reference = rng.normal(size=(lr, dim))
            mask = None
            if case % 2:
                mask = rng.random(lr) < 0.7
                mask[int(rng.integers(lr))] = True  # keep one attendee
            got = attention_unit(target, reference, params, mask)
            want_out, want_w = scalar_attention_oracle(target, reference, params, mask)
            assert np.allclose(got.output, want_out, atol=1e-6)
            assert np.allclose(got.weights, want_w, atol=1e-6)
            assert np.all(np.abs(got.weights.sum(axis=1) - 1.0) <= 1e-6)
            if mask is not None:
                assert np.all(got.weights[:, ~mask] == 0.0)

    def test_zero_query_weights_average_references(self):
        dim = 3
        params = dict(w_q=np.zeros((dim, dim)), w_k=np.eye(dim), w_v=np.eye(dim),
                      fc_w=np.eye(dim), fc_b=np.zeros(dim))
        target = np.array([[1.0, 2.0, 3.0]])
        reference = np.array([[4.0, 0.0, 0.0], [0.0, 6.0, 0.0]])
        got = attention_unit(target, reference, params)
        assert np.allclose(got.weights, [[0.5, 0.5]])
        assert np.allclose(got.output, target + reference.mean(axis=0))

    def test_single_attendee(self):
        rng = np.random.default_rng(3)
        params = rand_attention(rng, 4)
        target = rng.normal(size=(5, 4))
        reference = rng.normal(size=(1, 4))
        got = attention_unit(target, reference, params)
        assert np.array_equal(got.weights, np.ones((5, 1)))
        want = (target + reference @ params["w_v"].T) @ params["fc_w"].T + params["fc_b"]
        assert np.allclose(got.output, want, atol=1e-9)

    def test_output_shape_matches_target(self):
        rng = np.random.default_rng(4)
        params = rand_attention(rng, 2)
        got = attention_unit(rng.normal(size=(7, 2)), rng.normal(size=(3, 2)), params)
        assert got.output.shape == (7, 2)
        assert got.weights.shape == (7, 3)

    def test_all_masked_rejected(self):
        rng = np.random.default_rng(5)
        params = rand_attention(rng, 2)
        with pytest.raises(ValueError):
            attention_unit(rng.normal(size=(2, 2)), rng.normal(size=(3, 2)),
                           params, np.zeros(3, dtype=bool))

    def test_bad_widths_rejected(self):
        rng = np.random.default_rng(6)
        params = rand_attention(rng, 3)
        with pytest.raises(ValueError):
            attention_unit(rng.normal(size=(2, 4)), rng.normal(size=(2, 3)), params)
        with pytest.raises(ValueError):
            attention_unit(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)),
                           params, np.ones(5, dtype=bool))


def numpy_encode(video, query, params, grid):
    """Encoder recomposed from the individually tested pieces."""
    clips = video.clips
    mask = None
    if clips.valid_count < clips.l_c:
        mask = np.arange(clips.l_c) < clips.valid_count
    v = clips.matrix @ params["video_proj.w"].T + params["video_proj.b"]
    for u in stack(params, "v2v"):
        v = attention_unit(v, v, u, mask).output
    q = query.matrix @ params["query_proj.w"].T + params["query_proj.b"]
    for u in stack(params, "q2q"):
        q = attention_unit(q, q, u).output
    props = np.stack([v[s.start:s.end].max(axis=0) for s in grid.segments])
    for qv, vq in zip(stack(params, "q2v"), stack(params, "v2q")):
        props, q = attention_unit(props, q, qv).output, attention_unit(q, props, vq).output
    return props, q


def numpy_match(video, query, params, grid_config, pool=lambda q: q.max(axis=0),
                attend=lambda f, u: attention_unit(f, f, u).output):
    """Match scores recomposed from numpy pieces: ``pool`` turns the word
    rows into the sentence vector, ``attend`` self-attends the fused rows."""
    grid = grid_config.grid_for(video.clips.l_c)
    props, q = numpy_encode(video, query, params, grid)
    sent = pool(q)
    fused = np.hstack([
        props + sent,
        props * sent,
        np.hstack([props, np.tile(sent, (len(props), 1))]) @ params["fusion.w"].T
        + params["fusion.b"],
    ])
    att = attend(fused, unit(params, "proposal_attn"))
    return 1.0 / (1.0 + np.exp(-(att @ params["classifier.w"] + params["classifier.b"])))


class TestEncode:
    def test_shapes(self):
        video, query, params = rig()
        props, words = encode(video, query, params, GRID)
        assert props.shape == (len(GRID.grid_for(8)), 4)
        assert words.shape == (3, 4)

    def test_depth_zero_is_pooled_projection(self):
        video, query, params = rig(depth_self=0, depth_cross=0)
        props, words = encode(video, query, params, GRID)
        v = video.clips.matrix @ params["video_proj.w"].T + params["video_proj.b"]
        grid = GRID.grid_for(8)
        want = np.stack([v[s.start:s.end].max(axis=0) for s in grid.segments])
        assert np.array_equal(props, want)
        assert np.array_equal(words, query.matrix @ params["query_proj.w"].T + params["query_proj.b"])

    def test_depth_one_composes_unit_ops(self):
        video, query, params = rig(seed=11)
        props, words = encode(video, query, params, GRID)
        want_p, want_q = numpy_encode(video, query, params, GRID.grid_for(8))
        assert np.allclose(props, want_p, atol=1e-9)
        assert np.allclose(words, want_q, atol=1e-9)

    def test_padded_video_masks_clips(self):
        video, query, params = rig(valid=5, seed=12)
        props, _ = encode(video, query, params, GRID)
        want_p, _ = numpy_encode(video, query, params, GRID.grid_for(8))
        assert np.allclose(props, want_p, atol=1e-9)


class TestPoolSentence:
    """The sentence vector inside match: the column-wise max over a query's
    own word rows, never over the padding of a stacked forward."""

    def test_single_row(self):
        video, query, params = rig(l_w=1, seed=7)
        want = numpy_match(video, query, params, GRID, pool=lambda q: q[0])
        assert np.allclose(match(video, query, params, GRID).scores, want, rtol=0, atol=1e-12)

    def test_equal_rows(self):
        video, query, params = rig(l_w=1, seed=8, depth_self=0, depth_cross=0)
        four = token_seq(np.tile(query.matrix, (4, 1)))
        assert np.allclose(match(video, four, params, GRID).scores,
                           match(video, query, params, GRID).scores, rtol=0, atol=1e-12)

    def test_random_vs_direct_scan(self):
        video, _, params = rig(d_t=4, seed=9, depth_self=0, depth_cross=0)
        # Word rows whose projections are all negative: the zero-bias
        # projection of a padding row (zeros) would win an unmasked max.
        targets = -np.random.default_rng(9).uniform(1, 2, size=(2, 4))
        query = token_seq(np.linalg.solve(params["query_proj.w"], targets.T).T)
        longer = token_seq(np.random.default_rng(10).normal(size=(6, 4)))

        def scan(q):
            return [max(q[i][j] for i in range(len(q))) for j in range(q.shape[1])]

        want = numpy_match(video, query, params, GRID, pool=scan)
        got = match_pairs([(video, longer), (video, query)], params, GRID).scores[1]
        assert np.allclose(got, want, rtol=0, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            token_seq(np.zeros((0, 2)))


class TestScoreProposals:
    """The proposal attention and sigmoid classifier at the end of match."""

    def test_zero_classifier_scores_half(self):
        video, query, params = rig(seed=11)
        params["classifier.w"] = np.zeros(12)
        params["classifier.b"] = np.zeros(())
        ms = match(video, query, params, GRID)
        assert np.array_equal(ms.scores, np.full(len(ms.grid), 0.5))

    def test_large_bias_saturates(self):
        video, query, params = rig(seed=12)
        params["classifier.w"] = np.zeros(12)
        params["classifier.b"] = np.array(25.0)
        assert np.all(np.abs(match(video, query, params, GRID).scores - 1.0) <= 1e-10)

    def test_three_proposal_scalar_oracle(self):
        video, query, params = rig(seed=13)
        grid = GridConfig((4,), 2)
        assert len(grid.grid_for(8)) == 3
        want = numpy_match(video, query, params, grid,
                           attend=lambda f, u: scalar_attention_oracle(f, f, u)[0])
        assert np.allclose(match(video, query, params, grid).scores, want, atol=1e-9)

    def test_scores_strictly_inside_unit_interval(self):
        video, query, params = rig(seed=14)
        big = make_record(video.clips.matrix * 30, [(np.ones(2), None)], duration=8.0)
        scores = match(big, query, params, GRID).scores
        assert np.all(scores > 0.0) and np.all(scores < 1.0)


class TestMatch:
    def test_composes_unit_ops(self):
        video, query, params = rig(seed=15)
        ms = match(video, query, params, GRID)
        assert np.allclose(ms.scores, numpy_match(video, query, params, GRID), atol=1e-9)

    def test_padded_video_composes_too(self):
        video, query, params = rig(valid=6, seed=16)
        ms = match(video, query, params, GRID)
        assert np.allclose(ms.scores, numpy_match(video, query, params, GRID), atol=1e-9)

    def test_shape_and_range(self):
        video, query, params = rig(seed=17)
        ms = match(video, query, params, GRID)
        assert ms.scores.shape == (len(GRID.grid_for(8)),)
        assert np.all((ms.scores > 0) & (ms.scores < 1))

    def test_pure_function(self):
        video, query, params = rig(seed=18)
        a = match(video, query, params, GRID).scores
        b = match(video, query, params, GRID).scores
        assert np.array_equal(a, b)


class TestMatchPairs:
    def test_rows_equal_single_pair_match(self):
        rng = np.random.default_rng(23)
        full, _, params = rig(d=4, d_v=3, d_t=2, seed=23)
        padded, _, _ = rig(d=4, d_v=3, d_t=2, valid=5, seed=24)
        one, five = token_seq(rng.normal(size=(1, 2))), token_seq(rng.normal(size=(5, 2)))
        cut = concat_queries(five, five, max_concat=7)  # 10 rows cut to 7
        assert padded.clips.valid_count < padded.clips.l_c and len(cut) == 7
        pairs = [(full, one), (full, five), (padded, one), (padded, cut), (full, cut),
                 (full, one)]
        stacked = match_pairs(pairs, params, GRID)
        assert stacked.scores.shape == (len(pairs), len(GRID.grid_for(8)))
        for row, (video, query) in zip(stacked.scores, pairs):
            assert np.allclose(row, match(video, query, params, GRID).scores, rtol=0, atol=1e-12)
        # The gradient of the summed rows is the sum of the single-pair gradients.
        lifted = lift(params)
        ad.backward(ad.sum_all(match_pairs(pairs, lifted, GRID).tensor))
        want = {name: np.zeros_like(arr) for name, arr in params.items()}
        for video, query in pairs:
            single = lift(params)
            ad.backward(ad.sum_all(match(video, query, single, GRID).tensor))
            for name, leaf in single.leaves.items():
                want[name] += leaf.grad
        for name, leaf in lifted.leaves.items():
            assert np.allclose(leaf.grad, want[name], rtol=0, atol=1e-12), name

    def test_one_grid_per_stack(self):
        short, query, params = rig(l_c=8, seed=25)
        long, _, _ = rig(l_c=12, seed=26)
        with pytest.raises(DataError):
            match_pairs([(short, query), (long, query)], params, GRID)


def draw_head_biases(params, rng):
    """Nonzero fusion.b, proposal_attn.fc_b and classifier.b (init zeroes
    them), so that each reaches the head's products and the scores."""
    for name in ("fusion.b", "proposal_attn.fc_b", "classifier.b"):
        params[name] = rng.normal(size=params[name].shape)


def head_rig(d, seed):
    """Six stacked pairs (a full and a padded video, queries of 1, 3 and 6
    words) and parameters with nonzero head biases."""
    rng = np.random.default_rng(seed)
    full, _, params = rig(d=d, seed=seed)
    padded, _, _ = rig(d=d, valid=5, seed=seed + 1)
    queries = [token_seq(rng.normal(size=(n, 2))) for n in (1, 3, 6)]
    draw_head_biases(params, rng)
    return [(video, q) for video in (full, padded) for q in queries], params


class TestFusedRowsOracle:
    """match_pairs scores the 2d-wide rows [S, S*Q] and never builds the
    fused rows; numpy_match builds them as the paper does, (S+Q) || S*Q ||
    FC(S||Q) third by third (3d wide), and self-attends them."""

    @pytest.mark.parametrize("d", [4, 16])
    def test_stacked_ragged_pairs_float64(self, d):
        pairs, params = head_rig(d, 35)
        got = match_pairs(pairs, params, GRID).scores
        want = np.stack([numpy_match(video, query, params, GRID) for video, query in pairs])
        assert np.allclose(got, want, rtol=0, atol=1e-9)

    def test_stacked_ragged_pairs_float32(self):
        pairs, params = head_rig(16, 36)
        got = match_pairs(pairs, {k: a.astype(np.float32) for k, a in params.items()}, GRID)
        want = np.stack([numpy_match(video, query, params, GRID) for video, query in pairs])
        # The largest difference measured over seeds 36-45 was 7.7e-8, under
        # one float32 epsilon (1.2e-7); the bound leaves a factor of about 4.
        assert got.scores.dtype == np.float32
        assert np.abs(got.scores - want).max() <= 3e-7

    def test_zero_proposals_and_sentence_score_the_biases(self):
        # S = 0 makes Z = 0: every fused row is [0, 0, b_f], and each score
        # is the classifier of that row alone.
        video, query, params = rig(d=3, d_v=3, d_t=2, seed=37, depth_self=0, depth_cross=0)
        rng = np.random.default_rng(37)
        draw_head_biases(params, rng)
        params["video_proj.w"][:] = 0.0
        params["query_proj.w"][:] = 0.0
        row = np.concatenate([np.zeros(6), params["fusion.b"]])
        out = (row + row @ params["proposal_attn.w_v"].T) @ params["proposal_attn.fc_w"].T
        want = 1.0 / (1.0 + np.exp(-((out + params["proposal_attn.fc_b"])
                                     @ params["classifier.w"] + params["classifier.b"])))
        scores = match(video, query, params, GRID).scores
        assert np.allclose(scores, np.full(len(scores), want), rtol=0, atol=1e-12)


class TestLocalize:
    def test_unique_argmax(self):
        video, query, params = rig(seed=19)
        ms = match(video, query, params, GRID)
        assert len(np.flatnonzero(ms.scores == ms.scores.max())) == 1
        got = localize(video, query, params, GRID)
        idx = int(np.argmax(ms.scores))
        assert got.proposal_index == idx
        assert got.segment == ms.grid.segments[idx]
        assert got.score == pytest.approx(ms.scores[idx])
        assert got.seconds == clips_to_seconds(got.segment, video.duration, 8)

    def test_all_tied_picks_earliest_shortest(self):
        video, query, params = rig(seed=20)
        params["classifier.w"] = np.zeros(12)
        params["classifier.b"] = np.zeros(())
        got = localize(video, query, params, GRID)
        grid = GRID.grid_for(8)
        starts_lengths = [(s.start, s.end - s.start) for s in grid.segments]
        assert (got.segment.start, got.segment.end - got.segment.start) == min(starts_lengths)
        assert got.score == 0.5

    def test_non_finite_scores_name_the_video(self):
        video, query, params = rig(seed=19)
        video.clips.matrix[:] = 1e300  # finite, but the forward overflows
        with np.errstate(all="ignore"), pytest.raises(DataError, match="v0: non-finite"):
            localize(video, query, params, GRID)

    def test_pairs_break_ties_like_localize(self):
        video, _, params = rig(seed=20)
        params["classifier.w"] = np.zeros(12)
        rng = np.random.default_rng(27)
        queries = [token_seq(rng.normal(size=(n, 2))) for n in (1, 3, 6)]
        found = localize_pairs([(video, q) for q in queries], params, GRID)
        assert len(found) == len(queries)
        for got, query in zip(found, queries):
            assert got == localize(video, query, params, GRID)
        assert localize_pairs([], params, GRID) == []


class TestGradients:
    def test_mean_score_matches_finite_differences(self):
        video, query, params = rig(d=8, d_v=3, d_t=2, seed=21)
        lifted = lift(params)
        ms = match(video, query, lifted, GRID)
        n = ms.scores.shape[0]
        root = ad.pick(ad.matvec(ad.reshape(ms.tensor, (1, n)), ad.constant(np.full(n, 1.0 / n))), 0)
        ad.backward(root)

        def mean_score():
            return float(match(video, query, params, GRID).scores.mean())

        rng = np.random.default_rng(22)
        step = 1e-4
        for name, leaf in lifted.leaves.items():
            arr = params.named_arrays()[name]
            flat = arr.reshape(-1)
            for k in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                old = flat[k]
                flat[k] = old + step
                up = mean_score()
                flat[k] = old - step
                down = mean_score()
                flat[k] = old
                numeric = (up - down) / (2 * step)
                analytic = leaf.grad.reshape(-1)[k]
                denom = max(abs(numeric), abs(analytic), 1e-4)
                assert abs(numeric - analytic) / denom < 1e-3, name

    @pytest.mark.parametrize("name", [
        "proposal_attn.w_q", "proposal_attn.w_k", "q2v.0.w_k", "fusion.w", "fusion.b",
        "proposal_attn.w_v", "proposal_attn.fc_w", "proposal_attn.fc_b", "classifier.w"])
    def test_query_key_fold_reaches_both_factors(self, name):
        # qk = W_q^T W_k is one node per parameter set, shared by every pair
        # of the forward; its backward must reach W_q and W_k. The head's
        # fold (B, E, e, K u, K v, rho, beta) is one node each as well, and
        # must reach every tensor it is made of. Larger query and key weights
        # keep the attention away from uniform, and so its gradients well
        # above the differences' rounding; nonzero biases bring b_f into e.
        video, query, params = rig(d=8, seed=29)
        for key in [k for k in params if k.endswith((".w_q", ".w_k"))]:
            params[key] *= 8.0
        rng = np.random.default_rng(30)
        draw_head_biases(params, rng)
        pairs = [(video, query), (video, token_seq(rng.normal(size=(5, 2))))]
        weights = rng.normal(size=(len(pairs), len(GRID.grid_for(8))))

        def objective(p):
            return ad.sum_all(ad.mul(match_pairs(pairs, p, GRID).tensor, weights))

        lifted = lift(params)
        ad.backward(objective(lift(lifted)))
        flat, step = params[name].reshape(-1), 1e-5
        for k in rng.choice(flat.size, size=8, replace=False):
            old = flat[k]
            flat[k] = old + step
            up = float(objective(params))
            flat[k] = old - step
            down = float(objective(params))
            flat[k] = old
            numeric = (up - down) / (2 * step)
            analytic = lifted[name].grad.reshape(-1)[k]
            assert abs(numeric - analytic) <= 1e-5 * max(abs(numeric), abs(analytic), 1e-5), k


class TestPrepare:
    def test_idempotent(self):
        prepared = lift(rig(seed=31)[2])
        assert lift(prepared) is prepared

    def test_products_of_parameters(self):
        params = rig(seed=32)[2]
        lifted = lift(params)
        prepared = lift(lifted)
        assert all(prepared[name] is leaf for name, leaf in lifted.items())
        for prefix in ("v2v.0", "q2q.0", "q2v.0", "v2q.0"):
            want = params[f"{prefix}.w_q"].T @ params[f"{prefix}.w_k"]
            assert np.array_equal(prepared[f"{prefix}.qk"].value, want), prefix
        assert "proposal_attn.qk" not in prepared
        # The head's products from the dense K = [[I, 0, W_s^T], [0, I, 0]]
        # and R = [I; 0; W_t] of F = Z K + 1 r^T, r = R q + [0, 0, b_f].
        rng = np.random.default_rng(32)
        draw_head_biases(params, rng)
        p = lift(params)
        d = params["fusion.b"].shape[0]
        eye, zero = np.eye(d), np.zeros((d, d))
        w_s, w_t = params["fusion.w"][:, :d], params["fusion.w"][:, d:]
        k = np.block([[eye, zero, w_s.T], [zero, eye, zero]])
        r_q, r_0 = np.vstack([eye, zero, w_t]), np.concatenate([np.zeros(2 * d), params["fusion.b"]])
        qk = params["proposal_attn.w_q"].T @ params["proposal_attn.w_k"]
        u = params["proposal_attn.fc_w"].T @ params["classifier.w"]
        v = params["proposal_attn.w_v"].T @ u
        bias = params["proposal_attn.fc_b"] @ params["classifier.w"] + params["classifier.b"]
        want = {"head.B": k @ qk @ k.T, "head.E": k @ qk.T @ r_q, "head.e": k @ qk.T @ r_0,
                "head.Ku": k @ u, "head.Kv": k @ v, "head.rho": r_q.T @ (u + v),
                "head.beta": r_0 @ (u + v) + bias}
        for name, value in want.items():
            assert p[name].shape == value.shape, name
            assert np.allclose(p[name].value, value, rtol=0, atol=1e-12), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_prepared_scores_equal_raw(self, dtype):
        video, query, params = rig(seed=33)
        other = token_seq(np.random.default_rng(34).normal(size=(4, 2)))
        raw = {name: arr.astype(dtype) for name, arr in params.items()}
        pairs = [(video, query), (video, other)]
        want = match_pairs(pairs, raw, GRID).scores
        assert want.dtype == dtype
        assert np.array_equal(match_pairs(pairs, lift(raw), GRID).scores, want)
        # The tape computes in the parameters' dtype: float32 scores are the
        # float64 ones up to float32 rounding.
        cast = {name: arr.astype(np.float64) for name, arr in raw.items()}
        assert np.allclose(match_pairs(pairs, cast, GRID).scores, want, rtol=0, atol=1e-6)


# A paper-width forward (d = 256, l_c = 128, the default grid): 4 videos of 3
# sentences in one stacked forward, 804 scores, with the parameters cast to
# the dtype named by the first argument; prints the scores' sha256.
_PAPER_SCORES = """
import hashlib
import sys
import numpy as np
import momentloc as ml
corpus = ml.generate_corpus(ml.SynthConfig(num_videos=4, l_c=128, events_min=3,
                                           event_lengths=(8, 12, 20, 32), seed=7))
rec = corpus.records[0]
params = ml.init_params(256, rec.clips.matrix.shape[1], rec.paragraph[0].tokens.matrix.shape[1],
                        1, 1, np.random.default_rng(0))
params = {name: arr.astype(sys.argv[1]) for name, arr in params.items()}
pairs = [(r, s) for r in corpus.records for s in r.paragraph]
scores = ml.match_pairs(pairs, params, ml.GridConfig()).scores
assert scores.shape == (12, 67) and scores.dtype == sys.argv[1], (scores.shape, scores.dtype)
print(hashlib.sha256(scores.tobytes()).hexdigest())
"""


def test_forward_independent_of_blas_threads():
    """The same forward in processes with 1 and 2 BLAS threads gives the
    same bytes, in float64 (the gradient check's dtype) and in float32
    (training's and eval's, whose GEMMs are other BLAS routines); the
    folded qk adds a transposed GEMM to every forward."""
    for dtype in ("float64", "float32"):
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(momentloc.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", _PAPER_SCORES, dtype], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1], dtype
