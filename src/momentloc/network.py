"""Proposal-based video-sentence matching network.

Both modalities are projected into a shared D-dimensional space, refined by
self-attention (padded clips masked out as references), pooled into
sliding-window proposal features, exchanged through cross-attention, fused
per proposal with the max-pooled sentence vector, passed through one more
self-attention unit over the fused rows, and scored by a sigmoid linear
classifier. The forward pass is built on the autodiff tape so the same code
serves evaluation and training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError
from .segments import GridConfig, ProposalGrid, Segment, clips_to_seconds


_ATTENTION_KEYS = ("w_q", "w_k", "w_v", "fc_w", "fc_b")


def _param_table(d, d_v, d_t, depth_self, depth_cross) -> list:
    """(name, shape) of every parameter tensor, in the seeded init draw order.

    The names are the checkpoint tensor names; ``{stack}.{i}.{key}`` and
    ``proposal_attn.{key}`` are attention units (width d, and 3d over the
    fused rows).
    """
    def unit(prefix, dim):
        return [(f"{prefix}.{k}", (dim,) if k == "fc_b" else (dim, dim)) for k in _ATTENTION_KEYS]

    table = [("video_proj.w", (d, d_v)), ("video_proj.b", (d,)),
             ("query_proj.w", (d, d_t)), ("query_proj.b", (d,))]
    for stack, depth in (("v2v", depth_self), ("q2q", depth_self),
                         ("q2v", depth_cross), ("v2q", depth_cross)):
        for i in range(depth):
            table += unit(f"{stack}.{i}", d)
    table += [("fusion.w", (d, 2 * d)), ("fusion.b", (d,))]
    table += unit("proposal_attn", 3 * d)
    return table + [("classifier.w", (3 * d,)), ("classifier.b", ())]


class ModelParams(dict):
    """Parameter name -> array (or autodiff leaf, after ``lift``).

    Keys are the checkpoint tensor names, in init draw order.
    """

    def named_arrays(self) -> dict:
        return self

    @property
    def leaves(self) -> dict:
        return self


def init_params(d: int, d_v: int, d_t: int, depth_self: int, depth_cross: int, rng) -> ModelParams:
    """Fresh parameters: weights uniform in +-sqrt(1/fan_in), zero biases.

    Draws follow the table order (projections, v2v, q2q, q2v, v2q, fusion,
    proposal attention, classifier) so a seeded generator reproduces the
    same model.
    """
    params = ModelParams()
    for name, shape in _param_table(d, d_v, d_t, depth_self, depth_cross):
        if name.endswith("b"):  # the biases: *.b and *.fc_b
            params[name] = np.zeros(shape)
        else:
            bound = np.sqrt(1.0 / shape[-1])
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def params_from_named(named: dict, d: int, depth_self: int, depth_cross: int) -> ModelParams:
    """Pick every tensor of a (d, depth_self, depth_cross) model out of ``named``."""
    try:
        return ModelParams((name, named[name]) for name, _ in
                           _param_table(d, None, None, depth_self, depth_cross))
    except KeyError as exc:
        raise DataError(f"parameter tensor {exc.args[0]!r} missing") from None


def lift(params) -> ModelParams:
    """Gradient leaves for one backward pass, under the same names."""
    return ModelParams({name: ad.parameter(arr) for name, arr in params.items()})


def _unit(p, prefix: str) -> dict:
    return {k: p[f"{prefix}.{k}"] for k in _ATTENTION_KEYS}


def _stack(p, stack: str) -> list:
    units = []
    while f"{stack}.{len(units)}.w_q" in p:
        units.append(_unit(p, f"{stack}.{len(units)}"))
    return units


@dataclass
class AttentionResult:
    """Output features plus the row-stochastic attention weight matrix."""

    output: np.ndarray  # L_t x D'
    weights: np.ndarray  # L_t x L_r


@dataclass
class MatchScores:
    """Per-proposal matching probabilities for one video-query pair."""

    scores: np.ndarray  # (L_s,), strictly inside (0, 1)
    grid: ProposalGrid
    tensor: Tensor | None = None


@dataclass
class LocalizeResult:
    segment: Segment
    seconds: tuple
    score: float
    proposal_index: int


def _weights(target, reference, unit, mask=None) -> Tensor:
    """Attention weights A on the tape: the row softmax of target . W_q^T .
    W_k . reference^T scaled by 1/sqrt(dim); masked reference columns get
    exactly zero weight."""
    logits = ad.matmul(ad.matmul(ad.matmul(target, ad.transpose(unit["w_q"])), unit["w_k"]),
                       ad.transpose(reference))
    return ad.softmax_rows(ad.scale(logits, 1.0 / np.sqrt(unit["w_q"].shape[0])), mask)


def _attend(target, reference, unit, mask=None) -> tuple:
    """One attention unit on the tape; returns (output, weights) tensors.

    ``unit`` maps the five keys w_q, w_k, w_v, fc_w, fc_b to arrays or
    leaves. The weights A are those of :func:`_weights`; the output is
    FC(target + A . reference . W_v^T).
    """
    weights = _weights(target, reference, unit, mask)
    context = ad.matmul(weights, ad.matmul(reference, ad.transpose(unit["w_v"])))
    out = ad.add(ad.matmul(ad.add(target, context), ad.transpose(unit["fc_w"])), unit["fc_b"])
    return out, weights


def attention_unit(target: np.ndarray, reference: np.ndarray, params: dict,
                   reference_mask=None) -> AttentionResult:
    """Attend ``target`` rows over ``reference`` rows (numpy in, numpy out)."""
    target = np.asarray(target, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    dim = params["w_q"].shape[0]
    if target.shape[1] != dim or reference.shape[1] != dim:
        raise ValueError(f"feature width must be {dim}")
    if reference_mask is not None and len(reference_mask) != reference.shape[0]:
        raise ValueError("mask length must match reference rows")
    out, weights = _attend(target, reference, params, reference_mask)
    return AttentionResult(out.value, weights.value)


def _affine(x, w, b) -> Tensor:
    return ad.add(ad.matmul(x, ad.transpose(w)), b)


def _clips_of(video):
    return video.clips if hasattr(video, "clips") else video


def _tokens_of(query):
    return query.tokens if hasattr(query, "tokens") else query


def _distinct(objs) -> tuple:
    """(the distinct objects by identity, in first-seen order; each object's slot)."""
    slot = {}
    for obj in objs:
        slot.setdefault(id(obj), (len(slot), obj))
    return [obj for _, obj in slot.values()], np.array([slot[id(o)][0] for o in objs])


def _encode_t(pairs, p, grid_config: GridConfig):
    """Tape-level pipeline up to cross-attended proposal and word features
    for a list of (video, query) pairs, stacked on a leading pair axis.

    The video stage (projection, v2v, proposal pooling) runs once per
    distinct video and the query stage (projection, q2q) once per distinct
    query; word rows are zero-padded to the longest query and masked.
    Returns (proposal tensor P x L_s x D, word tensor P x L_w x D, word mask
    P x L_w, proposal grid).
    """
    clip_seqs, video_of = _distinct([_clips_of(v) for v, _ in pairs])
    token_seqs, query_of = _distinct([_tokens_of(q) for _, q in pairs])
    l_c = clip_seqs[0].l_c
    if any(c.l_c != l_c for c in clip_seqs):
        raise DataError("videos scored together must share one l_c (one proposal grid)")
    grid = grid_config.grid_for(l_c)
    valid = np.array([c.valid_count for c in clip_seqs])
    clip_mask = (np.arange(l_c) < valid[:, None])[:, None, :]
    v = _affine(np.stack([c.matrix for c in clip_seqs]), p["video_proj.w"], p["video_proj.b"])
    for unit in _stack(p, "v2v"):
        v, _ = _attend(v, v, unit, clip_mask)
    props = ad.segment_max(v, np.stack((grid.starts, grid.ends), axis=1))

    lengths = np.array([t.matrix.shape[0] for t in token_seqs])
    words = np.zeros((len(token_seqs), lengths.max(), token_seqs[0].matrix.shape[1]))
    for row, t in zip(words, token_seqs):
        row[: len(t.matrix)] = t.matrix
    word_mask = np.arange(words.shape[1]) < lengths[:, None]
    q = _affine(words, p["query_proj.w"], p["query_proj.b"])
    for unit in _stack(p, "q2q"):
        q, _ = _attend(q, q, unit, word_mask[:, None, :])

    props, q, word_mask = ad.pick(props, video_of), ad.pick(q, query_of), word_mask[query_of]
    # Cross-attention updates both sides simultaneously from the pre-update
    # features, one layer at a time.
    for qv_unit, vq_unit in zip(_stack(p, "q2v"), _stack(p, "v2q")):
        new_props, _ = _attend(props, q, qv_unit, word_mask[:, None, :])
        new_q, _ = _attend(q, props, vq_unit)
        props, q = new_props, new_q
    return props, q, word_mask, grid


def encode(video, query, params, grid_config: GridConfig):
    """Run the encoder; returns (proposal_feats L_s x D, word_feats L_w x D)."""
    props, q, _, _ = _encode_t([(video, query)], params, grid_config)
    return props.value[0], q.value[0]


def _fuse_rows_t(props: Tensor, sent: Tensor, p) -> Tensor:
    """Per-proposal fusion with the sentence vector: (S+Q) || S*Q || FC(S||Q).

    ``props`` is (..., rows, D) and ``sent`` (..., D), one sentence vector
    per leading index.
    """
    n_rows, d = props.shape[-2:]
    q_mat = ad.add(ad.constant(np.zeros((n_rows, 1))), ad.reshape(sent, sent.shape[:-1] + (1, d)))
    both = ad.concat_cols([props, q_mat])
    return ad.concat_cols([
        ad.add(props, q_mat),
        ad.mul(props, q_mat),
        _affine(both, p["fusion.w"], p["fusion.b"]),
    ])


def _score_t(fused: Tensor, p) -> Tensor:
    """Proposal self-attention and the sigmoid linear classifier, with the
    classifier folded into the attention's value path.

    With F the fused rows, A their attention weights (:func:`_weights`),
    c = classifier.w and b = classifier.b, the classifier logits of the
    attention output, FC(F + A F W_v^T) . c + b, equal

        F u + A (F v) + (fc_b . c + b),  where u = fc_w^T c and v = W_v^T u.

    The W_v and fc products of the rows become matrix-vector products, and
    only A is computed as in any attention unit.
    """
    unit = _unit(p, "proposal_attn")
    c = p["classifier.w"]
    u = ad.matvec(ad.transpose(unit["fc_w"]), c)
    v = ad.matvec(ad.transpose(unit["w_v"]), u)
    weights = _weights(fused, fused, unit)
    bias = ad.add(ad.matvec(unit["fc_b"], c), p["classifier.b"])
    fv = ad.matvec(fused, v)
    context = ad.reshape(ad.matmul(weights, ad.reshape(fv, fv.shape + (1,))), fv.shape)
    logits = ad.add(ad.add(ad.matvec(fused, u), context), bias)
    return ad.sigmoid(logits)


def match_pairs(pairs, params, grid_config: GridConfig) -> MatchScores:
    """Proposal-query matching scores for many (video, query) pairs in one
    stacked forward; ``scores`` and ``tensor`` are (pairs, L_s).

    Every video must have the same ``l_c``. ``params`` holds arrays or, for
    a backward pass, the leaves of ``lift``.
    """
    props, q, word_mask, grid = _encode_t(list(pairs), params, grid_config)
    sent = ad.max_rows(q, word_mask[:, :, None])
    scores = _score_t(_fuse_rows_t(props, sent, params), params)
    return MatchScores(scores.value.copy(), grid, scores)


def match(video, query, params, grid_config: GridConfig) -> MatchScores:
    """Proposal-query matching scores for one video-query pair: the
    one-pair case of :func:`match_pairs`."""
    stacked = match_pairs([(video, query)], params, grid_config)
    tensor = ad.pick(stacked.tensor, 0)
    return MatchScores(tensor.value.copy(), stacked.grid, tensor)


def localize_pairs(pairs, params, grid_config: GridConfig) -> list:
    """Top-scoring proposal of every (video, query) pair, all scored in one
    stacked forward (:func:`match_pairs`); one :class:`LocalizeResult` per
    pair, in order, and no forward for no pairs. Ties go to the earlier
    start, then the shorter length.

    Stacking pads word rows and changes GEMM shapes, so a pair's scores
    may differ from a lone :func:`localize` of it in the last bit; the two
    then pick different proposals only where the top scores lie that
    close. Memory grows with the number of pairs stacked.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    ms = match_pairs(pairs, params, grid_config)
    grid = ms.grid
    order = np.lexsort((grid.ends - grid.starts, grid.starts))
    ranked = ms.scores[:, order]
    best = order[(ranked == ranked.max(axis=1, keepdims=True)).argmax(axis=1)]
    results = []
    for (video, _), idx, row in zip(pairs, best, ms.scores):
        seg = grid.segments[idx]
        seconds = clips_to_seconds(seg, video.duration, _clips_of(video).l_c)
        results.append(LocalizeResult(seg, seconds, float(row[idx]), int(idx)))
    return results


def localize(video, query, params, grid_config: GridConfig) -> LocalizeResult:
    """Top-scoring proposal for one video-query pair: the one-pair case of
    :func:`localize_pairs`."""
    return localize_pairs([(video, query)], params, grid_config)[0]
