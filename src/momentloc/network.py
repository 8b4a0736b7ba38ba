"""Proposal-based video-sentence matching network.

Both modalities are projected into a shared D-dimensional space, refined by
self-attention (padded clips masked out as references), pooled into
sliding-window proposal features, exchanged through cross-attention, fused
per proposal with the max-pooled sentence vector, passed through one more
self-attention unit over the fused rows, and scored by a sigmoid linear
classifier. The forward pass is built on the autodiff tape so the same code
serves evaluation and training.

``params`` may be arrays or a lifted mapping (:func:`lift`): the tape form
of the parameters, which holds the products of parameters alone (each
encoder attention unit's W_q^T W_k and the folded head below), so that they
go on the tape once per parameter set.

The head never builds the 3d-wide fused rows. For one pair let S be its
proposal rows (rows x d) after cross-attention and q its sentence vector.
The paper's fused rows F = (S+q) || S*q || FC(S||q) are affine in the
2d-wide rows Z = [S, S*q]: with fusion.w = [W_s | W_t] and b_f = fusion.b,

    F = Z K + 1 r^T,  K = [[I, 0, W_s^T], [0, I, 0]] (2d x 3d),
                      r = [q, 0, W_t q + b_f].

The proposal attention's logits F qk F^T / sqrt(3d), qk = W_q^T W_k, are
then (Z B + 1 w^T) Z^T / sqrt(3d) plus terms constant along each row,
which the row softmax cancels; here B = K qk K^T (2d x 2d) and
w = K qk^T r = E q + e, with E (2d x d) and e (2d) products of parameters
alone. The classifier on the attention output, c . FC(F + A F W_v^T) + b,
is linear: with u = fc_w^T c, v = W_v^T u and the rows of A summing to 1
it is Z (K u) + A Z (K v) + r . (u + v) + fc_b . c + b, and
r . x = q . (x_1 + W_t^T x_3) + b_f . x_3 for x = u + v in thirds
x_1, x_2, x_3. So :func:`lift` gives B, E, e, K u, K v,
rho = x_1 + W_t^T x_3 and beta = b_f . x_3 + fc_b . c + b, and each pair
costs a (rows, 2d) @ (2d, 2d) and a (rows, 2d) @ (2d, rows) product.
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
    """Parameter name -> array, or tape tensor after :func:`lift`.

    Keys are the checkpoint tensor names, in init draw order; a lifted
    mapping adds the products of parameters alone after them.
    """

    def named_arrays(self) -> dict:
        return self

    @property
    def leaves(self) -> dict:
        """The parameter tensors alone, without the products :func:`lift` adds."""
        return {name: t for name, t in self.items() if not (isinstance(t, Tensor) and t.parents)}


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


def _query_key(w_q, w_k) -> Tensor:
    """An attention unit's folded query-key matrix qk = W_q^T W_k."""
    return ad.matmul(ad.transpose(w_q), w_k)


def _fold_head(p) -> dict:
    """The head's products of parameters alone (module docstring): B, E, e,
    K u, K v, rho and beta, from the lifted leaves ``p``."""
    d = p["fusion.b"].shape[0]

    def thirds(x):  # the d-wide column blocks of x
        return [ad.slice_cols(x, i * d, (i + 1) * d) for i in range(x.shape[-1] // d)]

    w_s, w_t = thirds(p["fusion.w"])
    q_1, q_2, q_3 = thirds(p["proposal_attn.w_q"])
    k_1, k_2, k_3 = thirds(p["proposal_attn.w_k"])
    # W_q K^T and W_k K^T, so that B = (W_q K^T)^T (W_k K^T); K qk^T = K W_k^T W_q
    # carries r = R q + [0, 0, b_f], R = [I; 0; W_t], into E and e.
    query = ad.concat_cols([ad.add(q_1, ad.matmul(q_3, w_s)), q_2])
    key = ad.concat_cols([ad.add(k_1, ad.matmul(k_3, w_s)), k_2])
    key_t = ad.transpose(key)

    c = p["classifier.w"]
    u = ad.matvec(ad.transpose(p["proposal_attn.fc_w"]), c)
    v = ad.matvec(ad.transpose(p["proposal_attn.w_v"]), u)
    (u_1, u_2, u_3), (v_1, v_2, v_3) = thirds(u), thirds(v)
    x_3 = ad.add(u_3, v_3)
    return {
        "head.B": ad.matmul(ad.transpose(query), key),
        "head.E": ad.matmul(key_t, ad.add(q_1, ad.matmul(q_3, w_t))),
        "head.e": ad.matvec(key_t, ad.matvec(q_3, p["fusion.b"])),
        "head.Ku": ad.concat_cols([ad.add(u_1, ad.matvec(ad.transpose(w_s), u_3)), u_2]),
        "head.Kv": ad.concat_cols([ad.add(v_1, ad.matvec(ad.transpose(w_s), v_3)), v_2]),
        "head.rho": ad.add(ad.add(u_1, v_1), ad.matvec(ad.transpose(w_t), x_3)),
        "head.beta": ad.add(ad.add(ad.matvec(p["fusion.b"], x_3),
                                   ad.matvec(p["proposal_attn.fc_b"], c)), p["classifier.b"]),
    }


def lift(params) -> ModelParams:
    """The tape form of ``params`` (float32 or float64 arrays): every tensor
    as a leaf of its own dtype under its own name, plus the products of
    parameters alone: ``{unit}.qk`` of every encoder attention unit and the
    folded head's ``head.B``, ``.E``, ``.e``, ``.Ku``, ``.Kv``, ``.rho`` and
    ``.beta`` (module docstring). A backward pass leaves the gradients on
    :attr:`ModelParams.leaves`. A lifted mapping is returned unchanged."""
    if "head.B" in params:  # a product: only lift adds one
        return params
    p = ModelParams((name, ad.constant(arr)) for name, arr in params.items())
    for prefix in [name[: -len(".w_q")] for name in p
                   if name.endswith(".w_q") and name != "proposal_attn.w_q"]:
        p[f"{prefix}.qk"] = _query_key(p[f"{prefix}.w_q"], p[f"{prefix}.w_k"])
    p.update(_fold_head(p))
    return p


def _stack(p, stack: str) -> list:
    units = []
    while f"{stack}.{len(units)}.w_q" in p:
        prefix = f"{stack}.{len(units)}"
        units.append({k: p[f"{prefix}.{k}"] for k in _ATTENTION_KEYS + ("qk",)})
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


def _attend(target, reference, unit, mask=None) -> tuple:
    """One attention unit on the tape; returns (output, weights) tensors.

    ``unit`` maps the five keys w_q, w_k, w_v, fc_w, fc_b and the folded
    qk = W_q^T W_k (:func:`lift`) to tensors. The weights A are the row
    softmax of (target . qk) . reference^T scaled by 1/sqrt(dim), masked
    reference columns getting exactly zero weight; the output is
    FC(target + A . reference . W_v^T).
    """
    logits = ad.matmul(ad.matmul(target, unit["qk"]), ad.transpose(reference))
    weights = ad.softmax_rows(ad.scale(logits, 1.0 / np.sqrt(unit["qk"].shape[0])), mask)
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
    unit = {**params, "qk": _query_key(params["w_q"], params["w_k"])}
    out, weights = _attend(target, reference, unit, reference_mask)
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
    P x L_w, proposal grid). Clip and word rows take the parameters' dtype.
    """
    clip_seqs, video_of = _distinct([_clips_of(v) for v, _ in pairs])
    token_seqs, query_of = _distinct([_tokens_of(q) for _, q in pairs])
    l_c = clip_seqs[0].l_c
    if any(c.l_c != l_c for c in clip_seqs):
        raise DataError("videos scored together must share one l_c (one proposal grid)")
    grid = grid_config.grid_for(l_c)
    valid = np.array([c.valid_count for c in clip_seqs])
    clip_mask = (np.arange(l_c) < valid[:, None])[:, None, :]
    dtype = p["video_proj.w"].value.dtype
    v = _affine(np.stack([c.matrix for c in clip_seqs], dtype=dtype),
                p["video_proj.w"], p["video_proj.b"])
    for unit in _stack(p, "v2v"):
        v, _ = _attend(v, v, unit, clip_mask)
    props = ad.segment_max(v, np.stack((grid.starts, grid.ends), axis=1))

    lengths = np.array([t.matrix.shape[0] for t in token_seqs])
    words = np.zeros((len(token_seqs), lengths.max(), token_seqs[0].matrix.shape[1]), dtype)
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
    props, q, _, _ = _encode_t([(video, query)], lift(params), grid_config)
    return props.value[0], q.value[0]


def _head_t(props: Tensor, sent: Tensor, p) -> Tensor:
    """Proposal self-attention and the sigmoid classifier over the fused
    rows, computed from Z = [S, S*q] with the lifted head (module
    docstring). ``props`` is (pairs, rows, D) and ``sent`` (pairs, D)."""
    q = ad.reshape(sent, sent.shape[:-1] + (1, sent.shape[-1]))
    z = ad.concat_cols([props, ad.mul(props, q)])
    w = ad.add(ad.matmul(q, ad.transpose(p["head.E"])), p["head.e"])  # (pairs, 1, 2d)
    attn_logits = ad.matmul(ad.add(ad.matmul(z, p["head.B"]), w), ad.transpose(z))
    weights = ad.softmax_rows(
        ad.scale(attn_logits, 1.0 / np.sqrt(p["proposal_attn.w_q"].shape[0])))
    zv = ad.matvec(z, p["head.Kv"])
    context = ad.reshape(ad.matmul(weights, ad.reshape(zv, zv.shape + (1,))), zv.shape)
    sentence = ad.add(ad.matvec(sent, p["head.rho"]), p["head.beta"])
    logits = ad.add(ad.add(ad.matvec(z, p["head.Ku"]), context),
                    ad.reshape(sentence, sentence.shape + (1,)))
    return ad.sigmoid(logits)


def match_pairs(pairs, params, grid_config: GridConfig) -> MatchScores:
    """Proposal-query matching scores for many (video, query) pairs in one
    stacked forward; ``scores`` and ``tensor`` are (pairs, L_s).

    Every video must have the same ``l_c``. ``params`` holds arrays, or is
    lifted (:func:`lift`) for a backward pass or for many forwards, which
    then share its products of parameters alone.
    """
    params = lift(params)
    props, q, word_mask, grid = _encode_t(list(pairs), params, grid_config)
    sent = ad.max_rows(ad.transpose(q), word_mask[:, None, :])
    scores = _head_t(props, sent, params)
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
    may differ from a lone :func:`localize` of it in the last bits (about
    one machine epsilon of their dtype); the two then pick different
    proposals only where the top scores lie that close. Memory grows with
    the number of pairs stacked. A non-finite score (inputs that overflow
    the dtype) raises DataError naming the video.
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
        if not np.isfinite(row).all():
            raise DataError(f"{getattr(video, 'id', 'a video')}: non-finite proposal scores "
                            f"(features or word vectors too large for {row.dtype}?)")
        seg = grid.segments[idx]
        seconds = clips_to_seconds(seg, video.duration, _clips_of(video).l_c)
        results.append(LocalizeResult(seg, seconds, float(row[idx]), int(idx)))
    return results


def localize(video, query, params, grid_config: GridConfig) -> LocalizeResult:
    """Top-scoring proposal for one video-query pair: the one-pair case of
    :func:`localize_pairs`."""
    return localize_pairs([(video, query)], params, grid_config)[0]
