"""Small builders shared across test modules."""

import json
import struct

import numpy as np

from momentloc import (
    ClipSequence,
    EmbeddingTable,
    Segment,
    Sentence,
    TokenSequence,
    VideoRecord,
    iou,
    order_relation,
    query_order,
)


def one_hot_table(words, dim=None) -> EmbeddingTable:
    dim = dim if dim is not None else len(words)
    vectors = {w: np.eye(dim)[i % dim] for i, w in enumerate(words)}
    return EmbeddingTable(vectors, dim)


def random_table(words, dim, rng) -> EmbeddingTable:
    return EmbeddingTable({w: rng.normal(size=dim) for w in words}, dim)


def token_seq(rows, words=None) -> TokenSequence:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    words = tuple(words) if words else tuple(f"t{i}" for i in range(rows.shape[0]))
    return TokenSequence(rows, words)


def make_sentence(rows, position, gt=None, words=None) -> Sentence:
    seg = Segment(float(gt[0]), float(gt[1])) if gt is not None else None
    return Sentence(token_seq(rows, words), position, seg)


def make_record(clip_matrix, sentences, vid="v0", duration=None, valid=None,
                split="train") -> VideoRecord:
    """sentences: list of (token rows, gt pair or None)."""
    clip_matrix = np.asarray(clip_matrix, dtype=np.float64)
    valid = clip_matrix.shape[0] if valid is None else valid
    clips = ClipSequence(clip_matrix, valid)
    duration = float(clip_matrix.shape[0]) if duration is None else float(duration)
    paragraph = [make_sentence(rows, i, gt) for i, (rows, gt) in enumerate(sentences)]
    return VideoRecord(vid, duration, clips, paragraph, split)


def tiny_params(d, d_v, d_t, depth_self=1, depth_cross=1, seed=0):
    from momentloc import init_params

    return init_params(d, d_v, d_t, depth_self, depth_cross, np.random.default_rng(seed))


def mask_pairs(mask) -> set:
    """The (k, k') index pairs of the True entries of a 2-D mask."""
    return {(int(k), int(kp)) for k, kp in zip(*np.nonzero(mask))}


def excluded_mask(part) -> np.ndarray:
    """Proposals a semantic partition neither contrasts nor takes as positive."""
    index = np.arange(part.negative_mask.shape[-1])
    return ~part.negative_mask & (index != np.expand_dims(part.positive[0], -1))


def oracle_consistent_mask(grid, j, j_prime) -> np.ndarray:
    """P+ mask built pair by pair from order_relation and query_order."""
    want = query_order(j, j_prime)
    return np.array([[order_relation(a, b) == want for b in grid.segments]
                     for a in grid.segments])


def oracle_best_pair(joint, mask, grid) -> tuple:
    """(k, k') of the largest joint value over P+, scanned pair by pair.

    Every P+ pair is a candidate when that largest value is NaN; among the
    candidates the least (start_k, start_k', k, k') wins.
    """
    best = np.where(mask, joint, -np.inf).max()
    ks, kps = np.nonzero(mask if np.isnan(best) else mask & (joint == best))
    order = min(range(len(ks)),
                key=lambda i: (grid.starts[ks[i]], grid.starts[kps[i]], int(ks[i]), int(kps[i])))
    return int(ks[order]), int(kps[order])


def oracle_semantic(grid, hull_seg, tau) -> tuple:
    """(positive index, negative mask) from iou() proposal by proposal."""
    ious = np.array([iou(seg, hull_seg) for seg in grid.segments])
    positive = int(ious.argmax())
    negative = ious < tau
    negative[positive] = False
    return positive, negative


def run_partition_property(cases, seed=0, max_ls=20):
    """Exhaustiveness audit of both partition builders over random grids.

    Each case checks that the temporal partition covers all L_s^2 ordered
    pairs exactly once with correct routing, and that the semantic
    partition's three sets tile the grid. Returns the number of cases run.
    """
    from momentloc import (
        GridConfig,
        MatchScores,
        Segment,
        iou,
        order_relation,
        query_order,
        semantic_partition,
        temporal_partition,
    )

    rng = np.random.default_rng(seed)
    checked = 0
    while checked < cases:
        l_c = int(rng.integers(2, 40))
        sizes = tuple(sorted({int(s) for s in rng.integers(1, l_c + 1, size=rng.integers(1, 4))}))
        stride = int(rng.integers(1, l_c + 1))
        grid = GridConfig(sizes, stride).grid_for(l_c)
        ls = len(grid)
        if ls > max_ls:
            continue
        j = int(rng.integers(0, 5))
        jp = int(rng.integers(0, 5))
        if j == jp:
            jp += 1
        joint = rng.random((ls, ls))
        part = temporal_partition(joint, grid, j, jp)
        pos = mask_pairs(part.consistent_mask)
        neg = mask_pairs(~part.consistent_mask)
        every = {(a, b) for a in range(ls) for b in range(ls)}
        assert pos | neg == every and not (pos & neg)
        assert len(pos) + len(neg) == ls * ls
        want = query_order(j, jp)
        for a, b in every:
            agrees = order_relation(grid.segments[a], grid.segments[b]) == want
            assert ((a, b) in pos) == agrees

        scores = MatchScores(rng.uniform(0.01, 0.99, size=ls), grid)
        h0 = int(rng.integers(0, l_c))
        hull_seg = Segment(h0, h0 + int(rng.integers(1, l_c - h0 + 1)))
        tau = float(rng.uniform(0.2, 0.8))
        sp = semantic_partition(scores, hull_seg, tau)
        p_idx = sp.positive[0]
        negs = set(np.flatnonzero(sp.negative_mask).tolist())
        exc = set(np.flatnonzero(excluded_mask(sp)).tolist())
        assert {p_idx} | negs | exc == set(range(ls))
        assert 1 + len(negs) + len(exc) == ls
        ious = np.array([iou(s, hull_seg) for s in grid.segments])
        assert p_idx == int(ious.argmax())
        assert all(ious[i] < tau for i in negs)
        assert all(ious[i] >= tau for i in exc)
        checked += 1
    return checked


def scalar_attention_oracle(target, reference, params, mask=None):
    """Attention unit computed with plain Python loops over scalars.

    Deliberately shares no code with the library: logits, softmax, context,
    and the final affine are all written out element by element.
    """
    import math

    lt, lr, dim = len(target), len(reference), len(params["w_q"])
    keep = [True] * lr if mask is None else [bool(m) for m in mask]
    logits = [[0.0] * lr for _ in range(lt)]
    for i in range(lt):
        for j in range(lr):
            acc = 0.0
            for a in range(dim):
                u = sum(target[i][b] * params["w_q"][a][b] for b in range(dim))
                k = sum(params["w_k"][a][c] * reference[j][c] for c in range(dim))
                acc += u * k
            logits[i][j] = acc / math.sqrt(dim)
    weights = [[0.0] * lr for _ in range(lt)]
    for i in range(lt):
        top = max(logits[i][j] for j in range(lr) if keep[j])
        exps = {j: math.exp(logits[i][j] - top) for j in range(lr) if keep[j]}
        z = sum(exps.values())
        for j in exps:
            weights[i][j] = exps[j] / z
    out = [[0.0] * dim for _ in range(lt)]
    for i in range(lt):
        ctx = [0.0] * dim
        for j in range(lr):
            if weights[i][j] == 0.0:
                continue
            for a in range(dim):
                va = sum(reference[j][c] * params["w_v"][a][c] for c in range(dim))
                ctx[a] += weights[i][j] * va
        pre = [target[i][a] + ctx[a] for a in range(dim)]
        for a in range(dim):
            out[i][a] = params["fc_b"][a] + sum(pre[b] * params["fc_w"][a][b] for b in range(dim))
    return np.array(out), np.array(weights)


def edit_manifest(raw: bytes, edit) -> bytes:
    """Checkpoint bytes whose manifest dict ``edit`` has changed in place."""
    (mlen,) = struct.unpack("<I", raw[5:9])
    manifest = json.loads(raw[9 : 9 + mlen])
    edit(manifest)
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    return raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + mlen :]


def transpose_in_manifest(raw: bytes, name: str) -> bytes:
    """Checkpoint bytes whose manifest lists tensor ``name`` with its shape
    reversed; the byte count, and so the file length, stay the same."""
    def edit(manifest):
        for entry in manifest["tensors"]:
            if entry["name"] == name:
                entry["shape"] = entry["shape"][::-1]
    return edit_manifest(raw, edit)
