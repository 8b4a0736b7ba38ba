"""Walk through the three training losses on one two-sentence video.

Shows the pieces the trainer combines: the multi-instance BCE on
video-level scores, the ordered-pair partition behind the temporal loss,
and the union-query partition behind the semantic loss.
"""

import numpy as np

from momentloc import (
    BatchItem,
    GridConfig,
    LossConfig,
    NegativeSample,
    bce_loss,
    hull,
    init_params,
    joint_probability,
    match,
    semantic_partition,
    temporal_partition,
    tmp_loss,
    total_loss,
    video_score,
)
from momentloc.data import ClipSequence, Sentence, TokenSequence, VideoRecord


def random_video(vid, n_sentences, rng, l_c=16, d_v=5, d_t=4):
    clips = rng.normal(size=(l_c, d_v))
    paragraph = [
        Sentence(TokenSequence(rng.normal(size=(3, d_t)), ("a", "b", "c")), i)
        for i in range(n_sentences)
    ]
    return VideoRecord(vid, float(l_c), ClipSequence(clips, l_c), paragraph)


if __name__ == "__main__":
    rng = np.random.default_rng(42)
    video = random_video("pos", 2, rng)
    other = random_video("neg", 1, rng)
    params = init_params(6, 5, 4, 1, 1, rng)
    grid_config = GridConfig((4, 8), 4)

    q1, q2 = video.paragraph
    scores_1 = match(video, q1, params, grid_config)
    scores_2 = match(video, q2, params, grid_config)
    print(f"grid has {len(scores_1.grid)} proposals")

    # multi-instance BCE: the video score is the best proposal score
    p_pos = video_score(scores_1)
    p_neg_video = video_score(match(other, q1, params, grid_config))
    p_neg_query = video_score(match(video, other.paragraph[0], params, grid_config))
    print(f"video scores: pos {float(p_pos):.3f}, neg video {float(p_neg_video):.3f}, "
          f"neg query {float(p_neg_query):.3f}")
    print(f"bce term: {float(bce_loss(p_pos, p_neg_query, p_neg_video)):.4f}")

    # temporal loss: every ordered proposal pair is positive or negative
    joint = joint_probability(scores_1, scores_2)
    part = temporal_partition(joint, scores_1.grid, q1.position, q2.position)
    consistent = int(part.consistent_mask.sum())
    print(f"ordered pairs: {consistent} consistent, "
          f"{part.consistent_mask.size - consistent} inconsistent")
    print(f"tmp term: {float(tmp_loss(part)):.4f}")

    # semantic loss: rate proposals by overlap with the pair's best hull
    strongest = np.where(part.consistent_mask, part.joint, -np.inf).argmax()
    k, kp = np.unravel_index(strongest, part.joint.shape)
    union = hull(scores_1.grid.segments[k], scores_1.grid.segments[kp])
    sp = semantic_partition(match(video, q1, params, grid_config), union, 0.5)
    print(f"best consistent pair {scores_1.grid.segments[k]} + "
          f"{scores_1.grid.segments[kp]} -> hull {union}")
    negatives = int(sp.negative_mask.sum())
    print(f"semantic partition: positive {sp.positive[0]}, "
          f"{negatives} negatives, {len(sp.negative_mask) - 1 - negatives} excluded")

    # the trainer sees all of it through one call
    item = BatchItem(video, q1, NegativeSample(other, other.paragraph[0]),
                     q2, NegativeSample(other, other.paragraph[0]))
    out = total_loss([item], params, LossConfig(grid=grid_config))
    print(f"total {float(out):.4f} = bce {out.bce:.4f} + tmp {out.tmp:.4f} "
          f"+ smt {out.smt:.4f}")
