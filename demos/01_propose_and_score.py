"""Score sliding-window proposals for one sentence, by hand.

Builds a 12-clip video whose feature rows are one-hot event channels,
wires the network weights so the classifier reads the overlap between a
proposal and the query type, and shows which window wins.
"""

import numpy as np

from momentloc import (
    GridConfig,
    Segment,
    init_params,
    iou,
    localize,
    match,
)
from momentloc.data import ClipSequence, Sentence, TokenSequence, VideoRecord


def one_hot_video():
    # clips 2..5 show event type 0, clips 8..11 type 1, the rest background
    e = np.eye(3, dtype=np.float64)
    types = [2, 2, 0, 0, 0, 0, 2, 2, 1, 1, 1, 1]
    clips = e[types]
    sentences = (
        Sentence(TokenSequence(np.array([[1.0, 0.0, -5.0]]), ("w0",)), 0),
        Sentence(TokenSequence(np.array([[0.0, 1.0, -5.0]]), ("w1",)), 1),
    )
    return VideoRecord("demo", 12.0, ClipSequence(clips, 12), sentences)


def readable_params():
    params = init_params(3, 3, 3, 0, 0, np.random.default_rng(0))
    params["video_proj.w"] = np.eye(3)
    params["query_proj.w"] = np.eye(3)
    params["fusion.w"] = np.zeros((3, 6))
    params["proposal_attn.w_v"] = np.zeros((9, 9))
    params["proposal_attn.fc_w"] = np.eye(9)
    params["proposal_attn.fc_b"] = np.zeros(9)
    # middle third of the fused vector is S * Q
    params["classifier.w"] = np.concatenate([np.zeros(3), np.ones(3), np.zeros(3)])
    params["classifier.b"] = np.zeros(())
    return params


if __name__ == "__main__":
    video = one_hot_video()
    params = readable_params()
    grid_config = GridConfig(window_sizes=(4,), stride=2)

    for sentence in video.paragraph:
        scores = match(video, sentence, params, grid_config)
        print(f"query {sentence.tokens.raw_tokens[0]}")
        for seg, p in zip(scores.grid.segments, scores.scores):
            print(f"  window ({seg.start:2d},{seg.end:2d})  p = {p:.4f}")
        best = localize(video, sentence, params, grid_config)
        print(f"  -> picked {best.segment} = {best.seconds} "
              f"(score {best.score:.4f})")

    truth = Segment(2, 6)
    best = localize(video, video.paragraph[0], params, grid_config)
    print(f"IoU against the planted (2,6) event: {iou(best.segment, truth):.2f}")
