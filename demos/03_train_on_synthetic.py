"""Train a small model on a synthetic corpus and compare against chance.

Takes about 20 seconds on a 2-CPU machine. The corpus plants labelled events into clip
features; training only ever sees (video, sentence) pairs, never the
event boundaries, yet recall@0.5 should land around double the random
baseline. (The acceptance gate runs the bigger 200-video version.)
"""

import numpy as np

from momentloc import (
    SYNTH_GRID,
    SynthConfig,
    TrainConfig,
    chance_baseline,
    evaluate,
    filter_split,
    generate_corpus,
    report_to_table,
    train,
)

if __name__ == "__main__":
    corpus = generate_corpus(SynthConfig(num_videos=80, seed=1))
    train_split = filter_split(corpus.records, "train")
    test_split = filter_split(corpus.records, "test")
    print(f"{len(train_split)} training videos, {len(test_split)} held out")

    config = TrainConfig(d=16, grid=SYNTH_GRID, batch_videos=32, epochs=60,
                         learning_rate=1e-3, seed=0,
                         use_bce=True, use_tmp=False, use_smt=False)
    ckpt = train(train_split, config, {"pool_span": 1})
    print("loss by epoch:")
    for line in ckpt.metrics_csv.strip().splitlines()[1::10]:
        epoch, loss = line.split(",")[:2]
        print(f"  epoch {epoch}: {float(loss):.4f}")

    report = evaluate(corpus.records, ckpt, (0.1, 0.3, 0.5), "test", 0.5)
    print()
    print(report_to_table(report))

    chance = chance_baseline(test_split, (0.1, 0.3, 0.5), trials=256, seed=0)
    print("random-proposal baseline:")
    for m, value in sorted(chance.items()):
        print(f"  recall @ IoU>{m}  {value:.4f}")
