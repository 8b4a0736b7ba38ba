"""Acceptance gate: ten checks covering the whole pipeline.

Each test prints one ``ACCEPTANCE n <label>: PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -s`` to watch them stream). Checks 5-7
share one block of nine training runs (three loss arms x three seeds) on
the default 200-video synthetic corpus, in at most two worker processes;
expect about 2 minutes for the full gate on a 2-CPU machine.
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from helpers import run_partition_property, scalar_attention_oracle, tiny_params, token_seq
from momentloc import (
    GT_AUDIT,
    Segment,
    SYNTH_GRID,
    SynthConfig,
    TrainConfig,
    attention_unit,
    bce_loss,
    chance_baseline,
    default_gradient_check,
    evaluate,
    filter_split,
    generate_corpus,
    generate_proposals,
    hull,
    iou,
    joint_probability,
    order_relation,
    restore_paragraph_order,
    save_checkpoint,
    smt_loss,
    tmp_loss,
    LossConfig,
    total_loss,
    train,
)

from test_losses import (
    GRID as LOSS_GRID,
    event_video,
    make_item,
    manual_components,
    oracle_params,
    pair_video,
    two_prop_partition,
)
from test_network import rand_attention


def verdict(n, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"acceptance {n} {label}{suffix}"


SEEDS = (0, 1, 2)
ARMS = {
    "bce": (True, False, False),
    "bce+tmp": (True, True, False),
    "bce+tmp+smt": (True, True, True),
}


def _trend_run(arm, seed):
    """One of the nine trend runs; returns (report, seconds)."""
    use_bce, use_tmp, use_smt = ARMS[arm]
    records = generate_corpus(SynthConfig()).records
    started = time.perf_counter()
    config = TrainConfig(
        d=16, grid=SYNTH_GRID, batch_videos=32, epochs=30,
        learning_rate=1e-3, seed=seed,
        use_bce=use_bce, use_tmp=use_tmp, use_smt=use_smt,
    )
    ckpt = train(filter_split(records, "train"), config, {"pool_span": 1})
    report = evaluate(records, ckpt, (0.1, 0.3, 0.5), "test", 0.5)
    return report, time.perf_counter() - started


@pytest.fixture(scope="module")
def trend():
    """Nine training runs on the default corpus, evaluated on its test split.

    The runs are independent and seeded, so they are spread over at most two
    worker processes, the slowest arm first; ``timings`` sums each arm's run
    times.
    """
    corpus = generate_corpus(SynthConfig())
    test_records = filter_split(corpus.records, "test")
    chance = chance_baseline(test_records, (0.5,), trials=256, seed=0)[0.5]
    keys = [(arm, seed) for arm in reversed(ARMS) for seed in SEEDS]
    workers = min(2, os.cpu_count() or 1)
    context = multiprocessing.get_context("spawn")
    # One BLAS thread per worker: BLAS threads of two workers sharing the
    # CPUs spin against each other, which doubled the runs' wall time.
    one_thread = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")}
    with mock.patch.dict(os.environ, one_thread), \
            ProcessPoolExecutor(workers, mp_context=context) as pool:
        results = dict(zip(keys, pool.map(_trend_run, *zip(*keys))))
    reports = {key: report for key, (report, _) in results.items()}
    timings = {arm: sum(results[arm, s][1] for s in SEEDS) for arm in ARMS}
    return SimpleNamespace(reports=reports, chance=chance, timings=timings)


class TestUnitOracles:
    def test_criterion_1(self):
        ok = True
        ok &= abs(iou(Segment(0, 8), Segment(4, 12)) - 1 / 3) < 1e-9
        ok &= iou(Segment(0, 4), Segment(8, 12)) == 0.0
        ok &= iou(Segment(3, 9), Segment(3, 9)) == 1.0
        ok &= hull(Segment(0, 4), Segment(8, 12)) == Segment(0, 12)
        ok &= order_relation(Segment(0, 4), Segment(8, 12)) == 0
        ok &= order_relation(Segment(8, 12), Segment(0, 4)) == 1
        ok &= order_relation(Segment(4, 8), Segment(4, 20)) == 1  # tied starts

        ok &= len(generate_proposals(128, (8, 12, 20, 32, 64), 8)) == 67
        ok &= len(generate_proposals(256, (8, 16, 32, 64, 128), 8)) == 134

        ok &= abs(float(bce_loss(0.5, 0.5, 0.5)) - 4 * math.log(2)) < 1e-9
        ok &= abs(float(bce_loss(0.9, 0.1, 0.1)) + 4 * math.log(0.9)) < 1e-9
        joint = joint_probability(np.array([0.8, 0.1]), np.array([0.5, 0.2])).value
        ok &= abs(joint[0, 1] - 0.8 * 0.2) < 1e-9 and abs(joint[0, 0] - 0.4) < 1e-9
        ok &= abs(float(tmp_loss(two_prop_partition(0.9, 0.2)))
                  - (-math.log(0.9) - math.log(0.8))) < 1e-9
        ok &= abs(float(tmp_loss(two_prop_partition(0.5, 0.5))) - 2 * math.log(2)) < 1e-9

        # smt: all scores forced to 0.5 -> -log(0.5) - log(0.5)
        flat = tiny_params(2, 2, 2)
        flat["classifier.w"] = np.zeros(6)
        flat["classifier.b"] = np.zeros(())
        q = token_seq(np.array([1.0, -5.0]))
        loss = float(smt_loss(event_video(), q, q, (Segment(0, 2), Segment(2, 4)),
                              flat, 0.5, LOSS_GRID))
        ok &= abs(loss - 2 * math.log(2)) < 1e-9
        # engineered separable weights leave (almost) nothing to minimise
        sharp = float(smt_loss(event_video(), q, q, (Segment(0, 2), Segment(0, 2)),
                               oracle_params(), 0.5, LOSS_GRID))
        ok &= sharp < 1e-6

        # total = mean(bce terms) + mean(tmp terms) + mean(smt terms)
        cfg = LossConfig(grid=LOSS_GRID)
        params = tiny_params(3, 2, 2, seed=31)
        item = make_item(pair_video("a", 1), pair_video("b", 2))
        out = total_loss([item], params, cfg)
        bce_terms, tmp_term, smt_term = manual_components(item, params, cfg)
        recomposed = np.mean(bce_terms) + tmp_term + smt_term
        ok &= abs(float(out) - recomposed) < 1e-6
        two = total_loss([item, make_item(pair_video("c", 3), pair_video("d", 4))],
                         params, cfg)
        other = manual_components(make_item(pair_video("c", 3), pair_video("d", 4)),
                                  params, cfg)
        expect = (np.mean(bce_terms + other[0])
                  + np.mean([tmp_term, other[1]]) + np.mean([smt_term, other[2]]))
        ok &= abs(float(two) - expect) < 1e-6

        verdict(1, "unit oracles", bool(ok))


class TestAttentionOracle:
    def test_criterion_2(self):
        worst = 0.0
        worst_row = 0.0
        masked_ok = True
        for case in range(50):
            rng = np.random.default_rng(7000 + case)
            dim = int(rng.integers(1, 7))
            lt = int(rng.integers(1, 7))
            lr = int(rng.integers(1, 7))
            params = rand_attention(rng, dim)
            target = rng.normal(size=(lt, dim))
            reference = rng.normal(size=(lr, dim))
            mask = None
            if case % 2:
                mask = rng.random(lr) < 0.7
                if not mask.any():
                    mask[rng.integers(lr)] = True
            result = attention_unit(target, reference, params, mask)
            out, weights = result.output, result.weights
            ref_out, ref_weights = scalar_attention_oracle(target, reference, params, mask)
            worst = max(worst, float(np.abs(out - ref_out).max()),
                        float(np.abs(weights - ref_weights).max()))
            worst_row = max(worst_row, float(np.abs(weights.sum(axis=1) - 1.0).max()))
            if mask is not None and not np.all(weights[:, ~mask] == 0.0):
                masked_ok = False
        ok = worst < 1e-6 and worst_row < 1e-6 and masked_ok
        verdict(2, "attention vs scalar oracle", ok,
                f"max dev {worst:.2e}, row-sum dev {worst_row:.2e}, 50 cases")


class TestGradientCheck:
    def test_criterion_3(self):
        started = time.perf_counter()
        report = default_gradient_check(num_coords=240)
        elapsed = time.perf_counter() - started
        ok = (report.max_rel_error < 1e-3 and report.num_coords >= 200
              and elapsed < 60.0)
        verdict(3, "analytic vs finite-difference gradients", ok,
                f"max rel err {report.max_rel_error:.2e} on {report.num_coords} "
                f"coords in {elapsed:.1f}s")


class TestPartitionExhaustiveness:
    def test_criterion_4(self):
        checked = run_partition_property(1000, seed=11)
        verdict(4, "partition exhaustiveness", checked >= 1000,
                f"{checked} random grids")


class TestLearningSanity:
    def test_criterion_5(self, trend):
        recalls = [trend.reports["bce", s].recall_at[0.5] for s in SEEDS]
        mean = float(np.mean(recalls))
        floor = trend.chance + 0.15
        ok = mean >= floor
        verdict(5, "BCE-only beats chance by 15 points", ok,
                f"recall@0.5 {mean:.3f} vs floor {floor:.3f} "
                f"(chance {trend.chance:.3f}), {trend.timings['bce']:.0f}s")


class TestTemporalTrend:
    def test_criterion_6(self, trend):
        gains = [trend.reports["bce+tmp", s].temporal_consistency
                 - trend.reports["bce", s].temporal_consistency for s in SEEDS]
        wins = sum(g >= 0.05 for g in gains)
        verdict(6, "order loss lifts temporal consistency", wins >= 2,
                "gains " + ", ".join(f"{g:+.3f}" for g in gains))


class TestSemanticTrend:
    def test_criterion_7(self, trend):
        gains = [trend.reports["bce+tmp+smt", s].semantic_consistency
                 - trend.reports["bce+tmp", s].semantic_consistency for s in SEEDS]
        wins = sum(g >= 0.05 for g in gains)
        verdict(7, "union loss lifts semantic consistency", wins >= 2,
                "gains " + ", ".join(f"{g:+.3f}" for g in gains))


def small_run(seed=0):
    corpus = generate_corpus(SynthConfig(num_videos=20, seed=5))
    config = TrainConfig(d=8, grid=SYNTH_GRID, batch_videos=8, epochs=2,
                         learning_rate=1e-3, seed=seed)
    return corpus, train(corpus.records, config, {"pool_span": 1})


class TestNoLeakAudit:
    def test_criterion_8(self):
        corpus = generate_corpus(SynthConfig(num_videos=20, seed=5))
        before = GT_AUDIT.count
        restore_paragraph_order(corpus.records[0])
        sanctioned_silent = GT_AUDIT.count == before
        config = TrainConfig(d=8, grid=SYNTH_GRID, batch_videos=8, epochs=2,
                             learning_rate=1e-3, seed=0)
        train(corpus.records, config, {"pool_span": 1})
        train_delta = GT_AUDIT.count - before
        corpus.records[0].paragraph[0].gt_segment
        alive = GT_AUDIT.count == before + 1
        ok = sanctioned_silent and train_delta == 0 and alive
        verdict(8, "training never reads ground-truth boundaries", ok,
                f"train delta {train_delta}")


class TestDeterminism:
    def test_criterion_9(self, tmp_path):
        blobs = []
        csvs = []
        for run in range(2):
            _, ckpt = small_run(seed=3)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(ckpt, path)
            blobs.append(path.read_bytes())
            csvs.append(ckpt.metrics_csv)
        ok = blobs[0] == blobs[1] and csvs[0] == csvs[1]
        verdict(9, "same seed, bit-identical artifacts", ok,
                f"{len(blobs[0])} checkpoint bytes")


class TestRecallMonotonicity:
    def test_criterion_10(self, trend):
        thresholds = (0.1, 0.3, 0.5)
        ok = True
        for report in trend.reports.values():
            series = [report.recall_at[m] for m in thresholds]
            ok &= all(a >= b for a, b in zip(series, series[1:]))
        corpus, ckpt = small_run(seed=1)
        report = evaluate(corpus.records, ckpt, (0.0, 0.2, 0.4, 0.6, 0.8), None, 0.5)
        series = [report.recall_at[m] for m in (0.0, 0.2, 0.4, 0.6, 0.8)]
        ok &= all(a >= b for a, b in zip(series, series[1:]))
        verdict(10, "recall non-increasing in the IoU threshold", bool(ok))
