import json

import numpy as np
import pytest

from helpers import make_record
from momentloc import (
    ConfigError,
    DataConfig,
    DataError,
    GridConfig,
    SYNTH_GRID,
    SynthConfig,
    chance_baseline,
    emit_corpus,
    generate_corpus,
    load_corpus,
    load_embeddings,
    oracle_match,
    oracle_predictions,
    recall_from_predictions,
    resolve_event_type,
    restore_paragraph_order,
    temporal_consistency_from_predictions,
)

SMALL = SynthConfig(num_videos=10, l_c=32, d_v=8, d_t=8, num_event_types=4,
                    tokens_per_sentence=(2, 4), seed=7)


class TestSynthConfig:
    def test_defaults_are_valid(self):
        cfg = SynthConfig()
        assert cfg.num_videos == 200 and cfg.l_c == 32
        assert cfg.num_event_types == 6 and cfg.ambiguity_rate == 0.5
        assert (cfg.events_min, cfg.events_max) == (2, 3)

    def test_pairless_config_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(events_max=1)
        with pytest.raises(ConfigError):
            SynthConfig(num_event_types=1)

    def test_more_events_than_types_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(num_event_types=2, events_max=3)

    def test_odd_event_length_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(event_lengths=(4, 5))

    def test_ambiguity_range_checked(self):
        with pytest.raises(ConfigError):
            SynthConfig(ambiguity_rate=1.5)


class TestGenerateCorpus:
    def test_shape_and_splits(self):
        corpus = generate_corpus(SMALL)
        assert len(corpus) == 10
        assert [r.id for r in corpus] == [f"synth{i:04d}" for i in range(10)]
        assert all(r.duration == 32.0 for r in corpus)
        assert all(r.clips.l_c == 32 and r.clips.valid_count == 32 for r in corpus)
        assert all(r.clips.matrix.dtype == np.float32 for r in corpus)
        # round(0.25 * 10) = 2 test videos at the tail
        assert [r.split for r in corpus] == ["train"] * 8 + ["test"] * 2

    def test_ground_truth_disjoint_and_sorted(self):
        for rec in generate_corpus(SMALL):
            segs = [s.gt_segment for s in rec.paragraph]
            assert all(a.end <= b.start for a, b in zip(segs, segs[1:]))
            starts = [s.start for s in segs]
            assert starts == sorted(starts) and len(set(starts)) == len(starts)

    def test_paragraph_order_is_temporal_order(self):
        corpus = generate_corpus(SMALL)
        for rec in corpus:
            assert [s.position for s in rec.paragraph] == list(range(len(rec.paragraph)))
            restored = restore_paragraph_order(rec)
            assert [s.gt_segment for s in restored.paragraph] == \
                   [s.gt_segment for s in rec.paragraph]
            for a, b in zip(rec.paragraph, restored.paragraph):
                assert np.array_equal(a.tokens.matrix, b.tokens.matrix)

    def test_noiseless_rows_are_prototypes(self):
        corpus = generate_corpus(SynthConfig(num_videos=4, l_c=16, d_v=4, d_t=4,
                                             num_event_types=3, event_lengths=(4,),
                                             noise_std=0.0, seed=1))
        for rec in corpus:
            covered = np.zeros(16, dtype=bool)
            for t, seg in corpus.events[rec.id]:
                rows = rec.clips.matrix[seg.start:seg.end]
                assert np.allclose(rows, corpus.prototypes[t].astype(np.float32))
                covered[seg.start:seg.end] = True
            assert np.all(rec.clips.matrix[~covered] == 0.0)

    def test_sentence_words_respect_ambiguity_extremes(self):
        pure = generate_corpus(SynthConfig(num_videos=4, ambiguity_rate=0.0, seed=2))
        pools = {w for pool in pure.token_pools for w in pool}
        for rec in pure:
            for sent in rec.paragraph:
                assert set(sent.tokens.raw_tokens) <= pools
        fuzzy = generate_corpus(SynthConfig(num_videos=4, ambiguity_rate=1.0, seed=2))
        for rec in fuzzy:
            for sent in rec.paragraph:
                assert set(sent.tokens.raw_tokens) <= set(fuzzy.confusers)

    def test_same_seed_bit_identical(self):
        a = generate_corpus(SMALL)
        b = generate_corpus(SMALL)
        for ra, rb in zip(a, b):
            assert ra.id == rb.id and ra.split == rb.split
            assert np.array_equal(ra.clips.matrix, rb.clips.matrix)
            for sa, sb in zip(ra.paragraph, rb.paragraph):
                assert sa.gt_segment == sb.gt_segment
                assert sa.tokens.raw_tokens == sb.tokens.raw_tokens
                assert np.array_equal(sa.tokens.matrix, sb.tokens.matrix)

    def test_different_seed_differs(self):
        a = generate_corpus(SMALL)
        b = generate_corpus(SynthConfig(num_videos=10, l_c=32, d_v=8, d_t=8,
                                        num_event_types=4, tokens_per_sentence=(2, 4),
                                        seed=8))
        assert any(not np.array_equal(ra.clips.matrix, rb.clips.matrix)
                   for ra, rb in zip(a, b))

    def test_infeasible_packing_rejected(self):
        with pytest.raises(DataError):
            generate_corpus(SynthConfig(num_videos=1, l_c=4, event_lengths=(10,), seed=0))


class TestOracle:
    def test_noiseless_unambiguous_recall_is_perfect(self):
        corpus = generate_corpus(SynthConfig(num_videos=12, noise_std=0.0,
                                             ambiguity_rate=0.0, seed=3))
        preds = oracle_predictions(corpus)
        recall, _ = recall_from_predictions(corpus.records, preds, (0.5, 0.9))
        assert recall[0.5] == 1.0 and recall[0.9] == 1.0

    def test_noiseless_match_lands_on_event(self):
        corpus = generate_corpus(SynthConfig(num_videos=6, noise_std=0.0,
                                             ambiguity_rate=0.0, seed=4))
        for rec in corpus:
            for sent, (t, seg) in zip(rec.paragraph, corpus.events[rec.id]):
                assert oracle_match(corpus, rec, sent) == seg

    def test_default_corpus_is_planted_ambiguous(self):
        corpus = generate_corpus(SynthConfig())
        preds = oracle_predictions(corpus)
        tc = temporal_consistency_from_predictions(corpus.records, preds)
        assert tc < 0.9

    def test_split_filter(self):
        corpus = generate_corpus(SMALL)
        preds = oracle_predictions(corpus, split="test")
        assert {vid for vid, _ in preds} == {r.id for r in corpus if r.split == "test"}

    def test_resolver_majority_vote(self):
        corpus = generate_corpus(SMALL)
        rec = corpus.records[0]
        for sent, (t, _) in zip(rec.paragraph, corpus.events[rec.id]):
            informative = [w for w in sent.tokens.raw_tokens if not w.startswith("filler")]
            if informative:
                assert resolve_event_type(corpus, rec, sent) == t

    def test_resolver_fallback_is_deterministic(self):
        fuzzy = generate_corpus(SynthConfig(num_videos=4, ambiguity_rate=1.0, seed=9))
        rec = fuzzy.records[0]
        sent = rec.paragraph[0]
        assert all(w.startswith("filler") for w in sent.tokens.raw_tokens)
        t1 = resolve_event_type(fuzzy, rec, sent)
        t2 = resolve_event_type(fuzzy, rec, sent)
        assert t1 == t2 and 0 <= t1 < len(fuzzy.token_pools)


class TestEmitCorpus:
    CFG = DataConfig(l_c=32, pool_span=1, max_sentence_len=20)

    def test_round_trip(self, tmp_path):
        corpus = generate_corpus(SMALL)
        emit_corpus(corpus, tmp_path)
        result = load_corpus(tmp_path / "annotations.json", tmp_path / "features",
                             load_embeddings(tmp_path / "embeddings.txt"), self.CFG)
        assert result.skip_count == 0
        assert len(result.records) == len(corpus.records)
        for orig, back in zip(corpus.records, result.records):
            assert orig.id == back.id and orig.duration == back.duration
            assert orig.split == back.split
            assert np.array_equal(orig.clips.matrix, back.clips.matrix)
            for sa, sb in zip(orig.paragraph, back.paragraph):
                assert sa.gt_segment == sb.gt_segment
                assert sa.tokens.raw_tokens == sb.tokens.raw_tokens
                assert np.array_equal(sa.tokens.matrix, sb.tokens.matrix)

    def test_manifest_digest_tracks_seed(self, tmp_path):
        digests = {}
        for name, seed in [("a", 7), ("b", 7), ("c", 8)]:
            cfg = SynthConfig(num_videos=10, l_c=32, d_v=8, d_t=8, num_event_types=4,
                              tokens_per_sentence=(2, 4), seed=seed)
            out = tmp_path / name
            out.mkdir()
            manifest = emit_corpus(generate_corpus(cfg), out)
            digests[name] = manifest["digest"]
            assert manifest["seed"] == seed
            assert manifest["num_videos"] == 10
            on_disk = json.loads((out / "manifest.json").read_text())
            # tuples in the live dict become JSON arrays on disk
            assert on_disk == json.loads(json.dumps(manifest))
        assert digests["a"] == digests["b"]
        assert digests["a"] != digests["c"]


def one_gt_record(gt, l_c=16, vid="v"):
    rng = np.random.default_rng(0)
    return make_record(rng.normal(size=(l_c, 3)), [(rng.normal(size=(2, 4)), gt)],
                       vid=vid, duration=float(l_c))


class TestChanceBaseline:
    def test_single_proposal_grid_is_deterministic(self):
        whole = GridConfig((16,), 16)
        full = one_gt_record((0, 16))
        out = chance_baseline([full], (0.5, 0.999), trials=5, seed=0, grid_config=whole)
        assert out[0.5] == 1.0 and out[0.999] == 1.0
        part = one_gt_record((0, 6))  # IoU 0.375 with the only proposal
        out = chance_baseline([part], (0.3, 0.5), trials=5, seed=1, grid_config=whole)
        assert out[0.3] == 1.0 and out[0.5] == 0.0

    def test_threshold_zero_matches_enumeration(self):
        grid_config = GridConfig((4, 8), 4)
        rec = one_gt_record((0, 4))
        grid = grid_config.grid_for(16)
        overlapping = sum(
            1 for s in grid.segments if min(s.end, 4) - max(s.start, 0) > 0
        )
        p = overlapping / len(grid)
        trials = 4000
        est = chance_baseline([rec], (0.0,), trials=trials, seed=2,
                              grid_config=grid_config)[0.0]
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(est - p) < 3 * sigma + 1e-9

    def test_exact_match_probability(self):
        grid_config = GridConfig((4, 8), 4)
        grid = grid_config.grid_for(16)
        rec = one_gt_record((4, 8))  # equals exactly one proposal
        trials = 4000
        est = chance_baseline([rec], (0.999,), trials=trials, seed=3,
                              grid_config=grid_config)[0.999]
        p = 1 / len(grid)
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(est - p) < 3 * sigma + 1e-9

    def test_off_grid_truth_never_exact(self):
        rec = one_gt_record((1.5, 6.5))
        est = chance_baseline([rec], (1.0,), trials=64, seed=4,
                              grid_config=GridConfig((4, 8), 4))
        assert est[1.0] == 0.0

    def test_bad_trials_rejected(self):
        with pytest.raises(DataError):
            chance_baseline([one_gt_record((0, 4))], (0.5,), trials=0)


class TestSynthGrid:
    def test_default_grid_proposal_count(self):
        grid = SYNTH_GRID.grid_for(32)
        assert len(grid) == 69
        by_size = {}
        for seg in grid.segments:
            by_size[seg.end - seg.start] = by_size.get(seg.end - seg.start, 0) + 1
        assert by_size == {4: 15, 6: 14, 8: 13, 10: 12, 16: 9, 24: 5, 32: 1}
