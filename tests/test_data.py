import json
import math
import os

import numpy as np
import pytest

from helpers import make_record, one_hot_table, random_table
from momentloc import (
    GT_AUDIT,
    ClipSequence,
    DataConfig,
    DataError,
    EmbeddingTable,
    FrameFeatures,
    Segment,
    Sentence,
    build_clips,
    filter_split,
    load_corpus,
    load_embeddings,
    read_annotations,
    read_features,
    restore_paragraph_order,
    save_corpus,
    save_embeddings,
    tokenize,
    write_annotations,
    write_features,
)
from momentloc import data as data_module
from momentloc.data import SPLITS, read_timestamps


def brute_force_clips(frames, l_c, pool_span):
    f, d = frames.shape
    out = np.zeros((l_c, d))
    valid = 0
    for i in range(l_c):
        anchor = math.ceil(i * f / l_c)
        window = frames[anchor : anchor + pool_span]
        if anchor < f and len(window):
            out[i] = window.max(axis=0)
            valid = i + 1
    return out, valid


class TestBuildClips:
    def test_exact_tiling(self):
        frames = FrameFeatures(np.random.default_rng(0).normal(size=(640, 3)))
        clips = build_clips(frames, 128, 5)
        assert clips.valid_count == 128
        for i in range(128):
            assert np.array_equal(clips.matrix[i], frames.matrix[5 * i : 5 * i + 5].max(axis=0))

    def test_single_frame(self):
        frames = FrameFeatures(np.full((1, 4), 2.0))
        clips = build_clips(frames, 4, 5)
        assert np.array_equal(clips.matrix[0], np.full(4, 2.0))
        assert np.all(clips.matrix[1:] == 0.0)
        assert clips.valid_count == 1

    def test_ramp_windows(self):
        # F=10, L_c=4 puts the window anchors at 0, 3, 5, 8
        frames = FrameFeatures(np.arange(30.0).reshape(10, 3))
        clips = build_clips(frames, 4, 5)
        windows = [(0, 5), (3, 8), (5, 10), (8, 10)]
        for i, (s, e) in enumerate(windows):
            assert np.array_equal(clips.matrix[i], frames.matrix[s:e].max(axis=0))
        assert clips.valid_count == 4

    def test_empty_frames_rejected(self):
        with pytest.raises(DataError):
            FrameFeatures(np.zeros((0, 3)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            f = int(rng.integers(1, 31))
            d = int(rng.integers(1, 5))
            l_c = int(rng.integers(1, 20))
            span = int(rng.integers(1, 7))
            frames = FrameFeatures(rng.normal(size=(f, d)))
            clips = build_clips(frames, l_c, span)
            expect, valid = brute_force_clips(frames.matrix, l_c, span)
            assert clips.matrix.shape == (l_c, d)
            assert np.array_equal(clips.matrix, expect)
            assert clips.valid_count == valid
            assert np.all(clips.matrix[clips.valid_count:] == 0.0)


class TestClipSequence:
    def test_padding_must_be_zero(self):
        with pytest.raises(DataError):
            ClipSequence(np.ones((4, 2)), 2)
        ok = ClipSequence(np.vstack([np.ones((2, 2)), np.zeros((2, 2))]), 2)
        assert ok.l_c == 4

    def test_valid_count_bounds(self):
        with pytest.raises(DataError):
            ClipSequence(np.zeros((4, 2)), 0)
        with pytest.raises(DataError):
            ClipSequence(np.zeros((4, 2)), 5)


class TestTokenize:
    def table(self):
        return one_hot_table(["a", "man", "runs", "dog"], 4)

    def test_direct_lookup(self):
        ts = tokenize("a man runs", self.table(), 20)
        assert ts.matrix.shape == (3, 4)
        assert ts.raw_tokens == ("a", "man", "runs")
        assert np.array_equal(ts.matrix, np.eye(4)[:3])

    def test_truncation(self):
        text = " ".join(["man"] * 25)
        ts = tokenize(text, self.table(), 20)
        assert len(ts) == 20

    def test_oov_zero_row(self):
        ts = tokenize("zzqx runs", self.table(), 20)
        assert np.all(ts.matrix[0] == 0.0)
        assert np.any(ts.matrix[1] != 0.0)

    def test_lowercase_and_punctuation(self):
        ts = tokenize("A man, RUNS!", self.table(), 20)
        assert ts.raw_tokens == ("a", "man", "runs")

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            tokenize("  ,,, ", self.table(), 20)


class TestWireFormats:
    def test_features_round_trip(self, tmp_path):
        m = np.random.default_rng(1).normal(size=(7, 5)).astype(np.float32)
        p = tmp_path / "x.crmf"
        write_features(p, m)
        back = read_features(p)
        assert back.dtype == np.float32
        assert np.array_equal(back, m)

    def test_features_header(self, tmp_path):
        p = tmp_path / "x.crmf"
        write_features(p, np.zeros((2, 2), dtype=np.float32))
        raw = p.read_bytes()
        assert raw[:4] == b"CRMF"
        assert raw[4] == 1
        assert len(raw) == 4 + 1 + 4 + 4 + 2 * 2 * 4

    def test_features_corruption_detected(self, tmp_path):
        p = tmp_path / "x.crmf"
        write_features(p, np.zeros((2, 3), dtype=np.float32))
        raw = bytearray(p.read_bytes())
        raw[0] = ord("X")
        p.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            read_features(p)
        write_features(p, np.zeros((2, 3), dtype=np.float32))
        raw = p.read_bytes()
        for n in range(len(raw)):  # truncated header or payload
            p.write_bytes(raw[:n])
            with pytest.raises(DataError):
                read_features(p)

    def test_failed_feature_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        p = tmp_path / "x.crmf"
        write_features(p, np.ones((2, 3), dtype=np.float32))
        before = p.read_bytes()

        class DiskFull:  # fails after the magic and version bytes are written
            @staticmethod
            def pack(*args):
                raise OSError("disk full")

        monkeypatch.setattr(data_module, "struct", DiskFull)
        with pytest.raises(OSError, match="disk full"):
            write_features(p, np.zeros((4, 3), dtype=np.float32))
        assert p.read_bytes() == before
        assert os.listdir(tmp_path) == ["x.crmf"]

    def test_annotations_round_trip(self, tmp_path):
        doc = {
            "vid1": {"duration": 30.0, "timestamps": [[0.0, 5.5]], "sentences": ["a man runs"]},
        }
        p = tmp_path / "ann.json"
        write_annotations(p, doc)
        assert read_annotations(p) == doc
        # stable bytes for identical docs
        p2 = tmp_path / "ann2.json"
        write_annotations(p2, json.loads(json.dumps(doc)))
        assert p.read_bytes() == p2.read_bytes()

    def test_embeddings_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        table = random_table(["alpha", "beta"], 3, rng)
        p = tmp_path / "emb.txt"
        save_embeddings(p, table)
        back = load_embeddings(p)
        assert back.d_t == 3
        for w in table.words():
            assert np.array_equal(back.lookup(w), table.lookup(w))

    def test_embeddings_malformed(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("alpha 1.0 2.0\nbeta 3.0\n")
        with pytest.raises(DataError):
            load_embeddings(p)
        p.write_text("alpha\nbeta\n")  # words with no values: d_t would be 0
        with pytest.raises(DataError) as exc:
            load_embeddings(p)
        assert str(exc.value).startswith(f"{p}:1: no embedding values")


def write_fixture_corpus(tmp_path, entries, feature_rows):
    """entries: vid -> annotation entry; feature_rows: vid -> frame count."""
    feat_dir = tmp_path / "features"
    os.makedirs(feat_dir, exist_ok=True)
    ann = tmp_path / "annotations.json"
    write_annotations(ann, entries)
    rng = np.random.default_rng(0)
    for vid, rows in feature_rows.items():
        write_features(feat_dir / f"{vid}.crmf", rng.normal(size=(rows, 3)).astype(np.float32))
    return ann, feat_dir


class TestLoadCorpus:
    CFG = DataConfig(l_c=8, pool_span=2, max_sentence_len=20)

    def table(self):
        return one_hot_table(["a", "man", "runs", "sits"], 3)

    def test_two_video_fixture(self, tmp_path):
        entries = {
            "v1": {"duration": 10.0, "timestamps": [[0, 4], [5, 9]],
                   "sentences": ["a man runs", "a man sits"]},
            "v2": {"duration": 8.0, "timestamps": [[1, 3], [4, 7]],
                   "sentences": ["man sits", "man runs"], "split": "test"},
        }
        ann, feat = write_fixture_corpus(tmp_path, entries, {"v1": 16, "v2": 16})
        result = load_corpus(ann, feat, self.table(), self.CFG)
        assert result.skip_count == 0
        assert [r.id for r in result.records] == ["v1", "v2"]
        assert all(len(r.paragraph) == 2 for r in result.records)
        assert result.records[1].split == "test"
        assert result.records[0].paragraph[1].gt_segment == Segment(5.0, 9.0)

    def test_reversed_timestamp_skipped(self, tmp_path):
        entries = {
            "bad": {"duration": 10.0, "timestamps": [[5, 2]], "sentences": ["a man runs"]},
            "good": {"duration": 10.0, "timestamps": [[1, 2]], "sentences": ["a man runs"]},
        }
        ann, feat = write_fixture_corpus(tmp_path, entries, {"bad": 8, "good": 8})
        result = load_corpus(ann, feat, self.table(), self.CFG)
        assert [r.id for r in result.records] == ["good"]
        assert result.skip_count == 1
        assert result.skipped[0][0] == "bad"

    @pytest.mark.parametrize("bad", [["a", 5], [None, 5], [[1], 5], [10**400, 5], ["1", "5"],
                                     [True, 5], [1, False], [0, float("inf")],
                                     [float("nan"), 5], [float("-inf"), 5]])
    def test_non_numeric_timestamp_skipped(self, tmp_path, bad):
        entries = {
            "bad": {"duration": 10.0, "timestamps": [bad], "sentences": ["a man runs"]},
            "good": {"duration": 10.0, "timestamps": [[1, 2]], "sentences": ["a man runs"]},
        }
        ann, feat = write_fixture_corpus(tmp_path, entries, {"bad": 8, "good": 8})
        result = load_corpus(ann, feat, self.table(), self.CFG)
        assert [r.id for r in result.records] == ["good"]
        assert result.skipped == (("bad", f"bad: timestamp {bad!r} is not a pair of numbers"),)

    def test_huge_integer_duration_skipped(self, tmp_path):
        entries = {vid: {"duration": 5.0, "timestamps": [[0, 2]], "sentences": ["man runs"]}
                   for vid in ("good", "huge")}
        entries["huge"]["duration"] = 10**400  # no float holds it
        ann, feat = write_fixture_corpus(tmp_path, entries, {"good": 8, "huge": 8})
        result = load_corpus(ann, feat, self.table(), self.CFG)
        assert [r.id for r in result.records] == ["good"]
        assert result.skipped == (("huge", "huge: missing or non-numeric duration"),)

    def test_missing_feature_file_skipped(self, tmp_path):
        entries = {
            "v1": {"duration": 5.0, "timestamps": [[0, 2]], "sentences": ["man runs"]},
            "v2": {"duration": 5.0, "timestamps": [[0, 2]], "sentences": ["man runs"]},
        }
        ann, feat = write_fixture_corpus(tmp_path, entries, {"v1": 8})
        result = load_corpus(ann, feat, self.table(), self.CFG)
        assert [r.id for r in result.records] == ["v1"]
        assert result.skip_count == 1

    def test_truncated_feature_file_skipped(self, tmp_path):
        entries = {vid: {"duration": 5.0, "timestamps": [[0, 2]], "sentences": ["man runs"]}
                   for vid in ("v1", "v2")}
        ann, feat = write_fixture_corpus(tmp_path, entries, {"v1": 8, "v2": 2})
        raw = (feat / "v2.crmf").read_bytes()
        for n in range(len(raw)):
            (feat / "v2.crmf").write_bytes(raw[:n])
            result = load_corpus(ann, feat, self.table(), self.CFG)
            assert [r.id for r in result.records] == ["v1"]
            assert [vid for vid, _ in result.skipped] == ["v2"]

    @pytest.mark.parametrize("widths, kept", [
        ({"a": 5, "b": 3, "c": 3}, ["b", "c"]),  # the most common width wins
        ({"a": 3, "b": 5}, ["a"]),  # a tie goes to the first id's width
    ])
    def test_one_feature_width_per_corpus(self, tmp_path, widths, kept):
        entries = {vid: {"duration": 5.0, "timestamps": [[0, 2]], "sentences": ["man runs"]}
                   for vid in widths}
        ann, feat = write_fixture_corpus(tmp_path, entries, {})
        for vid, width in widths.items():
            write_features(feat / f"{vid}.crmf", np.ones((8, width), dtype=np.float32))
        result = load_corpus(ann, feat, self.table(), self.CFG)
        assert [r.id for r in result.records] == kept
        keep = widths[kept[0]]
        assert result.skipped == tuple(
            (vid, f"{vid}: feature width {w} differs from the corpus's {keep}")
            for vid, w in widths.items() if vid not in kept)

    @pytest.mark.parametrize("bad", [["1", "5"], [True, 5], [0, float("inf")]])
    def test_unbounded_rule_rejects_non_numbers(self, bad):
        # analyze reads the rule with no duration bound
        with pytest.raises(DataError, match="is not a pair of numbers"):
            read_timestamps("v", {"timestamps": [[0, 1], bad]})

    def test_timestamp_outside_duration_skipped(self, tmp_path):
        entries = {"v": {"duration": 5.0, "timestamps": [[0, 9]], "sentences": ["man runs"]}}
        ann, feat = write_fixture_corpus(tmp_path, entries, {"v": 8})
        result = load_corpus(ann, feat, self.table(), self.CFG)
        assert result.records == () or len(result.records) == 0
        assert result.skip_count == 1

    def test_infinite_duration_skipped(self, tmp_path):
        entries = {vid: {"duration": 5.0, "timestamps": [[0, 2]], "sentences": ["man runs"]}
                   for vid in ("good", "huge")}
        entries["huge"]["duration"] = "HUGE"
        ann, feat = write_fixture_corpus(tmp_path, entries, {"good": 8, "huge": 8})
        ann.write_text(ann.read_text().replace('"HUGE"', "1e400"))  # parses as inf
        result = load_corpus(ann, feat, self.table(), self.CFG)
        assert [r.id for r in result.records] == ["good"]
        assert result.skipped == (("huge", "huge: duration must be finite and > 0, got inf"),)

    def test_valid_count_follows_frame_counts(self, tmp_path):
        entries = {
            "short": {"duration": 5.0, "timestamps": [[0, 2]], "sentences": ["man runs"]},
            "long": {"duration": 5.0, "timestamps": [[0, 2]], "sentences": ["man runs"]},
        }
        ann, feat = write_fixture_corpus(tmp_path, entries, {"short": 3, "long": 16})
        result = load_corpus(ann, feat, self.table(), self.CFG)
        by_id = {r.id: r for r in result.records}
        # l_c=8: anchors ceil(3i/8) stay below 3 through i=5, so 6 valid clips
        assert by_id["short"].clips.valid_count == 6
        assert by_id["long"].clips.valid_count == 8

    def test_save_load_round_trip(self, tmp_path):
        entries = {
            "v1": {"duration": 8.0, "timestamps": [[0, 4], [5, 8]],
                   "sentences": ["a man runs", "a man sits"]},
            "v2": {"duration": 8.0, "timestamps": [[1, 3]], "sentences": ["man sits"],
                   "split": "val"},
        }
        # 8 frames, l_c=8, span 1: valid_count == l_c so re-pooling is identity
        cfg = DataConfig(l_c=8, pool_span=1, max_sentence_len=20)
        ann, feat = write_fixture_corpus(tmp_path, entries, {"v1": 8, "v2": 8})
        first = load_corpus(ann, feat, self.table(), cfg).records
        out = tmp_path / "echo"
        save_corpus(first, self.table(), out)
        second = load_corpus(out / "annotations.json", out / "features",
                             load_embeddings(out / "embeddings.txt"), cfg).records
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.id == b.id and a.duration == b.duration and a.split == b.split
            assert np.array_equal(a.clips.matrix, b.clips.matrix)
            assert a.clips.valid_count == b.clips.valid_count
            for sa, sb in zip(a.paragraph, b.paragraph):
                assert sa.gt_segment == sb.gt_segment
                assert sa.tokens.raw_tokens == sb.tokens.raw_tokens
                assert np.array_equal(sa.tokens.matrix, sb.tokens.matrix)


class TestRestoreOrder:
    def make(self, starts, ends=None):
        ends = ends or [s + 1 for s in starts]
        sentences = [(np.eye(3)[i % 3], (s, e)) for i, (s, e) in enumerate(zip(starts, ends))]
        return make_record(np.ones((8, 3)), sentences, duration=max(ends) + 1)

    def original_index(self, record, restored):
        tokens = [tuple(s.tokens.matrix[0]) for s in record.paragraph]
        return [tokens.index(tuple(s.tokens.matrix[0])) for s in restored.paragraph]

    def test_sort_by_start(self):
        rec = self.make([30, 10, 20])
        out = restore_paragraph_order(rec)
        assert self.original_index(rec, out) == [1, 2, 0]
        assert [s.position for s in out.paragraph] == [0, 1, 2]

    def test_identity_when_ordered(self):
        rec = self.make([0, 5])
        out = restore_paragraph_order(rec)
        assert self.original_index(rec, out) == [0, 1]

    def test_tie_by_end_time(self):
        rec = self.make([10, 10], ends=[20, 15])
        out = restore_paragraph_order(rec)
        assert self.original_index(rec, out) == [1, 0]

    def test_tie_by_annotation_index(self):
        rec = self.make([10, 10], ends=[15, 15])
        out = restore_paragraph_order(rec)
        assert self.original_index(rec, out) == [0, 1]

    def test_idempotent_and_sorted(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            starts = [int(s) for s in rng.integers(0, 50, size=4)]
            rec = self.make(starts)
            once = restore_paragraph_order(rec)
            twice = restore_paragraph_order(once)
            got = [s.gt_segment.start for s in once.paragraph]
            assert got == sorted(got)
            assert self.original_index(rec, once) == self.original_index(rec, twice)

    def test_missing_gt_rejected(self):
        rec = make_record(np.ones((4, 2)), [(np.ones(2), None)])
        with pytest.raises(DataError):
            restore_paragraph_order(rec)


class TestAudit:
    def test_gt_access_counts(self):
        rec = make_record(np.ones((4, 2)), [(np.ones(2), (0, 2))])
        before = GT_AUDIT.count
        restore_paragraph_order(rec)  # ordering reads boundaries without the audit
        assert GT_AUDIT.count == before
        _ = rec.paragraph[0].gt_segment
        assert GT_AUDIT.count == before + 1


class TestRecordBasics:
    def test_split_validation(self):
        assert SPLITS == ("train", "val", "test")
        with pytest.raises(DataError):
            make_record(np.ones((4, 2)), [(np.ones(2), None)], split="dev")

    def test_position_validation(self):
        clips = ClipSequence(np.ones((4, 2)), 4)
        s0 = Sentence(tokenize("a", one_hot_table(["a"], 2), 5), 1)
        with pytest.raises(DataError):
            from momentloc import VideoRecord

            VideoRecord("x", 4.0, clips, [s0])

    def test_filter_split(self):
        recs = [
            make_record(np.ones((4, 2)), [(np.ones(2), None)], vid=f"v{i}",
                        split=s)
            for i, s in enumerate(["train", "test", "train"])
        ]
        assert [r.id for r in filter_split(recs, "train")] == ["v0", "v2"]
        assert [r.id for r in filter_split(recs, None)] == ["v0", "v1", "v2"]

    def test_embedding_table_contract(self):
        table = EmbeddingTable({"a": [1.0, 0.0]}, 2)
        assert np.array_equal(table.lookup("a"), [1.0, 0.0])
        assert np.array_equal(table.lookup("b"), np.zeros(2))
        with pytest.raises(DataError):
            EmbeddingTable({"a": [1.0]}, 2)
