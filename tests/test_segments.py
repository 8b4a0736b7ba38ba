

import numpy as np
import pytest

from momentloc import (
    GridConfig,
    Segment,
    clips_to_seconds,
    generate_proposals,
    hull,
    iou,
    order_relation,
    query_order,
)


def brute_force_placements(l_c, sizes, stride):
    # independent enumeration: slide each window until it falls off the end
    out = []
    for w in sizes:
        if w > l_c:
            continue
        start = 0
        while start + w <= l_c:
            out.append((start, start + w))
            start += stride
    return out


def random_segment(rng, hi=20):
    start = int(rng.integers(0, hi))
    return Segment(start, start + 1 + int(rng.integers(0, hi)))


class TestSegment:
    def test_validation(self):
        with pytest.raises(ValueError):
            Segment(4, 4)
        with pytest.raises(ValueError):
            Segment(5, 2)
        with pytest.raises(ValueError):
            Segment(-1, 2)
        assert Segment(0, 1).end == 1
        assert Segment(2.5, 7.25).start == 2.5  # seconds are fine too

    def test_iou_examples(self):
        assert iou(Segment(3, 9), Segment(3, 9)) == 1.0
        assert iou(Segment(0, 4), Segment(4, 8)) == 0.0
        assert abs(iou(Segment(0, 10), Segment(5, 15)) - 1 / 3) < 1e-12

    def test_iou_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = random_segment(rng), random_segment(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0
            # clip-set oracle: count covered integer indices directly
            ca, cb = set(range(a.start, a.end)), set(range(b.start, b.end))
            assert v == pytest.approx(len(ca & cb) / len(ca | cb), abs=1e-12)
        assert iou(a, a) == 1.0

    def test_hull(self):
        assert hull(Segment(0, 4), Segment(8, 12)) == Segment(0, 12)
        assert hull(Segment(0, 10), Segment(2, 4)) == Segment(0, 10)
        assert hull(Segment(0, 6), Segment(4, 10)) == Segment(0, 10)

    def test_hull_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = random_segment(rng, 30), random_segment(rng, 30)
            h = hull(a, b)
            assert h == hull(b, a)
            assert hull(a, a) == a
            assert h.start <= min(a.start, b.start) and h.end >= max(a.end, b.end)
            assert iou(h, a) > 0 and iou(h, b) > 0  # contains both

    def test_order_relation(self):
        assert order_relation(Segment(0, 8), Segment(8, 16)) == 0
        assert order_relation(Segment(8, 16), Segment(0, 8)) == 1
        assert order_relation(Segment(4, 8), Segment(4, 20)) == 1  # equal starts

    def test_order_relation_antisymmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = random_segment(rng, 30), random_segment(rng, 30)
            if a.start != b.start:
                assert order_relation(a, b) + order_relation(b, a) == 1

    def test_query_order(self):
        assert query_order(0, 1) == 0
        assert query_order(2, 1) == 1
        assert query_order(1, 1) == 1


class TestGenerateProposals:
    def test_single_full_window(self):
        grid = generate_proposals(8, (8,), 8)
        assert [(s.start, s.end) for s in grid.segments] == [(0, 8)]

    def test_grid_128(self):
        grid = generate_proposals(128, (8, 12, 20, 32, 64), 8)
        assert len(grid) == 67
        per_size = {w: sum(1 for s in grid.segments if s.end - s.start == w)
                    for w in (8, 12, 20, 32, 64)}
        assert per_size == {8: 16, 12: 15, 20: 14, 32: 13, 64: 9}

    def test_grid_256(self):
        grid = generate_proposals(256, (8, 16, 32, 64, 128), 8)
        assert len(grid) == 134
        per_size = {w: sum(1 for s in grid.segments if s.end - s.start == w)
                    for w in (8, 16, 32, 64, 128)}
        assert per_size == {8: 32, 16: 31, 32: 29, 64: 25, 128: 17}

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            l_c = int(rng.integers(4, 64))
            sizes = tuple(sorted(set(int(x) for x in rng.integers(1, l_c + 1, size=3))))
            stride = int(rng.integers(1, 9))
            grid = generate_proposals(l_c, sizes, stride)
            got = [(s.start, s.end) for s in grid.segments]
            assert got == brute_force_placements(l_c, sizes, stride)
            assert len(set(got)) == len(got)  # no duplicates
            for s in grid.segments:
                assert 0 <= s.start < s.end <= l_c
            # closed-form count per size
            for w in sizes:
                expect = (l_c - w) // stride + 1
                assert sum(1 for s in grid.segments if s.end - s.start == w) == expect

    def test_ordering_by_size_then_start(self):
        grid = generate_proposals(16, (4, 8), 4)
        keyed = [(s.end - s.start, s.start) for s in grid.segments]
        assert keyed == sorted(keyed)

    def test_oversized_window_skipped_with_warning(self):
        with pytest.warns(UserWarning):
            grid = generate_proposals(8, (4, 16), 4)
        assert all(s.end - s.start == 4 for s in grid.segments)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_proposals(8, (4,), 0)
        with pytest.raises(ValueError):
            generate_proposals(8, (0,), 2)

    def test_cached_grid_reuses_instances(self):
        a = GridConfig((4, 8), 2).grid_for(32)
        b = GridConfig((4, 8), 2).grid_for(32)
        assert a is b

    def test_grid_config(self):
        cfg = GridConfig((4, 8), 2)
        grid = cfg.grid_for(16)
        assert len(grid) == len(generate_proposals(16, (4, 8), 2))

    def test_order_matrix_matches_pairwise(self):
        grid = generate_proposals(24, (4, 8, 12), 4)
        mat = grid.order_matrix()
        for i, a in enumerate(grid.segments):
            for k, b in enumerate(grid.segments):
                assert mat[i, k] == order_relation(a, b)

    def test_iou_with_matches_loop(self):
        grid = generate_proposals(24, (4, 8, 12), 4)
        target = Segment(5, 14)
        got = grid.iou_with(target)
        expect = [iou(s, target) for s in grid.segments]
        assert np.allclose(got, expect, atol=1e-12)


class TestClipsToSeconds:
    def test_proportional(self):
        assert clips_to_seconds(Segment(0, 8), 64.0, 128) == (0.0, 4.0)

    def test_full_video(self):
        assert clips_to_seconds(Segment(0, 128), 30.0, 128) == (0.0, 30.0)

    def test_padded_region_example(self):
        seg = Segment(96, 128)
        assert clips_to_seconds(seg, 30.0, 128) == (22.5, 30.0)

    def test_clamped_to_duration(self):
        start, end = clips_to_seconds(Segment(0, 10), 7.5, 10)
        assert 0.0 <= start <= end <= 7.5
