"""Temporal segment algebra.

Everything that deals with half-open intervals on the clip grid lives here:
sliding-window proposal generation, IoU, interval hulls, order relations and
the clip -> seconds conversion used when comparing predictions against
second-valued ground truth.

Segments are half-open ``[start, end)`` in clip units. Most functions also
accept plain ``(start, end)`` pairs (ints or floats) so they can be reused on
second-valued intervals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True, order=True)
class Segment:
    """Half-open temporal interval in clip units."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"invalid segment ({self.start}, {self.end})")


def _bounds(seg) -> tuple[float, float]:
    """Extract (start, end) from a Segment or a plain pair."""
    if isinstance(seg, Segment):
        return seg.start, seg.end
    s, e = seg
    return s, e


def iou(a, b) -> float:
    """Temporal intersection-over-union of two intervals (same unit).

    Computed as max(0, min(e_a, e_b) - max(s_a, s_b)) / (max(e_a, e_b) -
    min(s_a, s_b)). Touching intervals have IoU 0.
    """
    sa, ea = _bounds(a)
    sb, eb = _bounds(b)
    inter = min(ea, eb) - max(sa, sb)
    if inter <= 0:
        return 0.0
    union = max(ea, eb) - min(sa, sb)
    return float(inter) / float(union)


def hull(a, b):
    """Smallest contiguous interval containing both inputs.

    Returns a Segment when both inputs are Segments, else a (start, end) pair.
    """
    sa, ea = _bounds(a)
    sb, eb = _bounds(b)
    if isinstance(a, Segment) and isinstance(b, Segment):
        return Segment(min(sa, sb), max(ea, eb))
    return (min(sa, sb), max(ea, eb))


def order_relation(a, b) -> int:
    """0 iff ``a`` starts strictly before ``b``, else 1 (ties give 1)."""
    sa, _ = _bounds(a)
    sb, _ = _bounds(b)
    return 0 if sa < sb else 1


def query_order(j: int, j_prime: int) -> int:
    """Order indicator for paragraph positions: 1 iff j >= j'."""
    return 1 if j >= j_prime else 0


@dataclass(frozen=True)
class ProposalGrid:
    """Fixed sliding-window proposal enumeration over an L_c clip grid.

    ``segments`` is ordered by window size then start; ``starts``/``ends``
    expose the same data as arrays for vectorised geometry.
    """

    segments: tuple[Segment, ...]
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        starts = np.array([s.start for s in self.segments], dtype=np.int64)
        ends = np.array([s.end for s in self.segments], dtype=np.int64)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)

    def __len__(self) -> int:
        return len(self.segments)

    def order_matrix(self) -> np.ndarray:
        """(L_s, L_s) matrix of order_relation(S_k, S_k') values."""
        before = self.starts[:, None] < self.starts[None, :]
        return np.where(before, 0, 1).astype(np.int8)

    def iou_with(self, seg) -> np.ndarray:
        """Vector of IoU(proposal_k, seg) over the whole grid."""
        s, e = _bounds(seg)
        inter = np.minimum(self.ends, e) - np.maximum(self.starts, s)
        union = np.maximum(self.ends, e) - np.minimum(self.starts, s)
        return np.maximum(inter, 0) / union


def generate_proposals(l_c: int, window_sizes, stride: int) -> ProposalGrid:
    """Enumerate sliding-window proposals over an ``l_c``-clip video.

    For each window size w, segments (k*stride, k*stride + w) for
    k = 0 .. floor((l_c - w) / stride); ordered by size then start. Window
    sizes larger than ``l_c`` are skipped with a warning.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    segments: list[Segment] = []
    for w in window_sizes:
        if w < 1:
            raise ValueError(f"window size must be >= 1, got {w}")
        if w > l_c:
            warnings.warn(f"window size {w} exceeds clip count {l_c}; skipped")
            continue
        for k in range((l_c - w) // stride + 1):
            segments.append(Segment(k * stride, k * stride + w))
    return ProposalGrid(tuple(segments))


_GRID_CACHE: dict[tuple, ProposalGrid] = {}


@dataclass(frozen=True)
class GridConfig:
    """Sliding-window grid settings shared by training and evaluation.

    These are the ``[model]`` keys ``window_sizes`` and ``stride``; a bad
    value raises ConfigError naming its key.
    """

    window_sizes: tuple[int, ...] = (8, 12, 20, 32, 64)
    stride: int = 8

    def __post_init__(self):
        if self.stride < 1:
            raise ConfigError(f"[model] stride must be >= 1, got {self.stride}",
                              key="model.stride")
        if not self.window_sizes or min(self.window_sizes) < 1:
            raise ConfigError("[model] window_sizes must be one or more sizes >= 1, got "
                              f"{list(self.window_sizes)}", key="model.window_sizes")

    def grid_for(self, l_c: int) -> ProposalGrid:
        """The proposal grid over ``l_c`` clips, built once per (l_c, sizes, stride)."""
        key = (l_c, tuple(self.window_sizes), self.stride)
        if key not in _GRID_CACHE:
            _GRID_CACHE[key] = generate_proposals(l_c, self.window_sizes, self.stride)
        grid = _GRID_CACHE[key]
        if not len(grid):
            raise ConfigError(f"[model] window_sizes {list(self.window_sizes)}: no window "
                              f"fits l_c = {l_c} clips", key="model.window_sizes")
        return grid


def clips_to_seconds(seg, duration: float, l_c: int) -> tuple[float, float]:
    """Map a clip-unit segment to seconds, clamped to [0, duration]."""
    s, e = _bounds(seg)
    start = min(max(s * duration / l_c, 0.0), duration)
    end = min(max(e * duration / l_c, 0.0), duration)
    return (start, end)
