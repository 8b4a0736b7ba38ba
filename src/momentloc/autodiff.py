"""Minimal reverse-mode automatic differentiation over numpy arrays.

A tape-based engine sized for this package: float64 values and exactly the
operations the matching network and its losses need. Matrix ops work on the
last two axes and accept one optional leading batch axis, so a whole
training batch of (video, query) pairs runs as ``(pairs, rows, dim)``
tensors through the same ops as a single pair's ``(rows, dim)`` matrices. A
2-D right operand of ``matmul`` is a weight shared by the batch; its
gradient is one GEMM over the batch's rows reshaped into one matrix. The
gather op ``pick`` selects rows along the first axis (one index, or an
index array with repeats) and scatters its gradient back with
``np.add.at``, which is how a batch reuses one video's encoding in several
pairs.

The op contract. An op computes its forward value and returns
``Tensor(value, parents, backward)``. ``backward(g)`` takes the gradient of
the op's output and returns its local gradients: one per parent, in parent
order, each shaped like that parent. It writes nothing. Only ``add`` and
``mul`` broadcast, so only they sum their gradients back down with
``_unbroadcast``. :func:`backward` is the one place that touches ``.grad``: a
reverse topological sweep that keeps a gradient's first arrival at a node
as it is (never writing to it), sums the second into a fresh array and adds
later arrivals to that array in place.

To add an op, wrap its inputs with ``as_tensor``, compute the value, and
define its backward inside the op function: a node is named by the first
part of ``_backward.__qualname__``. Then list the op in the contract table
of ``tests/test_autodiff.py``.

The max-style operations (segment_max, max_rows) route gradients to the
first arg-max element, which keeps training deterministic under ties.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A node in the computation graph: a float64 array plus its gradient."""

    __slots__ = ("value", "grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = value
        self.grad = None
        self.parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape}, leaf={self._backward is None})"


def constant(x) -> Tensor:
    """Wrap a value as a graph leaf (no gradient tracked beyond it)."""
    return Tensor(np.asarray(x, dtype=np.float64))


# Parameters are leaves too; the distinction is only who reads .grad afterwards.
parameter = constant


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (reverses numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.value + b.value, (a, b), lambda g: (
        _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.value * b.value, (a, b), lambda g: (
        _unbroadcast(g * b.value, a.value.shape), _unbroadcast(g * a.value, b.value.shape)))


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    return Tensor(a.value * c, (a,), lambda g: (g * c,))


def _swap(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def _rows(x: np.ndarray) -> np.ndarray:
    """All rows of a (batch of) matrices as one matrix."""
    return x.reshape(-1, x.shape[-1])


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes.

    ``a`` may carry a leading batch axis. ``b`` either carries the same one
    or is a 2-D matrix shared by the batch, which is applied to all rows of
    the batch in one GEMM, forward and backward.
    """
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.value, b.value
    if av.ndim > bv.ndim:
        out_value = (_rows(av) @ bv).reshape(av.shape[:-1] + bv.shape[-1:])

        def backward(g):
            return (_rows(g) @ bv.T).reshape(av.shape), _rows(av).T @ _rows(g)
    else:
        out_value = av @ bv

        def backward(g):
            return g @ _swap(bv), _swap(av) @ g

    return Tensor(out_value, (a, b), backward)


def matvec(a, v) -> Tensor:
    """(..., m, n) @ (n,) -> (..., m); a vector ``a`` gives the 0-d dot product."""
    a, v = as_tensor(a), as_tensor(v)
    av, vv = a.value, v.value
    return Tensor(av @ vv, (a, v), lambda g: (
        g[..., None] * vv, _rows(av).T @ g.reshape(-1)))


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = as_tensor(a)
    return Tensor(_swap(a.value), (a,), lambda g: (_swap(g),))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.value.shape
    return Tensor(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat_cols(parts) -> Tensor:
    """Concatenation along the last axis of blocks with equal leading shapes."""
    parts = tuple(as_tensor(p) for p in parts)
    cuts = np.cumsum([p.value.shape[-1] for p in parts])[:-1]
    out_value = np.concatenate([p.value for p in parts], axis=-1)
    return Tensor(out_value, parts, lambda g: np.split(g, cuts, axis=-1))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.value
    e = np.exp(-np.abs(x))
    out_value = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return Tensor(out_value, (a,), lambda g: (g * out_value * (1.0 - out_value),))


def neg_log(a, eps: float, complement: bool = False) -> Tensor:
    """-log p, or -log(1 - p) with ``complement``, where p is ``a`` clipped to
    [eps, 1 - eps]; gradient passes only where the clip is inactive."""
    a = as_tensor(a)
    inside = (a.value > eps) & (a.value < 1.0 - eps)
    p = np.clip(a.value, eps, 1.0 - eps)
    if complement:
        q = 1.0 - p
        return Tensor(-np.log(q), (a,), lambda g: ((g / q) * inside,))
    return Tensor(-np.log(p), (a,), lambda g: ((-g / p) * inside,))


def softmax_rows(a, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis; masked entries get weight 0.

    ``mask`` is boolean and broadcasts against ``a`` (True = attendable):
    a vector over columns, or ``(batch, 1, columns)`` for one mask per
    batch entry. Raises when some row has every column masked out.
    """
    a = as_tensor(a)
    logits = a.value
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not np.broadcast_to(mask, logits.shape).any(axis=-1).all():
            raise ValueError("softmax over fully masked reference")
        logits = np.where(mask, logits, -np.inf)
    out_value = logits - logits.max(axis=-1, keepdims=True)
    np.exp(out_value, out=out_value)
    out_value /= out_value.sum(axis=-1, keepdims=True)

    def backward(g):
        ga = g - (g * out_value).sum(axis=-1, keepdims=True)
        ga *= out_value
        return (ga,)

    return Tensor(out_value, (a,), backward)


def segment_max(a, segments) -> Tensor:
    """Per-segment column-wise max over the rows (axis -2) of ``a``.

    ``segments`` is a sequence of half-open (start, end) row ranges; output
    row k is ``a[..., start_k:end_k, :].max(axis=-2)``. All segments of one
    length are read from one strided view of every window of that length.
    Gradients flow to the first arg-max row of each (segment, column); the
    arg-max is only searched for when the backward pass asks for it.
    """
    a = as_tensor(a)
    x = a.value
    bounds = np.asarray(segments, dtype=np.int64).reshape(-1, 2)
    starts, lengths = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    groups = [(int(w), np.flatnonzero(lengths == w)) for w in np.unique(lengths)]

    def windows(w, ks):
        """(..., len(ks), columns, w): the rows of segments ks, last axis."""
        return np.lib.stride_tricks.sliding_window_view(x, w, axis=-2)[..., starts[ks], :, :]

    out_value = np.empty(x.shape[:-2] + (len(bounds), x.shape[-1]))
    for w, ks in groups:
        out_value[..., ks, :] = windows(w, ks).max(axis=-1)

    def backward(g):
        argrows = np.empty(out_value.shape, dtype=np.int64)
        for w, ks in groups:
            argrows[..., ks, :] = starts[ks, None] + windows(w, ks).argmax(axis=-1)
        # Flat index of each output's source element; bincount adds them up
        # in output order, segment by segment.
        n_rows, n_cols = x.shape[-2:]
        batch_rows = n_rows * np.arange(x.size // (n_rows * n_cols)).reshape(x.shape[:-2] + (1, 1))
        flat = ((batch_rows + argrows) * n_cols + np.arange(n_cols)).ravel()
        return (np.bincount(flat, weights=g.ravel(), minlength=x.size).reshape(x.shape),)

    return Tensor(out_value, (a,), backward)


def max_rows(a, mask: np.ndarray | None = None) -> Tensor:
    """Column-wise max over the rows (axis -2): (..., rows, cols) -> (..., cols).

    ``mask`` is boolean and broadcasts against ``a``; only True entries
    compete. Raises when some column has no True entry.
    """
    a = as_tensor(a)
    x = a.value
    if mask is None:
        idx = x.argmax(axis=-2)
    else:
        mask = np.asarray(mask, dtype=bool)
        if not np.broadcast_to(mask, x.shape).any(axis=-2).all():
            raise ValueError("max_rows over an empty selection")
        idx = np.where(mask, x, -np.inf).argmax(axis=-2)
    idx = idx[..., None, :]
    out_value = np.take_along_axis(x, idx, axis=-2)[..., 0, :]

    def backward(g):
        ga = np.zeros_like(x)
        np.put_along_axis(ga, idx, g[..., None, :], axis=-2)
        return (ga,)

    return Tensor(out_value, (a,), backward)


def pick(a, index) -> Tensor:
    """Gather along the first axis: ``a[index]``.

    An int selects one entry (a 0-d scalar from a vector); an int array
    gathers entries, repeats allowed. The gradient is scattered back with
    ``np.add.at``, so a repeated entry sums its gradients.
    """
    a = as_tensor(a)
    x = a.value

    def backward(g):
        ga = np.zeros_like(x)
        np.add.at(ga, index, g)
        return (ga,)

    return Tensor(np.asarray(x[index]), (a,), backward)


def sum_all(a) -> Tensor:
    """Sum of every element -> 0-d scalar."""
    a = as_tensor(a)
    shape = a.value.shape
    return Tensor(np.asarray(a.value.sum()), (a,), lambda g: (np.full(shape, g),))


def backward(root: Tensor):
    """Reverse-mode sweep seeding d(root)/d(root) = 1. Root must be 0-d."""
    if root.value.shape != ():
        raise ValueError("backward expects a scalar root")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones((), dtype=np.float64)
    # A first arrival is stored as is: it may be a view of another node's
    # gradient, so it is never written to. A second arrival makes a fresh
    # sum that this sweep owns, and later ones add into it in place.
    owned: set[int] = set()
    for node in reversed(topo):
        if node._backward is None:
            continue
        for parent, g in zip(node.parents, node._backward(node.grad)):
            if parent.grad is None:
                parent.grad = np.asarray(g, dtype=np.float64)
            elif id(parent) in owned:
                parent.grad += g
            else:
                parent.grad = np.asarray(parent.grad + g, dtype=np.float64)
                owned.add(id(parent))
