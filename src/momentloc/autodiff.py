"""Minimal reverse-mode automatic differentiation over numpy arrays.

A tape-based engine sized for this package: float64 values, 2-D matrices /
1-D vectors / 0-d scalars, and exactly the operations the matching network
and its losses need.

The op contract. An op computes its forward value and returns
``Tensor(value, parents, backward)``. ``backward(g)`` takes the gradient of
the op's output and returns its local gradients: one per parent, in parent
order, each shaped like that parent. It writes nothing. Only ``add`` and
``mul`` broadcast, so only they sum their gradients back down with
``_unbroadcast``. :func:`backward` is the one place that touches ``.grad``: a
reverse topological sweep that copies a gradient on its first arrival at a
node and adds later arrivals in place.

To add an op, wrap its inputs with ``as_tensor``, compute the value, and
define its backward inside the op function: a node is named by the first
part of ``_backward.__qualname__``. Then list the op in the contract table
of ``tests/test_autodiff.py``.

Max-style operations (segment_max, max_rows, masked_max) route gradients to
the first arg-max element, which keeps training deterministic under ties.
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


def _scatter(shape: tuple, index, g) -> np.ndarray:
    """Zeros of ``shape`` with ``g`` placed at ``index``."""
    ga = np.zeros(shape)
    ga[index] = g
    return ga


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.value + b.value, (a, b), lambda g: (
        _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)))


def add_n(terms) -> Tensor:
    """Sum of same-shaped tensors as a single node."""
    terms = tuple(as_tensor(t) for t in terms)
    out_value = terms[0].value.copy()
    for t in terms[1:]:
        out_value += t.value
    return Tensor(out_value, terms, lambda g: (g,) * len(terms))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(-a.value, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.value * b.value, (a, b), lambda g: (
        _unbroadcast(g * b.value, a.value.shape), _unbroadcast(g * a.value, b.value.shape)))


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    return Tensor(a.value * c, (a,), lambda g: (g * c,))


def rsub_const(c: float, a) -> Tensor:
    """c - a."""
    a = as_tensor(a)
    return Tensor(float(c) - a.value, (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    """2-D @ 2-D matrix product."""
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.value @ b.value, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


def matvec(a, v) -> Tensor:
    """(m, n) @ (n,) -> (m,)."""
    a, v = as_tensor(a), as_tensor(v)
    return Tensor(a.value @ v.value, (a, v), lambda g: (np.outer(g, v.value), a.value.T @ g))


def transpose(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.value.T, (a,), lambda g: (g.T,))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.value.shape
    return Tensor(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat_cols(parts) -> Tensor:
    """Horizontal concatenation of 2-D blocks with equal row counts."""
    parts = tuple(as_tensor(p) for p in parts)
    cuts = np.cumsum([p.value.shape[1] for p in parts])[:-1]
    out_value = np.concatenate([p.value for p in parts], axis=1)
    return Tensor(out_value, parts, lambda g: np.split(g, cuts, axis=1))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.value
    out_value = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                         np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return Tensor(out_value, (a,), lambda g: (g * out_value * (1.0 - out_value),))


def log(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(np.log(a.value), (a,), lambda g: (g / a.value,))


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values; gradient passes only where the clamp is inactive."""
    a = as_tensor(a)
    inside = (a.value > lo) & (a.value < hi)
    return Tensor(np.clip(a.value, lo, hi), (a,), lambda g: (g * inside,))


def softmax_rows(a, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax over a 2-D tensor; masked columns get weight 0.

    ``mask`` is a boolean vector over columns, True = attendable. Raises when
    every column is masked out.
    """
    a = as_tensor(a)
    logits = a.value
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            raise ValueError("softmax over fully masked reference")
        logits = np.where(mask[None, :], logits, -np.inf)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    out_value = expv / expv.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * out_value).sum(axis=1, keepdims=True)
        return (out_value * (g - dot),)

    return Tensor(out_value, (a,), backward)


def segment_max(a, segments) -> Tensor:
    """Per-segment column-wise max over the rows of a 2-D tensor.

    ``segments`` is a sequence of half-open (start, end) row ranges; output
    row k is ``a[start_k:end_k].max(axis=0)``. Gradients flow to the first
    arg-max row of each (segment, column).
    """
    a = as_tensor(a)
    x = a.value
    bounds = np.asarray(segments, dtype=np.int64).reshape(-1, 2).tolist()
    n_cols = x.shape[1]
    cols = np.arange(n_cols)
    out_value = np.empty((len(bounds), n_cols), dtype=np.float64)
    argrows = np.empty((len(bounds), n_cols), dtype=np.int64)
    for k, (s, e) in enumerate(bounds):
        block = x[s:e]
        idx = block.argmax(axis=0)
        argrows[k] = s + idx
        out_value[k] = block[idx, cols]

    def backward(g):
        ga = np.zeros_like(x)
        np.add.at(ga, (argrows, cols), g)  # segment by segment, as a loop would
        return (ga,)

    return Tensor(out_value, (a,), backward)


def max_rows(a) -> Tensor:
    """Column-wise max of a 2-D tensor -> 1-D vector."""
    a = as_tensor(a)
    x = a.value
    index = (x.argmax(axis=0), np.arange(x.shape[1]))
    return Tensor(x[index], (a,), lambda g: (_scatter(x.shape, index, g),))


def masked_max(a, mask: np.ndarray | None = None) -> Tensor:
    """Max over all (optionally masked) elements -> 0-d scalar."""
    a = as_tensor(a)
    x = a.value
    if mask is None:
        flat_idx = int(x.argmax())
    else:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            raise ValueError("masked_max over empty selection")
        flat_idx = int(np.where(mask, x, -np.inf).argmax())
    index = np.unravel_index(flat_idx, x.shape)
    return Tensor(np.asarray(x[index]), (a,), lambda g: (_scatter(x.shape, index, g),))


def pick(a, index: int) -> Tensor:
    """Select one element of a 1-D tensor -> 0-d scalar."""
    a = as_tensor(a)
    x = a.value
    return Tensor(np.asarray(x[index]), (a,), lambda g: (_scatter(x.shape, index, g),))


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
    for node in reversed(topo):
        if node._backward is None:
            continue
        for parent, g in zip(node.parents, node._backward(node.grad)):
            if parent.grad is None:
                parent.grad = np.array(g, dtype=np.float64, copy=True)
            else:
                parent.grad += g
