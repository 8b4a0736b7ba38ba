"""Minimal reverse-mode automatic differentiation over numpy arrays.

A tape-based engine sized for this package: float64 values, 2-D matrices /
1-D vectors / 0-d scalars, and exactly the operations the matching network
and its losses need. Each operation builds one graph node whose backward
closure scatters the incoming gradient to its parents; ``backward`` runs a
single reverse topological sweep.

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

    def item(self) -> float:
        return float(self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape}, leaf={self._backward is None})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(as_tensor(other)))

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def constant(x) -> Tensor:
    """Wrap a value as a graph leaf (no gradient tracked beyond it)."""
    return Tensor(np.asarray(x, dtype=np.float64))


# Parameters are leaves too; the distinction is only who reads .grad afterwards.
parameter = constant


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _accumulate(node: Tensor, g: np.ndarray):
    if node.grad is None:
        node.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        node.grad += g


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
    out_value = a.value + b.value

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.value.shape))
        _accumulate(b, _unbroadcast(g, b.value.shape))

    return Tensor(out_value, (a, b), backward)


def add_n(terms) -> Tensor:
    """Sum of same-shaped tensors as a single node."""
    terms = [as_tensor(t) for t in terms]
    out_value = terms[0].value.copy()
    for t in terms[1:]:
        out_value += t.value

    def backward(g):
        for t in terms:
            _accumulate(t, g)

    return Tensor(out_value, tuple(terms), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, -g)

    return Tensor(-a.value, (a,), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_value = a.value * b.value

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.value, a.value.shape))
        _accumulate(b, _unbroadcast(g * a.value, b.value.shape))

    return Tensor(out_value, (a, b), backward)


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def backward(g):
        _accumulate(a, g * c)

    return Tensor(a.value * c, (a,), backward)


def rsub_const(c: float, a) -> Tensor:
    """c - a."""
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, -g)

    return Tensor(float(c) - a.value, (a,), backward)


def matmul(a, b) -> Tensor:
    """2-D @ 2-D matrix product."""
    a, b = as_tensor(a), as_tensor(b)
    out_value = a.value @ b.value

    def backward(g):
        _accumulate(a, g @ b.value.T)
        _accumulate(b, a.value.T @ g)

    return Tensor(out_value, (a, b), backward)


def matvec(a, v) -> Tensor:
    """(m, n) @ (n,) -> (m,)."""
    a, v = as_tensor(a), as_tensor(v)
    out_value = a.value @ v.value

    def backward(g):
        _accumulate(a, np.outer(g, v.value))
        _accumulate(v, a.value.T @ g)

    return Tensor(out_value, (a, v), backward)


def transpose(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g.T)

    return Tensor(a.value.T, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.value.shape

    def backward(g):
        _accumulate(a, g.reshape(old))

    return Tensor(a.value.reshape(shape), (a,), backward)


def concat_cols(parts) -> Tensor:
    """Horizontal concatenation of 2-D blocks with equal row counts."""
    parts = [as_tensor(p) for p in parts]
    widths = [p.value.shape[1] for p in parts]
    out_value = np.concatenate([p.value for p in parts], axis=1)

    def backward(g):
        lo = 0
        for p, w in zip(parts, widths):
            _accumulate(p, g[:, lo : lo + w])
            lo += w

    return Tensor(out_value, tuple(parts), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.value
    out_value = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                         np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        _accumulate(a, g * out_value * (1.0 - out_value))

    return Tensor(out_value, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g / a.value)

    return Tensor(np.log(a.value), (a,), backward)


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values; gradient passes only where the clamp is inactive."""
    a = as_tensor(a)
    out_value = np.clip(a.value, lo, hi)
    inside = (a.value > lo) & (a.value < hi)

    def backward(g):
        _accumulate(a, g * inside)

    return Tensor(out_value, (a,), backward)


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
        _accumulate(a, out_value * (g - dot))

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
        _accumulate(a, ga)

    return Tensor(out_value, (a,), backward)


def max_rows(a) -> Tensor:
    """Column-wise max of a 2-D tensor -> 1-D vector."""
    a = as_tensor(a)
    x = a.value
    idx = x.argmax(axis=0)
    cols = np.arange(x.shape[1])
    out_value = x[idx, cols]

    def backward(g):
        ga = np.zeros_like(x)
        ga[idx, cols] = g
        _accumulate(a, ga)

    return Tensor(out_value, (a,), backward)


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
        masked = np.where(mask, x, -np.inf)
        flat_idx = int(masked.argmax())
    out_value = np.float64(x.reshape(-1)[flat_idx])

    def backward(g):
        ga = np.zeros_like(x)
        ga.reshape(-1)[flat_idx] = g
        _accumulate(a, ga)

    return Tensor(np.asarray(out_value), (a,), backward)


def pick(a, index: int) -> Tensor:
    """Select one element of a 1-D tensor -> 0-d scalar."""
    a = as_tensor(a)

    def backward(g):
        ga = np.zeros_like(a.value)
        ga[index] = g
        _accumulate(a, ga)

    return Tensor(np.asarray(a.value[index]), (a,), backward)


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
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
