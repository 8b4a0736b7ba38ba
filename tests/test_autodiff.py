"""Finite-difference checks for every primitive in the reverse-mode tape,
plus guards on the op contract and on the tapes of one ``match`` and one
``total_loss``."""

import inspect
from collections import Counter

import numpy as np
import pytest

from momentloc import (SYNTH_GRID, LossConfig, SynthConfig, generate_corpus, init_params, lift,
                       match, sample_batch, total_loss)
from momentloc import autodiff as ad


def fd_grad(fn, x: np.ndarray, step=1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn over array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = fn(x)
        flat[i] = keep - step
        lo = fn(x)
        flat[i] = keep
        gf[i] = (hi - lo) / (2 * step)
    return g


def check_op(build, x0, tol=1e-6, step=1e-6):
    """build(param_tensor) -> 0-d output tensor; compares grads with FD."""
    x0 = np.asarray(x0, dtype=np.float64)
    leaf = ad.parameter(x0.copy())
    out = build(leaf)
    assert out.value.shape == ()
    ad.backward(out)

    def value_at(x):
        return float(build(ad.constant(x)).value)

    numeric = fd_grad(value_at, x0.copy(), step)
    assert leaf.grad is not None
    assert np.allclose(leaf.grad, numeric, atol=tol), (leaf.grad, numeric)


def total(t):
    # reduce any tensor to 0-d via weighted sum so grads are non-uniform
    flat = ad.reshape(t, (1, int(np.prod(t.value.shape)) or 1))
    w = np.cos(np.arange(flat.value.shape[1]))[:, None]
    return ad.reshape(ad.matmul(flat, ad.constant(w)), ())


RNG = np.random.default_rng(99)


class TestElementwise:
    def test_add(self):
        b = RNG.normal(size=(3, 4))
        check_op(lambda x: total(ad.add(x, ad.constant(b))), RNG.normal(size=(3, 4)))

    def test_add_broadcast_bias(self):
        b = RNG.normal(size=4)
        base = RNG.normal(size=(3, 4))
        check_op(lambda x: total(ad.add(ad.constant(base), x)), b)

    def test_neg_scale_add_const_rsub(self):
        check_op(lambda x: total(ad.scale(x, -2.5)), RNG.normal(size=(2, 3)))

    def test_mul(self):
        b = RNG.normal(size=(3, 2))
        check_op(lambda x: total(ad.mul(x, ad.constant(b))), RNG.normal(size=(3, 2)))
        check_op(lambda x: total(ad.mul(x, x)), RNG.normal(size=(3, 2)))

    def test_sigmoid(self):
        check_op(lambda x: total(ad.sigmoid(x)), RNG.normal(size=(2, 3)) * 3)
        big = ad.sigmoid(ad.constant(np.array([800.0, -800.0])))
        assert np.all(np.isfinite(big.value))
        assert big.value[0] == pytest.approx(1.0)
        assert big.value[1] == pytest.approx(0.0)

    @pytest.mark.parametrize("complement", [False, True])
    def test_neg_log(self, complement):
        eps = 1e-7
        check_op(lambda x: total(ad.neg_log(x, eps, complement)), RNG.uniform(0.1, 0.9, (2, 3)))
        # value and gradient are exactly these numpy expressions, clip included
        x = np.array([-1.0, 0.0, eps, 3e-7, 0.25, 0.5, 1.0 - 3e-7, 1.0 - eps, 1.0, 2.0])
        g = RNG.normal(size=x.shape)
        inside = (x > eps) & (x < 1 - eps)
        p = np.clip(x, eps, 1 - eps)
        out = ad.neg_log(ad.constant(x), eps, complement)
        (grad,) = out._backward(g)
        if complement:
            value, expect = -np.log(1.0 - p), (g / (1.0 - p)) * inside
        else:
            value, expect = -np.log(p), (-g / p) * inside
        assert np.array_equal(out.value, value) and np.array_equal(grad, expect)

    def test_clamp_interior_and_beyond(self):
        for complement in (False, True):
            leaf = ad.parameter(np.array([-1.0, 0.5, 2.0]))
            ad.backward(total(ad.neg_log(leaf, 1e-7, complement)))
            assert leaf.grad[0] == 0.0 and leaf.grad[2] == 0.0  # clipped coords get no grad
            assert leaf.grad[1] != 0.0


class TestLinear:
    def test_matmul_both_sides(self):
        b = RNG.normal(size=(4, 2))
        check_op(lambda x: total(ad.matmul(x, ad.constant(b))), RNG.normal(size=(3, 4)))
        a = RNG.normal(size=(3, 4))
        check_op(lambda x: total(ad.matmul(ad.constant(a), x)), RNG.normal(size=(4, 2)))

    def test_matvec(self):
        m = RNG.normal(size=(3, 4))
        check_op(lambda x: total(ad.matvec(ad.constant(m), x)), RNG.normal(size=4))
        v = RNG.normal(size=4)
        check_op(lambda x: total(ad.matvec(x, ad.constant(v))), RNG.normal(size=(3, 4)))

    def test_transpose_reshape(self):
        check_op(lambda x: total(ad.transpose(x)), RNG.normal(size=(2, 5)))
        check_op(lambda x: total(ad.reshape(x, (10,))), RNG.normal(size=(2, 5)))

    def test_concat_cols(self):
        b = RNG.normal(size=(3, 2))
        check_op(lambda x: total(ad.concat_cols([x, ad.constant(b)])),
                 RNG.normal(size=(3, 4)))
        check_op(lambda x: total(ad.concat_cols([ad.constant(b), x, x])),
                 RNG.normal(size=(3, 2)))


class TestReductions:
    def test_softmax_rows_values(self):
        x = RNG.normal(size=(4, 5))
        out = ad.softmax_rows(ad.constant(x))
        assert np.allclose(out.value.sum(axis=1), 1.0, atol=1e-12)
        expect = np.exp(x - x.max(axis=1, keepdims=True))
        expect /= expect.sum(axis=1, keepdims=True)
        assert np.allclose(out.value, expect, atol=1e-12)

    def test_softmax_rows_grad(self):
        check_op(lambda x: total(ad.softmax_rows(x)), RNG.normal(size=(3, 4)))

    def test_softmax_mask(self):
        x = RNG.normal(size=(2, 4))
        mask = np.array([True, False, True, False])
        out = ad.softmax_rows(ad.constant(x), mask)
        assert np.all(out.value[:, ~mask] == 0.0)
        assert np.allclose(out.value.sum(axis=1), 1.0)
        check_op(lambda t: total(ad.softmax_rows(t, mask)), x)

    def test_softmax_all_masked(self):
        with pytest.raises(ValueError):
            ad.softmax_rows(ad.constant(np.zeros((2, 3))), np.zeros(3, dtype=bool))

    def test_segment_max(self):
        x = RNG.normal(size=(6, 3))
        segs = [(0, 2), (1, 5), (5, 6)]
        out = ad.segment_max(ad.constant(x), segs)
        expect = np.stack([x[s:e].max(axis=0) for s, e in segs])
        assert np.allclose(out.value, expect)
        check_op(lambda t: total(ad.segment_max(t, segs)), x)

    def test_segment_max_tie_goes_to_first(self):
        x = np.array([[1.0], [1.0], [0.0]])
        leaf = ad.parameter(x)
        out = total(ad.segment_max(leaf, [(0, 3)]))
        ad.backward(out)
        assert leaf.grad[0, 0] != 0.0 and leaf.grad[1, 0] == 0.0

    def test_max_rows(self):
        x = RNG.normal(size=(4, 3))
        out = ad.max_rows(ad.constant(x))
        assert np.allclose(out.value, x.max(axis=0))
        check_op(lambda t: total(ad.max_rows(t)), x)

    def test_masked_max(self):
        # only True entries compete, and only they receive gradient
        y = RNG.normal(size=(3, 2))
        mask = np.array([[True, False], [False, False], [True, True]])
        out = ad.max_rows(ad.constant(y), mask)
        assert np.array_equal(out.value, [y[mask[:, 0], 0].max(), y[2, 1]])
        check_op(lambda t: total(ad.max_rows(t, mask)), y)

    def test_masked_max_empty(self):
        with pytest.raises(ValueError):
            ad.max_rows(ad.constant(np.zeros((3, 2))), np.zeros((3, 2), dtype=bool))

    def test_pick(self):
        x = RNG.normal(size=6)
        out = ad.pick(ad.constant(x), 4)
        assert out.value == x[4]
        check_op(lambda t: ad.pick(t, 4), x)


class TestStacked:
    """Ops with a leading batch axis agree with their 2-D form slice by slice
    and pass finite differences."""

    def test_matmul_shared_and_batched(self):
        x, w, y = RNG.normal(size=(3, 4, 5)), RNG.normal(size=(5, 2)), RNG.normal(size=(3, 5, 2))
        shared = ad.matmul(ad.constant(x), ad.constant(w)).value
        batched = ad.matmul(ad.constant(x), ad.constant(y)).value
        for i in range(3):
            assert np.allclose(shared[i], x[i] @ w, atol=1e-12)
            assert np.allclose(batched[i], x[i] @ y[i], atol=1e-12)
        check_op(lambda t: total(ad.matmul(t, ad.constant(w))), x)
        check_op(lambda t: total(ad.matmul(ad.constant(x), t)), w)
        check_op(lambda t: total(ad.matmul(t, ad.constant(y))), x)
        check_op(lambda t: total(ad.matmul(ad.constant(x), t)), y)

    def test_matvec_transpose_concat(self):
        v, x = RNG.normal(size=4), RNG.normal(size=(2, 3, 4))
        check_op(lambda t: total(ad.matvec(t, ad.constant(v))), x)
        check_op(lambda t: total(ad.matvec(ad.constant(x), t)), v)
        assert np.array_equal(ad.transpose(ad.constant(x)).value[1], x[1].T)
        check_op(lambda t: total(ad.transpose(t)), x)
        b = RNG.normal(size=(2, 3, 1))
        check_op(lambda t: total(ad.concat_cols([t, ad.constant(b)])), x)

    def test_softmax_mask_per_batch_entry(self):
        x = RNG.normal(size=(2, 3, 4))
        mask = np.array([[[True, True, False, False]], [[True, True, True, False]]])
        out = ad.softmax_rows(ad.constant(x), mask).value
        for i in range(2):
            assert np.allclose(out[i], ad.softmax_rows(ad.constant(x[i]), mask[i, 0]).value,
                               atol=1e-12)
        check_op(lambda t: total(ad.softmax_rows(t, mask)), x)
        with pytest.raises(ValueError):
            ad.softmax_rows(ad.constant(x), mask & np.array([True, False])[:, None, None])

    def test_segment_max_per_window_size(self):
        x = RNG.normal(size=(3, 7, 2))
        segs = [(0, 3), (2, 5), (4, 7), (0, 4), (3, 7), (5, 6)]
        out = ad.segment_max(ad.constant(x), segs).value
        for i in range(3):
            assert np.array_equal(out[i], ad.segment_max(ad.constant(x[i]), segs).value)
        check_op(lambda t: total(ad.segment_max(t, segs)), x)

    def test_max_rows_masked(self):
        x = RNG.normal(size=(2, 4, 3))
        mask = np.array([[True, True, False, False], [True, False, False, False]])[:, :, None]
        out = ad.max_rows(ad.constant(x), mask).value
        assert np.array_equal(out, np.stack([x[0, :2].max(axis=0), x[1, 0]]))
        check_op(lambda t: total(ad.max_rows(t, mask)), x)
        with pytest.raises(ValueError):
            ad.max_rows(ad.constant(x), np.zeros((2, 4, 1), dtype=bool))

    def test_pick_gathers_rows_with_repeats(self):
        x = RNG.normal(size=(3, 2, 2))
        index = np.array([2, 0, 2, 2])
        assert np.array_equal(ad.pick(ad.constant(x), index).value, x[index])
        check_op(lambda t: total(ad.pick(t, index)), x)
        leaf = ad.parameter(x)
        ad.backward(ad.sum_all(ad.pick(leaf, index)))
        assert np.array_equal(leaf.grad[:, 0, 0], [1.0, 0.0, 3.0])

    def test_sum_all(self):
        x = RNG.normal(size=(2, 3))
        assert ad.sum_all(ad.constant(x)).value == pytest.approx(x.sum(), abs=1e-12)
        check_op(lambda t: ad.sum_all(ad.mul(t, t)), x)

    def test_matvec_dot(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert ad.matvec(ad.constant(a), ad.constant(b)).value == pytest.approx(a @ b, abs=1e-12)
        check_op(lambda t: ad.matvec(t, ad.constant(b)), a)
        check_op(lambda t: ad.matvec(ad.constant(a), t), b)


class TestBackward:
    def test_requires_scalar_root(self):
        with pytest.raises(ValueError):
            ad.backward(ad.parameter(np.zeros(3)))

    def test_diamond_graph_accumulates(self):
        # y = (x + x) * x -> dy/dx = 4x
        leaf = ad.parameter(np.array(3.0))
        y = ad.mul(ad.add(leaf, leaf), leaf)
        ad.backward(ad.reshape(y, ()))
        assert leaf.grad == pytest.approx(12.0)

    def test_deep_chain(self):
        leaf = ad.parameter(np.array(0.3))
        t = leaf
        for _ in range(200):
            t = ad.sigmoid(t)
        ad.backward(ad.reshape(t, ()))
        assert np.isfinite(leaf.grad)


def _arr(*shape):
    return ad.constant(RNG.normal(size=shape))


# One node of every public op, keyed by op name; "op/variant" keys add more
# cases of one op. Shapes include broadcasting, 1-D and 0-d cases.
OP_CASES = {
    "add": lambda: ad.add(_arr(3, 4), _arr(4)),
    "mul": lambda: ad.mul(_arr(3, 1), _arr(3, 4)),
    "scale": lambda: ad.scale(_arr(2, 3), 1.5),
    "matmul": lambda: ad.matmul(_arr(3, 4), _arr(4, 2)),
    "matvec": lambda: ad.matvec(_arr(3, 4), _arr(4)),
    "transpose": lambda: ad.transpose(_arr(2, 5)),
    "reshape": lambda: ad.reshape(_arr(2, 5), (10,)),
    "concat_cols": lambda: ad.concat_cols([_arr(3, 2), _arr(3, 1), _arr(3, 4)]),
    "sigmoid": lambda: ad.sigmoid(_arr(2, 3)),
    "neg_log": lambda: ad.neg_log(ad.constant(RNG.uniform(0.05, 0.95, size=(2, 3))), 1e-7),
    "neg_log/complement": lambda: ad.neg_log(_arr(4), 0.25, complement=True),
    "softmax_rows": lambda: ad.softmax_rows(_arr(3, 4), np.array([True, False, True, True])),
    "segment_max": lambda: ad.segment_max(_arr(6, 3), [(0, 2), (1, 5)]),
    "max_rows": lambda: ad.max_rows(_arr(4, 3)),
    "pick": lambda: ad.pick(_arr(5), 2),
    "sum_all": lambda: ad.sum_all(_arr(2, 3)),
    # Stacked cases: a leading batch axis on every op that takes one.
    "matmul/shared": lambda: ad.matmul(_arr(2, 3, 4), _arr(4, 5)),
    "matmul/batched": lambda: ad.matmul(_arr(2, 3, 4), _arr(2, 4, 5)),
    "matvec/stacked": lambda: ad.matvec(_arr(2, 3, 4), _arr(4)),
    "matvec/dot": lambda: ad.matvec(_arr(4), _arr(4)),
    "transpose/stacked": lambda: ad.transpose(_arr(2, 3, 5)),
    "concat_cols/stacked": lambda: ad.concat_cols([_arr(2, 3, 2), _arr(2, 3, 1)]),
    "softmax_rows/stacked": lambda: ad.softmax_rows(
        _arr(2, 3, 4), np.array([[[True, False, True, True]], [[False, True, True, False]]])),
    "segment_max/stacked": lambda: ad.segment_max(_arr(2, 6, 3), [(0, 2), (1, 5), (4, 6)]),
    "max_rows/stacked": lambda: ad.max_rows(_arr(2, 4, 3), np.array(
        [[True, True, False, True], [True, False, False, False]])[:, :, None]),
    "pick/gather": lambda: ad.pick(_arr(3, 2, 4), np.array([1, 1, 0, 2])),
}


def op_name(node) -> str:
    """A node's op, named the way the benchmark's tape counters name it."""
    return "leaf" if node._backward is None else node._backward.__qualname__.split(".")[0]


def tape_nodes(root) -> list:
    """Every node reachable from ``root``, each once."""
    nodes, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node.parents)
    return list(nodes.values())


class TestOpContract:
    def test_table_lists_every_public_op(self):
        public = {name for name, fn in vars(ad).items()
                  if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                  and not name.startswith("_")}
        ops = {name.split("/")[0] for name in OP_CASES}
        assert ops == public - {"constant", "parameter", "as_tensor", "backward"}

    @pytest.mark.parametrize("name", sorted(OP_CASES))
    def test_backward_returns_one_gradient_per_parent(self, name):
        out = OP_CASES[name]()
        assert op_name(out) == name.split("/")[0]
        grads = list(out._backward(np.asarray(RNG.normal(size=out.value.shape))))
        assert len(grads) == len(out.parents)
        assert [np.shape(g) for g in grads] == [p.value.shape for p in out.parents]
        assert all(p.grad is None for p in out.parents)  # only ad.backward writes .grad

    def test_match_tape_node_counts(self):
        record = generate_corpus(SynthConfig(num_videos=4, seed=0)).records[0]
        params = lift(init_params(16, 16, 16, 1, 1, np.random.default_rng(0)))
        nodes = tape_nodes(match(record, record.paragraph[0], params, SYNTH_GRID).tensor)
        # the one-pair case of the stacked forward: three gathers (proposals,
        # words, the score row) over the tape of a single-pair forward, whose
        # classifier is folded into the proposal attention's value path
        assert len(nodes) == 133
        assert Counter(op_name(n) for n in nodes) == {
            "leaf": 36, "matmul": 31, "transpose": 23, "add": 16, "scale": 5,
            "softmax_rows": 5, "pick": 3, "concat_cols": 2, "matvec": 5, "max_rows": 1,
            "mul": 1, "reshape": 3, "segment_max": 1, "sigmoid": 1,
        }

    def test_total_loss_tape_node_counts(self):
        # one training step's objective at the acceptance shape, all three
        # losses: each -log term is one neg_log node
        rng = np.random.default_rng(0)
        records = generate_corpus(SynthConfig(num_videos=64, seed=1)).records
        params = lift(init_params(16, 16, 16, 1, 1, rng))
        batch = sample_batch(records, 32, rng)
        nodes = tape_nodes(total_loss(batch, params, LossConfig(grid=SYNTH_GRID)).total)
        assert len(nodes) == 175
        assert Counter(op_name(n) for n in nodes) == {
            "leaf": 36, "matmul": 32, "transpose": 27, "add": 22, "scale": 9, "pick": 8,
            "reshape": 8, "neg_log": 7, "max_rows": 6, "sum_all": 5, "matvec": 5,
            "softmax_rows": 5, "concat_cols": 2, "sigmoid": 1, "segment_max": 1, "mul": 1,
        }
