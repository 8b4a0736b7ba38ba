"""Finite-difference checks for every primitive in the reverse-mode tape."""

import numpy as np
import pytest

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

    def test_add_n(self):
        c = [ad.constant(RNG.normal(size=())) for _ in range(3)]
        check_op(lambda x: ad.add_n([x, *c]), RNG.normal(size=()))

    def test_neg_scale_add_const_rsub(self):
        check_op(lambda x: total(ad.neg(x)), RNG.normal(size=(2, 3)))
        check_op(lambda x: total(ad.scale(x, -2.5)), RNG.normal(size=(2, 3)))
        check_op(lambda x: total(ad.rsub_const(1.0, x)), RNG.normal(size=(2, 3)))

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

    def test_log(self):
        check_op(lambda x: total(ad.log(x)), RNG.uniform(0.2, 2.0, size=(2, 2)))

    def test_clamp_interior_and_beyond(self):
        x0 = np.array([0.2, 0.8])
        check_op(lambda x: total(ad.clamp(x, 0.0, 1.0)), x0)
        out = ad.clamp(ad.parameter(np.array([-1.0, 0.5, 2.0])), 0.0, 1.0)
        s = total(out)
        ad.backward(s)
        grads = out.parents[0].grad
        assert grads[0] == 0.0 and grads[2] == 0.0  # clipped coords get no grad
        assert grads[1] != 0.0


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
        x = RNG.normal(size=(2, 3))
        mask = np.array([[True, False, True], [False, False, True]])
        out = ad.masked_max(ad.constant(x), mask)
        assert out.value == x[mask].max()
        check_op(lambda t: ad.masked_max(t, mask), x)
        check_op(lambda t: ad.masked_max(t), RNG.normal(size=5))

    def test_masked_max_empty(self):
        with pytest.raises(ValueError):
            ad.masked_max(ad.constant(np.zeros(3)), np.zeros(3, dtype=bool))

    def test_pick(self):
        x = RNG.normal(size=6)
        out = ad.pick(ad.constant(x), 4)
        assert out.value == x[4]
        check_op(lambda t: ad.pick(t, 4), x)


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

    def test_operators(self):
        a = ad.constant(np.array(2.0))
        b = ad.constant(np.array(5.0))
        assert float(a + b) == 7.0
        assert float(a - b) == -3.0
        assert float(a * b) == 10.0
        assert float(-a) == -2.0
