import threading

import numpy as np
import pytest

from choicenet import tensor as T
from choicenet.tensor import (
    DegenerateRowError,
    NonFiniteError,
    ShapeError,
    Tensor,
    concat,
    no_grad,
)


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2)).matmul(Tensor([[1, 2], [3, 4]]))
        np.testing.assert_array_equal(a.data, [[1, 2], [3, 4]])

    def test_row_selector(self):
        out = Tensor([[1, 0], [0, 0]]).matmul(Tensor([[5, 6], [7, 8]]))
        np.testing.assert_array_equal(out.data, [[5, 6], [0, 0]])

    def test_against_naive_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = Tensor(a).matmul(Tensor(b))
        assert np.abs(out.data - naive_matmul(a, b)).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))).matmul(Tensor(np.ones((2, 3))))

    def test_backward_formulas(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        a.matmul(b).sum().backward()
        # dC all ones: dA = 1 . B^T, dB = A^T . 1
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)))

    def test_batched(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 3, 4))
        b = rng.normal(size=(4, 2))
        out = Tensor(a).matmul(Tensor(b))
        for i in range(5):
            np.testing.assert_allclose(out.data[i], a[i] @ b)


class TestMaskedSoftmax:
    def test_uniform_row(self):
        out = Tensor([[0.0, 0.0, 0.0]]).masked_softmax(np.ones((1, 3), bool))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3])

    def test_masked_entry_excluded(self):
        a, b = 0.4, 1.3
        mask = np.array([[True, True, False]])
        out = Tensor([[a, b, 99.0]]).masked_softmax(mask)
        den = np.exp(a) + np.exp(b)
        np.testing.assert_allclose(out.data, [[np.exp(a) / den, np.exp(b) / den, 0.0]])

    def test_direct_formula(self):
        x = np.array([[1.0, 2.0, 3.0]])
        out = Tensor(x).masked_softmax(np.ones((1, 3), bool))
        expect = np.exp(x) / np.exp(x).sum()
        assert np.abs(out.data - expect).max() < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 5)) * 10
        mask = rng.random((6, 5)) < 0.7
        mask[:, 0] = True
        out = Tensor(x).masked_softmax(mask)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-12)
        assert (out.data[~mask] == 0).all()

    def test_fully_masked_row(self):
        with pytest.raises(DegenerateRowError):
            Tensor([[1.0, 2.0]]).masked_softmax(np.zeros((1, 2), bool))

    def test_fully_masked_broadcast_row(self):
        mask = np.array([[[True, True]], [[False, False]]])
        with pytest.raises(DegenerateRowError):
            Tensor(np.zeros((2, 3, 2))).masked_softmax(mask)

    def test_scale_and_broadcast_key_mask(self):
        # a (B, 1, N) key mask with scale c equals the explicit (B, M, N)
        # mask on pre-scaled scores, and its gradient matches finite differences
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 4)))
        key_mask = np.array([[[True, False, True, True]], [[True, True, True, False]]])
        c = 0.35
        out = x.masked_softmax(key_mask, scale=c)
        ref = Tensor(x.data * c).masked_softmax(np.broadcast_to(key_mask, x.shape))
        np.testing.assert_array_equal(out.data, ref.data)
        assert (out.data[~np.broadcast_to(key_mask, x.shape)] == 0).all()

        (x.masked_softmax(key_mask, scale=c) * w).sum().backward()
        numeric = central_difference(
            lambda: (x.masked_softmax(key_mask, scale=c) * w).sum().item(), x
        )
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-6, atol=1e-9)


class TestElementwise:
    def test_relu(self):
        np.testing.assert_array_equal(Tensor([-1.0, 0.0, 2.0]).relu().data, [0, 0, 2])

    def test_one_plus_relu(self):
        np.testing.assert_array_equal(
            Tensor([-3.0, 0.5]).one_plus_relu().data, [1.0, 1.5]
        )

    def test_relu_subgradient_zero_at_kink(self):
        x = Tensor([0.0, -1.0, 1.0], requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_add_backward_is_one(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor([1.0]) + Tensor([1.0, 2.0])


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        g = Tensor(np.ones(4))
        b = Tensor(np.zeros(4))
        out = Tensor([[5.0, 5.0, 5.0, 5.0]]).layer_norm(g, b)
        np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-4)

    def test_already_standardized(self):
        out = Tensor([[1.0, -1.0]]).layer_norm(Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_row_statistics(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 8)) * 3 + 1
        out = Tensor(x).layer_norm(Tensor(np.ones(8)), Tensor(np.zeros(8)), eps=1e-9)
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-10
        assert np.abs(out.data.var(axis=-1) - 1.0).max() < 1e-8


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.arange(6.0))
        out = x.dropout(0.0, True, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_eval_mode_identity(self):
        x = Tensor(np.arange(6.0))
        out = x.dropout(0.5, False, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_survivor_scaling_statistics(self):
        x = Tensor(np.ones(100_000))
        out = x.dropout(0.1, True, np.random.default_rng(5))
        # mean of survivors/(1-rate) is 1, sigma = sqrt(p(1-p))/ (1-p) / sqrt(n)
        sigma = np.sqrt(0.1 * 0.9) / 0.9 / np.sqrt(100_000)
        assert abs(out.data.mean() - 1.0) < 3 * sigma

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Tensor([1.0]).dropout(1.0, True, np.random.default_rng(0))


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (x * x).backward()

    def test_gradient_accumulates_once_per_path(self):
        x = Tensor([2.0], requires_grad=True)
        y = x + x  # two paths
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0])


class TestLazyGradients:
    def test_intermediate_used_twice_sums(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        h = x.scale(1.0)
        y = h + h
        y.sum().backward()
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])
        np.testing.assert_array_equal(h.grad, [2.0, 2.0])
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_diamond_through_add_and_add_bias(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        c = rng.normal(size=(2, 3))
        h = x.add_bias(b)
        ((h + h.scale(3.0)) * Tensor(c)).sum().backward()
        np.testing.assert_allclose(x.grad, 4.0 * c, rtol=1e-15)
        np.testing.assert_allclose(b.grad, 4.0 * c.sum(axis=0), rtol=1e-15)

    def test_concat_slices(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        c = rng.normal(size=(2, 5))
        a, b = x.scale(1.0), x.scale(2.0)
        out = concat([a, b], axis=0)
        (out * Tensor(np.concatenate([c, c]))).sum().backward()
        np.testing.assert_array_equal(a.grad, c)
        np.testing.assert_array_equal(b.grad, c)
        np.testing.assert_allclose(x.grad, 3.0 * c, rtol=1e-15)

    def test_pass_through_grads_are_distinct_arrays(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        bias = Tensor(np.zeros(4), requires_grad=True)
        h = x.scale(1.0)
        siblings = [
            h.add_bias(bias), h.shift(1.0), h.reshape(2, 4, 3).reshape(2, 3, 4),
            h.transpose_last().transpose_last(), h + h.relu(),
        ]
        tail = concat([h, *siblings], axis=-1)
        tail.sum().backward()
        graph = [x, bias, h, tail, *siblings]
        for node in siblings:
            graph.extend(node._parents)
        for i, p in enumerate(graph):
            for q in graph[i + 1:]:
                if p is not q:
                    assert not np.shares_memory(p.grad, q.grad)

    def test_leaves_without_grad_stay_none(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        feats = Tensor(np.full((2, 3), 2.0))
        w = Tensor(np.ones((3, 1)))
        onehot = Tensor(np.eye(2))
        mask = np.ones((2, 2), bool)
        u = (x * feats).matmul(w).reshape(2, 1)
        scores = u.matmul(Tensor(np.ones((1, 2))))
        (scores.masked_softmax(mask) * onehot).sum().backward()
        assert x.grad is not None
        for t in (feats, w, onehot):
            assert t.grad is None


class TestNoGrad:
    @staticmethod
    def records(x):
        return bool((x * x)._parents)

    def test_outputs_carry_no_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            y = x.relu().masked_softmax(np.ones(2, bool)).sum()
        assert not y.requires_grad
        assert y._parents == () and y._backward is None and y.grad is None

    def test_mode_restored_on_exit(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not self.records(x)
        assert self.records(x)

    def test_mode_restored_on_exception(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(NonFiniteError):
            with no_grad():
                Tensor([np.inf]).relu()
        assert self.records(x)

    def test_nested(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            with no_grad():
                assert not self.records(x)
            assert not self.records(x)
        assert self.records(x)

    def test_mode_is_per_thread(self):
        x = Tensor([1.0], requires_grad=True)
        seen = []
        with no_grad():
            worker = threading.Thread(target=lambda: seen.append(self.records(x)))
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen == [True]


class TestKeepFreedMemory:
    @staticmethod
    def fake_libc(monkeypatch, calls):
        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(T.platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(T.ctypes, "CDLL", lambda name: Libc())
        for var in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
            monkeypatch.delenv(var, raising=False)

    def test_fixes_both_thresholds_on_glibc(self, monkeypatch):
        calls = []
        self.fake_libc(monkeypatch, calls)
        T._keep_freed_memory()
        assert calls == [(-3, 32 * 1024 * 1024), (-1, 2**31 - 1)]

    @pytest.mark.parametrize("var", ["MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"])
    def test_environment_setting_wins(self, monkeypatch, var):
        calls = []
        self.fake_libc(monkeypatch, calls)
        monkeypatch.setenv(var, "131072")
        T._keep_freed_memory()
        assert calls == []

    def test_nothing_off_glibc(self, monkeypatch):
        calls = []
        self.fake_libc(monkeypatch, calls)
        monkeypatch.setattr(T.platform, "libc_ver", lambda: ("", ""))
        T._keep_freed_memory()
        assert calls == []


def central_difference(f, x, h=1e-6):
    g = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


@pytest.mark.parametrize(
    "opname",
    ["relu_chain", "softmax_chain", "layernorm_chain", "sigmoid_log", "concat_chain"],
)
def test_op_gradients_match_finite_differences(opname):
    rng = np.random.default_rng(hash(opname) % 2**32)
    x = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
    c = Tensor(rng.normal(size=(3, 4)))
    mask = np.ones((3, 4), bool)
    mask[:, 3] = False

    def build():
        if opname == "relu_chain":
            return (x.relu() + x.one_plus_relu()).mean()
        if opname == "softmax_chain":
            return (x.masked_softmax(mask) * c).sum()
        if opname == "layernorm_chain":
            return x.layer_norm(Tensor(np.ones(4)), Tensor(np.zeros(4))).relu().sum()
        if opname == "sigmoid_log":
            return x.sigmoid().log().mean()
        if opname == "concat_chain":
            return concat([x, x.scale(2.0)], axis=-1).relu().sum()
        raise AssertionError

    loss = build()
    loss.backward()
    analytic = x.grad.copy()
    numeric = central_difference(lambda: build().item(), x)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    assert (np.abs(analytic - numeric) / denom).max() < 1e-4


def test_determinism_same_seed_bit_identical():
    def run():
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        y = x.dropout(0.3, True, rng).masked_softmax(np.ones((4, 4), bool)).sum()
        y.backward()
        return y.item(), x.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert (g1 == g2).all()


def test_nan_input_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([np.inf, 1.0]).relu()
