import threading
import zlib

import numpy as np
import pytest

from choicenet import tensor as T
from choicenet.tensor import (
    ONE_PLUS_RELU,
    SOFTMAX,
    DegenerateRowError,
    NonFiniteError,
    ShapeError,
    Tensor,
    attention_heads,
    concat,
    no_grad,
    take,
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

    def test_size_one_batch_axis_gradient(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 5, 2)), requires_grad=True)
        c = rng.normal(size=(4, 3, 2))

        def loss():
            return (a.matmul(b) * Tensor(c)).sum()

        loss().backward()
        assert b.grad.shape == b.shape
        for x in (a, b):
            numeric = central_difference(lambda: loss().item(), x)
            np.testing.assert_allclose(x.grad, numeric, rtol=1e-6, atol=1e-8)


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
        # bound to names, since backward() empties every node's _parents
        inner_reshape, inner_transpose, relu = h.reshape(2, 4, 3), h.transpose_last(), h.relu()
        siblings = [
            h.add_bias(bias), h.shift(1.0), inner_reshape.reshape(2, 3, 4),
            inner_transpose.transpose_last(), h + relu,
        ]
        tail = concat([h, *siblings], axis=-1)
        tail.sum().backward()
        graph = [x, bias, h, tail, *siblings, inner_reshape, inner_transpose, relu]
        for i, p in enumerate(graph):
            for q in graph[i + 1:]:
                if p is not q:
                    assert not np.shares_memory(p.grad, q.grad)

    def test_second_backward_from_the_root_raises(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        s = x.scale(1.0).scale(1.0).scale(1.0).sum()
        s.backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])
        with pytest.raises(RuntimeError, match="earlier backward"):
            s.backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])

    def test_new_graph_on_a_consumed_intermediate_raises(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        h = x.scale(3.0)
        h.sum().backward()
        np.testing.assert_array_equal(h.grad, [1.0, 1.0])
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])
        with pytest.raises(RuntimeError, match="earlier backward"):
            h.scale(2.0).sum().backward()
        # the pass raised before it moved any gradient
        np.testing.assert_array_equal(h.grad, [1.0, 1.0])
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_backward_frees_the_graph(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        h = x.scale(3.0)
        y = h.relu()
        s = (h + y).sum()
        s.backward()
        for node in (h, y, s):
            assert node._parents == () and node._backward is not None
        assert x._backward is None
        np.testing.assert_array_equal(x.grad, [6.0, 3.0])

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
    rng = np.random.default_rng(zlib.crc32(opname.encode()))
    x = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
    c = Tensor(rng.normal(size=(3, 4)))
    mask = np.ones((3, 4), bool)
    mask[:, 3] = False

    def build():
        if opname == "relu_chain":
            return (x.relu() + x.relu().shift(1.0)).sum().scale(1 / x.data.size)
        if opname == "softmax_chain":
            return (x.masked_softmax(mask) * c).sum()
        if opname == "layernorm_chain":
            return x.layer_norm(Tensor(np.ones(4)), Tensor(np.zeros(4))).relu().sum()
        if opname == "sigmoid_log":
            return x.sigmoid().log().sum().scale(1 / x.data.size)
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


def per_head_attention(qs, ks, vs, key_mask, activation, scale):
    """Each head through the separate ops (matmul, transpose_last,
    masked_softmax or relu then shift by 1), outputs concatenated: the reference
    for ``attention_heads``."""
    keys = np.asarray(key_mask, bool)[:, None, :]
    outs, weights = [], []
    for q, k, v in zip(qs, ks, vs):
        scores = q.matmul(k.transpose_last())
        if activation == SOFTMAX:
            w = scores.masked_softmax(keys, scale=scale)
        else:
            mask = Tensor(np.broadcast_to(keys, scores.shape).astype(np.float64))
            w = scores.scale(scale).relu().shift(1.0) * mask
        outs.append(w.matmul(v))
        weights.append(w.data)
    return concat(outs, axis=-1), np.stack(weights, axis=1)


class TestAttentionHeads:
    B, N, M, DK, DV = 3, 4, 5, 2, 3

    def heads(self, rng, h, entries=None):
        """Per-head leaves: q (B x N x dk each), then k and v over
        ``entries`` (default B) key sets."""
        entries = entries or self.B
        qs = [Tensor(rng.normal(size=(self.B, self.N, self.DK)), requires_grad=True) for _ in range(h)]
        ks = [Tensor(rng.normal(size=(entries, self.M, self.DK)), requires_grad=True) for _ in range(h)]
        vs = [Tensor(rng.normal(size=(entries, self.M, self.DV)), requires_grad=True) for _ in range(h)]
        return qs, ks, vs

    def key_mask(self):
        mask = np.ones((self.B, self.M), bool)
        mask[0, 3:] = False
        mask[2, 0] = False
        return mask

    @pytest.mark.parametrize("activation", [SOFTMAX, ONE_PLUS_RELU])
    @pytest.mark.parametrize("h", [1, 2, 4])
    @pytest.mark.parametrize("entries", [None, 1])
    def test_matches_per_head_ops(self, activation, h, entries):
        rng = np.random.default_rng(h)
        qs, ks, vs = self.heads(rng, h, entries)
        mask = self.key_mask()
        c = Tensor(rng.normal(size=(self.B, self.N, h * self.DV)))
        ref_out, ref_w = per_head_attention(qs, ks, vs, mask, activation, 0.4)
        (ref_out * c).sum().backward()
        ref_grads = [t.grad.copy() for t in (*qs, *ks, *vs)]
        for t in (*qs, *ks, *vs):
            t.zero_grad()
        out, w = attention_heads(concat(qs), concat([*ks, *vs]), mask, h, activation, 0.4)
        np.testing.assert_allclose(out.data, ref_out.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w, ref_w, rtol=0, atol=1e-12)
        (out * c).sum().backward()
        for t, g in zip((*qs, *ks, *vs), ref_grads):
            np.testing.assert_allclose(t.grad, g, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("activation", [SOFTMAX, ONE_PLUS_RELU])
    @pytest.mark.parametrize("h", [1, 2, 4])
    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_gradients_match_finite_differences(self, activation, h, scale):
        rng = np.random.default_rng(10 * h + int(scale == 1.0))
        q = Tensor(rng.normal(size=(self.B, self.N, h * self.DK)), requires_grad=True)
        kv = Tensor(rng.normal(size=(self.B, self.M, h * (self.DK + self.DV))), requires_grad=True)
        c = Tensor(rng.normal(size=(self.B, self.N, h * self.DV)))
        mask = self.key_mask()

        def loss():
            return (attention_heads(q, kv, mask, h, activation, scale)[0] * c).sum()

        loss().backward()
        for x in (q, kv):
            numeric = central_difference(lambda: loss().item(), x)
            np.testing.assert_allclose(x.grad, numeric, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("activation", [SOFTMAX, ONE_PLUS_RELU])
    def test_one_entry_broadcasts_with_grad(self, activation):
        rng = np.random.default_rng(5)
        h = 2
        q = Tensor(rng.normal(size=(self.B, self.N, h * self.DK)), requires_grad=True)
        kv = Tensor(rng.normal(size=(1, self.M, h * (self.DK + self.DV))), requires_grad=True)
        c = Tensor(rng.normal(size=(self.B, self.N, h * self.DV)))
        mask = np.ones((1, self.M), bool)
        mask[0, 1] = False
        full = Tensor(np.repeat(kv.data, self.B, axis=0))
        out = attention_heads(q, kv, mask, h, activation, 0.7)[0]
        np.testing.assert_array_equal(
            out.data, attention_heads(q, full, np.repeat(mask, self.B, 0), h, activation, 0.7)[0].data
        )

        def loss():
            return (attention_heads(q, kv, mask, h, activation, 0.7)[0] * c).sum()

        loss().backward()
        assert kv.grad.shape == kv.shape
        numeric = central_difference(lambda: loss().item(), kv)
        np.testing.assert_allclose(kv.grad, numeric, rtol=1e-6, atol=1e-7)

    def test_masked_keys_get_no_weight_or_gradient(self):
        rng = np.random.default_rng(8)
        q = Tensor(rng.normal(size=(self.B, self.N, 4)), requires_grad=True)
        kv = Tensor(rng.normal(size=(self.B, self.M, 8)), requires_grad=True)
        mask = self.key_mask()
        for activation in (SOFTMAX, ONE_PLUS_RELU):
            kv.zero_grad()
            out, w = attention_heads(q, kv, mask, 2, activation)
            assert (w.transpose(0, 3, 1, 2)[~mask] == 0).all()
            out.sum().backward()
            assert (kv.grad[~mask] == 0).all()

    def test_overflowing_scores_name_the_op(self):
        q = Tensor(np.full((1, 2, 2), 1e200))
        kv = Tensor(np.full((1, 3, 4), 1e200))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="attention_heads"):
            attention_heads(q, kv, np.ones((1, 3), bool), 1, SOFTMAX)

    def test_fully_masked_softmax_row(self):
        q, kv = Tensor(np.ones((2, 2, 2))), Tensor(np.ones((2, 3, 4)))
        mask = np.array([[True, False, True], [False, False, False]])
        with pytest.raises(DegenerateRowError):
            attention_heads(q, kv, mask, 2, SOFTMAX)
        out, w = attention_heads(q, kv, mask, 2, ONE_PLUS_RELU)
        assert (w[1] == 0).all() and (out.data[1] == 0).all()

    @pytest.mark.parametrize("kv_shape", [(2, 3, 2), (3, 3, 6), (2, 3, 5)])
    def test_shape_mismatch(self, kv_shape):
        # q has 2 rows and 2 heads of width 1: kv needs 1 or 2 entries, and
        # 2 key columns plus a positive multiple of 2 value columns
        with pytest.raises(ShapeError):
            attention_heads(Tensor(np.ones((2, 2, 2))), Tensor(np.ones(kv_shape)),
                            np.ones((2, 3), bool), 2, SOFTMAX)


def unblocked_attention(q, kv, key_mask, h, activation, scale, dy):
    """``attention_heads`` over every row at once in plain numpy, in the same
    order of operations, with its backward for the output gradient ``dy``:
    the output, the weights and the gradients of q and kv."""
    bsz, n, dq = q.shape
    entries, m, width = kv.shape
    dk, dv = dq // h, (width - dq) // h
    keys = np.asarray(key_mask, bool)[:, None, None, :]
    qh = q.reshape(bsz, n, h, dk).transpose(0, 2, 1, 3)
    kh = kv[..., :dq].reshape(entries, m, h, dk).transpose(0, 2, 1, 3)
    vh = kv[..., dq:].reshape(entries, m, h, dv).transpose(0, 2, 1, 3)
    w = np.matmul(qh, kh.swapaxes(-1, -2)) * scale
    if activation == SOFTMAX:
        w = w + np.where(keys, 0.0, -np.inf)
        w = np.exp(w - w.max(axis=-1, keepdims=True))
        w = w / w.sum(axis=-1, keepdims=True)
    else:
        live = (w > 0) & keys
        w = (np.maximum(w, 0.0) + 1.0) * keys
    out = np.matmul(w, vh).transpose(0, 2, 1, 3).reshape(bsz, n, h * dv)
    dyh = dy.reshape(bsz, n, h, dv).transpose(0, 2, 1, 3)
    g = np.matmul(dyh, vh.swapaxes(-1, -2))
    if activation == SOFTMAX:
        g = (g - (g * w).sum(axis=-1, keepdims=True)) * w
    else:
        g = g * live
    g = g * scale
    dqv = np.matmul(g, kh).transpose(0, 2, 1, 3).reshape(bsz, n, dq)
    dkv = np.concatenate(
        [np.matmul(qh.swapaxes(-1, -2), g).transpose(0, 3, 1, 2).reshape(bsz, m, dq),
         np.matmul(w.swapaxes(-1, -2), dyh).transpose(0, 2, 1, 3).reshape(bsz, m, h * dv)],
        axis=-1,
    )
    if entries == 1:
        dkv = dkv.sum(axis=0, keepdims=True)
    return out, w, dqv, dkv


class TestBlockedAttention:
    """``attention_heads`` runs its rows in blocks of ``BLOCK_BYTES`` of
    weights; no result may depend on the blocks, bit for bit."""

    N, M, H, DK, DV = 3, 4, 2, 2, 3
    ROW_BYTES = 8 * H * N * M  # one row's weights

    def run(self, rng, bsz, entries, key_mask, activation, n=N, h=H, dk=DK, dv=DV):
        m = key_mask.shape[1]
        q = Tensor(rng.normal(size=(bsz, n, h * dk)), requires_grad=True)
        kv = Tensor(rng.normal(size=(entries, m, h * (dk + dv))), requires_grad=True)
        dy = rng.normal(size=(bsz, n, h * dv))
        out, w = attention_heads(q, kv, key_mask, h, activation, 0.6)
        (out * Tensor(dy)).sum().backward()
        ref = unblocked_attention(q.data, kv.data, key_mask, h, activation, 0.6, dy)
        for got, want in zip((out.data, w, q.grad, kv.grad), ref):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("activation", [SOFTMAX, ONE_PLUS_RELU])
    @pytest.mark.parametrize("bsz", [1, 7])
    @pytest.mark.parametrize("shared", [False, True], ids=["G=B", "G=1"])
    def test_matches_unblocked_reference(self, monkeypatch, activation, bsz, shared):
        # blocks of 3 rows: 7 rows make two full blocks and one of a single row
        monkeypatch.setattr(T, "BLOCK_BYTES", 3 * self.ROW_BYTES + 1)
        rng = np.random.default_rng(bsz + 2 * shared)
        entries = 1 if shared else bsz
        every_key = np.ones((entries, self.M), bool)
        # the first block attends to every key (no mask pass), later ones do not
        masked = every_key.copy()
        masked[3:, 1] = masked[-1, 2:] = False
        if shared:
            masked[0, 1] = False
        for key_mask in (every_key, masked):
            self.run(rng, bsz, entries, key_mask, activation)

    @pytest.mark.parametrize("activation", [SOFTMAX, ONE_PLUS_RELU])
    def test_block_rows_follow_from_the_shape(self, activation):
        # the module's own block size on the bakery shape: 50 x 50 weights
        # of 4 heads, 80 KB a row, so 20 rows make several blocks, the last
        # one partial
        bsz, n, h = 20, 50, 4
        rows = T.BLOCK_BYTES // (8 * h * n * n)
        assert 1 < rows < bsz and bsz % rows
        key_mask = np.ones((bsz, n), bool)
        key_mask[13:, 40:] = False
        self.run(np.random.default_rng(3), bsz, bsz, key_mask, activation, n=n, h=h, dk=8, dv=8)

    def test_fully_masked_row_in_the_last_block(self, monkeypatch):
        # blocks of 2 rows; the last row of the last block attends to nothing
        monkeypatch.setattr(T, "BLOCK_BYTES", 2 * self.ROW_BYTES)
        q = Tensor(np.ones((6, self.N, self.H * self.DK)))
        kv = Tensor(np.ones((6, self.M, self.H * (self.DK + self.DV))))
        key_mask = np.ones((6, self.M), bool)
        key_mask[5] = False
        with pytest.raises(DegenerateRowError):
            attention_heads(q, kv, key_mask, self.H, SOFTMAX)
        out, w = attention_heads(q, kv, key_mask, self.H, ONE_PLUS_RELU)
        assert (w[5] == 0).all() and (out.data[5] == 0).all() and (w[:5] > 0).all()

    def test_overflow_in_a_later_block_names_the_op(self, monkeypatch):
        monkeypatch.setattr(T, "BLOCK_BYTES", 2 * self.ROW_BYTES)
        q = np.ones((5, self.N, self.H * self.DK))
        q[4] = 1e200
        kv = Tensor(np.full((1, self.M, self.H * (self.DK + self.DV)), 1e200))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="attention_heads"):
            attention_heads(Tensor(q), kv, np.ones((1, self.M), bool), self.H, SOFTMAX)


class TestTake:
    @pytest.mark.parametrize(
        "rows", [[2, 0, 2, 2], [1], [0, 1, 2, 3], [3, 3]], ids=["repeated", "single", "all", "one_entry"]
    )
    def test_gradients_match_finite_differences(self, rows):
        rng = np.random.default_rng(len(rows))
        t = Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)
        c = Tensor(rng.normal(size=(len(rows), 3, 2)))

        def loss():
            return (take(t, rows) * c).sum()

        out = take(t, rows)
        np.testing.assert_array_equal(out.data, t.data[rows])
        loss().backward()
        numeric = central_difference(lambda: loss().item(), t)
        np.testing.assert_allclose(t.grad, numeric, rtol=1e-6, atol=1e-8)
        unused = sorted(set(range(4)) - set(rows))
        assert (t.grad[unused] == 0).all()

    def test_no_graph_under_no_grad(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        with no_grad():
            out = take(t, [1, 0, 1])
        assert not out.requires_grad and out._backward is None
        assert not take(Tensor(np.ones((2, 3))), [0]).requires_grad

    @pytest.mark.parametrize("rows", [[0, 2], [-1], [[0, 1]], [0.0, 1.0], [True, False], []])
    def test_shape_errors(self, rows):
        with pytest.raises(ShapeError):
            take(Tensor(np.ones((2, 3))), rows)

    def test_rank_zero_rejected(self):
        with pytest.raises(ShapeError):
            take(Tensor(1.0), [0])
