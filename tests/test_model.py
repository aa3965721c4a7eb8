import numpy as np
import pytest

from choicenet import data as D
from choicenet import model as M
from choicenet.tensor import Tensor, no_grad


def seq_obs(assortment, candidates, choice):
    return D.ChoiceObservation(
        D.SEQUENTIAL, frozenset(assortment), candidates=frozenset(candidates), choice=choice
    )


def random_batch(rng, n_items=5, d=5, batch=3):
    cat = D.ItemCatalog(
        [f"i{k}" for k in range(n_items)], rng.normal(size=(n_items, d))
    )
    obs = []
    for _ in range(batch):
        size = rng.integers(2, n_items + 1)
        S = frozenset(rng.choice(n_items, size=size, replace=False).tolist())
        c_size = rng.integers(1, len(S) + 1)
        C = frozenset(rng.choice(sorted(S), size=c_size, replace=False).tolist())
        obs.append(seq_obs(S, C, min(C)))
    return cat, obs


class TestAttentionPrimitive:
    def test_uniform_weights_average_values(self):
        # equal scores -> softmax rows uniform -> output is the value mean
        q = Tensor(np.zeros((1, 3, 2)))
        k = Tensor(np.zeros((1, 3, 2)))
        v = Tensor(np.arange(6.0).reshape(1, 3, 2))
        out, norm = M.attention(q, k, v, np.ones((1, 3), bool), M.SOFTMAX, False, 2)
        np.testing.assert_allclose(out.data[0], np.tile(v.data[0].mean(axis=0), (3, 1)))
        np.testing.assert_allclose(norm, np.full((1, 3, 3), 1 / 3))

    def test_single_key_copies_value(self):
        q = Tensor(np.ones((1, 2, 2)))
        k = Tensor(np.ones((1, 1, 2)))
        v = Tensor(np.array([[[7.0, -3.0]]]))
        out, _ = M.attention(q, k, v, np.ones((1, 1), bool), M.SOFTMAX, True, 2)
        np.testing.assert_allclose(out.data[0], [[7.0, -3.0], [7.0, -3.0]])

    def test_one_plus_relu_zero_scores_sum_values(self):
        # phi(0) = 1 for every key -> unnormalized sum of values
        q = Tensor(np.zeros((1, 2, 2)))
        k = Tensor(np.zeros((1, 3, 2)))
        v = Tensor(np.arange(6.0).reshape(1, 3, 2))
        out, norm = M.attention(q, k, v, np.ones((1, 3), bool), M.ONE_PLUS_RELU, False, 2)
        np.testing.assert_allclose(out.data[0], np.tile(v.data[0].sum(axis=0), (2, 1)))
        np.testing.assert_allclose(norm, np.full((1, 2, 3), 1 / 3))

    def test_masked_key_ignored(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.normal(size=(1, 2, 2)))
        k = Tensor(rng.normal(size=(1, 3, 2)))
        v = Tensor(rng.normal(size=(1, 3, 2)))
        mask = np.array([[True, True, False]])
        out_masked, _ = M.attention(q, k, v, mask, M.SOFTMAX, True, 2)
        k2 = Tensor(k.data[:, :2])
        v2 = Tensor(v.data[:, :2])
        out_trunc, _ = M.attention(q, k2, v2, np.ones((1, 2), bool), M.SOFTMAX, True, 2)
        np.testing.assert_allclose(out_masked.data, out_trunc.data, atol=1e-14)

    def test_scaling_divides_scores(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.normal(size=(1, 2, 4)))
        k = Tensor(rng.normal(size=(1, 2, 4)))
        v = Tensor(np.eye(2).reshape(1, 2, 2))
        _, norm_scaled = M.attention(q, k, v, np.ones((1, 2), bool), M.SOFTMAX, True, 4)
        qs = Tensor(q.data / np.sqrt(2.0))  # scale q and k by 1/sqrt(sqrt(4)) each
        ks = Tensor(k.data / np.sqrt(2.0))
        _, norm_manual = M.attention(qs, ks, v, np.ones((1, 2), bool), M.SOFTMAX, False, 4)
        np.testing.assert_allclose(norm_scaled, norm_manual, atol=1e-12)


class TestForwardBasics:
    def make(self, **kw):
        cfg = M.TCNetConfig(input_dim=5, hidden_dim=8, n_heads=2, dropout_rate=0.0, seed=0, **kw)
        return cfg, M.init_params(cfg)

    def test_probs_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        cat, obs = random_batch(rng)
        cfg, params = self.make()
        batch = D.pad_batch(cat, obs)
        probs = M.forward(batch, params, cfg).probs
        sums = probs.sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-10
        assert (probs[~batch.cand_mask] == 0).all()

    def test_zero_decoder_gives_uniform(self):
        rng = np.random.default_rng(3)
        cat, obs = random_batch(rng)
        cfg, params = self.make()
        params["dec.0.W"] = Tensor(np.zeros((8, 1)), requires_grad=True)
        params["dec.0.b"] = Tensor(np.zeros(1), requires_grad=True)
        batch = D.pad_batch(cat, obs)
        probs = M.forward(batch, params, cfg).probs
        for b in range(batch.size):
            nc = batch.cand_mask[b].sum()
            np.testing.assert_allclose(probs[b, :nc], np.full(nc, 1 / nc), atol=1e-12)

    def test_permutation_equivariance(self):
        # item labels are nominal: choice probabilities attach to feature rows,
        # not to positions in the input ordering
        rng = np.random.default_rng(4)
        cfg, params = self.make()
        worst = 0.0
        for trial in range(100):
            trng = np.random.default_rng(10_000 + trial)
            cat, obs = random_batch(trng, n_items=6)
            batch = D.pad_batch(cat, obs)
            base = M.forward(batch, params, cfg).probs
            perm = trng.permutation(6)
            cat2 = D.ItemCatalog([cat.names[i] for i in perm], cat.features[perm])
            remap = {int(old): new for new, old in enumerate(perm)}
            obs2 = [
                seq_obs(
                    {remap[i] for i in o.assortment},
                    {remap[i] for i in o.candidates},
                    remap[o.choice],
                )
                for o in obs
            ]
            batch2 = D.pad_batch(cat2, obs2)
            probs2 = M.forward(batch2, params, cfg).probs
            for b, (o, o2) in enumerate(zip(obs, obs2)):
                items1 = batch.cand_items[b]
                items2 = batch2.cand_items[b]
                for pos1, item in enumerate(items1):
                    pos2 = items2.index(remap[item])
                    worst = max(worst, abs(base[b, pos1] - probs2[b, pos2]))
        assert worst < 1e-12

    def test_dropout_changes_training_forward_only(self):
        rng = np.random.default_rng(5)
        cat, obs = random_batch(rng)
        cfg = M.TCNetConfig(input_dim=5, hidden_dim=8, n_heads=2, dropout_rate=0.5, seed=0)
        params = M.init_params(cfg)
        batch = D.pad_batch(cat, obs)
        eval1 = M.forward(batch, params, cfg).probs
        eval2 = M.forward(batch, params, cfg).probs
        np.testing.assert_array_equal(eval1, eval2)
        tr = M.forward(batch, params, cfg, training=True, rng=np.random.default_rng(1)).probs
        assert np.abs(tr - eval1).max() > 1e-6

    def test_ffn_rows_independent(self):
        # the per-item feed-forward must not mix rows
        cfg, params = self.make(use_layer_norm=False)
        ctx = M._Ctx(params, cfg, False, None, False, None)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 3, 8))
        full = M._ffn_sublayer(ctx, "cand.0.ffn", Tensor(x)).data
        x2 = x.copy()
        x2[0, 2] += 10.0
        bumped = M._ffn_sublayer(ctx, "cand.0.ffn", Tensor(x2)).data
        np.testing.assert_array_equal(full[0, :2], bumped[0, :2])
        assert np.abs(full[0, 2] - bumped[0, 2]).max() > 0

    def test_zero_candidates_rejected(self):
        cfg, params = self.make()
        batch = D.PaddedBatch(
            np.zeros((1, 2, 5)), np.zeros((1, 2, 5)),
            np.zeros((1, 2), bool), np.ones((1, 2), bool),
            np.zeros(1, dtype=np.int64), None, [[0, 1]], [[0, 1]],
        )
        with pytest.raises(ValueError):
            M.forward(batch, params, cfg)


class TestNoGradForward:
    def test_outputs_identical_and_graph_free(self):
        rng = np.random.default_rng(12)
        cat, obs = random_batch(rng, n_items=6, batch=4)
        cfg = M.TCNetConfig(input_dim=5, hidden_dim=8, n_heads=2, seed=0)
        params = M.init_params(cfg)
        batch = D.pad_batch(cat, obs)
        multi = [
            D.ChoiceObservation(D.MULTI, o.assortment, basket=frozenset([min(o.assortment)]))
            for o in obs
        ]
        ubatch = D.pad_multi_batch(cat, multi)
        graph = M.forward(batch, params, cfg)
        graph_u = M.forward_utilities(ubatch, params, cfg)
        assert graph.utilities._parents and graph_u._parents
        with no_grad():
            plain = M.forward(batch, params, cfg)
            plain_u = M.forward_utilities(ubatch, params, cfg)
        np.testing.assert_array_equal(plain.probs, graph.probs)
        np.testing.assert_array_equal(plain.utilities.data, graph.utilities.data)
        np.testing.assert_array_equal(plain_u.data, graph_u.data)
        for t in (plain.utilities, plain.loss_input, plain_u):
            assert t._parents == () and t._backward is None and t.grad is None


class TestAttentionCapture:
    def test_record_inventory_and_row_sums(self):
        rng = np.random.default_rng(7)
        cat, obs = random_batch(rng)
        cfg = M.TCNetConfig(
            input_dim=5, hidden_dim=8, n_layers=2, n_heads=2, dropout_rate=0.0, seed=0
        )
        params = M.init_params(cfg)
        batch = D.pad_batch(cat, obs)
        records = M.forward(batch, params, cfg, capture_attention=True).records
        # 3 sublayers x 2 layers x 2 heads
        assert len(records) == 12
        kinds = {(r.kind, r.layer, r.head) for r in records}
        assert len(kinds) == 12
        for rec in records:
            for b in range(batch.size):
                n_rows = len(rec.row_items[b])
                sums = rec.scores[b, :n_rows].sum(axis=-1)
                np.testing.assert_allclose(sums, np.ones(n_rows), atol=1e-9)

    def test_no_capture_by_default(self):
        rng = np.random.default_rng(8)
        cat, obs = random_batch(rng)
        cfg = M.TCNetConfig(input_dim=5, hidden_dim=8, n_heads=2, dropout_rate=0.0)
        params = M.init_params(cfg)
        assert M.forward(D.pad_batch(cat, obs), params, cfg).records == []


class TestParameterCount:
    @pytest.mark.parametrize(
        "d,dv,L",
        [(8, 32, 1), (8, 32, 2), (8, 64, 1)],
    )
    def test_formula_matches_allocation(self, d, dv, L):
        cfg = M.TCNetConfig(input_dim=d, hidden_dim=dv, n_layers=L, n_heads=4)
        params = M.init_params(cfg)
        assert M.count_params(params) == M.parameter_count_formula(cfg)

    def test_head_count_does_not_change_total(self):
        base = None
        for h in (1, 2, 4, 8):
            cfg = M.TCNetConfig(input_dim=8, hidden_dim=32, n_heads=h)
            total = M.count_params(M.init_params(cfg))
            base = total if base is None else base
            assert total == base

    def test_catalog_size_invariance(self):
        # same config, datasets over different catalog sizes: identical params
        cfg = M.TCNetConfig(input_dim=8, hidden_dim=32, n_heads=4)
        shapes = M.parameter_shapes(cfg)
        assert not any("item" in k or "vocab" in k for k in shapes)
        assert M.parameter_count_formula(cfg) == sum(
            int(np.prod(s)) for s in shapes.values()
        )

    def test_hand_counted_small_config(self):
        # d=2, dv=2, 1 layer, 1 head, no norm, no embedding, linear decoder:
        # 3 attn sublayers x 3 matrices x (2x2) + ffn x2 x (2x2+2 + 2x2+2) + dec (2+1)
        cfg = M.TCNetConfig(
            input_dim=2, hidden_dim=2, n_heads=1,
            use_embedding=False, use_layer_norm=False,
        )
        assert M.parameter_count_formula(cfg) == 3 * 3 * 4 + 2 * (4 + 2 + 4 + 2) + 3
        assert M.count_params(M.init_params(cfg)) == M.parameter_count_formula(cfg)


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        cfg = M.TCNetConfig(input_dim=5, hidden_dim=8, n_heads=2, decoder_dims=(6,))
        params = M.init_params(cfg)
        path = tmp_path / "m.ckpt.npz"
        M.save_checkpoint(path, params, cfg)
        params2, cfg2 = M.load_checkpoint(path)
        assert cfg2 == cfg
        assert set(params2) == set(params)
        for k in params:
            assert (params[k].data == params2[k].data).all()

    def test_forward_identical_after_reload(self, tmp_path):
        rng = np.random.default_rng(9)
        cat, obs = random_batch(rng)
        cfg = M.TCNetConfig(input_dim=5, hidden_dim=8, n_heads=2, dropout_rate=0.0)
        params = M.init_params(cfg)
        batch = D.pad_batch(cat, obs)
        before = M.forward(batch, params, cfg).probs
        path = tmp_path / "m.ckpt.npz"
        M.save_checkpoint(path, params, cfg)
        params2, cfg2 = M.load_checkpoint(path)
        after = M.forward(batch, params2, cfg2).probs
        np.testing.assert_array_equal(before, after)

    def test_mismatched_params_rejected(self, tmp_path):
        cfg = M.TCNetConfig(input_dim=5, hidden_dim=8, n_heads=2)
        params = M.init_params(cfg)
        del params["dec.0.b"]
        path = tmp_path / "bad.ckpt.npz"
        M.save_checkpoint(path, params, cfg)
        with pytest.raises(ValueError):
            M.load_checkpoint(path)


class TestConfigValidation:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError):
            M.TCNetConfig(input_dim=4, hidden_dim=10, n_heads=4)

    def test_no_embedding_needs_matching_dims(self):
        with pytest.raises(ValueError):
            M.TCNetConfig(input_dim=4, hidden_dim=8, use_embedding=False)

    def test_json_roundtrip(self):
        cfg = M.TCNetConfig(
            input_dim=4, hidden_dim=8, n_heads=2, decoder_dims=(12,),
            cross_activation=M.ONE_PLUS_RELU,
        )
        assert M.TCNetConfig.from_json(cfg.to_json()) == cfg
