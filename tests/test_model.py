import dataclasses

import numpy as np
import pytest

from choicenet import cli
from choicenet import data as D
from choicenet import inference as I
from choicenet import model as M
from choicenet.tensor import ShapeError, Tensor, no_grad


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


# attention captured from a fixed net and input, computed by one op per
# attention head; the sublayers must reproduce them (kind, head) -> rows
PINNED_ATTENTION = {
    ("assortment_self", 0): [
        [0.4994347140340646, 0.2146306433738699, 0.2859346425920655],
        [0.5954599227977416, 0.1725407015041707, 0.2319993756980875],
        [0.3534423225843264, 0.31551270296912726, 0.3310449744465463]],
    ("assortment_self", 1): [
        [0.28813458588186847, 0.47576090218377215, 0.23610451193435927],
        [0.3357479110869689, 0.4627964293645355, 0.20145565954849556],
        [0.38764302958187774, 0.22563903039243535, 0.38671794002568693]],
    ("candidates_self", 0): [
        [1 / 3, 1 / 3, 1 / 3],
        [0.2967258599011931, 0.4065482801976139, 0.2967258599011931],
        [1 / 3, 1 / 3, 1 / 3]],
    ("candidates_self", 1): [
        [0.3950503862966528, 0.21405779184975168, 0.3908918218535955],
        [1 / 3, 1 / 3, 1 / 3],
        [0.4594282524693911, 0.09337172715997051, 0.44720002037063833]],
    ("cross", 0): [
        [0.43227091262303696, 0.3814263492768753, 0.1863027381000877],
        [0.3892056727302089, 0.3496364780619646, 0.2611578492078265],
        [0.4456747110502386, 0.3899884633930942, 0.16433682555666734]],
    ("cross", 1): [
        [0.3972761294912777, 0.3582715163609611, 0.24445235414776115],
        [0.38644664240975707, 0.38872934524769653, 0.2248240123425465],
        [0.3975482495714354, 0.35759618218666067, 0.244855568241904]],
}


class TestAttentionSublayers:
    def test_captured_scores_match_per_head_attention(self):
        S = frozenset(range(3))
        batch = D.pad_batch(D.ItemCatalog.one_hot(list("abc")), [seq_obs(S, S, 0)])
        # softmax everywhere but the candidates' self-attention, which is
        # 1 + relu and so reported row-normalized
        cfg = M.TCNetConfig(
            input_dim=3, hidden_dim=4, n_heads=2, seed=7, cand_attn_activation=M.ONE_PLUS_RELU
        )
        params = M.init_params(cfg)
        for name, p in params.items():
            if ".W" in name:
                p.data *= 1.5
        with no_grad():
            records = M.forward(batch, params, cfg, capture_attention=True).records
        assert [(r.kind, r.head) for r in records] == list(PINNED_ATTENTION)
        for r in records:
            np.testing.assert_allclose(r.scores[0], PINNED_ATTENTION[r.kind, r.head], rtol=0, atol=1e-12)

    def test_one_row_query_ops_do_not_grow_with_heads(self, monkeypatch):
        # each sublayer projects every head at once and runs one attention
        # op, so a query records as many ops at 4 heads as at 1
        ops = []
        from_op = Tensor._from_op
        monkeypatch.setattr(
            Tensor, "_from_op", staticmethod(lambda *a: ops.append(a[-1]) or from_op(*a))
        )
        cat = D.ItemCatalog.one_hot([f"i{k}" for k in range(6)])
        S = frozenset(range(6))
        counts = {}
        for h in (1, 2, 4):
            cfg = M.TCNetConfig(input_dim=6, hidden_dim=8, n_heads=h, seed=0)
            params = M.init_params(cfg)
            ops.clear()
            I.predict_sequential(params, cfg, cat, S - {0}, S)
            counts[h] = len(ops)
        assert counts[1] == counts[2] == counts[4]
        assert ops.count("attention_heads") == 3
        assert "concat" not in ops


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
            [[0, 1]], [[0, 1]], np.zeros(1, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            M.forward(batch, params, cfg)
        with pytest.raises(ValueError):
            M.forward_utilities(batch, params, cfg)


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
        ubatch = D.pad_batch(cat, multi)
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


class TestOneForwardBody:
    def test_forward_softmaxes_forward_utilities(self, monkeypatch):
        rng = np.random.default_rng(13)
        cat, obs = random_batch(rng, n_items=6, batch=5)
        cfg = M.TCNetConfig(input_dim=5, hidden_dim=8, n_heads=2, seed=1)
        params = M.init_params(cfg)
        batch = D.pad_batch(cat, obs)
        u = M.forward_utilities(batch, params, cfg).data

        def must_not_be_called(*args, **kwargs):
            raise AssertionError("forward and forward_utilities must not call each other")

        forward = M.forward
        monkeypatch.setattr(M, "forward_utilities", must_not_be_called)
        res = forward(batch, params, cfg)
        np.testing.assert_array_equal(res.utilities.data, u)
        with no_grad():
            probs = Tensor(u).masked_softmax(batch.cand_mask).data
        np.testing.assert_array_equal(res.probs, probs)
        monkeypatch.undo()
        monkeypatch.setattr(M, "forward", must_not_be_called)
        np.testing.assert_array_equal(M.forward_utilities(batch, params, cfg).data, u)


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
            params = M.init_params(cfg)
            total = (M.count_params(params), len(params))
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

    def test_mismatched_params_rejected(self, tmp_path, capsys):
        cfg = M.TCNetConfig(input_dim=4, hidden_dim=8, n_heads=2)
        data = tmp_path / "boost.csv"
        D.save_csv(D.generate_boosted_synthetic(20, seed=0), data)
        for layout, named in [
            ("missing", "dec.0.b"), ("per_head", "Wq.0"), ("wider", "wrong shape assort.embed.W1")
        ]:
            params = M.init_params(cfg)
            if layout == "missing":
                del params["dec.0.b"]
            elif layout == "wider":
                params = M.init_params(dataclasses.replace(cfg, hidden_dim=16))
            else:
                # the older per-head layout: Wq.k, Wk.k, Wv.k in place of Wq and Wkv
                for name in [k for k in params if k.endswith(".Wq")]:
                    prefix = name.rsplit(".", 1)[0]
                    del params[name], params[f"{prefix}.Wkv"]
                    for w in ("Wq", "Wk", "Wv"):
                        for k in range(cfg.n_heads):
                            params[f"{prefix}.{w}.{k}"] = Tensor(np.zeros((8, 4)))
            path = tmp_path / f"{layout}.ckpt.npz"
            M.save_checkpoint(path, params, cfg)
            with pytest.raises(ValueError, match=named):
                M.load_checkpoint(path)
            argv = ["eval", "--task", "sequential", "--data", str(data), "--checkpoint", str(path)]
            assert cli.main(argv) == cli.EXIT_BAD_INPUT
            assert named in capsys.readouterr().err

    def test_non_finite_params_rejected_naming_them(self, tmp_path, capsys):
        cfg = M.TCNetConfig(input_dim=4, hidden_dim=8, n_heads=2)
        params = M.init_params(cfg)
        params["dec.0.b"].data[:] = np.nan
        params["assort.embed.W1"].data[0, 1] = -np.inf
        path = tmp_path / "bad.ckpt.npz"
        M.save_checkpoint(path, params, cfg)
        with pytest.raises(ValueError, match="checkpoint parameters are not finite") as err:
            M.load_checkpoint(path)
        assert "dec.0.b" in str(err.value) and "assort.embed.W1" in str(err.value)
        assert "cand.0.cross.Wq" not in str(err.value)


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


def _unshared(batch):
    """The same batch with every row encoded on its own: one assortment entry
    per row."""
    index = batch.assort_index
    return dataclasses.replace(
        batch,
        assort_features=batch.assort_features[index],
        assort_mask=batch.assort_mask[index],
        assort_items=[batch.assort_items[g] for g in index],
        assort_index=np.arange(batch.size),
    )


class TestAssortmentCache:
    """Encoding each distinct (assortment, context) pair once changes no
    output beyond 1e-12 and no gradient."""

    @staticmethod
    def _boost_net():
        cfg = M.TCNetConfig(input_dim=4, hidden_dim=8, n_heads=2, n_layers=2, seed=5)
        return cfg, M.init_params(cfg)

    def _check_agrees(self, batch, cfg, params):
        plain = _unshared(batch)
        with no_grad():
            ref = M.forward(plain, params, cfg)
            ref_u = M.forward_utilities(plain, params, cfg).data
            cache = M.encode_assortment(batch, params, cfg)
            for res in (M.forward(batch, params, cfg), M.forward(batch, params, cfg, cache=cache)):
                np.testing.assert_allclose(res.probs, ref.probs, rtol=0, atol=1e-12)
                np.testing.assert_allclose(res.utilities.data, ref.utilities.data, rtol=0, atol=1e-12)
            for u in (M.forward_utilities(batch, params, cfg),
                      M.forward_utilities(batch, params, cfg, cache=cache)):
                np.testing.assert_allclose(u.data, ref_u, rtol=0, atol=1e-12)
        return cache

    def test_boost_batch_mixing_assortments_and_candidate_sizes(self):
        cfg, params = self._boost_net()
        ds = D.generate_boosted_synthetic(300, seed=11)
        batch = D.pad_batch(ds.catalog, ds.observations)
        assert len({len(o.candidates) for o in ds.observations}) > 2
        cache = self._check_agrees(batch, cfg, params)
        distinct = len({o.assortment for o in ds.observations})
        assert 1 < distinct < batch.size
        assert cache.latents.shape[0] == len(batch.assort_mask) == distinct

    def test_multi_batch(self):
        cfg, params = self._boost_net()
        ds = D.generate_boosted_multi(200, seed=4)
        batch = D.pad_batch(ds.catalog, ds.observations)
        assert 1 < len(batch.assort_mask) < batch.size
        self._check_agrees(batch, cfg, params)

    def test_one_shared_assortment_encodes_one_row(self, monkeypatch):
        cfg, params = self._boost_net()
        S = frozenset(range(4))
        obs = [seq_obs(S, S - {i}, min(S - {i})) for i in range(4)] + [seq_obs(S, S, 0)]
        batch = D.pad_batch(D.ItemCatalog.one_hot(list("abcd")), obs)
        self._check_agrees(batch, cfg, params)
        encoded = []
        encoder = M._assortment_encoder
        monkeypatch.setattr(
            M, "_assortment_encoder", lambda ctx, xs, *a: encoded.append(xs.shape[0]) or encoder(ctx, xs, *a)
        )
        with no_grad():
            M.forward_utilities(batch, params, cfg)
        M.forward(batch, params, cfg, training=True, rng=np.random.default_rng(0))
        M.forward(batch, params, cfg)
        # training and recording a graph encode the one entry too
        assert encoded == [1, 1, 1]

    @staticmethod
    def _weighted_utilities(batch, params, cfg, weights, rng):
        for p in params.values():
            p.zero_grad()
        u = M.forward_utilities(batch, params, cfg, training=True, rng=rng)
        (u * Tensor(weights)).sum().backward()
        return u.data, {name: p.grad.copy() for name, p in params.items()}

    @pytest.mark.parametrize("kind", ["boost", "multi"])
    def test_training_forward_matches_unshared_at_dropout_zero(self, kind):
        cfg = M.TCNetConfig(
            input_dim=4, hidden_dim=8, n_heads=2, n_layers=2, seed=5, dropout_rate=0.0
        )
        params = M.init_params(cfg)
        if kind == "boost":
            ds = D.generate_boosted_synthetic(120, seed=3)
            batch = D.pad_batch(ds.catalog, ds.observations)
        else:
            ds = D.generate_boosted_multi(80, seed=6)
            batch = D.pad_batch(ds.catalog, ds.observations)
        assert 1 < len(np.unique(batch.assort_index)) < batch.size
        weights = np.random.default_rng(1).normal(size=batch.cand_mask.shape)
        u, grads = self._weighted_utilities(batch, params, cfg, weights, np.random.default_rng(0))
        ref_u, ref_grads = self._weighted_utilities(
            _unshared(batch), params, cfg, weights, np.random.default_rng(0)
        )
        np.testing.assert_allclose(u, ref_u, rtol=0, atol=1e-12)
        for name, g in grads.items():
            ref = ref_grads[name]
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max(), name

    def test_dropout_mask_is_shared_per_entry(self, monkeypatch):
        cfg = M.TCNetConfig(input_dim=4, hidden_dim=8, n_heads=2, seed=0, dropout_rate=0.5)
        params = M.init_params(cfg)
        cat = D.ItemCatalog.one_hot(list("abc"))
        S, S2 = frozenset(range(3)), frozenset({0, 1})
        obs = [
            D.ChoiceObservation(D.SEQUENTIAL, s, candidates=c, choice=min(c), context=ctx)
            for s, c, ctx in ((S, S, (0.1,)), (S, S, (0.2,)), (S, {1, 2}, (0.1,)), (S2, S2, (0.1,)))
        ]
        batch = D.pad_batch(cat, obs)
        np.testing.assert_array_equal(batch.assort_index, [0, 1, 0, 2])
        seen = []
        take = M.take  # gathers each row's cross K/V from its entry
        monkeypatch.setattr(M, "take", lambda *a: seen.append(take(*a)) or seen[-1])
        M.forward(batch, params, cfg, training=True, rng=np.random.default_rng(3))
        with no_grad():
            M.forward(batch, params, cfg)
        kv, plain = (t.data for t in seen)
        # rows 0 and 2 share (S, 0.1) and its mask; dropout did act on it
        np.testing.assert_array_equal(kv[0], kv[2])
        assert not np.allclose(kv[0], plain[0])
        for a, b in ((0, 1), (0, 3), (1, 3)):
            assert not np.allclose(kv[a], kv[b])

    def test_context_separates_entries(self):
        cat = D.ItemCatalog.one_hot(list("abc"))
        S = frozenset(range(3))
        obs = [
            D.ChoiceObservation(D.SEQUENTIAL, S, candidates=S, choice=0, context=ctx)
            for ctx in ((0.1,), (0.2,), (0.1,))
        ]
        batch = D.pad_batch(cat, obs)
        np.testing.assert_array_equal(batch.assort_index, [0, 1, 0])
        cfg = M.TCNetConfig(input_dim=4, hidden_dim=8, n_heads=2, seed=0)
        params = M.init_params(cfg)
        with no_grad():
            cache = M.encode_assortment(batch, params, cfg)
        assert cache.latents.shape[0] == 2
        assert not np.allclose(cache.latents.data[0], cache.latents.data[1])
        self._check_agrees(batch, cfg, params)

    def test_cache_must_fit_the_batch(self):
        cfg, params = self._boost_net()
        ds = D.generate_boosted_synthetic(40, seed=2)
        batch = D.pad_batch(ds.catalog, ds.observations)
        other = D.pad_batch(ds.catalog, ds.observations[:7])
        with no_grad():
            cache = M.encode_assortment(batch, params, cfg)
            with pytest.raises(ShapeError):
                M.forward(other, params, cfg, cache=cache)

    def test_cache_of_another_assortment_is_refused(self):
        # a cache of S = {a, b, c} must not score C = {a, b} within S = {a, b, d}
        cfg = M.TCNetConfig(input_dim=5, hidden_dim=8, n_heads=2, seed=5)
        params = M.init_params(cfg)
        cat = D.ItemCatalog.one_hot(list("abcd"))
        a, b, c, d = range(4)

        def one_row(S, context=(0.1,)):
            S = frozenset(S)
            return D.pad_batch(cat, [D.ChoiceObservation(D.SEQUENTIAL, S, frozenset({a, b}), a, context=context)])

        batch = one_row({a, b, d})
        with no_grad():
            own = M.encode_assortment(batch, params, cfg)
            np.testing.assert_array_equal(
                M.forward(batch, params, cfg, cache=own).probs, M.forward(batch, params, cfg).probs
            )
            for other in (one_row({a, b, c}), one_row({a, b, d}, context=(0.2,))):
                cache = M.encode_assortment(other, params, cfg)
                with pytest.raises(ShapeError, match="other assortments"):
                    M.forward(batch, params, cfg, cache=cache)
                with pytest.raises(ShapeError, match="other assortments"):
                    M.forward_utilities(batch, params, cfg, cache=cache)

    def test_encoded_assortment_is_a_constant_under_grad(self):
        cfg, params = self._boost_net()
        S = frozenset(range(4))
        obs = [seq_obs(S, S - {i}, min(S - {i})) for i in range(4)]
        batch = D.pad_batch(D.ItemCatalog.one_hot(list("abcd")), obs)
        cache = M.encode_assortment(batch, params, cfg)
        assert cache.latents.shape[0] == 1 and not cache.latents.requires_grad
        for p in params.values():
            p.zero_grad()
        M.forward(batch, params, cfg, cache=cache).loss_input.sum().backward()
        assert params["cand.0.cross.Wq"].grad.any()
        assert not params["assort.0.attn.Wq"].grad.any()

    @pytest.mark.parametrize("shared", ["one", "some"])
    def test_gradients_match_finite_differences(self, shared):
        rng = np.random.default_rng(21)
        cat = D.ItemCatalog([f"i{k}" for k in range(5)], rng.normal(size=(5, 4)))
        S1, S2 = frozenset({0, 1, 2, 3}), frozenset({1, 2, 4})
        sets = [(S1, {0, 2}), (S1, {1, 2, 3}), (S1, {3})]
        if shared == "some":
            sets += [(S2, {1, 4}), (S2, {2})]
        obs = [seq_obs(S, C, min(C)) for S, C in sets]
        batch = D.pad_batch(cat, obs)
        assert len(batch.assort_mask) < batch.size
        cfg = M.TCNetConfig(input_dim=4, hidden_dim=4, n_heads=2, seed=2, decoder_dims=(3,))
        params = M.init_params(cfg)
        weights = rng.normal(size=batch.cand_mask.shape) * batch.cand_mask

        def loss():
            probs = M.forward(batch, params, cfg).loss_input
            return (probs * Tensor(weights)).sum()

        for p in params.values():
            p.zero_grad()
        loss().backward()
        h = 1e-6
        for name, p in params.items():
            flat, grad = p.data.reshape(-1), p.grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = loss().item()
                flat[i] = orig - h
                fm = loss().item()
                flat[i] = orig
                fd = (fp - fm) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(fd)), (name, i, fd, grad[i])
