import csv

import numpy as np
import pytest

from choicenet import data as D
from choicenet import inference as I
from choicenet import model as M
from choicenet import oracle as O
from choicenet import training as T
from choicenet.tensor import no_grad


@pytest.fixture(scope="module")
def tabular_net():
    """A network built to match a known tabular model exactly."""
    m = O.TabularSequentialModel.random(4, np.random.default_rng(13))
    params, config = O.build_constructive_tcnet(m)
    catalog = O.oracle_catalog(4)
    return m, params, config, catalog


@pytest.fixture(scope="module")
def small_net():
    cfg = M.TCNetConfig(input_dim=4, hidden_dim=8, n_heads=2, dropout_rate=0.0, seed=3)
    params = M.init_params(cfg)
    catalog = D.ItemCatalog.one_hot(["w", "x", "y", "z"])
    return params, cfg, catalog


class TestPredict:
    def test_matches_tabular(self, tabular_net):
        m, params, config, catalog = tabular_net
        items, probs = I.predict_sequential(params, config, catalog, {0, 2}, {0, 1, 2})
        assert items == [0, 2]
        for pos, i in enumerate(items):
            truth = O.tabular_probability(m, i, 0b101, 0b111)
            assert probs[pos] == pytest.approx(truth, abs=1e-6)

    def test_single_is_c_equals_s(self, small_net):
        # `predict --task single` scores C = S, as a single row is padded
        params, cfg, catalog = small_net
        S = frozenset({0, 1, 3})
        batch = D.pad_batch(catalog, [D.ChoiceObservation(D.SINGLE, S, choice=1)])
        with no_grad():
            ref = M.forward(batch, params, cfg).probs[0]
        items, probs = I.predict_sequential(params, cfg, catalog, S, S)
        assert items == sorted(S)
        np.testing.assert_array_equal(probs, ref[: len(S)])

    def test_probs_sum_to_one(self, small_net):
        params, cfg, catalog = small_net
        _, probs = I.predict_sequential(params, cfg, catalog, {1, 2}, {0, 1, 2, 3})
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_sets(self, small_net):
        params, cfg, catalog = small_net
        with pytest.raises(ValueError):
            I.predict_sequential(params, cfg, catalog, set(), {0})
        with pytest.raises(ValueError):
            I.predict_sequential(params, cfg, catalog, {0, 3}, {0})


class TestGenerateBasket:
    def test_fixed_size(self, small_net):
        params, cfg, catalog = small_net
        for k in (1, 2, 3):
            pred = I.generate_basket(params, cfg, catalog, {0, 1, 2, 3}, stop=("fixed_size", k))
            assert len(pred.basket) == k
            assert pred.basket <= {0, 1, 2, 3}

    def test_greedy_deterministic(self, small_net):
        params, cfg, catalog = small_net
        a = I.generate_basket(params, cfg, catalog, {0, 1, 2, 3}, stop=("fixed_size", 2))
        b = I.generate_basket(params, cfg, catalog, {0, 1, 2, 3}, stop=("fixed_size", 2))
        assert a.basket == b.basket
        assert a.trace == b.trace

    def test_greedy_picks_argmax_path(self, tabular_net):
        m, params, config, catalog = tabular_net
        S = frozenset({0, 1, 2, 3})
        pred = I.generate_basket(params, config, catalog, S, stop=("fixed_size", 2))
        # replay the greedy recursion against the exact tabular probabilities
        C = set(S)
        expected = []
        for _ in range(2):
            best = max(
                sorted(C),
                key=lambda i: O.tabular_probability(m, i, O.mask_of(C), O.mask_of(S)),
            )
            expected.append(best)
            C.remove(best)
        assert [i for i, _ in pred.trace] == expected

    def test_stop_item_rule(self, small_net):
        params, cfg, catalog = small_net
        pred = I.generate_basket(params, cfg, catalog, {0, 1, 2, 3}, stop=("stop_item", 3))
        assert 3 not in pred.basket

    def test_sampler_needs_rng(self, small_net):
        params, cfg, catalog = small_net
        with pytest.raises(ValueError):
            I.generate_basket(params, cfg, catalog, {0, 1}, method="sample")

    def test_sampler_frequencies_match_exact(self, tabular_net):
        # 2000 sampled size-1 baskets vs the exact first-pick distribution
        m, params, config, catalog = tabular_net
        S = frozenset({0, 1, 2})
        rng = np.random.default_rng(0)
        n = 2000
        counts = np.zeros(3)
        for _ in range(n):
            pred = I.generate_basket(
                params, config, catalog, S, method="sample", stop=("fixed_size", 1), rng=rng
            )
            counts[next(iter(pred.basket))] += 1
        for i in range(3):
            p = O.tabular_probability(m, i, 0b111, 0b111)
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts[i] / n - p) < 4 * sigma + 1e-9

    def test_batched_sampler_matches_loose_sampler(self, tabular_net):
        # sample_baskets and repeated generate_basket draw from the same law
        m, params, config, catalog = tabular_net
        S = frozenset({0, 1, 2, 3})
        n = 1500
        batched = I.sample_baskets(
            params, config, catalog, S, n, size=2, rng=np.random.default_rng(1)
        )
        rng = np.random.default_rng(2)
        loose = [
            I.generate_basket(
                params, config, catalog, S, method="sample", stop=("fixed_size", 2), rng=rng
            ).basket
            for _ in range(n)
        ]
        from collections import Counter

        cb, cl = Counter(batched), Counter(loose)
        for basket in set(cb) | set(cl):
            p1, p2 = cb[basket] / n, cl[basket] / n
            sigma = np.sqrt(max(p1, p2) * (1 - max(p1, p2)) / n)
            assert abs(p1 - p2) < 6 * sigma + 1e-9

    def test_batched_sampler_sizes(self, small_net):
        params, cfg, catalog = small_net
        out = I.sample_baskets(
            params, cfg, catalog, {0, 1, 2, 3}, 50, size=3, rng=np.random.default_rng(0)
        )
        assert len(out) == 50
        assert all(len(b) == 3 and b <= {0, 1, 2, 3} for b in out)

    def test_invalid_stop_rules(self, small_net):
        params, cfg, catalog = small_net
        with pytest.raises(ValueError):
            I.generate_basket(params, cfg, catalog, {0, 1}, stop=("fixed_size", 5))
        with pytest.raises(ValueError):
            I.generate_basket(params, cfg, catalog, {0, 1}, stop=("stop_item", 3))
        with pytest.raises(ValueError):
            I.generate_basket(params, cfg, catalog, {0, 1}, stop=("never", 0))


class TestThreshold:
    def test_hand_example(self, small_net):
        """u = (2, -2, 0) with mu = 0.5 keeps exactly the positive-utility item."""
        params, cfg, catalog = small_net
        u = np.array([2.0, -2.0, 0.0])
        sig = 1.0 / (1.0 + np.exp(-u))
        keep = {i for i, s in zip([0, 1, 2], sig) if s > 0.5}
        assert keep == {0}
        # sigmoid(0) = 0.5 is not > 0.5: the boundary item is excluded
        assert sig[2] == 0.5

    def test_threshold_monotone(self, small_net):
        params, cfg, catalog = small_net
        S = {0, 1, 2, 3}
        low = I.predict_threshold(params, cfg, catalog, S, mu=0.1)
        high = I.predict_threshold(params, cfg, catalog, S, mu=0.9)
        assert high <= low

    def test_mu_bounds(self, small_net):
        params, cfg, catalog = small_net
        for mu in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                I.predict_threshold(params, cfg, catalog, {0, 1}, mu=mu)


class TestF1Loss:
    def test_perfect_match_zero(self):
        assert I.f1_loss([frozenset({1, 2})], [frozenset({1, 2})]) == pytest.approx(0.0)

    def test_disjoint_one(self):
        assert I.f1_loss([frozenset({1})], [frozenset({2})]) == pytest.approx(1.0)

    def test_half_overlap(self):
        # |B_pred|=1, |B|=3, overlap 1: dice = 2*1/4 -> loss 0.5
        assert I.f1_loss([frozenset({1})], [frozenset({1, 2, 3})]) == pytest.approx(0.5)

    def test_empty_vs_empty_perfect(self):
        assert I.f1_loss([frozenset()], [frozenset()]) == pytest.approx(0.0)

    def test_mean_over_samples(self):
        loss = I.f1_loss(
            [frozenset({1}), frozenset({2})], [frozenset({1}), frozenset({3})]
        )
        assert loss == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            I.f1_loss([frozenset()], [])


class TestEvaluate:
    def test_uniform_model_ce_is_log4(self, small_net):
        _, cfg, catalog = small_net
        params = M.zero_params(cfg)
        obs = [
            D.ChoiceObservation(
                D.SEQUENTIAL,
                frozenset({0, 1, 2, 3}),
                candidates=frozenset({0, 1, 2, 3}),
                choice=k % 4,
            )
            for k in range(8)
        ]
        ds = D.ChoiceDataset(catalog, obs, D.SEQUENTIAL)
        out = I.evaluate(params, cfg, ds, D.SEQUENTIAL)
        assert out["ce"] == pytest.approx(np.log(4.0), abs=1e-9)
        assert len(out["per_sample"]) == 8

    def test_task_kind_mismatch(self, small_net):
        params, cfg, catalog = small_net
        ds = D.generate_boosted_multi(5, seed=0)
        with pytest.raises(ValueError):
            I.evaluate(params, cfg, ds, D.SEQUENTIAL)

    def test_multi_f1(self, small_net):
        params, cfg, catalog = small_net
        ds = D.generate_boosted_multi(10, seed=2)
        out = I.evaluate(params, cfg, ds, D.MULTI, mu=0.5)
        assert 0.0 <= out["f1_loss"] <= 1.0

    def test_tune_threshold_returns_grid_member(self, small_net):
        params, cfg, catalog = small_net
        ds = D.generate_boosted_multi(10, seed=4)
        mu, loss = I.tune_threshold(params, cfg, ds, grid=(0.3, 0.5))
        assert mu in (0.3, 0.5)
        assert 0.0 <= loss <= 1.0


@pytest.fixture(scope="module")
def multi_net():
    """A threshold-head network trained briefly on boosted baskets."""
    ds = D.generate_boosted_multi(300, seed=21)
    splits = D.split(ds, seed=22)
    cfg = M.TCNetConfig(input_dim=4, hidden_dim=8, n_heads=2, dropout_rate=0.0, seed=5)
    tc = T.TrainConfig(initial_lr=0.01, epochs=3, batch_size=32, seed=5)
    params, _ = T.train(cfg, splits, tc, objective="binary_ce")
    return params, cfg, splits


class TestBatchedMatchesSingleQuery:
    """The batched evaluators against the single-query paths."""

    def test_sequential_per_sample_is_single_query_nll(self, small_net):
        params, cfg, _ = small_net
        ds = D.generate_boosted_synthetic(300, seed=7)
        shapes = {(len(o.assortment), len(o.candidates)) for o in ds.observations}
        assert len(shapes) > 4  # each padded batch mixes |S| and |C|
        out = I.evaluate(params, cfg, ds, D.SEQUENTIAL)
        assert len(out["per_sample"]) == len(ds)
        for obs, nll in zip(ds.observations, out["per_sample"]):
            items, probs = I.predict_sequential(
                params, cfg, ds.catalog, obs.candidates, obs.assortment
            )
            assert abs(nll + np.log(probs[items.index(obs.choice)])) <= 1e-12

    def test_multi_baskets_match_predict_threshold(self, multi_net, monkeypatch):
        params, cfg, (_, _, test) = multi_net
        seen = []
        monkeypatch.setattr(I, "f1_loss", lambda pred, actual: seen.append(pred) or 0.0)
        for mu in (0.3, 0.5, 0.7):
            I.evaluate(params, cfg, test, D.MULTI, mu=mu)
            expected = [
                I.predict_threshold(params, cfg, test.catalog, obs.assortment, mu)
                for obs in test.observations
            ]
            assert seen.pop() == expected
            assert 0 < sum(map(len, expected)) < sum(len(o.assortment) for o in test.observations)

    def test_tune_threshold_is_argmin_of_each_evaluation(self, multi_net, monkeypatch):
        params, cfg, (_, val, _) = multi_net
        grid = (0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9)
        losses = [I.evaluate(params, cfg, val, D.MULTI, mu=mu)["f1_loss"] for mu in grid]
        assert len(set(losses)) > 1
        calls = []
        forward_utilities = M.forward_utilities
        monkeypatch.setattr(
            M, "forward_utilities", lambda *a, **k: calls.append(1) or forward_utilities(*a, **k)
        )
        mu, loss = I.tune_threshold(params, cfg, val, grid)
        assert mu == grid[int(np.argmin(losses))]
        assert loss == min(losses)
        assert len(calls) == -(-len(val) // 256)  # one forward per batch, not per grid value


class TestAttentionExport:
    def test_csv_layout_and_row_sums(self, small_net, tmp_path):
        params, cfg, catalog = small_net
        files = I.export_attention(
            params, cfg, catalog, {0, 1, 2}, {0, 1, 2, 3}, tmp_path, svg=True
        )
        csvs = [f for f in files if f.endswith(".csv")]
        svgs = [f for f in files if f.endswith(".svg")]
        # 3 sublayers x 1 layer x 2 heads
        assert len(csvs) == 6 and len(svgs) == 6
        for path in csvs:
            with open(path) as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == [""] + catalog.names
            data = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
            present_rows = [0, 1, 2] if "cross" in path or "candidates" in path else [0, 1, 2, 3]
            # real rows are normalized; absent-item rows are exactly zero
            for i in range(4):
                s = data[i].sum()
                if i in present_rows:
                    assert abs(s - 1.0) < 1e-9
                else:
                    assert s == 0.0

    def test_svg_is_wellformed(self, small_net, tmp_path):
        import xml.etree.ElementTree as ET

        params, cfg, catalog = small_net
        files = I.export_attention(
            params, cfg, catalog, {0, 1}, {0, 1, 2}, tmp_path, svg=True
        )
        svg = next(f for f in files if f.endswith(".svg"))
        ET.parse(svg)

    def test_latent_feature_export(self, small_net, tmp_path):
        params, cfg, catalog = small_net
        out = tmp_path / "latents.csv"
        I.export_latent_features(params, cfg, catalog, {0, 2, 3}, out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "item"
        assert [r[0] for r in rows[1:]] == ["w", "y", "z"]
        assert len(rows[0]) == 1 + cfg.hidden_dim


def _reference_basket(params, cfg, catalog, S, method, stop, rng):
    """generate_basket step by step through predict_sequential, which encodes
    the assortment again for every candidate set."""
    kind, arg = stop
    chosen, C = [], set(S)
    while C:
        items, probs = I.predict_sequential(params, cfg, catalog, C, S)
        if method == "greedy":
            pick = items[int(np.argmax(probs))]
        else:
            pick = items[rng.choice(len(items), p=probs / probs.sum())]
        if kind == "stop_item" and pick == arg:
            break
        chosen.append((pick, float(probs[items.index(pick)])))
        C.remove(pick)
        if kind == "fixed_size" and len(chosen) >= arg:
            break
        if kind == "stop_item" and C == {arg}:
            break
    return chosen


def _reference_samples(params, cfg, catalog, S, n, size, rng):
    """sample_baskets with one predict_sequential per new candidate state;
    also returns how many states were scored."""
    states, baskets, scored = [frozenset(S)] * n, [set() for _ in range(n)], {}
    for _ in range(size):
        groups = {}
        for idx, C in enumerate(states):
            groups.setdefault(C, []).append(idx)
        for C, members in groups.items():
            if C not in scored:
                scored[C] = I.predict_sequential(params, cfg, catalog, C, S)
            items, probs = scored[C]
            picks = np.searchsorted(np.cumsum(probs / probs.sum()), rng.random(len(members)))
            for idx, k in zip(members, picks):
                baskets[idx].add(items[int(k)])
                states[idx] = states[idx] - {items[int(k)]}
    return [frozenset(b) for b in baskets], len(scored)


class TestEncodeOnce:
    """Generation and sampling encode S once and give what scoring each
    candidate set on its own gives."""

    @pytest.fixture(scope="class")
    def net6(self):
        rng = np.random.default_rng(31)
        catalog = D.ItemCatalog([f"i{k}" for k in range(6)], rng.normal(size=(6, 3)))
        cfg = M.TCNetConfig(input_dim=3, hidden_dim=8, n_heads=2, n_layers=2, seed=4)
        return M.init_params(cfg), cfg, catalog

    @pytest.mark.parametrize(
        "method, stop",
        [("greedy", ("fixed_size", 4)), ("greedy", ("stop_item", 5)),
         ("sample", ("fixed_size", 5)), ("sample", ("stop_item", 2))],
    )
    def test_generate_matches_step_by_step_reference(self, net6, method, stop):
        params, cfg, catalog = net6
        S = frozenset({0, 1, 2, 3, 5})
        for seed in range(3):
            pred = I.generate_basket(
                params, cfg, catalog, S, method=method, stop=stop,
                rng=np.random.default_rng(seed),
            )
            ref = _reference_basket(
                params, cfg, catalog, S, method, stop, np.random.default_rng(seed)
            )
            assert [i for i, _ in pred.trace] == [i for i, _ in ref]
            assert pred.basket == frozenset(i for i, _ in ref)
            np.testing.assert_allclose(
                [p for _, p in pred.trace], [p for _, p in ref], rtol=0, atol=1e-12
            )

    def test_sample_baskets_match_reference(self, net6):
        params, cfg, catalog = net6
        S = frozenset({0, 1, 2, 4, 5})
        got = I.sample_baskets(params, cfg, catalog, S, 400, 3, np.random.default_rng(8))
        ref, _ = _reference_samples(params, cfg, catalog, S, 400, 3, np.random.default_rng(8))
        assert got == ref

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"encoder": 0, "forward": 0}
        encoder, forward = M._assortment_encoder, M.forward

        def counting_encoder(*a, **k):
            calls["encoder"] += 1
            return encoder(*a, **k)

        def counting_forward(*a, **k):
            calls["forward"] += 1
            return forward(*a, **k)

        monkeypatch.setattr(M, "_assortment_encoder", counting_encoder)
        monkeypatch.setattr(M, "forward", counting_forward)
        return calls

    def test_size_k_basket_encodes_once(self, net6, counted):
        params, cfg, catalog = net6
        I.generate_basket(params, cfg, catalog, {0, 1, 2, 3, 4, 5}, stop=("fixed_size", 4))
        assert counted == {"encoder": 1, "forward": 4}

    def test_sampling_encodes_once_and_scores_each_state_once(self, net6, counted):
        params, cfg, catalog = net6
        S = {0, 1, 2, 3, 4, 5}
        _, states = _reference_samples(params, cfg, catalog, S, 200, 3, np.random.default_rng(0))
        counted.update(encoder=0, forward=0)
        I.sample_baskets(params, cfg, catalog, S, 200, 3, np.random.default_rng(0))
        assert counted == {"encoder": 1, "forward": states}
        assert states > 3
