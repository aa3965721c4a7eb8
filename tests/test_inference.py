import csv
import dataclasses
import sys
import threading
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from choicenet import data as D
from choicenet import inference as I
from choicenet import model as M
from choicenet import oracle as O
from choicenet import training as T
from choicenet.tensor import ONE_PLUS_RELU, SOFTMAX, no_grad


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
        I._snapshot = None  # the reference run filled the memo
        counted.update(encoder=0, forward=0)
        I.sample_baskets(params, cfg, catalog, S, 200, 3, np.random.default_rng(0))
        assert counted == {"encoder": 1, "forward": states}
        assert states > 3


def _fresh(params, cfg, catalog, C, S, context=None):
    """The probabilities and utilities of the (C, S, context) query from a
    forward that encodes S itself, without the memo."""
    batch = I._obs_batch(catalog, C, S, context)
    with no_grad():
        res = M.forward(batch, params, cfg)
    return res.probs[0][: len(C)], res.utilities.data[0][: len(C)]


def _fresh_greedy(params, cfg, catalog, S, size, context=None):
    """A greedy fixed-size basket's trace, each step through ``_fresh``."""
    trace, C = [], set(S)
    for _ in range(size):
        probs, _ = _fresh(params, cfg, catalog, C, S, context)
        items = sorted(C)
        k = int(np.argmax(probs))
        trace.append((items[k], float(probs[k])))
        C.remove(items[k])
    return trace


class _EncodeSpy:
    """Counts the assortment encoder's calls while it is installed."""

    def __init__(self):
        self.calls = 0
        self._encoder = M._assortment_encoder

    def __call__(self, *a, **k):
        self.calls += 1
        return self._encoder(*a, **k)

    def count(self, fn, *a, **k):
        """``fn``'s result and how many encodes it ran."""
        before = self.calls
        return fn(*a, **k), self.calls - before


@st.composite
def _memo_cases(draw):
    n = draw(st.integers(2, 5))
    k = draw(st.sampled_from([0, 2]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    names = [f"i{j}" for j in range(n)]
    if draw(st.booleans()):
        catalog = D.ItemCatalog.one_hot(names)
    else:
        catalog = D.ItemCatalog(names, rng.normal(size=(n, 3)))
    heads = draw(st.sampled_from([1, 2]))
    cfg = M.TCNetConfig(
        input_dim=catalog.feature_dim + k, hidden_dim=4 * heads, n_heads=heads,
        n_layers=draw(st.integers(1, 2)), seed=seed,
        attention_activation=draw(st.sampled_from([SOFTMAX, ONE_PLUS_RELU])),
        use_layer_norm=draw(st.booleans()), decoder_dims=draw(st.sampled_from([(), (4,)])),
    )
    subset = st.sets(st.integers(0, n - 1), min_size=1).map(frozenset)
    # small pools, so that queries repeat assortments and contexts
    pool = draw(st.lists(subset, min_size=1, max_size=3))
    contexts = [None] if k == 0 else [tuple(rng.normal(size=k)) for _ in range(2)]
    queries = []
    for _ in range(draw(st.integers(1, 8))):
        S = draw(st.sampled_from(pool))
        C = draw(st.sets(st.sampled_from(sorted(S)), min_size=1).map(frozenset))
        kind = draw(st.sampled_from(["predict", "utilities", "threshold", "generate"]))
        queries.append((kind, C, S, draw(st.sampled_from(contexts))))
    return M.init_params(cfg, rng), cfg, catalog, queries


class TestAssortmentMemo:
    """Single-query serving takes each (assortment, context) encoding from a
    memo for the current model, and gives what encoding it afresh gives."""

    @pytest.fixture
    def spy(self, monkeypatch):
        spy = _EncodeSpy()
        monkeypatch.setattr(M, "_assortment_encoder", spy)
        return spy

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_memo_cases())
    def test_every_single_query_output_equals_a_memo_free_forward(self, case):
        params, cfg, catalog, queries = case
        I._snapshot = None
        spy = _EncodeSpy()
        encoded = set()
        with mock.patch.object(M, "_assortment_encoder", spy):
            for kind, C, S, ctx in queries:
                if kind == "predict":
                    res, n = spy.count(I.predict_sequential, params, cfg, catalog, C, S, ctx)
                    assert res[0] == sorted(C)
                    got, want = res[1], _fresh(params, cfg, catalog, C, S, ctx)[0]
                elif kind == "utilities":
                    res, n = spy.count(I.assortment_utilities, params, cfg, catalog, S, ctx)
                    assert res[0] == sorted(S)
                    got, want = res[1], _fresh(params, cfg, catalog, S, S, ctx)[1]
                elif kind == "threshold":
                    got, n = spy.count(I.predict_threshold, params, cfg, catalog, S, 0.5, ctx)
                    sig = 1.0 / (1.0 + np.exp(-_fresh(params, cfg, catalog, S, S, ctx)[1]))
                    want = frozenset(i for i, v in zip(sorted(S), sig) if v > 0.5)
                else:
                    pred, n = spy.count(
                        I.generate_basket, params, cfg, catalog, S, stop=("fixed_size", len(C)),
                        context=ctx,
                    )
                    got, want = pred.trace, _fresh_greedy(params, cfg, catalog, S, len(C), ctx)
                if isinstance(want, np.ndarray):
                    assert np.array_equal(got, want)
                else:
                    assert got == want
                # the first query of an (assortment, context) encodes it, no other does
                assert n == ((S, ctx) not in encoded)
                encoded.add((S, ctx))

    def test_an_adam_step_encodes_again(self, small_net, spy):
        _, cfg, catalog = small_net
        params = M.init_params(cfg)
        I.predict_sequential(params, cfg, catalog, {0, 1}, {0, 1, 2})
        rng = np.random.default_rng(0)
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
        T.Adam(params, lr=0.01).step()
        self.assert_fresh(spy, params, cfg, catalog, {0, 1}, {0, 1, 2})

    @pytest.mark.parametrize("name", ["assort.embed.W1", "assort.0.ffn.b2", "cand.0.cross.Wkv"])
    def test_an_in_place_write_encodes_again(self, small_net, spy, name):
        _, cfg, catalog = small_net
        params = M.init_params(cfg)
        I.predict_sequential(params, cfg, catalog, {0, 1}, {0, 1, 2})
        params[name].data[...] += 0.25
        self.assert_fresh(spy, params, cfg, catalog, {0, 1}, {0, 1, 2})

    def test_another_params_dict_encodes_again(self, small_net, spy):
        params, cfg, catalog = small_net
        I.predict_sequential(params, cfg, catalog, {0, 1}, {0, 1, 2})
        other = M.init_params(cfg, np.random.default_rng(99))
        self.assert_fresh(spy, other, cfg, catalog, {0, 1}, {0, 1, 2})
        self.assert_fresh(spy, params, cfg, catalog, {0, 1}, {0, 1, 2})

    def test_another_attention_activation_encodes_again(self, small_net, spy):
        params, cfg, catalog = small_net
        I.predict_sequential(params, cfg, catalog, {0, 1}, {0, 1, 2})
        other = dataclasses.replace(cfg, attention_activation=ONE_PLUS_RELU)
        self.assert_fresh(spy, params, other, catalog, {0, 1}, {0, 1, 2})
        # a config changed in place is another config too
        mutable = dataclasses.replace(cfg)
        self.assert_fresh(spy, params, mutable, catalog, {0, 1}, {0, 1, 2})
        mutable.attention_activation = ONE_PLUS_RELU
        self.assert_fresh(spy, params, mutable, catalog, {0, 1}, {0, 1, 2})

    def test_a_catalog_with_other_features_encodes_again(self, small_net, spy):
        params, cfg, catalog = small_net
        I.predict_sequential(params, cfg, catalog, {0, 1}, {0, 1, 2})
        other = D.ItemCatalog(catalog.names, catalog.features * 2.0)
        self.assert_fresh(spy, params, cfg, other, {0, 1}, {0, 1, 2})

    def test_another_context_encodes_again(self, spy):
        rng = np.random.default_rng(4)
        catalog = D.ItemCatalog([f"i{k}" for k in range(4)], rng.normal(size=(4, 2)))
        cfg = M.TCNetConfig(input_dim=3, hidden_dim=8, n_heads=2, seed=1)
        params = M.init_params(cfg)
        I.predict_sequential(params, cfg, catalog, {0, 1}, {0, 1, 2}, (0.5,))
        self.assert_fresh(spy, params, cfg, catalog, {0, 1}, {0, 1, 2}, (-0.5,))
        # and the first context is still kept
        _, n = spy.count(I.predict_sequential, params, cfg, catalog, {1, 2}, {0, 1, 2}, (0.5,))
        assert n == 0

    def assert_fresh(self, spy, params, cfg, catalog, C, S, context=None):
        (_, got), n = spy.count(I.predict_sequential, params, cfg, catalog, C, S, context)
        assert n == 1
        assert np.array_equal(got, _fresh(params, cfg, catalog, C, S, context)[0])

    def test_the_memo_keeps_at_most_its_bound(self, spy):
        catalog = D.ItemCatalog.one_hot(["a", "b", "c"])
        cfg = M.TCNetConfig(input_dim=4, hidden_dim=4, n_heads=1, seed=2)
        params = M.init_params(cfg)
        contexts = [(float(k),) for k in range(I.MEMO_ENTRIES + 5)]
        for ctx in contexts:
            I.predict_sequential(params, cfg, catalog, {0}, {0, 1}, ctx)
        assert len(I._snapshot.entries) == I.MEMO_ENTRIES
        assert spy.calls == len(contexts)
        # the least recently used entry goes first
        oldest = contexts[-I.MEMO_ENTRIES]
        for ctx, encodes in ((oldest, 0), (contexts[0], 1), (oldest, 0)):
            _, n = spy.count(I.predict_sequential, params, cfg, catalog, {1}, {0, 1}, ctx)
            assert n == encodes
        assert len(I._snapshot.entries) == I.MEMO_ENTRIES

    def test_threads_serving_two_models_get_their_own_outputs(self, small_net):
        _, cfg, catalog = small_net
        models = [M.init_params(cfg, np.random.default_rng(s)) for s in (1, 2)]
        S, C = {0, 1, 2, 3}, {1, 3}
        want = [_fresh(params, cfg, catalog, C, S)[0] for params in models]
        assert not np.array_equal(*want)
        got = [[] for _ in range(4)]

        def serve(t):
            for _ in range(100):
                got[t].append(I.predict_sequential(models[t % 2], cfg, catalog, C, S)[1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=serve, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for t, outputs in enumerate(got):
            assert len(outputs) == 100
            assert all(np.array_equal(p, want[t % 2]) for p in outputs)

    def test_a_repeated_basket_encodes_nothing(self, small_net, spy, tmp_path):
        params, cfg, catalog = small_net
        S = {0, 1, 2, 3}
        first, n = spy.count(I.generate_basket, params, cfg, catalog, S, stop=("fixed_size", 3))
        assert n == 1
        again, n = spy.count(I.generate_basket, params, cfg, catalog, S, stop=("fixed_size", 3))
        assert n == 0
        assert again.trace == first.trace
        # the latent export reads the same encoding
        _, n = spy.count(I.export_latent_features, params, cfg, catalog, S, tmp_path / "z.csv")
        assert n == 0
        with open(tmp_path / "z.csv") as fh:
            rows = [[float(v) for v in r[1:]] for r in list(csv.reader(fh))[1:]]
        latents = M.encode_assortment(I._obs_batch(catalog, S, S), params, cfg).latents.data[0]
        np.testing.assert_allclose(rows, latents, rtol=1e-9, atol=0)

    def test_attention_capture_runs_its_own_forward(self, small_net, spy):
        params, cfg, catalog = small_net
        I.predict_sequential(params, cfg, catalog, {0, 1}, {0, 1, 2})
        _, n = spy.count(I.capture_attention, params, cfg, catalog, {0, 1}, {0, 1, 2})
        assert n == 1
