import dataclasses
import re

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from choicenet import data as D
from choicenet import model as M


def write_single_csv(path, rows):
    lines = ["obs_id,kind,assortment,candidates,choice,basket"]
    lines += rows
    path.write_text("\n".join(lines) + "\n")


class TestLoadCsv:
    def test_two_row_single_file(self, tmp_path):
        p = tmp_path / "d.csv"
        write_single_csv(p, ["0,single,A;B,,A,", "1,single,A;B,,B,"])
        ds = D.load_csv(p)
        assert ds.kind == D.SINGLE
        assert len(ds) == 2
        assert ds.catalog.item_count == 2
        np.testing.assert_array_equal(ds.catalog.features, np.eye(2))

    def test_choice_outside_assortment_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        write_single_csv(p, ["0,single,A;B,,A,", "1,single,A,,B,"])
        with pytest.raises(D.DataError, match="line 3"):
            D.load_csv(p)

    def test_malformed_feature_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(
            "obs_id,kind,assortment,candidates,choice,basket,f_0\n"
            "0,single,A;B,,A,,1.5\n"
            "1,single,A;B,,B,,oops\n"
        )
        with pytest.raises(D.DataError, match="line 3"):
            D.load_csv(p)

    def test_mixed_kinds_name_row(self, tmp_path):
        p = tmp_path / "d.csv"
        write_single_csv(p, ["0,single,A;B,,A,", "1,single,A;B,,B,", "2,multi,A;B,,,A"])
        with pytest.raises(D.DataError, match="line 4: kind multi, the first row's is single"):
            D.load_csv(p)

    def test_sequential_roundtrip(self, tmp_path):
        ds = D.generate_boosted_synthetic(25, seed=3)
        p = tmp_path / "seq.csv"
        D.save_csv(ds, p)
        back = D.load_csv(p)
        assert back.kind == D.SEQUENTIAL
        assert len(back) == 25
        # same sets/choices under name mapping
        for a, b in zip(ds.observations, back.observations):
            names_a = {ds.catalog.names[i] for i in a.assortment}
            names_b = {back.catalog.names[i] for i in b.assortment}
            assert names_a == names_b
            assert ds.catalog.names[a.choice] == back.catalog.names[b.choice]


class TestRefusedInputs:
    """An observation carries only the fields its kind uses, and finite
    numbers: anything else is refused, naming the observation or line."""

    S = frozenset({0, 1, 2})

    @pytest.mark.parametrize("kind, fields, refused", [
        (D.SINGLE, {"choice": 0, "candidates": frozenset({0, 1})},
         "a single observation takes no candidates or basket"),
        (D.SINGLE, {"choice": 0, "basket": frozenset({0})},
         "a single observation takes no candidates or basket"),
        (D.SEQUENTIAL, {"choice": 0, "candidates": frozenset({0}), "basket": frozenset({0})},
         "a sequential observation takes no basket"),
        (D.MULTI, {"basket": frozenset({1, 2}), "candidates": frozenset({0})},
         "a multi observation takes no candidates or choice"),
        (D.MULTI, {"basket": frozenset({1, 2}), "choice": 1},
         "a multi observation takes no candidates or choice"),
        (D.SINGLE, {"choice": 0, "context": (0.5, float("nan"))},
         "context (0.5, nan) is not finite"),
        (D.MULTI, {"basket": frozenset({1}), "context": (float("-inf"),)},
         "context (-inf,) is not finite"),
    ])
    def test_a_dataset_refuses_unused_fields_and_non_finite_contexts(self, kind, fields, refused):
        cat = D.ItemCatalog.one_hot(list("abc"))
        obs = D.ChoiceObservation(kind, self.S, **fields)
        with pytest.raises(D.DataError, match=re.escape(f"observation 0: {refused}")):
            D.ChoiceDataset(cat, [obs], kind)

    @pytest.mark.parametrize("rows, named", [
        # candidates would pad a basket row over C, outside its basket
        (["0,multi,a;b;c,,,a;b", "1,multi,a;b;c,a,,b;c"],
         "line 3: a multi observation takes no candidates or choice"),
        # choices on every basket row would be counted in place of the baskets
        (["0,multi,a;b;c,,a,a;b", "1,multi,a;b;c,,b,b;c"],
         "line 2: a multi observation takes no candidates or choice"),
        # a single row is scored over its whole assortment, never over C
        (["0,single,a;b;c,,a,", "1,single,a;b;c,b;c,b,"],
         "line 3: a single observation takes no candidates or basket"),
    ])
    def test_load_csv_names_the_line_of_an_unused_field(self, tmp_path, rows, named):
        p = tmp_path / "d.csv"
        write_single_csv(p, rows)
        with pytest.raises(D.DataError, match=f"d.csv, {named}"):
            D.load_csv(p)

    def test_load_csv_names_the_line_of_a_non_finite_context(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(
            "obs_id,kind,assortment,candidates,choice,basket,f_0\n"
            "0,single,A;B,,A,,1.5\n"
            "1,single,A;B,,B,,nan\n"
        )
        with pytest.raises(D.DataError, match=r"d.csv, line 3: context \(nan,\) is not finite"):
            D.load_csv(p)

    def test_non_finite_item_features_name_the_item_and_file(self, tmp_path):
        with pytest.raises(D.DataError, match="item 'b' has non-finite features"):
            D.ItemCatalog(["a", "b"], np.array([[0.0, 1.0], [np.inf, 0.0]]))
        data, feats = tmp_path / "d.csv", tmp_path / "items.csv"
        write_single_csv(data, ["0,single,a;b,,a,"])
        feats.write_text("name,f_0\na,1.0\nb,-inf\n")
        with pytest.raises(D.DataError, match="items.csv: item 'b' has non-finite features"):
            D.load_csv(data, feats)


class TestTransactions:
    def test_basket_lines(self, tmp_path):
        p = tmp_path / "trans.txt"
        p.write_text("1, 3, 5, 7\n2, 1, 2\n3, 7\n")
        ds = D.load_basket_transactions(p)
        assert ds.kind == D.MULTI
        assert len(ds) == 3
        sizes = [len(o.basket) for o in ds.observations]
        assert sizes == [3, 2, 1]


class TestSplit:
    def test_sizes_10(self):
        ds = D.generate_boosted_synthetic(10, seed=0)
        tr, va, te = D.split(ds, seed=1)
        assert (len(tr), len(va), len(te)) == (6, 2, 2)

    def test_deterministic(self):
        ds = D.generate_boosted_synthetic(50, seed=0)
        a = D.split(ds, seed=7)
        b = D.split(ds, seed=7)
        for x, y in zip(a, b):
            assert x.observations == y.observations

    def test_sizes_20000(self):
        ds = D.generate_boosted_synthetic(20_000, seed=0)
        tr, va, te = D.split(ds, seed=1)
        assert (len(tr), len(va), len(te)) == (12_000, 4_000, 4_000)

    def test_disjoint_cover(self):
        ds = D.generate_boosted_synthetic(40, seed=2)
        tr, va, te = D.split(ds, seed=3)
        assert len(tr) + len(va) + len(te) == 40

    def test_parts_are_not_validated_again(self, monkeypatch):
        ds = D.generate_boosted_synthetic(40, seed=2)
        calls = []
        validate = D.ChoiceObservation.validate
        monkeypatch.setattr(
            D.ChoiceObservation, "validate", lambda o, n: calls.append(o) or validate(o, n)
        )
        parts = D.split(ds, seed=3)
        assert calls == []
        for part in parts:
            assert part.catalog is ds.catalog and part.kind == ds.kind
            assert isinstance(part.observations, tuple)
        assert sorted(map(id, sum((p.observations for p in parts), ()))) == sorted(
            map(id, ds.observations)
        )


class TestMultiToSequential:
    def make_ds(self, baskets, assortment, n=4):
        cat = D.ItemCatalog.one_hot([f"i{k}" for k in range(n)])
        obs = [
            D.ChoiceObservation(D.MULTI, frozenset(assortment), basket=frozenset(b))
            for b in baskets
        ]
        return D.ChoiceDataset(cat, obs, D.MULTI)

    def test_singleton_basket(self):
        ds = self.make_ds([{0}], {0, 3})
        seq = D.multi_to_sequential(ds, np.random.default_rng(0))
        assert len(seq) == 1
        assert seq.observations[0].candidates == frozenset({0, 3})
        assert seq.observations[0].choice == 0

    def test_both_orders_enumerated(self):
        ds = self.make_ds([{0, 1}], {0, 1, 3})
        seen = set()
        for seed in range(200):
            seq = D.multi_to_sequential(ds, np.random.default_rng(seed))
            order = tuple(o.choice for o in seq.observations)
            cands = tuple(tuple(sorted(o.candidates)) for o in seq.observations)
            seen.add((order, cands))
        assert seen == {
            ((0, 1), ((0, 1, 3), (1, 3))),
            ((1, 0), ((0, 1, 3), (0, 3))),
        }

    def test_first_item_uniform_chi_square(self):
        basket = {0, 1, 2, 3}
        ds = self.make_ds([basket], basket)
        counts = {i: 0 for i in basket}
        n_draws = 10_000
        rng = np.random.default_rng(42)
        for _ in range(n_draws):
            seq = D.multi_to_sequential(ds, rng)
            counts[seq.observations[0].choice] += 1
        expected = n_draws / 4
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 11.34  # chi-square 1% critical value, 3 dof

    def test_expansion_count(self):
        ds = self.make_ds([{0, 1, 2}, {1, 3}], {0, 1, 2, 3})
        seq = D.multi_to_sequential(ds, np.random.default_rng(1))
        assert len(seq) == 5

    def test_append_stop(self):
        ds = self.make_ds([{0, 1}], {0, 1, 2})
        ds = D.ChoiceDataset(ds.catalog.with_stop_item(), ds.observations, ds.kind)
        seq = D.multi_to_sequential(ds, np.random.default_rng(0), append_stop=True)
        assert len(seq) == 3
        stop = ds.catalog.stop_index
        assert seq.observations[-1].choice == stop
        for o in seq.observations:
            assert stop in o.assortment

    def test_wrong_kind(self):
        ds = D.generate_boosted_synthetic(3, seed=0)
        with pytest.raises(D.DataError):
            D.multi_to_sequential(ds, np.random.default_rng(0))


@st.composite
def _reducible(draw):
    """A multi dataset over a catalog that carries the stop item, with
    contexts of one drawn length, and whether to append stops."""
    n = draw(st.integers(1, 5))
    catalog = D.ItemCatalog.one_hot([f"i{j}" for j in range(n)]).with_stop_item()
    k = draw(st.integers(0, 2))
    value = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    observations = []
    for _ in range(draw(st.integers(1, 6))):
        S = draw(st.sets(st.integers(0, n - 1), min_size=1).map(frozenset))
        context = tuple(draw(value) for _ in range(k)) or None
        basket = draw(st.sets(st.sampled_from(sorted(S)), min_size=1).map(frozenset))
        observations.append(D.ChoiceObservation(D.MULTI, S, basket=basket, context=context))
    return D.ChoiceDataset(catalog, observations, D.MULTI), draw(st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_reducible(), st.integers(0, 2**16))
def test_reductions_build_valid_datasets(case, seed):
    # the expansion skips validation; what it builds must pass it
    ds, append_stop = case
    seq = D.multi_to_sequential(ds, np.random.default_rng(seed), append_stop)
    assert seq.kind == D.SEQUENTIAL and seq.catalog is ds.catalog
    validated = D.ChoiceDataset(seq.catalog, seq.observations, seq.kind)
    assert validated.observations == seq.observations


class TestReduceSplit:
    baskets = D.generate_boosted_multi(30, seed=1)
    choices = D.generate_boosted_synthetic(30, seed=1)

    @pytest.mark.parametrize("task", [D.SINGLE, D.SEQUENTIAL])
    @pytest.mark.parametrize("k", [1, 2])
    def test_basket_val_and_test_expand_once_at_seed_plus_100_plus_k(self, task, k):
        got = D.reduce_split(self.baskets, task, 7, k)
        want = D.multi_to_sequential(self.baskets, np.random.default_rng(107 + k))
        assert got.kind == D.SEQUENTIAL
        assert got.observations == want.observations

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_other_splits_come_back_as_they_are(self, k):
        for task in (D.SINGLE, D.SEQUENTIAL):
            assert D.reduce_split(self.choices, task, 7, k) is self.choices
            # fit expands a basket train split anew every epoch
            assert D.reduce_split(self.baskets, task, 7, 0) is self.baskets
        assert D.reduce_split(self.baskets, D.MULTI, 7, k) is self.baskets

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_multi_task_needs_baskets(self, k):
        with pytest.raises(D.DataError, match="task multi needs basket data, got sequential"):
            D.reduce_split(self.choices, D.MULTI, 7, k)


class TestBoostedSynthetic:
    def test_no_boost_uniform(self):
        C = frozenset({D._A, D._B, D._L})
        S = frozenset({D._A, D._B, D._L})
        items, probs = D._boost_choice_probs(C, S, D.CANDIDATE_BOOST, 100.0)
        np.testing.assert_allclose(probs, np.full(3, 1 / 3))

    def test_boost_dominates(self):
        C = frozenset({D._A, D._AP, D._B, D._L})
        S = C
        items, probs = D._boost_choice_probs(C, S, D.CANDIDATE_BOOST, 100.0)
        assert probs[items.index(D._A)] > 0.999999

    def test_monte_carlo_conditional(self):
        ds = D.generate_boosted_synthetic(24_000, boost_kind=D.CANDIDATE_BOOST, seed=5)
        hits = total = 0
        for o in ds.observations:
            if D._AP in o.candidates and D._A in o.candidates:
                total += 1
                hits += o.choice == D._A
        assert total > 1000
        assert hits / total > 0.99

    def test_entropy_closed_form_matches_monte_carlo(self):
        ds = D.generate_boosted_synthetic(40_000, boost_kind=D.CANDIDATE_BOOST, seed=6)
        # empirical CE of the true model equals conditional entropy in expectation
        total = 0.0
        for o in ds.observations:
            items, probs = D._boost_choice_probs(
                o.candidates, o.assortment, D.CANDIDATE_BOOST, 100.0
            )
            total += -np.log(probs[items.index(o.choice)])
        ent = D.boosted_conditional_entropy(D.CANDIDATE_BOOST)
        assert abs(total / len(ds) - ent) < 0.02

    def test_multi_variant_nonempty(self):
        ds = D.generate_boosted_multi(200, seed=0)
        assert all(o.basket for o in ds.observations)
        assert ds.kind == D.MULTI


class TestImmutableDataset:
    def test_fields_and_observations_cannot_be_assigned(self):
        ds = D.generate_boosted_synthetic(5, seed=1)
        assert isinstance(ds.observations, tuple)
        for field, value in (("kind", D.MULTI), ("observations", ()), ("catalog", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ds, field, value)
        with pytest.raises(TypeError):
            ds.observations[0] = ds.observations[1]
        with pytest.raises(AttributeError):
            ds.observations.append(ds.observations[0])

    def test_row_index_is_built_once_per_dataset_on_first_batching(self, monkeypatch):
        built = []
        of = D._Rows.of
        monkeypatch.setattr(
            D._Rows, "of", classmethod(lambda cls, cat, obs: built.append(len(obs)) or of(cat, obs))
        )
        ds = D.generate_boosted_synthetic(30, seed=1)
        train, val, _ = D.split(ds, seed=2)
        assert built == []  # loading and splitting never batch
        for shuffle in (True, False, True):
            list(D.make_batches(train, 7, np.random.default_rng(0), shuffle))
        assert built == [len(train)]
        list(D.make_batches(val, 256, shuffle=False))
        list(D.make_batches(train, 256, shuffle=False))
        assert built == [len(train), len(val)]


class TestBatching:
    def test_batch_sizes(self):
        ds = D.generate_boosted_synthetic(5, seed=1)
        sizes = [b.size for b in D.make_batches(ds, 2, np.random.default_rng(0))]
        assert sizes == [2, 2, 1]

    def test_padding_and_masks(self):
        cat = D.ItemCatalog.one_hot([f"i{k}" for k in range(6)])
        obs = [
            D.ChoiceObservation(
                D.SEQUENTIAL, frozenset(range(3)), candidates=frozenset(range(3)), choice=0
            ),
            D.ChoiceObservation(
                D.SEQUENTIAL, frozenset(range(5)), candidates=frozenset(range(5)), choice=4
            ),
        ]
        batch = D.pad_batch(cat, obs)
        assert batch.cand_features.shape == (2, 5, 6)
        assert batch.cand_mask.sum(axis=1).tolist() == [3, 5]
        # padded rows carry zero features
        assert (batch.cand_features[0, 3:] == 0).all()

    def test_assortment_index(self):
        cat = D.ItemCatalog.one_hot([f"i{k}" for k in range(4)])
        S, T_ = frozenset({0, 1, 2}), frozenset({1, 3})

        def obs(S, context=None):
            return D.ChoiceObservation(D.SEQUENTIAL, S, candidates=S, choice=min(S), context=context)

        def multi(S):
            return D.ChoiceObservation(D.MULTI, S, basket=frozenset([min(S)]))

        shared = D.pad_batch(cat, [obs(S), obs(T_), obs(S), obs(S)])
        np.testing.assert_array_equal(shared.assort_index, [0, 1, 0, 0])
        assert shared.assort_items == [[0, 1, 2], [1, 3]]
        multi_batch = D.pad_batch(cat, [multi(T_), multi(S), multi(T_)])
        np.testing.assert_array_equal(multi_batch.assort_index, [0, 1, 0])
        # one row, all rows distinct, or the same items in another context:
        # one entry per row
        np.testing.assert_array_equal(D.pad_batch(cat, [obs(S)]).assort_index, [0])
        np.testing.assert_array_equal(D.pad_batch(cat, [obs(S), obs(T_)]).assort_index, [0, 1])
        in_contexts = D.pad_batch(cat, [obs(S, (0.0,)), obs(S, (1.0,))])
        np.testing.assert_array_equal(in_contexts.assort_index, [0, 1])
        np.testing.assert_array_equal(in_contexts.assort_features[:, 0, -1], [0.0, 1.0])

    def test_full_catalog_rows_share_one_entry(self):
        # the bakery shape: every basket is offered the whole catalog
        cat = D.ItemCatalog.one_hot([f"i{k}" for k in range(50)])
        full = frozenset(range(50))
        baskets = [
            D.ChoiceObservation(D.MULTI, full, basket=frozenset({k, 49 - k})) for k in range(8)
        ]
        ds = D.ChoiceDataset(cat, baskets, D.MULTI)
        seq = D.multi_to_sequential(ds, np.random.default_rng(0))
        for batch in (D.pad_batch(cat, baskets), D.pad_batch(cat, seq.observations)):
            assert batch.assort_features.shape == (1, 50, 50)
            assert batch.assort_mask.shape == (1, 50) and batch.assort_items == [list(range(50))]
            np.testing.assert_array_equal(batch.assort_index, np.zeros(batch.size))

    def test_multi_rows_offer_the_assortment(self):
        cat = D.ItemCatalog.one_hot([f"i{k}" for k in range(5)])
        obs = [
            D.ChoiceObservation(D.MULTI, frozenset({0, 2, 3}), basket=frozenset({2})),
            D.ChoiceObservation(D.MULTI, frozenset({1, 4}), basket=frozenset({1, 4})),
        ]
        batch = D.pad_batch(cat, obs)
        assert batch.cand_items == [[0, 2, 3], [1, 4]]
        np.testing.assert_array_equal(batch.cand_features[0, :3], np.eye(5)[[0, 2, 3]])
        np.testing.assert_array_equal(batch.cand_features[1, :2], np.eye(5)[[1, 4]])
        assert (batch.cand_features[1, 2] == 0).all()
        np.testing.assert_array_equal(batch.cand_mask, [[True, True, True], [True, True, False]])
        # each row counts its basket members over its candidate positions
        ds = D.ChoiceDataset(cat, obs, D.MULTI)
        assert ds._rows.labels is None
        (counted,) = D.make_batches(ds, 2, shuffle=False)
        np.testing.assert_array_equal(counted.chosen, [[0, 1, 0], [1, 1, 0]])

    def test_no_choices_no_labels(self):
        cat = D.ItemCatalog.one_hot(list("abc"))
        S = frozenset(range(3))
        obs = D.ChoiceObservation(D.SEQUENTIAL, S, candidates=frozenset({0, 2}))
        batch = D.pad_batch(cat, [obs])
        assert batch.cand_items == [[0, 2]] and batch.assort_items == [[0, 1, 2]]
        rows = D._Rows.of(cat, [obs])
        assert rows.labels is None and rows.baskets is None
        assert rows.chosen(slice(None), np.zeros(1, dtype=int), rows.cand.shape) is None

    def test_batched_vs_unbatched_forward(self):
        ds = D.generate_boosted_synthetic(30, seed=2)
        cfg = M.TCNetConfig(input_dim=4, hidden_dim=8, n_heads=2, dropout_rate=0.0, seed=1)
        params = M.init_params(cfg)
        big = D.pad_batch(ds.catalog, ds.observations)
        probs_big = M.forward(big, params, cfg).probs
        for k, obs in enumerate(ds.observations):
            single = D.pad_batch(ds.catalog, [obs])
            probs_one = M.forward(single, params, cfg).probs[0]
            nc = len(obs.candidates)
            assert np.abs(probs_big[k, :nc] - probs_one[:nc]).max() < 1e-10

    def test_padding_inertness(self):
        ds = D.generate_boosted_synthetic(16, seed=4)
        cfg = M.TCNetConfig(input_dim=4, hidden_dim=8, n_heads=2, dropout_rate=0.0, seed=2)
        params = M.init_params(cfg)
        batch = D.pad_batch(ds.catalog, ds.observations)
        base = M.forward(batch, params, cfg).probs.copy()
        rng = np.random.default_rng(0)
        batch.cand_features[~batch.cand_mask] = rng.normal(size=batch.cand_features[~batch.cand_mask].shape)
        batch.assort_features[~batch.assort_mask] = rng.normal(
            size=batch.assort_features[~batch.assort_mask].shape
        )
        perturbed = M.forward(batch, params, cfg).probs
        real = batch.cand_mask
        assert np.abs(base[real] - perturbed[real]).max() == 0.0

    def test_context_features_concatenated(self):
        cat = D.ItemCatalog.one_hot(["a", "b"])
        obs = D.ChoiceObservation(
            D.SEQUENTIAL,
            frozenset({0, 1}),
            candidates=frozenset({0, 1}),
            choice=0,
            context=(0.5, -1.0),
        )
        batch = D.pad_batch(cat, [obs])
        assert batch.cand_features.shape == (1, 2, 4)
        np.testing.assert_array_equal(batch.cand_features[0, 0, 2:], [0.5, -1.0])

    def test_mixed_context_lengths_fail(self):
        cat = D.ItemCatalog.one_hot(list("abc"))
        S = frozenset({0, 1})

        def obs(context):
            return D.ChoiceObservation(D.SEQUENTIAL, S, candidates=S, choice=0, context=context)

        with pytest.raises(D.DataError, match="observation 1 has a context of length 2"):
            D.ChoiceDataset(cat, [obs(None), obs((1.0, 2.0))], D.SEQUENTIAL)
        with pytest.raises(D.DataError, match="observation 2 has a context of length 1"):
            D.ChoiceDataset(cat, [obs((1.0, 2.0)), obs((0.0, 0.0)), obs((3.0,))], D.SEQUENTIAL)
        for contexts in ([None, (1.0, 2.0)], [(1.0,), (1.0, 2.0)], [(1.0, 2.0), None]):
            with pytest.raises(D.DataError, match="batch row 1 has a context"):
                D.pad_batch(cat, [obs(c) for c in contexts])


# -- property test of the padder against the per-row padding it replaced -----


def _reference_pad(catalog, sets, contexts):
    width = max(len(s) for s in sets)
    d = catalog.feature_dim + (len(contexts[0]) if contexts[0] else 0)
    feats = np.zeros((len(sets), width, d))
    mask = np.zeros((len(sets), width), dtype=bool)
    for b, (items, context) in enumerate(zip(sets, contexts)):
        row = catalog.features[items]
        if context is not None:
            ctx = np.tile(np.asarray(context, dtype=np.float64), (len(items), 1))
            row = np.concatenate([row, ctx], axis=1)
        feats[b, : len(items)] = row
        mask[b, : len(items)] = True
    return feats, mask


def _reference_pad_batch(catalog, observations):
    cand_sets = [
        sorted(o.assortment if o.candidates is None else o.candidates) for o in observations
    ]
    fc, mc = _reference_pad(catalog, cand_sets, [o.context for o in observations])
    firsts: dict = {}
    index = [
        firsts.setdefault((o.assortment, o.context), (len(firsts), o))[0] for o in observations
    ]
    first_obs = [o for _, o in firsts.values()]
    assort_sets = [sorted(o.assortment) for o in first_obs]
    fs, ms = _reference_pad(catalog, assort_sets, [o.context for o in first_obs])
    return D.PaddedBatch(fc, fs, mc, ms, cand_sets, assort_sets, np.array(index))


def _reference_targets(observations):
    """Each row's chosen candidate position when every row has a choice,
    and each row's basket mask over its padded candidates when every row
    has a basket; None otherwise."""
    cand_sets = [
        sorted(o.assortment if o.candidates is None else o.candidates) for o in observations
    ]
    labels = label_mask = None
    if all(o.choice is not None for o in observations):
        labels = np.array([c.index(o.choice) for c, o in zip(cand_sets, observations)])
    if all(o.basket is not None for o in observations):
        label_mask = np.zeros((len(cand_sets), max(map(len, cand_sets))), dtype=bool)
        for b, (items, obs) in enumerate(zip(cand_sets, observations)):
            label_mask[b, : len(items)] = [i in obs.basket for i in items]
    return labels, label_mask


def _reference_keys(observations):
    """Each row's distinct (sorted candidates, (assortment, context)) pair,
    numbered in order of first appearance."""
    keys: dict = {}
    return [
        keys.setdefault(
            (tuple(sorted(o.assortment if o.candidates is None else o.candidates)),
             o.assortment, o.context),
            len(keys),
        )
        for o in observations
    ]


_values = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def _catalog_and_batch(draw):
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        catalog = D.ItemCatalog.one_hot([f"i{k}" for k in range(n)])
    else:
        d = draw(st.integers(1, 4))
        rows = draw(st.lists(st.lists(_values, min_size=d, max_size=d), min_size=n, max_size=n))
        catalog = D.ItemCatalog([f"i{k}" for k in range(n)], np.array(rows))
    k = draw(st.integers(0, 3))
    nonempty = st.sets(st.integers(0, n - 1), min_size=1).map(frozenset)
    # a few assortments and contexts, reused so that rows share entries
    assortments = draw(st.lists(nonempty, min_size=1, max_size=3))
    contexts = draw(st.lists(
        st.tuples(*[_values] * k) if k else st.none(), min_size=1, max_size=2
    ))
    observations = []
    for _ in range(draw(st.integers(1, 8))):
        S = draw(st.sampled_from(assortments))
        context = draw(st.sampled_from(contexts))
        subset = st.sets(st.sampled_from(sorted(S)), min_size=1).map(frozenset)
        if draw(st.booleans()):
            C = draw(subset)
            choice = draw(st.sampled_from(sorted(C)))
            observations.append(D.ChoiceObservation(
                D.SEQUENTIAL, S, candidates=C, choice=choice, context=context
            ))
        else:
            observations.append(D.ChoiceObservation(
                D.MULTI, S, basket=draw(subset), context=context
            ))
    return catalog, observations


def _assert_same_batch(batch, want):
    """``batch`` equals ``want`` field for field."""
    for field in ("cand_features", "assort_features", "cand_mask", "assort_mask", "assort_index"):
        got, ref = getattr(batch, field), getattr(want, field)
        if ref is None:
            assert got is None, field
            continue
        assert got.dtype == ref.dtype and got.shape == ref.shape, field
        assert np.array_equal(got, ref), field
        assert got.flags.writeable, field
    for field in ("cand_features", "assort_features"):
        assert np.array_equal(np.signbit(getattr(batch, field)), np.signbit(getattr(want, field)))
    assert batch.cand_items == want.cand_items
    assert batch.assort_items == want.assort_items


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_catalog_and_batch())
def test_pad_batch_matches_per_row_padding(case):
    catalog, observations = case
    want = _reference_pad_batch(catalog, observations)
    _assert_same_batch(D.pad_batch(catalog, observations), want)
    rows = D._Rows.of(catalog, observations)
    np.testing.assert_array_equal(rows.key, _reference_keys(observations))
    # the row index holds every row's label, or every row's basket mask
    for got, ref in zip((rows.labels, rows.baskets), _reference_targets(observations)):
        if ref is None:
            assert got is None
        else:
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_catalog_and_batch(), st.integers(1, 9), st.integers(0, 2**16))
def test_gathered_batches_match_per_row_padding(case, batch_size, seed):
    # the rows of one kind make a dataset; make_batches gathers the distinct
    # rows of every batch, a random subset of its rows in random order, from
    # the dataset's index, whose keys number the distinct rows of the dataset
    # and of every batch
    catalog, observations = case
    kind = observations[0].kind
    ds = D.ChoiceDataset(catalog, [o for o in observations if o.kind == kind], kind)
    np.testing.assert_array_equal(ds._rows.key, _reference_keys(ds.observations))
    order = np.random.default_rng(seed).permutation(len(ds))
    batches = D.make_batches(ds, batch_size, np.random.default_rng(seed), shuffle=True)
    for start, counted in zip(range(0, len(ds), batch_size), batches, strict=True):
        taken = order[start : start + batch_size]
        rows = [ds.observations[i] for i in taken]
        keys = _reference_keys(rows)
        np.testing.assert_array_equal(D.renumber(ds._rows.key[taken])[0], keys)
        # the batch holds the first row of each key, and counts its rows'
        # choices or basket members by key
        firsts = [keys.index(k) for k in range(max(keys) + 1)]
        _assert_same_batch(counted.batch, _reference_pad_batch(catalog, [rows[b] for b in firsts]))
        np.testing.assert_array_equal(counted.rows, np.bincount(keys))
        assert counted.size == len(rows)
        labels, label_mask = _reference_targets(rows)
        chosen = np.zeros(counted.batch.cand_mask.shape)
        for b, k in enumerate(keys):
            if labels is not None:
                chosen[k, labels[b]] += 1
            else:
                chosen[k] += label_mask[b]
        np.testing.assert_array_equal(counted.chosen, chosen)
