import dataclasses
import gc
import tracemalloc
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from choicenet import data as D
from choicenet import inference as I
from choicenet import model as M
from choicenet import training as T
from choicenet.tensor import ONE_PLUS_RELU, SOFTMAX, NonFiniteError, Tensor, _accumulate, no_grad


class TestCeLoss:
    def test_uniform_over_four(self):
        probs = Tensor(np.full((2, 4), 0.25))
        loss = T.ce_loss(probs, np.eye(4)[[0, 3]])
        assert loss.item() == pytest.approx(np.log(4.0))

    def test_perfect_prediction_zero(self):
        probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = T.ce_loss(probs, np.eye(2)[[0, 1]])
        assert loss.item() == pytest.approx(0.0)

    def test_mixed_example(self):
        # mean(-ln 0.5, -ln 0.25) = 1.0397...
        probs = Tensor(np.array([[0.5, 0.5], [0.25, 0.75]]))
        loss = T.ce_loss(probs, np.eye(2)[[0, 0]])
        assert loss.item() == pytest.approx((np.log(2) + np.log(4)) / 2)

    def test_floor_clamps_and_counts(self):
        stats = T.LossStats()
        probs = Tensor(np.array([[0.0, 1.0]]))
        loss = T.ce_loss(probs, np.eye(2)[[0]], stats)
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(-np.log(T.LOG_FLOOR))
        assert stats.clamped_labels == 1

    def test_floor_counts_each_row_that_holds_the_clamped_label(self):
        stats = T.LossStats()
        probs = Tensor(np.array([[0.0, 1.0], [0.0, 1.0]]))
        T.ce_loss(probs, np.array([[3.0, 1.0], [0.0, 2.0]]), stats)
        assert stats.clamped_labels == 3

    def test_gradient_only_at_label(self):
        probs = Tensor(np.array([[0.2, 0.8]]), requires_grad=True)
        T.ce_loss(probs, np.eye(2)[[1]]).backward()
        np.testing.assert_allclose(probs.grad, [[0.0, -1 / 0.8]])


class TestIndependentCeLoss:
    def test_zero_utility_is_ln2(self):
        u = Tensor(np.zeros((2, 3)))
        loss = T.independent_ce_loss(u, np.ones((2, 3), bool), np.ones((2, 3), bool))
        assert loss.item() == pytest.approx(np.log(2.0))

    def test_unit_utility_positive_label(self):
        # -ln sigmoid(1) = ln(1 + e^-1)
        u = Tensor(np.array([[1.0]]))
        loss = T.independent_ce_loss(u, np.array([[True]]), np.array([[True]]))
        assert loss.item() == pytest.approx(np.log(1 + np.exp(-1.0)))

    def test_padded_positions_excluded(self):
        u = Tensor(np.array([[0.0, 999.0]]))
        valid = np.array([[True, False]])
        loss = T.independent_ce_loss(u, np.array([[True, False]]), valid)
        assert loss.item() == pytest.approx(np.log(2.0))


class TestXavier:
    def test_bounds_64x64(self):
        t = T.xavier_init((64, 64), np.random.default_rng(0))
        bound = np.sqrt(6.0 / 128)
        assert bound == pytest.approx(0.21650635094)
        assert np.abs(t.data).max() <= bound
        assert t.requires_grad

    def test_variance_within_5_percent(self):
        t = T.xavier_init((200, 200), np.random.default_rng(1))
        bound = np.sqrt(6.0 / 400)
        expected_var = bound**2 / 3.0
        assert abs(t.data.var() / expected_var - 1.0) < 0.05

    def test_deterministic(self):
        a = T.xavier_init((5, 5), np.random.default_rng(3))
        b = T.xavier_init((5, 5), np.random.default_rng(3))
        assert (a.data == b.data).all()

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            T.xavier_init((5,), np.random.default_rng(0))


class TestAdam:
    def test_zero_gradient_no_movement(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.zero_grad()
        opt = T.Adam({"p": p}, lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_first_step_size_is_about_lr(self):
        # with bias correction the first update is lr * g / (|g| + eps)
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([4.0])
        opt = T.Adam({"p": p}, lr=0.01)
        opt.step()
        assert p.data[0] == pytest.approx(-0.01, rel=1e-6)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = T.Adam({"p": p}, lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_weight_decay_shrinks_params(self):
        p = Tensor(np.array([10.0]), requires_grad=True)
        opt = T.Adam({"p": p}, lr=0.1, weight_decay=0.01)
        for _ in range(50):
            p.zero_grad()
            opt.step()
        assert 0 < p.data[0] < 10.0

    def test_nonfinite_gradient_raises(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        opt = T.Adam({"p": p})
        with pytest.raises(T.DivergedError):
            opt.step()
        # the count of non-finite parameters, and their names in dict order
        params = {k: Tensor(np.ones(3), requires_grad=True) for k in ("a", "b", "c", "d")}
        for p in params.values():
            p.grad = np.zeros(3)
        params["c"].grad[1] = np.inf
        with pytest.raises(
            T.DivergedError, match=r"^non-finite gradient in 1 of 4 parameters \('c'\)$"
        ):
            T.Adam(params).step()
        params["b"].grad[2] = np.nan
        with pytest.raises(
            T.DivergedError, match=r"^non-finite gradient in 2 of 4 parameters \('b', 'c'\)$"
        ):
            T.Adam(params).step()

    def test_matches_per_parameter_adam(self):
        # the one-pass Adam against a copy of the update run parameter by
        # parameter, with every buffer compared for exact equality
        rng = np.random.default_rng(0)
        shapes = {"W": (3, 4), "b": (5,), "cube": (2, 3, 2), "one": (1, 1)}
        start = {k: rng.normal(size=s) for k, s in shapes.items()}
        flat = {k: Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
        ref = {k: Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
        for params in (flat, ref):
            for p in params.values():
                p.grad = np.zeros_like(p.data)
        opt = T.Adam(flat, lr=0.01, weight_decay=0.05)
        ref_opt = _ReferenceAdam(ref, lr=0.01, weight_decay=0.05)
        for step in range(20):
            for k, s in shapes.items():
                g = rng.normal(size=s) * 10.0 ** rng.integers(-3, 3)
                if k == "cube":
                    # a fresh array, as a caller that assigns p.grad passes
                    flat[k].grad, ref[k].grad = g.copy(), g.copy()
                else:
                    flat[k].grad[...] = g
                    ref[k].grad[...] = g
            grads = {k: p.grad.copy() for k, p in flat.items()}
            opt.step()
            ref_opt.step()
            for k in shapes:
                assert np.array_equal(flat[k].data, ref[k].data), (step, k)
                assert np.array_equal(flat[k].grad, grads[k]), (step, k)


class _ReferenceAdam:
    """Adam updated parameter by parameter, as a reference for ``T.Adam``."""

    def __init__(self, params, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        for k, p in self.params.items():
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            m_hat = self.m[k] / (1 - self.beta1 ** self.t)
            v_hat = self.v[k] / (1 - self.beta2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class TestSchedule:
    def test_epoch_25_two_decays(self):
        tc = T.TrainConfig(initial_lr=0.001)
        assert tc.lr_at(25) == pytest.approx(0.001 * 0.95**2)

    def test_epoch_0_initial(self):
        assert T.TrainConfig(initial_lr=0.5).lr_at(0) == 0.5

    def test_epoch_9_still_initial(self):
        assert T.TrainConfig(initial_lr=0.5).lr_at(9) == 0.5


def small_splits(n=60, seed=0):
    ds = D.generate_boosted_synthetic(n, seed=seed)
    return D.split(ds, seed=seed + 1)


def small_config(**kw):
    defaults = dict(input_dim=4, hidden_dim=8, n_heads=2, dropout_rate=0.0, seed=0)
    defaults.update(kw)
    return M.TCNetConfig(**defaults)


class TestTrainLoop:
    def test_zero_lr_leaves_params_at_init(self):
        splits = small_splits()
        mc = small_config()
        tc = T.TrainConfig(initial_lr=0.0, epochs=2, batch_size=16, seed=0)
        params, report = T.train(mc, splits, tc)
        init = M.init_params(mc, np.random.default_rng(mc.seed))
        for k in init:
            np.testing.assert_array_equal(params[k].data, init[k].data)
        assert len(report.train_losses) == 2

    @pytest.mark.parametrize(
        "field,value",
        [("initial_lr", -0.001), ("initial_lr", float("nan")), ("weight_decay", -1.0),
         ("decay_every", 0), ("decay_every", -2)],
    )
    def test_negative_rates_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            T.TrainConfig(**{field: value})

    def test_reproducible_runs(self):
        splits = small_splits()
        mc = small_config()
        tc = T.TrainConfig(epochs=3, batch_size=16, seed=5)
        _, r1 = T.train(mc, splits, tc)
        _, r2 = T.train(mc, splits, tc)
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses

    def test_best_epoch_matches_val_minimum(self):
        splits = small_splits()
        mc = small_config()
        tc = T.TrainConfig(epochs=5, batch_size=16, seed=2)
        _, report = T.train(mc, splits, tc)
        assert report.best_epoch == int(np.argmin(report.val_losses))

    def test_overfits_tiny_dataset(self):
        # 32 deterministic samples must be memorized almost perfectly
        ds = D.generate_boosted_synthetic(32, boost_value=100.0, seed=9)
        splits = (ds, ds, ds)
        mc = small_config(hidden_dim=16, n_heads=2, use_layer_norm=True)
        tc = T.TrainConfig(initial_lr=0.01, epochs=300, batch_size=32, seed=0, decay_every=100)
        params, report = T.train(mc, splits, tc)
        # CE against the deterministic part of the generator: compare with the
        # generator's own conditional entropy rather than zero
        best = min(report.val_losses)
        ideal = D.boosted_conditional_entropy(D.CANDIDATE_BOOST)
        assert best < ideal + 0.05

    def test_multi_objective_binary_ce(self):
        ds = D.generate_boosted_multi(60, seed=1)
        splits = D.split(ds, seed=2)
        mc = small_config()
        tc = T.TrainConfig(epochs=2, batch_size=16, seed=0)
        params, report = T.train(mc, splits, tc, objective="binary_ce")
        assert len(report.val_losses) == 2
        assert all(np.isfinite(v) for v in report.val_losses)

    def test_multi_ce_expands_baskets(self):
        ds = D.generate_boosted_multi(40, seed=3)
        splits = [
            D.reduce_split(part, D.SEQUENTIAL, 0, k)
            for k, part in enumerate(D.split(ds, seed=4))
        ]
        assert [p.kind for p in splits] == [D.MULTI, D.SEQUENTIAL, D.SEQUENTIAL]
        mc = small_config()
        tc = T.TrainConfig(epochs=2, batch_size=16, seed=0)
        params, report = T.train(mc, splits, tc, objective="ce")
        assert all(np.isfinite(v) for v in report.val_losses)

    def test_ce_refuses_an_unexpanded_basket_validation_set(self):
        splits = D.split(D.generate_boosted_multi(40, seed=3), seed=4)
        tc = T.TrainConfig(epochs=1, batch_size=16, seed=0)
        with pytest.raises(D.DataError, match="reduce_split"):
            T.train(small_config(), splits, tc, objective="ce")

    def test_binary_ce_refuses_sequential_splits_before_a_step(self):
        mc = small_config()
        params = M.init_params(mc, np.random.default_rng(0))
        init = {k: p.data.copy() for k, p in params.items()}
        tc = T.TrainConfig(epochs=1, batch_size=16, seed=0)
        with pytest.raises(D.DataError, match="binary_ce needs basket train and validation"):
            T.fit(params, T.network_utilities(mc), small_splits(), tc, objective="binary_ce")
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, init[k])
            assert p.grad is None or not p.grad.any()


def bakery_step_inputs():
    """A 64-row bakery-shaped training batch: every row offers the whole
    50-item one-hot catalog as its assortment and all but up to three drawn
    items as candidates; and a dv-32, 4-head network for it."""
    rows, n_items = 64, 50
    rng = np.random.default_rng(0)
    cat = D.ItemCatalog([f"i{k}" for k in range(n_items)], np.eye(n_items))
    items = frozenset(range(n_items))
    obs = []
    for _ in range(rows):
        drawn = rng.choice(n_items, size=rng.integers(0, 4), replace=False)
        cand = items - set(drawn.tolist())
        choice = int(rng.choice(sorted(cand)))
        obs.append(D.ChoiceObservation(D.SEQUENTIAL, items, candidates=cand, choice=choice))
    mc = small_config(input_dim=n_items, hidden_dim=32, n_heads=4, dropout_rate=0.1)
    return D.pad_batch(cat, obs), M.init_params(mc), mc


def count_tensors() -> int:
    return sum(isinstance(o, Tensor) for o in gc.get_objects())


class TestTapeLifetime:
    """``backward()`` frees the graph as it walks it, so a training step
    holds one graph at a time."""

    def step(self, batch, params, mc):
        u = M.forward_utilities(batch, params, mc, True, np.random.default_rng(1))
        onehot = np.eye(batch.cand_mask.shape[1])[batch.labels]
        return T.ce_loss(u.masked_softmax(batch.cand_mask), onehot)

    def test_only_params_and_root_outlive_backward(self):
        batch, params, mc = bakery_step_inputs()
        gc.collect()
        before = count_tensors()
        # with the collector off, only reference counting frees the graph
        gc.disable()
        try:
            loss = self.step(batch, params, mc)
            assert count_tensors() > before + 10
            loss.backward()
            after = count_tensors()
        finally:
            gc.enable()
        assert after == before + 1

    def test_memory_after_backward_and_peak(self):
        batch, params, mc = bakery_step_inputs()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss = self.step(batch, params, mc)
            forward = tracemalloc.get_traced_memory()[0] - base
            loss.backward()
            live, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert forward > 10e6
        assert live < 0.01 * forward
        assert peak <= 1.25 * forward


class TestGridSearch:
    def test_selects_working_cell_over_dead_cell(self):
        splits = small_splits(80)
        mc = small_config()
        tc = T.TrainConfig(epochs=3, batch_size=16, seed=0)
        best_mc, best_tc, params, report = T.grid_search(
            mc, splits, tc, hidden_grid=(8,), heads_grid=(2,), lr_grid=(0.01, 1e-12)
        )
        # the near-zero-lr cell stays at initialization; the live cell must win
        assert best_tc.initial_lr == 0.01

    def test_grid_respects_head_divisibility(self):
        splits = small_splits(40)
        mc = small_config()
        tc = T.TrainConfig(epochs=1, batch_size=16, seed=0)
        best_mc, _, _, _ = T.grid_search(
            mc, splits, tc, hidden_grid=(8,), heads_grid=(4,), lr_grid=(0.001,)
        )
        assert best_mc.hidden_dim == 8
        assert best_mc.n_heads == 4


def diverging(utilities, at):
    """``utilities`` whose forward ``at``, a pair (training, number from 0)
    among the training forwards or among the others, overflows in a 'mul'."""
    calls = {True: 0, False: 0}

    def forward(batch, params, training=False, rng=None):
        u = utilities(batch, params, training, rng)
        calls[training] += 1
        if (training, calls[training] - 1) == at:
            with np.errstate(over="ignore", invalid="ignore"):
                return u * Tensor(np.full(u.shape, np.inf))
        return u

    return forward


def poisoned_gradient(utilities, at):
    """``utilities`` whose training forward number ``at`` passes its
    utilities on unchanged but back-propagates an infinite gradient."""
    calls = []

    def forward(batch, params, training=False, rng=None):
        u = utilities(batch, params, training, rng)
        calls.append(training)
        if training and calls.count(True) - 1 == at:
            return Tensor._from_op(u.data.copy(), (u,), lambda dy: _accumulate(u, dy + np.inf), "poison")
        return u

    return forward


class TestDivergence:
    def fit(self, utilities):
        """``fit`` of ``utilities(network, at)`` as a function of ``at``, and
        the batches of an epoch."""
        splits = small_splits()
        mc = small_config()
        tc = T.TrainConfig(epochs=2, batch_size=8, seed=0)
        params = M.init_params(mc, np.random.default_rng(0))
        batches = -(-len(splits[0]) // tc.batch_size)
        return lambda at: T.fit(params, utilities(T.network_utilities(mc), at), splits, tc), batches

    def test_an_op_names_itself_the_epoch_and_the_batch(self):
        fit, batches = self.fit(diverging)
        with pytest.raises(T.DivergedError) as err:
            fit((True, batches + 2))
        assert str(err.value) == "non-finite values produced by 'mul' at epoch 1, batch 2"
        assert isinstance(err.value.__cause__, NonFiniteError)

    def test_a_validation_pass_names_the_op_and_the_epoch(self):
        fit, _ = self.fit(diverging)
        with pytest.raises(
            T.DivergedError, match=r"^non-finite values produced by 'mul' in validation at epoch 0$"
        ):
            fit((False, 0))

    def test_a_gradient_names_the_parameter_the_epoch_and_the_batch(self):
        fit, _ = self.fit(poisoned_gradient)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            T.DivergedError,
            match=r"^non-finite gradient in 34 of 34 parameters \('assort\.embed\.W1', "
            r"'assort\.embed\.b1', 'assort\.embed\.W2', \.\.\.\) at epoch 0, batch 3$",
        ):
            fit(3)

    def test_grid_search_skips_a_diverging_cell(self, monkeypatch):
        network_utilities = T.network_utilities
        monkeypatch.setattr(
            T, "network_utilities",
            lambda mc: diverging(network_utilities(mc), (True, 1) if mc.hidden_dim == 4 else None),
        )
        splits = small_splits(40)
        tc = T.TrainConfig(epochs=1, batch_size=8, seed=0)
        best_mc, _, _, report = T.grid_search(
            small_config(), splits, tc, hidden_grid=(4, 8), heads_grid=(2,), lr_grid=(0.001,)
        )
        assert best_mc.hidden_dim == 8
        assert len(report.val_losses) == 1
        with pytest.raises(T.DivergedError, match="all grid cells diverged.*at epoch 0, batch 1"):
            T.grid_search(
                small_config(), splits, tc, hidden_grid=(4,), heads_grid=(2,), lr_grid=(0.001,)
            )


def test_report_states_the_epochs_run_past_the_desk_scale_limit(monkeypatch):
    splits = small_splits()
    tc = T.TrainConfig(epochs=3, batch_size=64, seed=0)
    _, report = T.train(small_config(), splits, tc)
    assert (report.epochs_run, report.epochs_requested) == (3, 3)
    assert report.to_text().splitlines()[-2:] == ["epochs_run\t3", "clamped_labels\t0"]
    monkeypatch.setattr(T, "DESK_SCALE_LIMIT", len(splits[0]) - 1)
    tc = T.TrainConfig(epochs=51, batch_size=64, seed=0)
    _, report = T.train(small_config(), splits, tc)
    assert (report.epochs_run, report.epochs_requested) == (50, 51)
    assert len(report.val_losses) == 50
    assert f"epochs_run\t50 of 51 requested (capped past {len(splits[0]) - 1} samples an epoch)" in (
        report.to_text().splitlines()
    )


def test_uniform_ce_reference():
    assert T.uniform_ce([4, 4]) == pytest.approx(np.log(4.0))


def test_report_text_contains_losses():
    r = T.TrainReport(train_losses=[1.0], val_losses=[0.9], best_epoch=0)
    text = r.to_text()
    assert "best_epoch\t0" in text
    assert "1.000000" in text


# -- the evaluator scores each distinct row of a dataset once -----------------


def _reference_dataset_utilities(ds, params, utilities, batch_size, score):
    """The evaluator that forwards every row, ``batch_size`` rows at a time:
    each row is its own distinct row."""
    parts = []
    for start in range(0, len(ds), batch_size):
        batch = D.pad_batch(ds.catalog, ds.observations[start : start + batch_size])
        with no_grad():
            s = score(batch, utilities(batch, params, False, None))
        parts.append(np.where(batch.cand_mask, s, 0.0))
    scores = np.zeros((len(ds), max(p.shape[1] for p in parts)))
    start = 0
    for p in parts:
        scores[start : start + len(p), : p.shape[1]] = p
        start += len(p)
    return np.arange(len(ds)), scores


def _raw(batch, u):
    """The utilities themselves, as ``dataset_utilities`` scores."""
    return u.data


def _row_counter(utilities):
    """``utilities`` that records the rows of each batch it scores outside
    training, and the list it records them in."""
    rows = []

    def counted(batch, params, training=False, rng=None):
        if not training:
            rows.append(batch.size)
        return utilities(batch, params, training, rng)

    return counted, rows


@st.composite
def _evaluation_case(draw):
    """A small dataset whose rows repeat, a network for it and a batch size,
    often smaller than the dataset's count of distinct rows.

    Rows are drawn from two (S, C) pairs per assortment and from a few
    contexts, so rows repeat in (S, C) alone, and some drawn rows are
    repeated in (S, C, context) with other choices or baskets. With "shared"
    every row has one entry; with "distinct" each row has a context of its
    own and no row repeats."""
    n = draw(st.integers(2, 5))
    entries = draw(st.sampled_from(["shared", "mixed", "distinct"]))
    k = 2 if entries == "distinct" else draw(st.sampled_from([0, 2]))
    kind = draw(st.sampled_from([D.SEQUENTIAL, D.MULTI]))
    value = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    subset = lambda S: st.sets(st.sampled_from(sorted(S)), min_size=1).map(frozenset)
    if entries == "shared":
        assortments = [frozenset(range(n))]
    else:
        assortments = draw(st.lists(subset(range(n)), min_size=1, max_size=3))
    pairs = [(S, draw(subset(S))) for S in assortments for _ in range(2)]
    contexts = [None]
    if k:
        n_contexts = 1 if entries == "shared" else 2
        contexts = draw(st.lists(st.tuples(value, value), min_size=1, max_size=n_contexts))
    rows = []
    for r in range(draw(st.integers(1, 12))):
        S, C = draw(st.sampled_from(pairs))
        if entries == "distinct":
            context = (float(r), draw(value))
        else:
            context = draw(st.sampled_from(contexts))
        rows.append((S, C, context))
    if entries != "distinct":
        # forced repeats of drawn rows, each with a choice or basket of its own
        rows += draw(st.lists(st.sampled_from(rows), min_size=1, max_size=6))
    observations = []
    for S, C, context in draw(st.permutations(rows)):
        if kind == D.SEQUENTIAL:
            choice = draw(st.sampled_from(sorted(C)))
            observations.append(
                D.ChoiceObservation(kind, S, candidates=C, choice=choice, context=context)
            )
        else:
            basket = draw(subset(S))
            observations.append(D.ChoiceObservation(kind, S, basket=basket, context=context))
    ds = D.ChoiceDataset(D.ItemCatalog.one_hot([f"i{j}" for j in range(n)]), observations, kind)
    config = small_config(
        input_dim=n + k,
        hidden_dim=4,
        n_heads=draw(st.sampled_from([1, 2])),
        attention_activation=draw(st.sampled_from([SOFTMAX, ONE_PLUS_RELU])),
    )
    params = M.init_params(config, np.random.default_rng(draw(st.integers(0, 2**16))))
    # multi rows offer S: their distinct rows are the distinct (S, context)
    n_distinct = len({(C if kind == D.SEQUENTIAL else S, S, ctx) for S, C, ctx in rows})
    batch_size = draw(st.one_of(
        st.integers(1, n_distinct), st.integers(1, len(observations)), st.just(256)
    ))
    return ds, params, config, batch_size


def _evaluations(ds, params, config, batch_size):
    """Every consumer of the evaluator on ``ds``, as flat floats."""
    utilities = T.network_utilities(config)
    if ds.kind == D.SEQUENTIAL:
        return [
            T.dataset_loss(ds, params, utilities, "ce", batch_size),
            *I.evaluate(params, config, ds, D.SEQUENTIAL)["per_sample"],
        ]
    return [
        T.dataset_loss(ds, params, utilities, "binary_ce", batch_size),
        I.evaluate(params, config, ds, D.MULTI)["f1_loss"],
        *I.tune_threshold(params, config, ds),
    ]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_evaluation_case())
def test_batched_evaluator_matches_forwarding_every_row(case):
    got = _evaluations(*case)
    calls = []

    def reference(*args):
        calls.append(args[0])
        return _reference_dataset_utilities(*args)

    with mock.patch.object(T, "dataset_utilities", reference):
        want = _evaluations(*case)
    # every consumer went through the reference
    assert len(calls) == (2 if case[0].kind == D.SEQUENTIAL else 3)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_evaluation_case())
def test_dataset_utilities_forwards_first_appearances_of_candidates_and_entry(case):
    # the forwards hold the first row of each distinct (sorted candidates,
    # (assortment, context)) of the whole dataset, in order of first
    # appearance, batch_size of them per forward, and every row gets the
    # scores of its distinct row
    ds, _, _, batch_size = case
    numbers: dict = {}
    for r, o in enumerate(ds.observations):
        c = tuple(sorted(o.assortment if o.candidates is None else o.candidates))
        numbers.setdefault((c, o.assortment, o.context), (len(numbers), r))
    firsts = [r for _, r in numbers.values()]
    forwarded = []

    def row_numbers(batch, params, training=False, rng=None):
        start = sum(b.size for b in forwarded)
        forwarded.append(batch)
        ids = np.arange(start, start + batch.size, dtype=float)
        return Tensor(ids[:, None] + np.zeros(batch.cand_mask.shape))

    index, scores = T.dataset_utilities(ds, None, row_numbers, batch_size, _raw)
    chunks = [firsts[s : s + batch_size] for s in range(0, len(firsts), batch_size)]
    assert [b.size for b in forwarded] == list(map(len, chunks))
    for batch, chunk in zip(forwarded, chunks):
        want = D.pad_batch(ds.catalog, [ds.observations[r] for r in chunk])
        assert batch.cand_items == want.cand_items
        assert batch.assort_items == want.assort_items
        np.testing.assert_array_equal(batch.assort_index, want.assort_index)
        np.testing.assert_array_equal(batch.cand_features, want.cand_features)
        np.testing.assert_array_equal(batch.assort_features, want.assort_features)
    assert scores.shape == (len(firsts), max(len(c) for c, _, _ in numbers))
    for r, o in enumerate(ds.observations):
        c = tuple(sorted(o.assortment if o.candidates is None else o.candidates))
        number = numbers[(c, o.assortment, o.context)][0]
        assert index[r] == number
        np.testing.assert_array_equal(scores[number, : len(c)], number)
        assert not scores[number, len(c) :].any()


def test_boost_dataset_is_forwarded_once_per_distinct_row(monkeypatch):
    # 1200 rows over the 27 (S, C) pairs of the boost generator: one forward
    # of 27 rows, where batches of 256 rows would forward 5 times
    ds = D.generate_boosted_synthetic(1200, seed=1)
    assert len({(o.candidates, o.assortment) for o in ds.observations}) == 27
    config = small_config()
    params = M.init_params(config, np.random.default_rng(0))
    forward_utilities = M.forward_utilities
    rows = []

    def counted(batch, *args, **kwargs):
        rows.append(batch.size)
        return forward_utilities(batch, *args, **kwargs)

    monkeypatch.setattr(M, "forward_utilities", counted)
    ce = T.dataset_ce(ds, params, config)
    assert rows == [27]
    per_sample = I.evaluate(params, config, ds, D.SEQUENTIAL)["per_sample"]
    assert rows == [27, 27]
    assert ce == pytest.approx(np.mean(per_sample), abs=1e-12)


def test_objectives_need_their_labels():
    config = small_config()
    params = M.init_params(config, np.random.default_rng(0))
    utilities = T.network_utilities(config)
    baskets = D.generate_boosted_multi(20, seed=0)
    choices = D.generate_boosted_synthetic(20, seed=0)
    with pytest.raises(D.DataError, match="ce needs a choice in every row"):
        T.dataset_ce(baskets, params, config)
    with pytest.raises(D.DataError, match="binary_ce needs a basket in every row"):
        T.dataset_loss(choices, params, utilities, "binary_ce")
    # a row without a choice has label -1 in the row index: ce refuses it
    # instead of reading its last candidate
    mixed = D.ChoiceDataset._of_valid(
        choices.catalog, choices.observations[:3] + baskets.observations[:1], D.SEQUENTIAL
    )
    assert mixed._rows.labels[-1] == -1
    with pytest.raises(D.DataError, match="ce needs a choice in every row"):
        T.dataset_loss(mixed, params, utilities, "ce")


# -- a single row is padded as its C = S sequential row ----------------------


@st.composite
def _single_case(draw):
    """A single dataset over a few assortments, with or without contexts;
    its C = S sequential form, built by hand; a network with dropout for
    them, a batch size and a seed."""
    n = draw(st.integers(2, 5))
    k = draw(st.sampled_from([0, 2]))
    value = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    assortments = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=1).map(frozenset), min_size=1, max_size=3
    ))
    single, seq = [], []
    for _ in range(draw(st.integers(1, 12))):
        S = draw(st.sampled_from(assortments))
        choice = draw(st.sampled_from(sorted(S)))
        context = tuple(draw(value) for _ in range(k)) or None
        single.append(D.ChoiceObservation(D.SINGLE, S, choice=choice, context=context))
        seq.append(D.ChoiceObservation(
            D.SEQUENTIAL, S, candidates=S, choice=choice, context=context
        ))
    catalog = D.ItemCatalog.one_hot([f"i{j}" for j in range(n)])
    config = small_config(
        input_dim=n + k, hidden_dim=4, n_heads=draw(st.sampled_from([1, 2])), dropout_rate=0.2
    )
    return (
        D.ChoiceDataset(catalog, single, D.SINGLE),
        D.ChoiceDataset(catalog, seq, D.SEQUENTIAL),
        config,
        draw(st.integers(1, len(single))),
        draw(st.integers(0, 2**16)),
    )


def _assert_same_batch(batch, want):
    """``batch`` equals ``want`` field for field."""
    for field in dataclasses.fields(D.PaddedBatch):
        got, ref = getattr(batch, field.name), getattr(want, field.name)
        if isinstance(ref, np.ndarray):
            assert got.dtype == ref.dtype and np.array_equal(got, ref), field.name
        else:
            assert got == ref, field.name


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_single_case())
def test_single_dataset_trains_and_scores_as_its_c_equals_s_form(case):
    single, seq, config, batch_size, seed = case
    _assert_same_batch(
        D.pad_batch(single.catalog, single.observations),
        D.pad_batch(seq.catalog, seq.observations),
    )
    batches = zip(
        D.make_batches(single, batch_size, np.random.default_rng(seed)),
        D.make_batches(seq, batch_size, np.random.default_rng(seed)),
        strict=True,
    )
    for got, want in batches:
        _assert_same_batch(got.batch, want.batch)
        np.testing.assert_array_equal(got.rows, want.rows)
        np.testing.assert_array_equal(got.chosen, want.chosen)
    params = M.init_params(config, np.random.default_rng(seed))
    assert T.dataset_ce(single, params, config, batch_size) == T.dataset_ce(
        seq, params, config, batch_size
    )
    assert (
        I.evaluate(params, config, single, D.SINGLE)["per_sample"]
        == I.evaluate(params, config, seq, D.SEQUENTIAL)["per_sample"]
    )
    tc = T.TrainConfig(initial_lr=0.01, epochs=2, batch_size=batch_size, seed=seed)
    got, got_report = T.train(config, (single, single, single), tc)
    want, want_report = T.train(config, (seq, seq, seq), tc)
    assert got_report.train_losses == want_report.train_losses
    assert got_report.val_losses == want_report.val_losses
    for name, p in want.items():
        np.testing.assert_array_equal(got[name].data, p.data)


class TestDistinctRows:
    S = frozenset(range(4))
    C = frozenset({0, 1, 2})

    def net(self, input_dim):
        config = small_config(input_dim=input_dim)
        return M.init_params(config, np.random.default_rng(4)), config

    def scored(self, ds, params, config, batch_size=256):
        """The rows handed to the utilities and each row's utilities."""
        counted, rows = _row_counter(T.network_utilities(config))
        index, u = T.dataset_utilities(ds, params, counted, batch_size, _raw)
        return rows, u[index]

    def test_rows_differing_only_in_context_are_not_merged(self):
        obs = [
            D.ChoiceObservation(D.SEQUENTIAL, self.S, candidates=self.C, choice=0, context=(c,))
            for c in (0.0, 1.0, 0.0)
        ]
        ds = D.ChoiceDataset(D.ItemCatalog.one_hot(list("abcd")), obs, D.SEQUENTIAL)
        params, config = self.net(5)
        rows, u = self.scored(ds, params, config)
        assert rows == [2]
        assert not np.array_equal(u[0], u[1])
        np.testing.assert_array_equal(u[0], u[2])
        _, ref = _reference_dataset_utilities(ds, params, T.network_utilities(config), 256, _raw)
        np.testing.assert_array_equal(u, ref)

    def test_repeated_rows_keep_their_own_nll(self):
        cat = D.ItemCatalog.one_hot(list("abcd"))
        obs = [
            D.ChoiceObservation(D.SEQUENTIAL, self.S, candidates=self.C, choice=c)
            for c in (0, 2, 0, 1)
        ]
        ds = D.ChoiceDataset(cat, obs, D.SEQUENTIAL)
        params, config = self.net(4)
        rows, _ = self.scored(ds, params, config)
        assert rows == [1]
        per_sample = I.evaluate(params, config, ds, D.SEQUENTIAL)["per_sample"]
        items, probs = I.predict_sequential(params, config, cat, self.C, self.S)
        want = [-np.log(probs[items.index(o.choice)]) for o in obs]
        np.testing.assert_allclose(per_sample, want, rtol=0, atol=1e-12)
        assert per_sample[0] == per_sample[2] != per_sample[1]

    def test_multi_baskets_over_one_assortment_score_one_row(self):
        rng = np.random.default_rng(0)
        obs = [
            D.ChoiceObservation(D.MULTI, self.S, basket=frozenset(rng.choice(4, 2, replace=False)))
            for _ in range(20)
        ]
        ds = D.ChoiceDataset(D.ItemCatalog.one_hot(list("abcd")), obs, D.MULTI)
        params, config = self.net(4)
        rows, _ = self.scored(ds, params, config)
        assert rows == [1]

    def test_binary_ce_step_forwards_one_row_for_baskets_over_one_assortment(self):
        rng = np.random.default_rng(0)
        obs = [
            D.ChoiceObservation(D.MULTI, self.S, basket=frozenset(rng.choice(4, 2, replace=False)))
            for _ in range(64)
        ]
        ds = D.ChoiceDataset(D.ItemCatalog.one_hot(list("abcd")), obs, D.MULTI)
        params, config = self.net(4)
        utilities = T.network_utilities(config)
        rows = []

        def counted(batch, params, training=False, rng=None):
            if training:
                rows.append(batch.size)
            return utilities(batch, params, training, rng)

        tc = T.TrainConfig(epochs=2, batch_size=32, seed=0)
        T.fit(params, counted, (ds, ds, ds), tc, "binary_ce")
        assert rows == [1, 1, 1, 1]

    def test_fit_counts_a_clamped_label_once_for_each_row(self):
        # five rows of one distinct row, three of which choose a candidate
        # whose probability underflows to 0: each epoch clamps 3 labels
        obs = [
            D.ChoiceObservation(D.SEQUENTIAL, self.S, candidates=frozenset({0, 1}), choice=c)
            for c in (0, 1, 0, 0, 1)
        ]
        ds = D.ChoiceDataset(D.ItemCatalog.one_hot(list("abcd")), obs, D.SEQUENTIAL)
        params = {"b": Tensor(np.zeros(2), requires_grad=True)}

        def utilities(batch, params, training=False, rng=None):
            return Tensor(np.tile([-1000.0, 0.0], (batch.size, 1))).add_bias(params["b"])

        tc = T.TrainConfig(initial_lr=0.0, epochs=2, batch_size=8, seed=0)
        _, report = T.fit(params, utilities, (ds, ds, ds), tc)
        assert report.clamped_labels == 6
        assert "clamped_labels\t6" in report.to_text().splitlines()

    def test_fit_validates_distinct_rows_once(self):
        train, _, _ = small_splits()
        candidates = [self.C, self.S, frozenset({1, 3})]
        val_obs = [
            D.ChoiceObservation(D.SEQUENTIAL, self.S, candidates=C, choice=min(C))
            for _ in range(4) for C in candidates
        ]
        val = D.ChoiceDataset(train.catalog, val_obs, D.SEQUENTIAL)
        params, config = self.net(4)
        counted, rows = _row_counter(T.network_utilities(config))
        tc = T.TrainConfig(epochs=2, batch_size=16, seed=0)
        T.fit(params, counted, (train, val, val), tc)
        assert rows == [3, 3]

    def test_distinct_rows_are_all_scored(self):
        subsets = [frozenset(s) for s in ({0}, {1}, {0, 1}, {1, 2}, {0, 2, 3}, {3}, {0, 1, 2, 3})]
        obs = [
            D.ChoiceObservation(D.SEQUENTIAL, self.S, candidates=C, choice=min(C)) for C in subsets
        ]
        ds = D.ChoiceDataset(D.ItemCatalog.one_hot(list("abcd")), obs, D.SEQUENTIAL)
        params, config = self.net(4)
        rows, _ = self.scored(ds, params, config, batch_size=4)
        assert rows == [4, 3]


# -- a training step forwards each distinct row of its batch once -------------


def _reference_make_batches(ds, batch_size, rng=None, shuffle=True):
    """Batches of every row, each row its own distinct row with a count of 1:
    the step that forwards every row."""
    order = rng.permutation(len(ds)) if shuffle else np.arange(len(ds))
    for start in range(0, len(order), batch_size):
        batch = D.pad_batch(ds.catalog, [ds.observations[i] for i in order[start : start + batch_size]])
        if batch.labels is not None:
            chosen = np.eye(batch.cand_mask.shape[1])[batch.labels]
        else:
            chosen = batch.label_mask.astype(float)
        yield D.CountedBatch(batch, np.ones(batch.size, dtype=int), chosen)


@st.composite
def _training_case(draw):
    """A small training set whose rows repeat, in one of four set-ups: ce on
    sequential rows or on single ones, ce on baskets expanded anew every
    epoch, or binary_ce on baskets; with or without contexts, a batch size
    below or at least its count of distinct rows, a network and a seed.

    Rows are drawn from two (S, C) pairs per assortment and from one or two
    contexts, so batches hold repeated rows with choices or baskets of their
    own."""
    n = draw(st.integers(2, 4))
    k = draw(st.sampled_from([0, 2]))
    setup = draw(st.sampled_from(["sequential", "single", "expanded", "binary_ce"]))
    value = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    subset = lambda S: st.sets(st.sampled_from(sorted(S)), min_size=1).map(frozenset)
    assortments = draw(st.lists(subset(range(n)), min_size=1, max_size=2))
    pairs = [(S, draw(subset(S))) for S in assortments for _ in range(2)]
    contexts = [None]
    if k:
        contexts = draw(st.lists(st.tuples(value, value), min_size=1, max_size=2))
    kind = {"sequential": D.SEQUENTIAL, "single": D.SINGLE}.get(setup, D.MULTI)
    observations = []
    for _ in range(draw(st.integers(2, 16))):
        S, C = draw(st.sampled_from(pairs))
        context = draw(st.sampled_from(contexts))
        if kind == D.SEQUENTIAL:
            choice = draw(st.sampled_from(sorted(C)))
            obs = D.ChoiceObservation(kind, S, candidates=C, choice=choice, context=context)
        elif kind == D.SINGLE:
            obs = D.ChoiceObservation(kind, S, choice=draw(st.sampled_from(sorted(S))), context=context)
        else:
            obs = D.ChoiceObservation(kind, S, basket=draw(subset(S)), context=context)
        observations.append(obs)
    ds = D.ChoiceDataset(D.ItemCatalog.one_hot([f"i{j}" for j in range(n)]), observations, kind)
    objective = "binary_ce" if setup == "binary_ce" else "ce"
    val = D.reduce_split(ds, D.SEQUENTIAL, 0, 1) if setup == "expanded" else ds
    n_distinct = len(set(ds._rows.key.tolist()))
    if draw(st.booleans()):
        batch_size = draw(st.integers(1, max(1, n_distinct - 1)))
    else:
        batch_size = draw(st.integers(n_distinct, len(ds) + 1))
    config = small_config(
        input_dim=n + k,
        hidden_dim=4,
        n_heads=draw(st.sampled_from([1, 2])),
        attention_activation=draw(st.sampled_from([SOFTMAX, ONE_PLUS_RELU])),
    )
    params = M.init_params(config, np.random.default_rng(draw(st.integers(0, 2**16))))
    return (ds, val, val), params, config, batch_size, objective, draw(st.integers(0, 2**16))


def _fit_copy(params, config, splits, batch_size, objective, seed):
    """Two epochs of ``fit`` from a copy of ``params``: the trained copy and
    the report."""
    trained = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
    tc = T.TrainConfig(initial_lr=0.01, epochs=2, batch_size=batch_size, seed=seed)
    _, report = T.fit(trained, T.network_utilities(config), splits, tc, objective)
    return trained, report


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_training_case())
def test_training_on_distinct_rows_matches_forwarding_every_row(case):
    # at dropout 0 the step is exact up to summation order: the losses agree
    # to 1e-14 relative (the largest gap seen over these cases was 2.8e-15,
    # 16 ulps, on a binary_ce loss of 0.04) and the parameters within 1e-12,
    # apart from the two biases whose exact ce gradient is 0 and which Adam
    # moves by rounding noise
    splits, params, config, batch_size, objective, seed = case
    assert config.dropout_rate == 0.0
    got, got_report = _fit_copy(params, config, splits, batch_size, objective, seed)
    calls = []

    def reference(*args, **kwargs):
        calls.append(args[0])
        return _reference_make_batches(*args, **kwargs)

    with mock.patch.object(D, "make_batches", reference):
        want, want_report = _fit_copy(params, config, splits, batch_size, objective, seed)
    assert len(calls) == 2
    for losses in ("train_losses", "val_losses"):
        np.testing.assert_allclose(
            getattr(got_report, losses), getattr(want_report, losses), rtol=1e-14, atol=0
        )
    free = {"dec.0.b", f"cand.{config.n_layers - 1}.ffn.ln_b"} if objective == "ce" else set()
    for name, p in want.items():
        if name not in free:
            np.testing.assert_allclose(got[name].data, p.data, rtol=0, atol=1e-12, err_msg=name)
