import numpy as np
import pytest

from choicenet import baselines as B
from choicenet import data as D
from choicenet import training as T


@pytest.fixture(scope="module")
def boost_splits():
    return D.split(D.generate_boosted_synthetic(1200, seed=11), seed=12)


def fit_baseline(kind, splits):
    config = B.BaselineConfig(kind=kind, input_dim=4, hidden_dim=8, seed=1)
    tc = T.TrainConfig(initial_lr=0.02, epochs=6, batch_size=64, seed=2)
    return T.fit(B.init_baseline(config), B.baseline_utilities, splits, tc)


@pytest.mark.parametrize("kind", [B.MNL, B.DEEP_MNL])
class TestBaselinesTrainedByTheOneLoop:
    def test_beats_uniform_and_keeps_best_epoch(self, kind, boost_splits):
        params, report = fit_baseline(kind, boost_splits)
        val = boost_splits[1]
        uniform = T.uniform_ce([len(o.candidates) for o in val.observations])
        assert min(report.val_losses) < uniform
        assert report.best_epoch == int(np.argmin(report.val_losses))
        # the returned params are the best epoch's, scored as fit scores them
        best = T.dataset_loss(val, params, B.baseline_utilities, batch_size=64)
        assert best == report.val_losses[report.best_epoch]

    def test_reproducible(self, kind, boost_splits):
        p1, r1 = fit_baseline(kind, boost_splits)
        p2, r2 = fit_baseline(kind, boost_splits)
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses
        for k in p1:
            np.testing.assert_array_equal(p1[k].data, p2[k].data)


def test_parameter_names_pick_the_model():
    rng = np.random.default_rng(0)
    batch = D.pad_batch(
        D.ItemCatalog.one_hot(["a", "b", "c"]),
        [D.ChoiceObservation(D.SEQUENTIAL, frozenset({0, 1, 2}), frozenset({0, 2}), choice=0)],
    )
    mnl = B.init_baseline(B.BaselineConfig(B.MNL, input_dim=3), rng)
    u = B.baseline_utilities(batch, mnl).data
    np.testing.assert_array_equal(u[0, :2], mnl["w"].data[[0, 2], 0])
    deep = B.init_baseline(B.BaselineConfig(B.DEEP_MNL, input_dim=3, hidden_dim=4), rng)
    assert B.baseline_utilities(batch, deep).shape == (1, 2)
    with pytest.raises(ValueError):
        B.init_baseline(B.BaselineConfig("logit", input_dim=3))


def test_unknown_objective_rejected(boost_splits):
    config = B.BaselineConfig(kind=B.MNL, input_dim=4)
    with pytest.raises(ValueError):
        T.fit(B.init_baseline(config), B.baseline_utilities, boost_splits, T.TrainConfig(epochs=1),
              objective="mse")
