from itertools import combinations

import numpy as np
import pytest

from choicenet import oracle as O
from choicenet import model as M


def uniform_model(n):
    rng = np.random.default_rng(0)
    m = O.TabularSequentialModel.random(n, rng)
    return O.TabularSequentialModel(n, {k: 0.0 for k in m.utilities})


class TestTabularProbability:
    def test_equal_utilities_uniform(self):
        m = uniform_model(3)
        S = C = (1 << 3) - 1
        for i in range(3):
            assert O.tabular_probability(m, i, C, S) == pytest.approx(1 / 3)

    def test_log2_gap(self):
        # u_i = u_j + ln 2 over two candidates -> (2/3, 1/3)
        utilities = {
            (0, 0b11, 0b11): np.log(2.0),
            (1, 0b11, 0b11): 0.0,
            (0, 0b01, 0b11): 0.0,
            (1, 0b10, 0b11): 0.0,
            (0, 0b01, 0b01): 0.0,
            (1, 0b10, 0b10): 0.0,
        }
        m = O.TabularSequentialModel(2, utilities)
        assert O.tabular_probability(m, 0, 0b11, 0b11) == pytest.approx(2 / 3)
        assert O.tabular_probability(m, 1, 0b11, 0b11) == pytest.approx(1 / 3)

    def test_outside_candidates_zero(self):
        m = uniform_model(3)
        assert O.tabular_probability(m, 2, 0b011, 0b111) == 0.0

    def test_rows_sum_to_one(self):
        m = O.TabularSequentialModel.random(4, np.random.default_rng(5))
        for s_mask in range(1, 16):
            for c_mask in O.subsets(s_mask):
                if not c_mask:
                    continue
                total = sum(
                    O.tabular_probability(m, i, c_mask, s_mask) for i in O.items_of(c_mask)
                )
                assert abs(total - 1.0) < 1e-12


class TestExactBasketProbability:
    def test_basket_equals_assortment(self):
        m = uniform_model(3)
        assert O.exact_basket_probability(m, 0b111, 0b111) == pytest.approx(1.0)

    def test_two_permutations_by_hand(self):
        # uniform model, S={0,1,2}, B={0,1}: 2 x (1/3)(1/2) = 1/3
        m = uniform_model(3)
        assert O.exact_basket_probability(m, 0b011, 0b111) == pytest.approx(1 / 3)

    def test_total_probability_fixed_size(self):
        m = O.TabularSequentialModel.random(4, np.random.default_rng(9))
        s_mask = 0b1111
        for k in (1, 2, 3):
            total = sum(
                O.exact_basket_probability(m, O.mask_of(B), s_mask)
                for B in combinations(range(4), k)
            )
            assert abs(total - 1.0) < 1e-10

    def test_guards(self):
        m = uniform_model(3)
        with pytest.raises(ValueError):
            O.exact_basket_probability(m, 0b1000, 0b111)


class TestBatsellDecompose:
    def test_base_case_single_item(self):
        v = O.batsell_decompose({0b1: 1.7}, 0)
        assert v == {0: pytest.approx(1.7)}

    def test_two_item_inversion_by_hand(self):
        # v_0^{{1}} = u_0^{{0,1}} - u_0^{{0}}
        table = {0b01: 2.0, 0b11: 3.5}
        v = O.batsell_decompose(table, 0)
        assert v[0] == pytest.approx(2.0)
        assert v[0b10] == pytest.approx(1.5)

    def test_roundtrip_n4(self):
        rng = np.random.default_rng(21)
        n = 4
        for i in range(n):
            rest = [j for j in range(n) if j != i]
            table = {}
            for r in range(len(rest) + 1):
                for combo in combinations(rest, r):
                    s_mask = O.mask_of(combo) | (1 << i)
                    table[s_mask] = float(rng.uniform(-5, 5))
            v = O.batsell_decompose(table, i)
            for s_mask, u in table.items():
                assert abs(O.batsell_reconstruct(v, s_mask, i) - u) < 1e-10


class TestConstructiveNetwork:
    def test_membership_encoding_values(self):
        # candidates-encoder output: 3 = focal item, 2 = candidate,
        # 1 = already chosen, 0 = absent
        m = uniform_model(4)
        params, config = O.build_constructive_tcnet(m)
        c_mask, s_mask = 0b0011, 0b0111
        batch = O._single_batch(4, c_mask, s_mask)
        ctx = M._Ctx(params, config, False, None, False, batch)
        from choicenet.tensor import Tensor

        cache = M.encode_assortment(batch, params, config)
        xc = M._candidates_encoder(ctx, Tensor(batch.cand_features), batch.cand_mask, cache)
        # row for focal item 0: e_0 + 1_C + 1_S
        np.testing.assert_allclose(xc.data[0][0], [3.0, 2.0, 1.0, 0.0], atol=1e-12)

    def test_bump_selects_exactly_one_code(self):
        m = O.TabularSequentialModel.random(3, np.random.default_rng(3))
        params, _ = O.build_constructive_tcnet(m)
        W1, b1 = params["dec.0.W"].data, params["dec.0.b"].data
        W2 = params["dec.1.W"].data
        triples = m.triples()
        eye = np.eye(3)
        for k, (i, c_mask, s_mask) in enumerate(triples):
            enc = eye[i] + O._indicator(c_mask, 3) + O._indicator(s_mask, 3)
            h = np.maximum(enc @ W1 + b1, 0.0)
            # isolate this triple's three hat units
            val = h[3 * k : 3 * k + 3] @ np.array([1.0, 1.0, -2.0])
            assert val == pytest.approx(1.0)
            out = float((h @ W2)[0])
            assert out == pytest.approx(m.utilities[(i, c_mask, s_mask)], abs=1e-8)

    def test_exhaustive_equality_n4(self):
        rng = np.random.default_rng(17)
        m = O.TabularSequentialModel.random(4, rng)
        params, config = O.build_constructive_tcnet(m)
        assert O.verify_representation(params, config, m) < 1e-6

    def test_random_net_is_negative_control(self):
        m = O.TabularSequentialModel.random(3, np.random.default_rng(2))
        _, config = O.build_constructive_tcnet(m)
        params = M.init_params(config, np.random.default_rng(0))
        err = O.verify_representation(params, config, m)
        assert err > 0.01  # reported, not constructed to match

    def test_single_choice_specialization(self):
        # C = S also validates the single-choice softmax table
        m = O.TabularSequentialModel.random(3, np.random.default_rng(4))
        params, config = O.build_constructive_tcnet(m)
        for s_mask in range(1, 8):
            batch = O._single_batch(3, s_mask, s_mask)
            probs = M.forward(batch, params, config).probs[0]
            for pos, i in enumerate(O.items_of(s_mask)):
                assert probs[pos] == pytest.approx(
                    O.tabular_probability(m, i, s_mask, s_mask), abs=1e-6
                )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_property_many_seeds(self, n):
        for seed in range(7):
            m = O.TabularSequentialModel.random(n, np.random.default_rng(1000 + seed))
            params, config = O.build_constructive_tcnet(m)
            assert O.verify_representation(params, config, m) < 1e-6


def test_tabular_save_load_roundtrip(tmp_path):
    m = O.TabularSequentialModel.random(3, np.random.default_rng(8))
    path = tmp_path / "model.txt"
    m.save(path)
    m2 = O.TabularSequentialModel.load(path)
    assert m2.n == m.n
    assert m2.utilities == m.utilities
