import json
import logging

import numpy as np
import pytest
from scipy.special import log_expit, softmax

from kgembed import training as tr
from kgembed.model import build_model
from kgembed.scoring import MODEL_KINDS

from conftest import make_cyclic_kg, random_store, store_from_arrays


def densify(grads, params):
    out = {}
    for name, g in grads.items():
        if g[0] == "dense":
            out[name] = np.asarray(g[1], dtype=np.float64)
        else:
            _, ids, rows = g
            full = np.zeros(params[name].shape, dtype=np.float64)
            full[ids] = rows.reshape((len(ids),) + params[name].shape[1:])
            out[name] = full
    return out


class TestTrainConfig:
    def test_defaults_valid(self):
        tr.TrainConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("dim", 0), ("p", 3), ("gamma", 0.0), ("adv_alpha", -1.0),
        ("u", -0.1), ("lr", 0.0), ("batch_size", 0), ("neg_size", 0),
        ("steps_max", -1), ("corruption", "none"), ("model", "hole"),
    ])
    def test_bad_values_rejected(self, field, value):
        cfg = tr.TrainConfig(**{field: value})
        with pytest.raises(ValueError):
            cfg.validate()

    def test_odd_dim_for_phase_models(self):
        with pytest.raises(ValueError, match="even"):
            tr.TrainConfig(model="rotate", dim=7).validate()

    def test_hash_tracks_content(self):
        a, b = tr.TrainConfig(), tr.TrainConfig()
        assert a.hash() == b.hash()
        assert a.hash() != tr.TrainConfig(lr=1e-3).hash()

    def test_default_hash_pinned(self):
        # checkpoints record this hash; the help text in the fields'
        # metadata must never reach it
        assert tr.TrainConfig().hash() == "5790a6aacfc37abc"


class TestGradBuffer:
    def test_dense_accumulates(self):
        buf = tr.GradBuffer()
        buf.add_dense("w", np.ones((2, 2)))
        buf.add_dense("w", np.full((2, 2), 3.0))
        kind, arr = buf.finalize()["w"]
        assert kind == "dense"
        np.testing.assert_array_equal(arr, np.full((2, 2), 4.0))

    def test_duplicate_rows_summed(self):
        buf = tr.GradBuffer()
        buf.add_rows("e", np.array([4, 1, 4]), np.array([[1.0], [2.0], [5.0]]))
        buf.add_rows("e", np.array([1]), np.array([[10.0]]))
        kind, ids, rows = buf.finalize()["e"]
        assert kind == "rows"
        np.testing.assert_array_equal(ids, [1, 4])
        np.testing.assert_array_equal(rows, [[12.0], [6.0]])

    def test_zero_rows_dropped(self):
        buf = tr.GradBuffer()
        buf.add_rows("e", np.array([0, 1]), np.array([[0.0, 0.0], [1.0, 0.0]]))
        _, ids, _ = buf.finalize()["e"]
        np.testing.assert_array_equal(ids, [1])

    def test_frozen_row_dropped(self):
        buf = tr.GradBuffer()
        buf.add_rows("tok", np.array([2, 5]), np.ones((2, 3)))
        _, ids, _ = buf.finalize({"tok": 5})["tok"]
        np.testing.assert_array_equal(ids, [2])

    def test_cancelling_contributions_drop_row(self):
        buf = tr.GradBuffer()
        buf.add_rows("e", np.array([3]), np.array([[1.0, -2.0]]))
        buf.add_rows("e", np.array([3]), np.array([[-1.0, 2.0]]))
        _, ids, _ = buf.finalize()["e"]
        assert len(ids) == 0


class TestSampleNegatives:
    def test_shapes_and_range(self):
        store = random_store(20, 3, 100, seed=40)
        rng = np.random.default_rng(0)
        batch = store.splits["train"][:8]
        neg, side = tr.sample_negatives(store, batch, 5, "tail", rng)
        assert neg.shape == (8, 5) and side == "tail"
        assert ((neg >= 0) & (neg < 20)).all()

    def test_both_mode_alternates_sides(self):
        store = random_store(20, 3, 100, seed=41)
        rng = np.random.default_rng(0)
        batch = store.splits["train"][:4]
        _, s1 = tr.sample_negatives(store, batch, 2, "both", rng, step=1)
        _, s2 = tr.sample_negatives(store, batch, 2, "both", rng, step=2)
        assert {s1, s2} == {"head", "tail"}

    def test_seed_reproducible(self):
        store = random_store(20, 3, 100, seed=42)
        batch = store.splits["train"][:8]
        a, _ = tr.sample_negatives(store, batch, 5, "head",
                                   np.random.default_rng(7))
        b, _ = tr.sample_negatives(store, batch, 5, "head",
                                   np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_filtered_negatives_avoid_train_triples(self):
        store = random_store(50, 2, 120, seed=43)
        train = store.splits["train"]
        known = {tuple(t) for t in train.tolist()}
        rng = np.random.default_rng(1)
        batch = train[:16]
        neg, side = tr.sample_negatives(store, batch, 8, "tail", rng,
                                        filter_train=True)
        for i, (h, r, t) in enumerate(batch.tolist()):
            for cand in neg[i].tolist():
                assert (h, r, cand) not in known

    def test_filter_gives_up_when_everything_is_train(self, caplog):
        # complete graph over 3 entities: every candidate completes a triple
        rows = [(h, 0, t) for h in range(3) for t in range(3)]
        store = store_from_arrays(rows, num_entities=3, num_relations=1)
        batch = store.splits["train"][:2]
        with caplog.at_level(logging.WARNING, logger="kgembed.training"):
            tr.sample_negatives(store, batch, 4, "tail",
                                np.random.default_rng(0), filter_train=True)
        assert any("gave up" in r.message for r in caplog.records)

    def test_single_entity_warns_once(self, caplog):
        store = store_from_arrays([(0, 0, 0)], num_entities=1, num_relations=1)
        cfg = tr.TrainConfig(model="transe", dim=4, batch_size=1, neg_size=2,
                             steps_max=3)
        with caplog.at_level(logging.WARNING, logger="kgembed.training"):
            tr.train_loop(store, cfg)
        hits = [r for r in caplog.records if "single-entity" in r.message]
        assert len(hits) == 1

    def test_bad_arguments(self):
        store = random_store(5, 2, 10, seed=44)
        batch = store.splits["train"][:2]
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="neg_size"):
            tr.sample_negatives(store, batch, 0, "tail", rng)
        with pytest.raises(ValueError, match="corruption"):
            tr.sample_negatives(store, batch, 2, "sideways", rng)


class TestSelfAdversarialWeights:
    def test_alpha_zero_uniform(self):
        w = tr.self_adversarial_weights(np.array([[3.0, 9.0, 1.0, 4.0]]), 0.0)
        np.testing.assert_array_equal(w, np.full((1, 4), 0.25))

    def test_equal_distances_uniform(self):
        w = tr.self_adversarial_weights(np.full((2, 5), 7.3), 2.0)
        np.testing.assert_allclose(w, np.full((2, 5), 0.2), rtol=1e-12)

    def test_two_negative_hand_value(self):
        # softmax(-1 * [0, 1]) = [e/(e+1), 1/(e+1)]
        w = tr.self_adversarial_weights(np.array([[0.0, 1.0]]), 1.0)
        e = np.e
        np.testing.assert_allclose(w[0], [e / (e + 1), 1 / (e + 1)],
                                   rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(45)
        d = rng.uniform(0, 30, size=(64, 16))
        for alpha in (0.0, 0.5, 1.0, 4.0):
            w = tr.self_adversarial_weights(d, alpha)
            np.testing.assert_allclose(w.sum(axis=1), np.ones(64), atol=1e-12)

    def test_closer_negatives_weigh_more(self):
        w = tr.self_adversarial_weights(np.array([[1.0, 2.0, 5.0]]), 1.0)
        assert w[0, 0] > w[0, 1] > w[0, 2]

    def test_extreme_distances_stay_finite(self):
        w = tr.self_adversarial_weights(np.array([[0.0, 5000.0]]), 10.0)
        assert np.isfinite(w).all()
        np.testing.assert_allclose(w[0], [1.0, 0.0], atol=1e-12)


class TestLossAndGrads:
    def test_unit_margin_worked_example(self):
        # zero entities, r = (1, 0): d_pos = d_neg = gamma = 1 so both
        # terms are -log sigmoid(0) = log 2
        m = build_model("transe", 3, 1, 2, p=1, dtype=np.float64)
        m.params["ent"][:] = 0.0
        m.params["rel"][:] = np.array([[1.0, 0.0]])
        batch = np.array([[0, 0, 1]])
        neg = np.array([[2]])
        loss, buf = tr.loss_and_grads(m, batch, neg, "tail", 1.0, 0.0)
        assert loss == pytest.approx(2 * np.log(2), abs=1e-12)
        grads = buf.finalize()
        _, ids, rows = grads["ent"]
        np.testing.assert_array_equal(ids, [1, 2])
        np.testing.assert_allclose(rows, [[-0.5, 0.0], [0.5, 0.0]],
                                   atol=1e-12)
        # head entity and relation gradients cancel exactly here
        assert len(grads["rel"][1]) == 0

    def test_matches_independent_recompute(self):
        m = build_model("transe", 10, 2, 4, p=1, seed=46, dtype=np.float64)
        rng = np.random.default_rng(47)
        batch = np.column_stack([
            rng.integers(0, 10, 6), rng.integers(0, 2, 6),
            rng.integers(0, 10, 6),
        ])
        neg = rng.integers(0, 10, size=(6, 3))
        gamma, alpha = 2.0, 0.7
        loss, _ = tr.loss_and_grads(m, batch, neg, "tail", gamma, alpha)
        ent, rel = m.params["ent"], m.params["rel"]
        h, r, t = batch[:, 0], batch[:, 1], batch[:, 2]
        d_pos = np.abs(ent[h] - ent[t] + rel[r]).sum(1)
        d_neg = np.abs(ent[h][:, None] - ent[neg] + rel[r][:, None]).sum(2)
        w = softmax(-alpha * d_neg, axis=1)
        want = (-log_expit(gamma - d_pos)
                - (w * log_expit(d_neg - gamma)).sum(1)).mean()
        assert loss == pytest.approx(want, rel=1e-12)

    def test_satisfied_positive_contributes_almost_nothing(self):
        m = build_model("transe", 3, 1, 2, p=1, dtype=np.float64)
        m.params["ent"][:] = 0.0
        m.params["rel"][:] = 0.0      # d_pos = 0
        m.params["ent"][2] = np.array([50.0, 50.0])  # d_neg = 100
        loss, _ = tr.loss_and_grads(m, np.array([[0, 0, 1]]),
                                    np.array([[2]]), "tail", 12.0, 0.0)
        # both terms near zero: positive well inside margin, negative far out
        assert 0 < loss < 1e-5

    def test_non_finite_distance_reported_with_triple(self):
        m = build_model("transe", 3, 1, 2, p=1, dtype=np.float64)
        m.params["ent"][1] = np.array([np.inf, 0.0])
        with pytest.raises(FloatingPointError, match=r"\(0, 0, 1\)"):
            tr.loss_and_grads(m, np.array([[0, 0, 1]]), np.array([[2]]),
                              "tail", 1.0, 0.0)

    def test_bad_side(self):
        m = build_model("transe", 3, 1, 2)
        with pytest.raises(ValueError, match="side"):
            tr.loss_and_grads(m, np.array([[0, 0, 1]]), np.array([[2]]),
                              "middle", 1.0, 0.0)

    @staticmethod
    def freeze_weights(monkeypatch):
        """Pin the negative weights at their next-computed values.

        The backward pass treats them as constants, so finite differences
        must too; returns a callable that locks in the base-point weights.
        """
        real = tr.self_adversarial_weights
        captured = {}

        def recorder(neg_d, alpha):
            captured["w"] = real(neg_d, alpha)
            return captured["w"]

        monkeypatch.setattr(tr, "self_adversarial_weights", recorder)

        def lock():
            monkeypatch.setattr(tr, "self_adversarial_weights",
                                lambda neg_d, alpha: captured["w"])
        return lock

    @pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
    @pytest.mark.parametrize("side", ["tail", "head"])
    def test_gradients_match_finite_differences(self, kind, side, monkeypatch):
        m = build_model(kind, 12, 3, 4, p=2, u=0.05, seed=48,
                        dtype=np.float64)
        rng = np.random.default_rng(49)
        batch = np.column_stack([
            rng.integers(0, 12, 5), rng.integers(0, 3, 5),
            rng.integers(0, 12, 5),
        ])
        neg = rng.integers(0, 12, size=(5, 3))
        gamma, alpha = 1.5, 0.8

        def total():
            return tr.loss_and_grads(m, batch, neg, side, gamma, alpha)

        lock = self.freeze_weights(monkeypatch)
        loss, buf = total()
        grads = densify(buf.finalize(), m.params)
        lock()
        eps = 1e-6
        for name, table in m.params.items():
            flat = table.reshape(-1)
            for i in rng.choice(flat.size, size=4, replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                hi = total()[0]
                flat[i] = orig - eps
                lo = total()[0]
                flat[i] = orig
                fd = (hi - lo) / (2 * eps)
                got = grads[name].reshape(-1)[i]
                assert abs(got - fd) / (abs(got) + abs(fd) + 1e-6) < 1e-4, \
                    f"{name}[{i}]: analytic {got} vs fd {fd}"

    def test_weight_detachment_changes_the_gradient(self, monkeypatch):
        # the true derivative of the loss includes a softmax-weight term;
        # the backward pass drops it on purpose, so live finite differences
        # disagree while frozen-weight ones agree
        m = build_model("transe", 12, 3, 4, p=2, seed=48, dtype=np.float64)
        rng = np.random.default_rng(49)
        batch = np.column_stack([
            rng.integers(0, 12, 5), rng.integers(0, 3, 5),
            rng.integers(0, 12, 5),
        ])
        neg = rng.integers(0, 12, size=(5, 3))

        def total():
            return tr.loss_and_grads(m, batch, neg, "tail", 1.5, 0.8)

        _, buf = total()
        grads = densify(buf.finalize(), m.params)["rel"].reshape(-1)
        eps = 1e-6

        def fd_all():
            flat = m.params["rel"].reshape(-1)
            out = np.empty_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = total()[0]
                flat[i] = orig - eps
                lo = total()[0]
                flat[i] = orig
                out[i] = (hi - lo) / (2 * eps)
            return out

        live = fd_all()
        rel_err = np.abs(grads - live) / (np.abs(grads) + np.abs(live) + 1e-6)
        assert rel_err.max() > 1e-3
        lock = self.freeze_weights(monkeypatch)
        total()
        lock()
        frozen = fd_all()
        rel_err = np.abs(grads - frozen) / (np.abs(grads) + np.abs(frozen) + 1e-6)
        assert rel_err.max() < 1e-4

    def test_tokenized_model_grads_match_finite_differences(self, monkeypatch):
        store = random_store(8, 2, 30, seed=50)
        from kgembed import anchors as anc
        sel = anc.select_global_anchors(store, 3)
        tg, _ = anc.tokenize_all(store, sel, 2, 1, 1)
        m = build_model("interht", 8, 2, 4, p=2, seed=51, dtype=np.float64,
                        tokens=tg, d_tok=4, heads=2)
        rng = np.random.default_rng(52)
        batch = store.splits["train"][:3]
        neg = rng.integers(0, 8, size=(3, 2))

        def total():
            return tr.loss_and_grads(m, batch, neg, "tail", 1.0, 0.5)

        lock = self.freeze_weights(monkeypatch)
        _, buf = total()
        grads = densify(buf.finalize(m.frozen_rows), m.params)
        lock()
        eps = 1e-6
        for name in ("tok", "out_proj", "wq", "w1", "rel"):
            flat = m.params[name].reshape(-1)
            for i in rng.choice(flat.size, size=3, replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                hi = total()[0]
                flat[i] = orig - eps
                lo = total()[0]
                flat[i] = orig
                fd = (hi - lo) / (2 * eps)
                got = grads[name].reshape(-1)[i]
                if name == "tok" and i // m.params["tok"].shape[1] == \
                        m.layout.pad_row:
                    assert got == 0.0
                    continue
                assert abs(got - fd) / (abs(got) + abs(fd) + 1e-6) < 1e-3, \
                    f"{name}[{i}]: analytic {got} vs fd {fd}"


class TestAdam:
    def test_quadratic_converges_to_minimum(self):
        params = {"x": np.array([1.0])}
        state = tr.AdamState.init(params)
        for _ in range(200):
            g = {"x": ("dense", 2.0 * params["x"])}
            tr.adam_step(params, g, state, lr=0.1)
        assert abs(params["x"][0]) < 0.05

    def test_zero_gradient_leaves_state_alone(self):
        params = {"w": np.ones((3, 2))}
        state = tr.AdamState.init(params)
        tr.adam_step(params, {"w": ("dense", np.zeros((3, 2)))}, state, 0.1)
        np.testing.assert_array_equal(params["w"], np.ones((3, 2)))
        np.testing.assert_array_equal(state.counts["w"], [0, 0, 0])

    def test_sparse_update_touches_only_given_rows(self):
        params = {"e": np.zeros((6, 2))}
        state = tr.AdamState.init(params)
        g = {"e": ("rows", np.array([3, 5]), np.ones((2, 2)))}
        tr.adam_step(params, g, state, lr=0.01)
        changed = np.flatnonzero(params["e"].any(axis=1))
        np.testing.assert_array_equal(changed, [3, 5])
        np.testing.assert_array_equal(state.counts["e"], [0, 0, 0, 1, 0, 1])

    def test_dense_update_skips_zero_rows(self):
        params = {"w": np.zeros((3, 2))}
        state = tr.AdamState.init(params)
        g = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
        tr.adam_step(params, {"w": ("dense", g)}, state, lr=0.01)
        np.testing.assert_array_equal(params["w"][1], [0.0, 0.0])
        np.testing.assert_array_equal(state.counts["w"], [1, 0, 1])

    def test_late_row_starts_with_fresh_bias_correction(self):
        # a row first touched on global step 5 must move exactly like a row
        # touched on step 1 given the same gradient
        params = {"e": np.zeros((2, 3))}
        state = tr.AdamState.init(params)
        g_row = np.full((1, 3), 0.7)
        first_delta = None
        for step in range(1, 6):
            before = params["e"].copy()
            if step < 5:
                g = {"e": ("rows", np.array([0]), g_row)}
            else:
                g = {"e": ("rows", np.array([0, 1]),
                           np.concatenate([g_row, g_row]))}
            tr.adam_step(params, g, state, lr=0.01)
            if step == 1:
                first_delta = params["e"][0] - before[0]
        late_delta = params["e"][1]
        np.testing.assert_allclose(late_delta, first_delta, atol=1e-15)

    def test_scalar_parameter_path(self):
        params = {"b": np.array([0.5, -0.5])}   # 1-D table
        state = tr.AdamState.init(params)
        tr.adam_step(params, {"b": ("dense", np.array([1.0, -1.0]))}, state,
                     lr=0.1)
        assert params["b"][0] < 0.5 and params["b"][1] > -0.5
        assert state.counts["b"][0] == 1


class TestCheckpoint:
    def make(self, seed=53):
        m = build_model("interht", 6, 3, 4, seed=seed)
        cfg = tr.TrainConfig(model="interht", dim=4)
        opt = tr.AdamState.init(m.params)
        rng = np.random.default_rng(cfg.seed)
        rng.integers(0, 100, 10)   # advance so state is non-trivial
        return m, tr.make_checkpoint(m, cfg, 7, rng, opt), cfg, rng

    def test_round_trip_bitwise(self, tmp_path):
        m, ckpt, _, _ = self.make()
        path = tmp_path / "m.ckpt"
        tr.save_checkpoint(ckpt, path)
        back = tr.load_checkpoint(path)
        assert back.meta == ckpt.meta
        assert set(back.params) == set(ckpt.params)
        for k in ckpt.params:
            np.testing.assert_array_equal(back.params[k], ckpt.params[k])
        for k in ckpt.opt:
            np.testing.assert_array_equal(back.opt[k], ckpt.opt[k])

    def test_save_is_deterministic(self, tmp_path):
        _, ckpt, _, _ = self.make()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        tr.save_checkpoint(ckpt, a)
        tr.save_checkpoint(ckpt, b)
        assert a.read_bytes() == b.read_bytes()

    def test_rng_state_resumes_stream(self, tmp_path):
        _, ckpt, _, rng = self.make()
        path = tmp_path / "m.ckpt"
        tr.save_checkpoint(ckpt, path)
        meta = tr.load_checkpoint(path).meta
        rng2 = np.random.default_rng(0)
        rng2.bit_generator.state = meta["rng_state"]
        np.testing.assert_array_equal(rng2.integers(0, 1000, 20),
                                      rng.integers(0, 1000, 20))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"ZZZZ" + b"\x00" * 32)
        with pytest.raises(tr.CheckpointError, match="magic"):
            tr.load_checkpoint(path)

    def test_model_round_trip_scores_identically(self, tmp_path):
        m, ckpt, _, _ = self.make()
        path = tmp_path / "m.ckpt"
        tr.save_checkpoint(ckpt, path)
        back = tr.model_from_checkpoint(tr.load_checkpoint(path))
        ids = np.arange(6)
        b0, a0, _ = m.encode_entities(ids)
        b1, a1, _ = back.encode_entities(ids)
        np.testing.assert_array_equal(b0, b1)
        np.testing.assert_array_equal(a0, a1)
        assert back.kind.name == "interht" and back.p == m.p

    def test_hash_mismatch_warns(self, caplog):
        _, ckpt, _, _ = self.make()
        with caplog.at_level(logging.WARNING, logger="kgembed.training"):
            tr.model_from_checkpoint(ckpt, expect_config_hash="deadbeef")
        assert any("hash mismatch" in r.message for r in caplog.records)

    def test_tokenized_round_trip(self, tmp_path):
        from kgembed import anchors as anc
        store = random_store(9, 2, 40, seed=54)
        sel = anc.select_global_anchors(store, 3)
        tg, _ = anc.tokenize_all(store, sel, 2, 1, 1)
        m = build_model("interht", 9, 2, 4, seed=55, tokens=tg, d_tok=4,
                        heads=2, dtype=np.float64)
        cfg = tr.TrainConfig(model="interht", dim=4, tokenized=True, d_tok=4,
                             heads=2)
        ckpt = tr.make_checkpoint(m, cfg, 0, np.random.default_rng(0))
        path = tmp_path / "tok.ckpt"
        tr.save_checkpoint(ckpt, path)
        loaded = tr.load_checkpoint(path)
        with pytest.raises(tr.CheckpointError, match="token cache"):
            tr.model_from_checkpoint(loaded)
        back = tr.model_from_checkpoint(loaded, tokens=tg)
        b0, _, _ = m.encode_entities(np.arange(9))
        b1, _, _ = back.encode_entities(np.arange(9))
        np.testing.assert_array_equal(b0, b1)

    def test_tokenized_anchor_mismatch(self, tmp_path):
        from kgembed import anchors as anc
        store = random_store(9, 2, 40, seed=56)
        sel = anc.select_global_anchors(store, 3)
        tg, _ = anc.tokenize_all(store, sel, 2, 1, 1)
        m = build_model("transe", 9, 2, 4, tokens=tg, d_tok=4, heads=2)
        cfg = tr.TrainConfig(model="transe", dim=4, tokenized=True, d_tok=4)
        ckpt = tr.make_checkpoint(m, cfg, 0, np.random.default_rng(0))
        other_sel = anc.select_global_anchors(store, 4)
        other_tg, _ = anc.tokenize_all(store, other_sel, 2, 1, 1)
        with pytest.raises(tr.CheckpointError, match="anchors"):
            tr.model_from_checkpoint(ckpt, tokens=other_tg)

    def tokenized_pair(self, num_entities, cache_entities):
        """A tokenized checkpoint over ``num_entities`` entities and a token
        cache built from a store of ``cache_entities``."""
        from kgembed import anchors as anc
        caches = {}
        for n in {num_entities, cache_entities}:
            store = random_store(n, 2, 4 * n, seed=60)
            sel = anc.select_global_anchors(store, 3)
            caches[n] = (store, anc.tokenize_all(store, sel, 2, 1, 1)[0])
        store, tg = caches[num_entities]
        m = build_model("interht", num_entities, 2, 4, seed=61, tokens=tg,
                        d_tok=4, heads=2, use_center=False)
        cfg = tr.TrainConfig(model="interht", dim=4, tokenized=True, d_tok=4,
                             heads=2, use_center=False)
        ckpt = tr.make_checkpoint(m, cfg, 0, np.random.default_rng(0))
        return store, ckpt, caches[cache_entities][1]

    def test_encoder_meta(self):
        _, ckpt, _ = self.tokenized_pair(12, 12)
        assert ckpt.meta["encoder"] == {
            "d_tok": 4, "heads": 2, "ffn_mult": 2, "combiner": "transformer",
            "num_anchors": 3, "use_center": False,
        }

    @pytest.mark.parametrize("cache_entities", [20, 40])
    def test_token_cache_entity_mismatch(self, cache_entities):
        _, ckpt, tg = self.tokenized_pair(30, cache_entities)
        with pytest.raises(tr.CheckpointError,
                           match=f"covers {cache_entities} entities, "
                                 f"model has 30"):
            tr.model_from_checkpoint(ckpt, tokens=tg)

    def test_token_cache_entity_mismatch_exits_2(self, tmp_path, capsys):
        from kgembed import anchors as anc, cli
        store, ckpt, tg = self.tokenized_pair(30, 20)
        store.save(tmp_path / "store")
        tr.save_checkpoint(ckpt, tmp_path / "tok.ckpt")
        anc.save_token_cache(tg, tmp_path / "tokens.bin")
        sets = {"data": tmp_path / "store", "checkpoint": tmp_path / "tok.ckpt",
                "token_cache": tmp_path / "tokens.bin",
                "out": tmp_path / "emb.bin", "checkpoint_dir": tmp_path / "c",
                "model": "interht", "dim": 4, "d_tok": 4, "heads": 2,
                "tokenized": "true", "steps_max": 1}
        args = [a for k, v in sets.items() for a in ("--set", f"{k}={v}")]
        for command in ("train", "eval", "export"):
            rc = cli.main([command, *args])
            assert rc == 2
            assert "covers 20 entities, model has 30" in capsys.readouterr().err


def _drop_ent_aux(params):
    del params["ent_aux"]


def _ten_extra_ent_rows(params):
    params["ent"] = np.concatenate([params["ent"], params["ent"][:10]])


def _rel_width_4(params):
    params["rel"] = np.ascontiguousarray(params["rel"][:, :4])


def _ent_as_int64(params):
    params["ent"] = (params["ent"] * 100).astype(np.int64)


def _extra_table(params):
    params["rel_h"] = params["rel"].copy()


class TestCheckpointSchema:
    """model_from_checkpoint holds every table to KgeModel.table_shapes and
    accepts only the two modes; through cli.main each mismatch exits 2."""

    PROBES = [
        pytest.param(_drop_ent_aux, "table ent_aux: absent, a lookup interht "
                     "model needs floating-point (50, 8)", id="no-ent_aux"),
        pytest.param(_ten_extra_ent_rows, "table ent: float32 (60, 8), a "
                     "lookup interht model needs floating-point (50, 8)",
                     id="ent-10-extra-rows"),
        pytest.param(_rel_width_4, "table rel: float32 (3, 4), a lookup "
                     "interht model needs floating-point (3, 8)",
                     id="rel-width-4"),
        pytest.param(_ent_as_int64, "table ent: int64 (50, 8), a lookup "
                     "interht model needs floating-point (50, 8)",
                     id="ent-int64"),
        pytest.param(_extra_table, "table rel_h: not a table of a lookup "
                     "interht model", id="extra-rel_h"),
    ]

    def lookup_case(self, tmp_path, corrupt):
        """A saved 50-entity lookup interht store and checkpoint, with
        ``corrupt`` applied to the checkpoint's tables."""
        store = random_store(50, 3, 300, seed=80, splits=(0.9, 0.0, 0.1))
        m = build_model("interht", 50, 3, 8, seed=81)
        ckpt = tr.make_checkpoint(m, tr.TrainConfig(model="interht", dim=8),
                                  0, np.random.default_rng(0))
        corrupt(ckpt.params)
        store.save(tmp_path / "store")
        tr.save_checkpoint(ckpt, tmp_path / "m.ckpt")
        return tr.load_checkpoint(tmp_path / "m.ckpt")

    def tokenized_case(self, tmp_path, mode):
        from kgembed import anchors as anc
        store = random_store(20, 2, 100, seed=82, splits=(0.9, 0.0, 0.1))
        tg, _ = anc.tokenize_all(store, anc.select_global_anchors(store, 3),
                                 2, 1, 1)
        m = build_model("interht", 20, 2, 4, seed=83, tokens=tg, d_tok=4,
                        heads=2)
        cfg = tr.TrainConfig(model="interht", dim=4, tokenized=True, d_tok=4,
                             heads=2)
        ckpt = tr.make_checkpoint(m, cfg, 0, np.random.default_rng(0))
        ckpt.meta["mode"] = mode
        store.save(tmp_path / "store")
        anc.save_token_cache(tg, tmp_path / "tokens.bin")
        tr.save_checkpoint(ckpt, tmp_path / "m.ckpt")
        return tr.load_checkpoint(tmp_path / "m.ckpt"), tg

    def eval_exit(self, tmp_path, capsys):
        from kgembed import cli
        capsys.readouterr()
        rc = cli.main(["eval", "--set", f"data={tmp_path / 'store'}",
                       "--set", f"checkpoint={tmp_path / 'm.ckpt'}",
                       "--set", f"token_cache={tmp_path / 'tokens.bin'}"])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, message", PROBES)
    def test_table_mismatch_raises(self, tmp_path, corrupt, message):
        ckpt = self.lookup_case(tmp_path, corrupt)
        with pytest.raises(tr.CheckpointError) as info:
            tr.model_from_checkpoint(ckpt)
        assert str(info.value) == message

    @pytest.mark.parametrize("corrupt, message", PROBES)
    def test_table_mismatch_eval_exits_2(self, tmp_path, capsys, corrupt,
                                         message):
        self.lookup_case(tmp_path, corrupt)
        rc, err = self.eval_exit(tmp_path, capsys)
        assert rc == 2
        assert message in err

    def test_untouched_checkpoint_loads(self, tmp_path, capsys):
        ckpt = self.lookup_case(tmp_path, lambda params: None)
        assert tr.model_from_checkpoint(ckpt).table_shapes()["ent"] == (50, 8)
        assert self.eval_exit(tmp_path, capsys)[0] == 0

    def test_unknown_mode_raises(self, tmp_path):
        ckpt, tg = self.tokenized_case(tmp_path, "tokenised")
        with pytest.raises(tr.CheckpointError,
                           match="unknown mode 'tokenised'"):
            tr.model_from_checkpoint(ckpt, tokens=tg)

    def test_unknown_mode_eval_exits_2(self, tmp_path, capsys):
        self.tokenized_case(tmp_path, "tokenised")
        rc, err = self.eval_exit(tmp_path, capsys)
        assert rc == 2
        assert "unknown mode 'tokenised'" in err

    def test_tokenized_checkpoint_loads(self, tmp_path, capsys):
        ckpt, tg = self.tokenized_case(tmp_path, "tokenized")
        assert tr.model_from_checkpoint(ckpt, tokens=tg).tokenized
        assert self.eval_exit(tmp_path, capsys)[0] == 0

    def test_token_table_rows_checked(self, tmp_path):
        ckpt, tg = self.tokenized_case(tmp_path, "tokenized")
        rows = ckpt.params["tok"].shape[0]
        ckpt.params["tok"] = ckpt.params["tok"][:-1]
        with pytest.raises(tr.CheckpointError,
                           match=rf"table tok: float32 \({rows - 1}, 4\)"):
            tr.model_from_checkpoint(ckpt, tokens=tg)


class TestTrainLoop:
    def small_cfg(self, **kw):
        base = dict(model="transe", dim=8, p=1, gamma=4.0, adv_alpha=0.5,
                    lr=0.01, batch_size=32, neg_size=8, steps_max=60,
                    valid_every=1000, log_every=20, seed=3)
        base.update(kw)
        return tr.TrainConfig(**base)

    def test_zero_steps_writes_initial_checkpoint(self, tmp_path):
        store = random_store(15, 3, 60, seed=57)
        cfg = self.small_cfg(steps_max=0)
        records = []
        final = tr.train_loop(store, cfg, sink=records.append,
                              checkpoint_dir=tmp_path)
        assert final.meta["step"] == 0
        assert (tmp_path / "final.ckpt").exists()
        assert records == []
        back = tr.load_checkpoint(tmp_path / "final.ckpt")
        fresh = tr.build_model_from_config(cfg, 15, 3)
        np.testing.assert_array_equal(back.params["ent"],
                                      fresh.params["ent"])

    def test_loss_trends_down_on_learnable_graph(self):
        store, _ = make_cyclic_kg(num_entities=60, num_relations=4,
                                  holdout=0, seed=58)
        cfg = self.small_cfg(steps_max=400, log_every=1, batch_size=64,
                             neg_size=16)
        losses = []
        tr.train_loop(store, cfg,
                      sink=lambda r: losses.append(r["loss"]))
        first = np.mean(losses[:50])
        last = np.mean(losses[-50:])
        assert last < 0.7 * first

    def test_two_runs_bit_identical(self, tmp_path):
        store = random_store(15, 3, 60, seed=59)
        logs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            records = []
            tr.train_loop(store, self.small_cfg(), sink=records.append,
                          checkpoint_dir=d)
            logs.append(json.dumps(records, sort_keys=True))
        assert logs[0] == logs[1]
        assert (tmp_path / "a" / "final.ckpt").read_bytes() == \
            (tmp_path / "b" / "final.ckpt").read_bytes()

    def test_two_tokenized_runs_bit_identical(self, tmp_path):
        from kgembed import anchors as anc
        store = random_store(14, 3, 70, seed=64)
        tg, _ = anc.tokenize_all(store, anc.select_global_anchors(store, 4),
                                 3, 2, 2)
        cfg = self.small_cfg(model="interht_plus", dim=4, tokenized=True,
                             d_tok=8, heads=2, combiner="transformer",
                             steps_max=12, log_every=4, batch_size=16,
                             neg_size=4)
        logs = []
        for sub in ("a", "b"):
            records = []
            final = tr.train_loop(store, cfg, tokens=tg, sink=records.append,
                                  checkpoint_dir=tmp_path / sub)
            assert final.params["tok"].dtype == np.float32
            assert [r["step"] for r in records] == [4, 8, 12]
            logs.append(json.dumps(records, sort_keys=True))
        assert logs[0] == logs[1]
        assert (tmp_path / "a" / "final.ckpt").read_bytes() == \
            (tmp_path / "b" / "final.ckpt").read_bytes()

    def test_validation_runs_and_keeps_best(self, tmp_path):
        store = random_store(15, 3, 80, seed=60, splits=(0.75, 0.25, 0.0))
        cfg = self.small_cfg(steps_max=40, valid_every=20)
        records = []
        tr.train_loop(store, cfg, sink=records.append, checkpoint_dir=tmp_path)
        evals = [r for r in records if r.get("split") == "valid"]
        assert len(evals) == 2
        assert all("mrr" in r and "hits@10" in r for r in evals)
        assert (tmp_path / "best.ckpt").exists()

    def test_batch_clipped_with_warning(self, caplog):
        store = random_store(10, 2, 12, seed=61)
        cfg = self.small_cfg(batch_size=500, steps_max=2)
        with caplog.at_level(logging.WARNING, logger="kgembed.training"):
            tr.train_loop(store, cfg)
        assert any("clipped" in r.message for r in caplog.records)

    def test_empty_train_rejected(self):
        store = store_from_arrays([(0, 0, 1)], num_entities=2, num_relations=1)
        store.splits["train"] = store.splits["train"][:0]
        with pytest.raises(ValueError, match="empty train"):
            tr.train_loop(store, self.small_cfg())

    def test_tokenized_training_keeps_pad_row_zero(self):
        from kgembed import anchors as anc
        store = random_store(12, 2, 50, seed=62)
        sel = anc.select_global_anchors(store, 4)
        tg, _ = anc.tokenize_all(store, sel, 2, 1, 1)
        cfg = self.small_cfg(model="interht", dim=4, tokenized=True, d_tok=8,
                             heads=2, steps_max=10, batch_size=16, neg_size=4)
        final = tr.train_loop(store, cfg, tokens=tg)
        m = tr.model_from_checkpoint(final, tokens=tg)
        pad = m.layout.pad_row
        np.testing.assert_array_equal(m.params["tok"][pad],
                                      np.zeros(8, dtype=np.float32))

    def test_deterministic_logs_have_no_wallclock(self):
        store = random_store(15, 3, 60, seed=63)
        records = []
        tr.train_loop(store, self.small_cfg(steps_max=20), sink=records.append)
        assert records and all("elapsed_s" not in r for r in records)
        records2 = []
        tr.train_loop(store, self.small_cfg(steps_max=20),
                      sink=records2.append, deterministic=False)
        assert records2 and all("elapsed_s" in r for r in records2)
