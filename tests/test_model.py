import weakref

import numpy as np
import pytest

from kgembed import anchors as anc
from kgembed import encoder as enc
from kgembed import model as mdl
from kgembed.training import GradBuffer

from helpers import random_store


def tokens_for_store(store, num_anchors=3, k=(2, 1, 2), seed=0):
    sel = anc.select_global_anchors(store, num_anchors)
    tg, _ = anc.tokenize_all(store, sel, *k, seed=seed)
    return tg


class TestTokenLayout:
    def test_row_arithmetic(self):
        lay = mdl.TokenLayout(num_anchors=3, num_entities=10)
        assert lay.shared_center_row == 13
        assert lay.pad_row == 14
        assert lay.vocab_size == 15
        np.testing.assert_array_equal(lay.entity_rows(np.array([0, 9])), [3, 12])

    def test_flatten_worked_example(self, three_edge_store):
        sel = anc.AnchorSet.from_ids(np.array([1, 3]), 4, "degree")
        tg, _ = anc.tokenize_all(three_edge_store, sel, 2, 1, 2, seed=0)
        lay = mdl.TokenLayout(num_anchors=2, num_entities=4)
        ids, seg, mask = lay.flatten(tg)
        assert ids.shape == (4, 6)
        np.testing.assert_array_equal(seg, [0, 0, 1, 2, 2, 3])
        # node 0: anchors at vocab rows 0,1; no in-edge -> pad row;
        # out-neighbors 1,2 at entity rows; own center row
        np.testing.assert_array_equal(ids[0], [0, 1, lay.pad_row, 3, 4, 2])
        np.testing.assert_array_equal(mask[0], [1, 1, 0, 1, 1, 1])

    def test_shared_center_mode(self, three_edge_store):
        sel = anc.AnchorSet.from_ids(np.array([1, 3]), 4, "degree")
        tg, _ = anc.tokenize_all(three_edge_store, sel, 2, 1, 2, seed=0)
        lay = mdl.TokenLayout(num_anchors=2, num_entities=4, use_center=False)
        ids, _, _ = lay.flatten(tg)
        np.testing.assert_array_equal(ids[:, -1],
                                      np.full(4, lay.shared_center_row))

    def test_anchor_count_mismatch(self, three_edge_store):
        sel = anc.AnchorSet.from_ids(np.array([1, 3]), 4, "degree")
        tg, _ = anc.tokenize_all(three_edge_store, sel, 2, 1, 2)
        with pytest.raises(ValueError, match="anchor count"):
            mdl.TokenLayout(num_anchors=5, num_entities=4).flatten(tg)


class TestBuildLookup:
    @pytest.mark.parametrize("kind,tables", [
        ("transe", {"ent", "rel"}),
        ("rotate", {"ent", "rel"}),
        ("pairre", {"ent", "rel_h", "rel_t"}),
        ("triplere", {"ent", "rel", "rel_h", "rel_t"}),
        ("triplere2", {"ent", "rel", "rel_h", "rel_t"}),
        ("distmult", {"ent", "rel"}),
        ("complex", {"ent", "rel"}),
        ("interht", {"ent", "ent_aux", "rel"}),
        ("interht_plus", {"ent", "rel", "rel_h", "rel_t"}),
    ])
    def test_tables_per_kind(self, kind, tables):
        m = mdl.build_model(kind, 7, 3, 8, seed=0)
        assert set(m.params) == tables
        assert m.params["ent"].shape == (7, 8)
        rel_dim = 4 if kind == "rotate" else 8
        for name in tables - {"ent", "ent_aux"}:
            assert m.params[name].shape == (3, rel_dim)
        assert ([(n, p.shape) for n, p in m.params.items()]
                == list(m.table_shapes().items()))

    def test_even_dim_enforced(self):
        with pytest.raises(ValueError, match="even"):
            mdl.build_model("rotate", 5, 2, 7)

    def test_init_scale_and_dtype(self):
        m = mdl.build_model("transe", 50, 5, 16, seed=1)
        assert m.params["ent"].dtype == np.float32
        assert np.abs(m.params["ent"]).max() <= 0.5 / 4.0
        m64 = mdl.build_model("transe", 50, 5, 16, seed=1, dtype=np.float64)
        assert m64.params["ent"].dtype == np.float64

    def test_seed_reproducible(self):
        a = mdl.build_model("interht", 9, 4, 6, seed=3)
        b = mdl.build_model("interht", 9, 4, 6, seed=3)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_encode_entities_reads_tables(self):
        m = mdl.build_model("interht", 9, 4, 6, seed=4)
        ids = np.array([2, 7, 2])
        base, aux, cache = m.encode_entities(ids)
        np.testing.assert_array_equal(base, m.params["ent"][ids])
        np.testing.assert_array_equal(aux, m.params["ent_aux"][ids])
        assert cache[0] == "lookup"
        base_t, aux_t, _ = mdl.build_model("transe", 9, 4, 6).encode_entities(ids)
        assert aux_t is None

    def test_entity_backward_routes_rows(self):
        m = mdl.build_model("interht", 9, 4, 6, seed=5)
        ids = np.array([1, 3])
        _, _, cache = m.encode_entities(ids)
        buf = GradBuffer()
        d_base = np.ones((2, 6))
        d_aux = np.full((2, 6), 2.0)
        m.entity_backward(cache, d_base, d_aux, buf)
        grads = buf.finalize({})
        kind, rows, vals = grads["ent"]
        assert kind == "rows"
        np.testing.assert_array_equal(rows, [1, 3])
        np.testing.assert_array_equal(vals, d_base)
        np.testing.assert_array_equal(grads["ent_aux"][2], d_aux)

    def test_relation_vecs_and_backward(self):
        m = mdl.build_model("triplere", 5, 6, 4, seed=6)
        r = np.array([0, 5])
        vecs = m.relation_vecs(r)
        assert set(vecs) == {"r", "r_h", "r_t"}
        np.testing.assert_array_equal(vecs["r_h"], m.params["rel_h"][r])
        buf = GradBuffer()
        m.relation_backward(r, {"r": np.ones((2, 4))}, buf)
        kind, rows, vals = buf.finalize({})["rel"]
        assert kind == "rows"
        np.testing.assert_array_equal(rows, [0, 5])

    def test_encode_all_returns_tables(self):
        m = mdl.build_model("interht", 9, 4, 6, seed=7)
        base, aux = m.encode_all()
        assert base is m.params["ent"]
        assert aux is m.params["ent_aux"]


class TestBuildTokenized:
    def test_encoder_tables_present(self):
        store = random_store(12, 3, 50, seed=30)
        tg = tokens_for_store(store)
        m = mdl.build_model("interht", 12, 3, 8, seed=8, tokens=tg, d_tok=8,
                            heads=2)
        assert m.tokenized and m.mode == "tokenized"
        lay = m.layout
        assert m.params["tok"].shape == (lay.vocab_size, 8)
        assert m.params["out_proj"].shape == (8, 16)
        np.testing.assert_array_equal(m.params["tok"][lay.pad_row], np.zeros(8))
        assert m.frozen_rows == {"tok": lay.pad_row}
        assert m.tok_ids.shape == (12, tg.num_slots)

    @pytest.mark.parametrize("combiner", ["transformer", "mean"])
    def test_params_follow_table_shapes(self, combiner):
        store = random_store(12, 3, 50, seed=30)
        m = mdl.build_model("interht_plus", 12, 3, 8, seed=8,
                            tokens=tokens_for_store(store), d_tok=4,
                            heads=2, combiner=combiner)
        shapes = m.table_shapes()
        assert {n: p.shape for n, p in m.params.items()} == shapes
        assert list(shapes)[:4] == ["rel_h", "rel", "rel_t", "tok"]
        assert "ent" not in shapes
        assert ("wq" in shapes) == (combiner == "transformer")

    def test_entity_count_mismatch(self):
        store = random_store(12, 3, 50, seed=31)
        tg = tokens_for_store(store)
        with pytest.raises(ValueError, match="entity count"):
            mdl.build_model("transe", 13, 3, 8, tokens=tg)

    def test_encode_entities_splits_base_and_aux(self):
        store = random_store(12, 3, 50, seed=32)
        tg = tokens_for_store(store)
        m = mdl.build_model("interht", 12, 3, 8, seed=9, tokens=tg, d_tok=8,
                            heads=2, dtype=np.float64)
        ids = np.array([0, 4, 11])
        base, aux, cache = m.encode_entities(ids)
        assert base.shape == (3, 8) and aux.shape == (3, 8)
        assert cache[0] == "enc"
        out, _ = enc.encode_entity(m.params, m.enc_cfg, m.tok_ids[ids],
                                   m.tok_seg, m.tok_mask[ids])
        np.testing.assert_array_equal(base, out[:, :8])
        np.testing.assert_array_equal(aux, out[:, 8:])

    def test_aux_half_ignored_for_plain_kinds(self):
        store = random_store(12, 3, 50, seed=33)
        tg = tokens_for_store(store)
        m = mdl.build_model("transe", 12, 3, 8, seed=10, tokens=tg, d_tok=8,
                            heads=2)
        _, aux, _ = m.encode_entities(np.array([1]))
        assert aux is None

    def test_encode_all_matches_batched(self):
        store = random_store(12, 3, 50, seed=34)
        tg = tokens_for_store(store)
        m = mdl.build_model("interht", 12, 3, 8, seed=11, tokens=tg, d_tok=8,
                            heads=2, dtype=np.float64)
        base, aux = m.encode_all(batch_size=5)
        direct_b, direct_a, _ = m.encode_entities(np.arange(12))
        np.testing.assert_allclose(base, direct_b, rtol=1e-12)
        np.testing.assert_allclose(aux, direct_a, rtol=1e-12)

    def test_encode_all_drops_each_batch_cache(self, monkeypatch):
        # a batch's backward cache holds every encoder activation; it must
        # be freed before the next batch is encoded
        store = random_store(12, 3, 50, seed=36)
        m = mdl.build_model("interht", 12, 3, 8, seed=13,
                            tokens=tokens_for_store(store), d_tok=8, heads=2)

        class Cache:    # weakref-able stand-in for the cache tuple
            def __init__(self, inner):
                self.inner = inner

        encode, refs, alive = m.encode_entities, [], []

        def tracked(ids):
            alive.append(any(ref() is not None for ref in refs))
            base, aux, cache = encode(ids)
            wrapped = Cache(cache)
            refs.append(weakref.ref(wrapped))
            return base, aux, wrapped

        monkeypatch.setattr(m, "encode_entities", tracked)
        m.encode_all(batch_size=5)
        assert alive == [False, False, False]

    def test_entity_backward_never_touches_pad_row(self):
        store = random_store(12, 3, 50, seed=35)
        tg = tokens_for_store(store)
        m = mdl.build_model("interht", 12, 3, 8, seed=12, tokens=tg, d_tok=8,
                            heads=2, dtype=np.float64)
        ids = np.array([0, 3])
        _, _, cache = m.encode_entities(ids)
        buf = GradBuffer()
        rng = np.random.default_rng(0)
        m.entity_backward(cache, rng.normal(size=(2, 8)),
                          rng.normal(size=(2, 8)), buf)
        grads = buf.finalize(m.frozen_rows)
        kind, rows, _ = grads["tok"]
        assert kind == "rows"
        assert m.layout.pad_row not in rows
        assert "out_proj" in grads and grads["out_proj"][0] == "dense"
