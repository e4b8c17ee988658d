"""The one-call training step against the per-branch step it replaced."""
import copy
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgembed import anchors as anc
from kgembed import training as tr
from kgembed.model import build_model
from kgembed.scoring import MODEL_KINDS
from kgembed.segments import RowGroups

import step_oracle
from conftest import random_store

# (rtol, atol) for losses and gradient rows; float32 tolerances cover the
# oracle's float64 weights and float64 products scattered into float32
TOLERANCES = {np.float64: (1e-10, 1e-13), np.float32: (2e-4, 2e-6)}


@lru_cache(maxsize=None)
def token_graph(num_entities: int):
    store = random_store(num_entities, 3, 4 * num_entities, seed=num_entities)
    sel = anc.select_global_anchors(store, 2)
    return anc.tokenize_all(store, sel, 2, 1, 1)[0]


def densify(entry, table):
    if entry[0] == "dense":
        return entry[1]
    out = np.zeros(table.shape, dtype=entry[2].dtype)
    out[entry[1]] = entry[2]
    return out


@st.composite
def step_cases(draw):
    kind = draw(st.sampled_from(sorted(MODEL_KINDS)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    tokenized = draw(st.booleans())
    ne = draw(st.integers(2 if tokenized else 1, 8))
    nr = draw(st.integers(1, 3))
    dim = draw(st.sampled_from([2, 4]))
    extra = {}
    if tokenized:
        combiner = draw(st.sampled_from(["transformer", "mean"]))
        extra = dict(tokens=token_graph(ne), d_tok=4, heads=2,
                     combiner=combiner,
                     use_center=draw(st.booleans()))
    m = build_model(kind, ne, nr, dim, p=draw(st.sampled_from([1, 2])),
                    u=draw(st.sampled_from([0.0, 0.05])),
                    seed=draw(st.integers(0, 2**16)), dtype=dtype, **extra)
    ids = st.integers(0, ne - 1)
    b = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    batch = np.array(draw(st.lists(
        st.tuples(ids, st.integers(0, nr - 1), ids), min_size=b, max_size=b)),
        dtype=np.int64)
    neg = np.array(draw(st.lists(st.lists(ids, min_size=k, max_size=k),
                                 min_size=b, max_size=b)), dtype=np.int64)
    return (m, batch, neg, draw(st.sampled_from(["head", "tail"])),
            draw(st.floats(0.5, 3.0)), draw(st.sampled_from([0.0, 0.3, 1.5])),
            TOLERANCES[dtype])


@settings(max_examples=300, deadline=None)
@given(case=step_cases())
def test_step_matches_per_branch_oracle(case):
    m, batch, neg, side, gamma, alpha, (rtol, atol) = case
    loss, buf = tr.loss_and_grads(m, batch, neg, side, gamma, alpha)
    want_loss, want_buf = step_oracle.loss_and_grads(m, batch, neg, side,
                                                     gamma, alpha)
    assert loss == pytest.approx(want_loss, rel=rtol, abs=atol)
    got = buf.finalize(m.frozen_rows)
    want = want_buf.finalize(m.frozen_rows)
    # rows compared as dense tables: a row that cancels to exactly zero in
    # one summation order may keep a rounding residue in the other
    assert got.keys() == want.keys()
    for name, entry in want.items():
        assert got[name][0] == entry[0], name
        np.testing.assert_allclose(densify(got[name], m.params[name]),
                                   densify(entry, m.params[name]),
                                   rtol=rtol, atol=atol, err_msg=name)
    if m.tokenized:
        assert m.layout.pad_row not in got["tok"][1]


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(st.integers(-3, 6), min_size=0, max_size=30),
       width=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_row_groups_match_add_at(ids, width, seed):
    ids = np.array(ids, dtype=np.int64)
    rows = np.random.default_rng(seed).normal(size=(len(ids), width))
    groups = RowGroups(ids)
    uniq, inv = np.unique(ids, return_inverse=True)
    want = np.zeros((len(uniq), width))
    np.add.at(want, inv, rows)
    np.testing.assert_array_equal(groups.ids, uniq)
    np.testing.assert_array_equal(groups.ids[groups.inverse], ids)
    np.testing.assert_allclose(groups.sum(rows), want, rtol=1e-12,
                               atol=1e-15)
    assert groups.sum(rows.astype(np.float32)).dtype == np.float32


def random_grads(params, rng, dtype):
    """finalize-shaped gradients: sorted unique rows of some tables, dense
    arrays with zero rows for the others, and the 1-d table dense."""
    grads = {}
    for name, p in params.items():
        if p.ndim == 1:
            grads[name] = ("dense", rng.normal(size=p.shape).astype(dtype))
        elif name.startswith("ent"):
            ids = np.flatnonzero(rng.random(len(p)) < 0.4)
            grads[name] = ("rows", ids,
                           rng.normal(size=(len(ids), p.shape[1])).astype(dtype))
        else:
            g = rng.normal(size=p.shape).astype(dtype)
            g[rng.random(len(p)) < 0.4] = 0.0
            grads[name] = ("dense", g)
    return grads


@pytest.mark.parametrize("dtype, grad_dtype", [
    (np.float32, np.float32), (np.float64, np.float64),
    (np.float32, np.float64)])
def test_adam_step_bit_identical_to_seed(dtype, grad_dtype):
    rng = np.random.default_rng(60)
    params = {"ent": rng.normal(size=(40, 6)), "ent_aux": rng.normal(size=(40, 6)),
              "w": rng.normal(size=(5, 3)), "b": rng.normal(size=4)}
    params = {k: v.astype(dtype) for k, v in params.items()}
    state = tr.AdamState.init(params)
    want_params = copy.deepcopy(params)
    want_state = copy.deepcopy(state)
    for _ in range(12):
        grads = random_grads(params, rng, grad_dtype)
        tr.adam_step(params, grads, state, lr=0.05)
        step_oracle.adam_step(want_params, grads, want_state, lr=0.05)
    for name in params:
        assert params[name].dtype == dtype
        assert np.array_equal(params[name], want_params[name]), name
        assert np.array_equal(state.m[name], want_state.m[name]), name
        assert np.array_equal(state.v[name], want_state.v[name]), name
        assert np.array_equal(state.counts[name], want_state.counts[name]), name
    assert state.counts["ent"].max() > 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tokenized", [False, True])
def test_step_stays_in_model_dtype(dtype, tokenized, monkeypatch):
    extra = dict(tokens=token_graph(8), d_tok=4, heads=2) if tokenized else {}
    m = build_model("interht", 8, 2, 4, seed=61, dtype=dtype, **extra)
    seen = {}
    real = tr.self_adversarial_weights

    def recorder(neg_d, alpha):
        seen["d"] = neg_d
        seen["w"] = real(neg_d, alpha)
        return seen["w"]

    monkeypatch.setattr(tr, "self_adversarial_weights", recorder)
    rng = np.random.default_rng(62)
    batch = np.column_stack([rng.integers(0, 8, 5), rng.integers(0, 2, 5),
                             rng.integers(0, 8, 5)])
    neg = rng.integers(0, 8, size=(5, 3))
    _, buf = tr.loss_and_grads(m, batch, neg, "tail", 1.0, 1.0)
    assert seen["d"].dtype == dtype and seen["w"].dtype == dtype
    grads = buf.finalize(m.frozen_rows)
    for name, entry in grads.items():
        assert entry[-1].dtype == dtype, name
    state = tr.AdamState.init(m.params)
    before = {k: v.copy() for k, v in m.params.items()}
    tr.adam_step(m.params, grads, state, lr=0.01)
    for name, p in m.params.items():
        assert p.dtype == dtype and state.m[name].dtype == dtype
        assert state.v[name].dtype == dtype
    assert any(not np.array_equal(before[k], m.params[k]) for k in before)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_self_adversarial_weights_keep_dtype(dtype, alpha):
    d = np.random.default_rng(63).uniform(0, 5, size=(4, 3)).astype(dtype)
    assert tr.self_adversarial_weights(d, alpha).dtype == dtype


def test_lookup_rows_pass_finalize_unmerged():
    buf = tr.GradBuffer()
    rows = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]], dtype=np.float32)
    buf.add_rows("ent", np.array([2, 5, 7]), rows)
    _, ids, got = buf.finalize()["ent"]
    np.testing.assert_array_equal(ids, [2, 7])
    np.testing.assert_array_equal(got, rows[[0, 2]])


@settings(max_examples=80, deadline=None)
@given(ne=st.integers(1, 12), nr=st.integers(1, 3), n=st.integers(1, 60),
       b=st.integers(1, 12), k=st.integers(1, 9),
       side=st.sampled_from(["head", "tail"]), seed=st.integers(0, 2**16))
def test_filtered_negatives_match_seed(ne, nr, n, b, k, side, seed):
    """Checking only redrawn positions draws the same negatives, from the
    same random stream, as checking the whole batch every round."""
    store = random_store(ne, nr, n, seed=seed)
    rng = np.random.default_rng(seed)
    batch = store.splits["train"][rng.integers(0, len(store.splits["train"]), b)]
    for filter_train in (False, True):
        got_rng = np.random.default_rng(seed + 1)
        want_rng = np.random.default_rng(seed + 1)
        got, _ = tr.sample_negatives(store, batch, k, side, got_rng,
                                     filter_train=filter_train)
        want, _ = step_oracle.sample_negatives(store, batch, k, side, want_rng,
                                               filter_train=filter_train)
        np.testing.assert_array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
