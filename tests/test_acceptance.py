"""End-to-end acceptance gate.

Each test prints one [acceptance] line; run with `pytest -s` to see them
on success.  Tolerances are fixed here and should not be loosened.
"""
import json
import os
import time

import numpy as np
import pytest
from scipy.special import softmax

from kgembed import anchors as anc
from kgembed import encoder as enc
from kgembed import evaluation as ev
from kgembed import gradcheck
from kgembed import scoring
from kgembed import training as tr
from kgembed.data import load_triples
from kgembed.model import build_model

from helpers import make_cyclic_kg, random_store, store_from_arrays

KERNEL_TOL = 1e-4
ENCODER_TOL = 1e-3
IDENTITY_TOL = 1e-12
MRR_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-6
SEGMENT_PERM_TOL = 1e-6

GRAD_SUITE_BUDGET_S = 60.0
SMOKE_BUDGET_S = 300.0
SMOKE_TRAIN_MRR = 0.90
SMOKE_HOLDOUT_FACTOR = 10.0


def report(num: int, name: str, ok: bool) -> None:
    print(f"[acceptance] {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_1_gradient_suite():
    t0 = time.monotonic()
    kernel_errs = gradcheck.check_all_kernels(dim=8, instances=100, seed=0)
    encoder_err = gradcheck.check_transformer(instances=100, seed=0)
    elapsed = time.monotonic() - t0
    ok = (
        set(kernel_errs) == set(scoring.MODEL_KINDS)
        and all(e <= KERNEL_TOL for e in kernel_errs.values())
        and encoder_err <= ENCODER_TOL
        and elapsed < GRAD_SUITE_BUDGET_S
    )
    report(1, "gradient suite", ok)


def test_2_reduction_identities():
    rng = np.random.default_rng(100)
    n, d = 64, 8
    h, t = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    r = rng.normal(size=(n, d))
    zeros = np.zeros((n, d))
    worst = 0.0
    for p in (1, 2):
        base = scoring.score_for_loss(
            "transe", {"h": h, "t": t, "r": r}, p=p)[0]
        via_aux = scoring.score_for_loss(
            "interht", {"h": h, "t": t, "r": r, "h_a": zeros, "t_a": zeros},
            p=p)[0]
        via_u = scoring.score_for_loss(
            "interht_plus",
            {"h": h, "t": t, "r": r, "r_h": rng.normal(size=(n, d)),
             "r_t": rng.normal(size=(n, d))}, p=p, u=0.0)[0]
        worst = max(worst, np.abs(via_aux - base).max(),
                    np.abs(via_u - base).max())
    gates = {"h": h, "t": t, "r": r, "r_h": rng.normal(size=(n, d)),
             "r_t": rng.normal(size=(n, d))}
    v1 = scoring.score_for_loss("triplere", gates, p=1)[0]
    v2 = scoring.score_for_loss("triplere2", gates, p=1, u=0.0)[0]
    worst = max(worst, np.abs(v2 - v1).max())
    # zero phases rotate nothing, so the distance collapses to ||h - t||
    rot = scoring.score_for_loss(
        "rotate", {"h": h, "t": t, "r": np.zeros((n, d // 2))}, p=2)[0]
    plain = np.linalg.norm(h - t, axis=-1)
    worst = max(worst, np.abs(rot - plain).max())
    report(2, "reduction identities", worst <= IDENTITY_TOL)


def test_3_ranking_oracle():
    store = random_store(50, 5, 200, seed=101, splits=(0.6, 0.2, 0.2))
    model = build_model("transe", 50, 5, 8, p=1, seed=102, dtype=np.float64)
    ent, rel = model.params["ent"], model.params["rel"]
    known = {tuple(x) for s in store.splits.values() for x in s.tolist()}
    tables = model.encode_all()
    ok = True
    for split in ("valid", "test"):
        queries = ev.split_queries(store.splits[split], True)
        oracle_ranks = {pol: [] for pol in ev.TIE_POLICIES}
        for q in queries:
            if q.target == "tail":
                d = np.abs(ent[q.h] - ent + rel[q.r]).sum(axis=1)
                gold = q.t
                completes = lambda e: (q.h, q.r, e) in known
            else:
                d = np.abs(ent - ent[q.t] + rel[q.r]).sum(axis=1)
                gold = q.h
                completes = lambda e: (e, q.r, q.t) in known
            cand = np.array([d[e] for e in range(50)
                             if e != gold and not completes(e)])
            order = np.sort(cand)
            lo = np.searchsorted(order, d[gold], "left")
            hi = np.searchsorted(order, d[gold], "right")
            expect = {"optimistic": 1.0 + lo, "pessimistic": 1.0 + hi,
                      "mean": 1.0 + lo + (hi - lo) / 2.0}
            for pol in ev.TIE_POLICIES:
                got = ev.rank_query(model, store, q, tie_policy=pol,
                                    tables=tables)
                ok &= got.rank == expect[pol]
                oracle_ranks[pol].append(expect[pol])
        for pol in ev.TIE_POLICIES:
            rep = ev.evaluate_split(model, store, split, tie_policy=pol)
            want = np.mean([1.0 / r for r in oracle_ranks[pol]])
            ok &= abs(rep.mrr - want) <= MRR_TOL
    mrr_124 = ev.summarize_ranks([1.0, 2.0, 4.0], "filtered-full", "mean").mrr
    ok &= abs(mrr_124 - 7.0 / 12.0) <= MRR_TOL
    ok &= abs(mrr_124 - 0.58333) <= 5e-6
    report(3, "ranking oracle", ok)


def test_4_loss_arithmetic():
    m = build_model("transe", 3, 1, 2, p=1, dtype=np.float64)
    m.params["ent"][:] = 0.0
    m.params["rel"][:] = np.array([[1.0, 0.0]])
    loss, _ = tr.loss_and_grads(m, np.array([[0, 0, 1]]), np.array([[2]]),
                                "tail", 1.0, 0.0)
    ok = abs(loss - 2.0 * np.log(2.0)) <= MRR_TOL
    rng = np.random.default_rng(103)
    d = rng.uniform(0.0, 40.0, size=(1000, 16))
    for alpha in (0.0, 0.25, 1.0, 3.0):
        w = tr.self_adversarial_weights(d, alpha)
        ok &= np.abs(w.sum(axis=1) - 1.0).max() <= WEIGHT_SUM_TOL
        if alpha:
            ok &= np.allclose(w, softmax(-alpha * d, axis=1), atol=1e-12)
    report(4, "loss arithmetic", ok)


def test_5_learning_smoke():
    store, _ = make_cyclic_kg(num_entities=300, num_relations=10,
                              holdout=150, seed=7)
    cfg = tr.TrainConfig(
        model="interht", dim=32, p=1, gamma=6.0, adv_alpha=1.0, lr=0.01,
        batch_size=256, neg_size=16, steps_max=5000, valid_every=10 ** 9,
        log_every=1000, seed=0,
    )
    t0 = time.monotonic()
    final = tr.train_loop(store, cfg)
    model = tr.model_from_checkpoint(final)
    train_mrr = ev.evaluate_split(model, store, "train").mrr
    held = np.concatenate([store.splits["valid"], store.splits["test"]])
    held_ranks = [
        ev.rank_query(model, store, q, tables=model.encode_all()).rank
        for q in ev.split_queries(held, True)
    ]
    held_mrr = ev.summarize_ranks(held_ranks, "filtered-full", "mean").mrr
    elapsed = time.monotonic() - t0
    baseline = 1.0 / store.num_entities
    ok = (
        train_mrr >= SMOKE_TRAIN_MRR
        and held_mrr >= SMOKE_HOLDOUT_FACTOR * baseline
        and elapsed < SMOKE_BUDGET_S
    )
    print(f"[acceptance] 5 detail: train_mrr={train_mrr:.4f} "
          f"held_mrr={held_mrr:.4f} baseline={baseline:.5f} "
          f"elapsed={elapsed:.0f}s")
    report(5, "learning smoke test", ok)


def test_6_tokenization():
    ok = True
    # 3-edge graph: v->A, v->x, x->B with anchors {A, B}
    g3 = store_from_arrays([(0, 0, 1), (0, 0, 2), (2, 1, 3)],
                           num_entities=4, num_relations=2)
    a3 = anc.AnchorSet.from_ids(np.array([1, 3]), 4, "degree")
    ok &= anc.assign_node_anchors(g3, a3, 0, 2).tolist() == [1, 3]
    tok = anc.build_subgraph_tokens(g3, a3, 0, 2, 1, 2, seed=0)
    ok &= tok.anchors.tolist() == [0, 1]
    ok &= tok.mask.tolist() == [True, True, False, True, True, True]
    ok &= tok.out_neighbors.tolist() == [1, 2]
    # 5-node graph: two-hop anchor with two witnesses precedes one witness
    g5 = store_from_arrays(
        [(0, 0, 1), (0, 0, 2), (1, 0, 3), (2, 0, 3), (1, 0, 4)],
        num_entities=5, num_relations=1,
    )
    a5 = anc.AnchorSet.from_ids(np.array([3, 4]), 5, "degree")
    ok &= anc.assign_node_anchors(g5, a5, 0, 2).tolist() == [3, 4]
    # bit determinism
    big = random_store(40, 4, 200, seed=104)
    sel = anc.select_global_anchors(big, 8)
    tg1, _ = anc.tokenize_all(big, sel, 4, 3, 3, seed=5)
    tg2, _ = anc.tokenize_all(big, sel, 4, 3, 3, seed=5)
    for f in ("anchor_tok", "in_tok", "out_tok", "mask"):
        ok &= np.array_equal(getattr(tg1, f), getattr(tg2, f))
    # encoder ignores token order inside a segment
    cfg = enc.EncoderConfig(d_tok=8, heads=2, out_dim=6)
    params = enc.init_encoder_params(cfg, 30, np.random.default_rng(105),
                                     dtype=np.float64)
    rng = np.random.default_rng(106)
    ids = rng.integers(0, 30, size=(4, 7))
    seg = np.array([0, 0, 0, 1, 1, 2, 3])
    mask = np.ones((4, 7), dtype=bool)
    out, _ = enc.encode_entity(params, cfg, ids, seg, mask)
    perm = np.array([2, 0, 1, 4, 3, 5, 6])   # shuffles within segments only
    out_p, _ = enc.encode_entity(params, cfg, ids[:, perm], seg, mask)
    ok &= np.abs(out - out_p).max() <= SEGMENT_PERM_TOL
    report(6, "tokenization", ok)


def test_7_determinism_and_persistence(tmp_path):
    store = random_store(25, 3, 120, seed=107, splits=(0.8, 0.2, 0.0))
    cfg = tr.TrainConfig(model="interht", dim=8, p=1, gamma=4.0,
                         adv_alpha=1.0, lr=0.01, batch_size=32, neg_size=8,
                         steps_max=60, valid_every=30, log_every=10, seed=11)
    blobs, logs = [], []
    for run in ("a", "b"):
        d = tmp_path / run
        records = []
        tr.train_loop(store, cfg, sink=records.append, checkpoint_dir=d)
        blobs.append((d / "final.ckpt").read_bytes())
        logs.append(json.dumps(records, sort_keys=True))
    ok = blobs[0] == blobs[1] and logs[0] == logs[1]
    back = tr.load_checkpoint(tmp_path / "a" / "final.ckpt")
    fresh = tmp_path / "resaved.ckpt"
    tr.save_checkpoint(back, fresh)
    ok &= fresh.read_bytes() == blobs[0]
    report(7, "determinism and persistence", ok)


def test_8_full_scale_ingest():
    root = os.environ.get("KGEMBED_WIKIKG2_DIR", "")
    if not root or not os.path.isdir(root):
        print("[acceptance] 8 full-scale ingest: SKIP "
              "(set KGEMBED_WIKIKG2_DIR to the numeric triple files)")
        pytest.skip("full-scale dataset not present")
    sources = {"train": os.path.join(root, "train.txt")}
    store = load_triples(sources, fmt="numeric")
    ok = (store.num_entities == 2_500_604
          and store.num_relations == 535
          and store.num_triples("train") == 16_109_182)
    report(8, "full-scale ingest", ok)
