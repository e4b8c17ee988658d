"""Tests of the benchmark's own pieces: generator, oracles and tracer.

Run with ``python3 -m pytest bench/tests``.
"""
import dataclasses
import json

import numpy as np
import pytest

import kgembed as kg
import layers
import oracles
from graphs import Graph, GraphSpec, candidate_sets, generate, write_tsv
from tracer import Tracer

TINY = GraphSpec(entities=60, relations=4, train=500, valid=20, test=10,
                 entity_skew=0.7, relation_skew=0.5)


def tiny_store(graph: Graph, tmp_path):
    for split, rows in graph.splits().items():
        write_tsv(rows, tmp_path / f"{split}.tsv")
    store = kg.load_triples({s: tmp_path / f"{s}.tsv" for s in graph.splits()},
                            fmt="numeric", num_entities=graph.num_entities,
                            num_relations=graph.num_relations)
    return kg.build_adjacency(store)


# -- generator --------------------------------------------------------------

def test_generator_is_deterministic_per_seed():
    a, b, c = generate(TINY, 3), generate(TINY, 3), generate(TINY, 4)
    for split in ("train", "valid", "test"):
        assert np.array_equal(a.splits()[split], b.splits()[split])
    assert not np.array_equal(a.train, c.train)


def test_generator_draws_distinct_triples_without_self_loops():
    g = generate(TINY, 0)
    allt = g.all_triples()
    assert [len(g.train), len(g.valid), len(g.test)] == [500, 20, 10]
    assert len(np.unique(allt, axis=0)) == len(allt)
    assert (allt[:, 0] != allt[:, 2]).all()
    assert allt[:, [0, 2]].max() < 60 and allt[:, 1].max() < 4


def test_candidate_sets_exclude_gold_and_repeat_per_seed():
    g = generate(TINY, 0)
    a, b = candidate_sets(g, "test", 25, 1), candidate_sets(g, "test", 25, 1)
    for target, col in (("tail", 2), ("head", 0)):
        assert np.array_equal(a[target], b[target])
        rows = a[target]
        assert rows.shape == (10, 25)
        assert (rows != g.test[:, col:col + 1]).all()
        assert all(len(set(r)) == 25 for r in rows.tolist())


# -- oracles ------------------------------------------------------------------

def test_store_oracle_agrees_and_catches_a_changed_split(tmp_path):
    g = generate(TINY, 1)
    store = tiny_store(g, tmp_path)
    assert oracles.check_store(store, g) == []
    store.splits["test"] = store.splits["test"][::-1].copy()
    assert oracles.check_store(store, g)


def test_tokenizer_oracle_agrees_and_catches_a_swapped_anchor(tmp_path):
    g = generate(TINY, 2)
    store = tiny_store(g, tmp_path)
    tg, _ = kg.tokenize_all(store, kg.select_global_anchors(store, 6), 4, 2, 2)
    ins, outs = oracles.neighbor_sets(g.train, g.num_entities)
    anchors = oracles.top_degree_anchors(g.train, g.num_entities, 6)
    nodes = list(range(g.num_entities))
    assert oracles.check_tokens(tg, nodes, ins, outs, anchors) == []
    v = next(v for v in nodes if tg.mask[v, :2].all())
    tg.anchor_tok[v, [0, 1]] = tg.anchor_tok[v, [1, 0]]
    assert oracles.check_tokens(tg, nodes, ins, outs, anchors)


@pytest.mark.parametrize("kind,tokenized", [("interht", False),
                                            ("interht_plus", True)])
def test_loss_and_gradient_oracles_agree_with_the_program(tmp_path, kind,
                                                          tokenized):
    g = generate(TINY, 3)
    store = tiny_store(g, tmp_path)
    tokens = None
    if tokenized:
        tokens, _ = kg.tokenize_all(store, kg.select_global_anchors(store, 6),
                                    4, 2, 2)
    model = kg.build_model(kind, g.num_entities, g.num_relations, 8, u=0.05,
                           tokens=tokens, d_tok=8, seed=1)
    model64 = dataclasses.replace(
        model, params={k: v.astype(np.float64) for k, v in model.params.items()})
    rng = np.random.default_rng(0)
    batch = g.train[:6]
    for step in (1, 2):
        neg, side = kg.sample_negatives(store, batch, 5, "both", rng, step=step)
        got, buf = kg.loss_and_grads(model64, batch, neg, side, 6.0, 1.0)
        want, _, _ = oracles.batch_loss(model64, batch, neg, side, 6.0, 1.0)
        assert got == pytest.approx(want, rel=1e-10)
        grads = buf.finalize(model64.frozen_rows)
        assert oracles.check_gradients(model64, batch, neg, side, 6.0, 1.0,
                                       grads, rng) == []
        name = "rel"
        ids, rows = grads[name][1], grads[name][2] * 1.5
        grads[name] = ("rows", ids, rows)
        assert oracles.check_gradients(model64, batch, neg, side, 6.0, 1.0,
                                       grads, rng)


def test_rank_oracle_brackets_program_ranks_and_rejects_a_corrupted_one(
        tmp_path):
    g = generate(TINY, 4)
    store = tiny_store(g, tmp_path)
    model = kg.build_model("interht", g.num_entities, g.num_relations, 8,
                           seed=2)
    queries = [(h, r, t, target) for h, r, t in g.test.tolist()
               for target in ("tail", "head")]
    base, aux = oracles.entity_tables(model, np.arange(g.num_entities))
    cands = candidate_sets(g, "test", 20, 0)
    for protocol, cs in (("filtered-full", None), ("candidate-set", cands)):
        pools = oracles.eval_pools(g, queries, g.num_entities, cs)
        bounds = []
        for i, (q, (gold, pool)) in enumerate(zip(queries, pools)):
            dist = oracles.query_distances(model, base, aux, *q)
            lo, hi = oracles.rank_bounds(dist, gold, pool, model.dim)
            bounds.append((lo, hi))
            res = kg.rank_query(model, store, kg.Query(*q), protocol,
                                candidates=None if cs is None else cs[q[3]][i // 2])
            assert lo <= res.rank <= hi
            assert res.num_candidates == len(pool) + 1
        report = kg.evaluate_split(model, store, "test", protocol=protocol,
                                   candidate_sets=cs)
        assert oracles.check_report(report, bounds) == []
        # one query's rank pushed to the bottom of its pool
        worse = list(bounds)
        n = len(pools[0][1]) + 1
        worse[0] = (n, n) if bounds[0][1] < n else (1, 1)
        assert oracles.check_report(report, worse)


# -- tracer -------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_covered_child_intervals():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("stage"):          # 0 .. 10
        clock.now = 1.0
        with tr.span("a"):          # 1 .. 6, children cover 2..3 and 4..5.5
            clock.now = 2.0
            with tr.span("b"):
                clock.now = 3.0
            clock.now = 4.0
            with tr.span("c"):
                clock.now = 5.5
            clock.now = 6.0
        clock.now = 10.0
    assert [s[0] for s in tr.spans] == ["stage", "a", "b", "c"]
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 1]
    assert tr.self_times() == pytest.approx([5.0, 2.5, 1.0, 1.5])


def test_install_traces_all_bindings_and_restores_them(tmp_path):
    g = generate(TINY, 5)
    original = kg.filtered_candidates
    tr = Tracer()
    tr.install([
        ("kgembed.data", "filtered_candidates", "fc",
         lambda a, kw, r: [("excluded", len(r))]),
        ("kgembed.data", "TripleStore.load", "load", None),
        ("kgembed.data", "no_such_function", "gone", None),
        ("kgembed.nowhere", "f", "gone", None),
    ])
    try:
        assert tr.absent == ["kgembed.data:no_such_function", "kgembed.nowhere:f"]
        store = tiny_store(g, tmp_path)
        store.save(tmp_path / "store")
        kg.evaluation.filtered_candidates(store, kg.Query(0, 0, 1, "tail"))
        assert tr.spans == []       # no stage open: calls pass through
        with tr.span("stage"):
            kg.TripleStore.load(tmp_path / "store")
            kg.evaluation.filtered_candidates(store, kg.Query(0, 0, 1, "tail"))
        assert [s[0] for s in tr.spans] == ["stage", "load", "fc"]
        assert ("stage", "excluded") in tr.counts
    finally:
        tr.uninstall()
    assert kg.filtered_candidates is original
    assert kg.evaluation.filtered_candidates is original
    assert isinstance(vars(kg.TripleStore)["load"], classmethod)


def test_layer_metrics_cover_the_per_layer_list():
    tr = Tracer()
    m = layers.layer_metrics(tr, batch=4, neg=2, steps_per_call=3,
                             overhead_ratio=1.0)
    assert list(m) == [name for name, _, _ in layers.PER_LAYER]


def test_benchmark_json_lists_the_per_layer_metrics():
    from conftest import BENCH
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
