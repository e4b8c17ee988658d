import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgembed import evaluation as ev
from kgembed.data import Query
from kgembed.model import build_model
from kgembed.scoring import MODEL_KINDS

import rank_oracle
from conftest import random_store, store_from_arrays

# Few distinct values, so that scores tie often and exactly.
TIE_VALUES = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])


@st.composite
def ranking_cases(draw):
    """A small model with tie-heavy tables, a store whose splits repeat
    triples, a protocol with candidate rows that may hold the gold, and the
    block and chunk sizes to rank with."""
    kind = draw(st.sampled_from(sorted(MODEL_KINDS)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    ne = draw(st.integers(2, 13))
    nr = draw(st.integers(1, 3))
    dim = draw(st.sampled_from([2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def triples(n):
        return np.stack([rng.integers(0, ne, n), rng.integers(0, nr, n),
                         rng.integers(0, ne, n)], axis=1)

    train = triples(draw(st.integers(1, 30)))
    valid = triples(draw(st.integers(0, 5)))
    test = triples(draw(st.integers(1, 12)))
    # repeat train triples in the held-out splits and inside test
    test[rng.random(len(test)) < 0.3] = train[0]
    if len(valid):
        valid[0] = test[-1]
    store = store_from_arrays(train, valid=valid if len(valid) else None,
                              test=test, num_entities=ne, num_relations=nr)
    m = build_model(kind, ne, nr, dim, p=draw(st.sampled_from([1, 2])),
                    u=0.5, dtype=dtype)
    palette = rng.choice(TIE_VALUES, size=(3, dim))
    for name, table in m.params.items():
        if name.startswith("ent"):
            table[:] = palette[rng.integers(0, len(palette), len(table))]
        elif m.kind.phase_relation:
            table[:] = rng.choice([0.0, np.pi / 2, np.pi, 1.0], table.shape)
        else:
            table[:] = rng.choice(TIE_VALUES, table.shape)
    protocol = draw(st.sampled_from(ev.PROTOCOLS))
    cands = None
    if protocol == "candidate-set":
        k = draw(st.integers(1, 7))
        cands = {}
        for target, col in (("tail", 2), ("head", 0)):
            rows = rng.integers(0, ne, (len(test), k))
            gold_in = rng.random(len(test)) < 0.3
            rows[gold_in, 0] = test[gold_in, col]
            cands[target] = rows
    return (m, store, protocol, draw(st.sampled_from(ev.TIE_POLICIES)),
            draw(st.booleans()), cands, draw(st.sampled_from([1, 3, 16])),
            draw(st.sampled_from([1, 2, 5, 64])))


def line_model(store, positions, shift):
    """dim-1 translation model with hand-set coordinates: d = |pos_h - pos_t + shift|."""
    m = build_model("transe", store.num_entities, store.num_relations, 1,
                    p=1, dtype=np.float64)
    m.params["ent"] = np.asarray(positions, dtype=np.float64).reshape(-1, 1)
    m.params["rel"] = np.full((store.num_relations, 1), float(shift))
    return m


class TestTieRank:
    def test_unique_best_is_rank_one(self):
        for policy in ev.TIE_POLICIES:
            assert ev.tie_rank(0, 0, policy) == 1.0

    def test_policies_split_ties(self):
        assert ev.tie_rank(3, 2, "optimistic") == 4.0
        assert ev.tie_rank(3, 2, "pessimistic") == 6.0
        assert ev.tie_rank(3, 2, "mean") == 5.0

    def test_gold_tied_with_one_candidate(self):
        assert ev.tie_rank(0, 1, "optimistic") == 1.0
        assert ev.tie_rank(0, 1, "pessimistic") == 2.0
        assert ev.tie_rank(0, 1, "mean") == 1.5

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="tie policy"):
            ev.tie_rank(0, 0, "hopeful")


class TestSortRank:
    def test_agrees_with_counting(self):
        rng = np.random.default_rng(70)
        for _ in range(50):
            cand = rng.integers(0, 6, size=20).astype(np.float64)
            gold = float(rng.integers(0, 6))
            better = (cand < gold).sum()
            ties = (cand == gold).sum()
            for policy in ev.TIE_POLICIES:
                assert rank_oracle.sort_rank(cand, gold, policy) == \
                    ev.tie_rank(better, ties, policy)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(71)
        cand = rng.normal(size=30)
        gold = cand[4]
        for f in (lambda x: 2 * x + 5, np.exp, lambda x: x ** 3):
            for policy in ev.TIE_POLICIES:
                assert rank_oracle.sort_rank(f(cand), f(np.array(gold)),
                                             policy) == \
                    rank_oracle.sort_rank(cand, gold, policy)


class TestRankQuery:
    def make_line_setup(self):
        # entities on a line at 0..4, r shifts by +1; d(h=0 -> t) = |1 - t|
        store = store_from_arrays(
            [(0, 0, 1), (0, 0, 2)], test=[(0, 0, 3)],
            num_entities=5, num_relations=1,
        )
        return store, line_model(store, [0, 1, 2, 3, 4], 1.0)

    def test_filtering_removes_known_competitor(self):
        store, m = self.make_line_setup()
        q = Query(0, 0, 3, "tail")
        # unfiltered pool {0,1,2,4}: scores {1,0,1,3}, gold d=2 -> rank 4
        res = ev.rank_query(m, store, q, protocol="candidate-set",
                            candidates=np.array([0, 1, 2, 4]))
        assert res.rank == 4.0
        # filtered-full drops the known-true tails 1 and 2 -> pool {0,4}
        res = ev.rank_query(m, store, q)
        assert res.rank == 2.0
        assert res.num_candidates == 3

    def test_tied_gold_across_policies(self):
        # gold t=0 and candidate t=2 both sit at distance 1
        store, m = self.make_line_setup()
        q = Query(0, 0, 0, "tail")
        got = {
            pol: ev.rank_query(m, store, q, protocol="candidate-set",
                               candidates=np.array([2, 3, 4]),
                               tie_policy=pol).rank
            for pol in ev.TIE_POLICIES
        }
        assert got == {"optimistic": 1.0, "pessimistic": 2.0, "mean": 1.5}

    def test_gold_in_candidate_set_dropped_with_warning(self, caplog):
        store, m = self.make_line_setup()
        q = Query(0, 0, 3, "tail")
        with caplog.at_level(logging.WARNING, logger="kgembed.evaluation"):
            res = ev.rank_query(m, store, q, protocol="candidate-set",
                                candidates=np.array([0, 3, 4]))
        assert any("candidate set" in r.message for r in caplog.records)
        clean = ev.rank_query(m, store, q, protocol="candidate-set",
                              candidates=np.array([0, 4]))
        assert res.rank == clean.rank
        assert res.num_candidates == 3

    def test_empty_candidates_rejected(self):
        store, m = self.make_line_setup()
        q = Query(0, 0, 3, "tail")
        with pytest.raises(ValueError, match="empty candidate"):
            ev.rank_query(m, store, q, protocol="candidate-set",
                          candidates=np.array([3]))

    def test_bad_protocol_and_missing_candidates(self):
        store, m = self.make_line_setup()
        q = Query(0, 0, 3, "tail")
        with pytest.raises(ValueError, match="protocol"):
            ev.rank_query(m, store, q, protocol="open-world")
        with pytest.raises(ValueError, match="candidate list"):
            ev.rank_query(m, store, q, protocol="candidate-set")

    @pytest.mark.parametrize("kind", ["transe", "interht"])
    def test_matches_brute_force_oracle(self, kind):
        store = random_store(40, 3, 300, seed=72, splits=(0.8, 0.1, 0.1))
        m = build_model(kind, 40, 3, 6, p=1, seed=73, dtype=np.float64)
        known = {
            tuple(t) for split in store.splits.values() for t in split.tolist()
        }
        tables = m.encode_all()
        queries = ev.split_queries(store.splits["test"][:10], True)
        for q in queries:
            d = rank_oracle.score_against_all(m, tables, q)
            gold = q.t if q.target == "tail" else q.h
            cand = []
            for e in range(40):
                if e == gold:
                    continue
                trip = (q.h, q.r, e) if q.target == "tail" else (e, q.r, q.t)
                if trip in known:
                    continue
                cand.append(d[e])
            cand = np.array(cand)
            for policy in ev.TIE_POLICIES:
                got = ev.rank_query(m, store, q, tie_policy=policy,
                                    tables=tables)
                assert got.rank == rank_oracle.sort_rank(cand, d[gold], policy)
                assert got.num_candidates == len(cand) + 1


class TestSummarize:
    def test_reciprocal_rank_arithmetic(self):
        report = ev.summarize_ranks([1.0, 2.0, 4.0], "filtered-full", "mean")
        assert report.mrr == pytest.approx(7.0 / 12.0, abs=1e-12)
        assert report.hits[1] == pytest.approx(1 / 3)
        assert report.hits[3] == pytest.approx(2 / 3)
        assert report.hits[10] == 1.0
        assert report.count == 3

    def test_single_rank_ten(self):
        report = ev.summarize_ranks([10.0], "filtered-full", "mean")
        assert report.mrr == pytest.approx(0.1)
        assert report.hits == {1: 0.0, 3: 0.0, 10: 1.0}

    def test_all_rank_one(self):
        report = ev.summarize_ranks([1.0] * 7, "filtered-full", "mean")
        assert report.mrr == 1.0
        assert all(v == 1.0 for v in report.hits.values())

    def test_fractional_rank_counts_toward_hits(self):
        report = ev.summarize_ranks([1.5], "filtered-full", "mean")
        assert report.hits[1] == 0.0 and report.hits[3] == 1.0
        assert report.mrr == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no ranks"):
            ev.summarize_ranks([], "filtered-full", "mean")

    def test_to_dict_keys(self):
        d = ev.summarize_ranks([2.0], "filtered-full", "mean").to_dict()
        assert set(d) == {"mrr", "hits@1", "hits@3", "hits@10", "count",
                          "protocol", "tie_policy"}


class TestEvaluateSplit:
    def test_both_directions_doubles_count(self):
        store = random_store(20, 2, 100, seed=74, splits=(0.8, 0.0, 0.2))
        m = build_model("transe", 20, 2, 4, seed=75)
        both = ev.evaluate_split(m, store, "test")
        tails = ev.evaluate_split(m, store, "test", both_directions=False)
        assert both.count == 2 * tails.count

    @settings(max_examples=150, deadline=None)
    @given(case=ranking_cases())
    def test_ranks_match_per_query_oracle(self, case):
        m, store, protocol, policy, both, cands, block, chunk = case
        tables = m.encode_all()
        known = rank_oracle.known_triples(store)
        queries = ev.split_queries(store.splits["test"], both)
        want = []
        try:
            for i, q in enumerate(queries):
                row = None if cands is None else cands[q.target][i // (1 + both)]
                want.append(rank_oracle.rank_query(
                    m, known, q, protocol, policy, tables, row))
        except ValueError:
            want = None
        dim = tables[0].shape[1]
        with mock.patch.object(ev, "BLOCK_QUERIES", block), \
                mock.patch.object(ev, "ELEMENT_BUDGET", block * chunk * dim):
            if want is None:
                with pytest.raises(ValueError, match="empty candidate"):
                    ev.rank_split(m, store, "test", protocol, policy, both,
                                  cands)
                return
            got = ev.rank_split(m, store, "test", protocol, policy, both, cands)
            report = ev.evaluate_split(m, store, "test", protocol, policy,
                                       both, cands)
            for i, q in enumerate(queries):
                row = None if cands is None else cands[q.target][i // (1 + both)]
                one = ev.rank_query(m, store, q, protocol, policy, tables, row)
                assert (one.rank, one.num_candidates) == \
                    (want[i].rank, want[i].num_candidates)
        assert got.tolist() == [w.rank for w in want]
        assert report == ev.summarize_ranks([w.rank for w in want], protocol,
                                            policy)

    @pytest.mark.parametrize("rows, first", [(slice(None), 0), ([3], 3)])
    def test_non_finite_entity_rows_rejected(self, rows, first):
        store = random_store(20, 2, 100, seed=74, splits=(0.8, 0.0, 0.2))
        m = build_model("interht", 20, 2, 4, seed=75)
        m.params["ent"][rows] = np.nan
        with pytest.raises(ValueError, match=f"entity_base row {first}:"):
            ev.evaluate_split(m, store, "test")

    def test_rank_query_rejects_non_finite_model(self):
        store = random_store(20, 2, 100, seed=74, splits=(0.8, 0.0, 0.2))
        m = build_model("interht", 20, 2, 4, seed=75)
        m.params["ent"][:] = np.nan
        h, r, t = store.splits["test"][0].tolist()
        with pytest.raises(ValueError, match="entity_base row 0:"):
            ev.rank_query(m, store, Query(h, r, t, "tail"))

    def test_gold_in_candidate_row_warns_once_per_query(self, caplog):
        store = store_from_arrays(
            [(0, 0, 1)], test=[(0, 0, 1), (0, 0, 2)],
            num_entities=6, num_relations=1,
        )
        m = line_model(store, [0, 1, 2, 3, 4, 5], 1.0)
        cands = {"tail": np.array([[1, 1, 4], [3, 4, 5]])}
        with caplog.at_level(logging.WARNING, logger="kgembed.evaluation"):
            ranks = ev.rank_split(m, store, "test", "candidate-set",
                                  both_directions=False, candidate_sets=cands)
        warned = [r for r in caplog.records if "candidate set" in r.message]
        assert len(warned) == 1
        assert ranks.tolist() == [1.0, 1.0]

    def test_perfectly_ranked_split(self):
        # model distances reproduce the +1-shift graph exactly
        store = store_from_arrays(
            [(0, 0, 1), (1, 0, 2)], test=[(2, 0, 3)],
            num_entities=4, num_relations=1,
        )
        m = line_model(store, [0, 1, 2, 3], 1.0)
        report = ev.evaluate_split(m, store, "test")
        assert report.mrr == 1.0

    def test_candidate_rows_map_one_per_triple(self):
        store = store_from_arrays(
            [(0, 0, 1)], test=[(0, 0, 1), (0, 0, 2)],
            num_entities=6, num_relations=1,
        )
        m = line_model(store, [0, 1, 2, 3, 4, 5], 1.0)
        # rows are per test triple; with both directions off, query i uses row i
        cands = {"tail": np.array([[3, 4], [4, 5]])}
        report = ev.evaluate_split(m, store, "test", protocol="candidate-set",
                                   both_directions=False, candidate_sets=cands)
        # triple 0: gold d=0 vs {2,3} -> rank 1; triple 1: gold d=1 vs {3,4} -> 1
        assert report.mrr == 1.0
        assert report.count == 2

    def test_candidate_rows_shared_between_directions(self):
        store = store_from_arrays(
            [(0, 0, 1)], test=[(0, 0, 1)], num_entities=4, num_relations=1
        )
        m = line_model(store, [0, 1, 2, 3], 1.0)
        cands = {"tail": np.array([[2, 3]]), "head": np.array([[2, 3]])}
        report = ev.evaluate_split(m, store, "test", protocol="candidate-set",
                                   candidate_sets=cands)
        assert report.count == 2

    def test_candidate_row_count_mismatch(self):
        store = store_from_arrays(
            [(0, 0, 1)], test=[(0, 0, 1), (0, 0, 2)],
            num_entities=4, num_relations=1,
        )
        m = line_model(store, [0, 1, 2, 3], 1.0)
        with pytest.raises(ValueError, match="rows"):
            ev.evaluate_split(m, store, "test", protocol="candidate-set",
                              candidate_sets={"tail": np.array([[2, 3]])})

    def test_candidate_protocol_requires_sets(self):
        store = random_store(10, 2, 40, seed=78, splits=(0.8, 0.0, 0.2))
        m = build_model("transe", 10, 2, 4)
        with pytest.raises(ValueError, match="candidate_sets"):
            ev.evaluate_split(m, store, "test", protocol="candidate-set")

    def test_head_queries_need_head_candidates(self):
        store = store_from_arrays(
            [(0, 0, 1)], test=[(0, 0, 1)], num_entities=4, num_relations=1
        )
        m = line_model(store, [0, 1, 2, 3], 1.0)
        with pytest.raises(ValueError, match="candidate list"):
            ev.evaluate_split(m, store, "test", protocol="candidate-set",
                              candidate_sets={"tail": np.array([[2, 3]])})

    def test_empty_split_rejected(self):
        store = store_from_arrays([(0, 0, 1)], num_entities=2, num_relations=1)
        m = build_model("transe", 2, 1, 4)
        with pytest.raises(ValueError, match="empty"):
            ev.evaluate_split(m, store, "valid")


class TestStoreSize:
    """A model is only ranked against, or trained on, a store with its
    entity and relation counts; the 50-entity, 3-relation store here is
    met by a model with 30 entities too many or one relation too few."""

    SIZES = [
        pytest.param(80, 3, "model has 80 entities, store has 50",
                     id="more-entities"),
        pytest.param(50, 2, "model has 2 relations, store has 3",
                     id="fewer-relations"),
    ]

    @staticmethod
    def store():
        return random_store(50, 3, 300, seed=84, splits=(0.9, 0.0, 0.1))

    @pytest.mark.parametrize("ne, nr, message", SIZES)
    def test_ranking_raises(self, ne, nr, message):
        store = self.store()
        m = build_model("interht", ne, nr, 8, seed=85)
        with pytest.raises(ValueError, match=message):
            ev.rank_split(m, store, "test")
        with pytest.raises(ValueError, match=message):
            ev.evaluate_split(m, store, "test")
        h, r, t = store.splits["test"][0].tolist()
        with pytest.raises(ValueError, match=message):
            ev.rank_query(m, store, Query(h, r, t, "tail"))

    @pytest.mark.parametrize("ne, nr, message", SIZES)
    def test_train_loop_raises(self, ne, nr, message):
        from kgembed.training import TrainConfig, train_loop
        m = build_model("interht", ne, nr, 8, seed=85)
        cfg = TrainConfig(model="interht", dim=8, batch_size=8, neg_size=2,
                          steps_max=1)
        with pytest.raises(ValueError, match=message):
            train_loop(self.store(), cfg, model=m)

    @pytest.mark.parametrize("ne, nr, message", SIZES)
    def test_eval_exits_2(self, tmp_path, capsys, ne, nr, message):
        from kgembed import cli
        from kgembed.training import (TrainConfig, make_checkpoint,
                                      save_checkpoint)
        self.store().save(tmp_path / "store")
        m = build_model("interht", ne, nr, 8, seed=85)
        save_checkpoint(make_checkpoint(m, TrainConfig(model="interht", dim=8),
                                        0, np.random.default_rng(0)),
                        tmp_path / "m.ckpt")
        rc = cli.main(["eval", "--set", f"data={tmp_path / 'store'}",
                       "--set", f"checkpoint={tmp_path / 'm.ckpt'}"])
        assert rc == 2
        assert message in capsys.readouterr().err


class TestCandidateFiles:
    def test_round_trip(self, tmp_path):
        arr = np.array([[5, 2, 9], [1, 0, 3]])
        path = tmp_path / "cands.tsv"
        rank_oracle.save_candidate_sets(arr, path)
        np.testing.assert_array_equal(ev.load_candidate_sets(path), arr)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "cands.tsv"
        path.write_text("1\t2\n\n3\t4\n")
        np.testing.assert_array_equal(ev.load_candidate_sets(path),
                                      [[1, 2], [3, 4]])

    def test_ragged_rows_report_line(self, tmp_path):
        path = tmp_path / "cands.tsv"
        path.write_text("1\t2\n3\t4\t5\n")
        with pytest.raises(ValueError, match=":2"):
            ev.load_candidate_sets(path)

    def test_non_integer_reports_line(self, tmp_path):
        path = tmp_path / "cands.tsv"
        path.write_text("1\t2\nx\t4\n")
        with pytest.raises(ValueError, match=":2"):
            ev.load_candidate_sets(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "cands.tsv"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no candidate"):
            ev.load_candidate_sets(path)
