import io
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgembed.data import (Query, TripleFormatError, TripleStore,
                          _stable_order, build_adjacency, filtered_candidates,
                          load_triples)

from conftest import random_store, store_from_arrays, triples_text


def labels(text: str) -> io.StringIO:
    return io.StringIO(text)


class TestLoadLabels:
    def test_first_seen_ids(self):
        store = load_triples({"train": labels("a\tr\tb\nb\ts\tc\n")})
        assert store.entities.labels == ["a", "b", "c"]
        assert store.relations.labels == ["r", "s"]
        np.testing.assert_array_equal(
            store.splits["train"], [[0, 0, 1], [1, 1, 2]]
        )

    def test_vocab_shared_across_splits(self):
        store = load_triples({
            "train": labels("a\tr\tb\n"),
            "valid": labels("b\tr\ta\n"),
            "test": labels("c\tr\ta\n"),
        })
        assert store.num_entities == 3
        assert store.num_triples("valid") == 1
        assert store.num_triples("test") == 1

    def test_blank_line_rejected_with_position(self):
        with pytest.raises(TripleFormatError, match="line 2"):
            load_triples({"train": labels("a\tr\tb\n\nc\tr\td\n")})

    def test_wrong_field_count(self):
        with pytest.raises(TripleFormatError, match="3 tab-separated"):
            load_triples({"train": labels("a\tr\n")})

    def test_empty_field(self):
        with pytest.raises(TripleFormatError):
            load_triples({"train": labels("a\t\tb\n")})

    def test_empty_train_rejected(self):
        with pytest.raises(TripleFormatError, match="train split is empty"):
            load_triples({"train": labels("")})

    def test_unknown_split_name(self):
        with pytest.raises(ValueError, match="unknown split"):
            load_triples({"train": labels("a\tr\tb\n"), "dev": labels("")})


class TestLoadNumeric:
    def test_counts_inferred(self):
        store = load_triples({"train": triples_text([(0, 0, 5)])}, fmt="numeric")
        assert store.num_entities == 6
        assert store.num_relations == 1

    def test_declared_counts_validated(self):
        with pytest.raises(TripleFormatError, match="out of range"):
            load_triples({"train": triples_text([(0, 0, 5)])}, fmt="numeric",
                         num_entities=3)

    def test_declared_counts_extend(self):
        store = load_triples({"train": triples_text([(0, 0, 1)])},
                             fmt="numeric", num_entities=10, num_relations=4)
        assert store.num_entities == 10
        assert store.num_relations == 4

    def test_non_integer_id(self):
        with pytest.raises(TripleFormatError, match="non-integer"):
            load_triples({"train": labels("0\tx\t1\n")}, fmt="numeric")

    def test_negative_id(self):
        with pytest.raises(TripleFormatError, match="negative"):
            load_triples({"train": labels("0\t-1\t1\n")}, fmt="numeric")


def test_duplicates_kept_and_counted(caplog):
    with caplog.at_level(logging.WARNING):
        store = store_from_arrays([(0, 0, 1), (0, 0, 1), (1, 0, 0)])
    assert store.duplicates["train"] == 1
    assert store.num_triples("train") == 3
    assert any("duplicate" in r.message for r in caplog.records)


def test_duplicates_counted_per_split_not_across():
    train = [(0, 0, 1), (0, 0, 1), (0, 0, 1), (1, 0, 0), (1, 1, 0)]
    valid = [(0, 0, 1), (2, 1, 1), (2, 1, 1)]
    test = [(1, 0, 0), (1, 1, 0), (0, 1, 1)]
    store = store_from_arrays(train, valid=valid, test=test,
                              num_entities=3, num_relations=2)
    assert store.duplicates == {"train": 2, "valid": 1, "test": 0}
    for s in ("train", "valid", "test"):
        arr = store.splits[s]
        assert store.duplicates[s] == len(arr) - len(np.unique(arr, axis=0))


class TestAdjacency:
    def test_neighbors_sorted_by_neighbor_then_relation(self):
        store = store_from_arrays(
            [(2, 1, 0), (1, 0, 0), (1, 1, 0), (0, 0, 2)],
            num_entities=3, num_relations=2,
        )
        nbr, rel = store.in_neighbors(0)
        np.testing.assert_array_equal(nbr, [1, 1, 2])
        np.testing.assert_array_equal(rel, [0, 1, 1])
        nbr, rel = store.out_neighbors(0)
        np.testing.assert_array_equal(nbr, [2])
        np.testing.assert_array_equal(rel, [0])

    def test_matches_brute_force(self):
        store = random_store(30, 4, 200, seed=11)
        train = store.splits["train"]
        for v in range(30):
            expect_in = sorted(
                (h, r) for h, r, t in train.tolist() if t == v
            )
            got = list(zip(*map(list, store.in_neighbors(v)))) if len(
                store.in_neighbors(v)[0]) else []
            assert got == expect_in
            expect_out = sorted(
                (t, r) for h, r, t in train.tolist() if h == v
            )
            got = list(zip(*map(list, store.out_neighbors(v)))) if len(
                store.out_neighbors(v)[0]) else []
            assert got == expect_out

    @settings(max_examples=60, deadline=None)
    @given(ne=st.integers(1, 9), nr=st.integers(1, 4),
           n=st.integers(1, 40), dups=st.integers(0, 15),
           seed=st.integers(0, 2**16))
    def test_csr_matches_lexsort_with_duplicates(self, ne, nr, n, dups, seed):
        rng = np.random.default_rng(seed)
        rows = np.column_stack([rng.integers(0, ne, n), rng.integers(0, nr, n),
                                rng.integers(0, ne, n)])
        rows = np.concatenate([rows, rows[rng.integers(0, n, dups)]])
        store = store_from_arrays(rows, num_entities=ne, num_relations=nr)
        h, r, t = (store.splits["train"][:, i] for i in range(3))
        order = np.lexsort((r, h, t))
        np.testing.assert_array_equal(store.in_nbr, h[order])
        np.testing.assert_array_equal(store.in_rel, r[order])
        order = np.lexsort((r, t, h))
        np.testing.assert_array_equal(store.out_nbr, t[order])
        np.testing.assert_array_equal(store.out_rel, r[order])
        np.testing.assert_array_equal(
            np.diff(store.in_ptr), np.bincount(t, minlength=ne))
        np.testing.assert_array_equal(
            np.diff(store.out_ptr), np.bincount(h, minlength=ne))

    @pytest.mark.parametrize("ne, nr", [(5, 3), (2**20, 1000), (2**31, 8)])
    def test_packed_order_is_lexsort_order(self, ne, nr):
        # the last case does not fit a packed int64 key and takes lexsort
        rng = np.random.default_rng(12)
        node, nbr = (ne - 1 - rng.integers(0, 4, 300) for _ in range(2))
        r = nr - 1 - rng.integers(0, min(nr, 3), 300)
        np.testing.assert_array_equal(_stable_order(node, nbr, r, ne, nr),
                                      np.lexsort((r, nbr, node)))

    def test_degrees(self):
        store = store_from_arrays([(0, 0, 1), (0, 0, 2), (2, 0, 0)])
        np.testing.assert_array_equal(store.degrees(), [3, 1, 2])


class TestMembership:
    def test_train_mask_matches_python_sets(self):
        store = random_store(20, 3, 150, seed=3)
        train_set = {tuple(row) for row in store.splits["train"].tolist()}
        rng = np.random.default_rng(5)
        h = rng.integers(0, 20, 500)
        r = rng.integers(0, 3, 500)
        t = rng.integers(0, 20, 500)
        mask = store.train_triple_mask(h, r, t)
        for i in range(500):
            assert mask[i] == ((h[i], r[i], t[i]) in train_set)
        # training builds only the train index, not the all-split ones
        assert set(store._keys) == {"train"}

    def test_completions_dedupe_across_splits(self):
        store = store_from_arrays([(0, 0, 1), (0, 0, 1)], valid=[(0, 0, 1)])
        for fixed, target in ((0, "tail"), (1, "head")):
            query, ent = store.completions([fixed], [0], target)
            assert query.tolist() == [0]
            assert ent.tolist() == [1 - fixed]


@settings(max_examples=60, deadline=None)
@given(ne=st.integers(1, 9), nr=st.integers(1, 3),
       sizes=st.tuples(st.integers(1, 40), st.integers(0, 10),
                       st.integers(0, 10)),
       seed=st.integers(0, 2**32 - 1))
def test_completions_match_set_recomputation(ne, nr, sizes, seed):
    rng = np.random.default_rng(seed)
    rows = [np.stack([rng.integers(0, ne, n), rng.integers(0, nr, n),
                      rng.integers(0, ne, n)], axis=1) for n in sizes]
    rows[1][:1] = rows[0][:1]       # a train triple repeated in valid
    store = store_from_arrays(rows[0], valid=rows[1], test=rows[2],
                              num_entities=ne, num_relations=nr)
    known = {tuple(t) for split in rows for t in split.tolist()}
    ents = range(ne)
    pairs = [(e, r) for e in ents for r in range(nr)]
    fixed, rel = np.array(pairs).T
    for target in ("tail", "head"):
        query, ent = store.completions(fixed, rel, target)
        want = [(i, x) for i, (e, r) in enumerate(pairs) for x in ents
                if ((e, r, x) if target == "tail" else (x, r, e)) in known]
        assert list(zip(query.tolist(), ent.tolist())) == want
        # every distinct triple completes exactly one (fixed, r) query
        assert len(query) == len(known)


class TestFilteredCandidates:
    def test_excludes_other_true_tails_not_gold(self):
        store = store_from_arrays([(0, 0, 1), (0, 0, 2), (0, 0, 3)])
        excl = filtered_candidates(store, Query(0, 0, 1, "tail"))
        assert sorted(excl.tolist()) == [2, 3]

    def test_head_direction(self):
        store = store_from_arrays([(1, 0, 0), (2, 0, 0)], test=[(3, 1, 0)])
        excl = filtered_candidates(store, Query(1, 0, 0, "head"))
        assert sorted(excl.tolist()) == [2]

    def test_matches_brute_force_over_all_splits(self):
        store = random_store(15, 3, 120, seed=9, splits=(0.6, 0.2, 0.2))
        allt = np.concatenate([store.splits[s] for s in ("train", "valid", "test")])
        known = {tuple(row) for row in allt.tolist()}
        rng = np.random.default_rng(1)
        for _ in range(50):
            h, r, t = (int(rng.integers(0, 15)), int(rng.integers(0, 3)),
                       int(rng.integers(0, 15)))
            expect = sorted(set(
                tt for hh, rr, tt in known if hh == h and rr == r and tt != t
            ))
            got = sorted(filtered_candidates(store, Query(h, r, t, "tail")).tolist())
            assert got == expect


class TestPersistence:
    def test_round_trip(self, tmp_path):
        store = store_from_arrays([(0, 0, 1), (1, 1, 2)], valid=[(2, 0, 0)],
                                  num_entities=3, num_relations=2)
        store.save(tmp_path / "kg")
        loaded = TripleStore.load(tmp_path / "kg")
        assert loaded.num_entities == 3
        assert loaded.num_relations == 2
        for s in ("train", "valid", "test"):
            np.testing.assert_array_equal(loaded.splits[s], store.splits[s])
        assert loaded.has_adjacency

    def test_label_vocab_round_trip(self, tmp_path):
        store = load_triples({"train": labels("alpha\tr\tbeta\n")})
        build_adjacency(store)
        store.save(tmp_path / "kg")
        loaded = TripleStore.load(tmp_path / "kg")
        assert loaded.entities.labels == ["alpha", "beta"]
        assert loaded.relations.labels == ["r"]

    def test_bad_magic(self, tmp_path):
        store = store_from_arrays([(0, 0, 1)])
        store.save(tmp_path / "kg")
        binpath = tmp_path / "kg" / "triples.bin"
        binpath.write_bytes(b"XXXX" + binpath.read_bytes()[4:])
        with pytest.raises(TripleFormatError, match="magic"):
            TripleStore.load(tmp_path / "kg")

    def test_save_is_deterministic(self, tmp_path):
        store = store_from_arrays([(0, 0, 1), (1, 0, 2)])
        store.save(tmp_path / "a")
        store.save(tmp_path / "b")
        assert (tmp_path / "a" / "triples.bin").read_bytes() == \
               (tmp_path / "b" / "triples.bin").read_bytes()
