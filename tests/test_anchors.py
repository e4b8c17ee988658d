import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgembed import anchors as anc

from helpers import random_store, store_from_arrays


def anchor_set(ids, num_entities):
    return anc.AnchorSet.from_ids(np.array(ids), num_entities, "degree")


class TestAnchorSet:
    def test_from_ids_fields(self):
        s = anchor_set([1, 3], 5)
        assert len(s) == 2
        np.testing.assert_array_equal(s.is_anchor, [False, True, False, True, False])
        np.testing.assert_array_equal(s.anchor_index, [-1, 0, -1, 1, -1])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            anchor_set([2, 2], 5)


class TestSelectGlobalAnchors:
    def test_degree_matches_brute_force(self):
        store = random_store(30, 4, 200, seed=21)
        sel = anc.select_global_anchors(store, 7, strategy="degree")
        deg = store.degrees()
        expect = sorted(range(30), key=lambda v: (-deg[v], v))[:7]
        np.testing.assert_array_equal(sel.anchor_ids, expect)

    def test_degree_tie_prefers_lower_id(self):
        # both 1 and 3 have degree 1; 0 has degree 2
        store = store_from_arrays([(0, 0, 1), (0, 0, 3)], num_entities=4,
                                  num_relations=1)
        sel = anc.select_global_anchors(store, 2, strategy="degree")
        np.testing.assert_array_equal(sel.anchor_ids, [0, 1])

    def test_random_is_seed_deterministic(self):
        store = random_store(40, 3, 100, seed=22)
        a = anc.select_global_anchors(store, 10, strategy="random", seed=5)
        b = anc.select_global_anchors(store, 10, strategy="random", seed=5)
        c = anc.select_global_anchors(store, 10, strategy="random", seed=6)
        np.testing.assert_array_equal(a.anchor_ids, b.anchor_ids)
        assert not np.array_equal(a.anchor_ids, c.anchor_ids)
        assert len(np.unique(a.anchor_ids)) == 10
        assert a.strategy == "random"

    @pytest.mark.parametrize("seed", range(5))
    def test_random_ids_distinct_and_sorted(self, seed):
        store = random_store(40, 3, 100, seed=22)
        ids = anc.select_global_anchors(store, 10, strategy="random",
                                        seed=seed).anchor_ids
        assert len(ids) == 10
        assert (np.diff(ids) > 0).all()
        assert 0 <= ids[0] and ids[-1] < 40

    def test_count_clipped_to_entities(self):
        store = store_from_arrays([(0, 0, 1)], num_entities=2, num_relations=1)
        sel = anc.select_global_anchors(store, 99, strategy="degree")
        assert len(sel) == 2

    def test_random_count_clipped_to_entities(self):
        store = store_from_arrays([(0, 0, 1)], num_entities=2, num_relations=1)
        sel = anc.select_global_anchors(store, 99, strategy="random", seed=1)
        np.testing.assert_array_equal(sel.anchor_ids, [0, 1])

    def test_bad_inputs(self):
        store = store_from_arrays([(0, 0, 1)], num_entities=2, num_relations=1)
        with pytest.raises(ValueError):
            anc.select_global_anchors(store, 0)
        with pytest.raises(ValueError, match="strategy"):
            anc.select_global_anchors(store, 1, strategy="pagerank")

    @pytest.mark.parametrize("strategy", ["Random", "", "random "])
    def test_unknown_strategy_rejected(self, strategy):
        store = store_from_arrays([(0, 0, 1)], num_entities=2, num_relations=1)
        with pytest.raises(ValueError, match="unknown anchor strategy"):
            anc.select_global_anchors(store, 1, strategy=strategy, seed=1)


class TestAssignNodeAnchors:
    def test_one_hop_then_two_hop(self, three_edge_store):
        # anchors {1, 3}: node 0 sees anchor 1 directly and reaches anchor 3
        # through its non-anchor neighbor 2
        s = anchor_set([1, 3], 4)
        np.testing.assert_array_equal(
            anc.assign_node_anchors(three_edge_store, s, 0, 2), [1, 3]
        )

    def test_two_hop_ranked_by_witness_count(self, five_node_store):
        # anchor 3 is reachable via both non-anchor neighbors of node 0,
        # anchor 4 only via one, so 3 outranks 4
        s = anchor_set([3, 4], 5)
        np.testing.assert_array_equal(
            anc.assign_node_anchors(five_node_store, s, 0, 2), [3, 4]
        )
        np.testing.assert_array_equal(
            anc.assign_node_anchors(five_node_store, s, 0, 1), [3]
        )

    def test_two_hop_count_tie_prefers_lower_id(self):
        # anchors 3 and 4 each reachable through exactly one neighbor
        store = store_from_arrays(
            [(0, 0, 1), (0, 0, 2), (1, 0, 4), (2, 0, 3)],
            num_entities=5, num_relations=1,
        )
        s = anchor_set([3, 4], 5)
        np.testing.assert_array_equal(
            anc.assign_node_anchors(store, s, 0, 2), [3, 4]
        )

    def test_pads_when_no_anchor_within_two_hops(self):
        store = store_from_arrays(
            [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 4)],
            num_entities=5, num_relations=1,
        )
        s = anchor_set([4], 5)
        np.testing.assert_array_equal(
            anc.assign_node_anchors(store, s, 0, 3), [anc.PAD] * 3
        )

    def test_node_never_counts_itself_as_two_hop_anchor(self):
        # node 0 is itself an anchor and adjacent to 1, which sees 0 and 2
        store = store_from_arrays([(0, 0, 1), (1, 0, 2)], num_entities=3,
                                  num_relations=1)
        s = anchor_set([0, 2], 3)
        np.testing.assert_array_equal(
            anc.assign_node_anchors(store, s, 0, 2), [2, anc.PAD]
        )

    def test_one_hop_anchors_come_sorted(self):
        store = store_from_arrays(
            [(0, 0, 5), (0, 0, 1), (0, 0, 3)], num_entities=6, num_relations=1
        )
        s = anchor_set([1, 3, 5], 6)
        np.testing.assert_array_equal(
            anc.assign_node_anchors(store, s, 0, 3), [1, 3, 5]
        )

    def test_isolated_node_all_pad(self):
        store = store_from_arrays([(0, 0, 1)], num_entities=3, num_relations=1)
        s = anchor_set([0], 3)
        np.testing.assert_array_equal(
            anc.assign_node_anchors(store, s, 2, 2), [anc.PAD, anc.PAD]
        )


class TestSampleDirectionNeighbors:
    def test_small_pool_taken_whole(self, three_edge_store):
        rng = np.random.default_rng(0)
        in_ids, out_ids = anc.sample_direction_neighbors(
            three_edge_store, 0, 1, 2, rng
        )
        np.testing.assert_array_equal(in_ids, [anc.PAD])
        np.testing.assert_array_equal(out_ids, [1, 2])

    def test_oversized_pool_sampled_without_replacement(self):
        rows = [(i, 0, 0) for i in range(1, 12)]
        store = store_from_arrays(rows, num_entities=12, num_relations=1)
        seen = set()
        for trial in range(20):
            rng = np.random.default_rng(trial)
            in_ids, out_ids = anc.sample_direction_neighbors(store, 0, 4, 1, rng)
            assert len(np.unique(in_ids)) == 4
            assert np.array_equal(in_ids, np.sort(in_ids))
            assert set(in_ids.tolist()) <= set(range(1, 12))
            np.testing.assert_array_equal(out_ids, [anc.PAD])
            seen.update(in_ids.tolist())
        assert len(seen) > 4  # different seeds draw different subsets

    def test_duplicate_edges_collapse_in_pool(self):
        store = store_from_arrays([(0, 0, 1), (0, 1, 1)], num_entities=2,
                                  num_relations=2)
        rng = np.random.default_rng(0)
        _, out_ids = anc.sample_direction_neighbors(store, 0, 1, 2, rng)
        np.testing.assert_array_equal(out_ids, [1, anc.PAD])


class TestBuildSubgraphTokens:
    def test_worked_example(self, three_edge_store):
        s = anchor_set([1, 3], 4)
        tok = anc.build_subgraph_tokens(three_edge_store, s, 0, 2, 1, 2, seed=0)
        assert tok.center == 0
        np.testing.assert_array_equal(tok.anchors, [0, 1])  # vocab indices
        np.testing.assert_array_equal(tok.in_neighbors, [0])  # padded slot
        np.testing.assert_array_equal(tok.out_neighbors, [1, 2])
        np.testing.assert_array_equal(
            tok.mask, [True, True, False, True, True, True]
        )
        assert tok.num_slots == 6

    def test_deterministic_per_seed_and_node(self):
        store = random_store(25, 3, 120, seed=23)
        s = anc.select_global_anchors(store, 5)
        a = anc.build_subgraph_tokens(store, s, 7, 3, 2, 2, seed=11)
        b = anc.build_subgraph_tokens(store, s, 7, 3, 2, 2, seed=11)
        np.testing.assert_array_equal(a.anchors, b.anchors)
        np.testing.assert_array_equal(a.in_neighbors, b.in_neighbors)
        np.testing.assert_array_equal(a.out_neighbors, b.out_neighbors)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_anchor_slots_hold_valid_vocab_indices(self):
        store = random_store(25, 3, 120, seed=24)
        s = anc.select_global_anchors(store, 6)
        for node in range(25):
            tok = anc.build_subgraph_tokens(store, s, node, 4, 2, 2, seed=1)
            real = tok.anchors[tok.mask[:4]]
            assert ((real >= 0) & (real < 6)).all()
            # every real anchor token maps back to a one- or two-hop anchor
            pad_slots = tok.anchors[~tok.mask[:4]]
            assert (pad_slots == 0).all()


@st.composite
def token_graphs(draw):
    """A small graph with isolated nodes, self-loops and repeated edges, an
    anchor set, the three slot counts and a seed."""
    linked = draw(st.integers(1, 10))
    e = linked + draw(st.integers(0, 3))       # ids >= linked stay isolated
    nr = draw(st.integers(1, 3))
    edge = st.tuples(st.integers(0, linked - 1), st.integers(0, nr - 1),
                     st.integers(0, linked - 1))
    edges = draw(st.lists(edge, min_size=1, max_size=40))
    h, r, _ = edges[0]
    edges += [(h, r, h)] * draw(st.integers(0, 2))    # self-loop, repeated
    edges += edges[: draw(st.integers(0, len(edges)))]
    store = store_from_arrays(edges, num_entities=e, num_relations=nr)
    ids = draw(st.lists(st.integers(0, e - 1), min_size=1, max_size=e,
                        unique=True))
    k = draw(st.tuples(*[st.integers(1, 4)] * 3))
    return store, anchor_set(ids, e), k, draw(st.integers(0, 2**32 - 1))


class TestTokenizeAll:
    @settings(max_examples=150, deadline=None)
    @given(case=token_graphs())
    def test_matches_per_node_builds(self, case):
        store, s, (k_anc, k_in, k_out), seed = case
        tg, stats = anc.tokenize_all(store, s, k_anc, k_in, k_out, seed)
        e = store.num_entities
        hist = np.zeros(k_anc + 1, dtype=int)
        covered = center_only = 0
        for node in range(e):
            direct = anc.build_subgraph_tokens(store, s, node, k_anc, k_in,
                                               k_out, seed)
            np.testing.assert_array_equal(tg.anchor_tok[node], direct.anchors)
            np.testing.assert_array_equal(tg.in_tok[node], direct.in_neighbors)
            np.testing.assert_array_equal(tg.out_tok[node],
                                          direct.out_neighbors)
            np.testing.assert_array_equal(tg.mask[node], direct.mask)
            hist[direct.mask[:k_anc].sum()] += 1
            one = np.concatenate([store.in_neighbors(node)[0],
                                  store.out_neighbors(node)[0]])
            covered += s.is_anchor[one].any()
            center_only += not direct.mask[:-1].any()
        assert stats == {
            "nodes": e,
            "one_hop_anchor_fraction": covered / e,
            "center_only": center_only,
            "anchor_slot_hist": {str(i): int(n) for i, n in enumerate(hist)
                                 if n},
        }
        assert type(stats["center_only"]) is int

    def test_stats(self):
        store = store_from_arrays([(0, 0, 1)], num_entities=3, num_relations=1)
        s = anchor_set([1], 3)
        tg, stats = anc.tokenize_all(store, s, 2, 1, 1, seed=0)
        assert stats["nodes"] == 3
        # node 0 sees anchor 1 one hop away; nodes 1 and 2 do not
        assert stats["one_hop_anchor_fraction"] == pytest.approx(1 / 3)
        assert stats["center_only"] == 1  # entity 2 has no edges
        assert sum(stats["anchor_slot_hist"].values()) == 3
        assert tg.num_slots == 5

    def test_center_slot_always_real(self):
        store = random_store(15, 2, 40, seed=26)
        s = anc.select_global_anchors(store, 3)
        tg, _ = anc.tokenize_all(store, s, 2, 1, 1)
        assert tg.mask[:, -1].all()


class TestTokenCache:
    def test_round_trip(self, tmp_path):
        store = random_store(18, 3, 70, seed=27)
        s = anc.select_global_anchors(store, 5)
        tg, _ = anc.tokenize_all(store, s, 3, 2, 2, seed=4)
        path = tmp_path / "tokens.bin"
        anc.save_token_cache(tg, path)
        back = anc.load_token_cache(path)
        assert (back.k_anc, back.k_in, back.k_out, back.seed) == (3, 2, 2, 4)
        np.testing.assert_array_equal(back.anchor_ids, tg.anchor_ids)
        np.testing.assert_array_equal(back.anchor_tok, tg.anchor_tok)
        np.testing.assert_array_equal(back.in_tok, tg.in_tok)
        np.testing.assert_array_equal(back.out_tok, tg.out_tok)
        np.testing.assert_array_equal(back.mask, tg.mask)

    def test_save_is_deterministic(self, tmp_path):
        store = random_store(10, 2, 30, seed=28)
        s = anc.select_global_anchors(store, 3)
        tg, _ = anc.tokenize_all(store, s, 2, 1, 1)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        anc.save_token_cache(tg, a)
        anc.save_token_cache(tg, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(anc.TokenCacheError, match="magic"):
            anc.load_token_cache(path)

    def test_bad_version(self, tmp_path):
        import struct

        path = tmp_path / "v99.bin"
        path.write_bytes(
            anc.CACHE_MAGIC + struct.pack("<IIIIqQQ", 99, 1, 1, 1, 0, 1, 1)
        )
        with pytest.raises(anc.TokenCacheError, match="version"):
            anc.load_token_cache(path)
