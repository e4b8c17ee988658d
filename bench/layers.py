"""What the traced run wraps, and the per-layer metrics it derives.

Each metric is a count, a busy time or a self time (span minus child
spans), normalised per training step, per query or per call so that runs of
different length compare.  A metric whose callable did not run in this
workload reads 0.
"""
from __future__ import annotations

import statistics

import numpy as np


def _nbytes(vecs: dict, result) -> int:
    d, grads = result
    return (sum(v.nbytes for v in vecs.values()) + d.nbytes
            + sum(g.nbytes for g in grads.values()))


def _anchor_stats(stats: dict):
    hist = stats["anchor_slot_hist"]
    filled = sum(int(k) * n for k, n in hist.items()) / stats["nodes"]
    yield "anchors.one_hop_anchor_fraction", stats["one_hop_anchor_fraction"]
    yield "anchors.filled_anchor_slots_mean", filled


# (module, attribute path, span name, on_return(args, kwargs, result))
TARGETS = [
    ("kgembed.data", "load_triples", "data.load_triples", None),
    ("kgembed.data", "build_adjacency", "data.build_adjacency", None),
    ("kgembed.data", "TripleStore.load", "data.TripleStore.load", None),
    ("kgembed.data", "TripleStore.tails_of", "data.TripleStore.tails_of", None),
    ("kgembed.data", "TripleStore.heads_of", "data.TripleStore.heads_of", None),
    ("kgembed.data", "TripleStore.train_triple_mask", "data.train_triple_mask",
     lambda a, kw, r: [("data.train_triple_mask.keys", np.size(r))]),
    ("kgembed.data", "filtered_candidates", "data.filtered_candidates",
     lambda a, kw, r: [("data.filtered_candidates.excluded", len(r))]),
    ("kgembed.anchors", "select_global_anchors", "anchors.select_global_anchors",
     None),
    ("kgembed.anchors", "tokenize_all", "anchors.tokenize_all",
     lambda a, kw, r: _anchor_stats(r[1])),
    ("kgembed.anchors", "build_subgraph_tokens", "anchors.build_subgraph_tokens",
     None),
    ("kgembed.anchors", "sample_direction_neighbors",
     "anchors.sample_direction_neighbors", None),
    ("kgembed.anchors", "save_token_cache", "anchors.save_token_cache", None),
    ("kgembed.anchors", "load_token_cache", "anchors.load_token_cache", None),
    ("kgembed.model", "KgeModel.score", "scoring.score",
     lambda a, kw, r: [("scoring.elements", r[0].size * a[0].dim),
                       ("scoring.bytes", _nbytes(a[1], r))]),
    ("kgembed.model", "KgeModel.encode_entities", "model.encode_entities",
     lambda a, kw, r: [("model.encode_entities.ids", len(a[1]))]),
    ("kgembed.model", "KgeModel.entity_backward", "model.entity_backward", None),
    ("kgembed.model", "KgeModel.encode_all", "model.encode_all", None),
    ("kgembed.encoder", "transformer_block", "encoder.transformer_block",
     lambda a, kw, r: [("encoder.tokens", a[2].shape[0] * a[2].shape[1])]),
    ("kgembed.encoder", "transformer_block_backward",
     "encoder.transformer_block_backward", None),
    ("kgembed.encoder", "encode_entity_backward", "encoder.encode_entity_backward",
     None),
    ("kgembed.training", "loss_and_grads", "training.loss_and_grads", None),
    ("kgembed.training", "GradBuffer.finalize", "training.GradBuffer.finalize",
     lambda a, kw, r: [("training.GradBuffer.finalize.rows",
                        sum(len(v[1]) for v in r.values() if v[0] == "rows"))]),
    ("kgembed.training", "adam_step", "training.adam_step", None),
    ("kgembed.training", "sample_negatives", "training.sample_negatives",
     lambda a, kw, r: [("training.sample_negatives.pairs", r[0].size)]),
    ("kgembed.training", "train_loop", "training.train_loop", None),
    ("kgembed.training", "save_checkpoint", "training.save_checkpoint", None),
    ("kgembed.evaluation", "rank_query", "evaluation.rank_query",
     lambda a, kw, r: [("evaluation.candidates", r.num_candidates - 1)]),
    ("kgembed.evaluation", "score_against_all", "evaluation.score_against_all",
     lambda a, kw, r: [("evaluation.entities_scored", len(r))]),
]

# name, unit, better: the per_layer list of BENCHMARK.json, in this order
PER_LAYER = [
    ("data.load_triples.s", "s", "lower"),
    ("data.build_adjacency.s", "s", "lower"),
    ("data.TripleStore.load.s", "s", "lower"),
    ("data.filter_index.first_call_s", "s", "lower"),
    ("data.filtered_candidates.s_per_query", "s", "lower"),
    ("data.filtered_candidates.mean_excluded", "count", "lower"),
    ("data.train_triple_mask.calls", "count", "lower"),
    ("data.train_triple_mask.s", "s", "lower"),
    ("data.train_triple_mask.keys", "count", "lower"),
    ("anchors.select_global_anchors.s", "s", "lower"),
    ("anchors.tokenize_all.s", "s", "lower"),
    ("anchors.build_subgraph_tokens.calls", "count", "lower"),
    ("anchors.build_subgraph_tokens.s", "s", "lower"),
    ("anchors.sample_direction_neighbors.s", "s", "lower"),
    ("anchors.save_token_cache.s", "s", "lower"),
    ("anchors.load_token_cache.s", "s", "lower"),
    ("anchors.one_hop_anchor_fraction", "ratio", "higher"),
    ("anchors.filled_anchor_slots_mean", "count", "higher"),
    ("scoring.train_s_per_step", "s", "lower"),
    ("scoring.elements_per_s", "1/s", "higher"),
    ("scoring.bytes_moved_per_step", "B", "lower"),
    ("scoring.eval_s_per_query", "s", "lower"),
    ("model.encode_entities.s_per_step", "s", "lower"),
    ("model.encode_entities.unique_ratio", "ratio", "lower"),
    ("model.entity_backward.s_per_step", "s", "lower"),
    ("model.encode_all.s", "s", "lower"),
    ("encoder.transformer_block.s_per_step", "s", "lower"),
    ("encoder.transformer_block_backward.s_per_step", "s", "lower"),
    ("encoder.encode_entity_backward.self_s_per_step", "s", "lower"),
    ("encoder.tokens_per_s", "1/s", "higher"),
    ("training.loss_and_grads.self_s_per_step", "s", "lower"),
    ("training.GradBuffer.finalize.s_per_step", "s", "lower"),
    ("training.GradBuffer.finalize.rows_per_step", "count", "lower"),
    ("training.adam_step.s_per_step", "s", "lower"),
    ("training.sample_negatives.s_per_step", "s", "lower"),
    ("training.sample_negatives.redraw_ratio", "ratio", "lower"),
    ("training.train_loop.self_s_per_step", "s", "lower"),
    ("training.save_checkpoint.s", "s", "lower"),
    ("evaluation.rank_query.self_s_per_query", "s", "lower"),
    ("evaluation.score_against_all.s_per_query", "s", "lower"),
    ("evaluation.entities_scored_per_candidate", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


class SpanIndex:
    """Durations and self times of a tracer's spans, by (name, stage)."""

    def __init__(self, tracer):
        self.tracer = tracer
        selfs = tracer.self_times()
        self.by: dict[tuple[str, str], list[tuple[float, float]]] = {}
        for (name, start, end, _, stage), own in zip(tracer.spans, selfs):
            self.by.setdefault((name, stage), []).append((end - start, own))

    def _get(self, name, stages):
        return [x for s in stages for x in self.by.get((name, s), [])]

    def calls(self, name, *stages) -> int:
        return len(self._get(name, stages))

    def total(self, name, *stages) -> float:
        return sum(d for d, _ in self._get(name, stages))

    def self_total(self, name, *stages) -> float:
        return sum(s for _, s in self._get(name, stages))

    def median(self, name, *stages) -> float:
        durs = [d for d, _ in self._get(name, stages)]
        return statistics.median(durs) if durs else 0.0

    def count(self, counter, *stages) -> float:
        return sum(self.tracer.counts.get((s, counter), 0.0) for s in stages)

    def first_calls(self, names, stage) -> list[float]:
        """Per stage span, the duration of its first call to any of names."""
        out, seen = [], True
        for name, start, end, parent, st in self.tracer.spans:
            if parent < 0:
                seen = name != stage
            elif not seen and name in names:
                out.append(end - start)
                seen = True
        return out


def layer_metrics(tracer, *, batch: int, neg: int, steps_per_call: int,
                  overhead_ratio: float) -> dict[str, float]:
    ix = SpanIndex(tracer)
    steps = ix.calls("training.train_loop", "train") * steps_per_call
    q_f = ix.calls("evaluation.rank_query", "eval_filtered")
    q_c = ix.calls("evaluation.rank_query", "eval_candidate")
    n_tok = ix.calls("anchors.tokenize_all", "tokenize")
    first = ix.first_calls({"data.TripleStore.tails_of",
                            "data.TripleStore.heads_of"}, "eval_filtered")
    tr = "train"
    m = {
        "data.load_triples.s": ix.median("data.load_triples", "ingest"),
        "data.build_adjacency.s": ix.median("data.build_adjacency", "ingest"),
        "data.TripleStore.load.s": ix.median("data.TripleStore.load", "setup"),
        "data.filter_index.first_call_s":
            statistics.median(first) if first else 0.0,
        "data.filtered_candidates.s_per_query": _div(
            ix.total("data.filtered_candidates", "eval_filtered") - sum(first),
            q_f),
        "data.filtered_candidates.mean_excluded": _div(
            ix.count("data.filtered_candidates.excluded", "eval_filtered"),
            ix.calls("data.filtered_candidates", "eval_filtered")),
        "data.train_triple_mask.calls": _div(
            ix.calls("data.train_triple_mask", tr), steps),
        "data.train_triple_mask.s": _div(
            ix.total("data.train_triple_mask", tr), steps),
        "data.train_triple_mask.keys": _div(
            ix.count("data.train_triple_mask.keys", tr), steps),
        "anchors.select_global_anchors.s":
            ix.median("anchors.select_global_anchors", "tokenize"),
        "anchors.tokenize_all.s": ix.median("anchors.tokenize_all", "tokenize"),
        "anchors.build_subgraph_tokens.calls": _div(
            ix.calls("anchors.build_subgraph_tokens", "tokenize"), n_tok),
        "anchors.build_subgraph_tokens.s": _div(
            ix.total("anchors.build_subgraph_tokens", "tokenize"), n_tok),
        "anchors.sample_direction_neighbors.s": _div(
            ix.total("anchors.sample_direction_neighbors", "tokenize"), n_tok),
        "anchors.save_token_cache.s":
            ix.median("anchors.save_token_cache", "tokenize"),
        "anchors.load_token_cache.s":
            ix.median("anchors.load_token_cache", "setup"),
        "anchors.one_hop_anchor_fraction": _div(
            ix.count("anchors.one_hop_anchor_fraction", "tokenize"), n_tok),
        "anchors.filled_anchor_slots_mean": _div(
            ix.count("anchors.filled_anchor_slots_mean", "tokenize"), n_tok),
        "scoring.train_s_per_step": _div(ix.total("scoring.score", tr), steps),
        "scoring.elements_per_s": _div(ix.count("scoring.elements", tr),
                                       ix.total("scoring.score", tr)),
        "scoring.bytes_moved_per_step": _div(ix.count("scoring.bytes", tr),
                                             steps),
        "scoring.eval_s_per_query": _div(
            ix.total("scoring.score", "eval_filtered"), q_f),
        "model.encode_entities.s_per_step": _div(
            ix.total("model.encode_entities", tr), steps),
        "model.encode_entities.unique_ratio": _div(
            ix.count("model.encode_entities.ids", tr),
            steps * batch * (neg + 2)),
        "model.entity_backward.s_per_step": _div(
            ix.total("model.entity_backward", tr), steps),
        "model.encode_all.s": ix.median("model.encode_all", "eval_filtered",
                                        "eval_candidate"),
        "encoder.transformer_block.s_per_step": _div(
            ix.total("encoder.transformer_block", tr), steps),
        "encoder.transformer_block_backward.s_per_step": _div(
            ix.total("encoder.transformer_block_backward", tr), steps),
        "encoder.encode_entity_backward.self_s_per_step": _div(
            ix.self_total("encoder.encode_entity_backward", tr), steps),
        "encoder.tokens_per_s": _div(
            ix.count("encoder.tokens", tr),
            ix.total("encoder.transformer_block", tr)),
        "training.loss_and_grads.self_s_per_step": _div(
            ix.self_total("training.loss_and_grads", tr), steps),
        "training.GradBuffer.finalize.s_per_step": _div(
            ix.total("training.GradBuffer.finalize", tr), steps),
        "training.GradBuffer.finalize.rows_per_step": _div(
            ix.count("training.GradBuffer.finalize.rows", tr), steps),
        "training.adam_step.s_per_step": _div(
            ix.total("training.adam_step", tr), steps),
        "training.sample_negatives.s_per_step": _div(
            ix.total("training.sample_negatives", tr), steps),
        "training.sample_negatives.redraw_ratio": _div(
            ix.count("data.train_triple_mask.keys", tr),
            ix.count("training.sample_negatives.pairs", tr)),
        "training.train_loop.self_s_per_step": _div(
            ix.self_total("training.train_loop", tr), steps),
        "training.save_checkpoint.s": ix.median("training.save_checkpoint", tr),
        "evaluation.rank_query.self_s_per_query": _div(
            ix.self_total("evaluation.rank_query", "eval_filtered",
                          "eval_candidate"), q_f + q_c),
        "evaluation.score_against_all.s_per_query": _div(
            ix.total("evaluation.score_against_all", "eval_candidate"), q_c),
        "evaluation.entities_scored_per_candidate": _div(
            ix.count("evaluation.entities_scored", "eval_candidate"),
            ix.count("evaluation.candidates", "eval_candidate")),
        "trace.overhead_ratio": overhead_ratio,
    }
    return m
