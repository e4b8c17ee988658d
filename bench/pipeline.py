"""One benchmark run: a seeded graph driven through kgembed's public API.

Stages, in the order of the ``kgembed`` commands they stand for:

- ingest: ``load_triples`` + ``build_adjacency`` + ``TripleStore.save``;
- tokenize: ``select_global_anchors`` + ``tokenize_all`` + ``save_token_cache``
  on a freshly loaded store;
- train: ``train_loop`` with a checkpoint directory and no validation;
- setup: ``TripleStore.load`` (+ ``load_token_cache``) + ``load_checkpoint``
  + ``model_from_checkpoint``, what every train/eval command pays first;
- eval_filtered / eval_candidate: ``evaluate_split`` under both protocols,
  each on a freshly loaded store so the lazy filter index is paid every
  time, as in every ``kgembed eval``.

A round runs every stage cold, and a short stage again until it has had
``STAGE_SECONDS`` of the round; a run repeats whole rounds until
``--seconds`` is spent, and reports each metric's median over all its
samples.  Interleaving the stages makes every metric sample the machine
across the whole run rather than during one burst.  After the last round the outputs
are checked against the float64 oracles; a failed check counts as a
failed operation.
"""
from __future__ import annotations

import contextlib
import dataclasses
import gc
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import kgembed as kg
from kgembed import training

import oracles
from graphs import candidate_sets, generate, write_tsv
from layers import PER_LAYER, TARGETS, layer_metrics
from tracer import Tracer

MIN_ROUNDS = 3
STAGE_SECONDS = 0.75

END_TO_END_UNITS = {
    "setup_s": "s", "ingest_triples_per_s": "triples/s",
    "tokenize_nodes_per_s": "nodes/s", "train_triples_per_s": "triples/s",
    "eval_filtered_qps": "queries/s", "eval_candidate_qps": "queries/s",
    "peak_rss_mb": "MB",
}

TOKEN_CHECK_NODES = 48
RANK_CHECK_QUERIES = 16
GRAD_CHECK_TRIPLES = 4


class Run:
    def __init__(self, workload, seed: int, seconds: float, workdir: Path,
                 tracer=None):
        self.wl, self.seed, self.seconds = workload, seed, seconds
        self.dir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.cfg = training.TrainConfig(seed=seed, **workload.train_config())
        self.losses: list[float] = []
        self.stamps: list[list[float]] = []     # per train_loop call
        self.untraced_stamps: list[list[float]] = []

    # -- helpers -------------------------------------------------------------

    def timed(self, stage: str, body, *args):
        """One operation: ``body(*args)`` timed, and traced as ``stage``."""
        gc.collect()    # every sample starts from the same heap state
        span = self.tracer.span(stage) if self.tracer else contextlib.nullcontext()
        with span:
            t0 = time.perf_counter()
            result = body(*args)
            self.samples.setdefault(stage, []).append(time.perf_counter() - t0)
        self.attempted += 1
        return result

    def repeat(self, stage: str, body, prepare=tuple):
        """``timed(stage, body, *prepare())`` until the stage has had
        STAGE_SECONDS of this round; returns the last result."""
        spent = 0.0
        while True:
            result = self.timed(stage, body, *prepare())
            spent += self.samples[stage][-1]
            if spent >= STAGE_SECONDS:
                return result

    def check(self, failures: list[str]) -> None:
        for msg in failures:
            print(f"CHECK FAILED: {msg}", file=sys.stderr)
        self.failures += failures

    def load_store(self):
        return kg.TripleStore.load(self.dir / "store")

    def load_tokens(self):
        return kg.load_token_cache(self.dir / "tokens.bin")

    # -- the run ---------------------------------------------------------------

    def run(self) -> dict[str, float]:
        g = self.graph = generate(self.wl.graph, self.seed)
        raw = self.dir / "raw"
        raw.mkdir(parents=True)
        for split, rows in g.splits().items():
            write_tsv(rows, raw / f"{split}.tsv")
        self.cands = candidate_sets(g, "test", self.wl.candidates, self.seed)
        start = time.perf_counter()
        self.round()
        # the peak of one pass, as one process per command would see it;
        # later rounds add only allocator fragmentation
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds = 1
        while rounds < MIN_ROUNDS or time.perf_counter() - start < self.seconds:
            self.round()
            rounds += 1
        self.check_outputs()
        med = {k: statistics.median(v) for k, v in self.samples.items()}
        queries = 2 * len(g.test)
        return {
            "setup_s": med["setup"],
            "ingest_triples_per_s": len(g.all_triples()) / med["ingest"],
            "tokenize_nodes_per_s": g.num_entities / med["tokenize"],
            "train_triples_per_s": self.cfg.batch_size / step_time(self.stamps),
            "eval_filtered_qps": queries / med["eval_filtered"],
            "eval_candidate_qps": queries / med["eval_candidate"],
            "peak_rss_mb": peak_rss_mb,
        }

    def round(self) -> None:
        wl, g, cfg = self.wl, self.graph, self.cfg
        sources = {s: self.dir / "raw" / f"{s}.tsv" for s in g.splits()}

        def ingest():
            store = kg.load_triples(sources, fmt="numeric",
                                    num_entities=g.num_entities,
                                    num_relations=g.num_relations)
            kg.build_adjacency(store)
            store.save(self.dir / "store")
            return store

        def tokenize(store):
            aset = kg.select_global_anchors(store, wl.anchors)
            tg, _ = kg.tokenize_all(store, aset, wl.k_anc, wl.k_in, wl.k_out,
                                    seed=self.seed)
            kg.save_token_cache(tg, self.dir / "tokens.bin")
            return tg

        def train(store, tokens, stamps):
            stamps.append([])

            def sink(rec):
                self.losses.append(rec["loss"])
                stamps[-1].append(time.perf_counter())

            self.attempted += cfg.steps_max
            # looked up at call time so that the traced run sees its wrapper
            return training.train_loop(store, cfg, tokens=tokens, sink=sink,
                                       checkpoint_dir=self.dir / "ckpt")

        def setup():
            store = kg.TripleStore.load(self.dir / "store")
            tokens = self.load_tokens() if cfg.tokenized else None
            ckpt = kg.load_checkpoint(self.dir / "ckpt" / "final.ckpt")
            return kg.model_from_checkpoint(ckpt, tokens=tokens)

        def evaluate(store, protocol, cs):
            self.attempted += 2 * len(g.test)
            return kg.evaluate_split(self.model, store, "test",
                                     protocol=protocol, candidate_sets=cs)

        def train_inputs():
            tokens = self.load_tokens() if cfg.tokenized else None
            return self.load_store(), tokens

        self.store = self.repeat("ingest", ingest)
        self.tokens = self.repeat("tokenize", tokenize,
                                  lambda: (self.load_store(),))
        self.final = self.timed("train", train, *train_inputs(), self.stamps)
        if self.tracer:
            # an untraced call per round gives the tracing overhead
            train(*train_inputs(), self.untraced_stamps)
        self.model = self.repeat("setup", setup)
        self.reports = {}
        for stage, protocol, cs in (
                ("eval_filtered", "filtered-full", None),
                ("eval_candidate", "candidate-set", self.cands)):
            self.reports[protocol] = self.repeat(
                stage, evaluate, lambda: (self.load_store(), protocol, cs))

    # -- checks ----------------------------------------------------------------

    def check_outputs(self) -> None:
        self.check(oracles.check_store(self.store, self.graph))
        self.check_tokens()
        self.check_training()
        self.check_loss()
        self.check_ranks()

    def check_tokens(self) -> None:
        wl, g, tg = self.wl, self.graph, self.tokens
        loaded = self.load_tokens()
        for f in ("anchor_ids", "anchor_tok", "in_tok", "out_tok", "mask"):
            if not np.array_equal(getattr(loaded, f), getattr(tg, f)):
                self.check([f"tokenizer: cache round trip changed {f}"])
        ins, outs = oracles.neighbor_sets(g.train, g.num_entities)
        anchors = oracles.top_degree_anchors(g.train, g.num_entities,
                                             wl.anchors)
        rng = np.random.default_rng([self.seed, 1])
        nodes = rng.choice(g.num_entities, TOKEN_CHECK_NODES, replace=False)
        self.check(oracles.check_tokens(loaded, nodes.tolist(), ins, outs,
                                        anchors))

    def check_training(self) -> None:
        calls = len(self.stamps) + len(self.untraced_stamps)
        want = self.cfg.steps_max * calls
        if len(self.losses) != want:
            self.check([f"train: {len(self.losses)} losses logged, "
                        f"expected {want}"])
        if not np.isfinite(self.losses).all():
            self.check(["train: non-finite logged loss"])
        for name, p in self.final.params.items():
            if not np.isfinite(p).all():
                self.check([f"train: non-finite parameter table {name}"])

    def check_loss(self) -> None:
        """Batch loss and sampled gradient coordinates against the oracle."""
        cfg, g = self.cfg, self.graph
        model = kg.model_from_checkpoint(
            self.final, tokens=self.tokens if cfg.tokenized else None)
        model64 = dataclasses.replace(
            model, params={k: v.astype(np.float64) for k, v in model.params.items()})
        store = self.load_store()
        rng = np.random.default_rng([self.seed, 2])
        for step in (1, 2):     # corruption "both": tail, then head
            batch = g.train[rng.choice(len(g.train), cfg.batch_size,
                                       replace=False)]
            neg, side = kg.sample_negatives(
                store, batch, cfg.neg_size, cfg.corruption, rng, step=step,
                filter_train=cfg.filter_train_negatives)
            got, _ = kg.loss_and_grads(model, batch, neg, side, cfg.gamma,
                                       cfg.adv_alpha)
            want, _, _ = oracles.batch_loss(model, batch, neg, side,
                                            cfg.gamma, cfg.adv_alpha)
            if not np.isclose(got, want, rtol=1e-4, atol=1e-6):
                self.check([f"train: {side} batch loss {got} vs oracle {want}"])
            sub, sub_neg = batch[:GRAD_CHECK_TRIPLES], neg[:GRAD_CHECK_TRIPLES]
            _, buf = kg.loss_and_grads(model64, sub, sub_neg, side, cfg.gamma,
                                       cfg.adv_alpha)
            grads = buf.finalize(model64.frozen_rows)
            self.check(oracles.check_gradients(
                model64, sub, sub_neg, side, cfg.gamma, cfg.adv_alpha, grads,
                rng))

    def check_ranks(self) -> None:
        """Every query's rank within the oracle's bounds, through the
        reports; sampled queries one by one through ``rank_query``."""
        g, model = self.graph, self.model
        queries = [(h, r, t, target) for h, r, t in g.test.tolist()
                   for target in ("tail", "head")]
        base, aux = oracles.entity_tables(model, np.arange(g.num_entities))
        dists = [oracles.query_distances(model, base, aux, *q) for q in queries]
        store = self.load_store()
        tables = model.encode_all()
        rng = np.random.default_rng([self.seed, 3])
        sample = rng.choice(len(queries), RANK_CHECK_QUERIES, replace=False)
        for protocol, cs in (("filtered-full", None),
                             ("candidate-set", self.cands)):
            pools = oracles.eval_pools(g, queries, g.num_entities, cs)
            bounds = [oracles.rank_bounds(d, gold, pool, model.dim)
                      for d, (gold, pool) in zip(dists, pools)]
            self.check(oracles.check_report(self.reports[protocol], bounds))
            for i in sample.tolist():
                h, r, t, target = queries[i]
                res = kg.rank_query(
                    model, store, kg.Query(h, r, t, target), protocol,
                    tables=tables,
                    candidates=None if cs is None else cs[target][i // 2])
                lo, hi = bounds[i]
                n = len(pools[i][1]) + 1
                if not lo <= res.rank <= hi or res.num_candidates != n:
                    self.check([f"eval: {protocol} {queries[i]} rank "
                                f"{res.rank} of {res.num_candidates}, oracle "
                                f"[{lo}, {hi}] of {n}"])

    # -- tracing ---------------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        return layer_metrics(
            self.tracer, batch=self.cfg.batch_size, neg=self.cfg.neg_size,
            steps_per_call=self.cfg.steps_max,
            overhead_ratio=step_time(self.stamps) / step_time(self.untraced_stamps))


def step_time(stamps: list[list[float]]) -> float:
    """Median interval between consecutive steps of the same call.  The
    first step of a call also builds the model, so it is left out."""
    return statistics.median(
        b - a for call in stamps for a, b in zip(call, call[1:]))


def execute(workload, seed: int, seconds: float, workdir: Path,
            trace_path: Path | None = None) -> dict:
    """Run the pipeline once; with ``trace_path`` the run is traced and the
    spans are written there.  Returns the result object to print."""
    tracer = None
    if trace_path is not None:
        tracer = Tracer()
        tracer.install(TARGETS)
    run = Run(workload, seed, seconds, workdir, tracer)
    try:
        metrics = run.run()
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        for name in tracer.absent:
            print(f"absent callable: {name}", file=sys.stderr)
        tracer.write(trace_path)
        values = run.per_layer()
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, units = metrics, END_TO_END_UNITS
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in values.items()},
    }
