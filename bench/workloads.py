"""The benchmark's workloads: one synthetic graph plus one model each.

Sizes are chosen so that one run of every workload, with its repeats and
its correctness checks, ends in well under a minute on a 2-core machine.
bench/README.md records why each workload exists and what it stresses.
"""
from __future__ import annotations

from dataclasses import dataclass

from graphs import GraphSpec

# TrainConfig fields every workload shares; log_every=1 lets the benchmark
# check every step's loss through the sink.
SHARED_TRAIN = dict(gamma=6.0, adv_alpha=1.0, lr=0.01, log_every=1)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: GraphSpec
    train: dict                 # TrainConfig fields besides the shared ones
    steps: int                  # steps per train_loop call
    anchors: int = 500
    k_anc: int = 20
    k_in: int = 5
    k_out: int = 5
    candidates: int = 500       # candidate-set size per query (gold excluded)

    def train_config(self) -> dict:
        cfg = {**SHARED_TRAIN, **self.train, "steps_max": self.steps}
        # no validation: the valid split only feeds the eval filter
        cfg["valid_every"] = self.steps + 1
        return cfg


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="lookup-preset",
            why="InterHT lookup mode at the preset batch shape: gradient "
                "scatter, GradBuffer.finalize and sparse Adam over large index "
                "arrays; every filtered query scores every entity",
            graph=GraphSpec(entities=12_000, relations=200, train=72_000,
                            valid=500, test=40, entity_skew=0.8,
                            relation_skew=1.0),
            train=dict(model="interht", dim=64, batch_size=512, neg_size=128),
            steps=3,
        ),
        Workload(
            name="tokenized",
            why="InterHT+ on the transformer token encoder: encoder forward "
                "and backward dominate training, encode_all dominates "
                "evaluation, and the tokenizer walks two hops on a dense graph",
            graph=GraphSpec(entities=3_000, relations=50, train=42_000,
                            valid=500, test=40, entity_skew=0.6,
                            relation_skew=1.0),
            train=dict(model="interht_plus", u=0.05, dim=32, d_tok=32,
                       batch_size=64, neg_size=16, tokenized=True),
            steps=3,
        ),
        Workload(
            name="dense-smoke",
            why="InterHT lookup mode at the smoke shape with train-negative "
                "filtering on a small dense graph: per-step fixed costs, "
                "negative redraws and per-query Python overhead dominate",
            graph=GraphSpec(entities=3_000, relations=20, train=250_000,
                            valid=500, test=500, entity_skew=0.75,
                            relation_skew=1.0),
            train=dict(model="interht", dim=32, batch_size=256, neg_size=16,
                       filter_train_negatives=True),
            steps=60,
        ),
    )
}
