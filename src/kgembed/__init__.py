"""kgembed: a knowledge-graph embedding engine.

Translational and bilinear scoring kernels with hand-derived gradients, an
anchor-based entity tokenizer with a small transformer encoder, sparse-Adam
training with self-adversarial negative sampling, and filtered ranking
evaluation. See the README for the command-line workflow.
"""
from .data import (Query, TripleFormatError, TripleStore, Vocab,
                   build_adjacency, filtered_candidates, load_triples)
from .anchors import (AnchorSet, SubgraphTokens, TokenizedGraph,
                      assign_node_anchors, build_subgraph_tokens,
                      load_token_cache, sample_direction_neighbors,
                      save_token_cache, select_global_anchors, tokenize_all)
from .scoring import MODEL_KINDS, ModelKind, model_kind, score_for_loss
from .encoder import EncoderConfig, encode_entity, init_encoder_params
from .model import KgeModel, TokenLayout, build_model
from .training import (AdamState, Checkpoint, GradBuffer, TrainConfig,
                       adam_step, load_checkpoint, loss_and_grads,
                       make_checkpoint, model_from_checkpoint,
                       sample_negatives, save_checkpoint,
                       self_adversarial_weights, train_loop)
from .evaluation import (EvalReport, RankResult, evaluate_split,
                         load_candidate_sets, rank_query)

__version__ = "0.4.0"

__all__ = [
    "AdamState", "AnchorSet", "Checkpoint", "EncoderConfig", "EvalReport",
    "GradBuffer", "KgeModel", "MODEL_KINDS", "ModelKind", "Query",
    "RankResult", "SubgraphTokens", "TokenLayout", "TokenizedGraph",
    "TrainConfig", "TripleFormatError", "TripleStore", "Vocab",
    "adam_step", "assign_node_anchors", "build_adjacency", "build_model",
    "build_subgraph_tokens", "encode_entity", "evaluate_split",
    "filtered_candidates", "init_encoder_params", "load_candidate_sets",
    "load_checkpoint", "load_token_cache", "load_triples", "loss_and_grads",
    "make_checkpoint", "model_from_checkpoint", "model_kind", "rank_query",
    "sample_direction_neighbors", "sample_negatives", "save_checkpoint",
    "save_token_cache", "score_for_loss", "select_global_anchors",
    "self_adversarial_weights", "tokenize_all", "train_loop",
]
