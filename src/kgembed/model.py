"""Model assembly: parameter tables, token layout, and entity encoding.

Two entity-encoding modes share one interface.  Lookup mode reads base and
auxiliary vectors straight from per-entity tables (sparse row updates only).
Tokenized mode runs each entity's precomputed token set through the
encoder; the projection emits base and auxiliary halves in one pass.
Relations are always plain lookups.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc
from .anchors import TokenizedGraph
from .scoring import ModelKind, model_kind

SEG_SEQUENCE = (enc.SEG_ANCHOR, enc.SEG_IN, enc.SEG_OUT, enc.SEG_CENTER)

# relation part name (as the kernels expect) -> parameter table name
PART_TO_PARAM = {"r": "rel", "r_h": "rel_h", "r_t": "rel_t"}


@dataclass(frozen=True)
class TokenLayout:
    """Row layout of the token table.

    Rows [0, A) are anchor tokens, [A, A+E) per-entity tokens, then one
    shared center token and the frozen pad row.  The shared center row is
    used only when ``use_center`` is off (per-entity center embeddings
    traded away for OOV robustness).
    """

    num_anchors: int
    num_entities: int
    use_center: bool = True

    @property
    def shared_center_row(self) -> int:
        return self.num_anchors + self.num_entities

    @property
    def pad_row(self) -> int:
        return self.num_anchors + self.num_entities + 1

    @property
    def vocab_size(self) -> int:
        return self.num_anchors + self.num_entities + 2

    def entity_rows(self, ids: np.ndarray) -> np.ndarray:
        return self.num_anchors + ids

    def flatten(self, tg: TokenizedGraph):
        """Token-table row ids, segment vector, and mask for all entities."""
        if tg.num_anchors != self.num_anchors:
            raise ValueError("anchor count mismatch between layout and cache")
        e = tg.num_entities
        seg = np.concatenate([
            np.full(tg.k_anc, enc.SEG_ANCHOR),
            np.full(tg.k_in, enc.SEG_IN),
            np.full(tg.k_out, enc.SEG_OUT),
            [enc.SEG_CENTER],
        ]).astype(np.int64)
        if self.use_center:
            center = self.entity_rows(np.arange(e, dtype=np.int64))
        else:
            center = np.full(e, self.shared_center_row, dtype=np.int64)
        ids = np.concatenate([
            tg.anchor_tok,
            self.entity_rows(tg.in_tok),
            self.entity_rows(tg.out_tok),
            center[:, None],
        ], axis=1)
        mask = tg.mask.copy()
        ids = np.where(mask, ids, self.pad_row)
        return ids, seg, mask


@dataclass
class KgeModel:
    """A scoring kind plus every parameter needed to encode and score."""

    kind: ModelKind
    dim: int
    p: int
    u: float
    num_entities: int
    num_relations: int
    params: dict[str, np.ndarray]
    enc_cfg: enc.EncoderConfig | None = None
    layout: TokenLayout | None = None
    tok_ids: np.ndarray | None = None
    tok_seg: np.ndarray | None = None
    tok_mask: np.ndarray | None = None
    frozen_rows: dict[str, int] = field(default_factory=dict)

    @property
    def tokenized(self) -> bool:
        return self.enc_cfg is not None

    @property
    def mode(self) -> str:
        return "tokenized" if self.tokenized else "lookup"

    def attach_tokens(self, tokens: TokenizedGraph, d_tok: int, heads: int,
                      ffn_mult: int, combiner: str, use_center: bool) -> None:
        """Switch to tokenized mode: the encoder config, whose projection
        emits the base and auxiliary halves, the token layout and the
        flattened token arrays.  Parameters are not touched."""
        if tokens.num_entities != self.num_entities:
            raise ValueError(
                f"token cache entity count mismatch: cache covers "
                f"{tokens.num_entities} entities, model has {self.num_entities}"
            )
        self.enc_cfg = enc.EncoderConfig(
            d_tok=d_tok, heads=heads, ffn_mult=ffn_mult,
            out_dim=2 * self.dim, combiner=combiner,
        )
        self.layout = TokenLayout(tokens.num_anchors, self.num_entities,
                                  use_center)
        self.tok_ids, self.tok_seg, self.tok_mask = self.layout.flatten(tokens)
        self.frozen_rows = {"tok": self.layout.pad_row}

    def encoder_meta(self) -> dict:
        """The checkpoint's ``encoder`` entry: ``attach_tokens``'s
        arguments, plus the anchor count the token cache must have."""
        return {
            "d_tok": self.enc_cfg.d_tok,
            "heads": self.enc_cfg.heads,
            "ffn_mult": self.enc_cfg.ffn_mult,
            "combiner": self.enc_cfg.combiner,
            "num_anchors": self.layout.num_anchors,
            "use_center": self.layout.use_center,
        }

    def table_shapes(self) -> dict[str, tuple[int, ...]]:
        """Every parameter table and its shape, in initialization order:
        the relation parts, then the entity tables or the encoder's."""
        rd = self.kind.relation_dim(self.dim)
        shapes = {PART_TO_PARAM[part]: (self.num_relations, rd)
                  for part in self.kind.rel_parts}
        if self.tokenized:
            return shapes | enc.encoder_shapes(self.enc_cfg,
                                               self.layout.vocab_size)
        ent = ("ent", "ent_aux") if self.kind.uses_aux else ("ent",)
        return shapes | {name: (self.num_entities, self.dim) for name in ent}

    def check_store(self, store) -> None:
        """Raise ValueError unless ``store`` has this model's entity and
        relation counts: ranking against another store would score ids
        that the model or the store does not have."""
        for what, mine, theirs in (
                ("entities", self.num_entities, store.num_entities),
                ("relations", self.num_relations, store.num_relations)):
            if mine != theirs:
                raise ValueError(f"model has {mine} {what}, "
                                 f"store has {theirs}")

    def score(self, vecs: dict[str, np.ndarray], grad: bool = True):
        """Kernel dispatch: (d, grads) with lower d = more plausible; no
        gradients (an empty dict) with ``grad=False``."""
        return self.kind.score(vecs, p=self.p, u=self.u, grad=grad)

    def encode_entities(self, ids: np.ndarray):
        """(base [n, d], aux [n, d] or None, backward cache) for entity ids."""
        ids = np.asarray(ids, dtype=np.int64)
        if self.tokenized:
            out, cache = enc.encode_entity(
                self.params, self.enc_cfg, self.tok_ids[ids], self.tok_seg,
                self.tok_mask[ids],
            )
            base = out[:, : self.dim]
            aux = out[:, self.dim:] if self.kind.uses_aux else None
            return base, aux, ("enc", cache)
        base = self.params["ent"][ids]
        aux = self.params["ent_aux"][ids] if self.kind.uses_aux else None
        return base, aux, ("lookup", ids)

    def entity_backward(self, cache, d_base: np.ndarray,
                        d_aux: np.ndarray | None, buf) -> None:
        """Push gradients w.r.t. encoded vectors into a GradBuffer."""
        mode, payload = cache
        if mode == "lookup":
            buf.add_rows("ent", payload, d_base)
            if d_aux is not None:
                buf.add_rows("ent_aux", payload, d_aux)
            return
        if d_aux is None:
            d_aux = np.zeros_like(d_base)
        d_out = np.concatenate([d_base, d_aux], axis=-1)
        tok_ids, tok_rows, dense = enc.encode_entity_backward(
            self.params, self.enc_cfg, payload, d_out
        )
        buf.add_rows("tok", tok_ids, tok_rows)
        for name, g in dense.items():
            buf.add_dense(name, g)

    def relation_vecs(self, r_ids: np.ndarray) -> dict[str, np.ndarray]:
        return {part: self.params[PART_TO_PARAM[part]][r_ids]
                for part in self.kind.rel_parts}

    def relation_backward(self, r_ids: np.ndarray,
                          d_parts: dict[str, np.ndarray], buf) -> None:
        for part, g in d_parts.items():
            buf.add_rows(PART_TO_PARAM[part], r_ids, g)

    def encode_all(self, batch_size: int = 2048):
        """Encode every entity; used by evaluation and export.

        Raises ValueError naming the table and its first bad row when the
        base, aux or a relation table holds a NaN or infinity: such a score
        compares neither below nor equal to a gold's, so ranking would put
        the gold first unnoticed.
        """
        if self.tokenized:
            bases, auxes = [], []
            for lo in range(0, self.num_entities, batch_size):
                ids = np.arange(lo, min(lo + batch_size, self.num_entities))
                # the backward cache is dropped before the next batch
                base, aux = self.encode_entities(ids)[:2]
                bases.append(base)
                if aux is not None:
                    auxes.append(aux)
            tables = (np.concatenate(bases),
                      np.concatenate(auxes) if auxes else None)
        else:
            tables = (self.params["ent"],
                      self.params["ent_aux"] if self.kind.uses_aux else None)
        named = [("entity_base", tables[0]), ("entity_aux", tables[1])]
        named += [(PART_TO_PARAM[part], self.params[PART_TO_PARAM[part]])
                  for part in self.kind.rel_parts]
        for name, table in named:
            if table is None:
                continue
            finite = np.isfinite(table)
            if not finite.all():
                row = int(np.flatnonzero(~finite.all(axis=1))[0])
                raise ValueError(f"non-finite value in {name} row {row}: the "
                                 "model diverged or its checkpoint is corrupt")
        return tables


def build_model(
    kind: ModelKind | str,
    num_entities: int,
    num_relations: int,
    dim: int,
    p: int = 1,
    u: float = 0.0,
    seed: int = 0,
    dtype=np.float32,
    tokens: TokenizedGraph | None = None,
    d_tok: int | None = None,
    heads: int = 4,
    ffn_mult: int = 2,
    combiner: str = "transformer",
    use_center: bool = True,
) -> KgeModel:
    """Initialize a model; pass ``tokens`` to get the tokenized encoder.

    All embedding tables start uniform in [-0.5/sqrt(dim), 0.5/sqrt(dim)]
    (encoder projections use Xavier limits instead).
    """
    if isinstance(kind, str):
        kind = model_kind(kind)
    if kind.even_dim and dim % 2:
        raise ValueError(f"{kind.name} needs an even dimension, got {dim}")
    model = KgeModel(
        kind=kind, dim=dim, p=p, u=u,
        num_entities=num_entities, num_relations=num_relations, params={},
    )
    if tokens is not None:
        model.attach_tokens(tokens, d_tok if d_tok is not None else dim,
                            heads, ffn_mult, combiner, use_center)
    rng = np.random.default_rng(seed)
    scale = 0.5 / np.sqrt(dim)
    params: dict[str, np.ndarray] = {}
    for name, shape in model.table_shapes().items():
        if name == "tok":    # the encoder's first table: it draws them all
            params.update(enc.init_encoder_params(
                model.enc_cfg, model.layout.vocab_size, rng, dtype=np.float64,
                pad_row=model.layout.pad_row,
            ))
        elif name not in params:
            params[name] = rng.uniform(-scale, scale, shape)
    model.params = {k: np.asarray(v, dtype=dtype) for k, v in params.items()}
    return model
