"""Negative sampling, margin loss, sparse Adam, and the training loop.

The loss for one positive is
    L = -log sigmoid(gamma - d_pos) - sum_i w_i * log sigmoid(d_neg_i - gamma)
where the w_i are either uniform 1/k or a detached softmax over the negative
distances (self-adversarial weighting).  Bilinear kinds plug in through the
sign-flip adapter in scoring, so "smaller d" always means "more plausible".

Embedding-row gradients stay sparse end to end: rows a step never touched
are skipped by the optimizer and their bias-correction counters do not
advance.
"""
from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from . import binfile
from .data import TripleStore
from .model import KgeModel, build_model
from .scoring import MODEL_KINDS, model_kind
from .segments import RowGroups

log = logging.getLogger(__name__)

CKPT_MAGIC = b"KGCK"
CKPT_VERSION = 1

CORRUPTION_MODES = ("head", "tail", "both")


class CheckpointError(ValueError):
    """Unreadable or incompatible checkpoint file."""


def _key(default, help_: str):
    """A ``TrainConfig`` field; its help text is the CLI's (metadata does
    not enter ``asdict``, so it never reaches ``hash``)."""
    return field(default=default, metadata={"help": help_})


@dataclass
class TrainConfig:
    model: str = _key("interht",
                      "scoring kind: " + " ".join(sorted(MODEL_KINDS)))
    dim: int = _key(200, "entity embedding width")
    p: int = _key(1, "residual norm order, 1 or 2")
    u: float = _key(0.0, "constant interaction scalar (kinds that use it)")
    gamma: float = _key(10.0, "margin")
    adv_alpha: float = _key(1.0, "negative-weight temperature, 0 = uniform")
    lr: float = _key(5e-4, "Adam learning rate")
    batch_size: int = _key(512, "positives per step")
    neg_size: int = _key(128, "negatives per positive")
    steps_max: int = _key(500_000, "training steps")
    valid_every: int = _key(20_000, "validation interval in steps")
    log_every: int = _key(100, "loss log interval in steps")
    corruption: str = _key("both", "head | tail | both (alternates per step)")
    filter_train_negatives: bool = _key(
        False, "resample negatives hitting train triples")
    seed: int = _key(0, "global RNG seed")
    tokenized: bool = _key(False, "encode entities from token sets")
    d_tok: int = _key(0, "token embedding width, 0 = dim")
    heads: int = _key(4, "attention heads")
    ffn_mult: int = _key(2, "FFN expansion factor")
    combiner: str = _key("transformer", "transformer | mean")
    use_center: bool = _key(True, "per-entity center token (off = shared row)")

    def validate(self) -> None:
        kind = model_kind(self.model)
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if kind.even_dim and self.dim % 2:
            raise ValueError(f"{self.model} needs an even dim, got {self.dim}")
        if self.p not in (1, 2):
            raise ValueError(f"norm order p must be 1 or 2, got {self.p}")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.adv_alpha < 0:
            raise ValueError("adv_alpha must be non-negative")
        if self.u < 0:
            raise ValueError("u must be non-negative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        for name in ("batch_size", "neg_size", "valid_every", "log_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.steps_max < 0:
            raise ValueError("steps_max must be >= 0")
        if self.corruption not in CORRUPTION_MODES:
            raise ValueError(
                f"corruption must be one of {CORRUPTION_MODES}, "
                f"got {self.corruption!r}"
            )

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def build_model_from_config(cfg: TrainConfig, num_entities: int,
                            num_relations: int, tokens=None,
                            dtype=np.float32) -> KgeModel:
    if cfg.tokenized and tokens is None:
        raise ValueError("tokenized model requires a token cache")
    return build_model(
        cfg.model, num_entities, num_relations, cfg.dim,
        p=cfg.p, u=cfg.u, seed=cfg.seed, dtype=dtype,
        tokens=tokens if cfg.tokenized else None,
        d_tok=cfg.d_tok or cfg.dim, heads=cfg.heads, ffn_mult=cfg.ffn_mult,
        combiner=cfg.combiner, use_center=cfg.use_center,
    )


class GradBuffer:
    """Accumulates gradients: dense per-weight arrays plus row-sparse
    (ids, rows) pairs for embedding tables."""

    def __init__(self):
        self.dense: dict[str, np.ndarray] = {}
        self._row_ids: dict[str, list[np.ndarray]] = {}
        self._row_vals: dict[str, list[np.ndarray]] = {}

    def add_dense(self, name: str, g: np.ndarray) -> None:
        if name in self.dense:
            self.dense[name] = self.dense[name] + g
        else:
            self.dense[name] = g

    def add_rows(self, name: str, ids: np.ndarray, rows: np.ndarray) -> None:
        ids = np.asarray(ids).reshape(-1)
        rows = np.asarray(rows).reshape(len(ids), -1)
        self._row_ids.setdefault(name, []).append(ids)
        self._row_vals.setdefault(name, []).append(rows)

    def finalize(self, frozen_rows: dict[str, int] | None = None) -> dict:
        """Merge duplicates and drop all-zero and frozen rows.

        A table given as one chunk of strictly increasing ids (lookup-mode
        entity rows, already summed per entity) is not merged again.
        Returns {name: ("dense", array) | ("rows", ids, rows)}.
        """
        frozen_rows = frozen_rows or {}
        out: dict[str, tuple] = {
            name: ("dense", g) for name, g in self.dense.items()
        }
        for name, chunks in self._row_ids.items():
            vals = self._row_vals[name]
            if len(chunks) == 1 and (np.diff(chunks[0]) > 0).all():
                uniq, summed = chunks[0], vals[0]
            else:
                groups = RowGroups(np.concatenate(chunks))
                uniq, summed = groups.ids, groups.sum(np.concatenate(vals))
            keep = summed.any(axis=1)
            if name in frozen_rows:
                keep &= uniq != frozen_rows[name]
            out[name] = ("rows", uniq[keep], summed[keep])
        return out


def sample_negatives(store: TripleStore, batch: np.ndarray, k: int,
                     mode: str, rng: np.random.Generator, step: int = 0,
                     filter_train: bool = False):
    """Corrupting entity draws for a batch; returns (ids [B, k], side).

    mode "both" alternates the corrupted side per call using ``step``.  A
    draw equal to the gold entity is redrawn once and then kept.  With
    ``filter_train`` every draw completing a training triple is redrawn
    until clean (bounded; leftovers are kept with a warning).
    """
    if k < 1:
        raise ValueError("neg_size must be >= 1")
    if mode == "both":
        side = "tail" if step % 2 else "head"
    elif mode in ("head", "tail"):
        side = mode
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    e = store.num_entities
    b = len(batch)
    gold = batch[:, 2] if side == "tail" else batch[:, 0]
    neg = rng.integers(0, e, size=(b, k), dtype=np.int64)
    clash = neg == gold[:, None]
    if clash.any():
        neg[clash] = rng.integers(0, e, size=int(clash.sum()), dtype=np.int64)
    if filter_train:
        # a clean draw is never redrawn, so after the first round only the
        # redrawn positions (flat, in increasing order) are checked again
        flat = neg.reshape(-1)
        pos = np.arange(b * k)
        for _ in range(64):
            row = batch[pos // k]
            if side == "tail":
                bad = store.train_triple_mask(row[:, 0], row[:, 1], flat[pos])
            else:
                bad = store.train_triple_mask(flat[pos], row[:, 1], row[:, 2])
            pos = pos[bad]
            if not len(pos):
                break
            flat[pos] = rng.integers(0, e, size=len(pos), dtype=np.int64)
        else:
            log.warning("negative filtering gave up; some train triples remain")
    return neg, side


def self_adversarial_weights(neg_d: np.ndarray, alpha: float) -> np.ndarray:
    """Per-negative weights along the last axis, in the floating dtype of
    ``neg_d`` (float64 for integer input).

    alpha=0 gives uniform 1/k.  Otherwise softmax(alpha * (gamma - d)); the
    margin shifts every logit equally, so it cancels and is not a parameter
    here.  Treated as constants: no gradient flows through the weights.
    """
    neg_d = np.asarray(neg_d)
    dtype = np.result_type(neg_d.dtype, np.float32)
    k = neg_d.shape[-1]
    if alpha == 0.0:
        return np.full(neg_d.shape, 1.0 / k, dtype=dtype)
    z = -alpha * neg_d.astype(dtype, copy=False)
    z = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


def _softplus(x: np.ndarray) -> np.ndarray:
    # -log sigmoid(x) == softplus(-x), overflow-safe
    return np.logaddexp(0.0, -x)


def loss_and_grads(model: KgeModel, batch: np.ndarray, negatives: np.ndarray,
                   side: str, gamma: float, alpha: float):
    """Mean batch loss and its gradients as an unfinalized GradBuffer.

    One entity gather, one kernel call and one segment-sum per entity
    table.  The corrupted side is a [b, 1+k] id array with the gold entity
    in column 0 and the negatives after it; the other side and the
    relation stay [b, 1] and broadcast, so column 0 of the distances is
    d_pos and the rest is d_neg.  Everything stays in the model's dtype.
    """
    if side not in ("head", "tail"):
        raise ValueError(f"side must be head or tail, got {side!r}")
    b, k = negatives.shape
    h_ids, r_ids, t_ids = batch[:, 0], batch[:, 1], batch[:, 2]
    if side == "tail":
        fix, cor, fixed_ids, gold_ids = "h", "t", h_ids, t_ids
    else:
        fix, cor, fixed_ids, gold_ids = "t", "h", t_ids, h_ids
    corrupted = np.concatenate([gold_ids[:, None], negatives], axis=1)
    groups = RowGroups(np.concatenate([fixed_ids, corrupted.reshape(-1)]))
    base_u, aux_u, cache = model.encode_entities(groups.ids)
    iv_fix = groups.inverse[:b, None]                 # [b, 1]
    iv_cor = groups.inverse[b:].reshape(b, k + 1)     # [b, 1+k]

    kind = model.kind
    suffixes = ("", "_a") if kind.uses_aux else ("",)
    vecs = {part: v[:, None, :]
            for part, v in model.relation_vecs(r_ids).items()}
    for suffix, table in zip(suffixes, (base_u, aux_u)):
        vecs[fix + suffix] = table[iv_fix]
        vecs[cor + suffix] = table[iv_cor]
    d, g = model.score(vecs)
    d_pos, d_neg = d[:, 0], d[:, 1:]

    w = self_adversarial_weights(d_neg, alpha)
    per_pos = _softplus(gamma - d_pos) + (w * _softplus(d_neg - gamma)).sum(axis=1)
    if not np.isfinite(per_pos).all():
        i = int(np.flatnonzero(~np.isfinite(per_pos))[0])
        raise FloatingPointError(
            f"non-finite loss at triple ({h_ids[i]}, {r_ids[i]}, {t_ids[i]}): "
            f"d_pos={d_pos[i]!r}"
        )
    loss = float(per_pos.mean())

    dd = np.empty_like(d)                              # d loss / d d
    dd[:, 0] = expit(d_pos - gamma) / b
    dd[:, 1:] = -(w * expit(gamma - d_neg)) / b

    def summed(grad):
        """sum_j dd[i, j] * grad[i, j]: [b, w], one batched matmul."""
        grad = np.broadcast_to(grad, d.shape + grad.shape[-1:])
        return np.matmul(dd[:, None, :], grad)[:, 0]

    # entity-gradient rows in the order of the grouped ids: the fixed
    # side's [b] rows (summed over its 1+k scores), then the [b, 1+k] rows
    rows = np.empty((len(groups.inverse), base_u.shape[1]), dtype=d.dtype)

    def entity_grad(suffix):
        rows[:b] = summed(g[fix + suffix])
        np.multiply(g[cor + suffix], dd[..., None],
                    out=rows[b:].reshape(b, k + 1, -1))
        return groups.sum(rows)

    buf = GradBuffer()
    model.entity_backward(cache, entity_grad(""),
                          entity_grad("_a") if kind.uses_aux else None, buf)
    model.relation_backward(
        r_ids, {part: summed(g[part]) for part in kind.rel_parts}, buf)
    return loss, buf


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    counts: dict[str, np.ndarray]   # per-row step counters

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        counts = {
            k: np.zeros(p.shape[0] if p.ndim > 1 else 1, dtype=np.int64)
            for k, p in params.items()
        }
        return cls(m, v, counts)


def adam_step(params: dict[str, np.ndarray], grads: dict, state: AdamState,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One Adam update in place.

    grads is GradBuffer.finalize output.  Bias correction is per row: a row
    first touched at global step 900 behaves as if it were at its own step 1.
    Rows absent from the gradient (or all-zero) keep their state untouched.
    """
    for name, g in grads.items():
        p = params[name]
        if g[0] == "dense":
            garr = g[1]
            if p.ndim > 1:
                rows = np.flatnonzero(garr.any(axis=tuple(range(1, p.ndim))))
                if not len(rows):
                    continue
                gval = garr[rows]
            else:
                if not garr.any():
                    continue
                rows = slice(None)
                gval = garr
        else:
            _, rows, gval = g
            if not len(rows):
                continue
            gval = gval.reshape((len(rows),) + p.shape[1:])
        m, v, counts = state.m[name], state.v[name], state.counts[name]
        if p.ndim > 1:
            c = counts[rows] + 1
            counts[rows] = c
            tc = c[:, None].astype(np.float64)
        else:
            counts[0] += 1
            tc = float(counts[0])
        # rounded to the table dtype, as storing them does, so that mhat
        # and vhat see the stored values
        m_rows = (beta1 * m[rows] + (1.0 - beta1) * gval).astype(m.dtype,
                                                                 copy=False)
        v_rows = (beta2 * v[rows] + (1.0 - beta2) * gval * gval).astype(
            v.dtype, copy=False)
        m[rows] = m_rows
        v[rows] = v_rows
        mhat = m_rows / (1.0 - beta1 ** tc)
        vhat = v_rows / (1.0 - beta2 ** tc)
        # p - lr * mhat / (sqrt(vhat) + eps), one operation at a time in
        # place: the same roundings without [rows, d] temporaries
        np.sqrt(vhat, out=vhat)
        vhat += eps
        mhat *= lr
        mhat /= vhat
        params[name][rows] = np.subtract(p[rows], mhat, out=mhat)


@dataclass
class Checkpoint:
    meta: dict
    params: dict[str, np.ndarray]
    opt: dict[str, np.ndarray] = field(default_factory=dict)


_DTYPE_TAGS = ("<f4", "<f8", "<i8")
# meta keys that model_from_checkpoint and the CLI read; a tokenized
# checkpoint's "encoder" entry holds KgeModel.encoder_meta()'s keys
_META_KEYS = ("kind", "dim", "p", "u", "mode", "num_entities",
              "num_relations", "step", "config_hash")
_ENCODER_KEYS = ("d_tok", "heads", "ffn_mult", "combiner", "num_anchors",
                 "use_center")


def _tag_of(arr: np.ndarray) -> str:
    tag = arr.dtype.newbyteorder("<").str
    if tag not in _DTYPE_TAGS:
        raise CheckpointError(f"unsupported table dtype {arr.dtype}")
    return tag


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    tables = [("p/" + k, ckpt.params[k]) for k in sorted(ckpt.params)]
    tables += [("o/" + k, ckpt.opt[k]) for k in sorted(ckpt.opt)]
    manifest = [[name, _tag_of(a), list(a.shape)] for name, a in tables]
    binfile.save(path, CKPT_MAGIC, CKPT_VERSION,
                 binfile.json_part({"meta": ckpt.meta, "tables": manifest}),
                 *(a for _, a in tables))


def load_checkpoint(path: str | Path) -> Checkpoint:
    groups: dict[str, dict[str, np.ndarray]] = {"p/": {}, "o/": {}}
    with binfile.load(path, CKPT_MAGIC, CKPT_VERSION, CheckpointError,
                      "checkpoint") as rd:
        header = rd.json("header")
        _require_keys(rd, header, ("meta", "tables"), "header")
        meta = header["meta"]
        _require_keys(rd, meta, _META_KEYS, "header meta")
        if meta["mode"] == "tokenized":
            _require_keys(rd, meta.get("encoder"), _ENCODER_KEYS,
                          "header meta.encoder")
        for name, tag, shape in header["tables"]:
            if tag not in _DTYPE_TAGS:
                raise rd.error(name, f"unsupported dtype {tag!r}")
            if name[:2] not in groups:
                raise rd.error(name, "unknown table group")
            groups[name[:2]][name[2:]] = rd.array(tag, shape, name)
    return Checkpoint(meta=meta, params=groups["p/"], opt=groups["o/"])


def _require_keys(rd: binfile.Reader, obj, keys: tuple[str, ...],
                  section: str) -> None:
    if not isinstance(obj, dict):
        raise rd.error(section, "not a JSON object")
    for key in keys:
        if key not in obj:
            raise rd.error(section, f"missing key {key!r}")


def make_checkpoint(model: KgeModel, cfg: TrainConfig, step: int,
                    rng: np.random.Generator,
                    opt: AdamState | None = None) -> Checkpoint:
    meta = {
        "kind": model.kind.name,
        "dim": model.dim,
        "p": model.p,
        "u": model.u,
        "mode": model.mode,
        "num_entities": model.num_entities,
        "num_relations": model.num_relations,
        "step": step,
        "config_hash": cfg.hash(),
        "rng_state": rng.bit_generator.state,
    }
    if model.tokenized:
        meta["encoder"] = model.encoder_meta()
    opt_tables: dict[str, np.ndarray] = {}
    if opt is not None:
        for k in sorted(opt.m):
            opt_tables["m." + k] = opt.m[k]
            opt_tables["v." + k] = opt.v[k]
            opt_tables["c." + k] = opt.counts[k]
    return Checkpoint(meta=meta, params=dict(model.params), opt=opt_tables)


def model_from_checkpoint(ckpt: Checkpoint, tokens=None,
                          expect_config_hash: str | None = None) -> KgeModel:
    """Rebuild a scoring-ready model from checkpoint tables.

    Tokenized checkpoints need the token cache that training used.  A
    config-hash mismatch only warns.  A table that is missing, extra, of
    another shape than ``KgeModel.table_shapes`` or not floating-point
    raises CheckpointError naming it.
    """
    meta = ckpt.meta
    if expect_config_hash and expect_config_hash != meta["config_hash"]:
        log.warning("config hash mismatch: checkpoint %s vs current %s",
                    meta["config_hash"], expect_config_hash)
    if meta["mode"] not in ("lookup", "tokenized"):
        raise CheckpointError(f"unknown mode {meta['mode']!r}: expected "
                              "'lookup' or 'tokenized'")
    kind = model_kind(meta["kind"])
    model = KgeModel(
        kind=kind, dim=meta["dim"], p=meta["p"], u=meta["u"],
        num_entities=meta["num_entities"],
        num_relations=meta["num_relations"],
        params=dict(ckpt.params),
    )
    if meta["mode"] == "tokenized":
        if tokens is None:
            raise CheckpointError("tokenized checkpoint requires a token cache")
        encm = dict(meta["encoder"])
        num_anchors = encm.pop("num_anchors")
        if tokens.num_anchors != num_anchors:
            raise CheckpointError(
                f"token cache has {tokens.num_anchors} anchors, checkpoint "
                f"expects {num_anchors}"
            )
        try:
            model.attach_tokens(tokens, **encm)
        except ValueError as exc:
            raise CheckpointError(str(exc)) from exc
    want = model.table_shapes()
    model_is = f"a {model.mode} {kind.name} model"
    for name, shape in want.items():
        table = ckpt.params.get(name)
        if table is None or table.shape != shape or table.dtype.kind != "f":
            got = "absent" if table is None else f"{table.dtype} {table.shape}"
            raise CheckpointError(f"table {name}: {got}, {model_is} needs "
                                  f"floating-point {shape}")
    extra = sorted(ckpt.params.keys() - want.keys())
    if extra:
        raise CheckpointError(f"table {extra[0]}: not a table of {model_is}")
    return model


def train_loop(store: TripleStore, cfg: TrainConfig, tokens=None,
               model: KgeModel | None = None, sink=None,
               checkpoint_dir: str | Path | None = None,
               deterministic: bool = True) -> Checkpoint:
    """Run training; returns (and optionally writes) the final checkpoint.

    ``sink`` receives one dict per log event.  With a validation split
    present, every ``valid_every`` steps runs filtered evaluation and the
    best-MRR checkpoint is kept alongside the final one.  Single-threaded
    runs with a fixed seed are bit-reproducible; wall-clock timings are
    logged only in non-deterministic mode so logs stay byte-identical.
    """
    from .evaluation import evaluate_split

    cfg.validate()
    if store.num_entities == 1:
        log.warning("single-entity store: every negative equals the gold entity")
    rng = np.random.default_rng(cfg.seed)
    if model is None:
        model = build_model_from_config(cfg, store.num_entities,
                                        store.num_relations, tokens=tokens)
    model.check_store(store)
    opt = AdamState.init(model.params)
    train = store.splits["train"]
    n = len(train)
    if n == 0:
        raise ValueError("empty train split")
    bsz = min(cfg.batch_size, n)
    if bsz < cfg.batch_size:
        log.warning("batch_size %d clipped to train size %d", cfg.batch_size, n)
    has_valid = store.num_triples("valid") > 0
    ckpt_dir = Path(checkpoint_dir) if checkpoint_dir else None
    if ckpt_dir:
        ckpt_dir.mkdir(parents=True, exist_ok=True)

    def emit(rec: dict) -> None:
        if sink is not None:
            if not deterministic:
                rec["elapsed_s"] = round(time.monotonic() - t0, 3)
            sink(rec)

    t0 = time.monotonic()
    best_mrr = -1.0
    order = rng.permutation(n)
    cursor = 0
    for step in range(1, cfg.steps_max + 1):
        if cursor + bsz > n:
            order = rng.permutation(n)
            cursor = 0
        batch = train[order[cursor:cursor + bsz]]
        cursor += bsz
        neg, side = sample_negatives(
            store, batch, cfg.neg_size, cfg.corruption, rng, step=step,
            filter_train=cfg.filter_train_negatives,
        )
        loss, buf = loss_and_grads(model, batch, neg, side, cfg.gamma,
                                   cfg.adv_alpha)
        adam_step(model.params, buf.finalize(model.frozen_rows), opt, cfg.lr)
        if step % cfg.log_every == 0 or step == cfg.steps_max:
            emit({"step": step, "loss": round(loss, 6), "lr": cfg.lr})
        if has_valid and step % cfg.valid_every == 0:
            report = evaluate_split(model, store, "valid")
            rec = {"step": step, "split": "valid", **report.to_dict()}
            emit(rec)
            if report.mrr > best_mrr:
                best_mrr = report.mrr
                if ckpt_dir:
                    save_checkpoint(
                        make_checkpoint(model, cfg, step, rng, opt),
                        ckpt_dir / "best.ckpt",
                    )
    final = make_checkpoint(model, cfg, cfg.steps_max, rng, opt)
    if ckpt_dir:
        save_checkpoint(final, ckpt_dir / "final.ckpt")
    return final
