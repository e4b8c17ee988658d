"""Command-line surface: ingest, tokenize, train, eval, gradcheck, export.

Configuration is a flat key=value namespace resolved in precedence order
--set > environment (KGEMBED_<KEY>) > --config file > --preset > built-in
defaults.  Unknown keys are fatal.  Machine-readable output is JSON lines
on stdout; human summaries and warnings go to stderr.

Exit codes: 0 ok, 1 internal failure, 2 usage or config error,
3 gradient-verification failure.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import anchors as anc
from . import binfile, gradcheck
from .data import TripleStore, load_triples
from .evaluation import evaluate_split, load_candidate_sets
from .training import (TrainConfig, load_checkpoint, model_from_checkpoint,
                       train_loop)

log = logging.getLogger(__name__)

EXPORT_MAGIC = b"KGEV"
EXPORT_VERSION = 1

ENV_PREFIX = "KGEMBED_"


class ConfigError(Exception):
    """Bad key, value, or missing requirement; exits with status 2."""


class _Required:
    def __repr__(self):
        return "<required>"


REQUIRED = _Required()

# key -> (type, default, help); the training keys are TrainConfig's fields
CONFIG_KEYS: dict[str, tuple[type, object, str]] = {
    **{f.name: (type(f.default), f.default, f.metadata["help"])
       for f in dataclass_fields(TrainConfig)},
    "anchors": (int, 20000, "global anchor count"),
    "anchor_strategy": (str, "degree", "degree | random"),
    "k_anc": (int, 20, "anchor slots per node"),
    "k_in": (int, 5, "in-direction neighbor slots"),
    "k_out": (int, 5, "out-direction neighbor slots"),
    "data": (str, "", "TripleStore directory (ingest output)"),
    "token_cache": (str, "", "token cache file"),
    "checkpoint_dir": (str, "checkpoints", "where train writes best/final"),
    "checkpoint": (str, "", "checkpoint file for eval/export"),
    "out": (str, "", "output path (ingest directory, export file)"),
    "log_file": (str, "", "also append JSON metric lines here"),
    "split": (str, "test", "train | valid | test"),
    "protocol": (str, "filtered-full", "filtered-full | candidate-set"),
    "tie_policy": (str, "mean", "optimistic | pessimistic | mean"),
    "both_directions": (bool, True, "rank heads as well as tails"),
    "candidates_tail": (str, "", "TSV candidate ids for tail queries"),
    "candidates_head": (str, "", "TSV candidate ids for head queries"),
    "train_file": (str, "", "ingest: training triples"),
    "valid_file": (str, "", "ingest: validation triples"),
    "test_file": (str, "", "ingest: test triples"),
    "format": (str, "labels", "ingest: labels | numeric"),
    "num_entities": (int, 0, "ingest numeric: declared count, 0 = infer"),
    "num_relations": (int, 0, "ingest numeric: declared count, 0 = infer"),
    "gc_dim": (int, 8, "gradcheck: kernel dimension"),
    "gc_instances": (int, 100, "gradcheck: instances per kernel"),
    "deterministic": (bool, True, "omit wall-clock fields so logs are byte-identical"),
}

_DEFAULTS = {k: entry[1] for k, entry in CONFIG_KEYS.items()}


def _wikikg2_preset(model: str, dim: int, u: float) -> dict:
    """The defaults plus the preset's pins, so a run is fully described by
    preset + overrides.  gamma and adv_alpha have no established values at
    this scale and must be given explicitly."""
    return {**_DEFAULTS, "gamma": REQUIRED, "adv_alpha": REQUIRED,
            "tokenized": True, "model": model, "dim": dim, "u": u}


PRESETS: dict[str, dict] = {
    "interht-wikikg2": _wikikg2_preset("interht", 200, 0.0),
    "interht-plus-wikikg2": _wikikg2_preset("interht_plus", 512, 0.05),
}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def parse_value(key: str, text: str):
    typ = CONFIG_KEYS[key][0]
    if typ is bool:
        low = text.strip().lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"{key}: expected a boolean, got {text!r}")
    try:
        return typ(text.strip())
    except ValueError:
        raise ConfigError(
            f"{key}: expected {typ.__name__}, got {text!r}"
        ) from None


def _check_known(key: str, origin: str) -> None:
    if key not in CONFIG_KEYS:
        raise ConfigError(
            f"{origin}: unknown config key {key!r}; valid keys: "
            + ", ".join(sorted(CONFIG_KEYS))
        )


def parse_config_file(path: str | Path) -> dict:
    out: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            _check_known(key, f"{path}:{lineno}")
            out[key] = parse_value(key, val)
    return out


def resolve_config(preset: str | None = None, config_file: str | None = None,
                   sets: list[str] = (), env: dict | None = None):
    """Returns (config dict, set of keys given explicitly)."""
    env = os.environ if env is None else env
    cfg = dict(_DEFAULTS)
    explicit: set[str] = set()
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: "
                + ", ".join(sorted(PRESETS))
            )
        cfg.update(PRESETS[preset])
        explicit.update(PRESETS[preset])
    if config_file:
        loaded = parse_config_file(config_file)
        cfg.update(loaded)
        explicit.update(loaded)
    for key in CONFIG_KEYS:
        var = ENV_PREFIX + key.upper()
        if var in env:
            cfg[key] = parse_value(key, env[var])
            explicit.add(key)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, val = (s.strip() for s in item.split("=", 1))
        _check_known(key, "--set")
        cfg[key] = parse_value(key, val)
        explicit.add(key)
    still_required = sorted(k for k, v in cfg.items() if v is REQUIRED)
    if still_required:
        raise ConfigError(
            "these keys must be set explicitly: " + ", ".join(still_required)
        )
    return cfg, explicit


def emit_json(obj: dict, stream=None) -> None:
    print(json.dumps(obj, sort_keys=True), file=stream or sys.stdout, flush=True)


def _require(cfg: dict, key: str, what: str) -> str:
    if not cfg[key]:
        raise ConfigError(f"{key}= is required {what}")
    return cfg[key]


def train_config_from(cfg: dict) -> TrainConfig:
    kwargs = {f.name: cfg[f.name] for f in dataclass_fields(TrainConfig)}
    tc = TrainConfig(**kwargs)
    try:
        tc.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return tc


def _load_store(cfg: dict) -> TripleStore:
    path = _require(cfg, "data", "(TripleStore directory)")
    return TripleStore.load(path)


def _load_tokens(cfg: dict) -> anc.TokenizedGraph:
    path = _require(cfg, "token_cache", "for tokenized models")
    return anc.load_token_cache(path)


def cmd_ingest(cfg: dict, explicit: set) -> int:
    train = _require(cfg, "train_file", "(triples to ingest)")
    out = _require(cfg, "out", "(store output directory)")
    sources = {"train": train}
    if cfg["valid_file"]:
        sources["valid"] = cfg["valid_file"]
    if cfg["test_file"]:
        sources["test"] = cfg["test_file"]
    store = load_triples(
        sources, fmt=cfg["format"],
        num_entities=cfg["num_entities"] or None,
        num_relations=cfg["num_relations"] or None,
    )
    store.save(out)
    stats = {
        "entities": store.num_entities,
        "relations": store.num_relations,
        "train": store.num_triples("train"),
        "valid": store.num_triples("valid"),
        "test": store.num_triples("test"),
        "duplicates": {k: int(v) for k, v in store.duplicates.items()},
    }
    emit_json(stats)
    human = (f"entities={stats['entities']} relations={stats['relations']} "
             f"train={stats['train']}")
    for split in ("valid", "test"):
        if stats[split]:
            human += f" {split}={stats[split]}"
    print(human, file=sys.stderr)
    return 0


def cmd_tokenize(cfg: dict, explicit: set) -> int:
    store = _load_store(cfg)
    out = _require(cfg, "token_cache", "(cache output path)")
    aset = anc.select_global_anchors(store, cfg["anchors"],
                                     cfg["anchor_strategy"], seed=cfg["seed"])
    tg, stats = anc.tokenize_all(store, aset, cfg["k_anc"], cfg["k_in"],
                                 cfg["k_out"], seed=cfg["seed"])
    anc.save_token_cache(tg, out)
    emit_json({"anchors": len(aset), **stats})
    print(
        f"anchors={len(aset)} one_hop_coverage="
        f"{stats['one_hop_anchor_fraction']:.3f} "
        f"center_only={stats['center_only']}",
        file=sys.stderr,
    )
    return 0


def _metric_sink(cfg: dict):
    log_path = cfg["log_file"]
    log_f = open(log_path, "a", encoding="utf-8") if log_path else None

    def sink(rec: dict) -> None:
        line = json.dumps(rec, sort_keys=True)
        print(line, flush=True)
        if log_f:
            log_f.write(line + "\n")
            log_f.flush()

    return sink


def cmd_train(cfg: dict, explicit: set) -> int:
    store = _load_store(cfg)
    tc = train_config_from(cfg)
    tokens = _load_tokens(cfg) if tc.tokenized else None
    final = train_loop(
        store, tc, tokens=tokens, sink=_metric_sink(cfg),
        checkpoint_dir=cfg["checkpoint_dir"],
        deterministic=cfg["deterministic"],
    )
    print(f"done: step={final.meta['step']} "
          f"checkpoints in {cfg['checkpoint_dir']}", file=sys.stderr)
    return 0


def _model_for_eval(cfg: dict, explicit: set):
    path = _require(cfg, "checkpoint", "for this command")
    ckpt = load_checkpoint(path)
    for key in ("model", "dim", "p"):
        meta_key = "kind" if key == "model" else key
        if key in explicit and cfg[key] != ckpt.meta[meta_key]:
            raise ConfigError(
                f"checkpoint has {meta_key}={ckpt.meta[meta_key]!r}, "
                f"config says {key}={cfg[key]!r}"
            )
    tokens = None
    if ckpt.meta["mode"] == "tokenized":
        tokens = _load_tokens(cfg)
    expect = train_config_from(cfg).hash() if "model" in explicit else None
    return model_from_checkpoint(ckpt, tokens=tokens,
                                 expect_config_hash=expect), ckpt


def cmd_eval(cfg: dict, explicit: set) -> int:
    store = _load_store(cfg)
    model, _ = _model_for_eval(cfg, explicit)
    candidate_sets = {}
    if cfg["candidates_tail"]:
        candidate_sets["tail"] = load_candidate_sets(cfg["candidates_tail"])
    if cfg["candidates_head"]:
        candidate_sets["head"] = load_candidate_sets(cfg["candidates_head"])
    report = evaluate_split(
        model, store, cfg["split"], protocol=cfg["protocol"],
        tie_policy=cfg["tie_policy"], both_directions=cfg["both_directions"],
        candidate_sets=candidate_sets or None,
    )
    emit_json(report.to_dict())
    print(
        f"{cfg['split']}: mrr={report.mrr:.4f} "
        + " ".join(f"hits@{k}={v:.4f}" for k, v in sorted(report.hits.items()))
        + f" ({report.count} queries, {report.protocol})",
        file=sys.stderr,
    )
    return 0


def cmd_gradcheck(cfg: dict, explicit: set) -> int:
    results = gradcheck.check_all_kernels(
        dim=cfg["gc_dim"], instances=cfg["gc_instances"], seed=cfg["seed"]
    )
    enc_err = gradcheck.check_transformer(seed=cfg["seed"])
    ok = True
    for name in sorted(results):
        err = results[name]
        passed = err <= gradcheck.KERNEL_TOL
        ok &= passed
        emit_json({"kernel": name, "max_rel_err": err, "pass": passed})
        print(f"{name:14s} {err:10.3e}  {'ok' if passed else 'FAIL'}",
              file=sys.stderr)
    enc_ok = enc_err <= gradcheck.ENCODER_TOL
    ok &= enc_ok
    emit_json({"kernel": "encoder", "max_rel_err": enc_err, "pass": enc_ok})
    print(f"{'encoder':14s} {enc_err:10.3e}  {'ok' if enc_ok else 'FAIL'}",
          file=sys.stderr)
    return 0 if ok else 3


def cmd_export(cfg: dict, explicit: set) -> int:
    out = _require(cfg, "out", "(export file path)")
    model, ckpt = _model_for_eval(cfg, explicit)
    base, aux = model.encode_all()
    tables = [("entity_base", base)]
    if aux is not None:
        tables.append(("entity_aux", aux))
    for name in ("rel", "rel_h", "rel_t"):
        if name in model.params:
            tables.append((name, model.params[name]))
    header = {
        "kind": model.kind.name, "dim": model.dim,
        "step": ckpt.meta["step"],
        "tables": [[n, list(a.shape)] for n, a in tables],
    }
    binfile.save(out, EXPORT_MAGIC, EXPORT_VERSION, binfile.json_part(header),
                 *(np.asarray(a, dtype="<f4") for _, a in tables))
    print(f"wrote {out}: " + ", ".join(f"{n}{list(a.shape)}" for n, a in tables),
          file=sys.stderr)
    return 0


COMMANDS = {
    "ingest": cmd_ingest,
    "tokenize": cmd_tokenize,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "export": cmd_export,
}


def _config_help() -> str:
    lines = ["config keys (set via --set, config file, or KGEMBED_<KEY> env):"]
    for key, (typ, default, help_) in CONFIG_KEYS.items():
        note = ""
        if any(p.get(key) is REQUIRED for p in PRESETS.values()):
            note = " (presets leave this required)"
        lines.append(
            f"  {key:24s} {typ.__name__:5s} default {default!r}  {help_}{note}"
        )
    lines.append("presets: " + ", ".join(sorted(PRESETS)))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgembed",
        description="Knowledge-graph embedding engine: train and evaluate "
                    "translational and bilinear link-prediction models.",
        epilog=_config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "ingest": "parse triple files into a binary TripleStore",
        "tokenize": "select anchors and precompute entity token sets",
        "train": "run the training loop",
        "eval": "rank a split and report MRR / Hits@K",
        "gradcheck": "verify analytic gradients against finite differences",
        "export": "write entity/relation embeddings as a binary table file",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(
            name, description=desc, epilog=_config_help(),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--preset", help="start from a named preset")
        p.add_argument("--config", help="key=value file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a single config key (repeatable)")
        p.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg, explicit = resolve_config(args.preset, args.config, args.set)
        return COMMANDS[args.command](cfg, explicit)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # noqa: BLE001 - last-resort boundary
        log.exception("internal error: %s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
