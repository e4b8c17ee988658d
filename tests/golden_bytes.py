"""Golden-bytes cases: sha256 digests of every file a fixed-seed run writes.

Each case saves and reloads a small cyclic graph, tokenizes it, trains for
12 steps with validation every 4, and exports the embeddings.  It hashes
``triples.bin`` (with the two vocab TSVs), the token cache, ``best.ckpt``,
``final.ckpt``, the ``KGEV`` export and the deterministic log records, so
all four binary formats are pinned.  Each case runs in a child process with
one BLAS thread, because tokenized training bytes depend on the thread
count.

    python tests/golden_bytes.py             # rewrite tests/golden.json
    python tests/golden_bytes.py CASE DIR    # print one case's digests

Regenerate the JSON only in a change that means to alter numerics or
file bytes, and say so in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> the case's TrainConfig keys beyond the shared ones in run_case
CASES = {
    "lookup-interht": dict(model="interht"),
    "lookup-interht_plus": dict(model="interht_plus", u=0.05),
    "tokenized-interht": dict(model="interht", tokenized=True),
    "tokenized-interht_plus": dict(model="interht_plus", u=0.05,
                                   tokenized=True),
    "tokenized-interht_plus-mean": dict(model="interht_plus", u=0.05,
                                        tokenized=True, combiner="mean",
                                        use_center=False),
    "lookup-complex": dict(model="complex"),
    "lookup-rotate-p2": dict(model="rotate", p=2),
}


def run_case(name: str, work: Path) -> dict[str, str]:
    """Run one case in this process, writing under ``work``."""
    from conftest import make_cyclic_kg
    from kgembed import anchors as anc
    from kgembed import cli
    from kgembed.data import TripleStore
    from kgembed.training import TrainConfig, train_loop

    cfg = TrainConfig(dim=32, lr=0.01, batch_size=128, neg_size=16,
                      steps_max=12, valid_every=4, log_every=1, **CASES[name])
    make_cyclic_kg(120, 4)[0].save(work / "store")
    store = TripleStore.load(work / "store")
    aset = anc.select_global_anchors(store, 8)
    tg, _ = anc.tokenize_all(store, aset, 4, 2, 2, seed=3)
    anc.save_token_cache(tg, work / "tokens.bin")
    tokens = (anc.load_token_cache(work / "tokens.bin") if cfg.tokenized
              else None)
    records: list[dict] = []
    train_loop(store, cfg, tokens=tokens, sink=records.append,
               checkpoint_dir=work / "ckpt")
    rc = cli.main(["export",
                   "--set", f"checkpoint={work / 'ckpt' / 'final.ckpt'}",
                   "--set", f"token_cache={work / 'tokens.bin'}",
                   "--set", f"out={work / 'emb.bin'}"])
    if rc != 0:
        raise RuntimeError(f"export exited {rc}")
    blobs = {
        name: (work / rel).read_bytes() for name, rel in (
            ("entities.tsv", "store/entities.tsv"),
            ("relations.tsv", "store/relations.tsv"),
            ("triples.bin", "store/triples.bin"),
            ("tokens.bin", "tokens.bin"),
            ("best.ckpt", "ckpt/best.ckpt"),
            ("final.ckpt", "ckpt/final.ckpt"),
            ("export.bin", "emb.bin"),
        )
    }
    blobs["log"] = "".join(json.dumps(r, sort_keys=True) + "\n"
                           for r in records).encode()
    return {k: hashlib.sha256(v).hexdigest() for k, v in blobs.items()}


def digests_in_child(name: str, work: Path) -> dict[str, str]:
    """Run one case in a child process with one BLAS thread."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), name, str(work)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        raise RuntimeError(f"case {name} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout)


def main(argv: list[str]) -> int:
    if argv:
        name, work = argv
        print(json.dumps(run_case(name, Path(work)), sort_keys=True))
        return 0
    golden = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as work:
            golden[name] = digests_in_child(name, Path(work))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(golden)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
