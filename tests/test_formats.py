"""Corrupt or mismatched input to the three loaded file formats (``KGTS``
triple store, ``DGPT`` token cache, ``KGCK`` checkpoint): each load raises
the format's own error class, and ``kgembed eval`` exits 2 naming the file
and the section."""
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgembed import anchors as anc
from kgembed import binfile, cli
from kgembed import training as tr
from kgembed.data import SPLITS, TripleFormatError, TripleStore

from helpers import random_store

# name -> (file in a run directory, loader of a run directory, error class,
#          (offset, struct format) of each count field in the file)
FORMATS = {
    "triples": ("store/triples.bin", lambda d: TripleStore.load(d / "store"),
                TripleFormatError,
                [(8 + 8 * i, "<Q") for i in range(5)]),
    "tokens": ("tokens.bin", lambda d: anc.load_token_cache(d / "tokens.bin"),
               anc.TokenCacheError,
               [(8, "<I"), (12, "<I"), (16, "<I"), (28, "<Q"), (36, "<Q")]),
    "checkpoint": ("ckpt/final.ckpt",
                   lambda d: tr.load_checkpoint(d / "ckpt" / "final.ckpt"),
                   tr.CheckpointError, [(8, "<I")]),
}
HUGE = {"<I": st.integers(2**31, 2**32 - 1), "<Q": st.integers(2**40, 2**64 - 1)}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A store, token cache and tokenized checkpoint that eval accepts."""
    d = tmp_path_factory.mktemp("run")
    store = random_store(12, 2, 60, seed=5, splits=(0.8, 0.1, 0.1))
    store.save(d / "store")
    tg, _ = anc.tokenize_all(store, anc.select_global_anchors(store, 3), 2, 1, 1)
    anc.save_token_cache(tg, d / "tokens.bin")
    cfg = tr.TrainConfig(dim=8, batch_size=8, neg_size=2, steps_max=2,
                         valid_every=100, tokenized=True, heads=2)
    tr.train_loop(store, cfg, tokens=tg, checkpoint_dir=d / "ckpt")
    return d


@pytest.fixture(scope="module")
def work(run, tmp_path_factory):
    """A copy of ``run`` whose files the hypothesis examples overwrite."""
    d = tmp_path_factory.mktemp("work") / "run"
    shutil.copytree(run, d)
    return d


def load_corrupted(fmt, run, work, edit):
    rel, load, error, _ = FORMATS[fmt]
    (work / rel).write_bytes(edit(bytearray((run / rel).read_bytes())))
    return load, error


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_truncation_raises_format_error(fmt, run, work, data):
    size = len((run / FORMATS[fmt][0]).read_bytes())
    cut = data.draw(st.integers(0, size - 1))
    load, error = load_corrupted(fmt, run, work, lambda raw: raw[:cut])
    with pytest.raises(error, match="truncated"):
        load(work)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=40, deadline=None)
@given(junk=st.binary(min_size=1, max_size=64))
def test_trailing_bytes_raise_format_error(fmt, run, work, junk):
    load, error = load_corrupted(fmt, run, work, lambda raw: raw + junk)
    with pytest.raises(error, match="trailing"):
        load(work)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_huge_count_raises_format_error(fmt, run, work, data):
    offset, code = data.draw(st.sampled_from(FORMATS[fmt][3]))
    value = data.draw(HUGE[code])

    def edit(raw):
        struct.pack_into(code, raw, offset, value)
        return raw

    load, error = load_corrupted(fmt, run, work, edit)
    with pytest.raises(error):
        load(work)


# -- probes through the command line ----------------------------------------

def patch_triple(raw, split, col, value):
    """Set column ``col`` of the first ``split`` triple in triples.bin."""
    counts = struct.unpack_from("<3Q", raw, 24)
    row = sum(counts[:SPLITS.index(split)])
    struct.pack_into("<i", raw, 48 + 12 * row + 4 * col, value)
    return raw


def cut_in_header(raw):
    (hlen,) = struct.unpack_from("<I", raw, 8)
    return raw[:12 + hlen // 2]


# probe -> (format, edit of its bytes, words the error message holds)
PROBES = {
    "truncated-triples": ("triples", lambda raw: raw[:10], ["truncated"]),
    "truncated-tokens": ("tokens", lambda raw: raw[:10], ["truncated"]),
    "checkpoint-cut-in-header": ("checkpoint", cut_in_header,
                                 ["header", "truncated"]),
    "trailing-triples": ("triples", lambda raw: raw + b"junk", ["trailing"]),
    "trailing-tokens": ("tokens", lambda raw: raw + b"junk", ["trailing"]),
    "trailing-checkpoint": ("checkpoint", lambda raw: raw + b"junk",
                            ["trailing"]),
    "huge-entity-count-tokens": (
        "tokens", lambda raw: struct.pack_into("<Q", raw, 28, 2**40) or raw,
        ["records", "truncated"]),
    "test-id-too-large": ("triples",
                          lambda raw: patch_triple(raw, "test", 0, 10**6),
                          ["test head", "1000000", "out of range"]),
    "negative-train-id": ("triples",
                          lambda raw: patch_triple(raw, "train", 2, -3),
                          ["train tail", "-3", "out of range"]),
    "relation-id-equal-to-count": ("triples",
                                   lambda raw: patch_triple(raw, "valid", 1, 2),
                                   ["valid relation", "id 2 out of range [0, 2)"]),
    "anchor-id-too-large": (
        "tokens", lambda raw: struct.pack_into("<i", raw, 44, 10**6) or raw,
        ["anchor ids", "1000000", "out of range"]),
}


def eval_args(d):
    return ["eval", "--set", f"data={d / 'store'}",
            "--set", f"checkpoint={d / 'ckpt' / 'final.ckpt'}",
            "--set", f"token_cache={d / 'tokens.bin'}"]


def test_clean_run_evaluates(run, capsys):
    assert cli.main(eval_args(run)) == 0


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_raises_format_error_and_exits_2(probe, run, tmp_path, capsys):
    fmt, edit, words = PROBES[probe]
    d = tmp_path / "run"
    shutil.copytree(run, d)
    load, error = load_corrupted(fmt, run, d, edit)
    with pytest.raises(error):
        load(d)
    capsys.readouterr()
    assert cli.main(eval_args(d)) == 2
    err = capsys.readouterr().err
    path = str(d / FORMATS[fmt][0])
    assert err.count(path) == 1, err
    for word in words:
        assert word in err


def test_nan_in_checkpoint_exits_2(run, tmp_path, capsys):
    d = tmp_path / "run"
    shutil.copytree(run, d)
    path = d / "ckpt" / "final.ckpt"
    ckpt = tr.load_checkpoint(path)
    ckpt.params["rel"][1, 0] = np.nan
    tr.save_checkpoint(ckpt, path)
    capsys.readouterr()
    assert cli.main(eval_args(d)) == 2
    assert "non-finite value in rel row 1" in capsys.readouterr().err


def export_args(d):
    return ["export", "--set", f"checkpoint={d / 'ckpt' / 'final.ckpt'}",
            "--set", f"token_cache={d / 'tokens.bin'}",
            "--set", f"out={d / 'emb.bin'}"]


def test_nan_model_export_exits_2(run, tmp_path, capsys):
    d = tmp_path / "run"
    shutil.copytree(run, d)
    path = d / "ckpt" / "final.ckpt"
    ckpt = tr.load_checkpoint(path)
    ckpt.params["tok"][:] = np.nan
    tr.save_checkpoint(ckpt, path)
    capsys.readouterr()
    assert cli.main(export_args(d)) == 2
    assert "non-finite value in entity_base row 0" in capsys.readouterr().err
    assert not (d / "emb.bin").exists()


@pytest.mark.parametrize("args", [eval_args, export_args])
@pytest.mark.parametrize("key", ["dim", "step", "config_hash", "encoder.heads"])
def test_checkpoint_meta_key_missing_exits_2(run, tmp_path, capsys, key, args):
    d = tmp_path / "run"
    shutil.copytree(run, d)
    path = d / "ckpt" / "final.ckpt"
    ckpt = tr.load_checkpoint(path)
    *parent, name = key.split(".")
    entry = ckpt.meta[parent[0]] if parent else ckpt.meta
    del entry[name]
    tr.save_checkpoint(ckpt, path)
    with pytest.raises(tr.CheckpointError, match=f"missing key '{name}'"):
        tr.load_checkpoint(path)
    capsys.readouterr()
    assert cli.main(args(d)) == 2
    err = capsys.readouterr().err
    assert str(path) in err and f"missing key '{name}'" in err


def test_non_integer_vocab_id_names_file_and_line(run, tmp_path, capsys):
    d = tmp_path / "run"
    shutil.copytree(run, d)
    path = d / "store" / "entities.tsv"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2].split("\t")[0] + "\tx\n"
    path.write_text("".join(lines))
    capsys.readouterr()
    assert cli.main(eval_args(d)) == 2
    err = capsys.readouterr().err
    assert f"{path}: non-integer id 'x' at line 3" in err


# -- writes -----------------------------------------------------------------

def test_failed_write_leaves_target_and_no_temp_file(tmp_path):
    path = tmp_path / "f.bin"
    binfile.save(path, b"TEST", 1, np.arange(3, dtype="<i4"))
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        binfile.save(path, b"TEST", 1, b"head", "not an array")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin"]


def test_written_files_keep_the_umask_mode(tmp_path):
    binfile.save(tmp_path / "f.bin", b"TEST", 1)
    (tmp_path / "plain").write_bytes(b"")
    assert (tmp_path / "f.bin").stat().st_mode == \
        (tmp_path / "plain").stat().st_mode
