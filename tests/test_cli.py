import json
import struct
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import kgembed
from kgembed import cli
from kgembed.data import TripleStore
from kgembed.model import build_model
from kgembed.training import TrainConfig, make_checkpoint, save_checkpoint


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    import os
    for key in list(os.environ):
        if key.startswith(cli.ENV_PREFIX):
            monkeypatch.delenv(key)


def write_labeled_triples(path, rows):
    path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows))


def ingest_line_store(tmp_path, rows=None, test_rows=None):
    """Ingest a small numeric store through the real command."""
    train = tmp_path / "train.tsv"
    write_labeled_triples(train, rows or [(0, 0, 1), (1, 0, 2)])
    args = ["ingest", "--set", f"train_file={train}",
            "--set", f"out={tmp_path / 'store'}", "--set", "format=numeric",
            "--set", "num_entities=4", "--set", "num_relations=1"]
    if test_rows is not None:
        tf = tmp_path / "test.tsv"
        write_labeled_triples(tf, test_rows)
        args += ["--set", f"test_file={tf}"]
    assert cli.main(args) == 0
    return tmp_path / "store"


def line_checkpoint(tmp_path, positions, shift=1.0):
    m = build_model("transe", len(positions), 1, 1, p=1, dtype=np.float64)
    m.params["ent"] = np.asarray(positions, dtype=np.float64).reshape(-1, 1)
    m.params["rel"] = np.full((1, 1), float(shift))
    cfg = TrainConfig(model="transe", dim=1)
    ckpt = make_checkpoint(m, cfg, 0, np.random.default_rng(0))
    path = tmp_path / "line.ckpt"
    save_checkpoint(ckpt, path)
    return path


class TestParseValue:
    def test_types(self):
        assert cli.parse_value("dim", " 64 ") == 64
        assert cli.parse_value("lr", "1e-3") == 1e-3
        assert cli.parse_value("model", "transe") == "transe"

    @pytest.mark.parametrize("text,value", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("False", False), ("no", False), ("off", False),
    ])
    def test_bool_spellings(self, text, value):
        assert cli.parse_value("tokenized", text) is value

    def test_bad_bool(self):
        with pytest.raises(cli.ConfigError, match="boolean"):
            cli.parse_value("tokenized", "maybe")

    def test_bad_int(self):
        with pytest.raises(cli.ConfigError, match="int"):
            cli.parse_value("dim", "wide")


class TestResolveConfig:
    def test_defaults(self):
        cfg, explicit = cli.resolve_config(env={})
        assert cfg["model"] == "interht" and cfg["dim"] == 200
        assert explicit == set()

    def test_precedence_chain(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("dim = 100   # comment\nlr=0.01\n\n")
        env = {"KGEMBED_DIM": "64", "KGEMBED_SEED": "9"}
        cfg, explicit = cli.resolve_config(
            preset="interht-wikikg2", config_file=str(conf),
            sets=["dim=32", "gamma=6", "adv_alpha=1"], env=env,
        )
        assert cfg["dim"] == 32          # --set beats everything
        assert cfg["seed"] == 9          # env beats file and preset
        assert cfg["lr"] == 0.01         # file beats preset
        assert cfg["model"] == "interht"  # preset beats default
        assert {"dim", "seed", "lr", "gamma"} <= explicit

    def test_preset_values(self):
        cfg, _ = cli.resolve_config(preset="interht-plus-wikikg2",
                                    sets=["gamma=6", "adv_alpha=1"], env={})
        assert cfg["model"] == "interht_plus"
        assert cfg["dim"] == 512 and cfg["u"] == 0.05
        assert cfg["tokenized"] is True and cfg["anchors"] == 20000

    def test_preset_requires_margin_settings(self):
        with pytest.raises(cli.ConfigError, match="adv_alpha, gamma"):
            cli.resolve_config(preset="interht-wikikg2", env={})

    def test_unknown_preset_lists_available(self):
        with pytest.raises(cli.ConfigError, match="interht-wikikg2"):
            cli.resolve_config(preset="wn18rr", env={})

    def test_unknown_set_key_lists_valid_keys(self):
        with pytest.raises(cli.ConfigError, match="adv_alpha"):
            cli.resolve_config(sets=["depth=3"], env={})

    def test_set_needs_equals(self):
        with pytest.raises(cli.ConfigError, match="key=value"):
            cli.resolve_config(sets=["dim"], env={})

    def test_config_file_errors_carry_line(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("dim=8\nwhatisthis\n")
        with pytest.raises(cli.ConfigError, match=":2"):
            cli.resolve_config(config_file=str(conf), env={})

    def test_config_file_unknown_key(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("dimension=8\n")
        with pytest.raises(cli.ConfigError, match="unknown config key"):
            cli.resolve_config(config_file=str(conf), env={})

    def test_train_config_from_validates(self):
        cfg, _ = cli.resolve_config(sets=["p=3"], env={})
        with pytest.raises(cli.ConfigError, match="norm order"):
            cli.train_config_from(cfg)

    def test_presets_pin_every_key(self):
        for preset in cli.PRESETS.values():
            assert set(preset) == set(cli.CONFIG_KEYS)


class TestIngest:
    def test_worked_example(self, tmp_path, capsys):
        # three labeled triples over entities {a,b,c} and relations {r1,r2}
        train = tmp_path / "train.tsv"
        write_labeled_triples(train, [("a", "r1", "b"), ("b", "r2", "c"),
                                      ("a", "r1", "c")])
        rc = cli.main(["ingest", "--set", f"train_file={train}",
                       "--set", f"out={tmp_path / 'store'}"])
        captured = capsys.readouterr()
        assert rc == 0
        stats = json.loads(captured.out)
        assert stats["entities"] == 3 and stats["relations"] == 2
        assert stats["train"] == 3
        assert "entities=3 relations=2 train=3" in captured.err
        assert (tmp_path / "store").is_dir()

    def test_optional_splits_reported(self, tmp_path, capsys):
        store = ingest_line_store(tmp_path, test_rows=[(2, 0, 3)])
        captured = capsys.readouterr()
        assert "test=1" in captured.err
        assert store.is_dir()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["ingest", "--set", "train_file=/nonexistent.tsv",
                       "--set", f"out={tmp_path / 'store'}"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_train_file_required(self, tmp_path, capsys):
        rc = cli.main(["ingest", "--set", f"out={tmp_path / 'store'}"])
        assert rc == 2
        assert "train_file" in capsys.readouterr().err


class TestTokenize:
    def test_writes_cache_and_stats(self, tmp_path, capsys):
        store = ingest_line_store(tmp_path)
        capsys.readouterr()
        cache = tmp_path / "tokens.bin"
        rc = cli.main(["tokenize", "--set", f"data={store}",
                       "--set", f"token_cache={cache}",
                       "--set", "anchors=2", "--set", "k_anc=2",
                       "--set", "k_in=1", "--set", "k_out=1"])
        captured = capsys.readouterr()
        assert rc == 0
        stats = json.loads(captured.out)
        assert stats["anchors"] == 2 and stats["nodes"] == 4
        assert "one_hop_coverage" in captured.err
        from kgembed.anchors import load_token_cache
        assert load_token_cache(cache).num_entities == 4

    def test_random_anchors_cache_loads(self, tmp_path, capsys):
        from kgembed.anchors import load_token_cache, select_global_anchors
        from kgembed.data import TripleStore
        store = ingest_line_store(tmp_path)
        capsys.readouterr()
        caches = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for cache in caches:
            assert cli.main(["tokenize", "--set", f"data={store}",
                             "--set", f"token_cache={cache}",
                             "--set", "anchor_strategy=random",
                             "--set", "seed=4", "--set", "anchors=2",
                             "--set", "k_anc=2", "--set", "k_in=1",
                             "--set", "k_out=1"]) == 0
            assert json.loads(capsys.readouterr().out)["anchors"] == 2
        tg = load_token_cache(caches[0])
        want = select_global_anchors(TripleStore.load(store), 2, "random",
                                     seed=4)
        np.testing.assert_array_equal(tg.anchor_ids, want.anchor_ids)
        assert tg.num_entities == 4
        assert caches[0].read_bytes() == caches[1].read_bytes()

    def test_needs_data(self, capsys):
        rc = cli.main(["tokenize", "--set", "token_cache=/tmp/x.bin"])
        assert rc == 2
        assert "data=" in capsys.readouterr().err


class TestTrain:
    def train_args(self, store, tmp_path, extra=()):
        return ["train", "--set", f"data={store}",
                "--set", f"checkpoint_dir={tmp_path / 'ckpt'}",
                "--set", "model=transe", "--set", "dim=8",
                "--set", "gamma=4", "--set", "batch_size=4",
                "--set", "neg_size=4", "--set", "steps_max=20",
                "--set", "log_every=10", *extra]

    def test_small_run_logs_and_checkpoints(self, tmp_path, capsys):
        store = ingest_line_store(tmp_path)
        capsys.readouterr()
        log_file = tmp_path / "metrics.jsonl"
        rc = cli.main(self.train_args(store, tmp_path,
                                      ["--set", f"log_file={log_file}"]))
        captured = capsys.readouterr()
        assert rc == 0
        lines = [json.loads(x) for x in captured.out.strip().splitlines()]
        assert [r["step"] for r in lines] == [10, 20]
        assert all("loss" in r for r in lines)
        assert (tmp_path / "ckpt" / "final.ckpt").exists()
        logged = [json.loads(x) for x in log_file.read_text().splitlines()]
        assert logged == lines
        assert "done: step=20" in captured.err

    def test_zero_steps_writes_initial_state(self, tmp_path, capsys):
        store = ingest_line_store(tmp_path)
        capsys.readouterr()
        rc = cli.main(self.train_args(store, tmp_path,
                                      ["--set", "steps_max=0"]))
        assert rc == 0
        assert (tmp_path / "ckpt" / "final.ckpt").exists()
        from kgembed.training import load_checkpoint
        assert load_checkpoint(tmp_path / "ckpt" / "final.ckpt").meta["step"] == 0

    def test_tokenized_needs_cache_file(self, tmp_path, capsys):
        store = ingest_line_store(tmp_path)
        capsys.readouterr()
        rc = cli.main(self.train_args(store, tmp_path,
                                      ["--set", "tokenized=true"]))
        assert rc == 2
        assert "token_cache" in capsys.readouterr().err

    def test_full_tokenized_pipeline(self, tmp_path, capsys):
        store = ingest_line_store(tmp_path, test_rows=[(2, 0, 3)])
        cache = tmp_path / "tokens.bin"
        assert cli.main(["tokenize", "--set", f"data={store}",
                         "--set", f"token_cache={cache}",
                         "--set", "anchors=2", "--set", "k_anc=2",
                         "--set", "k_in=1", "--set", "k_out=1"]) == 0
        rc = cli.main(self.train_args(store, tmp_path, [
            "--set", "tokenized=true", "--set", f"token_cache={cache}",
            "--set", "model=interht", "--set", "dim=4", "--set", "d_tok=8",
            "--set", "heads=2", "--set", "steps_max=5", "--set", "log_every=5",
        ]))
        assert rc == 0
        capsys.readouterr()
        rc = cli.main(["eval", "--set", f"data={store}",
                       "--set", f"checkpoint={tmp_path / 'ckpt' / 'final.ckpt'}",
                       "--set", f"token_cache={cache}"])
        captured = capsys.readouterr()
        assert rc == 0
        report = json.loads(captured.out)
        assert 0.0 < report["mrr"] <= 1.0 and report["count"] == 2

    @pytest.mark.parametrize("setting, message", [
        ("heads=0", "heads must be positive"),
        ("heads=-2", "heads must be positive"),
        ("d_tok=-8", "d_tok must be positive"),
        ("ffn_mult=0", "ffn_mult must be positive"),
    ])
    def test_bad_encoder_size_exits_2(self, tmp_path, capsys, setting,
                                      message):
        store = ingest_line_store(tmp_path)
        cache = tmp_path / "tokens.bin"
        assert cli.main(["tokenize", "--set", f"data={store}",
                         "--set", f"token_cache={cache}",
                         "--set", "anchors=2", "--set", "k_anc=2",
                         "--set", "k_in=1", "--set", "k_out=1"]) == 0
        capsys.readouterr()
        rc = cli.main(self.train_args(store, tmp_path, [
            "--set", "tokenized=true", "--set", f"token_cache={cache}",
            "--set", "model=interht", "--set", "dim=4", "--set", "d_tok=8",
            "--set", "heads=2", "--set", setting,
        ]))
        assert rc == 2
        assert message in capsys.readouterr().err


class TestEval:
    def test_perfect_model_scores_one(self, tmp_path, capsys):
        store = ingest_line_store(tmp_path, test_rows=[(2, 0, 3)])
        ckpt = line_checkpoint(tmp_path, [0, 1, 2, 3])
        capsys.readouterr()
        rc = cli.main(["eval", "--set", f"data={store}",
                       "--set", f"checkpoint={ckpt}"])
        captured = capsys.readouterr()
        assert rc == 0
        report = json.loads(captured.out)
        assert report["mrr"] == 1.0
        assert report["protocol"] == "filtered-full"
        assert "mrr=1.0000" in captured.err

    def test_explicit_mismatch_rejected(self, tmp_path, capsys):
        store = ingest_line_store(tmp_path, test_rows=[(2, 0, 3)])
        ckpt = line_checkpoint(tmp_path, [0, 1, 2, 3])
        capsys.readouterr()
        rc = cli.main(["eval", "--set", f"data={store}",
                       "--set", f"checkpoint={ckpt}", "--set", "dim=200"])
        assert rc == 2
        assert "checkpoint has dim=1" in capsys.readouterr().err

    def test_empty_train_split_exits_2(self, tmp_path, capsys):
        store = ingest_line_store(tmp_path, test_rows=[(2, 0, 3)])
        kg = TripleStore.load(store)
        kg.splits["train"] = kg.splits["train"][:0]
        kg.save(store)
        ckpt = line_checkpoint(tmp_path, [0, 1, 2, 3])
        capsys.readouterr()
        rc = cli.main(["eval", "--set", f"data={store}",
                       "--set", f"checkpoint={ckpt}"])
        assert rc == 2
        assert "train split is empty" in capsys.readouterr().err

    def test_checkpoint_required(self, tmp_path, capsys):
        store = ingest_line_store(tmp_path, test_rows=[(2, 0, 3)])
        capsys.readouterr()
        rc = cli.main(["eval", "--set", f"data={store}"])
        assert rc == 2
        assert "checkpoint=" in capsys.readouterr().err

    def test_candidate_set_protocol(self, tmp_path, capsys):
        store = ingest_line_store(tmp_path, test_rows=[(2, 0, 3)])
        ckpt = line_checkpoint(tmp_path, [0, 1, 2, 3])
        cand = tmp_path / "cand.tsv"
        cand.write_text("0\t1\n")
        capsys.readouterr()
        rc = cli.main(["eval", "--set", f"data={store}",
                       "--set", f"checkpoint={ckpt}",
                       "--set", "protocol=candidate-set",
                       "--set", f"candidates_tail={cand}",
                       "--set", "both_directions=false"])
        captured = capsys.readouterr()
        assert rc == 0
        assert json.loads(captured.out)["count"] == 1


class TestGradcheckCommand:
    def test_all_kernels_reported(self, capsys):
        rc = cli.main(["gradcheck", "--set", "gc_instances=10",
                       "--set", "gc_dim=6"])
        captured = capsys.readouterr()
        assert rc == 0
        rows = [json.loads(x) for x in captured.out.strip().splitlines()]
        names = {r["kernel"] for r in rows}
        from kgembed.scoring import MODEL_KINDS
        assert names == set(MODEL_KINDS) | {"encoder"}
        assert all(r["pass"] for r in rows)
        assert "encoder" in captured.err

    def test_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.gradcheck, "check_all_kernels",
                            lambda **kw: {"transe": 1.0})
        monkeypatch.setattr(cli.gradcheck, "check_transformer",
                            lambda **kw: 0.0)
        rc = cli.main(["gradcheck"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "FAIL" in captured.err


class TestExport:
    def test_written_tables_match_model(self, tmp_path, capsys):
        store = ingest_line_store(tmp_path, test_rows=[(2, 0, 3)])
        ckpt = line_checkpoint(tmp_path, [0, 1, 2, 3])
        out = tmp_path / "emb.bin"
        capsys.readouterr()
        rc = cli.main(["export", "--set", f"checkpoint={ckpt}",
                       "--set", f"out={out}"])
        assert rc == 0
        data = out.read_bytes()
        assert data[:4] == cli.EXPORT_MAGIC
        version, hlen = struct.unpack("<II", data[4:12])
        assert version == 1
        header = json.loads(data[12:12 + hlen])
        assert header["kind"] == "transe" and header["dim"] == 1
        assert header["tables"] == [["entity_base", [4, 1]], ["rel", [1, 1]]]
        body = np.frombuffer(data[12 + hlen:], dtype="<f4")
        np.testing.assert_array_equal(body, [0, 1, 2, 3, 1])

    def test_out_required(self, tmp_path, capsys):
        ckpt = line_checkpoint(tmp_path, [0, 1])
        rc = cli.main(["export", "--set", f"checkpoint={ckpt}"])
        assert rc == 2
        assert "out=" in capsys.readouterr().err


class TestParser:
    def test_help_lists_every_config_key(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for key in cli.CONFIG_KEYS:
            assert key in text
        assert "(presets leave this required)" in text
        assert "interht-wikikg2" in text

    def test_console_entry_point(self):
        res = subprocess.run(
            [sys.executable, "-m", "kgembed.cli", "--help"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        for command in cli.COMMANDS:
            assert command in res.stdout


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        assert kgembed.__version__ == tomllib.load(f)["project"]["version"]
