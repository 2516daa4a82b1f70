import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sentigru
from sentigru import corpus, layers, serialize, trainer
from sentigru.cli import _OPTIONS, main
from sentigru.model import MAX_SEQ_LEN, ModelConfig, build_model
from synth import keyword_corpus, write_csv

SMALL_FLAGS = [
    "--vocab-size", "60", "--embed-dim", "8", "--seq-len", "8",
    "--gru-units", "6,4,4", "--dropout", "0.1",
]


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.csv"
    write_csv(keyword_corpus(per_class=8, seed=1), path)
    return path


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, data_csv):
    out = tmp_path_factory.mktemp("model") / "model.bin"
    code = main(["train", "--data", str(data_csv), "--out", str(out),
                 "--epochs", "2", "--batch-size", "8", "--seed", "0",
                 *SMALL_FLAGS])
    assert code == 0
    return out


class TestSummary:
    def test_reference_architecture_counts(self, capsys):
        assert main(["summary", "--config", "paper"]) == 0
        out = capsys.readouterr().out
        for count in ("2500000", "123840", "117504", "512", "74496", "774"):
            assert count in out
        assert "2817126" in out.replace(",", "")

    def test_flags_shrink_the_architecture(self, capsys):
        assert main(["summary", *SMALL_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "480" in out  # 60 * 8 embedding table
        assert "(None, 8, 8)" in out

    def test_flag_overrides_preset(self, capsys):
        assert main(["summary", "--config", "paper", "--embed-dim", "10"]) == 0
        assert "500000" in capsys.readouterr().out  # 50000 * 10


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_flag(self, capsys):
        assert main(["train", "--out", "x.bin"]) == 1
        assert "--data" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "m.bin"), *SMALL_FLAGS])
        assert code == 2

    def test_corrupt_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a model at all")
        assert main(["predict", "--model", str(bad), "--text", "hi"]) == 2
        assert "magic" in capsys.readouterr().err

    def test_flipped_byte_in_model_file(self, trained_model, tmp_path, capsys):
        raw = bytearray(trained_model.read_bytes())
        raw[-20] ^= 0x01
        bad = tmp_path / "flipped.bin"
        bad.write_bytes(bytes(raw))
        assert main(["predict", "--model", str(bad), "--text", "hi"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checksum mismatch") and err.count("\n") == 1

    def test_malformed_dataset(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("text,label\nonly-one-field\n")
        code = main(["train", "--data", str(path),
                     "--out", str(tmp_path / "m.bin"), *SMALL_FLAGS])
        assert code == 2

    def test_bad_flag_value(self, capsys):
        assert main(["summary", "--gru-units", "1,2"]) == 1

    def test_out_of_range_dropout(self, capsys):
        assert main(["summary", "--dropout", "2.0"]) == 1
        assert "dropout_rate must be in [0, 1)" in capsys.readouterr().err

    def test_vocab_size_below_reserved_ids(self, tmp_path, data_csv, capsys):
        out = tmp_path / "m.bin"
        code = main(["train", "--data", str(data_csv), "--out", str(out),
                     "--vocab-size", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: vocab_size must be >= 3")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("batch_size", ["1", "37"])
    def test_batch_norm_batch_of_one_value(self, tmp_path, data_csv, capsys,
                                           batch_size):
        # 48 records split into 38 train rows: batch size 1 and the last
        # partial batch of 38 % 37 both leave one row of one token
        out = tmp_path / "m.bin"
        code = main(["train", "--data", str(data_csv), "--out", str(out),
                     "--batch-size", batch_size, "--seq-len", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: batch size {batch_size} with seq_len 1 "
                              "on a train split of 38 records")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["1e30", "1e39"])
    def test_a_rate_that_blows_up_the_parameters_is_one_line(
            self, tmp_path, capsys, lr):
        """60 rows, one step: the parameters become non-finite and so does
        the validation loss. One line, exit 2, and no model or history."""
        data = tmp_path / "d.csv"
        write_csv(keyword_corpus(per_class=10, seed=2), data)
        out, hist = tmp_path / "m.bin", tmp_path / "h.json"
        code = main(["train", "--data", str(data), "--out", str(out), "--history",
                     str(hist), "--lr", lr, "--epochs", "1", *SMALL_FLAGS])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: non-finite validation loss nan after epoch 1\n"
        assert not out.exists() and not hist.exists()

    @pytest.mark.parametrize("batch_size", [layers.SPLIT_ROWS // 2, layers.SPLIT_ROWS])
    def test_a_rate_that_blows_up_the_parameters_is_one_line_of_real_stderr(
            self, tmp_path, batch_size):
        """The same in a fresh process, whose stderr pytest's warning
        capture cannot hide: no numpy RuntimeWarning, from this thread or,
        from batch SPLIT_ROWS on, from the thread a BiGRU layer starts."""
        data = tmp_path / "d.csv"
        write_csv(keyword_corpus(per_class=10, seed=2), data)
        out = tmp_path / "m.bin"
        env = dict(os.environ, PYTHONPATH=str(Path(sentigru.__file__).parents[1]))
        child = subprocess.run(
            [sys.executable, "-m", "sentigru.cli", "train", "--data", str(data), "--out",
             str(out), "--lr", "1e39", "--epochs", "1", "--batch-size", str(batch_size),
             *SMALL_FLAGS], env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 2
        assert child.stderr.startswith("error: non-finite"), child.stderr
        assert child.stderr.count("\n") == 1, child.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag, target, message", [
        ("--out", "dir", "--out '{}' is a directory"),
        ("--out", "absent/m.bin", "--out '{}': its directory does not exist"),
        ("--history", "dir", "--history '{}' is a directory"),
        ("--history", "absent/h.json",
         "--history '{}': its directory does not exist"),
    ], ids=["out-dir", "out-parent", "history-dir", "history-parent"])
    def test_unwritable_output_fails_before_training(
            self, tmp_path, data_csv, capsys, monkeypatch, flag, target, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the output paths were checked")

        monkeypatch.setattr(trainer, "fit", no_fit)
        (tmp_path / "dir").mkdir()
        paths = {"--out": tmp_path / "m.bin", "--history": tmp_path / "h.json"}
        paths[flag] = tmp_path / target
        code = main(["train", "--data", str(data_csv),
                     "--out", str(paths["--out"]),
                     "--history", str(paths["--history"]), *SMALL_FLAGS])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {message.format(paths[flag])}\n"
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--data", "d.csv", "--out", "d.csv"], "--out 'd.csv' is also --data"),
        (["train", "--data", "d.csv", "--out", "m.sgru", "--history", "m.sgru"],
         "--out 'm.sgru' is also --history"),
        (["evaluate", "--data", "d.csv", "--model", "m.sgru", "--out", "m.sgru"],
         "--out 'm.sgru' is also --model"),
        (["train", "--data", "link.csv", "--out", "m.sgru", "--history", "d.csv"],
         "--history 'd.csv' is also --data"),
        (["train", "--data", "d.csv", "--out", "new.sgru", "--history", "sub/../new.sgru"],
         "--out 'new.sgru' is also --history"),
        (["predict", "--model", "m.sgru", "--text", "x", "--out", "stop.txt",
          "--stopwords", "stop.txt"], "--out 'stop.txt' is also --stopwords"),
        (["preprocess", "--data", "d.csv", "--config", "c.txt", "--out", "c.txt"],
         "--out 'c.txt' is also --config"),
    ], ids=["out-data", "out-history", "evaluate-out-model", "history-data-symlink",
            "new-out-history", "out-stopwords", "out-config"])
    def test_an_output_never_replaces_an_input(
            self, tmp_path, data_csv, trained_model, capsys, monkeypatch, argv, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the output paths were checked")

        monkeypatch.setattr(trainer, "fit", no_fit)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        inputs = {"d.csv": data_csv.read_bytes(), "m.sgru": trained_model.read_bytes(),
                  "stop.txt": b"the\n", "c.txt": b"epochs=1\n"}
        for name, content in inputs.items():
            (tmp_path / name).write_bytes(content)
        (tmp_path / "link.csv").symlink_to(tmp_path / "d.csv")
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert {name: (tmp_path / name).read_bytes() for name in inputs} == inputs
        assert not (tmp_path / "new.sgru").exists()

    @pytest.mark.parametrize("command", ["stats", "preprocess"])
    @pytest.mark.parametrize("key", ["data", "out"])
    def test_nul_byte_in_a_path_is_one_line(self, tmp_path, capsys, command, key):
        config = tmp_path / "c.txt"
        config.write_text(f"{key}=a\0b\n")
        assert main([command, "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: --{key} 'a\\x00b' holds a NUL byte\n"

    @pytest.mark.parametrize("content, message", [
        (b"text,label\nfine,1\ncaf\xe9,2\n", "invalid UTF-8 at row 3"),
        (b"text,label\n" + b"a" * (128 * 1024 + 1) + b",2\n",
         "field larger than field limit (131072) at row 2"),
    ])
    def test_unreadable_dataset_is_one_line(self, tmp_path, capsys, content,
                                            message):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        assert main(["stats", "--data", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_non_utf8_stopword_file_is_one_line(self, data_csv, tmp_path, capsys):
        sw = tmp_path / "sw.txt"
        sw.write_bytes(b"the\ncaf\xe9\n")
        assert main(["stats", "--data", str(data_csv), "--stopwords", str(sw)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: invalid UTF-8 in stopword file {str(sw)!r} at line 2\n"

    def test_non_utf8_config_file_is_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"embed-dim=12\n# caf\xe9\n")
        assert main(["summary", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: invalid UTF-8 in config file {str(cfg)!r} at line 2\n"

    @pytest.mark.parametrize("command", ["summary", "preprocess", "train"])
    @pytest.mark.parametrize("seq_len", ["0", str(MAX_SEQ_LEN + 1), str(10**12)])
    def test_seq_len_out_of_range(self, data_csv, tmp_path, capsys, command,
                                  seq_len):
        out = tmp_path / "m.bin"
        inputs = [] if command == "summary" else ["--data", str(data_csv), "--out", str(out)]
        code = main([command, *inputs, "--seq-len", seq_len])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: seq_len must be") and err.count("\n") == 1
        assert seq_len in err and "Traceback" not in err
        assert not out.exists()

    def test_preprocess_takes_the_largest_seq_len(self, data_csv, capsys):
        assert main(["preprocess", "--data", str(data_csv),
                     "--seq-len", str(MAX_SEQ_LEN)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["records"][0]["ids"]) == MAX_SEQ_LEN

    @pytest.mark.parametrize("command, flag, value, message", [
        ("evaluate", "--batch-size", "0", "batch_size must be >= 1"),
        ("evaluate", "--batch-size", "-3", "batch_size must be >= 1"),
        ("stats", "--top", "-1", "--top must be >= 0, got -1"),
        ("train", "--lr", "nan", "learning_rate must be finite and not negative"),
        ("train", "--lr", "inf", "learning_rate must be finite and not negative"),
        ("train", "--seed", "-1", "seed must be >= 0, got -1"),
        ("train", "--gru-units", "1,2", "gru_units must have exactly 3"),
        ("preprocess", "--vocab-size", "2", "vocab_size must be >= 3"),
    ])
    def test_bad_setting_is_one_line(self, data_csv, trained_model, tmp_path,
                                     capsys, command, flag, value, message):
        out = tmp_path / "out"
        model = ["--model", str(trained_model)] if command == "evaluate" else []
        code = main([command, "--data", str(data_csv), "--out", str(out), *model,
                     f"{flag}={value}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("evaluate", "--epochs", "0"),
        ("summary", "--split", "1.5"),
        ("summary", "--seed", "-1"),
    ])
    def test_unread_training_setting_is_not_checked(
            self, data_csv, trained_model, tmp_path, capsys, command, flag, value):
        """summary builds no weights and evaluate reads only --batch-size:
        neither takes the flag, and each drops the key from a config file
        without checking its value."""
        inputs = (["--model", str(trained_model), "--data", str(data_csv)]
                  if command == "evaluate" else [])
        assert main([command, *inputs, f"{flag}={value}"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: unrecognized arguments: {flag}={value}\n")
        config = tmp_path / "c.txt"
        config.write_text(f"{flag[2:]}={value}\n")
        assert main([command, *inputs, "--config", str(config)]) == 0
        assert capsys.readouterr().err.count("error") == 0

    @pytest.mark.parametrize("argv", [
        ["summary", "--out", "t.txt"],
        ["predict", "--model", "m.sgru", "--text", "hi", "--epochs", "0"],
        ["stats", "--data", "d.csv", "--model", "m.sgru"],
        ["evaluate", "--model", "m.sgru", "--data", "d.csv", "--history", "h.json"],
        # a flag has one spelling: no prefix of one is taken for it
        ["summary", "--embed", "10"],
        ["train", "--data", "d.csv", "--out", "n.sgru", "--epochs", "1", *SMALL_FLAGS,
         "--batch", "8"],
        ["evaluate", "--data", "d.csv", "--out", "r.json", "--mod", "m.sgru"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_a_flag_the_command_does_not_read_is_refused(
            self, tmp_path, data_csv, trained_model, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.csv").write_bytes(data_csv.read_bytes())
        (tmp_path / "m.sgru").write_bytes(trained_model.read_bytes())
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")
        assert "Traceback" not in captured.err and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "m.sgru"]

    def test_an_unknown_flag_shows_the_subcommand_usage(self, capsys):
        assert main(["summary", "--out", "t.txt"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments: --out t.txt\n")
        assert "\nusage: sentigru summary [-h] [--config CONFIG]" in err
        assert "{stats,preprocess,train,evaluate,predict,summary}" not in err

    def test_a_flag_before_the_subcommand_shows_the_top_level_usage(self, capsys):
        assert main(["--foo", "summary"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unrecognized arguments: --foo\n"
                                       "usage: sentigru [-h] {stats,")
        assert "usage: sentigru summary" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["summary", "train"])
    @pytest.mark.parametrize("flag, value", [
        ("--vocab-size", "100000000000000000000"),
        ("--embed-dim", "100000000000000000000"),
        ("--gru-units", "100000000000000000000,2,2")])
    def test_parameters_numpy_cannot_address_are_one_line(
            self, data_csv, tmp_path, capsys, command, flag, value):
        out = tmp_path / "m.bin"
        files = ["--data", str(data_csv), "--out", str(out)] if command == "train" else []
        assert main([command, *files, flag, value]) == 1
        err = capsys.readouterr().err
        assert err == ("error: the model's parameters would take more bytes than "
                       "numpy can address\n")
        assert not out.exists()

    # 57 flags across the six subcommands, --config included
    @pytest.mark.parametrize("command, keys", [
        ("stats", "data delimiter stopwords keep-stopwords out top"),
        ("preprocess", "data delimiter stopwords keep-stopwords out seq-len vocab-size"),
        ("train", "data delimiter stopwords keep-stopwords out history deterministic "
                  "epochs batch-size lr seed split stratify seq-len vocab-size "
                  "embed-dim gru-units dropout precision"),
        ("evaluate", "model data delimiter stopwords keep-stopwords out batch-size"),
        ("predict", "model text stopwords keep-stopwords out"),
        ("summary", "model seq-len vocab-size embed-dim gru-units dropout precision"),
    ])
    def test_help_lists_only_the_flags_the_command_reads(self, capsys, command, keys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {"--help", "--config", *(f"--{k}" for k in keys.split())}

    def test_one_config_file_sets_every_key(self, tmp_path, data_csv, trained_model,
                                            capsys, monkeypatch):
        """Config files share one key space: each command drops the keys it
        does not read, and checks only the ones it does."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "stop.txt").write_text("the\n")
        settings = {
            "data": data_csv, "stopwords": "stop.txt", "keep-stopwords": "no",
            "model": trained_model, "out": "t.txt", "history": "h.json",
            "text": "hi", "epochs": "0", "batch-size": "8", "lr": "0.01",
            "seed": "-1", "seq-len": "8", "vocab-size": "60", "embed-dim": "8",
            "gru-units": "6,4,4", "dropout": "0.1", "split": "1.5",
            "stratify": "no", "deterministic": "yes", "precision": "f32",
            "delimiter": ",", "top": "-1",
        }
        assert {k.replace("-", "_") for k in settings} == set(_OPTIONS)
        (tmp_path / "all.cfg").write_text(
            "".join(f"{k}={v}\n" for k, v in settings.items()))
        assert main(["summary", "--config", "all.cfg"]) == 0
        assert "total" in capsys.readouterr().out
        assert not (tmp_path / "t.txt").exists()
        assert main(["preprocess", "--config", "all.cfg"]) == 0
        assert json.loads((tmp_path / "t.txt").read_text())["seq_len"] == 8
        assert main(["train", "--config", "all.cfg"]) == 1
        assert capsys.readouterr().err.startswith("error: epochs must be >= 1")
        assert not (tmp_path / "h.json").exists()

    @pytest.mark.parametrize("command, rows, message", [
        ("train", "", "need at least 2 records to split, got 0"),
        ("train", "kwaa kwab,0\n", "need at least 2 records to split, got 1"),
        ("evaluate", "", "cannot compute metrics for an empty matrix"),
    ])
    def test_too_few_records_is_one_line(self, trained_model, tmp_path, capsys,
                                         command, rows, message):
        path = tmp_path / "few.csv"
        path.write_text("text,label\n" + rows)
        inputs = (["--model", str(trained_model)] if command == "evaluate"
                  else ["--out", str(tmp_path / "m.bin"), *SMALL_FLAGS])
        code = main([command, "--data", str(path), *inputs])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.endswith(f"{message}\n")
        assert err.count("\n") == 1

    def test_multi_character_delimiter(self, data_csv, capsys):
        assert main(["stats", "--data", str(data_csv), "--delimiter", "ab"]) == 1
        assert "--delimiter must be one character" in capsys.readouterr().err

    def test_tab_delimiter_in_a_config_file(self, data_csv, tmp_path, capsys):
        """A config file sets a tab delimiter as the flag does: the tab is
        the value, not whitespace around it."""
        tsv = tmp_path / "train.tsv"
        tsv.write_text(data_csv.read_text().replace(",", "\t"))
        assert main(["stats", "--data", str(tsv), "--delimiter", "\t"]) == 0
        by_flag = capsys.readouterr().out
        cfg = tmp_path / "tab.cfg"
        cfg.write_text("delimiter=\t\n")
        assert main(["stats", "--data", str(tsv), "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == by_flag
        assert json.loads(by_flag)["all"]["entries"]

    @pytest.mark.parametrize("quoted", ['" "', "' '"])
    def test_space_delimiter_in_a_config_file(self, data_csv, tmp_path, capsys, quoted):
        """A config file sets a space delimiter in one pair of quotes, as
        the flag does; other quoted delimiters lose their quotes too."""
        ssv = tmp_path / "train.ssv"
        with open(data_csv, newline="") as src, open(ssv, "w", newline="") as dst:
            csv.writer(dst, delimiter=" ").writerows(csv.reader(src))
        assert main(["stats", "--data", str(ssv), "--delimiter", " "]) == 0
        by_flag = capsys.readouterr().out
        assert json.loads(by_flag)["all"]["entries"]
        cfg = tmp_path / "space.cfg"
        cfg.write_text(f"delimiter={quoted}\n")
        assert main(["stats", "--data", str(ssv), "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == by_flag
        cfg.write_text(f"delimiter={quoted[0]},{quoted[0]}\n")
        assert main(["stats", "--data", str(data_csv), "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["all"]["entries"]

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp-speed=9\n")
        assert main(["summary", "--config", str(cfg)]) == 1
        assert "unknown config key 'warp_speed'" in capsys.readouterr().err


class TestConfigPrecedence:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nembed-dim=12\nvocab-size=100\n")
        assert main(["summary", "--config", str(cfg)]) == 0
        assert "1200" in capsys.readouterr().out  # 100 * 12 from the file
        assert main(["summary", "--config", str(cfg), "--embed-dim", "5"]) == 0
        assert "500" in capsys.readouterr().out  # flag wins over the file


class TestPreprocess:
    def test_tokens_and_ids(self, data_csv, capsys):
        assert main(["preprocess", "--data", str(data_csv),
                     "--vocab-size", "60", "--seq-len", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seq_len"] == 8
        assert len(doc["records"]) == 48
        first = doc["records"][0]
        assert set(first) == {"label", "label_name", "tokens", "ids"}
        assert len(first["ids"]) == 8
        assert all(isinstance(i, int) for i in first["ids"])


class TestStats:
    def test_single_document(self, data_csv, capsys):
        assert main(["stats", "--data", str(data_csv), "--top", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"sadness", "joy", "love", "anger", "fear",
                            "surprise", "all"}
        assert len(doc["all"]["entries"]) == 3

    def test_directory_output(self, data_csv, tmp_path):
        out = tmp_path / "tables"
        assert main(["stats", "--data", str(data_csv),
                     "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("*.json"))
        assert names == sorted(f"{n}.json" for n in (
            "sadness", "joy", "love", "anger", "fear", "surprise", "all"))
        joy = json.loads((out / "joy.json").read_text())
        assert joy["label_name"] == "joy"


class TestTrainEvaluatePredict:
    def test_train_writes_model_and_history(self, tmp_path, data_csv, capsys):
        out = tmp_path / "m.bin"
        hist = tmp_path / "h.json"
        code = main(["train", "--data", str(data_csv), "--out", str(out),
                     "--history", str(hist), "--epochs", "2",
                     "--batch-size", "8", *SMALL_FLAGS])
        assert code == 0
        assert out.exists()
        doc = json.loads(hist.read_text())
        records = doc["epochs"]
        assert len(records) == 2
        assert {"epoch", "train_loss", "val_acc"} <= set(records[0])
        assert doc["summary"]["final_val_acc"] == records[-1]["val_acc"]
        err = capsys.readouterr().err
        assert "epoch 1:" in err and "epoch 2:" in err
        assert "saved model to" in err

    def test_evaluate_reports_all_views(self, trained_model, data_csv, capsys):
        code = main(["evaluate", "--model", str(trained_model),
                     "--data", str(data_csv)])
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert {"confusion", "accuracy", "per_class", "macro", "micro",
                "weighted", "total"} <= set(doc)
        assert len(doc["per_class"]) == 6
        assert doc["per_class"][1]["label_name"] == "joy"
        assert "accuracy" in captured.err

    def test_predict_emits_label_and_distribution(self, trained_model, capsys):
        code = main(["predict", "--model", str(trained_model),
                     "--text", "i feel kwba kwbb today"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["label_name"] in (
            "sadness", "joy", "love", "anger", "fear", "surprise")
        assert doc["label"] == ("sadness", "joy", "love", "anger",
                                "fear", "surprise").index(doc["label_name"])
        assert len(doc["probabilities"]) == 6
        assert sum(doc["probabilities"]) == pytest.approx(1.0, abs=1e-5)

    def test_predict_names_no_label_past_the_six(self, tmp_path, capsys):
        config = ModelConfig(vocab_size=10, embed_dim=3, seq_len=4,
                             gru_units=(2, 2, 2), num_classes=8)
        model = build_model(config, seed=0)
        dense = model.named_layers[-1][1]
        dense.b[7] = 100.0
        vocab = corpus.build_vocabulary([["hi"]], max_size=config.vocab_size)
        path = tmp_path / "c8.bin"
        serialize.save(model, vocab, path)
        assert main(["predict", "--model", str(path), "--text", "hi"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["label"] == 7 and doc["label_name"] is None
        assert len(doc["probabilities"]) == 8

    def test_deterministic_runs_are_byte_identical(self, tmp_path, data_csv):
        payloads = []
        for run in ("a", "b"):
            out = tmp_path / f"{run}.bin"
            hist = tmp_path / f"{run}.json"
            code = main(["train", "--data", str(data_csv), "--out", str(out),
                         "--history", str(hist), "--epochs", "1",
                         "--batch-size", "8", "--seed", "7",
                         "--deterministic", *SMALL_FLAGS])
            assert code == 0
            payloads.append((out.read_bytes(), hist.read_bytes()))
        assert payloads[0] == payloads[1]
