"""Generated bad inputs to all six subcommands, run in-process through main.

Each run gets generated flags, config-file lines, CSV bytes and model bytes,
and must exit 0, 1 or 2: a non-zero exit prints an ``error:`` line and an
exception never escapes ``main``. Every generated size is small or invalid,
so a run that trains finishes in a fraction of a second.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentigru.cli import _COMMANDS, main
from synth import keyword_corpus, write_csv

# subcommand -> the settings it takes a flag for
READS = {name: keys for name, (_, _, keys) in _COMMANDS.items()}

# first lines of every generated config file: a tiny model and a short run,
# which the generated lines and flags after them may override
BASE_CONFIG = ("vocab-size=40\nembed-dim=4\nseq-len=5\ngru-units=3,2,2\n"
               "epochs=1\nbatch-size=8\n")


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


JUNK = st.sampled_from(["", "x", "1e3", "nan", "inf", "-inf", "1.5", "0x10",
                        "1_0", " 3", "٣"])
FLOATS = st.sampled_from(["0", "0.3", "0.99", "1", "-0.1", "1e-3", "nan",
                          "inf", "-inf", "1e400"])

# key -> generated values: small valid ones, out-of-range ones and junk. A
# vocabulary of 10**15 rows is past any 64-bit address space, so building
# its embedding fails at once, whatever the host's overcommit policy.
VALUES = {
    "epochs": _ints(-2, 2) | JUNK,
    "batch_size": _ints(-3, 40) | JUNK,
    "lr": FLOATS | JUNK,
    "seed": _ints(-3, 3) | st.just(str(2**70)) | JUNK,
    "seq_len": _ints(-1, 6) | st.sampled_from(["1025", str(10**12)]) | JUNK,
    "vocab_size": _ints(-1, 60) | st.just(str(10**15)) | JUNK,
    "embed_dim": _ints(-1, 6) | JUNK,
    "gru_units": st.lists(st.integers(-1, 4), min_size=0, max_size=4).map(
        lambda us: ",".join(map(str, us))) | JUNK,
    "dropout": FLOATS | JUNK,
    "split": FLOATS | JUNK,
    "precision": st.sampled_from(["f32", "f64", "f16", "F32", ""]),
    "delimiter": st.text(max_size=2),
    "top": _ints(-3, 5) | JUNK,
    "text": st.text(max_size=40),
    "stratify": st.sampled_from(["true", "no", "maybe"]),
    "deterministic": st.sampled_from(["1", "false", ""]),
    "keep_stopwords": st.sampled_from(["yes", "0", "2"]),
}
BOOLS = ("stratify", "deterministic", "keep_stopwords")
# path-valued keys point only at the prepared files (see ``files``)
PATHS = {"data": ("csv", "missing", "dir", "model"),
         "model": ("model", "missing", "dir", "csv"),
         "stopwords": ("stop", "bad_stop", "missing", "dir"),
         "out": ("out", "dir", "csv"),
         "history": ("history", "dir")}


def key_values(keys):
    """(key, value) pairs for the given keys."""
    return st.one_of(
        *[st.tuples(st.just(k), v) for k, v in VALUES.items() if k in keys],
        *[st.tuples(st.just(k), st.sampled_from(names))
          for k, names in PATHS.items() if k in keys])


key_value = key_values(VALUES.keys() | PATHS.keys())

config_line = st.one_of(
    key_value.map(lambda kv: f"{kv[0].replace('_', '-')}={kv[1]}"),
    st.text(alphabet=st.characters(blacklist_characters="=\r\n"), max_size=12),
    st.just("warp-speed=9"), st.just("# comment"))

config_bytes = st.one_of(
    st.lists(config_line, max_size=4).map(
        lambda lines: (BASE_CONFIG + "".join(l + "\n" for l in lines)).encode()),
    st.binary(max_size=40).map(lambda b: BASE_CONFIG.encode() + b))

csv_row = st.tuples(
    st.text(max_size=30),
    st.integers(-1, 7).map(str) | JUNK | st.text(max_size=3))
csv_bytes = st.one_of(
    st.lists(csv_row, max_size=30).map(
        lambda rows: "text,label\n" + "".join(f"{t},{l}\n" for t, l in rows)),
    st.lists(st.sampled_from(["kwaa kwab fillab", "kwba kwbb", "kwca"]),
             min_size=0, max_size=30).map(
        lambda texts: "".join(f"{t},{i % 6}\n" for i, t in enumerate(texts))),
).map(str.encode) | st.binary(max_size=200)


@st.composite
def model_bytes(draw, valid: bytes):
    kind = draw(st.sampled_from(["valid", "flip", "truncate", "append", "random"]))
    if kind == "random":
        return draw(st.binary(max_size=100))
    raw = bytearray(valid)
    at = draw(st.integers(0, len(raw) - 1))
    if kind == "flip":
        raw[at] ^= 1 << draw(st.integers(0, 7))
    elif kind == "truncate":
        del raw[at:]
    elif kind == "append":
        raw += draw(st.binary(min_size=1, max_size=8))
    return bytes(raw)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {name: root / name for name in (
        "csv", "model", "missing", "dir", "stop", "bad_stop", "config")}
    paths["dir"].mkdir()
    paths["stop"].write_text("# my list\nthe\nkwaa\n")
    paths["bad_stop"].write_bytes(b"the\n\xe9\n")
    train_csv = root / "train.csv"
    write_csv(keyword_corpus(per_class=4, seed=1), train_csv)
    assert main(["train", "--data", str(train_csv), "--out", str(root / "valid.bin"),
                 "--vocab-size", "40", "--embed-dim", "4", "--seq-len", "5",
                 "--gru-units", "3,2,2", "--epochs", "1", "--batch-size", "8"]) == 0
    return root, paths, (root / "valid.bin").read_bytes()


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_run_exits_0_1_or_2_without_a_traceback(files, data):
    root, paths, valid = files
    command = data.draw(st.sampled_from(list(READS)), label="command")
    paths["csv"].write_bytes(data.draw(csv_bytes, label="csv"))
    paths["model"].write_bytes(data.draw(model_bytes(valid), label="model"))
    paths["config"].write_bytes(data.draw(config_bytes, label="config"))
    # three runs in four take flags only of the command's own settings, so
    # they get past the parser; the rest may take a flag it refuses
    own = data.draw(st.integers(0, 3), label="own") > 0
    flags = data.draw(st.lists(key_values(READS[command]) if own else key_value,
                               max_size=4), label="flags")
    with tempfile.TemporaryDirectory(dir=root) as work:
        where = dict(paths, out=os.path.join(work, "out"),
                     history=os.path.join(work, "history.json"))
        fixed = {"data": str(paths["csv"]), "model": str(paths["model"]),
                 "out": where["out"], "text": "kwaa and kwab"}
        argv = [command, "--config", str(paths["config"])]
        for key, value in fixed.items():
            if key in READS[command]:
                argv.append(f"--{key}={value}")
        for key, value in flags:
            flag = "--" + key.replace("_", "-")
            if key in PATHS:
                argv.append(f"{flag}={where[value]}")
            elif key in BOOLS:
                argv.append(flag)
            else:
                argv.append(f"{flag}={value}")
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), argv
    if code:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
