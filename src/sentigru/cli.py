"""Command-line entry point.

Subcommands: stats, preprocess, train, evaluate, predict, summary; each takes
--config and one flag per setting it reads (its row of _COMMANDS). Settings
resolve as defaults, then --config (the "paper" preset or a key=value file),
then explicit flags. Config files share one key space: an unknown key or a
bad value is a usage error, and a key the subcommand does not read is dropped.
Exit codes: 0 success, 1 usage error, 2 data or model error.
"""

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import corpus as corpus_mod
from . import metrics, serialize, trainer, wordstats
from . import model as model_mod


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through UsageError
    # so main() can map usage problems to exit code 1 instead
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


_PRECISIONS = {"f32": "float32", "f64": "float64"}
_MODEL = model_mod.ModelConfig()
_TRAIN = trainer.TrainConfig()

# key -> (type, default, help): the one source of the defaults, the
# config-file value types and the flags. Model and training defaults are the
# ModelConfig and TrainConfig defaults, which are the paper's hyperparameters.
_OPTIONS = {
    "data": (str, None, "labeled CSV/TSV input"),
    "stopwords": (str, None, "custom stopword file, one per line"),
    "keep_stopwords": (bool, False, "skip stopword filtering"),
    "model": (str, None, "saved model file"),
    "out": (str, None, "output path (directory for stats)"),
    "history": (str, None, "write per-epoch history JSON here"),
    "text": (str, None, "text to classify"),
    "epochs": (int, _TRAIN.epochs, None),
    "batch_size": (int, _TRAIN.batch_size, None),
    "lr": (float, _TRAIN.learning_rate, None),
    "seed": (int, _TRAIN.seed, None),
    "seq_len": (int, _MODEL.seq_len, None),
    "vocab_size": (int, _MODEL.vocab_size, None),
    "embed_dim": (int, _MODEL.embed_dim, None),
    "gru_units": (str, ",".join(map(str, _MODEL.gru_units)),
                  "three comma-separated unit counts"),
    "dropout": (float, _MODEL.dropout_rate, None),
    "split": (float, _TRAIN.train_fraction, "train fraction, e.g. 0.8"),
    "stratify": (bool, _TRAIN.stratify, None),
    "deterministic": (bool, False, None),
    "precision": (str, {v: k for k, v in _PRECISIONS.items()}[_MODEL.dtype],
                  "f32 or f64"),
    "delimiter": (str, ",", None),
    "top": (int, 50, "entries per stats table"),
}


def _coerce(key: str, value: str):
    kind = _OPTIONS[key][0]
    try:
        if kind is bool:
            low = value.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        return kind(value)
    except ValueError as exc:
        raise UsageError(f"bad value for config key {key!r}: {exc}") from exc


def _read_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise UsageError(f"invalid UTF-8 in config file {path!r} at line "
                         f"{corpus_mod.undecodable_line(path)}") from None
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = raw.partition("=")
        key = key.strip().replace("-", "_")
        if not sep:
            raise UsageError(f"expected key=value at line {lineno}: {line!r}")
        if key not in _OPTIONS:
            raise UsageError(f"unknown config key {key!r} at line {lineno}")
        # a tab delimiter is whitespace, which strip() would drop; a space
        # is written in one pair of quotes, delimiter=" " or delimiter=' '
        value = value.strip(" \n" if key == "delimiter" else None)
        if key == "delimiter" and len(value) >= 2 and value[0] == value[-1] in "\"'":
            value = value[1:-1]
        out[key] = _coerce(key, value)
    return out


def _settings(args, keys) -> dict:
    """The settings named by ``keys``, the ones the subcommand reads."""
    s = {key: _OPTIONS[key][1] for key in keys}
    # the "paper" preset is the defaults themselves
    if args.config and args.config != "paper":
        s.update((k, v) for k, v in _read_config_file(args.config).items() if k in s)
    s.update((k, getattr(args, k)) for k in keys if getattr(args, k) is not None)
    # before any work: a path names a file, and an output replaces no input
    # and not the other output
    files = {k: s.get(k) for k in ("data", "model", "stopwords", "out", "history")}
    files["config"] = None if args.config == "paper" else args.config
    for key, path in files.items():
        if path is not None and "\0" in path:
            raise UsageError(f"--{key} {path!r} holds a NUL byte")
    for out, target in (("out", files["out"]), ("history", files["history"])):
        for key, path in files.items():
            if key != out and None not in (target, path) and _same_file(target, path):
                raise UsageError(f"--{out} {target!r} is also --{key}")
    return s


def _same_file(a, b) -> bool:
    a, b = Path(a), Path(b)
    return a.samefile(b) if a.exists() and b.exists() else a.resolve() == b.resolve()


def _require(s: dict, *keys):
    for key in keys:
        if s[key] is None:
            flag = "--" + key.replace("_", "-")
            raise UsageError(f"{flag} is required for this command")


def _parse_units(value) -> tuple:
    try:
        return tuple(int(p) for p in str(value).split(","))
    except ValueError:
        raise UsageError(f"bad gru-units value {value!r}, expected e.g. 120,64,64")


def _checked(config_class, **fields):
    """A ModelConfig or TrainConfig; a value it rejects is a usage error."""
    try:
        return config_class(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _model_config(s: dict) -> model_mod.ModelConfig:
    dtype = _PRECISIONS.get(s["precision"])
    if dtype is None:
        raise UsageError(f"precision must be f32 or f64, got {s['precision']!r}")
    return _checked(
        model_mod.ModelConfig, vocab_size=s["vocab_size"], embed_dim=s["embed_dim"],
        seq_len=s["seq_len"], gru_units=_parse_units(s["gru_units"]),
        dropout_rate=s["dropout"], dtype=dtype)


def _stoplist(s: dict) -> frozenset:
    if s["keep_stopwords"]:
        return frozenset()
    if s["stopwords"]:
        return corpus_mod.load_stopwords(s["stopwords"])
    return corpus_mod.default_stopwords()


def _require_writable(s: dict, *keys):
    """Fail before any work when an output the command writes at its end
    could not be created: the path is a directory or its parent is missing."""
    for key in keys:
        if s[key] is None:
            continue
        path, flag = Path(s[key]), "--" + key
        if path.is_dir():
            raise IsADirectoryError(f"{flag} {s[key]!r} is a directory")
        if not path.absolute().parent.is_dir():
            raise FileNotFoundError(f"{flag} {s[key]!r}: its directory does not exist")


def _load_corpus(s: dict) -> corpus_mod.LabeledCorpus:
    _require(s, "data")
    try:   # the csv module's own rules, which differ between Python versions
        csv.reader((), delimiter=s["delimiter"])
    except (TypeError, ValueError) as exc:
        raise UsageError("--delimiter must be one character the csv module "
                         f"accepts, got {s['delimiter']!r}: {exc}") from None
    return corpus_mod.load_dataset(s["data"], delimiter=s["delimiter"])


def _tokenized(s: dict, max_size: int):
    """The corpus, the stoplist, each record's tokens and their vocabulary."""
    corpus, stoplist = _load_corpus(s), _stoplist(s)
    tokens = [corpus_mod.text_to_tokens(r.text, stoplist) for r in corpus.records]
    return corpus, stoplist, tokens, corpus_mod.build_vocabulary(tokens, max_size)


def _emit(doc, out_path) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _shape_str(shape) -> str:
    return "(" + ", ".join(["None"] + [str(d) for d in shape]) + ")"


def _cmd_summary(s: dict) -> int:
    if s["model"]:
        model, _ = serialize.load(s["model"])
    else:
        model = model_mod.build_model(_model_config(s))   # shapes need no weights
    rows = model_mod.summary(model)
    name_w = max(len(r.name) for r in rows) + 2
    shape_w = max(len(_shape_str(r.output_shape)) for r in rows) + 2
    print(f"{'layer':<{name_w}}{'output shape':<{shape_w}}{'params':>10}")
    print("-" * (name_w + shape_w + 10))
    for r in rows:
        print(f"{r.name:<{name_w}}{_shape_str(r.output_shape):<{shape_w}}"
              f"{r.param_count:>10}")
    print("-" * (name_w + shape_w + 10))
    print(f"{'total':<{name_w}}{'':<{shape_w}}{model.total_param_count():>10}")
    return 0


def _cmd_stats(s: dict) -> int:
    if s["top"] < 0:
        raise UsageError(f"--top must be >= 0, got {s['top']}")
    corpus = _load_corpus(s)
    tables = wordstats.frequency_by_label(corpus, _stoplist(s))
    docs = {t.label_name: wordstats.table_to_dict(t, s["top"])
            for t in tables.values()}
    if s["out"]:
        out_dir = Path(s["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, doc in docs.items():
            _emit(doc, out_dir / f"{name}.json")
        print(f"wrote {len(docs)} tables to {out_dir}", file=sys.stderr)
    else:
        _emit(docs, None)
    return 0


def _cmd_preprocess(s: dict) -> int:
    config = _checked(model_mod.ModelConfig, vocab_size=s["vocab_size"],
                      seq_len=s["seq_len"])
    corpus, _, token_lists, vocab = _tokenized(s, config.vocab_size)
    doc = {
        "seq_len": config.seq_len,
        "vocab_size": vocab.size,
        "records": [{
            "label": rec.label,
            "label_name": corpus_mod.LABEL_NAMES[rec.label],
            "tokens": tokens,
            "ids": corpus_mod.encode(tokens, vocab, config.seq_len).tolist(),
        } for rec, tokens in zip(corpus.records, token_lists)],
    }
    _emit(doc, s["out"])
    return 0


def _cmd_train(s: dict) -> int:
    _require(s, "data", "out")
    model_config = _model_config(s)
    train_config = _checked(
        trainer.TrainConfig, epochs=s["epochs"], batch_size=s["batch_size"],
        learning_rate=s["lr"], seed=s["seed"], train_fraction=s["split"],
        stratify=s["stratify"])
    _require_writable(s, "out", "history")
    corpus, stoplist, _, vocab = _tokenized(s, model_config.vocab_size)
    model = model_mod.build_model(model_config, seed=train_config.seed)
    history = trainer.fit(model, corpus, train_config, vocab, stoplist)
    serialize.save(model, vocab, s["out"])
    if s["deterministic"]:
        # wall time is the one non-reproducible field; zero it so identical
        # runs write identical history files
        history = [replace(r, seconds=0.0) for r in history]
    for r in history:
        print(f"epoch {r.epoch}: train_loss={r.train_loss:.4f} "
              f"train_acc={r.train_acc:.4f} val_loss={r.val_loss:.4f} "
              f"val_acc={r.val_acc:.4f} ({r.seconds:.1f}s)", file=sys.stderr)
    if s["history"]:
        metrics.history_report(history, s["history"])
    print(f"saved model to {s['out']}", file=sys.stderr)
    return 0


def _cmd_evaluate(s: dict) -> int:
    _require(s, "model")
    _checked(trainer.TrainConfig, batch_size=s["batch_size"])
    model, vocab = serialize.load(s["model"])
    corpus = _load_corpus(s)
    stoplist = _stoplist(s)
    ids, labels = corpus_mod.encode_corpus(
        corpus, vocab, model.config.seq_len, stoplist)
    pred = trainer.predict_codes(model, ids, s["batch_size"])
    try:
        report = metrics.report_from_predictions(
            labels, pred, model.config.num_classes)
    except ValueError as exc:   # no records, or labels the model has no class for
        raise corpus_mod.DatasetError(f"cannot evaluate {s['data']!r}: {exc}") from exc
    _emit(report.to_dict(model_mod.label_names(model.config)), s["out"])
    print(f"accuracy={report.accuracy:.4f} on {len(labels)} records",
          file=sys.stderr)
    return 0


def _cmd_predict(s: dict) -> int:
    _require(s, "model", "text")
    model, vocab = serialize.load(s["model"])
    code, name, probs = model_mod.predict(
        model, vocab, s["text"], stopwords=_stoplist(s))
    _emit({"label": code, "label_name": name,
           "probabilities": [float(p) for p in probs]}, s["out"])
    return 0


_CORPUS = ("data", "delimiter", "stopwords", "keep_stopwords", "out")
_ARCH = ("seq_len", "vocab_size", "embed_dim", "gru_units", "dropout", "precision")

# subcommand -> (function, help, the _OPTIONS keys it reads and takes flags for)
_COMMANDS = {
    "stats": (_cmd_stats, "per-label word-frequency tables as JSON", (*_CORPUS, "top")),
    "preprocess": (_cmd_preprocess, "emit cleaned, tokenized, encoded records",
                   (*_CORPUS, "seq_len", "vocab_size")),
    "train": (_cmd_train, "train a model and save it with its vocabulary",
              (*_CORPUS, "history", "deterministic", "epochs", "batch_size",
               "lr", "seed", "split", "stratify", *_ARCH)),
    "evaluate": (_cmd_evaluate, "confusion matrix and metric views as JSON",
                 ("model", *_CORPUS, "batch_size")),
    "predict": (_cmd_predict, "classify one text with a saved model",
                ("model", "text", "stopwords", "keep_stopwords", "out")),
    "summary": (_cmd_summary, "per-layer output shapes and parameter counts",
                ("model", *_ARCH)),
}


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    # allow_abbrev=False: a flag has one spelling, and no prefix stands for it
    parser = _Parser(prog="sentigru", allow_abbrev=False,
                     description="text sentiment classifier: six emotions, "
                                 "bidirectional recurrent model")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="'paper' preset or key=value file")
        for key in keys:
            kind, _, help_text = _OPTIONS[key]
            flag = "--" + key.replace("_", "-")
            how = ({"action": "store_true", "default": None} if kind is bool
                   else {"type": kind})
            p.add_argument(flag, help=help_text, **how)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:   # what precedes the subcommand is the top-level parser's
            argv = sys.argv[1:] if argv is None else argv
            top = argv[:argv.index(args.command)] if args.command else unknown
            (parser if top else subparsers[args.command]).error(
                f"unrecognized arguments: {' '.join(top or unknown)}")
        if not args.command:
            raise UsageError(parser.format_usage())
        func, _, keys = _COMMANDS[args.command]
        return func(_settings(args, keys))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (corpus_mod.DatasetError, serialize.ModelFormatError,
            trainer.TrainingError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
