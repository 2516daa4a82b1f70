"""One workload process: set up, run operations, check their outputs, report.

``run.py`` starts this script in a fresh process for every measurement, so
that set-up time, peak RSS and BLAS thread settings belong to the workload
alone. The process prints ``ready`` once set-up is done, and as its last line
one JSON object with the raw measurements. It drives sentigru only through
its public functions; the inputs are the files ``run.py`` generated.
"""

import argparse
import collections
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import sentigru
from sentigru import corpus, metrics, serialize, trainer
from sentigru import model as model_mod
from sentigru.numerics import softmax

FINISH_OP = -2


class Workload:
    """A closed loop with one caller; subclasses define one operation."""

    def __init__(self, work: Path, sizes: dict, seed: int):
        self.work = work
        self.sizes = sizes
        self.seed = seed
        self.model = None
        self.vocab = None

    def setup(self) -> None:
        """Everything before the first timed operation."""

    def op(self, i: int):
        """Run operation ``i``; returns (items processed, output)."""
        raise NotImplementedError

    def digest(self, out):
        """Reduce one output to what ``failures`` needs (not timed)."""
        return out

    def failures(self, kept: list) -> list[bool]:
        """One verdict per operation, True where its output is wrong."""
        raise NotImplementedError

    def probes(self) -> list:
        """(mode, ids) batches whose forward allocations are measured."""
        return []

    def facts(self, kept: list) -> dict:
        return {}

    def finish(self) -> int:
        """Save the model as ``sentigru train`` would; returns the file size."""
        if self.model is None:
            return 0
        path = self.work / "saved.sgru"
        serialize.save(self.model, self.vocab, path)
        return path.stat().st_size


class TrainPaper(Workload):
    """``fit`` for one epoch of a fixed number of batches, plus validation."""

    def setup(self):
        self.corpus = corpus.load_dataset(self.work / "train.csv")
        tokens = [corpus.text_to_tokens(r.text) for r in self.corpus.records]
        config = model_mod.ModelConfig(**self.sizes["model"])
        self.vocab = corpus.build_vocabulary(tokens, max_size=config.vocab_size)
        self.model = model_mod.build_model(config, seed=self.seed)
        self.config = trainer.TrainConfig(epochs=1, batch_size=64, seed=self.seed)
        # the unstratified split cuts at round(fraction * N)
        self.train_rows = round(self.config.train_fraction * len(self.corpus))

    def op(self, i):
        history = trainer.fit(self.model, self.corpus, self.config, self.vocab)
        return self.train_rows, history[-1]

    def failures(self, kept):
        return train_failures(kept)

    def facts(self, kept):
        first = kept[0] if kept else None
        return {"train_loss_final": None if first is None else first.train_loss,
                "val_loss_final": None if first is None else first.val_loss}

    def probes(self):
        ids, _ = corpus.encode_corpus(self.corpus, self.vocab, self.model.config.seq_len)
        return [("train", ids[:64]), ("infer", ids[:64])]


def train_failures(history: list) -> list[bool]:
    """Every loss of every fit must be finite."""
    return [r is None or not (np.isfinite(r.train_loss) and np.isfinite(r.val_loss))
            for r in history]


class PredictSingle(Workload):
    """``model.predict`` on raw texts, one at a time."""

    def setup(self):
        self.model, self.vocab = serialize.load(self.work / "model.sgru")
        self.texts = [r.text for r in corpus.load_dataset(self.work / "texts.csv").records]
        model_mod.predict(self.model, self.vocab, self.texts[-1])   # warm-up

    def op(self, i):
        _, _, probs = model_mod.predict(self.model, self.vocab,
                                        self.texts[i % len(self.texts)])
        return 1, probs

    def _ids(self, text):
        return corpus.encode(corpus.text_to_tokens(text), self.vocab,
                             self.model.config.seq_len)

    def failures(self, kept):
        """Batch invariance: each text's probabilities, bit for bit, equal its
        row of a batched infer forward over the same ids."""
        ids = np.stack([self._ids(self.texts[i % len(self.texts)])
                        for i in range(len(kept))])
        batched = np.concatenate([
            softmax(self.model.forward(ids[s:s + 64], mode="infer"), axis=-1)
            for s in range(0, len(ids), 64)])
        return predict_failures(kept, batched)

    def probes(self):
        return [("infer", self._ids(self.texts[0])[None, :])]


def predict_failures(probs: list, batched: np.ndarray) -> list[bool]:
    return [p is None or not np.all(np.isfinite(p)) or p.tobytes() != row.tobytes()
            for p, row in zip(probs, batched)]


class EvaluateBulk(Workload):
    """The ``sentigru evaluate`` path over one CSV file per operation."""

    def setup(self):
        self.model, self.vocab = serialize.load(self.work / "model.sgru")

    def op(self, i):
        data = corpus.load_dataset(self.work / "eval.csv")
        ids, labels = corpus.encode_corpus(data, self.vocab, self.model.config.seq_len)
        pred = trainer.predict_codes(self.model, ids, 64)
        report = metrics.report_from_predictions(labels, pred,
                                                 self.model.config.num_classes)
        self.ids = ids
        return len(labels), (report, pred)

    def failures(self, kept):
        """Confusion total equals N; predictions equal a batch-1 recomputation
        on a seeded sample of rows."""
        n = len(self.ids)
        rows = np.random.default_rng(self.seed).choice(
            n, min(n, self.sizes["check_rows"]), replace=False)
        single = {int(i): int(np.argmax(self.model.forward(self.ids[i:i + 1], mode="infer")))
                  for i in rows}
        return [out is None or eval_failed(out[0], out[1], n, single) for out in kept]

    def probes(self):
        data = corpus.load_dataset(self.work / "eval.csv")
        ids, _ = corpus.encode_corpus(data, self.vocab, self.model.config.seq_len)
        return [("infer", ids[:64])]


def eval_failed(report, pred, n: int, single: dict) -> bool:
    return (report.confusion.total() != n or len(pred) != n
            or any(int(pred[i]) != code for i, code in single.items()))


class IngestCorpus(Workload):
    """Load, build a vocabulary, encode and count words; no model."""

    def setup(self):
        corpus.default_stopwords()

    def op(self, i):
        data = corpus.load_dataset(self.work / "ingest.csv")
        tokens = [corpus.text_to_tokens(r.text) for r in data.records]
        vocab = corpus.build_vocabulary(tokens)
        ids, _ = corpus.encode_corpus(data, vocab, self.sizes["model"]["seq_len"])
        tables = sentigru.wordstats.frequency_by_label(data)
        return len(data), (tables, ids, vocab.size)

    def digest(self, out):
        return not ingest_failed(*out)

    def failures(self, kept):
        return [not ok for ok in kept]


def ingest_failed(tables: dict, ids: np.ndarray, vocab_size: int) -> bool:
    """The "all" table must equal the sum of the per-label tables, and every
    encoded id must lie in [0, vocab_size)."""
    summed = collections.Counter()
    for label, table in tables.items():
        if label != "all":
            summed.update(table.counts)
    return (dict(summed) != tables["all"].counts
            or ids.size == 0 or ids.min() < 0 or ids.max() >= vocab_size)


WORKLOADS = {"train_paper": TrainPaper, "predict_single": PredictSingle,
             "evaluate_bulk": EvaluateBulk, "ingest_corpus": IngestCorpus}


def run_ops(workload: Workload, seconds: float, n_ops, tracer=None) -> dict:
    """Closed loop: until the ops' time reaches ``seconds``, or ``n_ops`` ops."""
    latencies, kept, items, errors = [], [], [], []
    elapsed = 0.0
    while (len(latencies) < n_ops) if n_ops is not None else (elapsed < seconds):
        i = len(latencies)
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            n, out = workload.op(i)
        except Exception as exc:     # a failed operation is counted, not fatal
            n, out = 0, None
            errors.append(f"op {i}: {exc!r}")
        latencies.append(time.perf_counter() - t0)
        elapsed += latencies[-1]
        items.append(n)
        kept.append(None if out is None else workload.digest(out))
        out = None   # the next op must not run while this output is alive
    return {"latencies": latencies, "kept": kept, "items": items, "errors": errors}


def alloc_peak_mb(model, mode: str, ids) -> float:
    """Peak bytes that one forward call allocates, from tracemalloc."""
    tracemalloc.start()
    try:
        model.forward(ids, mode=mode, rng=np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def blas_info() -> dict:
    """The OpenBLAS build and the thread count it runs with, if it is loaded."""
    import ctypes
    info = {"numpy": np.__version__}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_config is None:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            get_threads.restype = ctypes.c_int
            info["openblas"] = get_config().decode()
            info["openblas_threads"] = get_threads()
            return info
    return info


def prepare_model(work: Path, sizes: dict, seed: int) -> None:
    """Write the paper-size model file that predict and evaluate load.

    Its weights are the seeded random initialization: the work per call does
    not depend on the values, and training it first would cost minutes.
    """
    data = corpus.load_dataset(work / "vocab.csv")
    config = model_mod.ModelConfig(**sizes["model"])
    vocab = corpus.build_vocabulary(
        (corpus.text_to_tokens(r.text) for r in data.records), max_size=config.vocab_size)
    serialize.save(model_mod.build_model(config, seed=seed), vocab, work / "model.sgru")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sizes", type=json.loads, required=True)
    p.add_argument("--phase", choices=("prepare", "setup", "measure"), required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--ops", type=int)
    p.add_argument("--trace-out", type=Path)
    args = p.parse_args(argv)

    if args.phase == "prepare":
        prepare_model(args.work, args.sizes, args.seed)
        return 0
    tracer = None
    if args.trace_out is not None:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    t_start = time.perf_counter()
    workload = WORKLOADS[args.workload](args.work, args.sizes, args.seed)
    workload.setup()
    print("ready", flush=True)
    if args.phase == "setup":
        return 0

    res = run_ops(workload, args.seconds, args.ops, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.op_id = FINISH_OP
    file_bytes = workload.finish()
    traced_wall = time.perf_counter() - t_start
    if tracer is not None:
        tracer.uninstall()
    failed = workload.failures(res["kept"])
    out = {
        "latencies": res["latencies"], "items": res["items"],
        "failed": sum(failed), "errors": res["errors"],
        "peak_rss_mb": peak_rss_mb, "facts": workload.facts(res["kept"]),
        "env": blas_info(),
    }
    if tracer is not None:
        out["totals"] = tracer.totals()
        out["counters"] = dict(tracer.counters, **{"serialize.file_bytes": file_bytes})
        out["spans"] = len(tracer.spans)
        out["traced_wall"] = traced_wall
        out["alloc_peak_mb"] = {
            f"model.forward_{mode}.alloc_peak_mb": alloc_peak_mb(workload.model, mode, ids)
            for mode, ids in workload.probes()}
        tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
