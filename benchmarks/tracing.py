"""Spans around the public functions of each sentigru module, for traced runs.

The program itself carries no timing hooks, so the benchmark wraps the calls
into each layer from outside: module functions are replaced by wrappers in
the module that defines them and in every sentigru module that imported them
by name (``layers`` calls ``numerics.matmul`` as ``matmul``), and the
per-layer ``forward``/``backward`` of every model built while tracing are
wrapped on the instance. ``serialize.build_model`` is wrapped only where
``serialize.load`` looks it up, so it times the initialization inside load.
A name the program no longer has is skipped and its metrics read 0.
Wrappers are installed only in a traced run and removed again by
:meth:`Tracer.uninstall`.

Spans stay in memory as ``[name, start, end, parent index, op id]`` until
the run writes them out. A span's self time is its duration minus the
durations of its direct children.
"""

import collections
import time

import sentigru.corpus
import sentigru.layers
import sentigru.metrics
import sentigru.model
import sentigru.numerics
import sentigru.serialize
import sentigru.trainer
import sentigru.wordstats

MODULES = (sentigru.corpus, sentigru.layers, sentigru.metrics, sentigru.model,
           sentigru.numerics, sentigru.serialize, sentigru.trainer, sentigru.wordstats)

SETUP_OP = -1


def _matmul_macs(a, b, _out):
    return a.shape[0] * a.shape[1] * b.shape[1]


def _adam_params(_optimizer, triples, _out):
    return sum(p.size for _, p, _ in triples)


# (owner, attribute, span name, counter name or None, counter function)
FUNCTIONS = [
    (sentigru.corpus, "load_dataset", "corpus.load_dataset", None, None),
    (sentigru.corpus, "text_to_tokens", "corpus.text_to_tokens", None, None),
    (sentigru.corpus, "build_vocabulary", "corpus.build_vocabulary", None, None),
    (sentigru.corpus, "encode_corpus", "corpus.encode_corpus", None, None),
    (sentigru.corpus, "split", "corpus.split", None, None),
    (sentigru.wordstats, "frequency_by_label", "wordstats.frequency_by_label",
     None, None),
    (sentigru.numerics, "matmul", "numerics.matmul", "numerics.matmul.macs",
     _matmul_macs),
    (sentigru.numerics, "sigmoid", "numerics.sigmoid", None, None),
    (sentigru.layers, "softmax_cross_entropy", "layers.softmax_cross_entropy",
     None, None),
    (sentigru.trainer, "fit", "trainer.fit", None, None),
    (sentigru.trainer, "train_epoch", "trainer.train_epoch", None, None),
    (sentigru.trainer, "evaluate", "trainer.evaluate", None, None),
    (sentigru.trainer, "predict_codes", "trainer.predict_codes", None, None),
    (sentigru.trainer.Adam, "step", "trainer.adam", "trainer.adam.params",
     _adam_params),
    (sentigru.model.Model, "zero_grad", "model.zero_grad", None, None),
    (sentigru.model.Model, "backward", "model.backward", None, None),
    (sentigru.model, "predict", "model.predict", None, None),
    (sentigru.serialize, "load", "serialize.load", None, None),
    (sentigru.serialize, "save", "serialize.save", None, None),
    (sentigru.serialize, "build_model", "serialize.load.build_model", None, None),
    (sentigru.metrics, "report_from_predictions",
     "metrics.report_from_predictions", None, None),
]


class Tracer:
    """Records nested spans of wrapped calls in one single-threaded process."""

    def __init__(self):
        self.spans = []
        self.counters = collections.Counter()
        self.op_id = SETUP_OP
        self._stack = []
        self._restore = []
        self._models = []

    def _span(self, name, fn, args, kwargs):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counter=None, count=None):
        def wrapper(*args, **kwargs):
            out = self._span(name, fn, args, kwargs)
            if counter is not None:
                self.counters[counter] += count(*args, out)
            return out
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function; models built afterwards get layer spans."""
        for owner, attr, name, counter, count in FUNCTIONS:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            wrapper = self.wrap(name, original, counter, count)
            owners = [owner]
            if getattr(original, "__module__", None) == owner.__name__:
                owners += [m for m in MODULES
                           if m is not owner and m.__dict__.get(attr) is original]
            for target in owners:
                self._patch(target, attr, wrapper)
        model_cls = sentigru.model.Model
        forward, init = model_cls.forward, model_cls.__init__
        tracer = self

        def traced_forward(model, ids, mode="infer", rng=None):
            return tracer._span(f"model.forward_{mode}", forward,
                                (model, ids, mode, rng), {})

        def traced_init(model, *args, **kwargs):
            init(model, *args, **kwargs)
            tracer._instrument(model)

        self._patch(model_cls, "forward", traced_forward)
        self._patch(model_cls, "__init__", traced_init)

    def _instrument(self, model) -> None:
        for lname, layer in model.named_layers:
            layer.forward = self.wrap(f"layers.{lname}.fwd", layer.forward)
            if hasattr(layer, "backward"):
                layer.backward = self.wrap(f"layers.{lname}.bwd", layer.backward)
        self._models.append(model)

    def uninstall(self) -> None:
        """Put back every original function and drop the per-layer wrappers."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        for model in self._models:
            for _, layer in model.named_layers:
                layer.__dict__.pop("forward", None)
                layer.__dict__.pop("backward", None)
        self._models.clear()

    def totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start),
                         own + (end - start) - child[i])
        return out

    def write(self, path) -> None:
        """Spans as tab-separated lines: name, start, end, parent, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
