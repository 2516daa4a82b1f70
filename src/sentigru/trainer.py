"""Mini-batch training loop with adaptive-moment updates.

One epoch = one seeded shuffle of the training set, sliced into batches
with the final partial batch kept. Validation runs after every epoch in
infer mode. Everything is bit-reproducible for a fixed seed. The loop runs
on the calling thread; at batch sizes of ``layers.SPLIT_ROWS`` and more, each
bidirectional layer runs one of its directions on a worker thread, which does
not change a bit (see :class:`~sentigru.layers.GruSequence`).
"""

import numbers
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import corpus as corpus_mod
from .layers import softmax_cross_entropy
from .numerics import adam_step, zeros


class TrainingError(RuntimeError):
    """Training cannot proceed: bad split or non-finite numbers."""


def _check_integer(name: str, value, low: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    train_fraction: float = 0.8
    stratify: bool = False

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            _check_integer(name, getattr(self, name), low)
        lr, fraction = self.learning_rate, self.train_fraction
        # rate 0 is allowed: it must leave parameters bitwise unchanged
        if not isinstance(lr, numbers.Real) or not 0 <= lr < float("inf"):
            raise ValueError("learning_rate must be finite and not negative, "
                             f"got {lr!r}")
        if not isinstance(fraction, numbers.Real) or not 0 < fraction < 1:
            raise ValueError(f"train_fraction must lie in (0, 1), got {fraction!r}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    seconds: float

    def __post_init__(self):
        if self.train_loss < 0 or self.val_loss < 0:
            raise ValueError("losses must be non-negative")
        if not (0 <= self.train_acc <= 1 and 0 <= self.val_acc <= 1):
            raise ValueError("accuracies must lie in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)


class Adam:
    """Adaptive-moment optimizer keyed by parameter name.

    m and v track decaying first and second gradient moments; both are
    bias-corrected before the step. t counts the steps taken. Only the
    learning rate is set; gradients are never clipped.
    """

    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-8

    def __init__(self, learning_rate: float = 1e-3):
        self.learning_rate = learning_rate
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, triples) -> None:
        """One update, in place, on model.trainable() (name, param, grad) triples.

        A non-finite gradient raises before any parameter moves. A float32
        array steps in one compiled pass with this loop's bits
        (:func:`~sentigru.numerics.adam_step`); the loop below is the reference.
        """
        for name, _, g in triples:
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient in parameter {name!r}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        scalars = (b1, 1.0 - b1, b2, 1.0 - b2, self.learning_rate, c1, c2, self.epsilon)
        for name, p, g in triples:
            if name not in self.m:     # zeros: no page is written before the step
                self.m[name] = zeros(p.shape, p.dtype)
                self.v[name] = zeros(p.shape, p.dtype)
            m, v = self.m[name], self.v[name]
            if adam_step(p, m, v, g, scalars):
                continue
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            p -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + self.epsilon)


def train_epoch(model, ids: np.ndarray, labels: np.ndarray, optimizer: Adam,
                rng, batch_size: int = 64) -> tuple[float, float]:
    """One shuffled pass; returns (per-sample mean loss, train-mode accuracy)."""
    n = len(ids)
    if n == 0:
        raise TrainingError("cannot train on an empty dataset")
    _check_labels(ids, labels)
    _check_integer("batch_size", batch_size, 1)
    order = rng.permutation(n)
    total_loss = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        batch = order[start:start + batch_size]
        x, y = ids[batch], labels[batch]
        logits = model.forward(x, mode="train", rng=rng)
        loss, dlogits = softmax_cross_entropy(logits, y)
        if not np.isfinite(loss):
            raise TrainingError(
                f"non-finite loss {float(loss)!r} in the batch at offset {start}")
        model.zero_grad()
        model.backward(dlogits)
        optimizer.step(model.trainable())
        total_loss += float(loss) * len(batch)
        correct += int(np.sum(np.argmax(logits, axis=1) == y))
    return total_loss / n, correct / n


def _check_labels(ids, labels) -> None:
    if len(labels) != len(ids):
        raise ValueError(f"{len(labels)} labels for {len(ids)} rows of ids")


def _infer_batches(model, ids: np.ndarray, batch_size: int):
    """(rows, infer-mode logits) for each batch of ``ids``, in dataset order."""
    _check_integer("batch_size", batch_size, 1)
    for start in range(0, len(ids), batch_size):
        rows = slice(start, start + batch_size)
        yield rows, model.forward(ids[rows], mode="infer")


def evaluate(model, ids: np.ndarray, labels: np.ndarray,
             batch_size: int = 64) -> tuple[float, float]:
    """Infer-mode mean loss and accuracy, in dataset order."""
    n = len(ids)
    if n == 0:
        raise TrainingError("cannot evaluate an empty dataset")
    _check_labels(ids, labels)
    total_loss = 0.0
    correct = 0
    for rows, logits in _infer_batches(model, ids, batch_size):
        loss, _ = softmax_cross_entropy(logits, labels[rows])
        total_loss += float(loss) * len(logits)
        correct += int(np.sum(np.argmax(logits, axis=1) == labels[rows]))
    return total_loss / n, correct / n


def predict_codes(model, ids: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Infer-mode argmax class codes for every row of ids."""
    codes = [np.argmax(logits, axis=1)
             for _, logits in _infer_batches(model, ids, batch_size)]
    return np.concatenate(codes) if codes else np.zeros(0, dtype=np.int64)


def fit(model, corpus: corpus_mod.LabeledCorpus, config: TrainConfig,
        vocab: corpus_mod.Vocabulary, stopwords=None) -> list[EpochRecord]:
    """Split once, then train for config.epochs; returns the epoch history.

    The split, the shuffles, and the dropout draws all derive from
    config.seed, so a fixed (seed, config, corpus) triple reproduces the
    history exactly.
    """
    try:
        train_c, val_c = corpus_mod.split(
            corpus, config.train_fraction, config.seed, config.stratify)
    except ValueError as exc:   # fewer than 2 records
        raise TrainingError(str(exc)) from exc
    if len(train_c) == 0 or len(val_c) == 0:
        raise TrainingError(
            f"train_fraction {config.train_fraction} left an empty split "
            f"({len(train_c)} train / {len(val_c)} validation)")
    seq_len = model.config.seq_len
    # batch norm needs 2 values per channel; the last partial batch is kept
    smallest = len(train_c) % config.batch_size or config.batch_size
    if smallest * seq_len < 2:
        raise TrainingError(
            f"batch size {config.batch_size} with seq_len {seq_len} on a train "
            f"split of {len(train_c)} records gives a batch of {smallest} x "
            f"{seq_len} token; batch norm needs at least 2")
    train_ids, train_y = corpus_mod.encode_corpus(train_c, vocab, seq_len, stopwords)
    val_ids, val_y = corpus_mod.encode_corpus(val_c, vocab, seq_len, stopwords)
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(config.learning_rate)
    history = []
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        train_loss, train_acc = train_epoch(
            model, train_ids, train_y, optimizer, rng, config.batch_size)
        val_loss, val_acc = evaluate(model, val_ids, val_y, config.batch_size)
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss {val_loss!r} "
                                f"after epoch {epoch}")
        history.append(EpochRecord(
            epoch, train_loss, train_acc, val_loss, val_acc,
            time.perf_counter() - t0))
    return history
