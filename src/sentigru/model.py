"""Model assembly: the embedding + 3x bidirectional-GRU + dense stack."""

from dataclasses import dataclass, asdict

import numpy as np

from . import corpus as corpus_mod
from .layers import (BatchNorm, BidirectionalGru, Dense, Dropout, Embedding,
                     GruCell)
from .numerics import softmax

_DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 50_000
    embed_dim: int = 50
    seq_len: int = 79
    gru_units: tuple[int, int, int] = (120, 64, 64)
    dropout_rate: float = 0.3
    num_classes: int = 6
    dtype: str = "float32"

    def __post_init__(self):
        if len(self.gru_units) != 3:
            raise ValueError("gru_units must have exactly 3 entries")
        if self.seq_len < 1:
            raise ValueError("seq_len must be >= 1")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must cover the reserved pad/oov ids")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.dtype not in _DTYPES:
            raise ValueError(f"dtype must be one of {sorted(_DTYPES)}")
        object.__setattr__(self, "gru_units", tuple(self.gru_units))

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["gru_units"] = list(self.gru_units)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["gru_units"] = tuple(d["gru_units"])
        return cls(**d)


def paper_config(**overrides) -> ModelConfig:
    """The reference architecture: 50k vocab, 79 tokens, BiGRU 120/64/64."""
    return ModelConfig(**overrides)


@dataclass(frozen=True)
class SummaryRow:
    name: str
    output_shape: tuple[int, ...]   # without the batch dimension
    param_count: int


class Model:
    """Ordered layer stack; build through :func:`build_model`."""

    def __init__(self, config: ModelConfig, named_layers, rng):
        self.config = config
        self.named_layers = named_layers
        self._layers = dict(named_layers)
        self._rng = rng

    def forward(self, ids: np.ndarray, mode: str = "infer", rng=None) -> np.ndarray:
        """Run the stack over (B, T) token ids; returns (B, num_classes) logits."""
        if mode not in ("train", "infer"):
            raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != self.config.seq_len:
            raise ValueError(
                f"expected ids of shape (B, {self.config.seq_len}), got {ids.shape}")
        if rng is None:
            rng = self._rng
        x = self._layers["embedding"].forward(ids)
        x = self._layers["dropout"].forward(x, mode, rng)
        x = self._layers["bidirectional_gru_1"].forward(x, mode)
        x = self._layers["bidirectional_gru_2"].forward(x, mode)
        x = self._layers["batch_norm"].forward(x, mode)
        x = self._layers["bidirectional_gru_3"].forward(x, mode)
        return self._layers["dense"].forward(x)

    def backward(self, dlogits: np.ndarray) -> None:
        g = self._layers["dense"].backward(dlogits)
        g = self._layers["bidirectional_gru_3"].backward(g)
        g = self._layers["batch_norm"].backward(g)
        g = self._layers["bidirectional_gru_2"].backward(g)
        g = self._layers["bidirectional_gru_1"].backward(g)
        g = self._layers["dropout"].backward(g)
        self._layers["embedding"].backward(g)

    def trainable(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """(name, value, gradient) triples in fixed stack order."""
        out = []
        for lname, layer in self.named_layers:
            grads = layer.grads()
            for pname, value in layer.params().items():
                out.append((f"{lname}.{pname}", value, grads[pname]))
        return out

    def state_items(self) -> list[tuple[str, np.ndarray]]:
        """All arrays a saved model must carry: parameters then buffers."""
        out = []
        for lname, layer in self.named_layers:
            for pname, value in layer.params().items():
                out.append((f"{lname}.{pname}", value))
            for bname, value in layer.buffers().items():
                out.append((f"{lname}.{bname}", value))
        return out

    def zero_grad(self) -> None:
        for _, layer in self.named_layers:
            layer.zero_grad()

    def total_param_count(self) -> int:
        return sum(layer.param_count() for _, layer in self.named_layers)

    def summary(self) -> list[SummaryRow]:
        return summary(self)


def build_model(config: ModelConfig, seed: int) -> Model:
    """Instantiate the stack with deterministic initialization from ``seed``."""
    rng = np.random.default_rng(seed)
    dt = config.np_dtype
    u1, u2, u3 = config.gru_units
    named = [
        ("embedding", Embedding(config.vocab_size, config.embed_dim, rng, dt)),
        ("dropout", Dropout(config.dropout_rate)),
        ("bidirectional_gru_1", BidirectionalGru(
            GruCell(config.embed_dim, u1, rng, dt),
            GruCell(config.embed_dim, u1, rng, dt), return_sequences=True)),
        ("bidirectional_gru_2", BidirectionalGru(
            GruCell(2 * u1, u2, rng, dt),
            GruCell(2 * u1, u2, rng, dt), return_sequences=True)),
        ("batch_norm", BatchNorm(2 * u2, dtype=dt)),
        ("bidirectional_gru_3", BidirectionalGru(
            GruCell(2 * u2, u3, rng, dt),
            GruCell(2 * u2, u3, rng, dt), return_sequences=False)),
        ("dense", Dense(2 * u3, config.num_classes, rng, dt)),
    ]
    return Model(config, named, rng)


def summary(model: Model) -> list[SummaryRow]:
    """One row per layer: name, batch-agnostic output shape, parameter count."""
    c = model.config
    t = c.seq_len
    u1, u2, u3 = c.gru_units
    shapes = {
        "embedding": (t, c.embed_dim),
        "dropout": (t, c.embed_dim),
        "bidirectional_gru_1": (t, 2 * u1),
        "bidirectional_gru_2": (t, 2 * u2),
        "batch_norm": (t, 2 * u2),
        "bidirectional_gru_3": (2 * u3,),
        "dense": (c.num_classes,),
    }
    return [SummaryRow(name, shapes[name], layer.param_count())
            for name, layer in model.named_layers]


def predict(model: Model, vocab: corpus_mod.Vocabulary, raw_text: str,
            stopwords=None):
    """Classify one raw text; returns (label code, label name, probabilities).

    Runs the full preprocessing pipeline with the shipped stopword list
    unless another set (possibly empty) is given. Argmax ties resolve to the
    lowest class code.
    """
    tokens = corpus_mod.text_to_tokens(raw_text, stopwords)
    ids = corpus_mod.encode(tokens, vocab, model.config.seq_len)[None, :]
    logits = model.forward(ids, mode="infer")
    probs = softmax(logits, axis=-1)[0]
    code = int(np.argmax(probs))
    return code, corpus_mod.LABEL_NAMES[code], probs
