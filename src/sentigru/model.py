"""Model assembly: the embedding + 3x bidirectional-GRU + dense stack."""

from dataclasses import dataclass, asdict

import numpy as np

from . import corpus as corpus_mod
from .layers import (BatchNorm, BidirectionalGru, Dense, Dropout, Embedding,
                     GruCell, check_mode)
from .numerics import softmax

_DTYPES = {"float32": np.float32, "float64": np.float64}

# The longest token sequence a model takes, 13x the paper's 79. A model
# file's header is read before anything else, and nothing else bounds its
# seq_len: without this, one edited number sizes every later encode.
MAX_SEQ_LEN = 1024


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
        sizes = {"vocab_size": self.vocab_size, "embed_dim": self.embed_dim,
                 "seq_len": self.seq_len, "num_classes": self.num_classes,
                 **{f"gru_units[{i}]": u for i, u in enumerate(self.gru_units)}}
        for name, value in sizes.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.seq_len > MAX_SEQ_LEN:
            raise ValueError(f"seq_len must be at most {MAX_SEQ_LEN}, got {self.seq_len}")
        if self.vocab_size < 3:
            raise ValueError("vocab_size must be >= 3: the reserved pad/oov ids "
                             "and at least one token")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
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
        return cls(**d)


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
        self._rng = rng

    def forward(self, ids: np.ndarray, mode: str = "infer", rng=None) -> np.ndarray:
        """Run the stack over (B, T) token ids; returns (B, num_classes) logits."""
        check_mode(mode)
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != self.config.seq_len:
            raise ValueError(
                f"expected ids of shape (B, {self.config.seq_len}), got {ids.shape}")
        if not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(f"expected integer token ids, got dtype {ids.dtype}")
        if rng is None:
            rng = self._rng
        x = ids
        for _, layer in self.named_layers:
            x = layer.forward(x, mode, rng)
        return x

    def backward(self, dlogits: np.ndarray) -> None:
        g = dlogits
        for _, layer in reversed(self.named_layers):
            g = layer.backward(g)

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


def build_model(config: ModelConfig, seed: int | None = None) -> Model:
    """Instantiate the stack with deterministic initialization from ``seed``.

    Without a seed no random number is drawn: every weight is zero, ready to
    be overwritten by a loaded file, and the model's default dropout rng is
    ``default_rng(0)``.
    """
    rng = None if seed is None else np.random.default_rng(seed)
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
    return Model(config, named, np.random.default_rng(0) if rng is None else rng)


def state_size(config: ModelConfig) -> int:
    """Values in ``build_model(config).state_items()``, counted from the config
    alone so a model file's header can be checked before anything is built.
    Each GRU direction carries 3h(x + h + 2) values and BatchNorm 4 per channel;
    a test pins this count to the stack above."""
    u1, u2, u3 = config.gru_units

    def bigru(x, h):
        return 2 * 3 * h * (x + h + 2)

    return (config.vocab_size * config.embed_dim + bigru(config.embed_dim, u1)
            + bigru(2 * u1, u2) + 4 * 2 * u2 + bigru(2 * u2, u3)
            + (2 * u3 + 1) * config.num_classes)


def summary(model: Model) -> list[SummaryRow]:
    """One row per layer: name, batch-agnostic output shape, parameter count.
    The shapes are read off an infer-mode forward over one row of pad ids."""
    rows = []
    x = np.full((1, model.config.seq_len), corpus_mod.PAD_ID)
    for name, layer in model.named_layers:
        x = layer.forward(x, "infer")
        rows.append(SummaryRow(name, x.shape[1:], layer.param_count()))
    return rows


def label_names(config: ModelConfig) -> tuple[str, ...] | None:
    """``LABEL_NAMES`` for a model with exactly those six classes, else None."""
    names = corpus_mod.LABEL_NAMES
    return names if config.num_classes == len(names) else None


def predict(model: Model, vocab: corpus_mod.Vocabulary, raw_text: str,
            stopwords=None):
    """Classify one raw text; returns (label code, label name, probabilities).

    The name is None unless the model has exactly the six classes of
    ``LABEL_NAMES``. Runs the full preprocessing pipeline with the shipped
    stopword list unless another set (possibly empty) is given. Argmax ties
    resolve to the lowest class code.
    """
    tokens = corpus_mod.text_to_tokens(raw_text, stopwords)
    ids = corpus_mod.encode(tokens, vocab, model.config.seq_len)[None, :]
    logits = model.forward(ids, mode="infer")
    probs = softmax(logits, axis=-1)[0]
    code = int(np.argmax(probs))
    names = label_names(model.config)
    return code, (names[code] if names else None), probs
