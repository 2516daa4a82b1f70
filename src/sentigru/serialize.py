"""Single-file binary model persistence.

Byte layout (all integers little-endian):

    magic      4 bytes   b"SGRU"
    version    u32       format version, currently 1
    hlen       u64       byte length of the header JSON
    header     hlen bytes, UTF-8 JSON:
                 {"config": {...}, "sections": [...],
                  "arrays": [{"name", "dtype", "shape"}, ...]}
    blocks     one per section entry, in order:
                 u64 payload byte length
                 payload bytes
                 u32 CRC-32 of the payload

The "vocabulary" block holds the token table as TSV text. Each "arrays"
entry then gets its own block of raw C-order little-endian values, so a
flipped byte anywhere in a parameter is caught at load time.
"""

import json
import struct
import zlib

import numpy as np

from .corpus import Vocabulary
from .model import Model, ModelConfig, build_model

MAGIC = b"SGRU"
FORMAT_VERSION = 1


class ModelFormatError(Exception):
    """Raised when a model file is unreadable, corrupt, or incomplete."""


def _write_block(fh, payload: bytes) -> None:
    fh.write(struct.pack("<Q", len(payload)))
    fh.write(payload)
    fh.write(struct.pack("<I", zlib.crc32(payload)))


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ModelFormatError("truncated model file")
    return data


def _read_block(fh, name: str) -> bytes:
    (length,) = struct.unpack("<Q", _read_exact(fh, 8))
    payload = _read_exact(fh, length)
    (stored,) = struct.unpack("<I", _read_exact(fh, 4))
    if zlib.crc32(payload) != stored:
        raise ModelFormatError(f"checksum mismatch in block {name!r}")
    return payload


def _le_dtype(arr: np.ndarray) -> np.dtype:
    return arr.dtype.newbyteorder("<")


def _write_file(path, config: ModelConfig, vocab_text, arrays) -> None:
    sections = (["vocabulary"] if vocab_text is not None else [])
    table = [{"name": name, "dtype": _le_dtype(a).str, "shape": list(a.shape)}
             for name, a in arrays]
    header = json.dumps({
        "config": config.to_dict(),
        "sections": sections + [e["name"] for e in table],
        "arrays": table,
    }).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        if vocab_text is not None:
            _write_block(fh, vocab_text.encode("utf-8"))
        for _, a in arrays:
            _write_block(fh, np.ascontiguousarray(a, dtype=_le_dtype(a)).tobytes())


def save(model: Model, vocab: Vocabulary, path) -> None:
    """Write model config, vocabulary, parameters, and running stats."""
    _write_file(path, model.config, vocab.to_text(), model.state_items())


def load(path) -> tuple[Model, Vocabulary]:
    """Read a file written by :func:`save`; verifies every block checksum."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != MAGIC:
            raise ModelFormatError("not a model file: bad magic")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != FORMAT_VERSION:
            raise ModelFormatError(f"unsupported model format version {version}")
        (hlen,) = struct.unpack("<Q", _read_exact(fh, 8))
        try:
            header = json.loads(_read_exact(fh, hlen).decode("utf-8"))
            config = ModelConfig.from_dict(header["config"])
            sections = list(header["sections"])
            table = list(header["arrays"])
        except ModelFormatError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise ModelFormatError(f"corrupt model header: {exc}") from exc
        if "vocabulary" not in sections:
            raise ModelFormatError("incomplete model: no vocabulary section")
        vocab_text = _read_block(fh, "vocabulary").decode("utf-8")
        blobs = {e["name"]: (_read_block(fh, e["name"]), e) for e in table}
        if fh.read(1):
            raise ModelFormatError("trailing bytes after the last block")

    vocab = Vocabulary.from_text(vocab_text, max_size=config.vocab_size)
    model = build_model(config, seed=0)
    state = dict(model.state_items())
    if set(blobs) != set(state):
        raise ModelFormatError("model file arrays do not match the architecture")
    for name, (raw, entry) in blobs.items():
        dst = state[name]
        arr = np.frombuffer(raw, dtype=np.dtype(entry["dtype"]))
        if arr.size != dst.size:
            raise ModelFormatError(f"size mismatch in block {name!r}")
        dst[...] = arr.reshape(entry["shape"]).astype(dst.dtype)
    return model, vocab
