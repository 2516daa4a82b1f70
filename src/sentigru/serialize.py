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

:func:`load` checks before it allocates. No read or array is ever sized by
a number from the file that has not been checked against the file's size:

1. magic, version, and a header length that fits in the file;
2. the header's config must pass :class:`ModelConfig`, and the parameter
   bytes it implies (:func:`~sentigru.model.state_size`) must fit in the
   file;
3. only then is the model built, with zero weights and no random draws, and
   the header's array table must equal its ``state_items()``: the same
   names in order, exact shapes, and the config's dtype as ``<f4``/``<f8``;
4. the vocabulary block is read; it may hold no more ids than
   ``vocab_size``;
5. each array block's length must equal its destination's byte size, and
   its payload is read straight into that parameter, then CRC-checked
   there; no staging copy is made. Bytes after the last block are an error.

Every failure raises :class:`ModelFormatError`.
"""

import json
import os
import struct
import sys
import zlib

import numpy as np

from .corpus import Vocabulary
from .model import Model, ModelConfig, build_model, state_size

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


def _read_length(fh, name: str, size: int) -> int:
    """A block's u64 payload length; the payload and its CRC must fit in the
    ``size``-byte file."""
    (length,) = struct.unpack("<Q", _read_exact(fh, 8))
    if length + 4 > size - fh.tell():
        raise ModelFormatError(f"truncated model file: block {name!r} claims "
                               f"{length} bytes")
    return length


def _check_crc(fh, name: str, payload) -> None:
    (stored,) = struct.unpack("<I", _read_exact(fh, 4))
    if zlib.crc32(payload) != stored:
        raise ModelFormatError(f"checksum mismatch in block {name!r}")


def _le_dtype(arr: np.ndarray) -> np.dtype:
    return arr.dtype.newbyteorder("<")


def _write_file(path, config: ModelConfig, vocab_text, arrays) -> None:
    vocab = [] if vocab_text is None else [vocab_text.encode("utf-8")]
    table = [{"name": name, "dtype": _le_dtype(a).str, "shape": list(a.shape)}
             for name, a in arrays]
    header = json.dumps({
        "config": config.to_dict(),
        "sections": ["vocabulary"] * len(vocab) + [e["name"] for e in table],
        "arrays": table,
    }).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for payload in vocab:
            _write_block(fh, payload)
        for _, a in arrays:
            _write_block(fh, np.ascontiguousarray(a, dtype=_le_dtype(a)).tobytes())


def save(model: Model, vocab: Vocabulary, path) -> None:
    """Write config, vocabulary, parameters and running stats, checking tokens first."""
    _write_file(path, model.config, vocab.to_text(), model.state_items())


def load(path) -> tuple[Model, Vocabulary]:
    """Read a file written by :func:`save`; verifies every block checksum."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4) != MAGIC:
            raise ModelFormatError("not a model file: bad magic")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != FORMAT_VERSION:
            raise ModelFormatError(f"unsupported model format version {version}")
        (hlen,) = struct.unpack("<Q", _read_exact(fh, 8))
        if hlen > size - fh.tell():
            raise ModelFormatError("truncated model file: header runs past the end")
        raw_header = _read_exact(fh, hlen)
        try:
            header = json.loads(raw_header.decode("utf-8"))
            config = ModelConfig.from_dict(header["config"])
            sections = header["sections"]
            table = [(e["name"], e["dtype"], e["shape"]) for e in header["arrays"]]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ModelFormatError(f"corrupt model header: {exc}") from exc
        param_bytes = state_size(config) * np.dtype(config.np_dtype).itemsize
        if param_bytes > size - fh.tell():
            raise ModelFormatError(
                f"truncated model file: the config needs {param_bytes} parameter "
                f"bytes, the file has {size} bytes in all")

        # the header fits the file: only now is the model allocated
        model = build_model(config)
        state = model.state_items()
        dtype = np.dtype(config.np_dtype).newbyteorder("<").str
        if table != [(name, dtype, list(a.shape)) for name, a in state]:
            raise ModelFormatError("model file arrays do not match the architecture")
        if sections != ["vocabulary"] + [name for name, _ in state]:
            raise ModelFormatError("incomplete model: sections do not match the "
                                   "vocabulary and arrays")

        length = _read_length(fh, "vocabulary", size)
        payload = _read_exact(fh, length)
        _check_crc(fh, "vocabulary", payload)
        try:
            text = payload.decode("utf-8")
            del payload
            vocab = Vocabulary.from_text(text)
        except ValueError as exc:
            raise ModelFormatError(f"corrupt vocabulary: {exc}") from exc
        if vocab.size > config.vocab_size:
            raise ModelFormatError(f"vocabulary of {vocab.size} ids exceeds the "
                                   f"config's vocab_size {config.vocab_size}")

        for name, dst in state:
            if _read_length(fh, name, size) != dst.nbytes:
                raise ModelFormatError(f"size mismatch in block {name!r}")
            view = memoryview(dst).cast("B")
            if fh.readinto(view) != dst.nbytes:
                raise ModelFormatError("truncated model file")
            _check_crc(fh, name, view)
            if sys.byteorder != "little":
                dst.byteswap(inplace=True)
        if fh.read(1):
            raise ModelFormatError("trailing bytes after the last block")
    return model, vocab
