"""Corpus ingestion, text cleaning, tokenization, vocabulary, and encoding."""

import csv
import functools
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

LABEL_NAMES = ("sadness", "joy", "love", "anger", "fear", "surprise")
NUM_CLASSES = len(LABEL_NAMES)

PAD_ID = 0
OOV_ID = 1

_NON_LETTER = re.compile(r"[^a-z]+")
_LINE = re.compile(r"[^\n]+")
_UNSAVABLE = re.compile(r"[\t\n\ud800-\udfff]")      # splits a line, or not UTF-8


class DatasetError(ValueError):
    """Raised for malformed dataset files; messages carry the offending row."""


@dataclass(frozen=True)
class LabeledRecord:
    text: str
    label: int

    def __post_init__(self):
        if not 0 <= self.label < NUM_CLASSES:
            raise ValueError(f"label {self.label} outside 0..{NUM_CLASSES - 1}")


@dataclass(frozen=True)
class LabeledCorpus:
    records: tuple[LabeledRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def labels(self) -> list[int]:
        return [r.label for r in self.records]


def load_dataset(path, delimiter: str = ",") -> LabeledCorpus:
    """Read a delimited text file with columns (text, label) into a corpus.

    A header row is detected: the first row is skipped when its label column
    does not parse as an integer. Bytes that are not UTF-8,
    and rows the csv module rejects (a field over its 128 KiB limit, say),
    raise :class:`DatasetError` naming the row.
    """
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        first = True
        for row in _rows(reader, path):
            lineno = reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise DatasetError(f"expected 2 fields, got {len(row)} at row {lineno}")
            text, label_field = row
            if first:
                first = False
                if not _is_int(label_field):
                    continue
            if not _is_int(label_field):
                raise DatasetError(f"non-integer label {label_field!r} at row {lineno}")
            label = int(label_field)
            if not 0 <= label < NUM_CLASSES:
                raise DatasetError(f"label out of range at row {lineno}")
            records.append(LabeledRecord(text=text, label=label))
    return LabeledCorpus(records=tuple(records))


def _rows(reader, path):
    """The rows of ``reader``, with its decoding and csv faults as DatasetError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DatasetError(f"{exc} at row {reader.line_num}") from None
    except UnicodeDecodeError:
        # the decoder reads ahead in chunks, so find the line itself
        raise DatasetError(f"invalid UTF-8 at row {undecodable_line(path)}") from None


def undecodable_line(path) -> int:
    """Number of the first line of ``path`` that is not valid UTF-8."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return lineno


def _is_int(s: str) -> bool:
    try:
        int(s)
    except ValueError:
        return False
    return True


def clean_text(raw: str) -> str:
    """Lowercase and reduce to ASCII letters separated by single spaces.

    Every non-letter character (punctuation, digits, symbols, non-ASCII)
    becomes a word boundary. Idempotent.
    """
    return _NON_LETTER.sub(" ", raw.lower()).strip(" ")


def tokenize(cleaned: str) -> list[str]:
    """Split cleaned text on spaces; never yields empty tokens."""
    return cleaned.split()


def remove_stopwords(tokens, stoplist) -> list[str]:
    """Order-preserving filter dropping tokens found in ``stoplist``."""
    return [t for t in tokens if t not in stoplist]


@functools.cache
def default_stopwords() -> frozenset[str]:
    """The fixed English stopword list shipped with the package."""
    text = resources.files("sentigru").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(text.split())


def load_stopwords(path) -> frozenset[str]:
    """Load a user stopword list: UTF-8 text, one token per line; blank lines
    and lines starting with ``#`` are skipped. Other bytes raise
    :class:`DatasetError` naming the file and the line."""
    try:
        with open(path, encoding="utf-8") as fh:
            words = (line.strip() for line in fh)
            return frozenset(w for w in words if w and not w.startswith("#"))
    except UnicodeDecodeError:
        raise DatasetError(f"invalid UTF-8 in stopword file {str(path)!r} at line "
                           f"{undecodable_line(path)}") from None


def text_to_tokens(raw: str, stopwords=None) -> list[str]:
    """Full preprocessing of one raw text: clean, tokenize, filter.

    ``stopwords`` defaults to the shipped list; pass an empty set to keep
    every token.
    """
    if stopwords is None:
        stopwords = default_stopwords()
    return remove_stopwords(tokenize(clean_text(raw)), stopwords)


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-id map with reserved pad (0) and out-of-vocabulary (1) ids."""

    token_to_id: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.token_to_id) + 2

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, OOV_ID)

    def to_text(self) -> str:
        """Render as ``token<TAB>id`` lines in id order; ValueError names a bad token."""
        if (bad := next(filter(_UNSAVABLE.search, self.token_to_id), None)) is not None:
            raise ValueError(f"token {bad!r} holds a tab, a newline or a lone surrogate")
        rows = sorted(self.token_to_id.items(), key=lambda kv: kv[1])
        return "".join(f"{token}\t{idx}\n" for token, idx in rows)

    @classmethod
    def from_text(cls, text: str) -> "Vocabulary":
        """Parse :meth:`to_text` output. Lines are matched one at a time, not
        split into a list, so parsing holds little beyond the map itself."""
        token_to_id = {}
        for match in _LINE.finditer(text):
            line = match.group()
            if not line.strip():
                continue
            token, idx = line.split("\t")
            token_to_id[token] = int(idx)
        n = len(token_to_id)
        seen = bytearray(n + 2)
        for idx in token_to_id.values():
            if not 2 <= idx < n + 2 or seen[idx]:
                raise DatasetError("vocabulary ids must be dense starting at 2")
            seen[idx] = 1
        return cls(token_to_id=token_to_id)


def build_vocabulary(token_sequences, max_size: int = 50_000) -> Vocabulary:
    """Assign ids 2.. to the most frequent tokens, ties broken alphabetically.

    Ids 0 and 1 stay reserved for padding and out-of-vocabulary tokens, so at
    most ``max_size - 2`` corpus tokens are kept. Deterministic.
    """
    if max_size < 3:
        raise ValueError(f"max_size must be >= 3, got {max_size}")
    counts = Counter()
    for tokens in token_sequences:
        counts.update(tokens)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    token_to_id = {tok: i + 2 for i, (tok, _) in enumerate(ranked[: max_size - 2])}
    return Vocabulary(token_to_id=token_to_id)


def encode(tokens, vocab: Vocabulary, seq_len: int) -> np.ndarray:
    """Map tokens to a fixed-length id vector.

    Unknown tokens map to the oov id. Longer sequences keep their last
    ``seq_len`` tokens; shorter ones are pre-padded with the pad id so real
    tokens end at position ``seq_len - 1``.
    """
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    ids = [vocab.id_for(t) for t in tokens[-seq_len:]]
    out = np.zeros(seq_len, dtype=np.int64)
    if ids:
        out[seq_len - len(ids):] = ids
    return out


def encode_corpus(corpus: LabeledCorpus, vocab: Vocabulary, seq_len: int,
                  stopwords=None) -> tuple[np.ndarray, np.ndarray]:
    """Preprocess and encode every record; returns (ids [N,T], labels [N])."""
    ids = np.zeros((len(corpus), seq_len), dtype=np.int64)
    for i, rec in enumerate(corpus.records):
        ids[i] = encode(text_to_tokens(rec.text, stopwords), vocab, seq_len)
    labels = np.asarray(corpus.labels(), dtype=np.int64)
    return ids, labels


def split(corpus: LabeledCorpus, train_fraction: float, seed: int,
          stratify: bool = False) -> tuple[LabeledCorpus, LabeledCorpus]:
    """Seeded uniform shuffle, then cut at round(train_fraction * N).

    With ``stratify`` the cut is applied per label before recombining, which
    can shift the total train size by rounding. Deterministic for fixed seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(corpus)
    if n < 2:
        raise ValueError(f"need at least 2 records to split, got {n}")
    rng = np.random.default_rng(seed)
    if stratify:
        train_idx, test_idx = [], []
        for label in range(NUM_CLASSES):
            group = [i for i, r in enumerate(corpus.records) if r.label == label]
            if not group:
                continue
            perm = rng.permutation(len(group))
            cut = round(train_fraction * len(group))
            train_idx.extend(group[j] for j in perm[:cut])
            test_idx.extend(group[j] for j in perm[cut:])
        train_idx = [train_idx[j] for j in rng.permutation(len(train_idx))]
        test_idx = [test_idx[j] for j in rng.permutation(len(test_idx))]
    else:
        perm = rng.permutation(n)
        cut = round(train_fraction * n)
        train_idx, test_idx = perm[:cut].tolist(), perm[cut:].tolist()
    train = LabeledCorpus(records=tuple(corpus.records[i] for i in train_idx))
    test = LabeledCorpus(records=tuple(corpus.records[i] for i in test_idx))
    return train, test
