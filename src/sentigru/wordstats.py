"""Per-label word frequencies, emitted as data for external cloud renderers."""

from collections import Counter
from dataclasses import dataclass, field

from . import corpus as corpus_mod


@dataclass(frozen=True)
class FrequencyTable:
    """Token occurrence counts for one label (or "all" for the whole corpus)."""

    label: int | str
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        if any(c <= 0 for c in self.counts.values()):
            raise ValueError("stored counts must be positive")

    @property
    def total_tokens(self) -> int:
        return sum(self.counts.values())

    @property
    def label_name(self) -> str:
        if self.label == "all":
            return "all"
        return corpus_mod.LABEL_NAMES[self.label]


def frequency_by_label(corpus: corpus_mod.LabeledCorpus, stopwords=None) -> dict:
    """Count tokens per label; returns {0..5: table, "all": combined table}.

    Tokens come from :func:`~sentigru.corpus.text_to_tokens`, so
    ``stopwords=None`` uses the shipped list and an empty set keeps every
    token. Every label gets a table even when no record carries it. The
    combined table is the exact sum of the six per-label tables.
    """
    per_label = {k: Counter() for k in range(len(corpus_mod.LABEL_NAMES))}
    combined = Counter()
    for rec in corpus.records:
        tokens = corpus_mod.text_to_tokens(rec.text, stopwords)
        per_label[rec.label].update(tokens)
        combined.update(tokens)
    tables = {k: FrequencyTable(k, dict(c)) for k, c in per_label.items()}
    tables["all"] = FrequencyTable("all", dict(combined))
    return tables


def top_k(table: FrequencyTable, k: int) -> list[tuple[str, int]]:
    """Top k tokens, descending by count, ties broken lexicographically."""
    if k < 0:
        raise ValueError("k must be >= 0")
    ranked = sorted(table.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def table_to_dict(table: FrequencyTable, k: int | None = None) -> dict:
    """JSON-ready document: {label_name, total_tokens, entries}."""
    if k is None:
        k = len(table.counts)
    total = table.total_tokens
    return {
        "label_name": table.label_name,
        "total_tokens": total,
        "entries": [{
            "token": token,
            "count": count,
            "frequency": count / total if total else 0.0,
        } for token, count in top_k(table, k)],
    }
