import pytest

from sentigru import (
    FrequencyTable,
    default_stopwords,
    frequency_by_label,
    table_to_dict,
    top_k,
)
from sentigru.corpus import LabeledCorpus, LabeledRecord


def corpus_from(pairs):
    return LabeledCorpus(records=tuple(LabeledRecord(t, y) for t, y in pairs))


class TestFrequencyTable:
    def test_total_and_label_name(self):
        table = FrequencyTable(label=1, counts={"happy": 3, "glad": 2})
        assert table.total_tokens == 5
        assert table.label_name == "joy"

    def test_combined_label_name(self):
        assert FrequencyTable(label="all", counts={}).label_name == "all"

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            FrequencyTable(label=0, counts={"x": 0})


class TestFrequencyByLabel:
    def test_single_record(self):
        tables = frequency_by_label(corpus_from([("i feel happy happy", 1)]))
        assert tables[1].counts == {"feel": 1, "happy": 2}
        assert tables["all"].counts == {"feel": 1, "happy": 2}

    def test_every_label_key_present_even_when_empty(self):
        tables = frequency_by_label(corpus_from([("feel sad", 0)]))
        assert set(tables) == {0, 1, 2, 3, 4, 5, "all"}
        assert tables[4].counts == {}

    def test_combined_equals_sum_of_labels(self):
        corpus = corpus_from([
            ("feel lost lost", 0),
            ("feel happy", 1),
            ("lost again", 0),
        ])
        tables = frequency_by_label(corpus)
        merged = {}
        for label in range(6):
            for token, count in tables[label].counts.items():
                merged[token] = merged.get(token, 0) + count
        assert merged == tables["all"].counts
        assert tables["all"].total_tokens == sum(
            tables[i].total_tokens for i in range(6))

    def test_stopword_filtering_is_the_only_difference(self):
        corpus = corpus_from([("i am so very happy today", 1)])
        kept = frequency_by_label(corpus, frozenset())
        filtered = frequency_by_label(corpus)
        removed = set(kept["all"].counts) - set(filtered["all"].counts)
        assert removed  # the sentence contains common filler words
        assert removed <= default_stopwords()
        surviving = set(filtered["all"].counts)
        assert surviving == set(kept["all"].counts) - default_stopwords()

    def test_custom_stoplist(self):
        corpus = corpus_from([("alpha beta gamma", 2)])
        tables = frequency_by_label(corpus, frozenset({"beta"}))
        assert tables[2].counts == {"alpha": 1, "gamma": 1}

    def test_counts_are_case_and_punctuation_normalized(self):
        tables = frequency_by_label(
            corpus_from([("Happy, HAPPY... happy!", 1)]))
        assert tables[1].counts == {"happy": 3}


class TestTopK:
    TABLE = FrequencyTable(label=0, counts={
        "low": 1, "mid": 5, "peak": 9, "also_mid": 5,
    })

    def test_orders_by_count_then_token(self):
        assert top_k(self.TABLE, 4) == [
            ("peak", 9), ("also_mid", 5), ("mid", 5), ("low", 1)]

    def test_truncates_to_k(self):
        assert top_k(self.TABLE, 2) == [("peak", 9), ("also_mid", 5)]

    def test_k_zero_and_oversized_k(self):
        assert top_k(self.TABLE, 0) == []
        assert len(top_k(self.TABLE, 100)) == 4

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            top_k(self.TABLE, -1)

    def test_prefix_property(self):
        for k in range(1, 5):
            assert top_k(self.TABLE, k) == top_k(self.TABLE, 4)[:k]


class TestTableToDict:
    def test_entries_and_frequencies(self):
        doc = table_to_dict(self.table(), k=2)
        assert doc["label_name"] == "anger"
        assert doc["total_tokens"] == 8
        assert doc["entries"][0] == {
            "token": "rage", "count": 5, "frequency": pytest.approx(5 / 8)}
        assert len(doc["entries"]) == 2

    def test_frequencies_sum_to_one_without_truncation(self):
        doc = table_to_dict(self.table())
        assert sum(e["frequency"] for e in doc["entries"]) == pytest.approx(1.0)

    def test_empty_table(self):
        doc = table_to_dict(FrequencyTable(label=5, counts={}))
        assert doc["total_tokens"] == 0 and doc["entries"] == []

    @staticmethod
    def table():
        return FrequencyTable(label=3, counts={"rage": 5, "mad": 2, "why": 1})
