import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentigru import (LABEL_NAMES, OOV_ID, PAD_ID, DatasetError, LabeledCorpus,
                      LabeledRecord, Vocabulary, build_vocabulary, clean_text,
                      default_stopwords, encode, encode_corpus, load_dataset,
                      load_stopwords, remove_stopwords, split, text_to_tokens,
                      tokenize)

CLEANED = re.compile(r"[a-z]+( [a-z]+)*")


def make_corpus(n, label_of=lambda i: i % 6):
    records = tuple(LabeledRecord(f"rec number {'x' * (i % 5 + 1)}", label_of(i))
                    for i in range(n))
    return LabeledCorpus(records)


class TestCleanText:
    def test_strips_punctuation_digits_case(self):
        assert clean_text("I'm SO-so happy!! 123 :)") == "i m so so happy"

    def test_non_ascii_becomes_boundary(self):
        assert clean_text("café nap") == "caf nap"

    def test_empty_and_junk_only(self):
        assert clean_text("") == ""
        assert clean_text("123 !!! §¶") == ""

    @given(st.text(max_size=200))
    @settings(deadline=None)
    def test_output_alphabet(self, raw):
        out = clean_text(raw)
        assert out == "" or CLEANED.fullmatch(out)

    @given(st.text(max_size=200))
    @settings(deadline=None)
    def test_idempotent(self, raw):
        once = clean_text(raw)
        assert clean_text(once) == once


class TestTokenize:
    def test_splits_on_spaces(self):
        assert tokenize("a bb ccc") == ["a", "bb", "ccc"]

    def test_empty(self):
        assert tokenize("") == []

    @given(st.text(max_size=200))
    @settings(deadline=None)
    def test_round_trips_cleaned_text(self, raw):
        cleaned = clean_text(raw)
        tokens = tokenize(cleaned)
        assert all(tokens)
        assert " ".join(tokens) == cleaned


class TestStopwords:
    def test_filter_preserves_order(self):
        assert remove_stopwords(["i", "feel", "so", "lost"], {"i", "so"}) == \
            ["feel", "lost"]

    def test_default_list_is_lowercase_alpha(self):
        words = default_stopwords()
        assert len(words) > 100
        assert all(w.islower() and w.isalpha() for w in words)

    def test_dont_is_deliberately_kept(self):
        # contraction collapses to "dont", which carries sentiment signal
        assert "dont" not in default_stopwords()
        assert "don" in default_stopwords()

    def test_load_custom_list(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("alpha\n\nbeta\n")
        assert load_stopwords(p) == frozenset({"alpha", "beta"})

    def test_comment_lines_are_skipped(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("# my list\nalpha\n  # indented note\nbeta\n")
        assert load_stopwords(p) == frozenset({"alpha", "beta"})

    def test_non_utf8_list_names_file_and_line(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_bytes(b"alpha\nbeta\n\xe9\n")
        with pytest.raises(DatasetError, match=r"stop\.txt' at line 3"):
            load_stopwords(p)

    def test_text_to_tokens_default_filters(self):
        assert text_to_tokens("I feel so lost") == ["feel", "lost"]

    def test_text_to_tokens_empty_set_keeps_all(self):
        assert text_to_tokens("I feel so lost", frozenset()) == \
            ["i", "feel", "so", "lost"]


class TestGoldenTexts:
    def test_shipped_stoplist_reproduces_goldens(self, data_dir):
        cases = json.loads((data_dir / "golden_tokens.json").read_text())
        assert len(cases) == 5
        for case in cases:
            assert text_to_tokens(case["text"]) == case["tokens"], case["text"]

    def test_golden_labels_are_valid(self, data_dir):
        cases = json.loads((data_dir / "golden_tokens.json").read_text())
        for case in cases:
            LabeledRecord(case["text"], case["label"])


class TestVocabulary:
    def test_ranking_by_count_then_alpha(self):
        vocab = build_vocabulary([["b", "a", "b"], ["a", "b", "c"]])
        assert vocab.token_to_id == {"b": 2, "a": 3, "c": 4}

    def test_max_size_caps_tokens(self):
        vocab = build_vocabulary([["b", "a", "b"], ["a", "b", "c"]], max_size=4)
        assert vocab.token_to_id == {"b": 2, "a": 3}
        assert vocab.id_for("c") == OOV_ID

    def test_size_counts_reserved_ids(self):
        vocab = build_vocabulary([["x"]])
        assert vocab.size == 3

    def test_max_size_too_small(self):
        with pytest.raises(ValueError):
            build_vocabulary([["x"]], max_size=2)

    def test_text_round_trip(self):
        vocab = build_vocabulary([["b", "a", "b", "c"]])
        again = Vocabulary.from_text(vocab.to_text())
        assert again.token_to_id == vocab.token_to_id

    def test_from_text_rejects_sparse_ids(self):
        with pytest.raises(DatasetError):
            Vocabulary.from_text("a\t2\nb\t4\n")

    @pytest.mark.parametrize("text", ["a\t2\nb\t2\n", "a\t3\nb\t4\n",
                                      "a\t1\nb\t2\n", "a\t2\na\t3\n"])
    def test_from_text_rejects_duplicate_or_reserved_ids(self, text):
        with pytest.raises(DatasetError):
            Vocabulary.from_text(text)

    def test_from_text_accepts_any_line_order_and_blank_lines(self):
        vocab = Vocabulary.from_text("b\t3\n\n  \na\t2\r\n")
        assert vocab.token_to_id == {"a": 2, "b": 3}


class TestEncode:
    @pytest.fixture()
    def vocab(self):
        return build_vocabulary([["alpha", "beta", "gamma", "alpha"]])

    def test_front_truncation_keeps_last(self, vocab):
        tokens = ["beta", "gamma", "alpha", "beta", "gamma"]
        got = encode(tokens, vocab, seq_len=4)
        want = [vocab.id_for(t) for t in tokens[-4:]]
        assert got.tolist() == want

    def test_pre_padding(self, vocab):
        got = encode(["alpha"], vocab, seq_len=4)
        assert got.tolist() == [PAD_ID, PAD_ID, PAD_ID, vocab.id_for("alpha")]

    def test_unknown_maps_to_oov(self, vocab):
        got = encode(["zzz"], vocab, seq_len=2)
        assert got.tolist() == [PAD_ID, OOV_ID]

    def test_empty_tokens_all_pad(self, vocab):
        assert encode([], vocab, seq_len=3).tolist() == [PAD_ID] * 3

    def test_bad_seq_len(self, vocab):
        with pytest.raises(ValueError):
            encode(["alpha"], vocab, seq_len=0)

    @given(st.lists(st.sampled_from(["alpha", "beta", "zzz"]), max_size=30),
           st.integers(min_value=1, max_value=8))
    @settings(deadline=None)
    def test_shape_range_and_pad_prefix(self, tokens, seq_len):
        vocab = build_vocabulary([["alpha", "beta", "gamma", "alpha"]])
        out = encode(tokens, vocab, seq_len)
        assert out.shape == (seq_len,)
        assert out.dtype == np.int64
        assert ((0 <= out) & (out < vocab.size)).all()
        real = out != PAD_ID
        if real.any():
            first = int(np.argmax(real))
            assert (out[first:] != PAD_ID).all()
            assert real[-1] or len(tokens) == 0

    def test_encode_corpus_shapes(self):
        corpus = LabeledCorpus((LabeledRecord("alpha beta", 1),
                                LabeledRecord("gamma", 4)))
        vocab = build_vocabulary([["alpha", "beta", "gamma"]])
        ids, labels = encode_corpus(corpus, vocab, seq_len=5, stopwords=frozenset())
        assert ids.shape == (2, 5)
        assert labels.tolist() == [1, 4]


class TestLoadDataset:
    def test_header_auto_detected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("text,label\nhello there,2\nanother one,5\n")
        corpus = load_dataset(p)
        assert [r.label for r in corpus.records] == [2, 5]

    def test_headerless_first_row_kept(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("hello there,2\nanother one,5\n")
        assert len(load_dataset(p)) == 2

    def test_tab_delimiter(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("text\tlabel\nwith, comma\t3\n")
        corpus = load_dataset(p, delimiter="\t")
        assert corpus.records[0].text == "with, comma"

    def test_label_out_of_range_reports_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("text,label\nok,1\nbad,6\n")
        with pytest.raises(DatasetError, match="row 3"):
            load_dataset(p)

    def test_non_integer_label_reports_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("ok,1\nbad,joy\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_dataset(p)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,1\nb,2,extra\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_dataset(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,1\n\nb,2\n\n")
        assert len(load_dataset(p)) == 2

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "absent.csv")

    def test_non_utf8_reports_row(self, tmp_path):
        # far enough in that the decoder's read-ahead has passed the bad line
        p = tmp_path / "d.csv"
        p.write_bytes(b"text,label\n" + b"fine,1\n" * 3000 + b"caf\xe9,2\nok,3\n")
        with pytest.raises(DatasetError, match="invalid UTF-8 at row 3002"):
            load_dataset(p)

    def test_oversized_field_reports_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("text,label\nok,1\n" + "a" * (128 * 1024 + 1) + ",2\n")
        with pytest.raises(DatasetError, match="field larger than field limit.*row 3"):
            load_dataset(p)

    @settings(max_examples=150, deadline=None)
    @given(raw=st.binary(max_size=200) | st.lists(
        st.sampled_from([b"a", b",", b"\n", b"\r", b'"', b"3", b"9", b"-",
                         b"\xe9", b"\xc3\xa9", b"\x00", b" ", b"\t"]),
        max_size=60).map(b"".join))
    def test_arbitrary_bytes_load_or_raise_dataset_error(self, tmp_path_factory, raw):
        p = tmp_path_factory.mktemp("csv") / "d.csv"
        p.write_bytes(raw)
        try:
            corpus = load_dataset(p)
        except DatasetError:
            return
        assert all(0 <= r.label < len(LABEL_NAMES) for r in corpus.records)


class TestLabels:
    def test_names_in_canonical_order(self):
        assert LABEL_NAMES == ("sadness", "joy", "love", "anger", "fear",
                               "surprise")

    def test_record_rejects_bad_label(self):
        with pytest.raises(ValueError):
            LabeledRecord("x", 6)
        with pytest.raises(ValueError):
            LabeledRecord("x", -1)


class TestSplit:
    def test_sizes_follow_round(self):
        train, test = split(make_corpus(10), 0.8, seed=1)
        assert (len(train), len(test)) == (8, 2)
        train, test = split(make_corpus(11), 0.8, seed=1)
        assert (len(train), len(test)) == (9, 2)

    def test_partition_preserves_records(self):
        corpus = make_corpus(30)
        train, test = split(corpus, 0.7, seed=3)
        merged = sorted(r.text for r in train.records + test.records)
        assert merged == sorted(r.text for r in corpus.records)

    def test_deterministic_for_seed(self):
        corpus = make_corpus(25)
        a = split(corpus, 0.8, seed=9)
        b = split(corpus, 0.8, seed=9)
        assert a[0].records == b[0].records
        assert a[1].records == b[1].records

    def test_seed_changes_shuffle(self):
        corpus = make_corpus(40)
        a, _ = split(corpus, 0.5, seed=0)
        b, _ = split(corpus, 0.5, seed=1)
        assert a.records != b.records

    def test_stratified_split_balances_labels(self):
        corpus = make_corpus(60)
        train, _ = split(corpus, 0.8, seed=2, stratify=True)
        per_label = [sum(1 for r in train.records if r.label == k)
                     for k in range(6)]
        assert per_label == [8] * 6

    def test_rejects_bad_fraction_and_tiny_corpus(self):
        with pytest.raises(ValueError):
            split(make_corpus(10), 0.0, seed=0)
        with pytest.raises(ValueError):
            split(make_corpus(10), 1.0, seed=0)
        with pytest.raises(ValueError):
            split(make_corpus(1), 0.5, seed=0)
