import gc
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentigru import ModelConfig, build_model, build_vocabulary, load, save
from sentigru.corpus import Vocabulary
from sentigru.layers import softmax_cross_entropy
from sentigru.model import MAX_SEQ_LEN
from sentigru.serialize import FORMAT_VERSION, MAGIC, ModelFormatError, _write_file
from sentigru.trainer import Adam


@pytest.fixture()
def trained(tmp_path):
    """Small model nudged off its initialization, with moving stats moved."""
    cfg = ModelConfig(vocab_size=20, embed_dim=6, seq_len=5,
                      gru_units=(4, 3, 3), dropout_rate=0.2)
    model = build_model(cfg, seed=11)
    vocab = build_vocabulary([[f"tok{c}" for c in "abcdefghij"]])
    rng = np.random.default_rng(0)
    optimizer = Adam()
    for _ in range(3):
        ids = rng.integers(0, cfg.vocab_size, (4, cfg.seq_len))
        labels = rng.integers(0, 6, 4)
        logits = model.forward(ids, "train", rng=rng)
        _, dlogits = softmax_cross_entropy(logits, labels)
        model.zero_grad()
        model.backward(dlogits)
        optimizer.step(model.trainable())
    path = tmp_path / "model.bin"
    save(model, vocab, path)
    return model, vocab, path


class TestRoundTrip:
    def test_state_and_vocab_bit_exact(self, trained):
        model, vocab, path = trained
        loaded, loaded_vocab = load(path)
        assert loaded.config == model.config
        assert loaded_vocab.token_to_id == vocab.token_to_id
        saved = dict(model.state_items())
        restored = dict(loaded.state_items())
        assert set(saved) == set(restored)
        for name, arr in saved.items():
            assert arr.dtype == restored[name].dtype, name
            assert np.array_equal(arr, restored[name]), name

    def test_moving_stats_survive(self, trained):
        model, _, path = trained
        bn = dict(model.named_layers)["batch_norm"]
        assert np.abs(bn.moving_mean).sum() > 0
        loaded, _ = load(path)
        bn2 = dict(loaded.named_layers)["batch_norm"]
        assert np.array_equal(bn.moving_mean, bn2.moving_mean)
        assert np.array_equal(bn.moving_var, bn2.moving_var)

    def test_forward_bitwise_identical(self, trained):
        model, _, path = trained
        loaded, _ = load(path)
        rng = np.random.default_rng(5)
        for _ in range(20):
            ids = rng.integers(0, model.config.vocab_size, (3, 5))
            assert np.array_equal(model.forward(ids, "infer"),
                                  loaded.forward(ids, "infer"))

    def test_save_is_deterministic(self, trained, tmp_path):
        model, vocab, path = trained
        other = tmp_path / "again.bin"
        save(model, vocab, other)
        assert path.read_bytes() == other.read_bytes()


class TestCorruptionDetection:
    def test_flipped_byte_in_last_array_block(self, trained):
        _, _, path = trained
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="checksum"):
            load(path)

    def test_flipped_byte_in_vocab_block(self, trained):
        _, _, path = trained
        raw = bytearray(path.read_bytes())
        # vocabulary payload starts just past the header: magic(4) +
        # version(4) + header-length(8) + header + block length prefix(8)
        header_len = int.from_bytes(raw[8:16], "little")
        start = 16 + header_len + 8
        raw[start] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="checksum|vocabulary"):
            load(path)

    def test_truncated_file(self, trained):
        _, _, path = trained
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(ModelFormatError, match="truncated"):
            load(path)

    def test_trailing_bytes(self, trained):
        _, _, path = trained
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ModelFormatError, match="trailing bytes"):
            load(path)

    def test_truncated_header(self, trained):
        _, _, path = trained
        raw = path.read_bytes()
        path.write_bytes(raw[:12])
        with pytest.raises(ModelFormatError, match="truncated"):
            load(path)

    def test_bad_magic(self, trained):
        _, _, path = trained
        raw = bytearray(path.read_bytes())
        assert raw[:4] == MAGIC
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="magic"):
            load(path)

    def test_version_mismatch(self, trained):
        _, _, path = trained
        raw = bytearray(path.read_bytes())
        raw[4:8] = (FORMAT_VERSION + 1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="version"):
            load(path)

    def test_corrupt_header_json(self, trained):
        _, _, path = trained
        raw = bytearray(path.read_bytes())
        assert raw[16] == ord("{")
        raw[16] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="header"):
            load(path)

    def test_out_of_range_dropout_in_header(self, trained):
        _, _, path = trained
        raw = path.read_bytes()
        # same length, so the stored header length still holds
        assert raw.count(b'"dropout_rate": 0.2') == 1
        path.write_bytes(raw.replace(b'"dropout_rate": 0.2', b'"dropout_rate": 2.0'))
        with pytest.raises(ModelFormatError, match="dropout_rate"):
            load(path)


class TestIncompleteFiles:
    def test_missing_vocabulary_section(self, trained, tmp_path):
        model, _, _ = trained
        path = tmp_path / "novocab.bin"
        _write_file(path, model.config, None, model.state_items())
        with pytest.raises(ModelFormatError, match="incomplete model"):
            load(path)

    def test_array_set_mismatch(self, trained, tmp_path):
        model, vocab, _ = trained
        path = tmp_path / "missing.bin"
        _write_file(path, model.config, vocab.to_text(),
                    model.state_items()[:-1])
        with pytest.raises(ModelFormatError, match="match"):
            load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load(tmp_path / "absent.bin")


def _split(raw: bytes):
    """A model file's header as a dict, and every byte after the header."""
    hlen = int.from_bytes(raw[8:16], "little")
    return json.loads(raw[16:16 + hlen]), raw[16 + hlen:]


def _join(header: dict, rest: bytes) -> bytes:
    text = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(text)) + text + rest


def _edit_header(raw: bytes, edit) -> bytes:
    header, rest = _split(raw)
    edit(header)
    return _join(header, rest)


def _set_block_length(raw: bytes, block: int, length: int) -> bytes:
    """Overwrite the u64 length of block ``block`` (0 is the vocabulary)."""
    pos = 16 + int.from_bytes(raw[8:16], "little")
    for _ in range(block):
        pos += 8 + int.from_bytes(raw[pos:pos + 8], "little") + 4
    return raw[:pos] + struct.pack("<Q", length) + raw[pos + 8:]


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    """Bytes of a small saved model and a directory to write variants to."""
    cfg = ModelConfig(vocab_size=20, embed_dim=6, seq_len=5,
                      gru_units=(4, 3, 3), dropout_rate=0.2)
    vocab = build_vocabulary([[f"tok{c}" for c in "abcdefghij"]])
    out = tmp_path_factory.mktemp("variants")
    save(build_model(cfg, seed=11), vocab, out / "model.bin")
    return (out / "model.bin").read_bytes(), out


def _load_bytes(directory, raw: bytes):
    path = directory / "variant.bin"
    path.write_bytes(raw)
    return load(path)


def _append_array(h):
    h["arrays"].append({"name": "extra", "dtype": "<f4", "shape": [2]})
    h["sections"].append("extra")


def _drop_array(h):
    h["arrays"].pop()
    h["sections"].pop()


HEADER_EDITS = {
    "vocab_size_1e12_int": (lambda h: h["config"].update(vocab_size=10**12),
                            "parameter bytes"),
    "vocab_size_1e12_float": (lambda h: h["config"].update(vocab_size=1e12),
                              "positive integer"),
    "gru_units_huge": (lambda h: h["config"].update(gru_units=[10**8, 3, 3]),
                       "parameter bytes"),
    "vocab_size_1e20_int": (lambda h: h["config"].update(vocab_size=10**20),
                            "corrupt model header: .* numpy can address"),
    "dtype_object": (lambda h: h["arrays"][0].update(dtype="|O"), "match"),
    "dtype_int32": (lambda h: h["arrays"][0].update(dtype="<i4"), "match"),
    "dtype_other_float": (lambda h: h["arrays"][0].update(dtype="<f8"), "match"),
    "shape_off_by_one": (lambda h: h["arrays"][0]["shape"].__setitem__(0, 21),
                         "match"),
    "shape_short": (lambda h: h["arrays"][2]["shape"].pop(), "match"),
    "extra_array": (_append_array, "match"),
    "missing_array": (_drop_array, "match"),
    "sections_reordered": (lambda h: h["sections"].reverse(), "sections"),
    "arrays_not_a_list": (lambda h: h.update(arrays=7), "header"),
    "config_not_a_dict": (lambda h: h.update(config=[1, 2]), "header"),
    "unknown_config_key": (lambda h: h["config"].update(warp=9), "header"),
    "seq_len_1e12": (lambda h: h["config"].update(seq_len=10**12),
                     "seq_len must be at most"),
}


class TestHeaderChecks:
    @pytest.mark.parametrize("name", sorted(HEADER_EDITS))
    def test_edit_raises_format_error(self, small_file, name):
        raw, out = small_file
        edit, match = HEADER_EDITS[name]
        with pytest.raises(ModelFormatError, match=match):
            _load_bytes(out, _edit_header(raw, edit))

    @pytest.mark.parametrize("block", [0, 1, 5])
    def test_block_length_of_2_pow_62(self, small_file, block):
        raw, out = small_file
        with pytest.raises(ModelFormatError, match="truncated"):
            _load_bytes(out, _set_block_length(raw, block, 2**62))

    def test_block_length_that_fits_but_is_wrong(self, small_file):
        raw, out = small_file
        pos = 16 + int.from_bytes(raw[8:16], "little")
        vocab_len = int.from_bytes(raw[pos:pos + 8], "little")
        first = pos + 8 + vocab_len + 4
        length = int.from_bytes(raw[first:first + 8], "little")
        with pytest.raises(ModelFormatError, match="size mismatch"):
            _load_bytes(out, _set_block_length(raw, 1, length - 4))

    def test_largest_seq_len_loads(self, small_file):
        # seq_len sizes no parameter, so any allowed value fits the same file
        raw, out = small_file
        edit = _edit_header(raw, lambda h: h["config"].update(seq_len=MAX_SEQ_LEN))
        model, _ = _load_bytes(out, edit)
        assert model.config.seq_len == MAX_SEQ_LEN

    def test_header_length_past_the_end(self, small_file):
        raw, out = small_file
        with pytest.raises(ModelFormatError, match="header runs past"):
            _load_bytes(out, raw[:8] + struct.pack("<Q", 2**62) + raw[16:])

    def test_vocabulary_larger_than_vocab_size(self, trained, tmp_path):
        model, _, _ = trained
        assert model.config.vocab_size == 20
        big = build_vocabulary([[f"tok{c}" for c in "abcdefghijklmnopqrst"]])
        assert big.size == 22
        path = tmp_path / "bigvocab.bin"
        _write_file(path, model.config, big.to_text(), model.state_items())
        with pytest.raises(ModelFormatError, match="exceeds the config's vocab_size"):
            load(path)

    def test_vocabulary_of_exactly_vocab_size_loads(self, trained, tmp_path):
        model, _, _ = trained
        full = build_vocabulary([[f"tok{c}" for c in "abcdefghijklmnopqr"]])
        assert full.size == model.config.vocab_size
        path = tmp_path / "fullvocab.bin"
        save(model, full, path)
        assert load(path)[1].token_to_id == full.token_to_id


class TestLoadProperties:
    """Whatever the bytes, load returns a model or raises ModelFormatError."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_byte_flip(self, small_file, data):
        raw, out = small_file
        offset = data.draw(st.integers(0, len(raw) - 1))
        mask = data.draw(st.integers(1, 255))
        flipped = bytearray(raw)
        flipped[offset] ^= mask
        hlen = int.from_bytes(raw[8:16], "little")
        if 16 <= offset < 16 + hlen:
            # an edit inside the JSON may leave a valid, different header
            try:
                _load_bytes(out, bytes(flipped))
            except ModelFormatError:
                pass
        else:
            with pytest.raises(ModelFormatError):
                _load_bytes(out, bytes(flipped))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_truncation(self, small_file, data):
        raw, out = small_file
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(ModelFormatError):
            _load_bytes(out, raw[:cut])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_header_value_replaced(self, small_file, data):
        raw, out = small_file
        header, rest = _split(raw)
        paths = ([("config", key) for key in header["config"]]
                 + [("arrays", i, field) for i in range(len(header["arrays"]))
                    for field in ("name", "dtype", "shape")]
                 + [("sections",), ("arrays",), ("config",)])
        path = data.draw(st.sampled_from(paths))
        value = data.draw(st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(), inner, max_size=4),
            max_leaves=8))
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        try:
            _load_bytes(out, _join(header, rest))
        except ModelFormatError:
            pass


def _unsavable(token):
    return any(c in "\t\n" or 0xD800 <= ord(c) <= 0xDFFF for c in token)


@settings(max_examples=100, deadline=None)
@given(tokens=st.lists(st.text(st.one_of(st.characters(),
                                         st.sampled_from("\t\n\r\ud800\udfff")),
                               max_size=5), unique=True, max_size=18))
def test_vocabulary_round_trips_or_save_changes_nothing(tmp_path_factory, tokens):
    """A vocabulary of any tokens reads back exactly, or save raises
    ValueError naming a token that holds a tab, a newline or a lone surrogate,
    and leaves the file already at the path byte for byte."""
    model = build_model(ModelConfig(vocab_size=20, embed_dim=3, seq_len=5,
                                    gru_units=(4, 3, 3)))
    path = tmp_path_factory.mktemp("vocab") / "model.sgru"
    save(model, build_vocabulary([["kept"]]), path)
    before = path.read_bytes()
    vocab = Vocabulary({token: i + 2 for i, token in enumerate(tokens)})
    if any(map(_unsavable, tokens)):
        with pytest.raises(ValueError) as error:
            save(model, vocab, path)
        assert any(repr(t) in str(error.value) for t in tokens if _unsavable(t))
        assert path.read_bytes() == before
    else:
        save(model, vocab, path)
        assert load(path)[1].token_to_id == vocab.token_to_id


def test_load_peak_memory_is_the_model_itself(tmp_path):
    """Loading allocates the model and little else: the traced peak stays
    within 10% of what the loaded model and vocabulary hold afterwards."""
    cfg = ModelConfig()
    vocab = Vocabulary({f"w{i}": i + 2 for i in range(cfg.vocab_size - 2)})
    path = tmp_path / "paper.bin"
    save(build_model(cfg, seed=0), vocab, path)
    del vocab
    gc.collect()
    tracemalloc.start()
    try:
        loaded = load(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded[0].total_param_count() == 2_817_126
    assert peak <= 1.1 * held, (peak, held)


@pytest.mark.parametrize("vocab, message", [
    (Vocabulary({"a": 5}), "dense starting at 2"),
    (build_vocabulary([["t1", "t2", "t3", "t4", "t5", "t6"]], max_size=50),
     "vocabulary of 8 ids exceeds the config's vocab_size 5"),
], ids=["ids not dense", "more ids than vocab_size"])
def test_save_rejects_a_vocabulary_load_would_reject(tmp_path, vocab, message):
    """save raises ValueError before it opens the file, so the file already
    at the path stays byte for byte."""
    model = build_model(ModelConfig(vocab_size=5, embed_dim=3, seq_len=4,
                                    gru_units=(4, 3, 3)))
    path = tmp_path / "model.sgru"
    save(model, build_vocabulary([["kept"]]), path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match=message):
        save(model, vocab, path)
    assert path.read_bytes() == before
