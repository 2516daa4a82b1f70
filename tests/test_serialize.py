import numpy as np
import pytest

from sentigru import ModelConfig, build_model, build_vocabulary, load, save
from sentigru.layers import softmax_cross_entropy
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
