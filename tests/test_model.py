import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentigru import (LABEL_NAMES, Model, ModelConfig, build_model,
                      build_vocabulary, predict, summary)
from sentigru.layers import softmax_cross_entropy
from sentigru.model import MAX_SEQ_LEN, state_size
from sentigru.numerics import grad_check, softmax

REFERENCE_COUNTS = [2_500_000, 0, 123_840, 117_504, 512, 74_496, 774]
REFERENCE_SHAPES = [(79, 50), (79, 50), (79, 240), (79, 128), (79, 128),
                (128,), (6,)]

SMALL = ModelConfig(vocab_size=30, embed_dim=8, seq_len=6,
                    gru_units=(5, 4, 4), dropout_rate=0.3, dtype="float32")


def small_model(seed=0, **overrides):
    cfg = ModelConfig(**{**SMALL.to_dict(), **overrides})
    return build_model(cfg, seed=seed)


class TestModelConfig:
    def test_defaults_are_the_reference_architecture(self):
        cfg = ModelConfig()
        assert cfg.vocab_size == 50_000
        assert cfg.embed_dim == 50
        assert cfg.seq_len == 79
        assert cfg.gru_units == (120, 64, 64)
        assert cfg.num_classes == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(gru_units=(120, 64))
        with pytest.raises(ValueError):
            ModelConfig(seq_len=0)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=1)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=2)   # only the reserved pad/oov ids
        for rate in (-0.1, 1.0, 2.0, float("nan")):
            with pytest.raises(ValueError, match="dropout_rate"):
                ModelConfig(dropout_rate=rate)
        with pytest.raises(ValueError):
            ModelConfig(num_classes=1)
        with pytest.raises(ValueError):
            ModelConfig(dtype="float16")

    @pytest.mark.parametrize("field, value", [
        ("vocab_size", 1e12), ("vocab_size", "50"), ("embed_dim", 0),
        ("embed_dim", True), ("seq_len", 7.0), ("num_classes", None),
        ("gru_units", (120, 0, 64)), ("gru_units", (120, 64.0, 64))])
    def test_sizes_must_be_positive_integers(self, field, value):
        with pytest.raises(ValueError, match="positive integer"):
            ModelConfig(**{field: value})

    def test_parameters_must_fit_what_numpy_can_address(self):
        # the float64 initial draws of the largest vocabulary still fit
        fixed = state_size(ModelConfig(vocab_size=3)) - 3 * 50
        largest = (np.iinfo(np.intp).max // 8 - fixed) // 50
        assert ModelConfig(vocab_size=largest).vocab_size == largest
        for fields in ({"vocab_size": largest + 1}, {"embed_dim": 10**20},
                       {"gru_units": (10**20, 2, 2)}, {"gru_units": (2, 2, 10**10)}):
            with pytest.raises(ValueError, match="more bytes than numpy can address"):
                ModelConfig(**fields)

    def test_seq_len_maximum(self):
        assert ModelConfig(seq_len=MAX_SEQ_LEN).seq_len == MAX_SEQ_LEN
        for value in (MAX_SEQ_LEN + 1, 10**12):
            with pytest.raises(ValueError, match=f"at most {MAX_SEQ_LEN}"):
                ModelConfig(seq_len=value)

    def test_dict_round_trip(self):
        cfg = ModelConfig(seq_len=12, gru_units=(3, 2, 2))
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestBuildAndSummary:
    def test_reference_parameter_counts(self):
        model = build_model(ModelConfig(), seed=0)
        rows = summary(model)
        assert [r.param_count for r in rows] == REFERENCE_COUNTS
        assert model.total_param_count() == 2_817_126

    def test_reference_output_shapes(self):
        rows = summary(build_model(ModelConfig(), seed=0))
        assert [r.output_shape for r in rows] == REFERENCE_SHAPES

    def test_layer_order(self):
        rows = summary(build_model(ModelConfig(), seed=0))
        assert [r.name for r in rows] == [
            "embedding", "dropout", "bidirectional_gru_1",
            "bidirectional_gru_2", "batch_norm", "bidirectional_gru_3",
            "dense"]

    @given(st.builds(
        ModelConfig, vocab_size=st.integers(3, 40), embed_dim=st.integers(1, 6),
        seq_len=st.integers(1, 6),
        gru_units=st.tuples(*[st.integers(1, 5)] * 3),
        num_classes=st.integers(2, 8),
        dtype=st.sampled_from(["float32", "float64"])))
    @settings(deadline=None, max_examples=50)
    def test_rows_match_real_shapes_and_closed_forms(self, cfg):
        model = build_model(cfg, seed=0)
        rows = summary(model)
        e, (u1, u2, u3), k = cfg.embed_dim, cfg.gru_units, cfg.num_classes

        def bigru(x_dim, h):
            return 2 * 3 * h * (x_dim + h + 2)

        closed = [cfg.vocab_size * e, 0, bigru(e, u1), bigru(2 * u1, u2),
                  4 * 2 * u2, bigru(2 * u2, u3), 2 * u3 * k + k]
        assert len(rows) == len(model.named_layers) == len(closed)
        x = np.arange(2 * cfg.seq_len).reshape(2, cfg.seq_len) % cfg.vocab_size
        for (name, layer), row, count in zip(model.named_layers, rows, closed):
            x = layer.forward(x, "infer")
            assert row.name == name
            assert row.output_shape == x.shape[1:], name
            assert row.param_count == count, name
        assert x.dtype == cfg.np_dtype

    def test_seq_len_changes_shapes_not_params(self):
        rows = summary(build_model(ModelConfig(seq_len=10), seed=0))
        assert [r.param_count for r in rows] == REFERENCE_COUNTS
        assert rows[0].output_shape == (10, 50)
        assert rows[2].output_shape == (10, 240)
        assert rows[5].output_shape == (128,)

    def test_same_seed_bitwise_identical(self):
        a = small_model(seed=3)
        b = small_model(seed=3)
        for (name_a, pa, _), (name_b, pb, _) in zip(a.trainable(), b.trainable()):
            assert name_a == name_b
            assert np.array_equal(pa, pb), name_a

    def test_different_seed_differs(self):
        a, b = small_model(seed=0), small_model(seed=1)
        assert not np.array_equal(a.trainable()[0][1], b.trainable()[0][1])

    def test_trainable_excludes_moving_stats(self):
        names = [name for name, _, _ in small_model().trainable()]
        assert "batch_norm.gamma" in names
        assert not any("moving" in n for n in names)
        state_names = [name for name, _ in small_model().state_items()]
        assert "batch_norm.moving_mean" in state_names
        assert "batch_norm.moving_var" in state_names


class TestForward:
    def make_ids(self, model, batch, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, model.config.vocab_size,
                            (batch, model.config.seq_len))

    def test_shape_and_finiteness(self):
        model = small_model()
        logits = model.forward(self.make_ids(model, 3), mode="infer")
        assert logits.shape == (3, 6)
        assert np.isfinite(logits).all()

    def test_softmax_rows_normalize(self):
        model = small_model()
        logits = model.forward(self.make_ids(model, 4), mode="infer")
        assert np.allclose(softmax(logits).sum(axis=1), 1.0, atol=1e-6)

    def test_infer_mode_deterministic(self):
        model = small_model()
        ids = self.make_ids(model, 2)
        a = model.forward(ids, mode="infer")
        b = model.forward(ids, mode="infer")
        assert np.array_equal(a, b)

    def test_batch_composition_invariance(self):
        model = small_model()
        ids = self.make_ids(model, 5)
        full = model.forward(ids, mode="infer")
        for i in range(5):
            alone = model.forward(ids[i:i + 1], mode="infer")
            assert np.array_equal(full[i:i + 1], alone), f"row {i}"

    def test_train_mode_uses_rng_for_dropout(self):
        model = small_model()
        ids = self.make_ids(model, 4)
        a = model.forward(ids, "train", rng=np.random.default_rng(1))
        b = model.forward(ids, "train", rng=np.random.default_rng(1))
        c = model.forward(ids, "train", rng=np.random.default_rng(2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_wrong_seq_len_rejected(self):
        model = small_model()
        with pytest.raises(ValueError):
            model.forward(np.zeros((2, 5), dtype=np.int64), "infer")

    def test_bad_mode_rejected(self):
        model = small_model()
        with pytest.raises(ValueError):
            model.forward(self.make_ids(model, 1), "test")

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_zero_rows_rejected(self, mode):
        model = small_model()
        ids = np.zeros((0, model.config.seq_len), dtype=np.int64)
        with pytest.raises(ValueError, match="batch size and sequence length"):
            model.forward(ids, mode)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, np.str_])
    def test_non_integer_ids_rejected(self, dtype):
        model = small_model()
        ids = self.make_ids(model, 2).astype(dtype)
        with pytest.raises(ValueError, match=f"dtype {ids.dtype}"):
            model.forward(ids, "infer")

    def test_out_of_vocab_id_rejected(self):
        model = small_model()
        ids = self.make_ids(model, 1)
        ids[0, 0] = model.config.vocab_size
        with pytest.raises(ValueError):
            model.forward(ids, "infer")


class TestUnseededBuild:
    def test_draws_nothing_and_starts_at_zero(self):
        model = build_model(SMALL)
        for name, value in model.state_items():
            fill = 1 if name in ("batch_norm.gamma", "batch_norm.moving_var") else 0
            assert np.all(value == fill), name
            assert value.dtype == SMALL.np_dtype, name
        for name, _, grad in model.trainable():
            assert not grad.any(), name
        # the default dropout rng is a fresh default_rng(0)
        assert (model._rng.bit_generator.state
                == np.random.default_rng(0).bit_generator.state)

    def test_same_layout_as_a_seeded_build(self):
        seeded, unseeded = build_model(SMALL, seed=3), build_model(SMALL)
        assert ([(n, a.shape, a.dtype) for n, a in seeded.state_items()]
                == [(n, a.shape, a.dtype) for n, a in unseeded.state_items()])

    @settings(max_examples=40, deadline=None)
    @given(vocab=st.integers(3, 40), embed=st.integers(1, 6),
           units=st.tuples(*[st.integers(1, 6)] * 3), classes=st.integers(2, 7))
    def test_state_size_counts_the_built_stack(self, vocab, embed, units, classes):
        cfg = ModelConfig(vocab_size=vocab, embed_dim=embed, seq_len=4,
                          gru_units=units, num_classes=classes)
        model = build_model(cfg)
        assert state_size(cfg) == sum(a.size for _, a in model.state_items())

    def test_state_size_of_the_paper_model(self):
        # the reference count, which includes BatchNorm's moving statistics
        assert state_size(ModelConfig()) == 2_817_126


class TestFullModelGradient:
    def test_backward_through_whole_stack(self):
        cfg = ModelConfig(vocab_size=8, embed_dim=3, seq_len=3,
                          gru_units=(2, 2, 2), dropout_rate=0.3,
                          dtype="float64")
        model = build_model(cfg, seed=5)
        rng = np.random.default_rng(6)
        ids = rng.integers(0, 8, (2, 3))
        labels = np.array([1, 4])

        def loss_fn():
            logits = model.forward(ids, "train", rng=np.random.default_rng(99))
            return softmax_cross_entropy(logits, labels)

        model.zero_grad()
        _, dlogits = loss_fn()
        model.backward(dlogits)
        params = {name: p for name, p, _ in model.trainable()}
        analytic = {name: g.copy() for name, _, g in model.trainable()}
        report = grad_check(lambda: loss_fn()[0], params, analytic)
        assert report.max_relative_error < 1e-5, report.per_parameter


    @pytest.mark.parametrize("before, cause", [
        ((), "before any forward"),
        (("train", "infer"), "infer mode"),
        (("train", "backward"), "earlier backward consumed"),
    ], ids=["no_forward", "after_infer", "second_backward"])
    def test_rejected_backward_changes_no_gradient(self, before, cause):
        model = small_model(seed=2)
        ids = np.random.default_rng(3).integers(0, SMALL.vocab_size, (4, SMALL.seq_len))
        dlogits = np.ones((4, SMALL.num_classes), np.float32)
        for step in before:
            if step == "backward":
                model.backward(dlogits)
            else:
                model.forward(ids, step)
        # no layer holds an array for backward, only the reason it has none
        assert all(isinstance(layer._kept, str) for _, layer in model.named_layers)
        grads = [g.tobytes() for _, _, g in model.trainable()]
        with pytest.raises(ValueError, match=cause):
            model.backward(dlogits)
        assert [g.tobytes() for _, _, g in model.trainable()] == grads

    @pytest.mark.parametrize("before", [(), ("train",)],
                             ids=["fresh", "after_unconsumed_train"])
    def test_failed_forward_leaves_no_state(self, before):
        """A train forward that raises at BatchNorm (one row) keeps no layer's
        state, neither its own from the layers below nor an older forward's
        above, so backward is rejected before it touches a gradient."""
        cfg = ModelConfig(vocab_size=20, embed_dim=3, seq_len=1, gru_units=(4, 3, 3))
        model = build_model(cfg, seed=0)
        for mode in before:
            model.forward(np.ones((2, 1), np.int64), mode)
        with pytest.raises(ValueError, match="at least 2 samples"):
            model.forward(np.ones((1, 1), np.int64), "train")
        assert all(isinstance(layer._kept, str) for _, layer in model.named_layers)
        grads = [g.tobytes() for _, _, g in model.trainable()]
        with pytest.raises(ValueError, match=r"^Dense\.backward .*last forward "
                                             r"failed: batch norm needs"):
            model.backward(np.ones((2, 6), np.float32))
        assert [g.tobytes() for _, _, g in model.trainable()] == grads


class TestPredict:
    def make_fixture(self):
        vocab = build_vocabulary([["happy", "glad", "gloomy", "dark"]])
        model = small_model(seed=7, vocab_size=vocab.size)
        return model, vocab

    def test_probabilities_and_name(self):
        model, vocab = self.make_fixture()
        code, name, probs = predict(model, vocab, "feeling happy and glad today")
        assert probs.shape == (6,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert 0 <= code < 6
        assert name == LABEL_NAMES[code]
        assert code == int(np.argmax(probs))

    def test_tie_breaks_to_lowest_code(self):
        model, vocab = self.make_fixture()
        dense = dict(model.named_layers)["dense"]
        dense.W[:] = 0.0
        dense.b[:] = 0.0
        code, name, probs = predict(model, vocab, "happy gloomy")
        assert code == 0
        assert name == "sadness"
        assert np.allclose(probs, 1.0 / 6.0, atol=1e-7)

    def test_empty_text_still_classified(self):
        model, vocab = self.make_fixture()
        code, name, probs = predict(model, vocab, "")
        assert 0 <= code < 6
        assert np.isfinite(probs).all()

    def test_stopword_control(self):
        model, vocab = self.make_fixture()
        default = predict(model, vocab, "i am so happy")
        unfiltered = predict(model, vocab, "i am so happy", stopwords=frozenset())
        assert not np.array_equal(default[2], unfiltered[2])


def aligned_offsets(model, optimizer):
    """The byte offset mod 64 of every array a model and its Adam keep."""
    arrays = {name: a for name, a in model.state_items()}
    arrays.update({f"{name}.grad": g for name, _, g in model.trainable()})
    for moments, tag in ((optimizer.m, "m"), (optimizer.v, "v")):
        arrays.update({f"{name}.{tag}": a for name, a in moments.items()})
    return {name: a.ctypes.data % 64 for name, a in arrays.items()}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("loaded", [False, True], ids=["seeded", "loaded"])
def test_every_long_lived_array_starts_on_64_bytes(dtype, loaded, tmp_path):
    """Parameters, BatchNorm buffers, gradients and Adam's moments all start
    on a 64-byte boundary, on a seeded model and on one built to be loaded."""
    from sentigru import serialize
    from sentigru.trainer import Adam
    model = small_model(seed=4, dtype=dtype)
    if loaded:
        path = tmp_path / "model.bin"
        serialize.save(model, build_vocabulary([["a", "b"]]), path)
        model, _ = serialize.load(path)
    optimizer = Adam()
    model.forward(np.random.default_rng(4).integers(0, 30, (3, 6)), "train")
    model.backward(np.ones((3, model.config.num_classes), model.config.np_dtype))
    optimizer.step(model.trainable())
    offsets = aligned_offsets(model, optimizer)
    assert len(offsets) == len(model.state_items()) + 3 * len(model.trainable())
    assert {name: at for name, at in offsets.items() if at} == {}


def resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux /proc")
def test_a_model_built_to_be_loaded_leaves_its_zeros_unresident():
    """Parameters and gradients come from zeroed pages that stay untouched:
    an unseeded model with 200k embedding rows (76 MB of weight and gradient)
    adds only a few MB of resident memory."""
    before = resident_bytes()
    model = build_model(ModelConfig(vocab_size=200_000))
    grown = resident_bytes() - before
    weights = 2 * model.named_layers[0][1].weight.nbytes
    assert weights > 75 * 2**20
    assert grown < weights / 4, grown
