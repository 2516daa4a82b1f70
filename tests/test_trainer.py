import dataclasses

import numpy as np
import pytest

from oracles import scalar_adam
from sentigru import (
    Adam,
    EpochRecord,
    ModelConfig,
    TrainConfig,
    TrainingError,
    build_model,
    build_vocabulary,
    evaluate,
    fit,
    predict_codes,
    train_epoch,
)
from sentigru.corpus import (
    LabeledCorpus,
    LabeledRecord,
    encode_corpus,
    split,
    text_to_tokens,
)
from synth import keyword_corpus

SMALL = ModelConfig(vocab_size=30, embed_dim=8, seq_len=6,
                    gru_units=(5, 4, 4), dropout_rate=0.2)


def small_fit_setup(per_class=4, seed=3):
    corpus = keyword_corpus(per_class=per_class, seed=seed)
    vocab = build_vocabulary(text_to_tokens(r.text) for r in corpus.records)
    return corpus, vocab


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.batch_size) == (5, 64)
        assert cfg.learning_rate == pytest.approx(1e-3)
        assert cfg.train_fraction == pytest.approx(0.8)

    def test_zero_learning_rate_is_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    @pytest.mark.parametrize("bad", [
        {"epochs": 0}, {"batch_size": 0}, {"learning_rate": -1e-3},
        {"train_fraction": 0.0}, {"train_fraction": 1.0},
        {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
        {"seed": -1},
        {"batch_size": 2.5}, {"epochs": 1.5}, {"seed": 1.5}, {"epochs": "2"},
        {"learning_rate": "x"}, {"train_fraction": "0.5"}, {"batch_size": True},
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


class TestEpochRecord:
    def test_to_dict_round_values(self):
        rec = EpochRecord(1, 1.5, 0.25, 1.4, 0.3, 2.0)
        d = rec.to_dict()
        assert d["epoch"] == 1 and d["val_acc"] == pytest.approx(0.3)

    @pytest.mark.parametrize("bad", [
        {"train_loss": -0.1}, {"val_loss": -1.0},
        {"train_acc": 1.5}, {"val_acc": -0.2},
    ])
    def test_rejects_bad_values(self, bad):
        base = dict(epoch=1, train_loss=1.0, train_acc=0.5,
                    val_loss=1.0, val_acc=0.5, seconds=0.1)
        with pytest.raises(ValueError):
            EpochRecord(**{**base, **bad})


class TestAdamStep:
    """The numpy step on float64; TestAdamStepFloat32 runs every case on
    float32, where the step is one compiled pass wherever the kernel builds
    (tests/test_kernel.py counts those passes)."""
    dtype = np.float64
    oracle_tolerance = 1e-12

    def array(self, values):
        return np.array(values, self.dtype)

    def test_matches_scalar_oracle_over_ten_steps(self):
        rng = np.random.default_rng(7)
        grads_seq = rng.standard_normal((10, 4)).astype(self.dtype)
        initial = rng.standard_normal(4).astype(self.dtype)
        params = {"w": initial.copy()}
        opt = Adam(learning_rate=0.05)
        for g in grads_seq:
            opt.step([("w", params["w"], g.copy())])
        for j in range(4):
            want = scalar_adam(initial[j], grads_seq[:, j], lr=0.05)
            assert abs(params["w"][j] - want) <= self.oracle_tolerance

    def test_first_step_moves_by_signed_rate(self):
        params = {"w": np.zeros(3, self.dtype)}
        g = self.array([4.0, -2.0, 0.5])
        Adam().step([("w", params["w"], g.copy())])
        # with bias correction the first update is lr * g / (|g| + eps)
        assert params["w"] == pytest.approx(-1e-3 * np.sign(g), rel=1e-6)

    def test_zero_gradient_leaves_parameter_untouched(self):
        w = self.array([1.0, -2.0, 3.0])
        params = {"w": w.copy()}
        Adam().step([("w", params["w"], np.zeros(3, self.dtype))])
        assert np.array_equal(params["w"], w)

    def test_non_finite_gradient_names_the_parameter(self):
        names = ("w", "gru.U", "dense.b")
        params = {k: self.array([1.0, 2.0]) for k in names}
        opt = Adam()
        opt.step([(k, params[k], self.array([1.0, -1.0])) for k in names])
        state = [(k, a.tobytes()) for store in (params, opt.m, opt.v)
                 for k, a in store.items()]
        grads = {k: self.array([1.0, 1.0]) for k in names}
        grads["dense.b"][1] = np.nan                # the last triple
        with pytest.raises(TrainingError, match="dense.b"):
            opt.step([(k, params[k], grads[k]) for k in names])
        # the failure must abort before any parameter or moment moves
        assert [(k, a.tobytes()) for store in (params, opt.m, opt.v)
                for k, a in store.items()] == state
        assert opt.t == 1

    def test_step_counter_advances(self):
        opt = Adam()
        params = {"w": np.zeros(1, self.dtype)}
        for expected in (1, 2, 3):
            opt.step([("w", params["w"], np.ones(1, self.dtype))])
            assert opt.t == expected


class TestAdamStepFloat32(TestAdamStep):
    dtype = np.float32
    oracle_tolerance = 1e-5


class TestTrainEpoch:
    def test_counts_one_step_per_batch(self):
        model = build_model(SMALL, seed=0)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, SMALL.vocab_size, (10, SMALL.seq_len))
        labels = rng.integers(0, 6, 10)
        optimizer = Adam()
        train_epoch(model, ids, labels, optimizer, rng, batch_size=4)
        assert optimizer.t == 3  # batches of 4, 4, 2

    def test_empty_dataset_raises(self):
        model = build_model(SMALL, seed=0)
        empty = np.zeros((0, SMALL.seq_len), dtype=np.int64)
        with pytest.raises(TrainingError, match="empty"):
            train_epoch(model, empty, np.zeros(0, dtype=np.int64),
                        Adam(), np.random.default_rng(0))

    def test_loss_decreases_on_learnable_data(self):
        corpus, vocab = small_fit_setup(per_class=6)
        ids, labels = encode_corpus(corpus, vocab, SMALL.seq_len)
        cfg = dataclasses.replace(SMALL, vocab_size=vocab.size, dropout_rate=0.0)
        model = build_model(cfg, seed=1)
        optimizer = Adam(learning_rate=5e-3)
        rng = np.random.default_rng(0)
        first, _ = train_epoch(model, ids, labels, optimizer, rng)
        losses = [train_epoch(model, ids, labels, optimizer, rng)[0]
                  for _ in range(14)]
        assert losses[-1] < first

    def test_evaluate_matches_manual_inference(self):
        model = build_model(SMALL, seed=2)
        rng = np.random.default_rng(1)
        ids = rng.integers(0, SMALL.vocab_size, (7, SMALL.seq_len))
        labels = rng.integers(0, 6, 7)
        loss, acc = evaluate(model, ids, labels, batch_size=3)
        from sentigru.layers import softmax_cross_entropy
        logits = model.forward(ids, "infer")
        want_loss, _ = softmax_cross_entropy(logits, labels)
        want_acc = float(np.mean(np.argmax(logits, axis=1) == labels))
        assert loss == pytest.approx(want_loss, abs=1e-6)
        assert acc == pytest.approx(want_acc)


@pytest.mark.parametrize("batch_size", [0, -1, 2.5])
@pytest.mark.parametrize("run", [
    lambda model, ids, labels, batch_size: train_epoch(
        model, ids, labels, Adam(), np.random.default_rng(0), batch_size),
    lambda model, ids, labels, batch_size: evaluate(model, ids, labels, batch_size),
    lambda model, ids, labels, batch_size: predict_codes(model, ids, batch_size),
], ids=["train_epoch", "evaluate", "predict_codes"])
def test_bad_batch_size_rejected(run, batch_size):
    """A batch size that is not an integer >= 1 raises as TrainConfig does,
    before any step, not a silent (0.0, 0.0) or an empty prediction."""
    model = build_model(SMALL, seed=0)
    rng = np.random.default_rng(4)
    ids = rng.integers(0, SMALL.vocab_size, (5, SMALL.seq_len))
    params = [p.tobytes() for _, p, _ in model.trainable()]
    with pytest.raises(ValueError, match="batch_size must be"):
        run(model, ids, rng.integers(0, 6, 5), batch_size)
    assert [p.tobytes() for _, p, _ in model.trainable()] == params


class TestFit:
    def test_history_shape_and_epoch_numbers(self):
        corpus, vocab = small_fit_setup()
        cfg = dataclasses.replace(SMALL, vocab_size=vocab.size)
        model = build_model(cfg, seed=0)
        history = fit(model, corpus, TrainConfig(epochs=3, batch_size=8), vocab)
        assert [r.epoch for r in history] == [1, 2, 3]
        assert all(r.seconds >= 0 for r in history)

    def test_fixed_seed_reproduces_history(self):
        corpus, vocab = small_fit_setup()
        cfg = dataclasses.replace(SMALL, vocab_size=vocab.size)
        tc = TrainConfig(epochs=2, batch_size=8, seed=9)
        histories = []
        for _ in range(2):
            model = build_model(cfg, seed=4)
            histories.append(fit(model, corpus, tc, vocab))
        first, second = histories
        for a, b in zip(first, second):
            assert (a.train_loss, a.train_acc, a.val_loss, a.val_acc) == \
                   (b.train_loss, b.train_acc, b.val_loss, b.val_acc)

    def test_zero_learning_rate_freezes_parameters(self):
        corpus, vocab = small_fit_setup()
        cfg = dataclasses.replace(SMALL, vocab_size=vocab.size)
        model = build_model(cfg, seed=0)
        before = {k: v.copy() for k, v in model.state_items()
                  if not k.startswith("batch_norm.moving")}
        tc = TrainConfig(epochs=2, batch_size=8, learning_rate=0.0, seed=5)
        fit(model, corpus, tc, vocab)
        after = dict(model.state_items())
        for name, arr in before.items():
            assert np.array_equal(arr, after[name]), name
        # normalization running statistics are driven by the forward pass,
        # not the optimizer, so they still move at rate zero
        bn = dict(model.named_layers)["batch_norm"]
        assert np.abs(bn.moving_mean).sum() > 0

    def test_final_val_metrics_match_direct_evaluation(self):
        corpus, vocab = small_fit_setup()
        cfg = dataclasses.replace(SMALL, vocab_size=vocab.size)
        tc = TrainConfig(epochs=1, batch_size=8, seed=5)
        model = build_model(cfg, seed=0)
        history = fit(model, corpus, tc, vocab)
        _, val_c = split(corpus, tc.train_fraction, tc.seed)
        val_ids, val_y = encode_corpus(val_c, vocab, cfg.seq_len)
        loss, acc = evaluate(model, val_ids, val_y, tc.batch_size)
        assert history[-1].val_loss == loss
        assert history[-1].val_acc == acc

    @pytest.mark.parametrize("lr", [1e30, 1e39])
    def test_a_rate_that_blows_up_the_parameters_raises(self, lr):
        """A finite rate whose one step makes the parameters non-finite (1e39
        rounds to an infinite float32) leaves a NaN validation loss: that
        raises, as a NaN train loss does, and returns no history."""
        corpus, vocab = small_fit_setup()
        model = build_model(dataclasses.replace(SMALL, vocab_size=vocab.size), seed=0)
        with pytest.raises(TrainingError, match="non-finite validation loss nan "
                                                "after epoch 1"):
            fit(model, corpus, TrainConfig(epochs=1, learning_rate=lr), vocab)

    def test_empty_validation_split_raises(self):
        corpus = LabeledCorpus(records=(LabeledRecord("a b", 0),
                                        LabeledRecord("c d", 1)))
        vocab = build_vocabulary([["a", "b", "c", "d"]])
        cfg = dataclasses.replace(SMALL, vocab_size=vocab.size)
        model = build_model(cfg, seed=0)
        with pytest.raises(TrainingError, match="empty split"):
            fit(model, corpus, TrainConfig(train_fraction=0.9), vocab)


@pytest.mark.parametrize("n_labels", [4, 8])
@pytest.mark.parametrize("run", [
    lambda model, ids, labels: train_epoch(
        model, ids, labels, Adam(), np.random.default_rng(0), batch_size=2),
    lambda model, ids, labels: evaluate(model, ids, labels, batch_size=2),
    lambda model, ids, labels: evaluate(model, ids, labels, batch_size=64),
], ids=["train_epoch", "evaluate", "evaluate-one-batch"])
def test_labels_of_another_length_rejected(run, n_labels):
    """Labels shorter or longer than the ids raise ValueError before the
    first batch: not a silent result from the first rows, not an IndexError,
    and no parameter moves."""
    model = build_model(SMALL, seed=0)
    rng = np.random.default_rng(5)
    ids = rng.integers(0, SMALL.vocab_size, (5, SMALL.seq_len))
    params = [p.tobytes() for _, p, _ in model.trainable()]
    with pytest.raises(ValueError, match=f"{n_labels} labels for 5 rows"):
        run(model, ids, rng.integers(0, 6, n_labels))
    assert [p.tobytes() for _, p, _ in model.trainable()] == params
