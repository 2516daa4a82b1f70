
import numpy as np
import pytest

from sentigru import layers
from sentigru.layers import (BatchNorm, BidirectionalGru, Dense, Dropout,
                             Embedding, GruCell, GruSequence, glorot_uniform,
                             gru_sequence_forward, orthogonal,
                             softmax_cross_entropy)
from sentigru.model import ModelConfig, build_model
from sentigru.numerics import grad_check

F64 = np.float64


def check_layer_grads(layer, loss_fn, extra_params=None, tol=1e-7):
    """Grad-check a layer's parameters (and any extra arrays) in float64.

    loss_fn must run the layer's forward pass from current array contents
    and return (loss, upstream_grad); the layer's backward fills the grads.
    """
    params = dict(layer.params())
    params.update(extra_params or {})
    layer.zero_grad()
    _, upstream = loss_fn()
    analytic = dict(backprop_into(layer, upstream, extra_params))
    report = grad_check(lambda: loss_fn()[0], params, analytic)
    assert report.max_relative_error < tol, report.per_parameter
    return report


def backprop_into(layer, upstream, extra_params):
    dx = layer.backward(upstream)
    grads = {name: g.copy() for name, g in layer.grads().items()}
    if extra_params:
        (name, _), = extra_params.items()
        grads[name] = dx.copy()
    return grads


class TestInitializers:
    def test_glorot_bounds(self):
        rng = np.random.default_rng(0)
        w = glorot_uniform(rng, (30, 50), F64)
        limit = np.sqrt(6.0 / 80.0)
        assert np.abs(w).max() <= limit
        assert abs(w.mean()) < limit / 5

    def test_orthogonal_columns(self):
        rng = np.random.default_rng(1)
        q = orthogonal(rng, 12, F64)
        assert np.allclose(q.T @ q, np.eye(12), atol=1e-10)

    def test_orthogonal_deterministic_for_seed(self):
        a = orthogonal(np.random.default_rng(3), 6, np.float32)
        b = orthogonal(np.random.default_rng(3), 6, np.float32)
        assert np.array_equal(a, b)


class TestEmbedding:
    def test_forward_gathers_rows(self):
        emb = Embedding(5, 3, np.random.default_rng(0), F64)
        ids = np.array([[0, 4], [2, 2]])
        out = emb.forward(ids)
        assert out.shape == (2, 2, 3)
        assert np.array_equal(out[0, 1], emb.weight[4])
        assert np.array_equal(out[1, 0], out[1, 1])

    def test_out_of_range_ids(self):
        emb = Embedding(5, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            emb.forward(np.array([[5]]))
        with pytest.raises(ValueError):
            emb.forward(np.array([[-1]]))

    def test_backward_accumulates_repeated_rows(self):
        emb = Embedding(4, 2, np.random.default_rng(0), F64)
        emb.forward(np.array([[1, 1, 3]]))
        emb.backward(np.ones((1, 3, 2)))
        assert np.array_equal(emb.d_weight[1], [2.0, 2.0])
        assert np.array_equal(emb.d_weight[3], [1.0, 1.0])
        assert np.array_equal(emb.d_weight[0], [0.0, 0.0])

    def test_gradient(self):
        rng = np.random.default_rng(2)
        emb = Embedding(6, 4, rng, F64)
        ids = np.array([[0, 2, 2], [5, 1, 0]])
        r = rng.standard_normal((2, 3, 4))

        def loss_fn():
            out = emb.forward(ids)
            return float(np.sum(out * r)), r

        check_layer_grads(emb, loss_fn)

    def test_param_count(self):
        emb = Embedding(50_000, 50, np.random.default_rng(0))
        assert emb.param_count() == 2_500_000


class TestDropout:
    def test_infer_is_identity(self):
        d = Dropout(0.4)
        x = np.arange(6.0).reshape(2, 3)
        assert d.forward(x, "infer") is x

    def test_rate_zero_is_identity_in_train(self):
        d = Dropout(0.0)
        x = np.ones((3, 3))
        assert d.forward(x, "train", np.random.default_rng(0)) is x

    def test_survivors_rescaled(self):
        d = Dropout(0.25)
        x = np.ones((40, 40))
        out = d.forward(x, "train", np.random.default_rng(0))
        values = np.unique(out)
        assert set(values.tolist()) == {0.0, 1.0 / 0.75}
        kept = (out != 0).mean()
        assert 0.65 < kept < 0.85

    def test_backward_matches_mask(self):
        d = Dropout(0.5)
        x = np.ones((8, 8))
        out = d.forward(x, "train", np.random.default_rng(1))
        g = d.backward(np.ones_like(x))
        assert np.array_equal(g == 0, out == 0)

    def test_train_mode_without_rng_rejected(self):
        with pytest.raises(ValueError, match="rng"):
            Dropout(0.3).forward(np.ones(3))

    def test_invalid_rate(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                Dropout(rate)

    def test_gradient_with_fixed_mask(self):
        d = Dropout(0.3)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 5))
        r = rng.standard_normal((4, 5))

        def loss_fn():
            # fresh identically-seeded rng keeps the mask fixed across calls
            out = d.forward(x, "train", np.random.default_rng(42))
            return float(np.sum(out * r)), r

        check_layer_grads(d, loss_fn, extra_params={"x": x})


class TestGruCell:
    def test_param_count_formula(self):
        rng = np.random.default_rng(0)
        for x_dim, h in [(50, 120), (240, 64), (128, 64), (3, 5)]:
            cell = GruCell(x_dim, h, rng)
            assert cell.param_count() == 3 * h * (x_dim + h + 2)
            assert sum(p.size for p in cell.params().values()) == \
                cell.param_count()

    def test_zero_input_zero_state_stays_zero(self):
        # the state starts at zero
        cell = GruCell(3, 4, np.random.default_rng(0), F64)
        h = gru_sequence_forward(cell, np.zeros((2, 3))[:, None, :], False)
        assert np.array_equal(h, np.zeros((2, 4)))

    def test_shape_validation(self):
        cell = GruCell(3, 4, np.random.default_rng(0))
        x = np.zeros((2, 5), dtype=np.float32)
        with pytest.raises(ValueError):
            gru_sequence_forward(cell, x[:, None, :], False)

    def test_update_gate_interpolates(self):
        # saturate z high via huge input bias: state barely moves
        cell = GruCell(2, 3, np.random.default_rng(1), F64)
        cell.b_x[:3] = 50.0
        h_prev = np.array([[0.3, -0.2, 0.8]])
        x = np.array([[0.1, 0.2]])
        # one step from h_prev, on (n = 1, B, .) stacks as the sequence runs it
        h = GruSequence._step(cell.input_projection(x)[None], h_prev[None],
                              cell.U[None], cell.b_h[None, None])
        assert np.allclose(h[0], h_prev, atol=1e-6)

    def test_single_step_gradient(self):
        rng = np.random.default_rng(4)
        cell = GruCell(3, 4, rng, F64)
        seq = GruSequence(cell, return_sequences=False)
        x = rng.standard_normal((2, 1, 3))
        r = rng.standard_normal((2, 4))

        def loss_fn():
            out = seq.forward(x)
            return float(np.sum(out * r)), r

        check_layer_grads(seq, loss_fn, extra_params={"x": x})


class TestGruSequence:
    def test_final_state_equals_last_sequence_step(self):
        rng = np.random.default_rng(5)
        cell = GruCell(3, 4, rng, F64)
        x = rng.standard_normal((2, 6, 3))
        states = GruSequence(cell, return_sequences=True).forward(x)
        final = GruSequence(cell, return_sequences=False).forward(x)
        assert np.array_equal(final, states[:, -1, :])

    def test_buffers_kept_between_calls_do_not_leak(self):
        """Outputs depend only on the inputs and the current weights, whatever
        the earlier calls' shapes and modes, and an in-place weight update
        reaches the next forward."""
        rng = np.random.default_rng(8)
        cells = (GruCell(3, 4, rng, F64), GruCell(3, 4, rng, F64))
        seq = GruSequence(cells, True)
        xa = rng.standard_normal((2, 5, 3))
        xb = rng.standard_normal((3, 4, 3))
        first = seq.forward(xa, "infer")
        seq.forward(xb, "infer")
        assert np.array_equal(seq.forward(xa, "infer"), first)
        assert np.array_equal(seq.forward(xa, "train"), first)
        for cell in cells:
            cell.U += 0.25
        fresh = GruSequence(cells, True).forward(xa, "infer")
        assert not np.array_equal(fresh, first)
        assert np.array_equal(seq.forward(xa, "infer"), fresh)

    def test_empty_sequence_rejected(self):
        # no steps, and no rows: the projection chunk ROWS // B has no size
        rng = np.random.default_rng(0)
        for cells in ([GruCell(3, 4, rng)], [GruCell(3, 4, rng), GruCell(3, 4, rng)]):
            for shape in ((2, 0, 3), (0, 5, 3)):
                for mode in ("train", "infer"):
                    with pytest.raises(ValueError, match="must be >= 1"):
                        GruSequence(cells, True).forward(
                            np.zeros(shape, dtype=np.float32), mode)

    def test_computes_in_the_cells_dtype(self):
        rng = np.random.default_rng(6)
        f32, f64 = GruCell(3, 4, rng, np.float32), GruCell(3, 4, rng, F64)
        x = rng.standard_normal((2, 5, 3))
        for return_sequences in (True, False):
            with pytest.raises(ValueError, match="dtype float32 differs"):
                GruSequence(f64, return_sequences).forward(x.astype(np.float32))
            with pytest.raises(ValueError, match="dtype float64 differs"):
                GruSequence((f32, f32), return_sequences).forward(x)
            seq = GruSequence(f32, return_sequences)
            out = seq.forward(x.astype(np.float32), "train")
            assert out.dtype == np.float32
            with pytest.raises(ValueError, match="gradient dtype float64 differs"):
                seq.backward(np.ones(out.shape))
        with pytest.raises(ValueError, match="share one dtype"):
            GruSequence((f32, f64), True)
        f32.b_h = f32.b_h.astype(F64)
        with pytest.raises(ValueError, match="share one dtype"):
            GruSequence(f32, True)
        with pytest.raises(ValueError, match="one or two cells"):
            GruSequence((f64, f64, f64), True)

    def test_backward_before_forward_rejected(self):
        seq = GruSequence(GruCell(3, 4, np.random.default_rng(0), F64), True)
        with pytest.raises(ValueError, match="before any forward"):
            seq.backward(np.zeros((2, 5, 4)))

    def test_backward_after_infer_forward_rejected(self):
        rng = np.random.default_rng(13)
        seq = GruSequence(GruCell(3, 4, rng, F64), True)
        x = rng.standard_normal((2, 5, 3))
        seq.forward(x, "train")
        seq.forward(x, "infer")
        with pytest.raises(ValueError, match="infer mode"):
            seq.backward(np.zeros((2, 5, 4)))

    @pytest.mark.parametrize("cells", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_caches_hold_5h_per_row_and_backward_frees_them(self, cells, dtype):
        rng = np.random.default_rng(16)
        T, x_dim, h = 6, 5, 4
        seq = GruSequence([GruCell(x_dim, h, rng, dtype) for _ in range(cells)],
                          return_sequences=True)
        # two cells run as two parts from SPLIT_ROWS rows
        for B in (3, layers.SPLIT_ROWS):
            x = rng.standard_normal((B, T, x_dim)).astype(dtype)
            out = seq.forward(x, "train")
            # the plan, then h_prev, z|r, c and hc per row, each in its own
            # (T, n, B, .) block per part that owns its memory
            parts, xs, caches = seq._kept
            assert len(parts) == (2 if cells == 2 and B >= layers.SPLIT_ROWS else 1)
            for part, blocks in zip(parts, caches):
                n = part.stop - part.start
                assert [b.shape for b in blocks] == [
                    (T, n, B, w * h) for w in (1, 2, 1, 1)]
                assert all(b.base is None for b in blocks)
            held = sum(b.nbytes for blocks in caches for b in blocks)
            assert held == T * cells * B * 5 * h * np.dtype(dtype).itemsize
            grad = np.ones_like(out)
            seq.backward(grad)
            # every part cleared its entries, and the layer keeps nothing
            assert caches == [None] * len(parts) == xs
            assert isinstance(seq._kept, str)
            with pytest.raises(ValueError, match="earlier backward consumed"):
                seq.backward(grad)

    def test_unknown_mode_rejected(self):
        seq = GruSequence(GruCell(3, 4, np.random.default_rng(0), F64), True)
        with pytest.raises(ValueError, match="mode"):
            seq.forward(np.zeros((2, 5, 3)), "test")

    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_bptt_gradient(self, return_sequences):
        rng = np.random.default_rng(7)
        cell = GruCell(3, 4, rng, F64)
        seq = GruSequence(cell, return_sequences)
        x = rng.standard_normal((2, 5, 3))
        shape = (2, 5, 4) if return_sequences else (2, 4)
        r = rng.standard_normal(shape)

        def loss_fn():
            out = seq.forward(x)
            return float(np.sum(out * r)), r

        check_layer_grads(seq, loss_fn, extra_params={"x": x})


class TestBidirectionalGru:
    def make(self, return_sequences, seed=8, x_dim=3, h=4):
        rng = np.random.default_rng(seed)
        return BidirectionalGru(GruCell(x_dim, h, rng, F64),
                                GruCell(x_dim, h, rng, F64), return_sequences)

    def test_hidden_size_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            BidirectionalGru(GruCell(3, 4, rng), GruCell(3, 5, rng), True)

    def test_sequences_mode_halves(self):
        rng = np.random.default_rng(9)
        bi = self.make(True)
        x = rng.standard_normal((2, 5, 3))
        out = bi.forward(x)
        assert out.shape == (2, 5, 8)
        fwd_states = GruSequence(bi.cells[0], True).forward(x)
        bwd_states = GruSequence(bi.cells[1], True).forward(
            np.ascontiguousarray(x[:, ::-1, :]))
        assert np.array_equal(out[:, :, :4], fwd_states)
        assert np.array_equal(out[:, :, 4:], bwd_states[:, ::-1, :])

    def test_final_mode_concatenates_ends(self):
        rng = np.random.default_rng(10)
        bi = self.make(False)
        x = rng.standard_normal((3, 4, 3))
        out = bi.forward(x)
        assert out.shape == (3, 8)
        fwd_final = GruSequence(bi.cells[0], False).forward(x)
        bwd_final = GruSequence(bi.cells[1], False).forward(
            np.ascontiguousarray(x[:, ::-1, :]))
        assert np.array_equal(out[:, :4], fwd_final)
        assert np.array_equal(out[:, 4:], bwd_final)

    @pytest.mark.parametrize("return_sequences", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infer_equals_train_and_keeps_no_caches(self, return_sequences, dtype):
        rng = np.random.default_rng(14)
        bi = BidirectionalGru(GruCell(5, 6, rng, dtype), GruCell(5, 6, rng, dtype),
                              return_sequences)
        x = rng.standard_normal((3, 7, 5)).astype(dtype)
        train = bi.forward(x, "train")
        infer = bi.forward(x, "infer")
        assert infer.dtype == dtype
        assert infer.tobytes() == train.tobytes()
        assert isinstance(bi._kept, str)        # a reason, no array

    def test_backward_before_forward_rejected(self):
        with pytest.raises(ValueError, match="before any forward"):
            self.make(True).backward(np.zeros((2, 5, 8)))

    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_backward_after_infer_forward_rejected(self, return_sequences):
        bi = self.make(return_sequences)
        x = np.random.default_rng(15).standard_normal((2, 5, 3))
        bi.forward(x, "train")
        out = bi.forward(x, "infer")
        with pytest.raises(ValueError, match="infer mode"):
            bi.backward(np.zeros_like(out))

    def test_param_count_doubles(self):
        bi = self.make(True)
        assert bi.param_count() == 2 * 3 * 4 * (3 + 4 + 2)

    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_gradient(self, return_sequences):
        rng = np.random.default_rng(11)
        bi = self.make(return_sequences, seed=12)
        x = rng.standard_normal((2, 4, 3))
        shape = (2, 4, 8) if return_sequences else (2, 8)
        r = rng.standard_normal(shape)

        def loss_fn():
            out = bi.forward(x)
            return float(np.sum(out * r)), r

        check_layer_grads(bi, loss_fn, extra_params={"x": x})


class TestBatchNorm:
    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(12)
        bn = BatchNorm(4, dtype=F64)
        x = rng.standard_normal((50, 4)) * 3.0 + 1.5
        out = bn.forward(x, "train")
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(out.var(axis=0), 1.0, atol=1e-3)

    def test_moving_stats_update_rule(self):
        rng = np.random.default_rng(13)
        bn = BatchNorm(3, dtype=F64)
        x = rng.standard_normal((20, 3))
        want_mean = 0.9 * bn.moving_mean + 0.1 * x.mean(axis=0)
        want_var = 0.9 * bn.moving_var + 0.1 * x.var(axis=0)
        bn.forward(x, "train")
        assert np.allclose(bn.moving_mean, want_mean, atol=1e-12)
        assert np.allclose(bn.moving_var, want_var, atol=1e-12)

    def test_infer_uses_moving_stats(self):
        bn = BatchNorm(2, dtype=F64)
        bn.moving_mean[:] = [1.0, -1.0]
        bn.moving_var[:] = [4.0, 0.25]
        bn.gamma[:] = [2.0, 3.0]
        bn.beta[:] = [0.5, -0.5]
        x = np.array([[3.0, 0.0]])
        want = bn.gamma * (x - bn.moving_mean) / np.sqrt(
            bn.moving_var + bn.epsilon) + bn.beta
        assert np.allclose(bn.forward(x, "infer"), want, atol=1e-12)

    def test_three_dim_input_flattens_leading(self):
        rng = np.random.default_rng(14)
        bn = BatchNorm(3, dtype=F64)
        x = rng.standard_normal((4, 5, 3))
        out = bn.forward(x, "train")
        assert out.shape == x.shape
        assert np.allclose(out.reshape(-1, 3).mean(axis=0), 0.0, atol=1e-10)

    def test_train_needs_two_samples(self):
        bn = BatchNorm(3)
        with pytest.raises(ValueError):
            bn.forward(np.zeros((1, 3), dtype=np.float32), "train")
        # a single sequence still has T samples after flattening
        bn.forward(np.zeros((1, 4, 3), dtype=np.float32), "train")

    def test_param_count_includes_moving_stats(self):
        assert BatchNorm(128).param_count() == 512
        assert set(BatchNorm(4).buffers()) == {"moving_mean", "moving_var"}

    def test_train_gradient(self):
        rng = np.random.default_rng(15)
        bn = BatchNorm(3, dtype=F64)
        x = rng.standard_normal((6, 3))
        r = rng.standard_normal((6, 3))

        def loss_fn():
            out = bn.forward(x, "train")
            return float(np.sum(out * r)), r

        check_layer_grads(bn, loss_fn, extra_params={"x": x})


class TestDense:
    def test_affine_map(self):
        rng = np.random.default_rng(17)
        dense = Dense(3, 2, rng, F64)
        x = rng.standard_normal((4, 3))
        assert np.allclose(dense.forward(x), x @ dense.W + dense.b, atol=1e-12)

    def test_param_count(self):
        assert Dense(128, 6, np.random.default_rng(0)).param_count() == 774

    def test_gradient(self):
        rng = np.random.default_rng(18)
        dense = Dense(3, 2, rng, F64)
        x = rng.standard_normal((4, 3))
        r = rng.standard_normal((4, 2))

        def loss_fn():
            out = dense.forward(x)
            return float(np.sum(out * r)), r

        check_layer_grads(dense, loss_fn, extra_params={"x": x})

    def test_zero_grad(self):
        rng = np.random.default_rng(19)
        dense = Dense(2, 2, rng, F64)
        dense.forward(rng.standard_normal((3, 2)))
        dense.backward(np.ones((3, 2)))
        assert np.abs(dense.dW).sum() > 0
        dense.zero_grad()
        assert np.abs(dense.dW).sum() == 0
        assert np.abs(dense.db).sum() == 0


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        loss, _ = softmax_cross_entropy(np.zeros((4, 6)), np.array([0, 1, 2, 3]))
        assert loss == pytest.approx(np.log(6.0), abs=1e-12)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(20)
        logits = rng.standard_normal((5, 6))
        _, d = softmax_cross_entropy(logits, np.array([0, 5, 2, 2, 1]))
        assert np.allclose(d.sum(axis=1), 0.0, atol=1e-12)

    def test_confident_correct_prediction_low_loss(self):
        logits = np.array([[30.0, 0.0, 0.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0]))
        assert loss < 1e-9

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
        loss, d = softmax_cross_entropy(logits, np.array([0, 1]))
        assert np.isfinite(loss)
        assert np.isfinite(d).all()

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    @pytest.mark.parametrize("labels", [[0], [0, 1, 2], [[0], [1]], 1],
                             ids=["shorter", "longer", "2-d", "scalar"])
    def test_labels_not_one_per_row(self, labels):
        with pytest.raises(ValueError, match="labels of shape"):
            softmax_cross_entropy(np.zeros((2, 3)), np.array(labels))

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(21)
        logits = rng.standard_normal((3, 4))
        labels = np.array([1, 3, 0])
        _, analytic = softmax_cross_entropy(logits, labels)
        report = grad_check(
            lambda: softmax_cross_entropy(logits, labels)[0],
            {"logits": logits}, {"logits": analytic})
        assert report.max_relative_error < 1e-7


def _tiny_model():
    return build_model(ModelConfig(vocab_size=20, embed_dim=3, seq_len=5,
                                   gru_units=(4, 3, 3)), seed=0)


@pytest.mark.parametrize("mode", ["Train", "test", "eval", ""])
@pytest.mark.parametrize("forward", [
    lambda mode: Embedding(5, 3, None).forward(np.ones((2, 4), np.int64), mode),
    lambda mode: Dropout(0.3).forward(np.ones((4, 3)), mode,
                                      np.random.default_rng(0)),
    lambda mode: BatchNorm(3).forward(np.ones((4, 3), np.float32), mode),
    lambda mode: GruSequence(GruCell(3, 4, None), True).forward(
        np.ones((2, 5, 3), np.float32), mode),
    lambda mode: Dense(3, 2, None).forward(np.ones((4, 3), np.float32), mode),
    lambda mode: _tiny_model().forward(np.ones((2, 5), np.int64), mode),
], ids=["embedding", "dropout", "batch_norm", "gru_sequence", "dense", "model"])
def test_unknown_mode_rejected_everywhere(forward, mode):
    """One mode check, in every layer and in the model: no misspelt mode
    runs as if it were train or infer."""
    with pytest.raises(ValueError, match="mode must be 'train' or 'infer'"):
        forward(mode)


# each maker returns a layer, a forward input and the shape of its output
LAYER_MAKERS = {
    "embedding": lambda rng: (Embedding(6, 3, rng, F64), np.ones((2, 4), np.int64),
                              (2, 4, 3)),
    "dropout": lambda rng: (Dropout(0.5), rng.standard_normal((2, 4, 3)), (2, 4, 3)),
    "batch_norm": lambda rng: (BatchNorm(3, F64), rng.standard_normal((2, 4, 3)),
                               (2, 4, 3)),
    "bidirectional_gru": lambda rng: (
        BidirectionalGru(GruCell(3, 2, rng, F64), GruCell(3, 2, rng, F64), True),
        rng.standard_normal((2, 4, 3)), (2, 4, 4)),
    "dense": lambda rng: (Dense(3, 2, rng, F64), rng.standard_normal((4, 3)), (4, 2)),
}


@pytest.mark.parametrize("before, cause", [
    ((), "before any forward"),
    (("train", "infer"), "infer mode"),
    (("train", "backward"), "earlier backward consumed"),
], ids=["no_forward", "after_infer", "second_backward"])
@pytest.mark.parametrize("make", LAYER_MAKERS.values(), ids=LAYER_MAKERS.keys())
def test_backward_needs_its_own_train_forward(make, before, cause):
    """One rule for every layer: backward takes what the last train forward
    kept, once. Otherwise it raises naming the cause and changes no gradient."""
    rng = np.random.default_rng(22)
    layer, x, out_shape = make(rng)
    grad = np.ones(out_shape)
    for step in before:
        if step == "backward":
            layer.backward(grad)
        else:
            layer.forward(x, step, rng)
    grads = {name: g.tobytes() for name, g in layer.grads().items()}
    with pytest.raises(ValueError, match=cause):
        layer.backward(grad)
    assert {name: g.tobytes() for name, g in layer.grads().items()} == grads


def arrays_held(layer):
    """Every ndarray reachable from ``layer.__dict__`` through lists, tuples,
    dicts and the layers it holds, such as a GRU's cells."""
    held, todo = [], list(vars(layer).values())
    while todo:
        value = todo.pop()
        if isinstance(value, np.ndarray):
            held.append(value)
        elif isinstance(value, (list, tuple)):
            todo.extend(value)
        elif isinstance(value, dict):
            todo.extend(value.values())
        elif isinstance(value, layers.Layer):
            todo.extend(vars(value).values())
    return held


@pytest.mark.parametrize("B", [1, layers.SPLIT_ROWS])
def test_infer_forward_keeps_nothing(B):
    """After an infer forward a layer holds only its parameters, gradients
    and BatchNorm buffers, and a GRU layer its stacked U, which every forward
    refills with the same bytes: nothing that threads sharing the model
    could write under one another."""
    model = _tiny_model()
    ids = np.random.default_rng(23).integers(0, 20, (B, 5))
    model.forward(ids, "train")
    model.forward(ids, "infer")
    for name, layer in model.named_layers:
        allowed = [*layer.params().values(), *layer.grads().values(),
                   *layer.buffers().values()]
        if isinstance(layer, GruSequence):
            allowed.append(layer._U)
        extra = [a.shape for a in arrays_held(layer)
                 if not any(a is b for b in allowed)]
        assert extra == [], name
