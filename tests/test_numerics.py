from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from sentigru import layers, numerics
from sentigru.model import ModelConfig, build_model
from sentigru.numerics import GradCheckReport, grad_check, matmul, sigmoid, softmax


class TestMatmul:
    # the proven set: a C-contiguous b with at least two columns; with one
    # column einsum sums in another order and most products differ
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(deadline=None)
    @given(m=st.integers(1, 64), k=st.integers(1, 64), n=st.integers(2, 64),
           seed=st.integers(0, 2**32 - 1))
    @example(m=2, k=3, n=4, seed=0)
    @example(m=5, k=7, n=2, seed=0)
    @example(m=8, k=8, n=8, seed=0)
    @example(m=64, k=64, n=64, seed=0)
    def test_bitwise_equal_to_naive_loop(self, dtype, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k)).astype(dtype)
        b = rng.standard_normal((k, n)).astype(dtype)
        got = matmul(a, b)
        want = oracles.naive_matmul(a, b)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("B", [2, layers.SPLIT_ROWS])
    def test_model_products_stay_in_the_proven_set(self, B):
        """No product of a tiny model's train step, on either GRU plan, has a
        C-contiguous right operand of one column. On the einsum path, where
        the GRU backward steps in numpy, so that its products pass here too."""
        cfg = ModelConfig(vocab_size=50, embed_dim=4, seq_len=8, gru_units=(4, 3, 3))
        model = build_model(cfg, seed=3)
        seen = []

        def recorded(a, b):
            seen.append(b.flags.c_contiguous and b.shape[-1] == 1)
            return matmul(a, b)

        ids = np.random.default_rng(3).integers(0, 50, (B, 8))
        with mock.patch.object(layers, "matmul", recorded), \
                mock.patch.object(numerics, "KERNEL", "einsum"):
            logits = model.forward(ids, "train")
            model.backward(np.ones_like(logits))
        assert len(seen) > 100 and not any(seen)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_composition_invariance(self, dtype):
        # a row's product must not depend on which other rows share the batch
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 9)).astype(dtype)
        b = rng.standard_normal((9, 4)).astype(dtype)
        full = matmul(a, b)
        for i in range(len(a)):
            alone = matmul(a[i:i + 1], b)
            assert np.array_equal(full[i:i + 1], alone)

    def test_transposed_operand_is_row_invariant(self):
        # the GRU input gradient, which the backward makes one step at a time:
        # all 79 steps of a 64-row batch times the transposed (50, 360) input
        # kernel in one call, against one call per step;
        # a transposed b is not loop-equal, but its rows must still not depend
        # on the rows that share the call
        rng = np.random.default_rng(2)
        d_gx = rng.standard_normal((79 * 64, 360)).astype(np.float32)
        w = rng.standard_normal((50, 360)).astype(np.float32)
        full = matmul(d_gx, w.T)
        for t in range(79):
            rows = slice(64 * t, 64 * (t + 1))
            assert np.array_equal(full[rows], matmul(d_gx[rows], w.T))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            matmul(np.zeros(3), np.zeros((3, 2)))

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 4), (3, 4, 5)),      # stack sizes differ
        ((2, 3, 4), (2, 5, 6)),      # inner dimensions differ
        ((2, 3, 4), (4, 5)),         # stacked times unstacked
        ((3, 4), (2, 4, 5)),
        ((1, 2, 3, 4), (1, 2, 4, 5)),  # two stack axes
        ((2, 3, 4), (2, 4, 5)),      # one stack axis: 2-d operands only
    ])
    def test_stacked_shape_validation(self, a_shape, b_shape):
        with pytest.raises(ValueError):
            matmul(np.zeros(a_shape), np.zeros(b_shape))


class TestActivations:
    def test_sigmoid_matches_definition(self):
        x = np.linspace(-10, 10, 41)
        assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-12)

    def test_sigmoid_extreme_inputs_no_overflow(self):
        with np.errstate(over="raise"):
            out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_sigmoid_preserves_dtype(self):
        assert sigmoid(np.zeros(3, dtype=np.float32)).dtype == np.float32

    def test_sigmoid_matches_scalar_oracle(self):
        for v in (-3.7, -0.2, 0.0, 1.1, 8.5):
            assert sigmoid(np.array([v]))[0] == pytest.approx(
                oracles.sigmoid(v), abs=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bitwise_equals_mask_scatter(self, dtype):
        info = np.finfo(dtype)
        uint = np.dtype(f"u{info.bits // 8}")
        log_max = float(np.log(info.max))
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                            info.smallest_subnormal, -info.smallest_subnormal,
                            info.tiny, -info.tiny, info.max, -info.max,
                            log_max, -log_max, np.nextafter(log_max, np.inf),
                            -np.nextafter(log_max, np.inf)], dtype=dtype)

        @given(hnp.arrays(dtype, hnp.array_shapes(max_dims=2, max_side=9),
                          elements=st.floats(width=info.bits)))
        @example(special)
        def check(x):
            with np.errstate(all="ignore"):
                want = oracles.sigmoid_mask_scatter(x)
                got = sigmoid(x)
            assert got.dtype == dtype
            assert np.array_equal(got.view(uint), want.view(uint))

        check()

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 7))
        s = softmax(x)
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
        assert (s > 0).all()

    def test_softmax_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(x), softmax(x + 100.0), atol=1e-12)

    def test_softmax_extreme_logits(self):
        with np.errstate(over="raise"):
            s = softmax(np.array([[1000.0, 0.0, -1000.0]]))
        assert s[0, 0] == pytest.approx(1.0)

    def test_softmax_axis(self):
        x = np.arange(6, dtype=float).reshape(2, 3)
        assert np.allclose(softmax(x, axis=0).sum(axis=0), 1.0)

    def test_softmax_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.zeros((2, 0)))


class TestGradCheck:
    def test_correct_gradient_passes(self):
        x = np.array([0.3, -1.2, 2.0])
        params = {"x": x}
        report = grad_check(lambda: float(np.sum(x ** 2)), params, {"x": 2 * x})
        assert isinstance(report, GradCheckReport)
        assert report.max_relative_error < 1e-9
        assert set(report.per_parameter) == {"x"}

    def test_doubled_gradient_detected(self):
        # |2g - g| / max(|2g|, |g|) = 0.5 for every coordinate
        x = np.array([0.7, -0.4])
        report = grad_check(lambda: float(np.sum(x ** 2)), {"x": x}, {"x": 4 * x})
        assert report.max_relative_error == pytest.approx(0.5, abs=1e-6)

    def test_parameters_restored(self):
        x = np.array([1.0, 2.0])
        before = x.copy()
        grad_check(lambda: float(np.sum(x ** 2)), {"x": x}, {"x": 2 * x})
        assert np.array_equal(x, before)

    def test_multi_parameter_report(self):
        a = np.array([1.5])
        b = np.array([-0.5, 0.25])
        loss = lambda: float(np.sum(a ** 2) + np.sum(b ** 2))
        report = grad_check(loss, {"a": a, "b": b}, {"a": 2 * a, "b": 2 * b})
        assert set(report.per_parameter) == {"a", "b"}
        assert report.max_relative_error == max(report.per_parameter.values())

    def test_non_finite_loss_raises(self):
        x = np.array([1e-6])
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            grad_check(lambda: float(np.log(x[0])), {"x": x},
                       {"x": 1.0 / x}, step=1e-5)

    def test_bad_step_rejected(self):
        x = np.array([1.0])
        with pytest.raises(ValueError):
            grad_check(lambda: 0.0, {"x": x}, {"x": x}, step=0.0)

    def test_gradient_shape_mismatch(self):
        x = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="shape"):
            grad_check(lambda: 0.0, {"x": x}, {"x": np.zeros(3)})
