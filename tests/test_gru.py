import copy
import os
import signal
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sentigru import layers
from sentigru.layers import (BidirectionalGru, GruCell, GruSequence,
                             gru_sequence_forward)


def random_cell(rng, x_dim, h, dtype):
    """Cell with randomized biases so both bias placements are exercised."""
    cell = GruCell(x_dim, h, rng, dtype)
    cell.b_x[:] = (rng.standard_normal(3 * h) * 0.5).astype(dtype)
    cell.b_h[:] = (rng.standard_normal(3 * h) * 0.5).astype(dtype)
    return cell


def cell_params(cell):
    return (cell.W.astype(np.float64).tolist(),
            cell.U.astype(np.float64).tolist(),
            cell.b_x.astype(np.float64).tolist(),
            cell.b_h.astype(np.float64).tolist())


class TestScalarOracleEquivalence:
    def test_100_random_instances_float32(self):
        rng = np.random.default_rng(100)
        worst = 0.0
        for trial in range(100):
            b = int(rng.integers(1, 5))
            t = int(rng.integers(1, 7))
            x_dim = int(rng.integers(1, 6))
            h = int(rng.integers(1, 6))
            return_sequences = bool(trial % 2)
            cell = random_cell(rng, x_dim, h, np.float32)
            x = rng.standard_normal((b, t, x_dim)).astype(np.float32)
            got = gru_sequence_forward(cell, x, return_sequences)
            want = np.asarray(oracles.scalar_gru_sequence(
                x.astype(np.float64).tolist(), *cell_params(cell),
                return_sequences=return_sequences))
            worst = max(worst, float(np.abs(got - want).max()))
        assert worst < 1e-6

    def test_float64_agreement_is_tight(self):
        rng = np.random.default_rng(200)
        for _ in range(10):
            cell = random_cell(rng, 4, 3, np.float64)
            x = rng.standard_normal((2, 5, 4))
            got = gru_sequence_forward(cell, x, return_sequences=True)
            want = np.asarray(oracles.scalar_gru_sequence(
                x.tolist(), *cell_params(cell)))
            assert np.abs(got - want).max() < 1e-12

    def test_reset_gate_placement_matters(self):
        # applying the reset gate before the recurrent product must give a
        # different candidate; verifies the oracle actually distinguishes it
        rng = np.random.default_rng(300)
        cell = random_cell(rng, 3, 3, np.float64)
        x = rng.standard_normal((1, 4, 3))
        good = gru_sequence_forward(cell, x, return_sequences=False)

        W, U, b_x, b_h = (np.asarray(p) for p in cell_params(cell))
        h = 3
        state = np.zeros(h)
        for t in range(4):
            gx = x[0, t] @ W + b_x
            gh = state @ U + b_h
            z = 1.0 / (1.0 + np.exp(-(gx[:h] + gh[:h])))
            r = 1.0 / (1.0 + np.exp(-(gx[h:2 * h] + gh[h:2 * h])))
            # reset-before variant: r scales the state, not the product
            c = np.tanh(gx[2 * h:] + (r * state) @ U[:, 2 * h:] + b_h[2 * h:])
            state = z * state + (1.0 - z) * c
        assert np.abs(good[0] - state).max() > 1e-4


class TestBidirectionalOracle:
    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_matches_scalar_composition(self, return_sequences):
        rng = np.random.default_rng(400)
        for _ in range(15):
            b = int(rng.integers(1, 4))
            t = int(rng.integers(1, 6))
            x_dim = int(rng.integers(1, 5))
            h = int(rng.integers(1, 5))
            fwd = random_cell(rng, x_dim, h, np.float32)
            bwd = random_cell(rng, x_dim, h, np.float32)
            bi = BidirectionalGru(fwd, bwd, return_sequences)
            x = rng.standard_normal((b, t, x_dim)).astype(np.float32)
            got = bi.forward(x)
            want = np.asarray(oracles.scalar_bigru(
                x.astype(np.float64).tolist(), cell_params(fwd),
                cell_params(bwd), return_sequences=return_sequences))
            assert np.abs(got - want).max() < 1e-6

    def test_single_timestep_directions_coincide(self):
        # with T=1 both directions see the same input, so each half equals
        # one plain forward step
        rng = np.random.default_rng(500)
        fwd = random_cell(rng, 3, 4, np.float64)
        bwd = random_cell(rng, 3, 4, np.float64)
        bi = BidirectionalGru(fwd, bwd, return_sequences=False)
        x = rng.standard_normal((2, 1, 3))
        out = bi.forward(x)
        f = gru_sequence_forward(fwd, x[:, 0, :][:, None, :], False, np.zeros((2, 4)))
        b = gru_sequence_forward(bwd, x[:, 0, :][:, None, :], False, np.zeros((2, 4)))
        assert np.allclose(out[:, :4], f, atol=1e-15)
        assert np.allclose(out[:, 4:], b, atol=1e-15)


class TestStackedDirections:
    """A two-cell GruSequence against each cell run alone, bit for bit."""

    # B up to 70 makes the projection chunk C = ROWS // B shorter than T, with
    # a ragged last chunk, at T = 20 and T = 79
    @settings(max_examples=40, deadline=None)
    @given(B=st.integers(1, 70),
           T=st.one_of(st.integers(1, 20), st.just(79)),
           x_dim=st.integers(1, 6), h=st.integers(1, 5),
           dtype=st.sampled_from([np.float32, np.float64]),
           return_sequences=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(B=70, T=79, x_dim=3, h=4, dtype=np.float32, return_sequences=True,
             seed=0)
    @example(B=52, T=20, x_dim=2, h=3, dtype=np.float64, return_sequences=False,
             seed=1)
    def test_equals_single_cells(self, B, T, x_dim, h, dtype, return_sequences,
                                 seed):
        rng = np.random.default_rng(seed)
        cells = (random_cell(rng, x_dim, h, dtype), random_cell(rng, x_dim, h, dtype))
        alone = [GruSequence(copy.deepcopy(cell), return_sequences) for cell in cells]
        stacked = GruSequence(cells, return_sequences)
        x = rng.standard_normal((B, T, x_dim)).astype(dtype)
        inputs = (x, np.ascontiguousarray(x[:, ::-1, :]))

        for mode in ("infer", "train"):
            out = stacked.forward((x, x[:, ::-1, :]), mode)
            for d in range(2):
                want = alone[d].forward(inputs[d], mode)
                assert out[d].dtype == dtype
                assert out[d].tobytes() == want.tobytes()

        grad = rng.standard_normal(out.shape).astype(dtype)
        dxs = stacked.backward(grad)
        for d in range(2):
            assert dxs[d].tobytes() == alone[d].backward(grad[d]).tobytes()
            want = alone[d].grads()
            for name, g in cells[d].grads().items():
                assert g.tobytes() == want[name].tobytes(), name


def bidirectional(rng, x_dim, h, dtype, return_sequences):
    return BidirectionalGru(random_cell(rng, x_dim, h, dtype),
                            random_cell(rng, x_dim, h, dtype), return_sequences)


class TestTwoThreads:
    """A bidirectional layer on two threads against the stacked loop, bit for
    bit. ``_usable_cpus`` is patched so that both paths run on any host."""

    @staticmethod
    def run(bi, cpus, x, grad_rng):
        """Infer and train forward, then backward; every output as bytes."""
        with mock.patch.object(layers, "_usable_cpus", lambda: cpus):
            infer = bi.forward(x, "infer")
            out = bi.forward(x, "train")
            split = bi._split
            grad = grad_rng.standard_normal(out.shape).astype(out.dtype)
            dx = bi.backward(grad)
        grads = {k: g.tobytes() for k, g in bi.grads().items()}
        return split, [infer.tobytes(), out.tobytes(), dx.tobytes()], grads

    @settings(max_examples=25, deadline=None)
    @given(B=st.sampled_from([layers.SPLIT_ROWS - 1, layers.SPLIT_ROWS,
                              layers.SPLIT_ROWS + 1, 70]),
           T=st.one_of(st.integers(1, 20), st.just(79)),
           x_dim=st.integers(1, 6), h=st.integers(1, 5),
           dtype=st.sampled_from([np.float32, np.float64]),
           return_sequences=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(B=layers.SPLIT_ROWS + 1, T=79, x_dim=3, h=4, dtype=np.float32,
             return_sequences=True, seed=0)
    @example(B=layers.SPLIT_ROWS, T=79, x_dim=2, h=3, dtype=np.float64,
             return_sequences=False, seed=1)
    def test_equals_stacked(self, B, T, x_dim, h, dtype, return_sequences, seed):
        rng = np.random.default_rng(seed)
        bi = bidirectional(rng, x_dim, h, dtype, return_sequences)
        twin = copy.deepcopy(bi)
        x = rng.standard_normal((B, T, x_dim)).astype(dtype)
        split, outs, grads = self.run(bi, 2, x, np.random.default_rng(seed))
        assert split == (B >= layers.SPLIT_ROWS)
        stacked, want, want_grads = self.run(twin, 1, x, np.random.default_rng(seed))
        assert not stacked
        assert outs == want
        assert grads == want_grads

    @pytest.mark.parametrize("side", [0, 1])
    def test_exception_propagates_after_both_directions(self, side):
        rng = np.random.default_rng(3)
        bi = bidirectional(rng, 3, 4, np.float64, True)
        x = rng.standard_normal((layers.SPLIT_ROWS, 5, 3))
        finished = []

        def boom(*args, **kwargs):
            raise RuntimeError("direction failed")

        def slow(seq):
            def forward(*args, **kwargs):
                time.sleep(0.2)
                out = GruSequence.forward(seq, *args, **kwargs)
                finished.append(seq)
                return out
            return forward

        bi.alone[side].forward = boom
        other = bi.alone[1 - side]
        other.forward = slow(other)
        with mock.patch.object(layers, "_usable_cpus", lambda: 2):
            with pytest.raises(RuntimeError, match="direction failed"):
                bi.forward(x, "train")
        assert finished == [other]

    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_second_backward_rejected(self, return_sequences):
        rng = np.random.default_rng(4)
        bi = bidirectional(rng, 3, 4, np.float32, return_sequences)
        x = rng.standard_normal((layers.SPLIT_ROWS, 6, 3)).astype(np.float32)
        with mock.patch.object(layers, "_usable_cpus", lambda: 2):
            out = bi.forward(x, "train")
            assert bi._split
            bi.backward(np.ones_like(out))
            with pytest.raises(ValueError, match="earlier backward consumed"):
                bi.backward(np.ones_like(out))
            bi.forward(x, "infer")
            with pytest.raises(ValueError, match="infer mode"):
                bi.backward(np.ones_like(out))

    def test_other_path_drops_its_caches(self):
        rng = np.random.default_rng(5)
        bi = bidirectional(rng, 3, 4, np.float32, True)
        x = rng.standard_normal((layers.SPLIT_ROWS, 6, 3)).astype(np.float32)
        with mock.patch.object(layers, "_usable_cpus", lambda: 2):
            bi.forward(x, "train")
            assert all(seq._caches is not None for seq in bi.alone)
            bi.forward(x[:1], "train")
        assert all(seq._caches is None and seq._xs is None for seq in bi.alone)
        assert bi.seq._caches is not None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_a_split_forward(self):
        rng = np.random.default_rng(6)
        bi = bidirectional(rng, 3, 4, np.float32, True)
        x = rng.standard_normal((64, 6, 3)).astype(np.float32)
        with mock.patch.object(layers, "_usable_cpus", lambda: 2):
            want = bi.forward(x, "infer")         # the parent's worker thread
            assert bi._split
            with warnings.catch_warnings():       # fork of a threaded process
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                ok = False
                try:
                    ok = bi.forward(x, "infer").tobytes() == want.tobytes()
                finally:
                    os._exit(0 if ok else 1)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung in a split forward")
        assert os.waitstatus_to_exitcode(status) == 0
