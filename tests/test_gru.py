import contextlib
import copy
import os
import random
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import sentigru
from sentigru import cli, layers, numerics
from sentigru.layers import (BidirectionalGru, GruCell, GruSequence,
                             gru_sequence_forward)
from sentigru.model import ModelConfig, build_model


def random_cell(rng, x_dim, h, dtype):
    """Cell with randomized biases so both bias placements are exercised."""
    cell = GruCell(x_dim, h, rng, dtype)
    cell.b_x[:] = (rng.standard_normal(3 * h) * 0.5).astype(dtype)
    cell.b_h[:] = (rng.standard_normal(3 * h) * 0.5).astype(dtype)
    return cell


@contextlib.contextmanager
def thread_counts():
    """The number of threads every forward and backward run in the block
    ran its cells on, in call order: the plan, also where an infer forward
    keeps nothing."""
    counts, run_each = [], layers._run_each

    def counted(calls, split):
        counts.append(len(calls) if split else 1)
        return run_each(calls, split)

    with mock.patch.object(layers, "_run_each", counted):
        yield counts


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
        f = gru_sequence_forward(fwd, x[:, 0, :][:, None, :], False)
        b = gru_sequence_forward(bwd, x[:, 0, :][:, None, :], False)
        assert np.allclose(out[:, :4], f, atol=1e-15)
        assert np.allclose(out[:, 4:], b, atol=1e-15)


class TestTwoCells:
    """A two-cell GruSequence against each cell run alone, bit for bit: the
    second over the input reversed in time, its states and its input gradient
    re-reversed."""

    # B up to 70 makes the compiled forward's projection chunk (1,024 rows)
    # shorter than T, with a ragged last chunk, at T = 20 and T = 79
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
        both = GruSequence(cells, return_sequences)
        x = rng.standard_normal((B, T, x_dim)).astype(dtype)
        reversed_x = np.ascontiguousarray(x[:, ::-1, :])

        def in_time_order(a):
            return a[:, ::-1] if return_sequences else a

        for mode in ("infer", "train"):
            # the one-thread plan at any B
            one_thread = mock.patch.object(layers, "SPLIT_ROWS", B + 1)
            with one_thread, thread_counts() as threads:
                out = both.forward(x, mode)
            assert threads == [1]
            want = np.concatenate([alone[0].forward(x, mode),
                                   in_time_order(alone[1].forward(reversed_x, mode))],
                                  axis=-1)
            assert out.dtype == dtype
            assert out.tobytes() == want.tobytes()

        grad = rng.standard_normal(out.shape).astype(dtype)
        dx = both.backward(grad)
        want = alone[0].backward(grad[..., :h])
        want += alone[1].backward(in_time_order(grad[..., h:]))[:, ::-1]
        assert dx.tobytes() == want.tobytes()
        for d in range(2):
            want = alone[d].grads()
            for name, g in cells[d].grads().items():
                assert g.tobytes() == want[name].tobytes(), name


def stepped(seq, x):
    """``seq``'s (B, T, D*h) states, each cell stepped with
    ``GruSequence._step`` from a projection of that step's rows alone."""
    outs = []
    for cell, xd in zip(seq.cells, (x, x[:, ::-1])):
        ht, states = np.zeros((x.shape[0], cell.hidden_size), x.dtype), []
        for t in range(x.shape[1]):
            gx = np.einsum("ik,kj->ij", xd[:, t], cell.W) + cell.b_x
            ht = GruSequence._step(gx, ht, cell.U, cell.b_h)
            states.append(ht)
        outs.append(np.stack(states, axis=1))
    return np.concatenate([outs[0], *(o[:, ::-1] for o in outs[1:])], axis=-1)


class TestInPlaceProjection:
    """The compiled forward projects its input in time chunks of at most
    1,024 rows into its own scratch, one product per batch row and chunk, a
    partial last chunk included: the forward's bytes equal a numpy loop that
    projects every step on its own."""

    # (64, 79) and (100, 79) end in a partial chunk (16 and 10 steps); batch
    # 1 projects the reversed cell's rows through a negative time stride; (2,
    # 3) is a single short chunk
    @pytest.mark.parametrize("B, T, x_dim, h", [(64, 79, 3, 4), (100, 79, 3, 4),
                                                (1, 79, 16, 16), (2, 3, 3, 4)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [numerics.KERNEL, "einsum"])
    @pytest.mark.parametrize("cells", [1, 2])
    def test_equals_the_stepped_loop(self, B, T, x_dim, h, dtype, kernel, cells):
        rng = np.random.default_rng(B * T + cells)
        seq = GruSequence([random_cell(rng, x_dim, h, dtype) for _ in range(cells)], True)
        x = rng.standard_normal((B, T, x_dim)).astype(dtype)
        with mock.patch.object(numerics, "KERNEL", kernel):
            want = stepped(seq, x).tobytes()
            assert seq.forward(x, "infer").tobytes() == want
            assert seq.forward(x, "train").tobytes() == want


def bidirectional(rng, x_dim, h, dtype, return_sequences):
    return BidirectionalGru(random_cell(rng, x_dim, h, dtype),
                            random_cell(rng, x_dim, h, dtype), return_sequences)


def test_a_train_backward_allocates_no_projection_sized_block():
    """One paper-size layer-1 BiGRU train backward, as tracemalloc sees
    numpy's allocations: two copies of the output gradient and two dx
    arrays, about 6.6 MiB, and no (B, T, 3h) block per cell, two of which
    alone are 13.9 MiB. The compiled calls' scratch, a step's d_gx and the
    packed weights, comes from C's malloc, which tracemalloc does not see."""
    B, T, x_dim, h = 64, 79, 50, 120
    rng = np.random.default_rng(9)
    bi = bidirectional(rng, x_dim, h, np.float32, True)
    out = bi.forward(rng.standard_normal((B, T, x_dim)).astype(np.float32), "train")
    grad = np.ones_like(out)
    tracemalloc.start()
    try:
        bi.backward(grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * B * T * 3 * h * 4


class TestTwoThreads:
    """A bidirectional layer on two threads against one thread, bit for bit.
    The one-thread side raises ``layers.SPLIT_ROWS`` above its batch."""

    def test_the_callers_errstate_holds_on_the_second_thread(self):
        """np.errstate belongs to a context, and a new thread starts in an
        empty one: the thread _run_each starts runs in a copy of the
        caller's, so a floating-point error the caller raises on raises on
        either thread."""
        def invalid():
            return np.array([np.inf], np.float32) - np.inf

        with np.errstate(invalid="raise"):
            for calls in ([invalid, lambda: None], [lambda: None, invalid]):
                with pytest.raises(FloatingPointError):
                    layers._run_each(calls, True)

    @staticmethod
    def run(bi, split, x, grad_rng):
        """Infer and train forward, then backward: the threads each ran on,
        and every output as bytes."""
        one_thread = mock.patch.object(layers, "SPLIT_ROWS", len(x) + 1)
        with contextlib.nullcontext() if split else one_thread, \
                thread_counts() as threads:
            infer = bi.forward(x, "infer")
            out = bi.forward(x, "train")
            grad = grad_rng.standard_normal(out.shape).astype(out.dtype)
            dx = bi.backward(grad)
        grads = {k: g.tobytes() for k, g in bi.grads().items()}
        return threads, [infer.tobytes(), out.tobytes(), dx.tobytes()], grads

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
    def test_equals_one_thread(self, B, T, x_dim, h, dtype, return_sequences, seed):
        rng = np.random.default_rng(seed)
        bi = bidirectional(rng, x_dim, h, dtype, return_sequences)
        twin = copy.deepcopy(bi)
        x = rng.standard_normal((B, T, x_dim)).astype(dtype)
        threads, outs, grads = self.run(bi, True, x, np.random.default_rng(seed))
        assert threads == [2 if B >= layers.SPLIT_ROWS else 1] * 3
        threads, want, want_grads = self.run(twin, False, x, np.random.default_rng(seed))
        assert threads == [1] * 3
        assert outs == want
        assert grads == want_grads

    @pytest.mark.parametrize("side", [0, 1])
    def test_exception_propagates_after_both_directions(self, side):
        rng = np.random.default_rng(3)
        bi = bidirectional(rng, 3, 4, np.float64, True)
        T = 5
        x = rng.standard_normal((layers.SPLIT_ROWS, T, 3))
        failing, other = bi.cells[side], bi.cells[1 - side]
        steps = []
        step = GruSequence._step

        def boom(*args, **kwargs):
            raise RuntimeError("direction failed")

        def slow(*args, **kwargs):
            time.sleep(0.2)
            return GruCell.input_projection(other, *args, **kwargs)

        def counted(*args):
            steps.append(None)
            return step(*args)

        failing.input_projection = boom
        other.input_projection = slow
        with mock.patch.object(GruSequence, "_step", staticmethod(counted)):
            with pytest.raises(RuntimeError, match="direction failed"):
                bi.forward(x, "train")
        # the failing direction stopped at its first projection; the other
        # ran every step before the exception reached the caller
        assert len(steps) == T

    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_second_backward_rejected(self, return_sequences):
        rng = np.random.default_rng(4)
        bi = bidirectional(rng, 3, 4, np.float32, return_sequences)
        x = rng.standard_normal((layers.SPLIT_ROWS, 6, 3)).astype(np.float32)
        with thread_counts() as threads:
            out = bi.forward(x, "train")
            bi.backward(np.ones_like(out))
        assert threads == [2, 2]
        with pytest.raises(ValueError, match="earlier backward consumed"):
            bi.backward(np.ones_like(out))
        bi.forward(x, "infer")
        with pytest.raises(ValueError, match="infer mode"):
            bi.backward(np.ones_like(out))

    def test_calling_thread_allocates_every_kept_array(self):
        """The worker allocates nothing through np.empty or np.zeros: the
        arrays that outlive a call, dx included, come from the calling thread."""
        rng = np.random.default_rng(5)
        bi = bidirectional(rng, 3, 4, np.float32, True)
        # B T above 1,024 rows, so the compiled forward projects two chunks
        x = rng.standard_normal((layers.SPLIT_ROWS, 70, 3)).astype(np.float32)
        allocating = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                allocating.append(threading.current_thread())
                return np.empty(*args, **kwargs)

            def zeros(self, *args, **kwargs):
                allocating.append(threading.current_thread())
                return np.zeros(*args, **kwargs)

        with mock.patch.object(layers, "np", RecordingNumpy()), thread_counts() as threads:
            out = bi.forward(x, "train")
            bi.backward(np.ones_like(out))
        # the directions did split: each call ran a cell on a worker thread
        assert threads == [2, 2]
        assert allocating
        assert set(allocating) == {threading.current_thread()}

    def test_no_worker_outlives_the_call(self):
        rng = np.random.default_rng(7)
        bi = bidirectional(rng, 3, 4, np.float32, True)
        x = rng.standard_normal((layers.SPLIT_ROWS, 6, 3)).astype(np.float32)

        def workers():
            return [t for t in threading.enumerate()
                    if t.name.startswith("sentigru-gru")]

        with thread_counts() as threads:
            out = bi.forward(x, "train")
            assert workers() == []
            bi.backward(np.ones_like(out))
        assert workers() == []
        assert threads == [2, 2]

    def test_concurrent_callers_equal_serial_runs(self):
        """Two threads, each running split train passes on its own layer,
        give the bytes of running the same passes one after the other."""
        rng = np.random.default_rng(8)
        bis = [bidirectional(rng, 3, 4, np.float32, True) for _ in range(2)]
        twins = copy.deepcopy(bis)
        xs = [rng.standard_normal((layers.SPLIT_ROWS, 12, 3)).astype(np.float32)
              for _ in range(2)]
        start = threading.Barrier(2, timeout=60)

        def passes(bi, x, wait=False):
            if wait:
                start.wait()
            out = [bi.forward(x, "train") for _ in range(3)][-1]
            dx = bi.backward(np.cos(out))
            return [out.tobytes(), dx.tobytes(),
                    *(g.tobytes() for g in bi.grads().values())]

        got = [None, None]

        def run(i):
            got[i] = passes(bis[i], xs[i], wait=True)

        callers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in callers)
        want = [passes(twin, x) for twin, x in zip(twins, xs)]
        assert got == want

    @staticmethod
    def on_two_threads(call, jobs, rounds):
        """``call`` on every job, ``rounds`` times over, on each of two threads
        at once that share whatever ``call`` uses; returns each thread's
        results. The short switch interval makes the threads interleave inside
        calls, also in a process pinned to one CPU."""
        got = [None, None]
        start = threading.Barrier(2, timeout=60)

        def run(i):
            start.wait()
            got[i] = [call(job) for _ in range(rounds) for job in jobs]

        callers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        return got

    @pytest.mark.parametrize("B", [1, layers.SPLIT_ROWS])
    def test_shared_model_infers_the_serial_bytes(self, B):
        """Two threads run infer forwards on one model and get the bytes of a
        serial run: on one thread at batch 1, and on two threads per layer
        at SPLIT_ROWS."""
        config = ModelConfig(vocab_size=300, embed_dim=12, seq_len=20,
                             gru_units=(16, 10, 8))
        model = build_model(config, seed=5)
        rng = np.random.default_rng(5)
        batches = [rng.integers(0, 300, (B, 20)) for _ in range(max(40 // B, 8))]

        def infer(ids):
            return model.forward(ids, "infer").tobytes()

        with thread_counts() as threads:
            want = [infer(ids) for ids in batches]
        assert set(threads) == {1 if B < layers.SPLIT_ROWS else 2}
        assert self.on_two_threads(infer, batches, 5) == [want * 5] * 2

    def test_shared_model_predicts_the_serial_probabilities(self):
        """``sentigru.predict`` from two threads on one small model."""
        model = build_model(ModelConfig(vocab_size=50, embed_dim=6, seq_len=12,
                                        gru_units=(8, 6, 4)), seed=9)
        r = random.Random(9)
        words = ["glad", "sad", "fear", "love", "mad", "wow", "calm", "shock"]
        texts = [" ".join(r.choice(words) for _ in range(r.randint(1, 12)))
                 for _ in range(30)]
        vocab = sentigru.build_vocabulary(text.split() for text in texts)

        def probabilities(text):
            return sentigru.predict(model, vocab, text)[2].tobytes()

        want = [probabilities(text) for text in texts]
        assert self.on_two_threads(probabilities, texts, 3) == [want * 3] * 2

    def test_train_run_writes_the_same_bytes_on_both_plans(self, tmp_path):
        """``sentigru train`` at batch SPLIT_ROWS, once on one thread and
        once on two threads: the same model and history bytes."""
        r = random.Random(1)
        words = ["glad", "sad", "fear", "love", "mad", "wow", "calm", "shock"]
        data = tmp_path / "repro.csv"
        data.write_text("text,label\n" + "".join(
            " ".join(r.choice(words) for _ in range(6)) + f",{r.randrange(6)}\n"
            for _ in range(120)))
        runs, batch = [], layers.SPLIT_ROWS
        for split in (False, True):
            out, history = tmp_path / f"{split}.sgru", tmp_path / f"{split}.json"
            one_thread = mock.patch.object(layers, "SPLIT_ROWS", batch + 1)
            with contextlib.nullcontext() if split else one_thread, \
                    thread_counts() as threads:
                assert cli.main([
                    "train", "--data", str(data), "--out", str(out),
                    "--history", str(history), "--batch-size", str(batch),
                    "--epochs", "2", "--seq-len", "8", "--vocab-size", "50",
                    "--embed-dim", "4", "--gru-units", "4,3,3", "--deterministic",
                    "--seed", "3"]) == 0
            assert (2 in threads) == split
            runs.append((out.read_bytes(), history.read_bytes()))
        assert runs[0] == runs[1]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_a_split_forward(self):
        rng = np.random.default_rng(6)
        bi = bidirectional(rng, 3, 4, np.float32, True)
        x = rng.standard_normal((64, 6, 3)).astype(np.float32)
        with thread_counts() as threads:
            want = bi.forward(x, "infer")         # starts and joins a worker
        assert threads == [2]
        with warnings.catch_warnings():           # fork of a threaded process
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
