"""The compiled matmul kernel against einsum, byte for byte.

On an x86-64 host with a C compiler none of these tests skips: the kernel
must have built, loaded and passed its import probes there.
"""

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_bits
from sentigru import layers, numerics, trainer
from sentigru.layers import (BatchNorm, Embedding, GruCell, GruSequence,
                             softmax_cross_entropy)
from sentigru.model import ModelConfig, build_model
from sentigru.trainer import Adam

SRC = Path(numerics.__file__).parents[1]
X86 = platform.machine() in ("x86_64", "AMD64")
BUILDS = X86 and shutil.which("cc") is not None


def einsum(a, b):
    return np.einsum("...ik,...kj->...ij", a, b)


def test_kernel_active_where_it_builds():
    if not BUILDS:
        pytest.skip("the kernel builds only on x86-64 with a C compiler")
    assert numerics.KERNEL == numerics.variants()[0] != "einsum"
    assert numerics.UFUNC_LOOPS is not None


LAYOUTS = ("contiguous", "a transposed", "x[:, ::-1][:, t].T", "rows strided",
           "b transposed")


def operands(layout, m, k, n, sample):
    """(a, b) of a product in one of the layouts the layers use."""
    if layout == "contiguous":                        # h_prev U, x W
        return sample(m, k), sample(k, n)
    if layout == "a transposed":                      # h_prev.T in dU
        return sample(k, m).T, sample(k, n)
    if layout == "x[:, ::-1][:, t].T":                # x.T in dW, second cell
        return sample(k, 3, m)[:, ::-1][:, 1].T, sample(k, n)
    if layout == "rows strided":                      # one time step of x
        return sample(m, 3, k)[:, ::-1][:, 1], sample(k, n)
    return sample(m, k), sample(n, k).T               # d_g U.T and d_g W.T


def sampler(dtype, seed, specials):
    """Draws standard normals with about 5% replaced by the chosen specials:
    "inf" (signed zeros, subnormals, infinities and values that overflow),
    "nan" (signed zeros, subnormals and one NaN of random bits: the only NaN
    bits the product can hold), "mixed" (all of these, two NaNs), "finite"
    (signed zeros and subnormals only) or "big" (those and the finite values
    that overflow)."""
    rng = np.random.default_rng(seed)
    info = np.finfo(dtype)
    uint = np.uint32 if dtype == np.float32 else np.uint64

    def a_nan():
        sign = int(rng.integers(0, 2)) << (info.bits - 1)
        exponent = ((1 << info.nexp) - 1) << info.nmant
        payload = int(rng.integers(1, 1 << info.nmant))
        return np.array([sign | exponent | payload], uint).view(dtype)[0]

    inf = [np.inf, -np.inf, info.max / 2, -info.max / 2]
    pool = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal * 3]
    pool += {"inf": inf, "nan": [a_nan()], "mixed": inf + [a_nan(), a_nan()],
             "finite": [], "big": inf[2:]}[specials]
    pool = np.array(pool, dtype)

    def sample(*shape):
        x = rng.standard_normal(shape).astype(dtype)
        hit = rng.random(shape) < 0.05
        x[hit] = rng.choice(pool, hit.sum())
        return x
    return sample


def assert_einsum_bits(got, want, specials):
    assert got.dtype == want.dtype and got.shape == want.shape
    if specials != "mixed":
        assert got.tobytes() == want.tobytes()
        return
    # NaNs of different bits meet: the same NaNs, the same bits elsewhere
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.skipif(not BUILDS, reason="the kernel builds only on x86-64 with a C compiler")
@pytest.mark.parametrize("dtype", [np.float32])
@settings(deadline=None, max_examples=150)
@given(layout=st.sampled_from(LAYOUTS), m=st.integers(1, 80), k=st.integers(1, 80),
       n=st.integers(2, 80), specials=st.sampled_from(["inf", "nan", "mixed"]),
       seed=st.integers(0, 2**32 - 1))
@example(layout="b transposed", m=5056, k=360, n=50, specials="inf", seed=0)
@example(layout="b transposed", m=64, k=360, n=120, specials="nan", seed=1)
@example(layout="b transposed", m=64, k=6, n=128, specials="inf", seed=2)
@example(layout="contiguous", m=64, k=120, n=360, specials="inf", seed=3)
@example(layout="x[:, ::-1][:, t].T", m=50, k=64, n=360, specials="nan", seed=4)
@example(layout="rows strided", m=1024, k=50, n=360, specials="inf", seed=5)
@example(layout="a transposed", m=128, k=64, n=6, specials="mixed", seed=6)
def test_every_variant_has_einsum_bits(dtype, layout, m, k, n, specials, seed):
    a, b = operands(layout, m, k, n, sampler(dtype, seed, specials))
    want = einsum(a, b)
    for variant in numerics.variants():
        assert_einsum_bits(numerics.compiled(a, b, variant), want, specials)
    assert_einsum_bits(numerics.matmul(a, b), want, specials)


@pytest.mark.skipif(not BUILDS, reason="the kernel builds only on x86-64 with a C compiler")
@pytest.mark.parametrize("dtype", [np.float32])
def test_lane_sum_keeps_einsum_nan_sign(dtype):
    """Where NaNs of different bits meet in the final lane sum of the
    transposed-operand order (two input NaNs, or one and an inf - inf), the
    kernel keeps the one einsum keeps: its lane pairing is numpy's npyv_sum."""
    uint = np.uint32 if dtype == np.float32 else np.uint64
    bits = 8 * np.dtype(dtype).itemsize
    quiet = 1 << (np.finfo(dtype).nmant - 1)
    exponent = ((1 << np.finfo(dtype).nexp) - 1) << np.finfo(dtype).nmant
    plus = np.array([exponent | quiet | 0x11], uint).view(dtype)[0]
    minus = np.array([1 << (bits - 1) | exponent | quiet | 0x22], uint).view(dtype)[0]
    lanes = 16 // np.dtype(dtype).itemsize
    rows = []
    for first, second in [(plus, minus), (minus, plus), (np.inf, plus), (plus, np.inf)]:
        for gap in range(1, lanes):
            row = np.ones(2 * lanes, dtype)
            row[0], row[gap] = first, second
            if np.isinf(first):
                row[lanes] = -np.inf                  # inf - inf in lane 0
            rows.append(row)
    a, w = np.array(rows), np.ones((3, 2 * lanes), dtype)
    want = einsum(a, w.T)
    for variant in numerics.variants():
        assert numerics.compiled(a, w.T, variant).tobytes() == want.tobytes()


def gru_grads(kernel, B, T, x_dim, h, cells, split, return_sequences, seed,
              specials="inf", dtype=np.float32):
    """A train forward and backward of a GruSequence of ``cells`` cells with
    ``numerics.KERNEL`` set to ``kernel``, on the two-thread plan where
    ``split``: the number of compiled backward calls (those that returned
    True), and dx and every gradient. The input, the output gradient and the
    gradients' starting values come from ``sampler(dtype, seed, specials)``."""
    sample = sampler(dtype, seed, specials)
    rng = np.random.default_rng(seed)
    seq = GruSequence([GruCell(x_dim, h, rng, dtype) for _ in range(cells)],
                      return_sequences)
    for name, value in seq.params().items():
        if "b_" in name:
            value[...] = rng.standard_normal(value.shape) / 2
    for g in seq.grads().values():
        g[...] = sample(*g.shape)
    calls, counted = counting("gru_backward")
    plan = mock.patch.object(layers, "SPLIT_ROWS", 1 if split else B + 1)
    with plan, mock.patch.object(numerics, "KERNEL", kernel), counted:
        out = seq.forward(sample(B, T, x_dim), "train")
        dx = seq.backward(sample(*out.shape))
    return len(calls), [dx, *(g.copy() for g in seq.grads().values())]


def assert_same_bits(got, want):
    """Byte for byte. Infinities in the inputs make NaNs, and where NaNs of
    different bits meet which one a sum keeps depends on register order (see
    numerics): there the NaNs must match, and every other value byte for byte."""
    for a, b in zip(got, want, strict=True):
        assert_einsum_bits(a, b, "mixed" if np.isnan(b).any() else "inf")


@pytest.mark.skipif(not BUILDS, reason="the kernel builds only on x86-64 with a C compiler")
@settings(deadline=None, max_examples=40)
@given(B=st.integers(1, 70), T=st.one_of(st.integers(1, 20), st.just(79)),
       x_dim=st.one_of(st.integers(1, 6), st.just(50)),
       h=st.one_of(st.integers(1, 5), st.just(64)), cells=st.integers(1, 2),
       split=st.booleans(), return_sequences=st.booleans(),
       seed=st.integers(0, 2**32 - 1), specials=st.sampled_from(["finite", "inf"]))
@example(B=64, T=79, x_dim=50, h=64, cells=2, split=True, return_sequences=True, seed=0,
         specials="finite")
@example(B=70, T=20, x_dim=6, h=64, cells=2, split=False, return_sequences=False, seed=1,
         specials="inf")
@example(B=1, T=79, x_dim=1, h=1, cells=1, split=False, return_sequences=True, seed=2,
         specials="inf")
def test_gru_backward_has_the_numpy_loops_bits(B, T, x_dim, h, cells, split,
                                               return_sequences, seed, specials):
    """The compiled backward of every variant against the numpy loop: dx
    and every cell gradient, on both plans."""
    args = B, T, x_dim, h, cells, split, return_sequences, seed, specials
    calls, want = gru_grads("einsum", *args)
    assert calls == 0
    for variant in numerics.variants():
        calls, got = gru_grads(variant, *args)
        assert calls == cells
        assert_same_bits(got, want)


@pytest.mark.skipif(not BUILDS, reason="the kernel builds only on x86-64 with a C compiler")
def test_gru_backward_signed_zeros():
    """A final-state gradient of -0.0, which the carry add turns into +0.0;
    and a batch column of -0.0 at the sigmoid input, whose bias sums,
    taken from +0.0, are +0.0, so the -0.0 gradients they add to become
    +0.0 (a sum started from the first row would leave them -0.0)."""
    B, h = 3, 2
    x = np.random.default_rng(0).standard_normal((B, 1, 2)).astype(np.float32)
    for return_sequences in (False, True):
        grads = []
        for kernel in ["einsum", *numerics.variants()]:
            cell = GruCell(2, h, np.random.default_rng(1))
            # the candidate of unit 0 is tanh(+0.0) at t = 0, so its dz is dh * +0.0
            cell.W[:, 2 * h] = 0
            for g in cell.grads().values():
                g[...] = -0.0
            seq = GruSequence(cell, return_sequences)
            with mock.patch.object(numerics, "KERNEL", kernel):
                out = seq.forward(x, "train")
                grad = np.full(out.shape, -0.0, np.float32)
                if return_sequences:
                    grad[..., 0] = -x[..., 0] ** 2 - 1                  # dz = -0.0
                dx = seq.backward(grad)
            if return_sequences:
                assert not np.signbit([cell.db_x[0], cell.db_h[0]]).any()
            grads.append([dx.tobytes()] + [g.tobytes() for g in cell.grads().values()])
        assert all(g == grads[0] for g in grads)


@pytest.mark.parametrize("dtype, kernel", [(np.float64, numerics.KERNEL),
                                           (np.float32, "einsum")])
@pytest.mark.parametrize("split", [False, True])
def test_gru_backward_stays_in_numpy_for_float64_and_einsum(dtype, kernel, split):
    with mock.patch.object(numerics, "_kernels", {}):    # a call into the kernel raises
        calls, _ = gru_grads(kernel, 12, 5, 3, 4, 2, split, True, 0, "inf", dtype)
    assert calls == 0


def test_gru_backward_of_a_cell_array_the_kernel_cannot_read_is_numpys():
    """The compiled backward declines a cell gradient that is not
    C-contiguous, so that backward steps in numpy and gives the same bytes."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((9, 4, 3)).astype(np.float32)
    grads = []
    for order in "CF":
        cell = GruCell(3, 5, np.random.default_rng(1))
        cell.dU = np.zeros(cell.U.shape, np.float32, order=order)
        seq = GruSequence(cell, True)
        calls, counted = counting("gru_backward")
        with counted:
            out = seq.forward(x, "train")
            dx = seq.backward(np.cos(out))
        assert len(calls) == (order == "C" and BUILDS)
        grads.append([dx.tobytes(), cell.dU.tobytes(), cell.dW.tobytes()])
    assert grads[0] == grads[1]


@pytest.mark.parametrize("case, forward, backward", [
    ("float64", True, True),
    ("einsum", True, True),
    ("no ufunc loops", True, False),
    ("F-ordered dU", False, True),
    ("F-ordered W", True, True),
    ("x stride of 6 bytes", False, True),
    ("x stride of 6 bytes", True, False),
])
def test_gru_calls_decline_touching_nothing(case, forward, backward):
    """Where a compiled GRU loop cannot run, ``gru_forward`` and
    ``gru_backward`` return False without calling the kernel, and every
    output, cache, carry and cell array keeps its bytes."""
    B, T, x_dim, h = 3, 4, 5, 6
    dtype = np.float64 if case == "float64" else np.float32
    sample = sampler(dtype, 0, "finite")
    cell = GruCell(x_dim, h, np.random.default_rng(0), dtype)
    for value in (*cell.params().values(), *cell.grads().values()):
        value[...] = sample(*value.shape)
    if case == "F-ordered dU":
        cell.dU = np.asfortranarray(cell.dU)
    if case == "F-ordered W":
        cell.W = np.asfortranarray(cell.W)
    x = sample(B, T, x_dim)
    if case == "x stride of 6 bytes":
        raw = np.zeros(6 * x.size, np.uint8)
        x = np.ndarray(x.shape, x.dtype, raw, 0, (6 * T * x_dim, 6 * x_dim, 6))
    ht, states = sample(B, h), sample(B, T, h)
    caches = [sample(T, B, w * h) for w in (1, 2, 1, 1)]
    grad, carry, dx = sample(B, T, h), sample(B, h), sample(B, T, x_dim)
    arrays = [x, ht, states, *caches, grad, carry, dx, *cell.params().values(),
              *cell.grads().values()]
    before = [a.tobytes() for a in arrays]
    kernel = "einsum" if case == "einsum" else numerics.KERNEL
    loops = None if case == "no ufunc loops" else numerics.UFUNC_LOOPS
    # with no bound entries, a call into the kernel raises
    with mock.patch.object(numerics, "_kernels", {}), \
            mock.patch.object(numerics, "KERNEL", kernel), \
            mock.patch.object(numerics, "UFUNC_LOOPS", loops):
        if forward:
            assert numerics.gru_forward(x, cell, ht, states, caches) is False
        if backward:
            assert numerics.gru_backward(x, caches, grad, carry, dx, cell) is False
    assert [a.tobytes() for a in arrays] == before


def gru_forwards(kernel, B, T, x_dim, h, cells, split, return_sequences, seed,
                 specials="inf", dtype=np.float32):
    """An infer and a train forward of a GruSequence of ``cells`` cells with
    ``numerics.KERNEL`` set to ``kernel``, on the two-thread plan where
    ``split``: the number of compiled forward calls (those that returned
    True), and both outputs and every cache block the train forward kept."""
    sample = sampler(dtype, seed, specials)
    rng = np.random.default_rng(seed)
    seq = GruSequence([GruCell(x_dim, h, rng, dtype) for _ in range(cells)],
                      return_sequences)
    for name, value in seq.params().items():
        if "b_" in name:
            value[...] = rng.standard_normal(value.shape) / 2
    x = sample(B, T, x_dim)
    calls, counted = counting("gru_forward")
    plan = mock.patch.object(layers, "SPLIT_ROWS", 1 if split else B + 1)
    with plan, mock.patch.object(numerics, "KERNEL", kernel), counted:
        infer = seq.forward(x, "infer")
        train = seq.forward(x, "train")
    return len(calls), [infer, train, *(block for blocks in seq._kept[2] for block in blocks)]


@pytest.mark.skipif(not BUILDS, reason="the kernel builds only on x86-64 with a C compiler")
@settings(deadline=None, max_examples=40)
@given(B=st.integers(1, 70), T=st.one_of(st.integers(1, 20), st.just(79)),
       x_dim=st.one_of(st.integers(1, 6), st.just(50)),
       h=st.one_of(st.integers(1, 5), st.just(64)), cells=st.integers(1, 2),
       split=st.booleans(), return_sequences=st.booleans(),
       seed=st.integers(0, 2**32 - 1), specials=st.sampled_from(["finite", "inf", "nan"]))
@example(B=64, T=79, x_dim=50, h=64, cells=2, split=True, return_sequences=True, seed=0,
         specials="finite")
@example(B=70, T=20, x_dim=6, h=64, cells=2, split=False, return_sequences=False, seed=1,
         specials="inf")
@example(B=1, T=79, x_dim=50, h=64, cells=2, split=False, return_sequences=True, seed=2,
         specials="finite")
@example(B=1, T=79, x_dim=1, h=1, cells=1, split=True, return_sequences=False, seed=3,
         specials="inf")
@example(B=1, T=20, x_dim=6, h=5, cells=2, split=True, return_sequences=False, seed=4,
         specials="nan")
def test_gru_forward_has_the_numpy_loops_bits(B, T, x_dim, h, cells, split,
                                              return_sequences, seed, specials):
    """The compiled forward of every variant against the numpy loop: the
    infer and train outputs and every cache block, on both plans. One call
    per cell in each of the two forwards, at every B and T."""
    args = B, T, x_dim, h, cells, split, return_sequences, seed, specials
    calls, want = gru_forwards("einsum", *args)
    assert calls == 0
    for variant in numerics.variants():
        calls, got = gru_forwards(variant, *args)
        assert calls == 2 * cells
        assert_same_bits(got, want)


@pytest.mark.skipif(not BUILDS, reason="the kernel builds only on x86-64 with a C compiler")
def test_a_wrong_loop_fails_the_check_and_the_forward_stays_in_numpy():
    """numpy's float64 loops of np.exp and np.tanh, and a loop count read
    from the wrong place, fail the import check; with no bound loops the
    forward steps in numpy and gives the same bytes."""
    for ufunc in (np.exp, np.tanh):
        assert numerics._ufunc_loop(ufunc, "d->d") is None
    with mock.patch.object(numerics, "_NTYPES", 16):        # nin, not ntypes
        assert numerics._ufunc_loops() is None
    assert numerics._ufunc_loops() == numerics.UFUNC_LOOPS
    args = 9, 7, 3, 5, 2, False, True, 0
    with mock.patch.object(numerics, "UFUNC_LOOPS", None):
        calls, got = gru_forwards(numerics.KERNEL, *args)
    assert calls == 0
    assert_same_bits(got, gru_forwards("einsum", *args)[1])


@pytest.mark.parametrize("dtype, kernel", [(np.float64, numerics.KERNEL),
                                           (np.float32, "einsum")])
@pytest.mark.parametrize("split", [False, True])
def test_gru_forward_stays_in_numpy_for_float64_and_einsum(dtype, kernel, split):
    with mock.patch.object(numerics, "_kernels", {}):    # a call into the kernel raises
        calls, _ = gru_forwards(kernel, 12, 5, 3, 4, 2, split, True, 0, "inf", dtype)
    assert calls == 0


def adam_inputs(n, seed, dtype=np.float32, strided=False):
    """A parameter, its two moments and its gradient, n values each, for
    :func:`adam_steps`: the parameter holds signed zeros, subnormals and a
    NaN; the first moment and the gradient finite values up to half the
    largest, whose square overflows; the second moment infinities. The
    gradient is a view of every second value where ``strided``."""
    p = sampler(dtype, seed, "nan")(n)
    m = sampler(dtype, seed + 1, "big")(n)
    v = np.abs(sampler(dtype, seed + 2, "inf")(n))
    g = sampler(dtype, seed + 3, "big")(n, 2 if strided else 1)[:, 0]
    return p, m, v, g


def adam_steps(kernel, inputs, t, lr):
    """One Adam step of rate ``lr`` as step ``t`` on copies of ``inputs``,
    with ``numerics.KERNEL`` set to ``kernel``: the number of compiled
    calls, and the parameter and both moments after it."""
    p, m, v = (a.copy() for a in inputs[:3])
    g = inputs[3]
    opt = Adam(lr)
    opt.t, opt.m["w"], opt.v["w"] = t - 1, m, v
    calls, step = [], trainer.adam_step

    def counted(*args):
        calls.append(step(*args))
        return calls[-1]

    with mock.patch.object(numerics, "KERNEL", kernel), \
            mock.patch.object(trainer, "adam_step", counted):
        opt.step([("w", p, g)])
    assert opt.t == t
    return sum(calls), [p, m, v]


@pytest.mark.skipif(not BUILDS, reason="the kernel builds only on x86-64 with a C compiler")
@settings(deadline=None, max_examples=30)
@given(n=st.sampled_from([*range(1, 41), *range(2_500_000, 2_500_016)]),
       t=st.sampled_from([1, 2, 7, 10_000]), lr=st.sampled_from([0.0, 1e-3, 0.5, 1e-46, 1e39]),
       seed=st.integers(0, 2**32 - 1))
@example(n=2_500_000, t=1, lr=1e-3, seed=0)           # the paper's embedding
@example(n=2_500_015, t=10_000, lr=1e39, seed=1)      # every variant's longest tail
@example(n=33, t=2, lr=0.0, seed=2)
def test_adam_has_the_numpy_steps_bits(n, t, lr, seed):
    """The compiled Adam step of every variant against the numpy step: the
    parameter and both moments, byte for byte where no NaN meets another."""
    inputs = adam_inputs(n, seed)
    calls, want = adam_steps("einsum", inputs, t, lr)
    assert calls == 0
    for variant in numerics.variants():
        calls, got = adam_steps(variant, inputs, t, lr)
        assert calls == 1
        assert_same_bits(got, want)


@pytest.mark.parametrize("dtype, kernel, strided, lr", [
    (np.float64, numerics.KERNEL, False, 1e-3),
    (np.float32, "einsum", False, 1e-3),
    (np.float32, numerics.KERNEL, True, 1e-3),
    (np.float32, numerics.KERNEL, False, np.float64(1e-3)),   # strongly typed: float64 step
])
def test_adam_stays_in_numpy_for_float64_einsum_and_a_strided_gradient(dtype, kernel,
                                                                       strided, lr):
    inputs = adam_inputs(9, 0, dtype, strided)
    with mock.patch.object(numerics, "_kernels", {}):    # a call into the kernel raises
        calls, got = adam_steps(kernel, inputs, 2, lr)
    assert calls == 0
    assert_same_bits(got, adam_steps("einsum", inputs, 2, lr)[1])


def test_adam_writes_no_read_only_parameter():
    """The numpy step refuses a read-only parameter; the compiled one must
    not write it either."""
    p, _, _, g = adam_inputs(9, 0)
    p.setflags(write=False)
    before = p.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        Adam().step([("w", p, g)])
    assert p.tobytes() == before


def counting(name):
    """A patch of ``layers.<name>`` that counts the calls the kernel made
    (those that did not return None or False) into the list it returns."""
    calls, function = [], getattr(layers, name)

    def counted(*args):
        result = function(*args)
        if result is not None and result is not False:
            calls.append(args)
        return result
    return calls, mock.patch.object(layers, name, counted)


def batch_norm_runs(kernel, N, C, seed, specials="inf", dtype=np.float32, strided=False):
    """A BatchNorm of C channels over an (N, C) input, with ``numerics.KERNEL``
    set to ``kernel``: train, infer and train forwards, then a backward. The
    number of compiled passes, and each forward's output and moving
    statistics, dx and both parameter gradients. Parameters, statistics,
    gradients' starting values, input and output gradient come from
    ``sampler(dtype, seed, specials)``; the input is a view of every second
    column where ``strided``."""
    sample = sampler(dtype, seed, specials)
    bn = BatchNorm(C, dtype)
    for value in (*bn.params().values(), *bn.grads().values(), bn.moving_mean):
        value[...] = sample(C)
    bn.moving_var[...] = np.abs(sample(C))
    x = sample(N, 2 * C)[:, ::2] if strided else sample(N, C)
    counts = [counting(name) for name in ("batch_norm_stats", "batch_norm_apply",
                                          "batch_norm_backward")]
    with mock.patch.object(numerics, "KERNEL", kernel), \
            counts[0][1], counts[1][1], counts[2][1]:
        outs = []
        for mode in ("train", "infer", "train"):
            outs += [bn.forward(x, mode), bn.moving_mean.copy(), bn.moving_var.copy()]
        outs += [bn.backward(sample(N, C)), *bn.grads().values()]
    return sum(len(calls) for calls, _ in counts), outs


def batch_norm_passes(C):
    """Compiled calls of batch_norm_runs: two stats, three outputs, one
    backward; none for one channel, which numpy sums pairwise."""
    return 6 if C >= 2 else 0


@pytest.mark.skipif(not BUILDS, reason="the kernel builds only on x86-64 with a C compiler")
@settings(deadline=None, max_examples=60)
@given(N=st.one_of(st.integers(2, 70), st.just(5056)),
       C=st.sampled_from([*range(1, 41), 128]), seed=st.integers(0, 2**32 - 1),
       specials=st.sampled_from(["finite", "inf", "nan", "mixed"]))
@example(N=5056, C=128, seed=0, specials="finite")       # paper size, batch 64
@example(N=79, C=128, seed=1, specials="inf")            # paper size, batch 1
@example(N=2, C=33, seed=2, specials="nan")
@example(N=3, C=1, seed=3, specials="inf")
def test_batch_norm_has_the_numpy_bits(N, C, seed, specials):
    """BatchNorm's compiled passes of every variant against its numpy
    expressions: train and infer outputs, the moving statistics after each
    forward, dx and both parameter gradients, byte for byte where no NaN
    meets another."""
    calls, want = batch_norm_runs("einsum", N, C, seed, specials)
    assert calls == 0
    for variant in numerics.variants():
        calls, got = batch_norm_runs(variant, N, C, seed, specials)
        assert calls == batch_norm_passes(C)
        assert_same_bits(got, want)


@pytest.mark.skipif(not BUILDS, reason="the kernel builds only on x86-64 with a C compiler")
def test_batch_norm_signed_zeros():
    """Columns of -0.0 with beta -0.0: numpy's sums start at +0.0, so the
    mean is +0.0, x - mean is -0.0 and so is the output; a sum started from
    the first row would make the mean -0.0 and the output +0.0. The gradient
    sums of a -0.0 output gradient are +0.0 too, so the -0.0 parameter
    gradients they add to become +0.0."""
    x = np.full((4, 3), -0.0, np.float32)
    x[:, 2] = [1, -1, 2, -2]
    grads = []
    for kernel in ["einsum", *numerics.variants()]:
        bn = BatchNorm(3)
        bn.beta[...] = bn.d_gamma[...] = bn.d_beta[...] = -0.0
        with mock.patch.object(numerics, "KERNEL", kernel):
            out = bn.forward(x, "train")
            dx = bn.backward(np.full(x.shape, -0.0, np.float32))
        assert np.signbit(out[:, :2]).all()
        assert not np.signbit([*bn.d_gamma, *bn.d_beta]).any()
        grads.append([a.tobytes() for a in (out, dx, *bn.grads().values(),
                                              *bn.buffers().values())])
    assert all(g == grads[0] for g in grads)


@pytest.mark.parametrize("dtype, kernel, strided", [(np.float64, numerics.KERNEL, False),
                                                    (np.float32, "einsum", False),
                                                    (np.float32, numerics.KERNEL, True)])
def test_batch_norm_stays_in_numpy_for_float64_einsum_and_a_strided_input(dtype, kernel,
                                                                          strided):
    with mock.patch.object(numerics, "_kernels", {}):    # a call into the kernel raises
        calls, got = batch_norm_runs(kernel, 9, 5, 0, "inf", dtype, strided)
    assert calls == 0
    assert_same_bits(got, batch_norm_runs("einsum", 9, 5, 0, "inf", dtype, strided)[1])


def embedding_grads(kernel, V, E, B, T, seed, specials="inf", ids_dtype=np.intp):
    """An Embedding of V rows of E floats, with ``numerics.KERNEL`` set to
    ``kernel``: a train forward of (B, T) ids drawn from [0, V), so repeated
    when B T > V, then a backward. The number of compiled scatters, and the
    table's gradient, which starts at ``sampler(np.float32, seed,
    specials)`` values, as does the output gradient."""
    sample = sampler(np.float32, seed, specials)
    emb = Embedding(V, E, None)
    emb.d_weight[...] = sample(V, E)
    ids = np.random.default_rng(seed).integers(0, V, (B, T)).astype(ids_dtype)
    calls, patch = counting("scatter_add")
    with mock.patch.object(numerics, "KERNEL", kernel), patch:
        emb.forward(ids, "train")
        emb.backward(sample(B, T, E))
    return len(calls), [emb.d_weight]


@pytest.mark.skipif(not BUILDS, reason="the kernel builds only on x86-64 with a C compiler")
@settings(deadline=None, max_examples=60)
@given(V=st.one_of(st.integers(1, 8), st.just(2_000)),
       E=st.sampled_from([*range(1, 41), 50, 128]), B=st.integers(1, 9),
       T=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       specials=st.sampled_from(["finite", "inf", "nan", "mixed"]))
@example(V=50_000, E=50, B=64, T=79, seed=0, specials="finite")   # paper size
@example(V=1, E=33, B=3, T=5, seed=1, specials="inf")             # one id, 15 times
def test_embedding_scatter_has_the_numpy_bits(V, E, B, T, seed, specials):
    """The compiled scatter-add of every variant against ``np.add.at``, with
    repeated ids, byte for byte where no NaN meets another."""
    calls, want = embedding_grads("einsum", V, E, B, T, seed, specials)
    assert calls == 0
    for variant in numerics.variants():
        calls, got = embedding_grads(variant, V, E, B, T, seed, specials)
        assert calls == 1
        assert_same_bits(got, want)


def test_embedding_scatter_stays_in_numpy_where_numpy_decides():
    """int32 ids, a read-only or float64 table, and ids outside the table,
    which numpy wraps (negative) or rejects (too large): the kernel writes
    nothing, and numpy makes the scatter or raises."""
    calls, got = embedding_grads(numerics.KERNEL, 5, 3, 2, 4, 0, ids_dtype=np.int32)
    assert calls == 0
    assert_same_bits(got, embedding_grads("einsum", 5, 3, 2, 4, 0)[1])
    rows = np.ones((2, 3), np.float32)
    for table, ids in [(np.zeros((5, 3), np.float64), [1, 2]),
                       (np.zeros((5, 3), np.float32), [1, -1]),
                       (np.zeros((5, 3), np.float32), [1, 5])]:
        ids = np.array(ids, np.intp)
        assert not numerics.scatter_add(table, ids, rows)
        assert not table.any()
    table.setflags(write=False)
    assert not numerics.scatter_add(table, np.array([0, 1], np.intp), rows)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_float64_stays_on_einsum(layout):
    a, b = operands(layout, 16, 40, 30, sampler(np.float64, 0, "inf"))
    want = einsum(a, b)
    names = numerics.variants()
    with mock.patch.object(numerics, "_kernels", {}):    # a call into the kernel raises
        for variant in names:
            assert numerics.compiled(a, b, variant) is None
        assert numerics.matmul(a, b).tobytes() == want.tobytes()


@pytest.mark.skipif(not BUILDS, reason="the kernel builds only on x86-64 with a C compiler")
def test_outside_the_proven_set_is_einsum():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 40)).astype(np.float32)
    b = rng.standard_normal((40, 30)).astype(np.float32)
    variant = numerics.KERNEL
    assert numerics.compiled(a, b, variant) is not None
    assert numerics.compiled(a, b[:, :1], variant) is None            # one column
    assert numerics.compiled(a, b.astype(np.float64), variant) is None
    assert numerics.compiled(a.astype(np.float16), b.astype(np.float16), variant) is None
    assert numerics.compiled(a[:, :20], b[::2], variant) is None      # b rows strided
    with pytest.raises(ValueError, match="shape mismatch"):
        numerics.compiled(a, b[::2], variant)
    assert numerics.compiled(a.T.copy().T, b.T.copy().T, variant) is None
    assert numerics.compiled(a[:, :0], b[:0], variant) is None        # k = 0
    # matmul calls no entry of the kernel: not for the dense head's forward
    # x W, dW's x^T g or dx's g W^T, nor for 64 rows and 2.9M multiply-adds
    x = rng.standard_normal((64, 128)).astype(np.float32)
    w = rng.standard_normal((128, 6)).astype(np.float32)
    g = rng.standard_normal((64, 6)).astype(np.float32)
    big = rng.standard_normal((128, 360)).astype(np.float32)

    def raises(*args):
        raise AssertionError("matmul called the kernel")
    table = {entry: raises for entry in numerics._kernels[variant]}
    with mock.patch.object(numerics, "_kernels", {variant: table}):
        for p, q in [(x, w), (x.T, g), (g, w.T), (x, big)]:
            assert numerics.matmul(p, q).tobytes() == einsum(p, q).tobytes()


@pytest.mark.skipif(not BUILDS, reason="the kernel builds only on x86-64 with a C compiler")
def test_concurrent_first_imports_build_one_library(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("*.so", "*.part", "__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(src), HOME=str(tmp_path / "home"))
    code = "import sentigru.numerics as n; print(n.KERNEL, n.__file__)"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(2)]
    outs = [proc.communicate(timeout=300) for proc in procs]
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err
        kernel, path = out.split()
        assert kernel == numerics.KERNEL and path.startswith(str(src))
    built = sorted(p.name for p in (src / "sentigru").iterdir() if p.name.startswith("_matmul"))
    assert len(built) == 1 and built[0].endswith(".so"), built
    assert not (tmp_path / "home").exists()


def test_missing_compiler_falls_back_to_einsum(tmp_path):
    # nothing built yet in an empty directory, and no compiler to build it
    with mock.patch.object(numerics, "CC", str(tmp_path / "missing-cc")), \
            mock.patch.object(numerics, "_library_dirs", lambda: iter([tmp_path])):
        kernel = numerics._load()
    assert kernel == "einsum"
    assert list(tmp_path.iterdir()) == []
    with mock.patch.object(numerics, "KERNEL", kernel):
        grid = test_bits.grid_hashes()
    recorded = json.loads(test_bits.RECORDS.read_text(encoding="utf-8"))
    assert grid == recorded.get(test_bits.machine_key(), test_bits.grid_hashes())


def fake_cc(directory, status):
    """A compiler stand-in that logs each call to ``directory / "cc.log"``,
    writes a dummy file at its ``-o`` path when ``status`` is 0, and exits
    with ``status``."""
    directory.mkdir()
    log, cc = directory / "cc.log", directory / "cc"
    cc.write_text(f'#!/bin/sh\necho "$@" >> "{log}"\n'
                  + ('for arg; do out=$arg; done; echo lib > "$out"\n' if status == 0 else "")
                  + f"exit {status}\n")
    cc.chmod(0o755)
    return cc, log


def calls(log):
    return len(log.read_text().splitlines()) if log.exists() else 0


@pytest.mark.skipif(not X86, reason="the kernel is built only on x86-64")
def test_a_failing_build_runs_once_and_ends_the_search(tmp_path):
    cc, log = fake_cc(tmp_path / "bin", 1)
    dirs = [tmp_path / "first", tmp_path / "second", tmp_path / "third"]
    with mock.patch.object(numerics, "CC", str(cc)), \
            mock.patch.object(numerics, "_library_dirs", lambda: iter(dirs)):
        for n in (1, 2):
            assert numerics._load() == "einsum"
            assert calls(log) == n
    assert list(dirs[0].iterdir()) == []                # the .part file is gone
    assert not dirs[1].exists() and not dirs[2].exists()


def test_a_directory_that_cannot_take_the_library_is_passed_over(tmp_path):
    cc, log = fake_cc(tmp_path / "bin", 0)
    (tmp_path / "a-file").write_text("")
    dirs = [tmp_path / "a-file" / "lib", tmp_path / "second", tmp_path / "third"]
    with mock.patch.object(numerics, "CC", str(cc)), \
            mock.patch.object(numerics, "_library_dirs", lambda: iter(dirs)):
        path = numerics._library()
    assert path.parent == dirs[1] and path.read_text() == "lib\n"
    assert calls(log) == 1
    assert [p.name for p in dirs[1].iterdir()] == [path.name]
    assert not dirs[2].exists()


def test_a_build_in_the_package_directory_removes_older_libraries(tmp_path):
    """A build beside the source removes the libraries of earlier sources
    there, and no other file. A load builds nothing and removes nothing, and
    a build in a shared directory leaves that directory's libraries, which
    another install may load."""
    cc, log = fake_cc(tmp_path / "bin", 0)
    package, shared = tmp_path / "package", tmp_path / "shared"
    older = ["_matmul-0123456789abcdef.so", "_matmul-fedcba9876543210.so"]
    others = ["_matmul-0123456789abcdef.so.12.0a0b0c0d.part", "_matmul.c", "other.so"]
    for directory in (package, shared):
        directory.mkdir()
        for name in older + others:
            (directory / name).write_text("old")
    source = package / "matmul.c"
    source.write_bytes(numerics._SOURCE.read_bytes())

    def names(directory):
        return sorted(p.name for p in directory.iterdir())

    def library(*dirs):
        with mock.patch.object(numerics, "CC", str(cc)), \
                mock.patch.object(numerics, "_SOURCE", source), \
                mock.patch.object(numerics, "_library_dirs", lambda: iter(dirs)):
            return numerics._library()

    path = library(shared, package)
    assert path.parent == shared and calls(log) == 1
    assert names(shared) == sorted(older + others + [path.name])
    path.unlink()
    path = library(package, shared)
    assert path.parent == package and calls(log) == 2
    assert names(package) == sorted(others + ["matmul.c", path.name])
    assert names(shared) == sorted(older + others)
    (package / older[0]).write_text("old")
    assert library(package, shared) == path and calls(log) == 2
    assert (package / older[0]).exists()


@pytest.mark.skipif(not X86, reason="the kernel is built only on x86-64")
def test_no_home_directory_skips_the_home_cache(tmp_path):
    # HOME unset and a uid with no passwd entry, as in a container run with
    # an arbitrary uid, where the package directory cannot take the library
    cc, _ = fake_cc(tmp_path / "bin", 0)
    tried = []

    def no_room(cc, path):
        tried.append(path.parent)

    no_home = RuntimeError("Could not determine home directory.")
    with mock.patch.object(numerics, "CC", str(cc)), \
            mock.patch.object(numerics, "_FLAGS", numerics._FLAGS + ("-DFRESH_TAG",)), \
            mock.patch.object(numerics, "_build", no_room), \
            mock.patch.object(numerics.Path, "home", side_effect=no_home), \
            mock.patch.object(numerics.tempfile, "gettempdir", lambda: str(tmp_path)):
        assert numerics._load() == "einsum"
    assert tried == [SRC / "sentigru", tmp_path / f"sentigru-{os.getuid()}"]


def test_another_cpu_never_compiles(tmp_path):
    cc, log = fake_cc(tmp_path / "bin", 0)
    arm = os.uname_result(tuple(os.uname())[:4] + ("aarch64",))
    with mock.patch.object(numerics.os, "uname", lambda: arm), \
            mock.patch.object(numerics, "CC", str(cc)), \
            mock.patch.object(numerics, "_library_dirs", lambda: iter([tmp_path / "lib"])):
        assert numerics._load() == "einsum"
    assert calls(log) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bin"]


def test_a_probe_that_differs_means_einsum():
    with mock.patch.object(numerics, "_kernels", numerics._kernels), \
            mock.patch.object(numerics, "compiled", lambda a, b, _: einsum(a, b) + 1):
        assert numerics._load() == "einsum"
        assert numerics.variants() == []


SANITIZED_SHAPES = ((1, 5, 9), (1, 6, 19, 37), (2, 7, 17, 33, 70))    # m, k, n
SANITIZED_CHILD = """
import ctypes, itertools, sys
import numpy as np
from sentigru import numerics
from test_kernel import LAYOUTS, SANITIZED_SHAPES, einsum, operands, sampler

numerics._kernels = numerics._bind(ctypes.CDLL(sys.argv[1]))
products = 0
for seed, (layout, m, k, n) in enumerate(itertools.product(LAYOUTS, *SANITIZED_SHAPES)):
    a, b = operands(layout, m, k, n, sampler(np.float32, seed, "inf"))
    want = einsum(a, b).tobytes()
    for variant in numerics.variants():
        assert numerics.compiled(a, b, variant).tobytes() == want, (variant, layout, m, k, n)
        products += 1
print(" ".join(numerics.variants()), products)
"""
# B, T, x_dim, h, cells, split, return_sequences: tile and vector tails of every
# variant, x_dim among them for dx = d_gx W^T, whose rows are T x_dim apart
SANITIZED_GRU_SHAPES = ((1, 9), (1, 3), (1, 5, 17, 50), (1, 5, 17), (1, 2), (False, True),
                        (False, True))
# B T above 1,024 rows: the forward projects a chunk of 14 steps, then one of 6
SANITIZED_GRU_CHUNKED = (70, 20, 50, 5, 2, True, True)
# run with the library, then gru_grads or gru_forwards and its calls per cell
SANITIZED_GRU_CHILD = """
import ctypes, itertools, sys
from sentigru import numerics
import test_kernel
from test_kernel import SANITIZED_GRU_CHUNKED, SANITIZED_GRU_SHAPES, assert_same_bits

numerics._kernels = numerics._bind(ctypes.CDLL(sys.argv[1]))
run, per_cell = getattr(test_kernel, sys.argv[2]), int(sys.argv[3])
runs = 0
shapes = [*itertools.product(*SANITIZED_GRU_SHAPES), SANITIZED_GRU_CHUNKED]
for seed, shape in enumerate(shapes):
    want = run("einsum", *shape, seed)[1]
    for variant in numerics.variants():
        calls, got = run(variant, *shape, seed)
        assert calls == per_cell * shape[4], (variant, shape)
        assert_same_bits(got, want)
        runs += 1
print(" ".join(numerics.variants()), runs)
"""


@pytest.fixture(scope="module")
def sanitized(tmp_path_factory):
    """matmul.c built with AddressSanitizer and UBSan, and the environment of
    a child Python that preloads their runtimes; skips where that cannot be."""
    if not X86:
        pytest.skip("the kernel is built only on x86-64")
    if shutil.which(numerics.CC) is None:
        pytest.skip(f"no C compiler {numerics.CC!r} on PATH")
    runtimes = [subprocess.run([numerics.CC, f"-print-file-name={name}"], text=True,
                               capture_output=True).stdout.strip()
                for name in ("libasan.so", "libubsan.so")]
    if not all(os.path.isabs(path) for path in runtimes):
        pytest.skip(f"{numerics.CC} has no libasan.so or libubsan.so")
    library = tmp_path_factory.mktemp("sanitized") / "matmul-sanitized.so"
    build = subprocess.run([numerics.CC, "-O1", "-g", "-ffp-contract=off",
                            "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
                            "-shared", "-fPIC", str(numerics._SOURCE), "-o", str(library)],
                           text=True, capture_output=True, timeout=300)
    assert build.returncode == 0, build.stderr
    env = dict(os.environ, LD_PRELOAD=" ".join(runtimes), ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    return library, env


def run_sanitized(code, sanitized, *args):
    """Runs ``code`` in the sanitized child with the library's path and
    ``args`` as its arguments; returns its output's words: the variants, then
    a count."""
    library, env = sanitized
    child = subprocess.run([sys.executable, "-c", code, str(library), *args], env=env,
                           text=True, capture_output=True, timeout=300)
    assert child.returncode == 0, child.stderr[-4000:]
    words = child.stdout.split()
    assert words[:-1] == numerics.variants()
    return int(words[-1])


def test_sanitized_kernel_has_einsum_bits(sanitized):
    """matmul.c built with AddressSanitizer and UBSan, bound with numerics'
    own helper in a child Python that preloads their runtimes: every variant
    on every layout above, over tile and tail edges, reads and writes nothing
    outside its operands and matches einsum byte for byte."""
    cases = len(LAYOUTS) * int(np.prod([len(sizes) for sizes in SANITIZED_SHAPES]))
    assert run_sanitized(SANITIZED_CHILD, sanitized) == cases * len(numerics.variants())


def test_sanitized_gru_backward_has_numpy_bits(sanitized):
    """The compiled GRU backward of every variant under the same sanitizers,
    over batch, width and time edges on both plans, against the numpy loop."""
    cases = int(np.prod([len(sizes) for sizes in SANITIZED_GRU_SHAPES])) + 1
    runs = run_sanitized(SANITIZED_GRU_CHILD, sanitized, "gru_grads", "1")
    assert runs == cases * len(numerics.variants())


def test_sanitized_gru_forward_has_numpy_bits(sanitized):
    """The compiled GRU forward of every variant, calling numpy's exp and
    tanh loops, under the same sanitizers and over the same edges, in both
    modes, against the numpy loop; one input spans two projection chunks."""
    cases = int(np.prod([len(sizes) for sizes in SANITIZED_GRU_SHAPES])) + 1
    runs = run_sanitized(SANITIZED_GRU_CHILD, sanitized, "gru_forwards", "2")
    assert runs == cases * len(numerics.variants())


# run with the library: sizes 1 to 33 reach every variant's masked tail
SANITIZED_ADAM_CHILD = """
import ctypes, sys
from sentigru import numerics
from test_kernel import adam_inputs, adam_steps, assert_same_bits

numerics._kernels = numerics._bind(ctypes.CDLL(sys.argv[1]))
runs = 0
for n in range(1, 34):
    inputs = adam_inputs(n, n)
    want = adam_steps("einsum", inputs, 7, 0.5)[1]
    for variant in numerics.variants():
        calls, got = adam_steps(variant, inputs, 7, 0.5)
        assert calls == 1, (variant, n)
        assert_same_bits(got, want)
        runs += 1
print(" ".join(numerics.variants()), runs)
"""


def test_sanitized_adam_has_numpy_bits(sanitized):
    """The compiled Adam step of every variant under the same sanitizers, over
    sizes 1 to 33, against the numpy step."""
    assert run_sanitized(SANITIZED_ADAM_CHILD, sanitized) == 33 * len(numerics.variants())


# run with the library: widths 1 to 33 reach every variant's masked tail,
# and one channel BatchNorm's numpy path
SANITIZED_ROWS_CHILD = """
import ctypes, sys
from sentigru import numerics
from test_kernel import (assert_same_bits, batch_norm_passes, batch_norm_runs,
                         embedding_grads)

numerics._kernels = numerics._bind(ctypes.CDLL(sys.argv[1]))
runs = 0
for c in range(1, 34):
    for run, shape, passes in ((batch_norm_runs, (3, c), batch_norm_passes(c)),
                               (embedding_grads, (4, c, 3, 5), 1)):
        want = run("einsum", *shape, c)[1]
        for variant in numerics.variants():
            calls, got = run(variant, *shape, c)
            assert calls == passes, (run.__name__, variant, c)
            assert_same_bits(got, want)
            runs += 1
print(" ".join(numerics.variants()), runs)
"""


def test_sanitized_batch_norm_and_embedding_scatter_have_numpy_bits(sanitized):
    """BatchNorm's compiled passes and the embedding's scatter-add, every
    variant under the same sanitizers, over widths 1 to 33, against numpy."""
    assert run_sanitized(SANITIZED_ROWS_CHILD, sanitized) == 66 * len(numerics.variants())


def resident_bytes():
    return int(Path("/proc/self/statm").read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not (BUILDS and sys.platform.startswith("linux")),
                    reason="the kernel builds only on x86-64 with a C compiler; "
                           "resident memory is read from Linux's /proc")
def test_the_kernels_own_scratch_is_freed():
    """The compiled GRU forward and backward and the transposed-operand
    product allocate their scratch and free it before they return; the
    sanitized child runs with the leak check off, so this checks it. 200
    rounds at batch 64 and h 120 would leak about 375 MB, 1.9 MB a round."""
    B, T, x_dim, h = 64, 2, 64, 120
    sample = sampler(np.float32, 0, "finite")
    cell = GruCell(x_dim, h, np.random.default_rng(0))
    x, ht = sample(B, T, x_dim), sample(B, h)
    caches = [sample(T, B, w * h) for w in (1, 2, 1, 1)]
    grad, carry, dx = sample(B, T, h), sample(B, h), np.empty((B, T, x_dim), np.float32)
    a, w = sample(B, 3 * h), sample(h, 3 * h)

    def rounds(n):
        for _ in range(n):
            assert numerics.gru_forward(x, cell, ht, None, None)
            assert numerics.gru_forward(x, cell, ht, None, caches)
            assert numerics.gru_backward(x, caches, grad, carry, dx, cell)
            numerics.compiled(a, w.T, numerics.KERNEL)

    rounds(5)
    before = resident_bytes()
    rounds(200)
    assert resident_bytes() - before < 16 << 20


def two_step_hash(B):
    """sha256 over two paper-size float32 train steps at batch B: logits,
    every gradient, and every parameter and buffer (BatchNorm's moving
    statistics) after each Adam update; then an infer forward's logits."""
    model = build_model(ModelConfig(vocab_size=2_000), seed=7)
    rng = np.random.default_rng(B)
    ids = rng.integers(0, 2_000, (B, 79))
    labels = rng.integers(0, 6, B)
    digest = hashlib.sha256(model.forward(ids, "infer").tobytes())
    adam = Adam()
    for step in range(2):
        logits = model.forward(ids, "train", rng=np.random.default_rng(step))
        _, dlogits = softmax_cross_entropy(logits, labels)
        model.zero_grad()
        model.backward(dlogits)
        triples = model.trainable()
        adam.step(triples)
        for part in [logits, *(g for _, _, g in triples),
                     *(a for _, a in model.state_items())]:
            digest.update(part.tobytes())
    digest.update(model.forward(ids, "infer").tobytes())
    return digest.hexdigest()


@pytest.mark.skipif(not BUILDS, reason="the kernel builds only on x86-64 with a C compiler")
@pytest.mark.parametrize("B", [1, 16, 64])
def test_paper_size_steps_equal_with_kernel_on_and_off(B):
    on = two_step_hash(B)
    with mock.patch.object(numerics, "KERNEL", "einsum"):
        off = two_step_hash(B)
    assert on == off
