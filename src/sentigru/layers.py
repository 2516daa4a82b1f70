"""Forward and backward passes for every layer in the classifier stack.

Every stack layer has ``forward(x, mode="train", rng=None)`` with mode
"train" or "infer" (only dropout draws from ``rng``; :func:`check_mode`
rejects any other mode), ``backward(grad)`` returning the gradient at the
layer input (None for the embedding). The model runs the stack as one loop
over these. ``param_count`` is generic: the sizes of params() and buffers().

Constructors draw initial weights from ``rng``. With ``rng=None`` they draw
nothing and every weight starts at zero: that is how a model is built to be
loaded. Every parameter, gradient and BatchNorm buffer comes from
:func:`numerics.zeros`, so it starts on a 64-byte boundary, and its pages
stay untouched until written: a model that only infers never makes its
gradients resident.

One rule in :class:`Layer` says what a forward keeps: a train-mode forward
keeps what its backward reads, an infer-mode forward keeps nothing, and
backward takes the kept state once or raises ValueError naming why before it
changes anything. So threads may share a layer for infer forwards while
none changes its parameters, but a layer keeps one train forward's state
for backward, so one thread trains it. Parameter gradients accumulate in
place; callers own zeroing between steps.
The GRU uses the reset-after formulation with separate input and recurrent
biases, so each direction carries 3h(x + h + 2) parameters. Gate blocks are
laid out [update | reset | candidate] along the 3h axis.

:class:`GruSequence` is the one recurrence: one cell over time, or two cells
over opposite time directions, which is the bidirectional layer
(:class:`BidirectionalGru` builds it from a forward and a backward cell).
Each cell runs its own time loop, on the kernel as one compiled call each
way that also projects the input and writes its gradient, else stepping in
numpy. From ``SPLIT_ROWS`` rows up, whatever the CPU count, the
second of two cells runs on a thread started for that forward or backward
call and joined before it returns; below it the cells run in turn. It is the
only thread the package starts, and none outlives the call that started it;
it makes the same float operations, so no bit depends on the batch choosing
it.
"""

import contextvars
import threading
from functools import partial

import numpy as np

from .numerics import (batch_norm_apply, batch_norm_backward, batch_norm_stats,
                       gru_backward, gru_forward, matmul, scatter_add, sigmoid, zeros)


def uniform(rng, limit, shape, dtype) -> np.ndarray:
    """U(-limit, limit) draws cast to ``dtype``; zeros when ``rng`` is None."""
    out = zeros(shape, dtype)
    if rng is not None:
        out[...] = rng.uniform(-limit, limit, shape)
    return out


def glorot_uniform(rng, shape, dtype) -> np.ndarray:
    fan_in, fan_out = shape
    return uniform(rng, np.sqrt(6.0 / (fan_in + fan_out)), shape, dtype)


def orthogonal(rng, n: int, dtype) -> np.ndarray:
    """Orthogonal n x n matrix from QR of a gaussian draw, sign-fixed; zeros
    when ``rng`` is None."""
    out = zeros((n, n), dtype)
    if rng is not None:
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        out[...] = q * np.sign(np.diag(r))
    return out


def check_mode(mode: str) -> None:
    """Reject any mode but "train" and "infer", the two every layer knows."""
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")


class Layer:
    # what the last train forward kept for backward, or why nothing is kept
    _kept: tuple | str = "called before any forward"

    def _keep(self, mode: str, *state) -> None:
        """Keep ``state`` for one backward after a train forward, and nothing
        after an infer forward."""
        check_mode(mode)
        self._kept = state if mode == "train" else (
            "needs a train-mode forward; the last forward ran in infer mode")

    def _take(self) -> tuple:
        """What the last train forward kept, once; else ValueError naming why."""
        if isinstance(self._kept, str):
            raise ValueError(f"{type(self).__name__}.backward {self._kept}")
        kept, self._kept = self._kept, ("needs a new train-mode forward; an "
                                        "earlier backward consumed its state")
        return kept

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def grads(self) -> dict[str, np.ndarray]:
        return {}

    def buffers(self) -> dict[str, np.ndarray]:
        """Non-trainable state that still belongs in a saved model."""
        return {}

    def zero_grad(self) -> None:
        for g in self.grads().values():
            g.fill(0)

    def param_count(self) -> int:
        """Parameter and buffer sizes: BatchNorm counts its moving stats too."""
        arrays = [*self.params().values(), *self.buffers().values()]
        return sum(a.size for a in arrays)


class Embedding(Layer):
    """Token-id lookup table of shape (vocab_size, embed_dim)."""

    def __init__(self, vocab_size, embed_dim, rng, dtype=np.float32):
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.weight = uniform(rng, 0.05, (vocab_size, embed_dim), dtype)
        self.d_weight = zeros(self.weight.shape, dtype)

    def forward(self, ids: np.ndarray, mode: str = "train", rng=None) -> np.ndarray:
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise ValueError(f"token id out of range for vocab of {self.vocab_size}")
        self._keep(mode, ids)
        return self.weight[ids]

    def backward(self, grad: np.ndarray) -> None:
        (ids,) = self._take()
        # scatter-add: rows referenced several times accumulate
        ids, rows = ids.reshape(-1), grad.reshape(-1, self.embed_dim)
        if not scatter_add(self.d_weight, ids, rows):
            np.add.at(self.d_weight, ids, rows)
        return None

    def params(self):
        return {"weight": self.weight}

    def grads(self):
        return {"weight": self.d_weight}


class Dropout(Layer):
    """Inverted dropout: train mode rescales survivors by 1/(1-rate)."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x: np.ndarray, mode: str = "train", rng=None) -> np.ndarray:
        mask = None
        if mode == "train" and self.rate > 0.0:
            if rng is None:
                raise ValueError("Dropout.forward in train mode needs an rng to "
                                 "draw its mask")
            keep = rng.random(x.shape) >= self.rate
            mask = keep.astype(x.dtype) / (1.0 - self.rate)
        self._keep(mode, mask)
        return x if mask is None else x * mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        (mask,) = self._take()
        return grad if mask is None else grad * mask


class GruCell(Layer):
    """One direction's parameters (reset-after, separate biases).

    W: (x_dim, 3h) input kernel, U: (h, 3h) recurrent kernel,
    b_x / b_h: (3h,) input and recurrent biases. :class:`GruSequence` runs
    the recurrence over one cell or two.
    """

    def __init__(self, input_dim, hidden_size, rng, dtype=np.float32):
        h = hidden_size
        self.input_dim = input_dim
        self.hidden_size = h
        self.W = glorot_uniform(rng, (input_dim, 3 * h), dtype)
        self.U = np.concatenate([orthogonal(rng, h, dtype) for _ in range(3)], axis=1,
                                out=zeros((h, 3 * h), dtype))
        self.b_x, self.b_h, self.db_x, self.db_h = (zeros(3 * h, dtype) for _ in range(4))
        self.dW = zeros(self.W.shape, dtype)
        self.dU = zeros(self.U.shape, dtype)

    def input_projection(self, x: np.ndarray) -> np.ndarray:
        """x W + b_x for (rows, x_dim) input: the gate pre-activations that do
        not depend on the recurrent state."""
        gx = matmul(x, self.W)
        gx += self.b_x
        return gx

    def params(self):
        return {"W": self.W, "U": self.U, "b_x": self.b_x, "b_h": self.b_h}

    def grads(self):
        return {"W": self.dW, "U": self.dU, "b_x": self.db_x, "b_h": self.db_h}


class GruSequence(Layer):
    """A GRU layer of one cell, or a bidirectional layer of two, with full
    backpropagation through time.

    The first cell runs over the (B, T, x_dim) input in time order, a second
    one over ``x[:, ::-1]``. The output is the (B, T, D*h) states, or the
    (B, D*h) final states without ``return_sequences``, the cells'
    concatenated on features: the second cell's states are re-reversed to
    align with time, and its final state is the one aligned with t = 0.
    ``backward`` takes that output's gradient, rejecting any other shape, and
    returns the gradient at ``x``. Two cells name their parameters ``fwd.*``
    and ``bwd.*``. Every state starts at zero, and every step computes in the
    dtype the cells share; an input of another dtype is rejected.

    Each cell runs its own time loop over arrays of its own. Below
    SPLIT_ROWS rows the cells run one after the other on the calling thread;
    from SPLIT_ROWS rows two cells run at once, the first on the calling
    thread and the second on a worker thread, started for the call and
    joined before it returns, while the kernel calls release the GIL. The
    plan depends on D and B alone, and no bit depends on it.

    A float32 cell on the compiled kernel runs its whole forward loop as
    one call, ``numerics.gru_forward``, given bound ``numerics.UFUNC_LOOPS``,
    and its whole backward loop as one call, ``numerics.gru_backward``, both
    with the GIL released, so the cells of a split call overlap completely.
    They make the float32 operations of :meth:`_step` and
    :meth:`_step_backward` in the same order (``matmul.c`` states it), the
    forward calling numpy's own float32 loops of ``np.exp`` and ``np.tanh``,
    which raise no numpy floating-point warning when called so; they write
    the states, caches, ``dx`` and gradients in place. Float64,
    ``numerics.KERNEL == "einsum"`` and, for the forward, unbound loops step
    in numpy, projecting each step's input and making each step's ``dx`` on
    its own.

    The forward call projects ``x W + b_x`` itself, in time chunks of at
    most 1,024 rows, so its scratch does not grow with T; the backward call
    writes each step's ``dx``. matmul rows do not depend on which rows share
    the call, so the chunks give the bits of a per-step product. Parameter
    gradients accumulate per cell in step order, from t = T-1 down to 0 in
    backward.

    A train-mode forward keeps the output's shape and per-cell lists of
    inputs and caches: ``h_prev``, ``z|r``, ``c`` and the recurrent candidate
    ``hc``, 5h values per row, in four C-contiguous (T, B, .) blocks per
    cell. Each cell clears its entries when it starts its backward loop, so
    the memory is back when its loop returns, before the layers below run
    their backward.

    The calling thread allocates every array that outlives a call (states,
    cache blocks, the cell's output gradient, ``dx``) before it starts the
    cells. The compiled calls' scratch (the projection chunk, the step's
    ``d_gx``, the packed weights) is each call's own, on the thread that
    runs the cell, freed before the call returns, and the worker's malloc
    arena keeps at most the numpy loop's per-step temporaries. Between calls
    the sequence holds only its cells and the state a train forward kept.
    """

    def __init__(self, cells, return_sequences: bool):
        self.cells = (cells,) if isinstance(cells, GruCell) else tuple(cells)
        if len(self.cells) not in (1, 2):
            raise ValueError(f"expected one or two cells, got {len(self.cells)}")
        if len({cell.hidden_size for cell in self.cells}) != 1:
            raise ValueError("all cells must share the hidden size")
        dtypes = {a.dtype for cell in self.cells for a in cell.params().values()}
        if len(dtypes) != 1:
            raise ValueError("all cells must share one dtype")
        (self.dtype,) = dtypes
        self.hidden_size = self.cells[0].hidden_size
        self.return_sequences = return_sequences

    def forward(self, x: np.ndarray, mode: str = "train", rng=None) -> np.ndarray:
        B, T, x_dim = x.shape
        if B == 0 or T == 0:
            raise ValueError(f"batch size and sequence length must be >= 1, "
                             f"got input of shape {x.shape}")
        if x.dtype != self.dtype:
            raise ValueError(f"input dtype {x.dtype} differs from the cells' "
                             f"{self.dtype}")
        wrong = [cell.input_dim for cell in self.cells if cell.input_dim != x_dim]
        if wrong:
            raise ValueError(f"input width {x_dim} differs from the cells' {wrong[0]}")
        D, h, dtype = len(self.cells), self.hidden_size, self.dtype
        xs = [x, x[:, ::-1]][:D]
        shape = (B, T, D * h) if self.return_sequences else (B, D * h)
        # kept before the loop fills it, so a kept earlier forward's blocks
        # are freed before this one's are allocated
        caches = []
        self._keep(mode, shape, xs, caches)
        calls = []
        for cell, xd in zip(self.cells, xs):
            caches.append(tuple(np.empty((T, B, w * h), dtype) for w in (1, 2, 1, 1))
                          if mode == "train" else None)
            states = np.empty((B, T, h), dtype) if self.return_sequences else None
            calls.append(partial(self._forward_cell, cell, xd, np.zeros((B, h), dtype),
                                 states, caches[-1]))
        outs = _run_each(calls, B >= SPLIT_ROWS)
        if D == 1:
            return outs[0]
        return np.concatenate([outs[0], self._in_time_order(outs[1])], axis=-1)

    def _in_time_order(self, a):
        """The second cell's states, or their gradient, aligned with time:
        reversed when they are per step, as is for a final state."""
        return a[:, ::-1] if self.return_sequences else a

    def _forward_cell(self, cell, x, ht, states, caches):
        """``cell``'s time loop over its input ``x``; returns its (B, T, h)
        states or (B, h) final state. The loop is one compiled call, which
        projects the input itself, where ``numerics.gru_forward`` takes it;
        else the cell steps in numpy, projecting each step's input."""
        if not gru_forward(x, cell, ht, states, caches):
            for t in range(x.shape[1]):
                slots = None if caches is None else [block[t] for block in caches]
                ht = self._step(cell.input_projection(x[:, t]), ht, cell.U, cell.b_h, slots)
                if states is not None:
                    states[:, t] = ht
        return ht if states is None else states

    @staticmethod
    def _step(gx, h_prev, U, b_h, slots=None):
        """One timestep of a cell from its (B, 3h) input projection ``gx`` and
        (B, h) state ``h_prev``; returns h_t. In train mode it also writes
        what backward reads into ``slots``, the step's (h_prev, z|r, c, hc)
        cache rows."""
        h = h_prev.shape[-1]
        gh = matmul(h_prev, U) + b_h
        zr = sigmoid(gx[:, :2 * h] + gh[:, :2 * h])
        z, r = zr[:, :h], zr[:, h:]
        hc = gh[:, 2 * h:]                       # recurrent candidate, pre reset
        c = np.tanh(gx[:, 2 * h:] + r * hc)
        if slots is not None:
            for slot, a in zip(slots, (h_prev, zr, c, hc)):
                slot[...] = a
        return z * h_prev + (1.0 - z) * c

    @staticmethod
    def _step_backward(dh, caches, t, cell, x):
        """Backprop step ``t`` of ``cell`` over its input ``x``; returns
        (d_gx, dh_prev).

        d_gx is the gradient at the input projection; backward turns it into
        dx = d_gx W^T. This is the reference that ``numerics.gru_backward``
        follows operation for operation.
        """
        h_prev, zr, c, hc = (block[t] for block in caches)
        h = dh.shape[-1]
        z, r = zr[:, :h], zr[:, h:]
        dzr = np.empty_like(zr)                  # [dz | dr], laid out as zr
        np.multiply(dh, h_prev - c, out=dzr[:, :h])
        dc = dh * (1.0 - z)
        ds_c = dc * (1.0 - c * c)                # at tanh input
        np.multiply(ds_c, hc, out=dzr[:, h:])
        dhc = ds_c * r
        ds_zr = dzr * zr * (1.0 - zr)            # at the sigmoid input
        d_gx = np.concatenate([ds_zr, ds_c], axis=-1)
        d_gh = np.concatenate([ds_zr, dhc], axis=-1)
        cell.dW += matmul(x[:, t].T, d_gx)
        cell.db_x += d_gx.sum(axis=0)
        cell.dU += matmul(h_prev.T, d_gh)
        cell.db_h += d_gh.sum(axis=0)
        return d_gx, dh * z + matmul(d_gh, cell.U.T)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """grad has the forward output's shape and the cells' dtype; returns
        the gradient at the (B, T, x_dim) input."""
        if grad.dtype != self.dtype:
            raise ValueError(f"gradient dtype {grad.dtype} differs from the cells' "
                             f"{self.dtype}")
        if not isinstance(self._kept, str) and grad.shape != self._kept[0]:
            raise ValueError(f"gradient of shape {grad.shape} for an output of shape "
                             f"{self._kept[0]}")
        _, xs, caches = self._take()
        h, B = self.hidden_size, len(grad)
        grads = (grad[..., :h], self._in_time_order(grad[..., h:]))
        calls = [partial(self._backward_cell, cell, xs, caches, j, grads[j].copy(),
                         np.zeros((B, h), self.dtype), np.empty(xs[j].shape, self.dtype))
                 for j, cell in enumerate(self.cells)]
        dxs = _run_each(calls, B >= SPLIT_ROWS)
        if len(dxs) == 2:
            dxs[0] += dxs[1][:, ::-1]
        return dxs[0]

    def _backward_cell(self, cell, xs, caches, j, grad, carry, dx):
        """The backward time loop of ``cell``, the ``j``-th: clears its
        entries in the kept ``xs`` and ``caches``, writes its input gradient
        into ``dx`` and returns it. The loop is one compiled call where
        ``numerics.gru_backward`` takes it, else the cell steps in numpy."""
        x, blocks = xs[j], caches[j]
        xs[j] = caches[j] = None
        if not gru_backward(x, blocks, grad, carry, dx, cell):
            T = x.shape[1]
            for t in range(T - 1, -1, -1):
                if self.return_sequences:
                    dh = carry + grad[:, t]
                else:
                    dh = (carry + grad) if t == T - 1 else carry
                d_gx, carry = self._step_backward(dh, blocks, t, cell, x)
                dx[:, t] = matmul(d_gx, cell.W.T)
        return dx

    def params(self):
        return self._named(GruCell.params)

    def grads(self):
        return self._named(GruCell.grads)

    def _named(self, arrays) -> dict[str, np.ndarray]:
        """``arrays(cell)`` of the one cell, or of both under fwd.* and bwd.*."""
        if len(self.cells) == 1:
            return arrays(self.cells[0])
        return {f"{name}.{k}": v for name, cell in zip(("fwd", "bwd"), self.cells)
                for k, v in arrays(cell).items()}


def gru_sequence_forward(cell: GruCell, x: np.ndarray,
                         return_sequences: bool = True) -> np.ndarray:
    """Forward-only unroll of a cell over a (B, T, x_dim) input."""
    return GruSequence(cell, return_sequences).forward(x, "infer")


# Batch rows from which a two-cell sequence runs its cells on two threads.
# Below it, handing a direction to another thread costs more than the thread
# saves. With the compiled kernel (AVX-512), its one-call GRU forward and its
# one-call backward on a 2-vCPU Xeon, in-process, paper-size ops (an infer
# forward; a train forward, loss and backward), two threads against one
# running the cells in turn: median speed ratio and two-thread wins over 10
# alternating pairs per batch, each run the median of 3 ops, in each of two
# processes.
#   B            16          24          32          40          48          64
#   infer  1  1.57 10/10  1.62 10/10  1.63 10/10  1.56  9/10  1.69 10/10  1.61 10/10
#          2  1.56 10/10  1.64 10/10  1.62 10/10  1.71 10/10  1.49  9/10  1.72 10/10
#   train  1  1.57 10/10  1.60 10/10  1.58 10/10  1.61 10/10  1.57 10/10  1.67 10/10
#          2  1.57 10/10  1.40  8/10  1.54 10/10  1.43 10/10  1.42 10/10  1.53 10/10
# Batch 16 won 10 of 10 pairs in both modes and both processes, so the
# crossover is 16, down from 48 while the forward held the GIL per step.
# Below the measured range one process read infer 0.84 (4/10) at batch 1,
# 1.22 (9/10) at 4 and 1.41 (9/10) at 8, and train 1.25 (9/10) at 4.
# The crossover assumes the bound UFUNC_LOOPS. A float32 forward without
# them steps in numpy, holding the GIL per step, and there two threads read
# infer 0.59 (0/6) at batch 16 and 0.74 (0/6) at 32, train 0.81 (2/6) and
# 1.14 (4/6), over 6 pairs in one process. float64 steps in numpy too but
# won with two threads there: infer 1.42 (5/6) and 1.80 (6/6), train 1.34
# and 1.33 (6/6), against a loop that stepped both cells in lockstep, with
# half the numpy calls of two cells in turn. So the constant does not depend
# on the loops: CI fails where they do not bind, and float64 keeps its gain.
SPLIT_ROWS = 16


def _run_each(calls, split: bool):
    """Call each of ``calls`` in order on this thread and return their
    results; with ``split``, the second, if any, runs on a thread started
    for this call and joined before it returns, while the first runs here.
    An exception from either propagates once both are done. The thread runs
    in a copy of the caller's context, so the caller's ``np.errstate`` holds
    on both."""
    if not split or len(calls) == 1:
        return [call() for call in calls]
    here, there = calls
    second, error, context = [], [], contextvars.copy_context()

    def work():
        try:
            second.append(context.run(there))
        except BaseException as exc:
            error.append(exc)

    worker = threading.Thread(target=work, name="sentigru-gru")
    worker.start()
    try:
        first = here()
    finally:
        worker.join()
    if error:
        raise error[0]
    return [first, second[0]]


class BidirectionalGru(GruSequence):
    """The paper's bidirectional layer: a two-cell :class:`GruSequence`, its
    forward cell over t = 0..T-1 and its backward cell over t = T-1..0."""

    def __init__(self, forward_cell: GruCell, backward_cell: GruCell,
                 return_sequences: bool):
        super().__init__((forward_cell, backward_cell), return_sequences)


class BatchNorm(Layer):
    """Per-channel normalization over all leading dims of (..., C) input.

    A train forward keeps its input, mean and ``inv_std``; backward makes
    ``xc`` and ``xn`` again with the forward's operations, so the same bits.
    On the kernel a float32 layer's (N, C) passes are compiled (see
    ``numerics.batch_norm_stats``, ``batch_norm_apply`` and
    ``batch_norm_backward``) with the bits of the numpy expressions here,
    which stay the reference."""

    momentum = 0.9              # weight of the old moving statistics
    epsilon = 1e-5              # added to the variance before its root

    def __init__(self, channels, dtype=np.float32):
        self.channels = channels
        (self.gamma, self.beta, self.moving_mean, self.moving_var, self.d_gamma,
         self.d_beta) = (zeros(channels, dtype) for _ in range(6))
        self.gamma += 1
        self.moving_var += 1

    def forward(self, x: np.ndarray, mode: str = "train", rng=None) -> np.ndarray:
        if x.shape[-1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape[-1]}")
        shape = x.shape
        flat = x.reshape(-1, self.channels)
        if mode == "train":
            if flat.shape[0] < 2:
                raise ValueError("batch norm needs at least 2 samples in train mode")
            stats = batch_norm_stats(flat)
            mean, var = stats or (flat.mean(axis=0), flat.var(axis=0))    # biased
            self.moving_mean *= self.momentum
            self.moving_mean += (1.0 - self.momentum) * mean
            self.moving_var *= self.momentum
            self.moving_var += (1.0 - self.momentum) * var
        else:
            mean = self.moving_mean
            var = self.moving_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        self._keep(mode, flat, mean, inv_std)
        out = batch_norm_apply(flat, mean, inv_std, self.gamma, self.beta)
        if out is None:
            out = self.gamma * ((flat - mean) * inv_std) + self.beta
        return out.reshape(shape)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        flat, mean, inv_std = self._take()
        shape = grad.shape
        d = grad.reshape(-1, self.channels)
        dx = batch_norm_backward(d, flat, mean, inv_std, self.gamma, self.d_gamma,
                                 self.d_beta)
        if dx is None:
            n = d.shape[0]
            xc = flat - mean
            xn = xc * inv_std
            self.d_gamma += (d * xn).sum(axis=0)
            self.d_beta += d.sum(axis=0)
            dxn = d * self.gamma
            dvar = (dxn * xc * -0.5 * inv_std ** 3).sum(axis=0)
            dmean = (-dxn * inv_std).sum(axis=0) + dvar * (-2.0 * xc).mean(axis=0)
            dx = dxn * inv_std + dvar * 2.0 * xc / n + dmean / n
        return dx.reshape(shape)

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def grads(self):
        return {"gamma": self.d_gamma, "beta": self.d_beta}

    def buffers(self):
        return {"moving_mean": self.moving_mean, "moving_var": self.moving_var}


class Dense(Layer):
    """Affine map x W + b with no activation; softmax lives in the loss head."""

    def __init__(self, in_dim, out_dim, rng, dtype=np.float32):
        self.W = glorot_uniform(rng, (in_dim, out_dim), dtype)
        self.b, self.db = zeros(out_dim, dtype), zeros(out_dim, dtype)
        self.dW = zeros(self.W.shape, dtype)

    def forward(self, x: np.ndarray, mode: str = "train", rng=None) -> np.ndarray:
        self._keep(mode, x)
        return matmul(x, self.W) + self.b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        (x,) = self._take()
        self.dW += matmul(x.T, grad)
        self.db += grad.sum(axis=0)
        return matmul(grad, self.W.T)

    def params(self):
        return {"W": self.W, "b": self.b}

    def grads(self):
        return {"W": self.dW, "b": self.db}


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of softmax(logits) against integer labels.

    Returns (loss, dlogits) where dlogits = (softmax - onehot) / B, computed
    with log-sum-exp stabilization. ``labels`` holds one code per row:
    shape (B,).
    """
    B, K = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (B,):
        raise ValueError(f"labels of shape {labels.shape} for {B} rows of logits")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= K:
        raise ValueError(f"label out of range for {K} classes")
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    logp = logits - lse
    loss = float(-logp[np.arange(B), labels].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B
    return loss, dlogits
