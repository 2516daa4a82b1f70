"""Forward and backward passes for every layer in the classifier stack.

Every stack layer has ``forward(x, mode="train", rng=None)`` with mode
"train" or "infer" (only dropout draws from ``rng``; :func:`check_mode`
rejects any other mode), ``backward(grad)`` returning the gradient at the
layer input (None for the embedding). The model runs the stack as one loop
over these. ``param_count`` is generic: the sizes of params() and buffers().

Constructors draw initial weights from ``rng``. With ``rng=None`` they draw
nothing and every weight starts at zero: that is how a model is built to be
loaded. Such parameters, and every gradient buffer, come from ``np.zeros``,
whose pages stay untouched until written: a model that only infers never
makes its gradients resident.

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
(:class:`BidirectionalGru` builds it from a forward and a backward cell). It
takes the layer input once, starts every state at zero and computes in its
cells' dtype. On the compiled kernel a float32 cell's whole time loop is one
call. Where the loop steps in numpy instead, a single time loop steps both
directions in lockstep, so a bidirectional layer makes one gate operation per
step for both directions instead of one each. At batch 1 the per-call
overhead of numpy outweighs the arithmetic, so halving the calls is what
speeds up that loop; the bits stay those of one direction at a time.
Input projections are computed in time chunks of about ``ROWS`` rows into
one buffer per call rather than for the whole sequence at once, so holding
both directions does not raise peak memory at large batches.

From ``SPLIT_ROWS`` rows up, whatever the CPU count, a two-cell sequence
instead runs each cell's time loop at once, one of them on a thread started
for that forward or backward call and joined before it returns. It is the
only thread the package starts, and none outlives the call that started it;
it makes the same float operations, so no bit depends on the batch choosing it.
"""

import contextvars
import threading
from functools import partial

import numpy as np

from .numerics import (batch_norm_apply, batch_norm_backward, batch_norm_stats,
                       gru_backward, gru_forward, gru_forward_workspace, gru_workspace,
                       matmul, scatter_add, sigmoid)


def uniform(rng, limit, shape, dtype) -> np.ndarray:
    """U(-limit, limit) draws cast to ``dtype``; zeros when ``rng`` is None."""
    if rng is None:
        return np.zeros(shape, dtype)
    return rng.uniform(-limit, limit, shape).astype(dtype)


def glorot_uniform(rng, shape, dtype) -> np.ndarray:
    fan_in, fan_out = shape
    return uniform(rng, np.sqrt(6.0 / (fan_in + fan_out)), shape, dtype)


def orthogonal(rng, n: int, dtype) -> np.ndarray:
    """Orthogonal n x n matrix from QR of a gaussian draw, sign-fixed; zeros
    when ``rng`` is None."""
    if rng is None:
        return np.zeros((n, n), dtype)
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    return q.astype(dtype)


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
        self.d_weight = np.zeros(self.weight.shape, dtype)

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


# Input rows projected per time chunk: the projection buffer holds about
# ROWS * D * 3h values at any batch size, and batch 1 still projects a
# whole sequence in one call per direction.
ROWS = 1024


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
        self.U = np.hstack([orthogonal(rng, h, dtype) for _ in range(3)])
        self.b_x = np.zeros(3 * h, dtype=dtype)
        self.b_h = np.zeros(3 * h, dtype=dtype)
        self.dW = np.zeros(self.W.shape, dtype)
        self.dU = np.zeros(self.U.shape, dtype)
        self.db_x = np.zeros(3 * h, dtype)
        self.db_h = np.zeros(3 * h, dtype)

    def input_projection(self, x: np.ndarray) -> np.ndarray:
        """x W + b_x for (rows, x_dim) input: the gate pre-activations that do
        not depend on the recurrent state, so many timesteps can share one call."""
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
    ``backward`` takes that output's gradient and returns the gradient at
    ``x``. Two cells name their parameters ``fwd.*`` and ``bwd.*``. Every
    state starts at zero, and every step computes in the dtype the cells
    share; an input of another dtype is rejected.

    The cells run in parts, each a slice of the cells with its own time loop.
    A step runs every gate operation once over the part's (n, B, .) arrays;
    the recurrent product is one stacked matmul, whose [d] slices equal the
    per-cell products bit for bit. One part holds every cell, except that two
    cells with at least SPLIT_ROWS rows run as one part each at once: the
    first on the calling thread, the second on a worker thread, started for
    the call and joined before it returns, while the kernel calls release the
    GIL. The plan depends on D and B alone, and no bit depends on it.

    A float32 forward on the compiled kernel, with ``numerics.UFUNC_LOOPS``
    bound, runs each cell's time loop over a projection chunk (the whole
    sequence up to ROWS rows) as one call, ``numerics.gru_forward``, with the
    GIL released, so the parts of a split forward overlap completely. It
    makes the float32 operations of :meth:`_step` in the same order: ``gh =
    h_prev U + b_h`` with U's product in matmul's order, the gates
    ``sigmoid(gx + gh)`` as ``numerics.sigmoid`` composes it, ``c =
    tanh(gx_c + r hc)`` and ``h = z h_prev + (1 - z) c``, calling numpy's own
    float32 loops of ``np.exp`` and ``np.tanh``. It writes the states and
    the cache blocks in place. Called so, those loops raise no numpy
    floating-point warning. Float64, ``numerics.KERNEL == "einsum"`` and
    unbound loops step in numpy; its scratch is allocated per call, like
    every other buffer.

    A float32 backward on the compiled kernel runs each cell's whole time
    loop as one call, ``numerics.gru_backward``, with the GIL released, so
    the parts of a split backward overlap completely. It makes the numpy
    loop's float32 operations in the same order: per step ``dh = carry +
    grad``, the gate algebra of :meth:`_step_backward`, ``dh_prev = dh z``
    plus the rounded product ``d_gh U^T``, and each parameter gradient plus
    the step's rounded product or batch sum, the bias sums taken in order
    from +0.0. Float64, and ``numerics.KERNEL == "einsum"``, step in numpy.

    ``x W + b_x`` is projected in time chunks of C = ROWS // B steps into one
    (n, B, C, 3h) buffer per part and call, so peak memory does not grow with T
    or D; ``dx`` is one matmul per cell after the backward loop.
    matmul rows do not depend on which rows share the call, so both give the
    bits of a per-step product. Parameter gradients accumulate per cell in
    step order, from t = T-1 down to 0 in backward.

    A train-mode forward keeps its parts and per-part lists of inputs and
    caches: ``h_prev``, ``z|r``, ``c`` and the recurrent candidate ``hc``, 5h
    values per row, in four (T, n, B, .) blocks per part. Each part clears
    its entries when its backward loop is done, before its ``dx`` products,
    so the memory is back before the layers below run their backward.

    The calling thread allocates every array a part keeps past one step
    (projection buffer, states, cache blocks, ``d_gx``, the compiled
    forward's and backward's workspaces) before it starts the parts, so the
    worker's malloc arena keeps only per-step temporaries. Each part has blocks of its own:
    one block sliced between the parts lives until both are done with it, and
    measured a higher peak RSS in training.

    Between calls the sequence holds only its cells, the state a train
    forward kept, and ``_U``, the stacked U that every forward stepping in
    numpy refills from the cells: forwards on several threads at once write
    the same bytes into it, provided no thread changes the parameters
    meanwhile. Every other buffer is allocated per call.
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
        self.hidden_size = h = self.cells[0].hidden_size
        self.return_sequences = return_sequences
        self._U = np.empty((len(self.cells), h, 3 * h), self.dtype)

    def forward(self, x: np.ndarray, mode: str = "train", rng=None) -> np.ndarray:
        B, T, _ = x.shape
        if B == 0 or T == 0:
            raise ValueError(f"batch size and sequence length must be >= 1, "
                             f"got input of shape {x.shape}")
        if x.dtype != self.dtype:
            raise ValueError(f"input dtype {x.dtype} differs from the cells' "
                             f"{self.dtype}")
        D, h, dtype = len(self.cells), self.hidden_size, self.dtype
        xs = (x, x[:, ::-1])[:D]
        C = max(1, min(T, ROWS // B))
        parts = ([slice(0, 1), slice(1, 2)] if D == 2 and B >= SPLIT_ROWS
                 else [slice(0, D)])
        # kept before the loop fills it, so a kept earlier forward's blocks
        # are freed before this one's are allocated
        caches = []
        self._keep(mode, parts, [xs[ds] for ds in parts], caches)
        calls = []
        for i, ds in enumerate(parts):
            n = ds.stop - ds.start
            gx = np.empty((n, B, C, 3 * h), dtype)
            states = np.empty((n, B, T, h), dtype) if self.return_sequences else None
            caches.append(tuple(np.empty((T, n, B, w * h), dtype) for w in (1, 2, 1, 1))
                          if mode == "train" else None)
            work = gru_forward_workspace(self.cells[ds], B)
            U = b_h = None                       # read by the numpy loop alone
            if work is None:
                U = np.stack([cell.U for cell in self.cells[ds]], out=self._U[ds])
                b_h = np.stack([cell.b_h for cell in self.cells[ds]])[:, None, :]
            calls.append(partial(self._forward_part, list(zip(self.cells[ds], xs[ds])),
                                 U, b_h, np.zeros((n, B, h), dtype), gx, states,
                                 caches[i], work))
        outs = [out for part in _run_each(calls) for out in part]
        if D == 1:
            return outs[0]
        return np.concatenate([outs[0], self._in_time_order(outs[1])], axis=-1)

    def _in_time_order(self, a):
        """The second cell's states, or their gradient, aligned with time:
        reversed when they are per step, as is for a final state."""
        return a[:, ::-1] if self.return_sequences else a

    def _forward_part(self, pairs, U, b_h, ht, gx, states, caches, work):
        """The time loop over one part's (cell, input) pairs; returns its
        (n, B, T, h) states or (n, B, h) final state. With a ``work`` array
        each cell's loop over a projection chunk is one compiled call, else
        the part steps in numpy with the stacked ``U`` and ``b_h``."""
        B, T, x_dim = pairs[0][1].shape
        C = gx.shape[2]
        for t0 in range(0, T, C):
            c = min(C, T - t0)
            for j, (cell, xd) in enumerate(pairs):
                rows = xd[:, t0:t0 + c].reshape(B * c, x_dim)
                gx[j, :, :c] = cell.input_projection(rows).reshape(B, c, -1)
            if work is not None:
                for j, (cell, _) in enumerate(pairs):
                    gru_forward(gx[j, :, :c], cell, ht[j],
                                None if states is None else states[j, :, t0:t0 + c],
                                None if caches is None else
                                [block[t0:t0 + c, j] for block in caches], work)
                continue
            for k in range(c):
                t = t0 + k
                slots = None if caches is None else [block[t] for block in caches]
                ht = self._step(gx[:, :, k], ht, U, b_h, slots)
                if states is not None:
                    states[:, :, t] = ht
        return ht if states is None else states

    @staticmethod
    def _step(gx, h_prev, U, b_h, slots=None):
        """One timestep of every direction from its input projection ``gx``;
        all arrays are stacked (n, B, .), ``U`` is (n, h, 3h). Returns h_t;
        in train mode it also writes what backward reads into ``slots``,
        the step's (h_prev, z|r, c, hc) cache slices."""
        h = h_prev.shape[-1]
        gh = matmul(h_prev, U) + b_h
        zr = sigmoid(gx[..., :2 * h] + gh[..., :2 * h])
        z, r = zr[..., :h], zr[..., h:]
        hc = gh[..., 2 * h:]                     # recurrent candidate, pre reset
        c = np.tanh(gx[..., 2 * h:] + r * hc)
        if slots is not None:
            for slot, a in zip(slots, (h_prev, zr, c, hc)):
                slot[...] = a
        return z * h_prev + (1.0 - z) * c

    @staticmethod
    def _step_backward(dh, caches, t, pairs):
        """Backprop step ``t`` of one part; returns (d_gx, dh_prev).

        The gate algebra runs once over the part's stack. Each cell's
        parameter gradients and its share of dh_prev are 2-d matmuls. d_gx is
        the gradient at the input projection; backward turns it into
        dx = d_gx W^T. This is the reference that ``numerics.gru_backward``
        follows operation for operation.
        """
        h_prev, zr, c, hc = (block[t] for block in caches)
        h = dh.shape[-1]
        z, r = zr[..., :h], zr[..., h:]
        dzr = np.empty_like(zr)                  # [dz | dr], laid out as zr
        np.multiply(dh, h_prev - c, out=dzr[..., :h])
        dc = dh * (1.0 - z)
        ds_c = dc * (1.0 - c * c)                # at tanh input
        np.multiply(ds_c, hc, out=dzr[..., h:])
        dhc = ds_c * r
        ds_zr = dzr * zr * (1.0 - zr)            # at the sigmoid input
        d_gx = np.concatenate([ds_zr, ds_c], axis=-1)
        d_gh = np.concatenate([ds_zr, dhc], axis=-1)
        dh_prev = dh * z
        for d, (cell, xd) in enumerate(pairs):
            cell.dW += matmul(xd[:, t].T, d_gx[d])
            cell.db_x += d_gx[d].sum(axis=0)
            cell.dU += matmul(h_prev[d].T, d_gh[d])
            cell.db_h += d_gh[d].sum(axis=0)
            dh_prev[d] += matmul(d_gh[d], cell.U.T)
        return d_gx, dh_prev

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """grad is shaped like the forward output, in the cells' dtype;
        returns the gradient at the (B, T, x_dim) input."""
        if grad.dtype != self.dtype:
            raise ValueError(f"gradient dtype {grad.dtype} differs from the cells' "
                             f"{self.dtype}")
        parts, xs, caches = self._take()
        D, h = len(self.cells), self.hidden_size
        B, T, _ = xs[0][0].shape
        grad = np.stack([grad[..., :h], self._in_time_order(grad[..., h:])][:D])
        carry = np.zeros((D, B, h), dtype=grad.dtype)
        calls = [partial(self._backward_part, self.cells[ds], xs, caches, i, grad[ds],
                         carry[ds], np.empty((len(xs[i]), B, T, 3 * h), grad.dtype),
                         gru_workspace(xs[i][0], self.cells[ds]))
                 for i, ds in enumerate(parts)]
        dxs = [dx for part in _run_each(calls) for dx in part]
        if D == 2:
            dxs[0] += dxs[1][:, ::-1]
        return dxs[0]

    def _backward_part(self, cells, xs, caches, i, grad, carry, d_gx, work):
        """The backward time loop over part ``i``, of ``cells``; clears the
        part's entries in the kept ``xs`` and ``caches``, then returns its
        input gradients. With a ``work`` array each cell's loop is one
        compiled call, else the part steps in numpy."""
        pairs, blocks = list(zip(cells, xs[i])), caches[i]
        xs[i] = caches[i] = None
        B, T, x_dim = pairs[0][1].shape
        if work is not None:
            for j, (cell, xd) in enumerate(pairs):
                gru_backward(xd, [block[:, j] for block in blocks], grad[j], carry[j],
                             d_gx[j], cell, work)
        else:
            for t in range(T - 1, -1, -1):
                if self.return_sequences:
                    dh = carry + grad[:, :, t]
                else:
                    dh = (carry + grad) if t == T - 1 else carry
                d_gx[:, :, t], carry = self._step_backward(dh, blocks, t, pairs)
        del pairs, blocks                   # their memory is back before dx
        return [matmul(d_gx[j].reshape(B * T, -1), cell.W.T).reshape(B, T, x_dim)
                for j, cell in enumerate(cells)]

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
# forward; a train forward, loss and backward), two threads against the one
# loop: median speed ratio and two-thread wins over 10 alternating pairs per
# batch, each run the median of 3 ops, in each of two processes.
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
# and 1.33 (6/6). So the constant does not depend on the loops: CI fails
# where they do not bind, and float64 keeps its gain.
SPLIT_ROWS = 16


def _run_each(calls):
    """Call the first of ``calls`` on this thread and the second, if any, on
    a thread started for this call and joined before it returns; returns
    their results in order. An exception from either propagates once both
    are done. The thread runs in a copy of the caller's context, so the
    caller's ``np.errstate`` holds on both."""
    if len(calls) == 1:
        return [calls[0]()]
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
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.moving_mean = np.zeros(channels, dtype=dtype)
        self.moving_var = np.ones(channels, dtype=dtype)
        self.d_gamma = np.zeros(channels, dtype)
        self.d_beta = np.zeros(channels, dtype)

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
        self.b = np.zeros(out_dim, dtype=dtype)
        self.dW = np.zeros(self.W.shape, dtype)
        self.db = np.zeros(out_dim, dtype)

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
