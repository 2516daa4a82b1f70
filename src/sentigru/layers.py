"""Forward and backward passes for every layer in the classifier stack.

Every stack layer has ``forward(x, mode="train", rng=None)`` with mode
"train" or "infer" (only dropout draws from ``rng``), ``backward(grad)``
returning the gradient at the layer input (None for the embedding). The
model runs the stack as one loop over these. ``param_count`` is generic:
the sizes of params() and buffers().

Constructors draw initial weights from ``rng``. With ``rng=None`` they draw
nothing and every weight starts at zero: that is how a model is built to be
loaded. Such parameters, and every gradient buffer, come from ``np.zeros``,
whose pages stay untouched until written: a model that only infers never
makes its gradients resident.

Layers cache whatever the backward pass needs on ``self`` during forward and
accumulate parameter gradients in place; callers own zeroing between steps.
The GRU layers keep per-step caches only in a train-mode forward, and only
what backward reads: ``h_prev``, the ``z|r`` gates, ``c`` and the recurrent
candidate ``hc``, 5h values per row, in four blocks over all steps. Backward
frees them when it is done, so one train forward allows one backward.
The GRU uses the reset-after formulation with separate input and recurrent
biases, so each direction carries 3h(x + h + 2) parameters. Gate blocks are
laid out [update | reset | candidate] along the 3h axis.

:class:`GruSequence` is the one recurrence: a single time loop that steps D
stacked directions in lockstep, so a bidirectional layer makes one gate
operation per step for both directions instead of one each. At batch 1 the
per-call overhead of numpy outweighs the arithmetic, so halving the calls is
what speeds up inference; the bits stay those of one direction at a time.
Input projections are computed in time chunks of about ``ROWS`` rows into
one reused buffer rather than for the whole sequence at once, so holding
both directions does not raise peak memory at large batches.

From ``SPLIT_ROWS`` rows up, in a process allowed two or more CPUs,
:class:`BidirectionalGru` instead runs its directions as two one-cell
sequences at once, one of them on a worker thread. That is the only thread
the package starts; it makes the same float operations, so no bit depends
on the batch size or the CPU count choosing it.
"""

import os
import threading

import numpy as np

from .numerics import matmul, sigmoid


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


class Layer:
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
        self._ids = ids
        return self.weight[ids]

    def backward(self, grad: np.ndarray) -> None:
        # scatter-add: rows referenced several times accumulate
        np.add.at(self.d_weight, self._ids.reshape(-1),
                  grad.reshape(-1, self.embed_dim))
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
        self._mask = None

    def forward(self, x: np.ndarray, mode: str = "train", rng=None) -> np.ndarray:
        if mode == "infer" or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("Dropout.forward in train mode needs an rng to draw "
                             "its mask")
        keep = rng.random(x.shape) >= self.rate
        self._mask = keep.astype(x.dtype) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


# Input rows projected per time chunk: the projection buffer holds about
# ROWS * D * 3h values at any batch size, and batch 1 still projects a
# whole sequence in one call per direction.
ROWS = 1024


class GruCell(Layer):
    """One direction's parameters (reset-after, separate biases).

    W: (x_dim, 3h) input kernel, U: (h, 3h) recurrent kernel,
    b_x / b_h: (3h,) input and recurrent biases. :class:`GruSequence` runs
    the recurrence over one or more cells.
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


def _prefixed(names, cells, arrays) -> dict[str, np.ndarray]:
    """``arrays(cell)`` of every cell, each key prefixed with its cell's name."""
    return {f"{name}.{k}": v for name, cell in zip(names, cells)
            for k, v in arrays(cell).items()}


class GruSequence(Layer):
    """Unrolls D GruCells in lockstep over time, with full backpropagation
    through time.

    One cell maps a (B, T, x_dim) input to (B, T, h), or to its final (B, h)
    state. D cells take a sequence of D such inputs, each in its own cell's
    time order, and return the outputs stacked on a leading D axis;
    ``backward`` then takes that stacked gradient and returns D input
    gradients. Each step runs every gate operation once over (D, B, .)
    arrays; the recurrent product is one stacked matmul, whose [d] slices
    equal the per-cell products bit for bit.

    ``x W + b_x`` is projected before the steps that use it, in time chunks
    of C = ROWS // B steps into one reused (D, B, C, 3h) buffer, so peak
    memory does not grow with T or D; ``dx`` is one matmul per cell after the
    backward loop. matmul rows do not depend on which rows share the call, so
    both give the same bits as a per-step product. Parameter gradients
    accumulate per cell in step order.

    Only a train-mode forward keeps caches: ``h_prev``, ``z|r``, ``c`` and
    ``hc``, 5h values per row, in four (T, D, B, .) blocks that each step
    writes its slice of. ``backward`` drops them and the inputs once its loop
    is done, so the memory is back before the layers below run their
    backward; a second ``backward`` needs a new train forward first.

    Every array a forward keeps past one step (projection buffer, output
    states, cache blocks) comes from :meth:`workspace`, and backward's
    ``d_gx`` from :meth:`backward_workspace`. A caller that runs the sequence
    on another thread allocates them on its own thread first and passes them
    in, so the other thread's allocator is left holding nothing.

    The stacked U is copied into one buffer the sequence owns, and an
    infer-mode forward that projects the whole sequence in one chunk (a
    batch of at most ROWS // T rows) keeps its projection buffer for the
    next call. At batch 1 these are the largest temporaries of a forward;
    allocated afresh each call, they can lead the C allocator to return the
    pages after every call and fault them in again on the next.
    """

    def __init__(self, cells, return_sequences: bool):
        self.cells = (cells,) if isinstance(cells, GruCell) else tuple(cells)
        if len({cell.hidden_size for cell in self.cells}) != 1:
            raise ValueError("all cells must share the hidden size")
        self.hidden_size = self.cells[0].hidden_size
        self.return_sequences = return_sequences
        self.release()
        h = self.hidden_size
        self._U = np.empty((len(self.cells), h, 3 * h),
                           np.result_type(*[cell.U for cell in self.cells]))
        self._gx = None

    def release(self) -> None:
        """Forget the last forward: its mode, inputs and caches."""
        self._mode = None
        self._xs = None
        self._caches = None

    def workspace(self, x: np.ndarray, mode: str = "train",
                  h0: np.ndarray | None = None):
        """(projection buffer, output states or None, cache blocks or None)
        for a forward over input like ``x`` (one direction's (B, T, x_dim))."""
        B, T, _ = x.shape
        D, h = len(self.cells), self.hidden_size
        # the dtype every step computes in: exact for the zero or given h0
        dtype = np.result_type(x, *[a for cell in self.cells
                                    for a in cell.params().values()],
                               *([] if h0 is None else [h0]))
        C = max(1, min(T, ROWS // B))
        gx = self._gx
        if gx is None or gx.shape != (D, B, C, 3 * h) or gx.dtype != dtype:
            gx = np.empty((D, B, C, 3 * h), dtype)
        states = (np.empty((D, B, T, h), x.dtype)
                  if self.return_sequences else None)
        caches = (tuple(np.empty((T, D, B, w * h), dtype) for w in (1, 2, 1, 1))
                  if mode == "train" else None)
        return gx, states, caches

    def forward(self, x, mode: str = "train", h0: np.ndarray | None = None,
                workspace=None) -> np.ndarray:
        if mode not in ("train", "infer"):
            raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
        single = len(self.cells) == 1
        xs = (x,) if single else tuple(x)
        if len(xs) != len(self.cells) or any(xd.shape != xs[0].shape for xd in xs):
            raise ValueError(f"expected {len(self.cells)} inputs of one shape")
        B, T, x_dim = xs[0].shape
        if T == 0:
            raise ValueError("sequence length must be >= 1")
        D, h = len(self.cells), self.hidden_size
        gx, states, caches = workspace or self.workspace(xs[0], mode, h0)
        U = np.stack([cell.U for cell in self.cells], out=self._U)
        b_h = np.stack([cell.b_h for cell in self.cells])[:, None, :]
        if h0 is None:
            ht = np.zeros((D, B, h), dtype=xs[0].dtype)
        else:
            ht = h0[None] if single else h0
        train = mode == "train"
        self._mode = mode
        self._xs = xs if train else None
        self._caches = caches
        C = gx.shape[2]
        for t0 in range(0, T, C):
            c = min(C, T - t0)
            for d, (cell, xd) in enumerate(zip(self.cells, xs)):
                rows = xd[:, t0:t0 + c].reshape(B * c, x_dim)
                gx[d, :, :c] = cell.input_projection(rows).reshape(B, c, 3 * h)
            for k in range(c):
                t = t0 + k
                slots = [block[t] for block in caches] if train else None
                ht = self._step(gx[:, :, k], ht, U, b_h, slots)
                if self.return_sequences:
                    states[:, :, t] = ht
        # keep the buffer only where it is small and the forward short: an
        # infer forward that projected the whole sequence in one chunk. A
        # chunked buffer is ROWS-sized, and after a train forward backward
        # needs the memory more.
        self._gx = gx if not train and C == T else None
        out = states if self.return_sequences else ht
        return out[0] if single else out

    @staticmethod
    def _step(gx, h_prev, U, b_h, slots=None):
        """One timestep of every direction from its input projection ``gx``;
        all arrays are stacked (D, B, .), ``U`` is (D, h, 3h). Returns h_t;
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

    def _step_backward(self, dh, t):
        """Backprop step ``t`` of every direction; returns (d_gx, dh_prev).

        The gate algebra runs once over the stack. Each cell's parameter
        gradients and its share of dh_prev are 2-d matmuls. d_gx is the
        gradient at the input projection; backward turns it into dx = d_gx W^T.
        """
        h_prev, zr, c, hc = (block[t] for block in self._caches)
        z, r = zr[..., :self.hidden_size], zr[..., self.hidden_size:]
        dz = dh * (h_prev - c)
        dc = dh * (1.0 - z)
        ds_c = dc * (1.0 - c * c)                # at tanh input
        dr = ds_c * hc
        dhc = ds_c * r
        ds_z = dz * z * (1.0 - z)
        ds_r = dr * r * (1.0 - r)
        d_gx = np.concatenate([ds_z, ds_r, ds_c], axis=-1)
        d_gh = np.concatenate([ds_z, ds_r, dhc], axis=-1)
        dh_prev = dh * z
        for d, (cell, xd) in enumerate(zip(self.cells, self._xs)):
            cell.dW += matmul(xd[:, t].T, d_gx[d])
            cell.db_x += d_gx[d].sum(axis=0)
            cell.dU += matmul(h_prev[d].T, d_gh[d])
            cell.db_h += d_gh[d].sum(axis=0)
            dh_prev[d] += matmul(d_gh[d], cell.U.T)
        return d_gx, dh_prev

    def backward_workspace(self, dtype) -> np.ndarray:
        """The (D, B, T, 3h) ``d_gx`` block backward fills, after checking
        that a backward may run."""
        if self._mode is None:
            raise ValueError("GruSequence.backward called before any forward")
        if self._mode != "train":
            raise ValueError("GruSequence.backward needs a train-mode forward; "
                             "the last forward ran in infer mode and kept no caches")
        if self._caches is None:
            raise ValueError("GruSequence.backward needs a new train-mode forward; "
                             "an earlier backward consumed the last one's caches")
        B, T, _ = self._xs[0].shape
        return np.empty((len(self.cells), B, T, 3 * self.hidden_size), dtype)

    def backward(self, grad: np.ndarray, d_gx: np.ndarray | None = None):
        """grad is shaped like the forward output: (B, T, h) when returning
        sequences, else (B, h), behind a leading D axis for D cells."""
        if d_gx is None:
            d_gx = self.backward_workspace(grad.dtype)
        single = len(self.cells) == 1
        if single:
            grad = grad[None]
        D, h = len(self.cells), self.hidden_size
        B, T, x_dim = self._xs[0].shape
        carry = np.zeros((D, B, h), dtype=grad.dtype)
        for t in range(T - 1, -1, -1):
            if self.return_sequences:
                dh = carry + grad[:, :, t]
            else:
                dh = (carry + grad) if t == T - 1 else carry
            d_gx[:, :, t], carry = self._step_backward(dh, t)
        self._caches = self._xs = None
        dxs = [matmul(d_gx[d].reshape(B * T, 3 * h), cell.W.T).reshape(B, T, x_dim)
               for d, cell in enumerate(self.cells)]
        return dxs[0] if single else dxs

    def params(self):
        if len(self.cells) == 1:
            return self.cells[0].params()
        return _prefixed(range(len(self.cells)), self.cells, GruCell.params)

    def grads(self):
        if len(self.cells) == 1:
            return self.cells[0].grads()
        return _prefixed(range(len(self.cells)), self.cells, GruCell.grads)


def gru_sequence_forward(cell: GruCell, x: np.ndarray, return_sequences: bool = True,
                         h0: np.ndarray | None = None) -> np.ndarray:
    """Forward-only unroll of a cell over a (B, T, x_dim) input."""
    return GruSequence(cell, return_sequences).forward(x, "infer", h0)


# Batch rows from which a bidirectional layer runs its two directions on two
# threads. Below it, handing a direction to another thread costs more than the
# thread saves: against the one-loop path, a paper-size infer forward on a
# 2-vCPU Xeon ran 0.50-0.82x as fast at B = 1..8, 0.95-0.99x at B = 12,
# 1.17-1.36x at B = 16 and 1.63x at B = 64.
SPLIT_ROWS = 16

# One worker thread for every layer of every model in the process: layers
# run one at a time, so a second thread would only wait.
_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # a forked child has the pool object but not its thread
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                       # not on Linux
        return os.cpu_count() or 1


def _run_pair(here, there):
    """Call ``there`` on the worker thread and ``here`` on this one; returns
    both results. An exception from either propagates once both are done."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: it costs a process that never splits ~7 ms
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=1,
                                       thread_name_prefix="sentigru-gru")
        future = _pool.submit(there)
    try:
        first = here()
    finally:
        second = future.result()
    return first, second


class BidirectionalGru(Layer):
    """Two cells over opposite time directions, concatenated on features.

    The backward cell consumes t = T-1..0 (its input is ``x`` reversed in
    time); with ``return_sequences`` its per-step outputs are re-reversed to
    align with time, otherwise its final state (aligned with t = 0) is
    concatenated with the forward final state.

    The two directions share nothing until that concatenation. So a batch
    of at least SPLIT_ROWS rows, in a process allowed two or more CPUs, runs
    them at once as two one-cell :class:`GruSequence` s: the forward
    direction on the calling thread, the backward one on a worker thread
    created on first use. They overlap while einsum runs, which releases the
    GIL. The calling thread allocates every array either direction keeps
    past the call, so the worker's malloc arena is left holding nothing.
    Smaller batches, and every batch on one CPU, run one two-cell sequence
    that steps both directions in a single time loop. The two ways make the
    same float operations, so the bits do not depend on which one ran.
    """

    DIRECTIONS = ("fwd", "bwd")

    def __init__(self, forward_cell: GruCell, backward_cell: GruCell,
                 return_sequences: bool):
        self.seq = GruSequence((forward_cell, backward_cell), return_sequences)
        self.alone = tuple(GruSequence(cell, return_sequences)
                           for cell in self.seq.cells)
        self.return_sequences = return_sequences
        self.hidden_size = forward_cell.hidden_size
        self._split = False

    def forward(self, x: np.ndarray, mode: str = "train", rng=None) -> np.ndarray:
        x_b = x[:, ::-1, :]
        self._split = x.shape[0] >= SPLIT_ROWS and _usable_cpus() >= 2
        if self._split:
            fwd, bwd = self.alone
            ws = [seq.workspace(xd, mode) for seq, xd in zip(self.alone, (x, x_b))]
            hf, hb = _run_pair(lambda: fwd.forward(x, mode, workspace=ws[0]),
                               lambda: bwd.forward(x_b, mode, workspace=ws[1]))
            self.seq.release()
        else:
            hf, hb = self.seq.forward((x, x_b), mode)
            for seq in self.alone:
                seq.release()
        if self.return_sequences:
            return np.concatenate([hf, hb[:, ::-1, :]], axis=2)
        return np.concatenate([hf, hb], axis=1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        h = self.hidden_size
        if self.return_sequences:
            g = np.stack([grad[:, :, :h], grad[:, ::-1, h:]])
        else:
            g = np.stack([grad[:, :h], grad[:, h:]])
        if self._split:
            fwd, bwd = self.alone
            d_gx = [seq.backward_workspace(g.dtype) for seq in self.alone]
            dx, dx_b = _run_pair(lambda: fwd.backward(g[0], d_gx[0]),
                                 lambda: bwd.backward(g[1], d_gx[1]))
        else:
            dx, dx_b = self.seq.backward(g)
        dx += dx_b[:, ::-1, :]
        return dx

    def params(self):
        return _prefixed(self.DIRECTIONS, self.seq.cells, GruCell.params)

    def grads(self):
        return _prefixed(self.DIRECTIONS, self.seq.cells, GruCell.grads)


class BatchNorm(Layer):
    """Per-channel normalization over all leading dims of (..., C) input."""

    def __init__(self, channels, momentum=0.9, epsilon=1e-5, dtype=np.float32):
        self.channels = channels
        self.momentum = momentum
        self.epsilon = epsilon
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
            mean = flat.mean(axis=0)
            var = flat.var(axis=0)       # biased
            self.moving_mean *= self.momentum
            self.moving_mean += (1.0 - self.momentum) * mean
            self.moving_var *= self.momentum
            self.moving_var += (1.0 - self.momentum) * var
        else:
            mean = self.moving_mean
            var = self.moving_var
        xc = flat - mean
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        xn = xc * inv_std
        self._cache = (xc, inv_std, xn, mode)
        return (self.gamma * xn + self.beta).reshape(shape)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        shape = grad.shape
        d = grad.reshape(-1, self.channels)
        xc, inv_std, xn, mode = self._cache
        n = d.shape[0]
        self.d_gamma += (d * xn).sum(axis=0)
        self.d_beta += d.sum(axis=0)
        dxn = d * self.gamma
        if mode != "train":
            return (dxn * inv_std).reshape(shape)
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
        self._x = x
        return matmul(x, self.W) + self.b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.dW += matmul(self._x.T, grad)
        self.db += grad.sum(axis=0)
        return matmul(grad, self.W.T)

    def params(self):
        return {"W": self.W, "b": self.b}

    def grads(self):
        return {"W": self.dW, "b": self.db}


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of softmax(logits) against integer labels.

    Returns (loss, dlogits) where dlogits = (softmax - onehot) / B, computed
    with log-sum-exp stabilization.
    """
    B, K = logits.shape
    labels = np.asarray(labels)
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
