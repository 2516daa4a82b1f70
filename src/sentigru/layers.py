"""Forward and backward passes for every layer in the classifier stack.

Layers cache whatever the backward pass needs on ``self`` during forward and
accumulate parameter gradients in place; callers own zeroing between steps.
The GRU layers keep their per-step caches only in a train-mode forward.
The GRU uses the reset-after formulation with separate input and recurrent
biases, so each direction carries 3h(x + h + 2) parameters. Gate blocks are
laid out [update | reset | candidate] along the 3h axis.
"""

import numpy as np

from .numerics import matmul, sigmoid


def glorot_uniform(rng, shape, dtype) -> np.ndarray:
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape).astype(dtype)


def orthogonal(rng, n: int, dtype) -> np.ndarray:
    """Orthogonal n x n matrix from QR of a gaussian draw, sign-fixed."""
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


class Embedding(Layer):
    """Token-id lookup table of shape (vocab_size, embed_dim)."""

    def __init__(self, vocab_size, embed_dim, rng, dtype=np.float32):
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.weight = rng.uniform(-0.05, 0.05, (vocab_size, embed_dim)).astype(dtype)
        self.d_weight = np.zeros_like(self.weight)

    def forward(self, ids: np.ndarray) -> np.ndarray:
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

    def param_count(self) -> int:
        return self.weight.size


class Dropout(Layer):
    """Inverted dropout: train mode rescales survivors by 1/(1-rate)."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask = None

    def forward(self, x: np.ndarray, mode: str, rng=None) -> np.ndarray:
        if mode == "infer" or self.rate == 0.0:
            self._mask = None
            return x
        keep = rng.random(x.shape) >= self.rate
        self._mask = keep.astype(x.dtype) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask

    def param_count(self) -> int:
        return 0


class GruCell(Layer):
    """One direction's recurrent cell (reset-after, separate biases).

    W: (x_dim, 3h) input kernel, U: (h, 3h) recurrent kernel,
    b_x / b_h: (3h,) input and recurrent biases.
    """

    def __init__(self, input_dim, hidden_size, rng, dtype=np.float32):
        h = hidden_size
        self.input_dim = input_dim
        self.hidden_size = h
        self.W = glorot_uniform(rng, (input_dim, 3 * h), dtype)
        self.U = np.hstack([orthogonal(rng, h, dtype) for _ in range(3)])
        self.b_x = np.zeros(3 * h, dtype=dtype)
        self.b_h = np.zeros(3 * h, dtype=dtype)
        self.dW = np.zeros_like(self.W)
        self.dU = np.zeros_like(self.U)
        self.db_x = np.zeros_like(self.b_x)
        self.db_h = np.zeros_like(self.b_h)

    def input_projection(self, x: np.ndarray) -> np.ndarray:
        """x W + b_x for (rows, x_dim) input: the gate pre-activations that do
        not depend on the recurrent state, so all timesteps can share one call."""
        gx = matmul(x, self.W)
        gx += self.b_x
        return gx

    def step(self, x: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
        """Advance one timestep; returns the new hidden state."""
        h, _ = self._step(self.input_projection(x), h_prev)
        return h

    def _step(self, gx, h_prev):
        """One timestep from the input projection ``gx`` of this step."""
        h = self.hidden_size
        gh = matmul(h_prev, self.U) + self.b_h
        zr = sigmoid(gx[:, :2 * h] + gh[:, :2 * h])
        z, r = zr[:, :h], zr[:, h:]
        hc = gh[:, 2 * h:]                       # recurrent candidate, pre reset
        c = np.tanh(gx[:, 2 * h:] + r * hc)
        h_t = z * h_prev + (1.0 - z) * c
        return h_t, (h_prev, z, r, c, hc)

    def step_backward(self, dh, x, cache):
        """Backprop one timestep whose input was ``x``; returns (d_gx, dh_prev).

        Accumulates every parameter gradient. d_gx is the gradient at the
        input projection; the caller turns it into dx = d_gx W^T.
        """
        h_prev, z, r, c, hc = cache
        dz = dh * (h_prev - c)
        dc = dh * (1.0 - z)
        ds_c = dc * (1.0 - c * c)                # at tanh input
        dr = ds_c * hc
        dhc = ds_c * r
        ds_z = dz * z * (1.0 - z)
        ds_r = dr * r * (1.0 - r)
        d_gx = np.concatenate([ds_z, ds_r, ds_c], axis=1)
        d_gh = np.concatenate([ds_z, ds_r, dhc], axis=1)
        self.dW += matmul(x.T, d_gx)
        self.db_x += d_gx.sum(axis=0)
        self.dU += matmul(h_prev.T, d_gh)
        self.db_h += d_gh.sum(axis=0)
        dh_prev = matmul(d_gh, self.U.T) + dh * z
        return d_gx, dh_prev

    def params(self):
        return {"W": self.W, "U": self.U, "b_x": self.b_x, "b_h": self.b_h}

    def grads(self):
        return {"W": self.dW, "U": self.dU, "b_x": self.db_x, "b_h": self.db_h}

    def param_count(self) -> int:
        return 3 * self.hidden_size * (self.input_dim + self.hidden_size + 2)


class GruSequence(Layer):
    """Unrolls a GruCell over time, with full backpropagation through time.

    ``x W + b_x`` for all timesteps is one matmul before the time loop, and
    ``dx`` one after the backward loop; matmul rows do not depend on which
    rows share the call, so this gives the same bits as a per-step product.
    Only a train-mode forward keeps the per-step caches that backward needs.
    """

    def __init__(self, cell: GruCell, return_sequences: bool):
        self.cell = cell
        self.return_sequences = return_sequences
        self._mode = None
        self._x = None
        self._caches = None

    def forward(self, x: np.ndarray, mode: str = "train",
                h0: np.ndarray | None = None) -> np.ndarray:
        if mode not in ("train", "infer"):
            raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
        B, T, x_dim = x.shape
        if T == 0:
            raise ValueError("sequence length must be >= 1")
        h = self.cell.hidden_size
        gx = self.cell.input_projection(x.reshape(B * T, x_dim)).reshape(B, T, 3 * h)
        if h0 is None:
            h0 = np.zeros((B, h), dtype=x.dtype)
        train = mode == "train"
        self._mode = mode
        self._x = x if train else None
        self._caches = [] if train else None
        states = np.empty((B, T, h), dtype=x.dtype)
        ht = h0
        for t in range(T):
            ht, cache = self.cell._step(gx[:, t, :], ht)
            if train:
                self._caches.append(cache)
            states[:, t, :] = ht
        if self.return_sequences:
            return states
        return states[:, -1, :]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """grad is (B, T, h) when returning sequences, else (B, h)."""
        if self._mode is None:
            raise ValueError("GruSequence.backward called before any forward")
        if self._mode != "train":
            raise ValueError("GruSequence.backward needs a train-mode forward; "
                             "the last forward ran in infer mode and kept no caches")
        B, T, x_dim = self._x.shape
        h = self.cell.hidden_size
        d_gx = np.empty((B, T, 3 * h), dtype=grad.dtype)
        carry = np.zeros((B, h), dtype=grad.dtype)
        for t in range(T - 1, -1, -1):
            if self.return_sequences:
                dh = carry + grad[:, t, :]
            else:
                dh = (carry + grad) if t == T - 1 else carry
            d_gx[:, t, :], carry = self.cell.step_backward(
                dh, self._x[:, t, :], self._caches[t])
        return matmul(d_gx.reshape(B * T, 3 * h), self.cell.W.T).reshape(B, T, x_dim)

    def params(self):
        return self.cell.params()

    def grads(self):
        return self.cell.grads()

    def param_count(self) -> int:
        return self.cell.param_count()


def gru_sequence_forward(cell: GruCell, x: np.ndarray, return_sequences: bool = True,
                         h0: np.ndarray | None = None) -> np.ndarray:
    """Forward-only unroll of a cell over a (B, T, x_dim) input."""
    return GruSequence(cell, return_sequences).forward(x, "infer", h0)


class BidirectionalGru(Layer):
    """Two cells over opposite time directions, concatenated on features.

    The backward cell consumes t = T-1..0; with ``return_sequences`` its
    per-step outputs are re-reversed to align with time, otherwise its final
    state (aligned with t = 0) is concatenated with the forward final state.
    """

    def __init__(self, forward_cell: GruCell, backward_cell: GruCell,
                 return_sequences: bool):
        if forward_cell.hidden_size != backward_cell.hidden_size:
            raise ValueError("both cells must share the hidden size")
        self.fwd = GruSequence(forward_cell, return_sequences)
        self.bwd = GruSequence(backward_cell, return_sequences)
        self.return_sequences = return_sequences
        self.hidden_size = forward_cell.hidden_size

    def forward(self, x: np.ndarray, mode: str = "train") -> np.ndarray:
        hf = self.fwd.forward(x, mode)
        hb = self.bwd.forward(np.ascontiguousarray(x[:, ::-1, :]), mode)
        if self.return_sequences:
            return np.concatenate([hf, hb[:, ::-1, :]], axis=2)
        return np.concatenate([hf, hb], axis=1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        h = self.hidden_size
        if self.return_sequences:
            df = np.ascontiguousarray(grad[:, :, :h])
            db = np.ascontiguousarray(grad[:, ::-1, h:])
        else:
            df, db = grad[:, :h], grad[:, h:]
        dx = self.fwd.backward(df)
        dx += self.bwd.backward(db)[:, ::-1, :]
        return dx

    def params(self):
        out = {f"fwd.{k}": v for k, v in self.fwd.params().items()}
        out.update({f"bwd.{k}": v for k, v in self.bwd.params().items()})
        return out

    def grads(self):
        out = {f"fwd.{k}": v for k, v in self.fwd.grads().items()}
        out.update({f"bwd.{k}": v for k, v in self.bwd.grads().items()})
        return out

    def param_count(self) -> int:
        return self.fwd.param_count() + self.bwd.param_count()


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
        self.d_gamma = np.zeros_like(self.gamma)
        self.d_beta = np.zeros_like(self.beta)

    def forward(self, x: np.ndarray, mode: str) -> np.ndarray:
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

    def param_count(self) -> int:
        # counts moving stats too, matching framework summary conventions
        return 4 * self.channels


class Dense(Layer):
    """Affine map x W + b with no activation; softmax lives in the loss head."""

    def __init__(self, in_dim, out_dim, rng, dtype=np.float32):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.W = glorot_uniform(rng, (in_dim, out_dim), dtype)
        self.b = np.zeros(out_dim, dtype=dtype)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)

    def forward(self, x: np.ndarray) -> np.ndarray:
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

    def param_count(self) -> int:
        return self.W.size + self.b.size


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


def param_count(layer: Layer) -> int:
    """Total parameters of a layer, matching the closed-form counts."""
    return layer.param_count()
