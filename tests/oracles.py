"""Independent reference implementations used only by the tests.

Everything here is written as plain scalar loops, deliberately sharing no
code with the package, so agreement between the two is evidence rather
than tautology. The one vectorized reference, :func:`sigmoid_mask_scatter`,
is the package's earlier sigmoid, kept as the bit-exact reference for the
current one.
"""

import math

import numpy as np


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def sigmoid_mask_scatter(x: np.ndarray) -> np.ndarray:
    """Elementwise sigmoid by boolean-mask scatter: 1 / (1 + e^-x) where
    x >= 0, e^x / (1 + e^x) elsewhere (NaN included)."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def scalar_gru_step(x, h_prev, W, U, b_x, b_h):
    """One recurrent step on plain Python lists; gate layout [z | r | c].

    z and r are sigmoid gates over (x W + b_x + h U + b_h); the candidate
    applies r to the recurrent term after the matrix product, so each gate
    carries separate input and recurrent biases.
    """
    h = len(h_prev)
    sx = [b_x[j] + sum(x[i] * W[i][j] for i in range(len(x)))
          for j in range(3 * h)]
    sh = [b_h[j] + sum(h_prev[k] * U[k][j] for k in range(h))
          for j in range(3 * h)]
    h_new = []
    for j in range(h):
        z = sigmoid(sx[j] + sh[j])
        r = sigmoid(sx[h + j] + sh[h + j])
        c = math.tanh(sx[2 * h + j] + r * sh[2 * h + j])
        h_new.append(z * h_prev[j] + (1.0 - z) * c)
    return h_new


def scalar_gru_sequence(x, W, U, b_x, b_h, return_sequences=True):
    """Run the scalar cell over a B x T x D nested list, zero initial state.

    Returns B x T x H (return_sequences) or B x H (final states only).
    """
    hidden = len(b_x) // 3
    out = []
    for row in x:
        h = [0.0] * hidden
        seq = []
        for step in row:
            h = scalar_gru_step(step, h, W, U, b_x, b_h)
            seq.append(h)
        out.append(seq if return_sequences else h)
    return out


def scalar_bigru(x, fwd, bwd, return_sequences=True):
    """Two scalar passes, the second on the reversed sequence.

    fwd and bwd are (W, U, b_x, b_h) tuples. Per-step outputs concatenate
    [forward_t, backward_t]; final-state mode concatenates the forward
    state at t=T-1 with the backward state at t=0.
    """
    f = scalar_gru_sequence(x, *fwd, return_sequences=True)
    rev = [list(reversed(row)) for row in x]
    b = scalar_gru_sequence(rev, *bwd, return_sequences=True)
    if not return_sequences:
        return [f[i][-1] + b[i][-1] for i in range(len(x))]
    out = []
    for i, row in enumerate(x):
        t_max = len(row) - 1
        out.append([f[i][t] + b[i][t_max - t] for t in range(len(row))])
    return out


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple loop with left-to-right accumulation in the input dtype."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=a.dtype)
    for i in range(n):
        for j in range(m):
            acc = a.dtype.type(0)
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def brute_metrics(truth, pred, k: int) -> dict:
    """Count-based metrics straight from the (truth, pred) pairs."""
    truth = [int(t) for t in truth]
    pred = [int(p) for p in pred]
    n = len(truth)
    counts = [[0] * k for _ in range(k)]
    for t, p in zip(truth, pred):
        counts[t][p] += 1
    correct = sum(counts[i][i] for i in range(k))
    per_class = []
    for i in range(k):
        tp = counts[i][i]
        fp = sum(counts[t][i] for t in range(k)) - tp
        fn = sum(counts[i][p] for p in range(k)) - tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per_class.append({"support": tp + fn, "precision": prec,
                          "recall": rec, "f1": f1})
    names = ("precision", "recall", "f1")
    tp_all = correct
    fp_all = sum(sum(counts[t][i] for t in range(k)) - counts[i][i]
                 for i in range(k))
    fn_all = sum(sum(counts[i][p] for p in range(k)) - counts[i][i]
                 for i in range(k))
    micro_p = tp_all / (tp_all + fp_all) if tp_all + fp_all else 0.0
    micro_r = tp_all / (tp_all + fn_all) if tp_all + fn_all else 0.0
    micro_f = (2 * micro_p * micro_r / (micro_p + micro_r)
               if micro_p + micro_r else 0.0)
    return {
        "counts": counts,
        "accuracy": correct / n,
        "per_class": per_class,
        "macro": {m: sum(c[m] for c in per_class) / k for m in names},
        "micro": {"precision": micro_p, "recall": micro_r, "f1": micro_f},
        "weighted": {m: sum(c["support"] * c[m] for c in per_class) / n
                     for m in names},
    }


def scalar_adam(initial: float, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Single-parameter optimizer trace, one update per gradient."""
    theta, m, v = float(initial), 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta -= lr * mhat / (math.sqrt(vhat) + eps)
    return theta
