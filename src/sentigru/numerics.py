"""Dense primitives: matmul, sigmoid, softmax, a finite-difference oracle.

All layer math funnels through :func:`matmul`, an ``einsum`` kernel with no
BLAS dispatch. Its results are bitwise reproducible run to run, and for every
operand layout a row of the product does not depend on which other rows share
the call. When ``b`` is C-contiguous the product also equals a naive
left-to-right triple loop in the same precision. A transposed view such as
``W.T`` makes einsum pick another reduction order: still row-invariant, but not
equal to that loop. The backward passes multiply by ``W.T`` and ``U.T`` and
rely only on row invariance.

Operands may also carry one leading stack axis, ``(D, m, k) x (D, k, n)``:
one call computes D independent products. Each ``[d]`` slice of a stacked
product of C-contiguous operands equals ``matmul(a[d], b[d])`` bit for bit,
so the GRU steps both directions of a layer with one call and keeps the bits
of two separate calls.
"""

from dataclasses import dataclass

import numpy as np


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with shape validation; each row's bits depend only on
    that row of ``a`` and on ``b`` (see the module docstring). Both operands
    are 2-d, or both 3-d with the same leading stack size."""
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ValueError("matmul expects two 2-d or two 3-d operands, "
                         f"got {a.shape} and {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
    return np.einsum("...ik,...kj->...ij", a, b)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x), evaluated without overflow on either tail.

    With e = exp(-|x|) this is 1 / (1 + e) for x >= 0 and e / (1 + e)
    otherwise. ``minimum(x, -x)`` is -|x| that passes a NaN through with its
    own sign and payload, so every output bit, NaN included, equals the
    per-branch evaluation.
    """
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1, e) / (1 + e)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` with max-subtraction for stability."""
    if x.shape[axis] < 1:
        raise ValueError("softmax requires axis length >= 1")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


@dataclass(frozen=True)
class GradCheckReport:
    max_relative_error: float
    per_parameter: dict[str, float]


def grad_check(loss_fn, params: dict[str, np.ndarray],
               analytic_grads: dict[str, np.ndarray],
               step: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` recomputes the scalar loss from the current contents of the
    arrays in ``params``; each coordinate is perturbed in place by ``+-step``
    and restored. Per-coordinate relative error is
    ``|a - n| / max(|a|, |n|, 1e-8)``. Run with float64 parameters.

    Raises ValueError if the loss is non-finite at any perturbed point.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    per_param = {}
    for name, theta in params.items():
        analytic = analytic_grads[name]
        if analytic.shape != theta.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        worst = 0.0
        flat = theta.reshape(-1)
        a_flat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(loss_fn())
            flat[i] = orig - step
            down = float(loss_fn())
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise ValueError(f"non-finite loss while perturbing {name!r}[{i}]")
            numeric = (up - down) / (2.0 * step)
            a = float(a_flat[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
        per_param[name] = worst
    overall = max(per_param.values()) if per_param else 0.0
    return GradCheckReport(max_relative_error=overall, per_parameter=per_param)
