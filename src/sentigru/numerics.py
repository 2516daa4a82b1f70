"""Dense primitives: matmul, sigmoid, softmax, a finite-difference oracle.

All layer math funnels through :func:`matmul`, whose products have the bits
of ``np.einsum`` (never BLAS). They are bitwise reproducible run to run, and
for every operand layout a row of the product does not depend on which other
rows share the call. When ``b`` is C-contiguous with at least two columns the
product also equals a naive left-to-right triple loop in the same precision.
A transposed view such as ``W.T``, or a single column, makes einsum pick
another reduction order: still row-invariant, but not equal to that loop. The
backward passes multiply by ``W.T`` and ``U.T`` and rely only on row
invariance.

Operands may also carry one leading stack axis, ``(D, m, k) x (D, k, n)``:
one call computes D independent products. Each ``[d]`` slice of a stacked
product of C-contiguous operands equals ``matmul(a[d], b[d])`` bit for bit,
so the GRU steps both directions of a layer with one call and keeps the bits
of two separate calls.

A compiled kernel, ``matmul.c`` beside this file, computes most float32
products on x86-64 with einsum's two reduction orders:

- ``b`` C-contiguous with n >= 2 columns, ``a`` of any element strides, 2-d
  or stacked: each output adds its products over k in order, each product
  rounded before its add (no fused multiply-add);
- ``b`` the transposed view of a C-contiguous matrix and ``a`` C-contiguous,
  2-d: numpy's baseline 4-lane dot loop, with its grouping, zero-padded tail
  and pairwise lane sum.

Every other product goes to einsum: float64 or any other dtype, one column,
fewer than ``MIN_ROWS`` rows (a batch-1 step, where the ctypes call would
cost more than it saves), fewer than ``MIN_MACS`` multiply-adds, an empty
dimension or another layout. Both paths give the same bits, so which one
runs changes only the speed.

On x86-64 the first import compiles the kernel with the ``cc`` on PATH
(``CC``) into a library named by the sha256 of its source and flags, in the
first of this package's directory, ``~/.cache/sentigru`` and a private
directory under the system temp directory that can take it. It is written
under a temporary name and renamed into place, so processes importing at
once are safe, and later imports load it; a failed build is not retried.
The library exports each entry once per instruction-set variant, as
``<entry>_<variant>`` (``sg_rows_avx512``, ``sg_dot_sse3``, ...), and one
``sg_runs_<variant>()`` that says whether this CPU runs it. The import binds
the entries of every variant that runs, once, then checks the widest against
einsum on fixed probe products. ``KERNEL`` names the path in use: that
variant ("avx512", "avx2" or "sse3"), or "einsum" on another CPU, without a
compiler, after a failed build or when a probe differs. Setting it to
"einsum" sends every product to einsum. ctypes releases the GIL for the
call, so products on two threads run at once.

NaNs: every output einsum makes NaN is NaN here too, and every other output
has the same bits. A NaN output's sign and payload are einsum's as well,
except where NaNs of different bits meet in one output's sum, such as an
input NaN and the NaN of an inf - inf: numpy's compiled loops keep one or
the other by register order, which differs between its own loops, tail
lengths and alignments, and the kernel does not follow it there.
"""

import ctypes
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

try:                    # hashlib would load OpenSSL: 3.5 MB more resident memory
    from _sha2 import sha256
except ImportError:     # Python before 3.12
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

MIN_ROWS = 8
MIN_MACS = 8192
CC = "cc"

_SOURCE = Path(__file__).with_name("matmul.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_VARIANTS = ("avx512", "avx2", "sse3")     # widest first
_F32 = np.dtype(np.float32)
_kernels = {}       # {variant: (sg_rows, sg_dot)} of the variants this CPU runs


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with shape validation; each row's bits depend only on
    that row of ``a`` and on ``b`` (see the module docstring). Both operands
    are 2-d, or both 3-d with the same leading stack size."""
    _check_shapes(a, b)
    if (KERNEL != "einsum" and a.shape[-2] >= MIN_ROWS
            and a.size * b.shape[-1] >= MIN_MACS):
        out = _product(a, b, KERNEL, _kernels)
        if out is not None:
            return out
    return np.einsum("...ik,...kj->...ij", a, b)


def compiled(a: np.ndarray, b: np.ndarray, variant: str):
    """The kernel's product of two operands :func:`matmul` accepts, with the
    named variant of :func:`variants`, however small; None when they are
    outside the kernel's layouts or not both float32."""
    _check_shapes(a, b)
    return _product(a, b, variant, _kernels)


def _check_shapes(a, b) -> None:
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ValueError("matmul expects two 2-d or two 3-d operands, "
                         f"got {a.shape} and {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")


def _product(a, b, variant, kernels):
    n = b.shape[-1]
    if (a.dtype != _F32 or b.dtype != _F32 or n < 2 or a.size == 0
            or not (a.flags.aligned and b.flags.aligned)
            or any(s % 4 for s in a.strides)):
        return None
    out = np.empty(a.shape[:-1] + (n,), a.dtype)
    m, k = a.shape[-2:]
    if b.flags.c_contiguous:
        D, a_sd = (a.shape[0], a.strides[0] // 4) if a.ndim == 3 else (1, 0)
        kernels[variant][0](a.ctypes.data, b.ctypes.data, out.ctypes.data, D, m, k, n,
                            a_sd, a.strides[-2] // 4, a.strides[-1] // 4, k * n)
    elif a.ndim == 2 and a.flags.c_contiguous and b.T.flags.c_contiguous:
        if kernels[variant][1](a.ctypes.data, b.ctypes.data, out.ctypes.data, m, k, n):
            raise RuntimeError(f"no memory for the {variant} kernel's packing buffer")
    else:
        return None
    return out


def _library_dirs():
    """Where the built library goes: the first of these that is writable."""
    yield Path(__file__).parent
    try:
        yield Path.home() / ".cache" / "sentigru"
    except RuntimeError:    # no HOME, and no passwd entry for this uid
        pass
    private = Path(tempfile.gettempdir()) / f"sentigru-{os.getuid()}"
    try:
        private.mkdir(mode=0o700, exist_ok=True)
        if private.stat().st_uid == os.getuid():    # no one else's library
            yield private
    except OSError:
        pass


def _library() -> Path | None:
    """The kernel library for this source, built first if no directory holds
    it yet; None without a compiler, a directory that can take it or a build
    that succeeds. A failed build ends the search: it would fail anywhere."""
    tag = sha256(_SOURCE.read_bytes() + " ".join(_FLAGS).encode()).hexdigest()[:16]
    cc = shutil.which(CC)
    for directory in _library_dirs():
        path = directory / f"_matmul-{tag}.so"
        built = path.is_file() or (cc and _build(cc, path))
        if built is not None:       # None: no compiler, or no room for the file
            return path if built else None
    return None


def _build(cc: str, path: Path) -> bool | None:
    """Compile the source into ``path`` by way of a file of this process's
    own, renamed into place: whether the build succeeded, or None when the
    directory cannot take that file and the compiler did not run."""
    import subprocess           # only to build: not every import pays for it
    part = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.part")
    try:
        path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        part.touch(exist_ok=False)
    except OSError:
        return None
    try:
        subprocess.run([cc, *_FLAGS, str(_SOURCE), "-o", str(part)],
                       capture_output=True, check=True, timeout=300)
        os.replace(part, path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        part.unlink(missing_ok=True)


def _probes():
    """float32 products covering both orders, tile edges and specials:
    signed zeros, subnormals, and either infinities and overflow or one NaN
    (so that no two NaNs of different bits meet). The values come from a
    fixed integer hash, not numpy.random, which the import need not load."""
    hashed = np.arange(1 << 14, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    tiny, big = np.finfo(_F32).smallest_subnormal, np.finfo(_F32).max / 4
    for specials in ([0.0, -0.0, tiny, np.inf, -np.inf, big, -big],
                     [0.0, -0.0, tiny, np.nan]):
        pool = (hashed >> np.uint64(40)).astype(_F32) / np.float32(1 << 22) - 2
        pool[::19] = np.resize(np.array(specials, _F32), pool[::19].size)
        used = 0

        def sample(*shape):
            nonlocal used
            used += int(np.prod(shape))
            return pool[used - int(np.prod(shape)):used].reshape(shape)

        for m, k, n in ((9, 37, 70), (13, 5, 2), (8, 16, 33), (11, 1, 17)):
            yield sample(m, k), sample(k, n)
            yield sample(k, m).T, sample(k, n)
            yield sample(m, k), sample(n, k).T
        yield sample(2, 10, 19), sample(2, 19, 35)


def _bind(lib: ctypes.CDLL) -> dict:
    """``{variant: (sg_rows, sg_dot)}`` of a loaded kernel library, for each
    variant whose ``sg_runs_<variant>()`` is true on this CPU, widest first."""
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    kernels = {}
    for variant in _VARIANTS:
        if lib[f"sg_runs_{variant}"]():
            rows, dot = lib[f"sg_rows_{variant}"], lib[f"sg_dot_{variant}"]
            rows.argtypes, rows.restype = [ptr] * 3 + [size] * 8, None
            dot.argtypes, dot.restype = [ptr] * 3 + [size] * 3, ctypes.c_int
            kernels[variant] = rows, dot
    return kernels


def _load() -> str:
    """Build, load and bind the kernel; returns its widest variant, installed if
    that passes every probe, else "einsum" (a probe that differs empties the table)."""
    global _kernels
    if os.name != "posix" or os.uname().machine not in ("x86_64", "amd64"):
        return "einsum"
    try:
        path = _library()
        if path is None:
            return "einsum"
        kernels = _bind(ctypes.CDLL(str(path)))
    except OSError:
        return "einsum"
    variant = next(iter(kernels), "einsum")
    if variant == "einsum" or any(
            _product(a, b, variant, kernels).tobytes()
            != np.einsum("...ik,...kj->...ij", a, b).tobytes() for a, b in _probes()):
        _kernels = {}
        return "einsum"
    _kernels = kernels
    return variant


def variants() -> list[str]:
    """The kernel's variants this CPU runs, widest first; empty on einsum."""
    return list(_kernels)


KERNEL = _load()


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
