"""Dense primitives: an aligned allocator, matmul, sigmoid, softmax, a
finite-difference oracle.

All layer math funnels through :func:`matmul`, whose products have the bits
of ``np.einsum`` (never BLAS). They are bitwise reproducible run to run, and
for every operand layout a row of the product does not depend on which other
rows share the call. When ``b`` is C-contiguous with at least two columns the
product also equals a naive left-to-right triple loop in the same precision.
A transposed view such as ``W.T``, or a single column, makes einsum pick
another reduction order: still row-invariant, but not equal to that loop. The
backward passes multiply by ``W.T`` and ``U.T`` and rely only on row
invariance. Both operands are 2-d.

A compiled kernel, ``matmul.c`` beside this file, computes most float32
products on x86-64 with einsum's two reduction orders:

- ``b`` C-contiguous with n >= 2 columns and ``a`` of any element strides:
  each output adds its products over k in order, each product rounded before
  its add (no fused multiply-add);
- ``b`` the transposed view of a C-contiguous matrix and ``a`` C-contiguous:
  numpy's baseline 4-lane dot loop, with its grouping, zero-padded tail
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
once are safe, and later imports load it; a failed build is not retried. A
build in this package's directory removes the libraries of earlier sources
there. The library exports each entry once per instruction-set variant, as
``<entry>_<variant>`` (``sg_rows_avx512``, ``sg_dot_sse3``, ...), and one
``sg_runs_<variant>()`` that says whether this CPU runs it. The import binds
the entries of every variant that runs, once, then checks the widest against
einsum on fixed probe products. ``KERNEL`` names the path in use: that
variant ("avx512", "avx2" or "sse3"), or "einsum" on another CPU, without a
compiler, after a failed build or when a probe differs. Setting it to
"einsum" sends every product to einsum. ctypes releases the GIL for the
call, so products on two threads run at once. An entry that needs scratch
(the transposed-operand product, the GRU loops) allocates it on the thread
that calls it and frees it before it returns; a failed allocation raises
MemoryError.

The kernel's third entry, :func:`gru_backward`, runs a whole GRU cell's
backward time loop in one call with the GIL released, so the two directions
of a layer on two threads overlap completely. Its gate algebra uses only
float32 ``-``, ``*`` and ``+``, in numpy's order and with numpy's rounded
constants; each step's products are the two orders above, the input's
gradient ``d_gx W^T`` among them, and each bias gradient adds a sum over the
batch taken in order from +0.0, which is numpy's ``sum(axis=0)`` for rows at
least two wide. Each step's product or sum is rounded, then added into the
gradient. So it has the numpy loop's bits by construction; float64 and
``KERNEL == "einsum"`` run that loop. It is bound and dropped with its
variant's products, whose probes cover its orders.

The fourth entry, :func:`gru_forward`, runs a GRU cell's whole forward time
loop in one call with the GIL released, projecting ``x W + b_x`` itself in
time chunks and making the numpy step's float32 operations in its order
(``matmul.c`` states it). A product's rows do not depend on the rows that
share it, so the chunks give the bits of a per-step projection. Its exp and
tanh are numpy's own: at import this module reads the float32 inner loops of
``np.exp`` and ``np.tanh`` from numpy's public ``PyUFuncObject`` layout
(``functions`` at byte 32, ``data`` at 40, ``ntypes`` at 48; the loop is
entry ``types.index("f->f")``) and passes them on each call. It binds them,
as ``UFUNC_LOOPS``, only if the object's ``ntypes`` is ``len(ufunc.types)``
and each loop gives its ufunc's own bytes on a short fixed vector of special
values: signed zeros, infinities, NaNs, subnormals and both tails. The layout
was checked on numpy 2.4.6, where ``tools/sweep_ufunc_loops.py`` found both
loops equal to their ufuncs on all 2^32 inputs. Otherwise, and for float64
and ``KERNEL == "einsum"``, the forward steps in numpy. A loop called from
the kernel runs outside numpy's error handling: it raises no floating-point
warning, and ``np.errstate`` does not apply to it.

The fifth entry, :func:`adam_step`, runs one Adam update of a float32
parameter array and its two moments in one pass with the GIL released. Its
operations are ``*``, ``+``, ``-``, ``/`` and ``sqrt``, all correctly
rounded, made in numpy's order on numpy's float32 scalars, so it has the
numpy step's bits by construction; float64, ``KERNEL == "einsum"`` and a
rate numpy does not treat as a weak Python scalar step in numpy.

The BatchNorm entries (:func:`batch_norm_stats`, :func:`batch_norm_apply`,
:func:`batch_norm_backward`) make a float32 layer's (N, C) passes, and
:func:`scatter_add` the embedding's ``np.add.at``, each in one call per pass
with the GIL released. Their column sums start at +0.0 and add the rows in
order, which is numpy's ``sum(axis=0)`` for C >= 2, and their elementwise
operations are numpy's in numpy's order; the (C,) math between the passes,
the divisions by N included, stays in numpy. So they too have numpy's bits
by construction; float64, ``KERNEL == "einsum"``, one channel and arrays the
kernel cannot read stay in numpy. Like the loops above, they raise no numpy
floating-point warning.

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
# {variant: {entry: function}} of the variants this CPU runs (see _bind)
_kernels = {}


def zeros(shape, dtype) -> np.ndarray:
    """``np.zeros(shape, dtype)``, C-contiguous, starting on a 64-byte
    boundary: a view of a zeroed byte buffer, whose untouched pages stay
    unresident as those of ``np.zeros`` do. A product streams a 64-byte
    aligned operand in whole cache lines."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    raw = np.zeros(size + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(dtype).reshape(shape)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two 2-d operands with shape validation; each row's
    bits depend only on that row of ``a`` and on ``b`` (see the module
    docstring)."""
    _check_shapes(a, b)
    if KERNEL != "einsum" and a.shape[0] >= MIN_ROWS and a.size * b.shape[1] >= MIN_MACS:
        product = _product(a, b, KERNEL, _kernels)
        if product is not None:
            return product
    return np.einsum("ik,kj->ij", a, b)


def compiled(a: np.ndarray, b: np.ndarray, variant: str):
    """The kernel's product of two operands :func:`matmul` accepts, with the
    named variant of :func:`variants`, however small; None when they are
    outside the kernel's layouts or not both float32."""
    _check_shapes(a, b)
    return _product(a, b, variant, _kernels)


def _check_shapes(a, b) -> None:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects two 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")


def _product(a, b, variant, kernels):
    """The kernel's product as a new array; None outside the kernel's layouts."""
    (m, k), n = a.shape, b.shape[1]
    if (a.dtype != _F32 or b.dtype != _F32 or n < 2 or a.size == 0
            or not (a.flags.aligned and b.flags.aligned)
            or any(s % 4 for s in a.strides)):
        return None
    out = np.empty((m, n), a.dtype)
    if b.flags.c_contiguous:
        kernels[variant]["rows"](a.ctypes.data, b.ctypes.data, out.ctypes.data, m, k, n,
                                 *(s // 4 for s in a.strides))
    elif a.flags.c_contiguous and b.T.flags.c_contiguous:
        if kernels[variant]["dot"](a.ctypes.data, b.ctypes.data, out.ctypes.data, m, k, n):
            raise MemoryError(f"no memory for the {variant} kernel's packing buffer")
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
    directory cannot take that file and the compiler did not run. A build
    into the source's own directory removes the libraries of earlier sources
    there; the shared directories keep theirs, which other installs may use."""
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
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        part.unlink(missing_ok=True)
    if path.parent == _SOURCE.parent:
        for old in path.parent.glob("_matmul-*.so"):
            try:
                if old != path:
                    old.unlink()
            except OSError:         # gone already, or not ours to remove
                pass
    return True


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


_ptr, _size, _int = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_int
# each entry's ctypes argument and result types
_ENTRIES = {
    "rows": ([_ptr] * 3 + [_size] * 5, None),
    "dot": ([_ptr] * 3 + [_size] * 3, _int),
    "gru_back": ([_ptr, *[_size] * 3, *[_ptr] * 5, _int, *[_ptr] * 8, *[_size] * 4], _int),
    "gru_fwd": ([_ptr, *[_size] * 3, *[_ptr] * 6, _size, _size, *[_ptr] * 8, *[_size] * 4],
                _int),
    "adam": ([_ptr] * 4 + [_size, _ptr], None),
    "bn_sums": ([_ptr, _ptr, _size, _size, _ptr], None),
    "bn_out": ([_ptr] * 5 + [_size] * 2 + [_ptr], None),
    "bn_back": ([_ptr] * 6 + [_size] * 2 + [_ptr], None),
    "bn_dx": ([_ptr] * 7 + [ctypes.c_float] + [_size] * 2 + [_ptr], None),
    "embed_back": ([_ptr] * 3 + [_size] * 3, _int),
}


def _bind(lib: ctypes.CDLL) -> dict:
    """``{variant: {entry: function}}`` of a loaded kernel library, every entry
    of ``_ENTRIES`` for each variant whose ``sg_runs_<variant>()`` is true on
    this CPU, widest first."""
    kernels = {}
    for variant in _VARIANTS:
        if lib[f"sg_runs_{variant}"]():
            kernels[variant] = {}
            for entry, (argtypes, restype) in _ENTRIES.items():
                function = lib[f"sg_{entry}_{variant}"]
                function.argtypes, function.restype = argtypes, restype
                kernels[variant][entry] = function
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
            != np.einsum("ik,kj->ij", a, b).tobytes() for a, b in _probes()):
        _kernels = {}
        return "einsum"
    _kernels = kernels
    return variant


def variants() -> list[str]:
    """The kernel's variants this CPU runs, widest first; empty on einsum."""
    return list(_kernels)


KERNEL = _load()

# numpy's ufunc object, from its public header: the loop table at byte 32,
# the loops' data at 40 and their count at 48
_FUNCTIONS, _DATA, _NTYPES = 32, 40, 48
_LOOP = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 4)


def _loop_probe() -> np.ndarray:
    """float32 inputs for the loop check: signed zeros and infinities, NaNs of
    either sign, subnormals, exp's and tanh's tails, then a fixed sweep."""
    info = np.finfo(_F32)
    tiny, big = info.smallest_subnormal, info.smallest_normal
    nans = np.array([0x7FC00001, 0xFFC00000, 0x7FA00000], np.uint32).view(_F32)
    special = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, big - tiny, -big, info.max,
               -info.max, 1e-30, -1e-8, 88.72, 88.73, -87.34, -103.9, -104.0, 9.0, -9.01,
               10.0, -20.0]
    return np.concatenate([nans, np.array(special, _F32),
                           np.linspace(-12, 12, 61, dtype=_F32)])


def _ufunc_loop(ufunc: np.ufunc, types: str):
    """numpy's own inner loop of ``ufunc`` for the ``types`` entry, read from
    the ufunc object, as ``(function, data)`` addresses; None unless the
    object's loop count is ``len(ufunc.types)``, the entry is not NULL and
    the loop, called as float32 -> float32 on contiguous arrays, gives the
    ufunc's own bytes on :func:`_loop_probe`. Its arrays leave room past the
    probe for wider elements, so a loop of another type reads and writes only
    within them."""
    if ctypes.c_int.from_address(id(ufunc) + _NTYPES).value != len(ufunc.types):
        return None
    i = ufunc.types.index(types)
    functions, data = (ctypes.c_void_p.from_address(id(ufunc) + at).value
                       for at in (_FUNCTIONS, _DATA))
    loop = (ctypes.c_void_p.from_address(functions + 8 * i).value,
            data and ctypes.c_void_p.from_address(data + 8 * i).value)
    if not loop[0]:
        return None
    probe = _loop_probe()
    x, out = (np.zeros(probe.size + 16, _F32) for _ in range(2))
    x[:probe.size] = probe
    _apply(loop, x, out, probe.size)
    with np.errstate(all="ignore"):
        want = ufunc(probe)
    return loop if out[:probe.size].tobytes() == want.tobytes() else None


def _apply(loop, x: np.ndarray, out: np.ndarray, n: int) -> None:
    """numpy's inner loop ``(function, data)`` over the first ``n`` float32
    values of ``x`` into ``out``, both contiguous, as the kernel calls it."""
    args = (ctypes.c_void_p * 2)(x.ctypes.data, out.ctypes.data)
    _LOOP(loop[0])(args, (ctypes.c_ssize_t * 1)(n), (ctypes.c_ssize_t * 2)(4, 4), loop[1])


def _ufunc_loops():
    """The float32 loops of ``np.exp`` and ``np.tanh`` by :func:`_ufunc_loop`;
    None unless both pass."""
    loops = tuple(_ufunc_loop(ufunc, "f->f") for ufunc in (np.exp, np.tanh))
    return None if None in loops else loops


# numpy's float32 loops of np.exp and np.tanh, each as (function, data)
# addresses, for the compiled GRU forward; None on einsum, or where the check
# in _ufunc_loop fails, and then the forward steps in numpy
UFUNC_LOOPS = None if KERNEL == "einsum" else _ufunc_loops()


def _readable(*arrays) -> bool:
    """Whether the kernel can read each array: float32, C-contiguous, aligned."""
    return all(a.dtype == _F32 and a.flags.c_contiguous and a.flags.aligned for a in arrays)


def _gru_runs(x, *arrays) -> bool:
    """Whether a compiled GRU loop can run: not on einsum, ``x`` float32 and
    aligned at whole-element strides, and every cell array readable."""
    return (KERNEL != "einsum" and x.dtype == _F32 and x.flags.aligned
            and not any(s % 4 for s in x.strides) and _readable(*arrays))


def gru_backward(x, caches, grad, carry, dx, cell) -> bool:
    """A GRU cell's whole backward time loop, t = T-1 down to 0, in one
    kernel call with the GIL released, with the bits of the numpy loop in
    ``layers.GruSequence`` (``matmul.c`` states the order).

    ``x`` is the cell's (B, T, x_dim) input, any strides; ``caches`` its
    forward's (h_prev, z|r, c, hc) blocks, each C-contiguous (T, B, w*h);
    ``grad`` the C-contiguous (B, T, h) or final (B, h) output gradient;
    ``carry`` (B, h) zeros. ``dx``, C-contiguous (B, T, x_dim), receives the
    gradient at ``x``, and ``cell``'s dW, dU, db_x and db_h accumulate.
    Returns False, touching nothing, where the loop steps in numpy instead:
    ``KERNEL == "einsum"``, another dtype than float32, or an ``x`` or cell
    array the kernel cannot read (unaligned, or a cell array that is not
    C-contiguous). MemoryError where the kernel cannot allocate its scratch.
    """
    if not _gru_runs(x, cell.W, cell.U, *cell.grads().values()):
        return False
    B, T, x_dim = x.shape
    if _kernels[KERNEL]["gru_back"](
            x.ctypes.data, *(s // 4 for s in x.strides), *(a.ctypes.data for a in caches),
            grad.ctypes.data, grad.ndim == 3, carry.ctypes.data, dx.ctypes.data,
            *(a.ctypes.data for a in (cell.W, cell.U, cell.dW, cell.dU, cell.db_x,
                                      cell.db_h)),
            B, T, x_dim, carry.shape[-1]):
        raise MemoryError(f"no memory for the {KERNEL} GRU backward's scratch")
    return True


def gru_forward(x, cell, ht, states, caches) -> bool:
    """A GRU cell's whole forward time loop in one kernel call with the GIL
    released, with the bits of the numpy loop in ``layers.GruSequence``
    (``matmul.c`` states the order). The call projects ``x W + b_x`` itself,
    in time chunks of at most 1,024 rows.

    ``x`` is the cell's (B, T, x_dim) input, any strides, B and T at least
    1; ``ht`` the C-contiguous (B, h) state before the first step, which
    receives the last. ``states``, a (B, T, h) array with C-contiguous rows,
    receives every step's state unless None. ``caches`` are None or the
    C-contiguous (T, B, w*h) (h_prev, z|r, c, hc) blocks the backward reads,
    as for :func:`gru_backward`. Returns False, touching nothing, where the
    loop steps in numpy instead: ``KERNEL == "einsum"``, no bound
    ``UFUNC_LOOPS``, another dtype than float32, or an ``x`` or cell array
    the kernel cannot read (unaligned, or a W, U, b_x or b_h that is not
    C-contiguous). MemoryError where the kernel cannot allocate its scratch.
    """
    if UFUNC_LOOPS is None or not _gru_runs(x, cell.W, cell.b_x, cell.U, cell.b_h):
        return False
    B, T, x_dim = x.shape
    out = (None, 0, 0) if states is None else (
        states.ctypes.data, *(s // 4 for s in states.strides[:2]))
    blocks = (None,) * 4 if caches is None else [a.ctypes.data for a in caches]
    if _kernels[KERNEL]["gru_fwd"](
            x.ctypes.data, *(s // 4 for s in x.strides),
            *(a.ctypes.data for a in (cell.W, cell.b_x, cell.U, cell.b_h)), ht.ctypes.data,
            *out, *blocks, *UFUNC_LOOPS[0], *UFUNC_LOOPS[1], B, T, x_dim, ht.shape[-1]):
        raise MemoryError(f"no memory for the {KERNEL} GRU forward's scratch")
    return True


def adam_step(p, m, v, g, scalars) -> bool:
    """One Adam update of parameter ``p`` and its moments ``m`` and ``v``
    from gradient ``g``, in place, in one kernel call with the GIL released,
    with the bits of ``trainer.Adam``'s numpy step (``matmul.c`` states the
    order). ``scalars`` are b1, 1 - b1, b2, 1 - b2, lr, c1, c2 and eps, each
    rounded to float32 here as numpy rounds a Python float or int against a
    float32 array. Returns False, and touches nothing, where the step runs in
    numpy instead: ``KERNEL == "einsum"``; a scalar that is not exactly a
    Python float or int (``np.float64`` subclasses float but is not weakly
    typed, so numpy would make the step in float64); or arrays that are not
    all float32, C-contiguous, aligned, writeable and of ``p``'s shape."""
    if KERNEL == "einsum" or not all(type(x) in (float, int) for x in scalars) \
            or not _readable(p, m, v, g) or not all(
                a.flags.writeable and a.shape == p.shape for a in (p, m, v, g)):
        return False
    s = np.array(scalars, _F32)
    _kernels[KERNEL]["adam"](p.ctypes.data, m.ctypes.data, v.ctypes.data, g.ctypes.data,
                             p.size, s.ctypes.data)
    return True


def _batch_norm_runs(x, *vectors) -> bool:
    """Whether BatchNorm's passes over ``x`` run in the kernel: not on
    einsum, ``x`` an (N, C) array with C >= 2 and each vector a (C,) one, all
    of them readable. One channel stays in numpy, which sums a lone column
    pairwise, not row by row."""
    return (KERNEL != "einsum" and x.ndim == 2 and x.shape[1] >= 2
            and all(v.shape == x.shape[1:] for v in vectors) and _readable(x, *vectors))


def _mean(total, n: int):
    """A mean from its float32 sum over n rows, in place, as numpy's mean and
    var divide: by the count as an intp, so in float64, cast back to float32."""
    return np.true_divide(total, np.intp(n), out=total, casting="unsafe")


def batch_norm_stats(x):
    """``(x.mean(axis=0), x.var(axis=0))`` of a float32 (N, C) ``x`` with
    numpy's bits: the column sums and the sums of squared deviations are two
    kernel passes, and each is divided as numpy divides it. None where
    :func:`_batch_norm_runs` is false, and numpy computes them instead."""
    if not _batch_norm_runs(x):
        return None
    n, c = x.shape
    sums = _kernels[KERNEL]["bn_sums"]
    mean, var = np.empty(c, _F32), np.empty(c, _F32)
    sums(x.ctypes.data, None, n, c, mean.ctypes.data)
    sums(x.ctypes.data, _mean(mean, n).ctypes.data, n, c, var.ctypes.data)
    return mean, _mean(var, n)


def batch_norm_apply(x, mean, inv_std, gamma, beta):
    """``gamma * ((x - mean) * inv_std) + beta`` for a float32 (N, C) ``x``
    and (C,) vectors, with numpy's bits, in one kernel pass; None where
    :func:`_batch_norm_runs` is false, and numpy computes it instead."""
    if not _batch_norm_runs(x, mean, inv_std, gamma, beta):
        return None
    out = np.empty(x.shape, _F32)
    _kernels[KERNEL]["bn_out"](*(a.ctypes.data for a in (x, mean, inv_std, gamma, beta)),
                               *x.shape, out.ctypes.data)
    return out


def batch_norm_backward(d, x, mean, inv_std, gamma, d_gamma, d_beta):
    """BatchNorm's train-mode backward with the bits of ``layers.BatchNorm``'s
    numpy expressions, for output gradient ``d`` and input ``x``, both float32
    (N, C): adds to ``d_gamma`` and ``d_beta`` and returns dx. Two kernel
    passes make the (N, C) work, the five column sums and then dx; the (C,)
    work between them stays in numpy, in the numpy expressions' order. None
    where :func:`_batch_norm_runs` is false or ``x`` is not ``d``'s shape, and
    the layer computes it in numpy instead."""
    if x.shape != d.shape or not _batch_norm_runs(
            d, mean, inv_std, gamma, d_gamma, d_beta) or not _readable(x):
        return None
    n, c = d.shape
    kernel = _kernels[KERNEL]
    common = [a.ctypes.data for a in (d, x, mean, inv_std, gamma)]
    s, cube = np.empty((5, c), _F32), inv_std ** 3
    kernel["bn_back"](*common, cube.ctypes.data, n, c, s.ctypes.data)
    d_gamma += s[0]
    d_beta += s[1]
    dvar = s[2]
    dmean = s[3] + dvar * _mean(s[4], n)
    a, b, dx = dvar * 2.0, dmean / n, np.empty((n, c), _F32)
    kernel["bn_dx"](*common, a.ctypes.data, b.ctypes.data, float(n), n, c, dx.ctypes.data)
    return dx


def scatter_add(table, ids, rows) -> bool:
    """``np.add.at(table, ids, rows)`` for a float32 (V, E) ``table``, (n,)
    ``ids`` and (n, E) ``rows``, in one kernel call with numpy's bits: each
    row is added to its id's row in order. Returns False, touching nothing,
    where numpy makes it instead: ``KERNEL == "einsum"``, ``ids`` not a
    C-contiguous intp vector, an array the kernel cannot read, a read-only
    ``table``, or an id outside [0, V), which numpy wraps or rejects."""
    if (KERNEL == "einsum" or ids.dtype != np.intp or ids.ndim != 1
            or not (ids.flags.c_contiguous and ids.flags.aligned) or table.ndim != 2
            or rows.shape != (ids.size, table.shape[1]) or not table.flags.writeable
            or not _readable(table, rows)):
        return False
    return not _kernels[KERNEL]["embed_back"](
        table.ctypes.data, ids.ctypes.data, rows.ctypes.data, ids.size, table.shape[1],
        table.shape[0])


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x), evaluated without overflow on either tail.

    With e = exp(-|x|) this is 1 / (1 + e) for x >= 0 and e / (1 + e)
    otherwise. ``minimum(x, -x)`` is -|x| that passes a NaN through with its
    own sign and payload. The numerator is ``maximum(e, x >= 0)``, without a
    branch: e lies in [0, 1], so that is 1 for x >= 0 and e otherwise, and
    ``maximum`` passes e's NaN through. So every output bit, NaN included,
    equals the per-branch evaluation.
    """
    e = np.exp(np.minimum(x, -x))
    return np.maximum(e, (x >= 0).astype(e.dtype)) / (1 + e)


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
