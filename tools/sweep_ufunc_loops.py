"""Every float32 bit pattern through the exp and tanh loops numerics binds.

The compiled GRU forward calls numpy's own float32 loops of ``np.exp`` and
``np.tanh`` at the addresses ``sentigru.numerics`` reads from the ufunc
objects at import (``numerics.UFUNC_LOOPS``). The import checks them on a
short vector of special values; this runs all 2^32 bit patterns through
both, in chunks, and compares each output byte for byte with the ufunc's.
It takes about a minute, so it is not a test and pytest does not collect it.
Rerun it after any change to how numerics binds the loops:

    PYTHONPATH=src python tools/sweep_ufunc_loops.py

Prints the mismatch count of each ufunc and the run time. Exits 1 on any
mismatch or when the loops are not bound (no compiled kernel, or a failed
import check).
"""

import sys
import time

import numpy as np

from sentigru import numerics

# values per chunk: 16 MB arrays of inputs and of outputs
CHUNK = 1 << 22


def sweep(ufunc, loop) -> int:
    """Mismatches of ``loop`` against ``ufunc`` over all 2^32 patterns."""
    offsets = np.arange(CHUNK, dtype=np.uint32)
    out = np.empty(CHUNK, np.float32)
    mismatches = 0
    with np.errstate(all="ignore"):
        for start in range(0, 1 << 32, CHUNK):
            x = (offsets + np.uint32(start)).view(np.float32)
            numerics._apply(loop, x, out, CHUNK)
            mismatches += int(np.count_nonzero(out.view(np.uint32)
                                               != ufunc(x).view(np.uint32)))
    return mismatches


def main() -> int:
    print(f"numpy {np.__version__}, kernel {numerics.KERNEL}")
    if numerics.UFUNC_LOOPS is None:
        print("no bound loops: the forward steps in numpy")
        return 1
    total = 0
    for ufunc, loop in zip((np.exp, np.tanh), numerics.UFUNC_LOOPS):
        start = time.perf_counter()
        mismatches = sweep(ufunc, loop)
        total += mismatches
        print(f"{ufunc.__name__}: {mismatches} mismatches in 2^32 values, "
              f"{time.perf_counter() - start:.1f} s")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
