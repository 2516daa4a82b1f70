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
from sentigru import numerics
from sentigru.layers import softmax_cross_entropy
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


LAYOUTS = ("contiguous", "a transposed", "x[:, ::-1][:, t].T", "rows strided",
           "stacked 1", "stacked 2", "b transposed")


def operands(layout, m, k, n, sample):
    """(a, b) of a product in one of the layouts the layers use."""
    if layout == "contiguous":
        return sample(m, k), sample(k, n)
    if layout == "a transposed":                      # h_prev.T in dU
        return sample(k, m).T, sample(k, n)
    if layout == "x[:, ::-1][:, t].T":                # x.T in dW, second cell
        return sample(k, 3, m)[:, ::-1][:, 1].T, sample(k, n)
    if layout == "rows strided":                      # one time step of x
        return sample(m, 3, k)[:, ::-1][:, 1], sample(k, n)
    if layout.startswith("stacked"):                  # h U for D cells
        D = int(layout[-1])
        return sample(D, m, k), sample(D, k, n)
    return sample(m, k), sample(n, k).T               # d_g U.T and d_g W.T


def sampler(dtype, seed, specials):
    """Draws standard normals with about 5% replaced by the chosen specials:
    "inf" (signed zeros, subnormals, infinities and values that overflow),
    "nan" (signed zeros, subnormals and one NaN of random bits: the only NaN
    bits the product can hold) or "mixed" (all of these, two NaNs)."""
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
    pool += {"inf": inf, "nan": [a_nan()], "mixed": inf + [a_nan(), a_nan()]}[specials]
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
@example(layout="stacked 2", m=64, k=120, n=360, specials="inf", seed=3)
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
    calls = []
    with mock.patch.object(numerics, "_product",
                           lambda *args: calls.append(args) or einsum(*args[:2])):
        numerics.matmul(a[:numerics.MIN_ROWS - 1], b)                 # too few rows
        numerics.matmul(a[:, :2], b[:2, :2])                          # too few MACs
        assert not calls
        numerics.matmul(a, b)
        assert len(calls) == 1
        with mock.patch.object(numerics, "KERNEL", "einsum"):
            numerics.matmul(a, b)
        assert len(calls) == 1


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
            mock.patch.object(numerics, "_product", lambda a, b, *_: einsum(a, b) + 1):
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


def test_sanitized_kernel_has_einsum_bits(tmp_path):
    """matmul.c built with AddressSanitizer and UBSan, bound with numerics'
    own helper in a child Python that preloads their runtimes: every variant
    on every layout above, over tile and tail edges, reads and writes nothing
    outside its operands and matches einsum byte for byte."""
    if not X86:
        pytest.skip("the kernel is built only on x86-64")
    if shutil.which(numerics.CC) is None:
        pytest.skip(f"no C compiler {numerics.CC!r} on PATH")
    runtimes = [subprocess.run([numerics.CC, f"-print-file-name={name}"], text=True,
                               capture_output=True).stdout.strip()
                for name in ("libasan.so", "libubsan.so")]
    if not all(os.path.isabs(path) for path in runtimes):
        pytest.skip(f"{numerics.CC} has no libasan.so or libubsan.so")
    library = tmp_path / "matmul-sanitized.so"
    build = subprocess.run([numerics.CC, "-O1", "-g", "-ffp-contract=off",
                            "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
                            "-shared", "-fPIC", str(numerics._SOURCE), "-o", str(library)],
                           text=True, capture_output=True, timeout=300)
    assert build.returncode == 0, build.stderr
    env = dict(os.environ, LD_PRELOAD=" ".join(runtimes), ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    child = subprocess.run([sys.executable, "-c", SANITIZED_CHILD, str(library)], env=env,
                           text=True, capture_output=True, timeout=300)
    assert child.returncode == 0, child.stderr[-4000:]
    variants, products = child.stdout.split()[:-1], int(child.stdout.split()[-1])
    cases = len(LAYOUTS) * int(np.prod([len(sizes) for sizes in SANITIZED_SHAPES]))
    assert variants == numerics.variants() and products == cases * len(variants)


def two_step_hash(B):
    """sha256 over two paper-size float32 train steps at batch B: logits,
    every gradient and every parameter after each Adam update."""
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
        for part in [logits] + [g for _, _, g in triples] + [p for _, p, _ in triples]:
            digest.update(part.tobytes())
    return digest.hexdigest()


@pytest.mark.skipif(not BUILDS, reason="the kernel builds only on x86-64 with a C compiler")
@pytest.mark.parametrize("B", [1, 16, 64])
def test_paper_size_steps_equal_with_kernel_on_and_off(B):
    on = two_step_hash(B)
    with mock.patch.object(numerics, "KERNEL", "einsum"):
        off = two_step_hash(B)
    assert on == off
