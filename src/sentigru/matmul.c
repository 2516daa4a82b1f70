/* float32 matrix products with the exact bits of numpy's einsum, and the
 * GRU, Adam, BatchNorm and scatter-add loops built on them, for
 * sentigru.numerics. Plain C with x86-64 intrinsics and no numpy headers;
 * numerics builds it with the C compiler on PATH on x86-64 hosts only, loads
 * it with ctypes and checks its products against einsum before using it.
 * The products run inside the entries below and numerics' import probe;
 * numerics.matmul itself is einsum. Float64 and every other dtype stay in
 * numpy, which gives them the same bits.
 *
 * Two reduction orders are reproduced:
 *
 * sg_rows: c = a b with b C-contiguous and a of any element strides. Each
 *   output starts at zero and adds the products over k in
 *   order, each product rounded before its add: einsum's stride-0 times
 *   contiguous loop.
 *
 * sg_dot: c = a w^T with a and w C-contiguous (the right operand is the
 *   transposed view of w). This is einsum's dot loop at numpy's baseline
 *   SIMD width: per output, a vector of 4 float lanes starts at zero; each
 *   group of 16 k is applied as chunks of 4, in the order 3, 2, 1, 0,
 *   product then add; the rest follows chunk by chunk in order, the last one
 *   zero-padded; the lanes are summed (l0 + l1) + (l2 + l3), and that sum is
 *   added to zero.
 *
 * Register tiles hold several outputs at once, but every output goes
 * through the same operations in the same order in every tile and in every
 * instruction-set variant (AVX-512, AVX2 and SSE3), so the variant changes
 * only the speed. Build with -ffp-contract=off: a fused multiply-add rounds
 * once where einsum rounds twice.
 *
 * sg_gru_back: one GRU cell's whole backward time loop, t = T-1 down to 0,
 *   with numpy's bits (sentigru.layers.GruSequence's loop is the reference).
 *   Each step adds the output gradient to the carry (0 + g at the first
 *   step), runs the gate algebra as the same float32 -, * and + in numpy's
 *   order with 1.0f for the constant 1.0, writes the step's d_gx, and sets
 *   dh_prev = dh z. Then it adds each step's rounded product or sum into a
 *   gradient: dW += x_t^T d_gx and dU += h_prev^T d_gh in sg_rows' order,
 *   db_x and db_h += sum over b in order starting from +0.0 (float32
 *   sum(axis=0) for any width >= 2), and dh_prev += d_gh U^T in sg_dot's
 *   order; and it writes the input's gradient dx_t = d_gx W^T in sg_dot's
 *   order. It runs no exp or tanh. It allocates its scratch (d_gx, d_gh and
 *   U and W packed once per call) and frees it before it returns; ctypes
 *   releases the GIL for the call.
 *
 * sg_gru_fwd: one GRU cell's forward time loop, t = 0 to T-1, with numpy's
 *   bits (GruSequence._step is the reference). It projects the input x W in
 *   sg_rows' order, in time chunks of at most ROWS rows, one product per
 *   batch row and chunk; a product's row does not depend on the rows that
 *   share it, so these are a per-step product's bits. Each step makes the
 *   numpy step's float32 operations in its order, with 1.0f for the
 *   constants: gx = x W + b_x; gh = h_prev U in sg_rows' order at any
 *   batch, then + b_h; s = gx + gh over the z and r columns, and their
 *   sigmoid as numerics.sigmoid composes it, e = exp(minimum(s, -s)), then
 *   maximum(e, s >= 0) / (1 + e); c = tanh(gx_c + r hc) with hc the
 *   candidate columns of gh; h = z h_prev + (1 - z) c. It writes every
 *   state or only the last, and in train mode the four cache blocks
 *   sg_gru_back reads, in place. It computes no exp or tanh of its own:
 *   numerics passes numpy's float32 inner loops of np.exp and np.tanh, read
 *   from the ufunc objects and checked at import, and each step calls each
 *   once over the batch's contiguous arguments into a separate output, as
 *   numpy's own call does.
 *   Called from here, those loops run outside numpy's error handling: they
 *   raise no numpy floating-point warning, and np.errstate does not apply.
 *   It allocates its scratch (the projection chunk among it) and frees it
 *   before it returns; ctypes releases the GIL for the call.
 *
 * sg_adam: one Adam step over a parameter's n contiguous floats with the bits
 *   of trainer.Adam's numpy step, in one pass. It makes numpy's float32
 *   operations in numpy's order: m = m b1, then m + (1 - b1) g; v = v b2,
 *   then v + (1 - b2) (g g); then p - (lr (m / c1)) / (sqrt(v / c2) + eps).
 *   Each scalar arrives rounded to float32 as numpy rounds a Python float
 *   against a float32 array (NEP 50), so an lr past float32's range is inf
 *   and one below its smallest subnormal is 0, as in numpy. Every operation
 *   is correctly rounded, and -ffp-contract=off keeps each product rounded
 *   before its add, as numpy rounds it; a fused multiply-add would round
 *   once. It allocates nothing; ctypes releases the GIL for the call.
 *
 * sg_bn_sums, sg_bn_out, sg_bn_back and sg_bn_dx: the (N, C) passes of
 *   sentigru.layers.BatchNorm's forward and backward with numpy's bits, over
 *   C-contiguous rows of C >= 2 channels. Each column sum starts at +0.0 and
 *   adds the rows in order, which is float32 sum(axis=0) for C >= 2 (one
 *   column numpy sums pairwise). Each elementwise operation is numpy's, in
 *   numpy's order, with its Python constants rounded to float32, and -x is a
 *   sign flip, as numpy negates. numerics makes the per-channel (C,) math
 *   between the passes in numpy: the divisions by N, the moving statistics,
 *   1 / sqrt(var + eps) and inv_std ** 3.
 *
 * sg_embed_back: np.add.at(dW, ids, g) for rows of E floats, as numpy makes
 *   it: dW[ids[i]] = dW[ids[i]] + g[i] for i in order. It writes nothing when
 *   an id lies outside the table.
 *
 * The file includes itself once per variant with SG_BODY defined; that part
 * holds the kernels and exports each entry as <entry>_<variant> (sg_rows_avx512,
 * ..., sg_adam_sse3). sg_runs_<variant>() says whether this CPU runs a
 * variant; numerics calls them once, at import, and binds the entries of those
 * that run.
 */
#ifndef SG_BODY

#include <immintrin.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

#define SG_CAT_(a, b) a##_##b
#define SG_CAT(a, b) SG_CAT_(a, b)
#define FN(name) SG_CAT(name, ISA)
#define INLINE static inline __attribute__((always_inline))
#define SG_UNROLL _Pragma("GCC unroll 16")
#define ROWS 1024               /* input rows per sg_gru_fwd projection chunk */

/* The first n < 4 floats at p, zeros above them, reading nothing past them. */
INLINE __m128 q_load_n(const float *p, ptrdiff_t n)
{
    float t[4] = {0, 0, 0, 0};
    memcpy(t, p, (size_t)n * sizeof *p);
    return _mm_loadu_ps(t);
}

/* numpy's inner loop of a ufunc, as its ufunc object lists it: args, the
 * element count and the byte steps of each operand, and the loop's data. */
typedef void (*sg_loop)(char **args, const ptrdiff_t *dims, const ptrdiff_t *steps,
                        void *data);

/* out[i] = f(in[i]) over n contiguous floats, by numpy's float32 loop f; in
 * and out do not overlap, as in numpy's own call with a fresh output. */
static void sg_apply(sg_loop f, void *data, const float *in, float *out, ptrdiff_t n)
{
    char *args[2] = {(char *)in, (char *)out};
    ptrdiff_t steps[2] = {sizeof *in, sizeof *out};
    f(args, &n, steps, data);
}

#define SG_BODY

/* ---- SSE3: the baseline variant, 128-bit vectors ---- */
#pragma GCC push_options
#pragma GCC target("sse3")
#define ISA sse3
#define MR 2                            /* tile rows */
#define NV 4                            /* vectors per tile row */
#define V __m128
#define L 4
#define VM ptrdiff_t                    /* a tail mask: the lane count */
#define V_MASK(n) (n)
#define V_LOAD _mm_loadu_ps
#define V_STORE _mm_storeu_ps
#define V_LOAD_M(p, m) q_load_n(p, m)
#define V_STORE_M(p, m, v) do { float t_[4]; _mm_storeu_ps(t_, v); \
        memcpy(p, t_, (size_t)(m) * sizeof(float)); } while (0)
#define V_SET1 _mm_set1_ps
#define V_ZERO _mm_setzero_ps
#define V_MUL _mm_mul_ps
#define V_ADD _mm_add_ps
#define V_SUB _mm_sub_ps
#define V_DIV _mm_div_ps
#define V_SQRT _mm_sqrt_ps
#define V_NEG(v) _mm_xor_ps(v, _mm_set1_ps(-0.0f))
#define V_MIN _mm_min_ps
#define V_MAX _mm_max_ps
#define V_GE0(s, one) _mm_and_ps(_mm_cmpge_ps(s, _mm_setzero_ps()), one)
#define V_BCAST(q) (q)
#define V_LANE(v, i) (v)
#include "matmul.c"
#pragma GCC pop_options

/* ---- AVX2: 256-bit vectors ---- */
#pragma GCC push_options
#pragma GCC target("avx2")
#define ISA avx2
#define MR 4
#define NV 2
#define V __m256
#define L 8
#define VM __m256i
#define V_MASK(n) _mm256_cmpgt_epi32(_mm256_set1_epi32((int)(n)), \
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
#define V_LOAD _mm256_loadu_ps
#define V_STORE _mm256_storeu_ps
#define V_LOAD_M(p, m) _mm256_maskload_ps(p, m)
#define V_STORE_M(p, m, v) _mm256_maskstore_ps(p, m, v)
#define V_SET1 _mm256_set1_ps
#define V_ZERO _mm256_setzero_ps
#define V_MUL _mm256_mul_ps
#define V_ADD _mm256_add_ps
#define V_SUB _mm256_sub_ps
#define V_DIV _mm256_div_ps
#define V_SQRT _mm256_sqrt_ps
#define V_NEG(v) _mm256_xor_ps(v, _mm256_set1_ps(-0.0f))
#define V_MIN _mm256_min_ps
#define V_MAX _mm256_max_ps
#define V_GE0(s, one) _mm256_and_ps(_mm256_cmp_ps(s, _mm256_setzero_ps(), _CMP_GE_OQ), one)
#define V_BCAST(q) _mm256_set_m128(q, q)
#define V_LANE(v, i) ((i) ? _mm256_extractf128_ps(v, 1) : _mm256_castps256_ps128(v))
#include "matmul.c"
#pragma GCC pop_options

/* ---- AVX-512 (F and VL): 512-bit vectors ---- */
#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl")
#define ISA avx512
#define MR 4
#define NV 4
#define V __m512
#define L 16
#define VM __mmask16
#define V_MASK(n) ((__mmask16)((1u << (n)) - 1))
#define V_LOAD _mm512_loadu_ps
#define V_STORE _mm512_storeu_ps
#define V_LOAD_M(p, m) _mm512_maskz_loadu_ps(m, p)
#define V_STORE_M(p, m, v) _mm512_mask_storeu_ps(p, m, v)
#define V_SET1 _mm512_set1_ps
#define V_ZERO _mm512_setzero_ps
#define V_MUL _mm512_mul_ps
#define V_ADD _mm512_add_ps
#define V_SUB _mm512_sub_ps
#define V_DIV _mm512_div_ps
#define V_SQRT _mm512_sqrt_ps
#define V_NEG(v) _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(v), \
        _mm512_set1_epi32((int)0x80000000)))
#define V_MIN _mm512_min_ps
#define V_MAX _mm512_max_ps
#define V_GE0(s, one) _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(s, _mm512_setzero_ps(), \
        _CMP_GE_OQ), one)
#define V_BCAST(q) _mm512_broadcast_f32x4(q)
#define V_LANE(v, i) ((i) == 0 ? _mm512_extractf32x4_ps(v, 0) : \
        (i) == 1 ? _mm512_extractf32x4_ps(v, 1) : \
        (i) == 2 ? _mm512_extractf32x4_ps(v, 2) : _mm512_extractf32x4_ps(v, 3))
#include "matmul.c"
#pragma GCC pop_options

/* Whether this CPU runs each variant. Compiled for the baseline, outside
 * every target pragma, so that any x86-64 CPU can call them. */
int sg_runs_sse3(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse3");
}

int sg_runs_avx2(void)
{
    return sg_runs_sse3() && __builtin_cpu_supports("avx2");
}

int sg_runs_avx512(void)
{
    return sg_runs_avx2() && __builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512vl");
}

#else  /* SG_BODY: the kernels of one instruction set (ISA) */

/* One tile of sg_rows: mr rows by nv vectors of columns, the rows of b and
 * of c ldb and ldc floats apart. With `full` every column exists; otherwise
 * the last vector holds only the first `cols` - (nv - 1) L of its columns,
 * and the rest are neither read nor written. With `add` each output is added
 * to c, c + product as numpy's +=, instead of stored. */
INLINE void FN(rows_tile)(const float *a, ptrdiff_t si, ptrdiff_t sk, const float *b,
                          ptrdiff_t ldb, float *c, ptrdiff_t ldc, ptrdiff_t k,
                          ptrdiff_t cols, const int mr, const int nv, const int full,
                          const int add)
{
    V acc[MR][NV];
    VM last = V_MASK(full ? L : cols - (nv - 1) * L);
    SG_UNROLL
    for (int r = 0; r < mr; r++) {
        SG_UNROLL
        for (int v = 0; v < nv; v++)
            acc[r][v] = V_ZERO();
    }
    for (ptrdiff_t kk = 0; kk < k; kk++) {
        V bv[NV];
        SG_UNROLL
        for (int v = 0; v < nv; v++)
            bv[v] = full || v < nv - 1 ? V_LOAD(b + kk * ldb + v * L)
                                       : V_LOAD_M(b + kk * ldb + v * L, last);
        SG_UNROLL
        for (int r = 0; r < mr; r++) {
            V av = V_SET1(a[r * si + kk * sk]);
            SG_UNROLL
            for (int v = 0; v < nv; v++)
                acc[r][v] = V_ADD(V_MUL(bv[v], av), acc[r][v]);
        }
    }
    SG_UNROLL
    for (int r = 0; r < mr; r++) {
        SG_UNROLL
        for (int v = 0; v < nv; v++) {
            float *cv = c + r * ldc + v * L;
            if (full || v < nv - 1)
                V_STORE(cv, add ? V_ADD(V_LOAD(cv), acc[r][v]) : acc[r][v]);
            else
                V_STORE_M(cv, last, add ? V_ADD(V_LOAD_M(cv, last), acc[r][v]) : acc[r][v]);
        }
    }
}

/* Every row of the columns j..j+cols-1, in tiles of nv vectors. */
INLINE void FN(rows_cols)(const float *a, ptrdiff_t si, ptrdiff_t sk, const float *b,
                          ptrdiff_t ldb, float *c, ptrdiff_t ldc, ptrdiff_t m, ptrdiff_t k,
                          ptrdiff_t j, ptrdiff_t cols, const int nv, const int full,
                          const int add)
{
    ptrdiff_t i = 0;
    for (; i + MR <= m; i += MR)
        FN(rows_tile)(a + i * si, si, sk, b + j, ldb, c + i * ldc + j, ldc, k, cols, MR,
                      nv, full, add);
    for (; i < m; i++)
        FN(rows_tile)(a + i * si, si, sk, b + j, ldb, c + i * ldc + j, ldc, k, cols, 1,
                      nv, full, add);
}

/* c = a b, or c += a b with `add`, in sg_rows' order: a is m x k at element
 * strides (si, sk), b is k x n and c is m x n, their rows ldb and ldc apart. */
INLINE void FN(rows_product)(const float *a, ptrdiff_t si, ptrdiff_t sk, const float *b,
                             ptrdiff_t ldb, float *c, ptrdiff_t ldc, ptrdiff_t m,
                             ptrdiff_t k, ptrdiff_t n, const int add)
{
    ptrdiff_t j = 0;
    for (; j + NV * L <= n; j += NV * L)
        FN(rows_cols)(a, si, sk, b, ldb, c, ldc, m, k, j, NV * L, NV, 1, add);
    for (; j + L <= n; j += L)
        FN(rows_cols)(a, si, sk, b, ldb, c, ldc, m, k, j, L, 1, 1, add);
    if (j < n)
        FN(rows_cols)(a, si, sk, b, ldb, c, ldc, m, k, j, n - j, 1, 0, add);
}

/* c = a b: a is m x k at element strides (si, sk), b k x n and c m x n
 * C-contiguous. */
void FN(sg_rows)(const float *a, const float *b, float *c, ptrdiff_t m, ptrdiff_t k,
                 ptrdiff_t n, ptrdiff_t si, ptrdiff_t sk)
{
    FN(rows_product)(a, si, sk, b, n, c, n, m, k, n, 0);
}

/* c += a b in sg_rows' order, as rows_product: one copy for sg_gru_back's two
 * products, which keeps the library's build time down. */
static void FN(rows_add)(const float *a, ptrdiff_t si, ptrdiff_t sk, const float *b,
                         ptrdiff_t ldb, float *c, ptrdiff_t ldc, ptrdiff_t m, ptrdiff_t k,
                         ptrdiff_t n)
{
    FN(rows_product)(a, si, sk, b, ldb, c, ldc, m, k, n, 1);
}

/* sg_dot's packed operand: w's rows cut into 16-byte chunks of CH floats
 * and stored chunk-major, p[(q * np + j) * CH + e] = w[j, q * CH + e], with
 * zeros past k and in the padding rows n..np-1, so that one vector load
 * fetches chunk q of CPV consecutive outputs. */
#define CH ((ptrdiff_t)4)
#define CPV (L / CH)                    /* outputs per vector */
#define NC (NV * CPV)                   /* outputs per tile row */

/* Chunk q of a row of a, in every 16-byte lane; a row's last chunk may be
 * partial, and is then zero-padded as numpy's tail load pads it. */
INLINE V FN(a_chunk)(const float *row, ptrdiff_t q, ptrdiff_t k, const int whole)
{
    ptrdiff_t left = k - q * CH;
    return V_BCAST(whole || left >= CH ? _mm_loadu_ps(row + q * CH)
                                       : q_load_n(row + q * CH, left));
}

/* The lane sums of one tile row's NC outputs, each added to zero, into the
 * first `cols` of c, or added to them with `add` (c + sum, as numpy's +=).
 * The 128-bit hadds pair lanes as numpy's npyv_sum does: (l0 + l1) + (l2 + l3). */
INLINE void FN(dot_finish)(V *acc, float *c, ptrdiff_t cols, const int add)
{
    __m128 x[NC];
    SG_UNROLL
    for (int j = 0; j < NC; j++)
        x[j] = V_LANE(acc[j / CPV], j % CPV);
    SG_UNROLL
    for (int j = 0; j < NC; j += CH) {
        if (cols <= j)
            break;
        ptrdiff_t left = cols - j < CH ? cols - j : CH;
        float out[4];
        __m128 s = _mm_hadd_ps(_mm_hadd_ps(x[j], x[j + 1]), _mm_hadd_ps(x[j + 2], x[j + 3]));
        s = _mm_add_ps(_mm_setzero_ps(), s);
        if (add)
            s = _mm_add_ps(left == CH ? _mm_loadu_ps(c + j) : q_load_n(c + j, left), s);
        _mm_storeu_ps(out, s);
        memcpy(c + j, out, (size_t)left * sizeof(float));
    }
}

/* One tile of sg_dot: mr rows of c, ldc floats apart, NC columns starting
 * where p and c point, of which the first `cols` exist. */
INLINE void FN(dot_tile)(const float *a, const float *p, float *c, ptrdiff_t k,
                         ptrdiff_t ldc, ptrdiff_t np, ptrdiff_t cols, const int mr,
                         const int add)
{
    ptrdiff_t nq = (k + CH - 1) / CH, groups = k / (4 * CH);
    V acc[MR][NV];
    SG_UNROLL
    for (int r = 0; r < MR; r++) {
        SG_UNROLL
        for (int v = 0; v < NV; v++)
            acc[r][v] = V_ZERO();
    }
#define SG_DOT_CHUNK(q, whole)                                            \
    do {                                                                  \
        V bv[NV];                                                         \
        SG_UNROLL                                                         \
        for (int v = 0; v < NV; v++)                                      \
            bv[v] = V_LOAD(p + ((q) * np + v * CPV) * CH);                \
        SG_UNROLL                                                         \
        for (int r = 0; r < MR; r++) {                                    \
            if (r >= mr)                                                  \
                break;                                                    \
            V av = FN(a_chunk)(a + r * k, q, k, whole);                   \
            SG_UNROLL                                                     \
            for (int v = 0; v < NV; v++)                                  \
                acc[r][v] = V_ADD(V_MUL(av, bv[v]), acc[r][v]);           \
        }                                                                 \
    } while (0)
    for (ptrdiff_t g = 0; g < groups; g++)
        for (ptrdiff_t q = 4 * g + 3; q >= 4 * g; q--)
            SG_DOT_CHUNK(q, 1);
    for (ptrdiff_t q = 4 * groups; q < nq; q++)
        SG_DOT_CHUNK(q, 0);
#undef SG_DOT_CHUNK
    SG_UNROLL
    for (int r = 0; r < MR; r++) {
        if (r >= mr)
            break;
        FN(dot_finish)(acc[r], c + r * ldc, cols, add);
    }
}

/* Packs w (n, k), C-contiguous, into p, which holds zeros on entry. */
INLINE void FN(dot_pack)(const float *w, float *p, ptrdiff_t k, ptrdiff_t n, ptrdiff_t np)
{
    ptrdiff_t nq = (k + CH - 1) / CH, whole = k / CH;
    for (ptrdiff_t j = 0; j < n; j++) {
        for (ptrdiff_t q = 0; q < whole; q++)
            memcpy(p + (q * np + j) * CH, w + j * k + q * CH, 16);
        if (whole < nq)
            memcpy(p + (whole * np + j) * CH, w + j * k + whole * CH,
                   (size_t)(k - whole * CH) * sizeof *p);
    }
}

/* c = a w^T, or c += a w^T with `add`, from w packed in p; a (m, k)
 * C-contiguous and c (m, n) with C-contiguous rows ldc floats apart. Rows
 * outside, so a tile's rows of a stay in cache across the columns. */
INLINE void FN(dot_rows)(const float *a, const float *p, float *c, ptrdiff_t ldc,
                         ptrdiff_t m, ptrdiff_t k, ptrdiff_t n, ptrdiff_t np, const int add)
{
    ptrdiff_t i = 0;
    for (; i + MR <= m; i += MR)
        for (ptrdiff_t j = 0; j < n; j += NC)
            FN(dot_tile)(a + i * k, p + j * CH, c + i * ldc + j, k, ldc, np,
                         n - j < NC ? n - j : NC, MR, add);
    for (; i < m; i++)
        for (ptrdiff_t j = 0; j < n; j += NC)
            FN(dot_tile)(a + i * k, p + j * CH, c + i * ldc + j, k, ldc, np,
                         n - j < NC ? n - j : NC, 1, add);
}

/* c = a w^T with a (m, k), w (n, k) and c (m, n) C-contiguous. Returns 0, or
 * -1 when the packing buffer cannot be allocated. */
int FN(sg_dot)(const float *a, const float *w, float *c, ptrdiff_t m, ptrdiff_t k,
               ptrdiff_t n)
{
    ptrdiff_t np = (n + NC - 1) / NC * NC;
    float *p = calloc((size_t)((k + CH - 1) / CH * np * CH), sizeof *p);
    if (!p)
        return -1;
    FN(dot_pack)(w, p, k, n, np);
    FN(dot_rows)(a, p, c, n, m, k, n, np, 0);
    free(p);
    return 0;
}

/* The row loops below step over the columns j of an n wide row L at a time:
 * COLUMNS(n) says whether L are left (`full`) and masks those that are (`m`);
 * LD and ST read and write the vector at column j of a row, past n nothing. */
#define COLUMNS(n) const int full = (n) - j >= L; VM m = V_MASK(full ? L : (n) - j)
#define LD(q) (full ? V_LOAD((q) + j) : V_LOAD_M((q) + j, m))
#define ST(q, v) do { if (full) V_STORE((q) + j, v); else V_STORE_M((q) + j, m, v); } while (0)

/* One row's gate algebra at one step, numpy's operations in numpy's order.
 * dh (h) holds the carry; g, the row's output gradient, is added to it unless
 * NULL; dh then becomes dh z. hp, zr = [z | r], c and hc are the row's
 * caches. The row of d_gx = [ds_z | ds_r | ds_c] and of d_gh = [ds_z | ds_r |
 * dhc] (3h each) is written, and added to the column sums [ds_z | ds_r | ds_c
 * | dhc] (4h). */
INLINE void FN(gru_row)(float *dh, const float *g, const float *hp, const float *zr,
                        const float *c, const float *hc, float *dgx, float *dgh,
                        float *sum, ptrdiff_t h)
{
    const V one = V_SET1(1.0f);
    for (ptrdiff_t j = 0; j < h; j += L) {
        COLUMNS(h);
        V d = LD(dh);
        if (g)
            d = V_ADD(d, LD(g));                              /* carry + grad */
        V z = LD(zr), r = LD(zr + h), cv = LD(c);
        V dz = V_MUL(d, V_SUB(LD(hp), cv));
        V dc = V_MUL(d, V_SUB(one, z));
        V dsc = V_MUL(dc, V_SUB(one, V_MUL(cv, cv)));         /* at the tanh input */
        V dr = V_MUL(dsc, LD(hc));
        V dhc = V_MUL(dsc, r);
        V dsz = V_MUL(V_MUL(dz, z), V_SUB(one, z));           /* at the sigmoid input */
        V dsr = V_MUL(V_MUL(dr, r), V_SUB(one, r));
        ST(dgx, dsz);
        ST(dgx + h, dsr);
        ST(dgx + 2 * h, dsc);
        ST(dgh, dsz);
        ST(dgh + h, dsr);
        ST(dgh + 2 * h, dhc);
        ST(dh, V_MUL(d, z));
        ST(sum, V_ADD(LD(sum), dsz));
        ST(sum + h, V_ADD(LD(sum + h), dsr));
        ST(sum + 2 * h, V_ADD(LD(sum + 2 * h), dsc));
        ST(sum + 3 * h, V_ADD(LD(sum + 3 * h), dhc));
    }
}

/* One GRU cell's backward time loop over a (B, T, X) input, t = T-1 down to
 * 0, with the bits of numpy's loop (see the header). x is read at element
 * strides (x_sb, x_st, x_si), so a time-reversed view needs no copy. The
 * forward's caches are C-contiguous (T, B, h) blocks hp, c and hc and a (T,
 * B, 2h) block zr of rows [z | r]. g, the output's gradient, is C-contiguous
 * (B, T, h) with `seq`, else (B, h) and added at t = T-1 only. dh, (B, h)
 * zeros on entry, holds dh_prev of t = 0 on return. dx, C-contiguous (B, T,
 * X), receives the input's gradient. W (X, 3h), U and dU (h, 3h), dW (X,
 * 3h), db_x and db_h (3h) are C-contiguous, and the gradients accumulate.
 * Returns 0, or -1 when its scratch cannot be allocated. */
int FN(sg_gru_back)(const float *x, ptrdiff_t x_sb, ptrdiff_t x_st, ptrdiff_t x_si,
                    const float *hp, const float *zr, const float *c, const float *hc,
                    const float *g, int seq, float *dh, float *dx, const float *W,
                    const float *U, float *dW, float *dU, float *dbx, float *dbh,
                    ptrdiff_t B, ptrdiff_t T, ptrdiff_t X, ptrdiff_t h)
{
    ptrdiff_t G = 3 * h, kq = (G + CH - 1) / CH * CH;     /* G in whole chunks */
    ptrdiff_t nu = (h + NC - 1) / NC * NC, nw = (X + NC - 1) / NC * NC;
    ptrdiff_t cs = B * h;                       /* one step of a cache block */
    /* the step's d_gx and d_gh (B, 3h each), the column sums (4h), and U and
     * W packed, zero-padded */
    float *dgx = calloc((size_t)(2 * B * G + 4 * h + kq * (nu + nw)), sizeof *dgx);
    if (!dgx)
        return -1;
    float *dgh = dgx + B * G, *sum = dgh + B * G, *pu = sum + 4 * h, *pw = pu + kq * nu;
    FN(dot_pack)(U, pu, G, h, nu);
    FN(dot_pack)(W, pw, G, X, nw);
    for (ptrdiff_t t = T - 1; t >= 0; t--) {
        const float *hp_t = hp + t * cs;
        memset(sum, 0, (size_t)(4 * h) * sizeof *sum);
        for (ptrdiff_t b = 0; b < B; b++)
            FN(gru_row)(dh + b * h, seq ? g + (b * T + t) * h : t == T - 1 ? g + b * h : NULL,
                        hp_t + b * h, zr + 2 * t * cs + b * 2 * h, c + t * cs + b * h,
                        hc + t * cs + b * h, dgx + b * G, dgh + b * G, sum, h);
        for (ptrdiff_t j = 0; j < G; j++)
            dbx[j] += sum[j];
        for (ptrdiff_t j = 0; j < 2 * h; j++)
            dbh[j] += sum[j];
        for (ptrdiff_t j = 0; j < h; j++)
            dbh[2 * h + j] += sum[3 * h + j];
        FN(rows_add)(x + t * x_st, x_si, x_sb, dgx, G, dW, G, X, B, G);
        FN(rows_add)(hp_t, 1, h, dgh, G, dU, G, h, B, G);
        FN(dot_rows)(dgh, pu, dh, h, B, G, h, nu, 1);
        FN(dot_rows)(dgx, pw, dx + t * X, T * X, B, G, X, nw, 0);
    }
    free(dgx);
    return 0;
}

/* One row of a forward step up to the exp: s = (gx + b_x) + (gh + b_h) over
 * the 2h columns of z and r, written as sigmoid's exp argument minimum(s,
 * -s) into ng and its numerator floor (s >= 0) into ge; and the recurrent
 * candidate hc = gh + b_h. -s is formed as 0 - s, which differs from numpy's negation
 * only where minimum does not pick it: s <= 0, or NaN, which minimum passes
 * through (the second operand, as numpy's minimum keeps its first). */
INLINE void FN(fwd_pre)(const float *gx, const float *bx, const float *gh, const float *bh,
                        float *ng, float *ge, float *hc, ptrdiff_t h)
{
    const V zero = V_ZERO(), one = V_SET1(1.0f);
    for (ptrdiff_t j = 0; j < 2 * h; j += L) {
        COLUMNS(2 * h);
        V s = V_ADD(V_ADD(LD(gx), LD(bx)), V_ADD(LD(gh), LD(bh)));
        ST(ng, V_MIN(V_SUB(zero, s), s));
        ST(ge, V_GE0(s, one));
    }
    for (ptrdiff_t j = 0; j < h; j += L) {
        COLUMNS(h);
        ST(hc, V_ADD(LD(gh + 2 * h), LD(bh + 2 * h)));
    }
}

/* One row after the exp e: [z | r] = maximum(e, ge) / (1 + e), and the tanh
 * argument q = (gx_c + b_x,c) + r hc. The max keeps e where either is NaN or
 * both are equal, as numpy's maximum(e, ge) does. */
INLINE void FN(fwd_gates)(const float *gx, const float *bx, const float *e, const float *ge,
                          const float *hc, float *zr, float *q, ptrdiff_t h)
{
    const V one = V_SET1(1.0f);
    for (ptrdiff_t j = 0; j < h; j += L) {
        COLUMNS(h);
        V z = V_DIV(V_MAX(LD(ge), LD(e)), V_ADD(one, LD(e)));
        V r = V_DIV(V_MAX(LD(ge + h), LD(e + h)), V_ADD(one, LD(e + h)));
        ST(zr, z);
        ST(zr + h, r);
        ST(q, V_ADD(V_ADD(LD(gx + 2 * h), LD(bx + 2 * h)), V_MUL(r, LD(hc))));
    }
}

/* One row's new state h = z h_prev + (1 - z) c, read from and written to ht,
 * and written to o1 and o2 too where they are not NULL. */
INLINE void FN(fwd_state)(float *ht, const float *zr, const float *c, float *o1, float *o2,
                          ptrdiff_t h)
{
    const V one = V_SET1(1.0f);
    for (ptrdiff_t j = 0; j < h; j += L) {
        COLUMNS(h);
        V z = LD(zr);
        V hn = V_ADD(V_MUL(z, LD(ht)), V_MUL(V_SUB(one, z), LD(c)));
        ST(ht, hn);
        if (o1)
            ST(o1, hn);
        if (o2)
            ST(o2, hn);
    }
}

/* One GRU cell's forward time loop over a (B, T, X) input, t = 0 to T-1, with
 * the bits of numpy's loop (see the header). x is read at element strides
 * (x_sb, x_st, x_si), so a time-reversed view needs no copy, and projected
 * x W a chunk of C steps at a time, C = ROWS / B but at least 1 and at most
 * T: one sg_rows product per batch row of the chunk. ht, C-contiguous (B,
 * h), holds h_prev of the first step and receives the last state. Unless out
 * is NULL, the state of step t of row b goes to out + b o_sb + t o_st. Unless
 * hp is NULL the steps' caches go to the blocks sg_gru_back reads:
 * C-contiguous (T, B, h) hp, c and hc and (T, B, 2h) zr. W (X, 3h), U (h,
 * 3h), b_x and b_h (3h) are C-contiguous. exp_f and tanh_f are numpy's
 * float32 loops of np.exp and np.tanh, with their data. B and T are at least
 * 1. Returns 0, or -1 when its scratch cannot be allocated. */
int FN(sg_gru_fwd)(const float *x, ptrdiff_t x_sb, ptrdiff_t x_st, ptrdiff_t x_si,
                   const float *W, const float *bx, const float *U, const float *bh,
                   float *ht, float *out, ptrdiff_t o_sb, ptrdiff_t o_st, float *hp,
                   float *zr, float *c, float *hc, sg_loop exp_f, void *exp_d,
                   sg_loop tanh_f, void *tanh_d, ptrdiff_t B, ptrdiff_t T, ptrdiff_t X,
                   ptrdiff_t h)
{
    ptrdiff_t G = 3 * h, cs = B * h;            /* cs: one step of a cache block */
    ptrdiff_t C = B >= ROWS ? 1 : ROWS / B < T ? ROWS / B : T;    /* steps per chunk */
    /* the chunk's projection (B, C, 3h), then per row gh (3h), ng, ge and e
     * (2h each), q (h) and, without caches, the step's [z | r], c and hc (4h) */
    float *gx = malloc((size_t)(B * C * G + 14 * h * B) * sizeof *gx);
    if (!gx)
        return -1;
    float *gh = gx + B * C * G, *ng = gh + B * G, *ge = ng + 2 * h * B, *e = ge + 2 * h * B;
    float *q = e + 2 * h * B, *own = q + h * B;
    if (hp)
        memcpy(hp, ht, (size_t)(B * h) * sizeof *ht);
    for (ptrdiff_t t = 0; t < T; t++) {
        const float *gx_t = gx + t % C * G;     /* row b at gx_t + b C G */
        float *zr_t = hp ? zr + 2 * t * cs : own, *c_t = hp ? c + t * cs : own + 2 * h * B;
        float *hc_t = hp ? hc + t * cs : own + 3 * h * B;
        if (t % C == 0)
            for (ptrdiff_t b = 0; b < B; b++)
                FN(sg_rows)(x + b * x_sb + t * x_st, W, gx + b * C * G, T - t < C ? T - t : C,
                            X, G, x_st, x_si);
        FN(sg_rows)(ht, U, gh, B, h, G, h, 1);
        for (ptrdiff_t b = 0; b < B; b++)
            FN(fwd_pre)(gx_t + b * C * G, bx, gh + b * G, bh, ng + b * 2 * h, ge + b * 2 * h,
                        hc_t + b * h, h);
        sg_apply(exp_f, exp_d, ng, e, 2 * h * B);
        for (ptrdiff_t b = 0; b < B; b++)
            FN(fwd_gates)(gx_t + b * C * G, bx, e + b * 2 * h, ge + b * 2 * h, hc_t + b * h,
                          zr_t + b * 2 * h, q + b * h, h);
        sg_apply(tanh_f, tanh_d, q, c_t, h * B);
        for (ptrdiff_t b = 0; b < B; b++)
            FN(fwd_state)(ht + b * h, zr_t + b * 2 * h, c_t + b * h,
                          out ? out + b * o_sb + t * o_st : NULL,
                          hp && t + 1 < T ? hp + (t + 1) * cs + b * h : NULL, h);
    }
    free(gx);
    return 0;
}

/* One Adam step over n contiguous floats of a parameter p, its moments m1
 * and m2 (the header's m and v) and its gradient g, with numpy's bits. s
 * holds the float32 scalars b1, 1 - b1, b2, 1 - b2, lr, c1, c2 and eps. */
void FN(sg_adam)(float *p, float *m1, float *m2, const float *g, ptrdiff_t n,
                 const float *s)
{
    const V b1 = V_SET1(s[0]), a1 = V_SET1(s[1]), b2 = V_SET1(s[2]), a2 = V_SET1(s[3]);
    const V lr = V_SET1(s[4]), c1 = V_SET1(s[5]), c2 = V_SET1(s[6]), eps = V_SET1(s[7]);
    for (ptrdiff_t j = 0; j < n; j += L) {
        COLUMNS(n);
        V gj = LD(g);
        V mj = V_ADD(V_MUL(LD(m1), b1), V_MUL(a1, gj));
        V vj = V_ADD(V_MUL(LD(m2), b2), V_MUL(a2, V_MUL(gj, gj)));
        V step = V_DIV(V_MUL(lr, V_DIV(mj, c1)), V_ADD(V_SQRT(V_DIV(vj, c2)), eps));
        ST(m1, mj);
        ST(m2, vj);
        ST(p, V_SUB(LD(p), step));
    }
}

/* BatchNorm's column sums over the n rows of x (n, c) into s (c): of x, or
 * with mean (c) not NULL of the squares (x - mean)^2, as numpy's var. */
void FN(sg_bn_sums)(const float *x, const float *mean, ptrdiff_t n, ptrdiff_t c, float *s)
{
    memset(s, 0, (size_t)c * sizeof *s);
    for (ptrdiff_t i = 0; i < n * c; i += c)
        for (ptrdiff_t j = 0; j < c; j += L) {
            COLUMNS(c);
            V v = LD(x + i);
            if (mean) {
                v = V_SUB(v, LD(mean));
                v = V_MUL(v, v);
            }
            ST(s, V_ADD(LD(s), v));
        }
}

/* BatchNorm's output gamma ((x - mean) inv) + beta over (n, c) rows of x into
 * out, from mean, inv (1 / sqrt(var + eps)), gamma and beta (c). */
void FN(sg_bn_out)(const float *x, const float *mean, const float *inv, const float *gamma,
                   const float *beta, ptrdiff_t n, ptrdiff_t c, float *out)
{
    for (ptrdiff_t i = 0; i < n * c; i += c)
        for (ptrdiff_t j = 0; j < c; j += L) {
            COLUMNS(c);
            V xn = V_MUL(V_SUB(LD(x + i), LD(mean)), LD(inv));
            ST(out + i, V_ADD(V_MUL(LD(gamma), xn), LD(beta)));
        }
}

/* BatchNorm's backward column sums over the (n, c) rows of the output
 * gradient d and the input x, into s (5c). With xc = x - mean, xn = xc inv
 * and dxn = d gamma they are the sums of d xn, of d, of ((dxn xc) -0.5) k3
 * (k3 = inv ** 3), of (-dxn) inv and of -2 xc. */
void FN(sg_bn_back)(const float *d, const float *x, const float *mean, const float *inv,
                    const float *gamma, const float *k3, ptrdiff_t n, ptrdiff_t c, float *s)
{
    const V half = V_SET1(-0.5f), two = V_SET1(-2.0f);
    memset(s, 0, (size_t)(5 * c) * sizeof *s);
    for (ptrdiff_t i = 0; i < n * c; i += c)
        for (ptrdiff_t j = 0; j < c; j += L) {
            COLUMNS(c);
            V dv = LD(d + i), xc = V_SUB(LD(x + i), LD(mean)), iv = LD(inv);
            V dxn = V_MUL(dv, LD(gamma));
            ST(s, V_ADD(LD(s), V_MUL(dv, V_MUL(xc, iv))));
            ST(s + c, V_ADD(LD(s + c), dv));
            ST(s + 2 * c, V_ADD(LD(s + 2 * c), V_MUL(V_MUL(V_MUL(dxn, xc), half), LD(k3))));
            ST(s + 3 * c, V_ADD(LD(s + 3 * c), V_MUL(V_NEG(dxn), iv)));
            ST(s + 4 * c, V_ADD(LD(s + 4 * c), V_MUL(two, xc)));
        }
}

/* BatchNorm's input gradient dx = ((d gamma) inv + (a xc) / nf) + b over the
 * (n, c) rows of d and x, with xc = x - mean and a, b (c) from numpy: a =
 * dvar 2 and b = dmean / n; nf is n as a float. */
void FN(sg_bn_dx)(const float *d, const float *x, const float *mean, const float *inv,
                  const float *gamma, const float *a, const float *b, float nf, ptrdiff_t n,
                  ptrdiff_t c, float *dx)
{
    const V nv = V_SET1(nf);
    for (ptrdiff_t i = 0; i < n * c; i += c)
        for (ptrdiff_t j = 0; j < c; j += L) {
            COLUMNS(c);
            V xc = V_SUB(LD(x + i), LD(mean));
            V t = V_ADD(V_MUL(V_MUL(LD(d + i), LD(gamma)), LD(inv)),
                        V_DIV(V_MUL(LD(a), xc), nv));
            ST(dx + i, V_ADD(t, LD(b)));
        }
}

/* np.add.at(dw, ids, g) over n ids and rows of e floats: dw[ids[i]] =
 * dw[ids[i]] + g[i] in order. Returns 0, or -1 and writes nothing when an id
 * lies outside [0, v). */
int FN(sg_embed_back)(float *dw, const ptrdiff_t *ids, const float *g, ptrdiff_t n,
                      ptrdiff_t e, ptrdiff_t v)
{
    for (ptrdiff_t i = 0; i < n; i++)
        if (ids[i] < 0 || ids[i] >= v)
            return -1;
    for (ptrdiff_t i = 0; i < n; i++) {
        float *row = dw + ids[i] * e;
        for (ptrdiff_t j = 0; j < e; j += L) {
            COLUMNS(e);
            ST(row, V_ADD(LD(row), LD(g + i * e)));
        }
    }
    return 0;
}

#undef COLUMNS
#undef LD
#undef ST
#undef CH
#undef CPV
#undef NC
#undef ISA
#undef MR
#undef NV
#undef V
#undef L
#undef VM
#undef V_MASK
#undef V_LOAD
#undef V_STORE
#undef V_LOAD_M
#undef V_STORE_M
#undef V_SET1
#undef V_ZERO
#undef V_MUL
#undef V_ADD
#undef V_SUB
#undef V_DIV
#undef V_SQRT
#undef V_NEG
#undef V_MIN
#undef V_MAX
#undef V_GE0
#undef V_BCAST
#undef V_LANE

#endif
