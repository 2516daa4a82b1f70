/* float32 matrix products with the exact bits of numpy's einsum, for
 * sentigru.numerics. Plain C with x86-64 intrinsics and no numpy headers;
 * numerics builds it with the C compiler on PATH on x86-64 hosts only, loads
 * it with ctypes and checks it against einsum before using it. Float64 and
 * every other dtype stay on einsum, which gives them the same bits.
 *
 * Two reduction orders are reproduced:
 *
 * sg_rows: c[d] = a[d] b[d] with b[d] C-contiguous and a of any element
 *   strides. Each output starts at zero and adds the products over k in
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
 * The file includes itself once per variant with SG_BODY defined; that part
 * holds the kernels and exports each entry as <entry>_<variant> (sg_rows_avx512,
 * ..., sg_dot_sse3). sg_runs_<variant>() says whether this CPU runs a variant;
 * numerics calls them once, at import, and binds the entries of those that run.
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

/* The first n < 4 floats at p, zeros above them, reading nothing past them. */
INLINE __m128 q_load_n(const float *p, ptrdiff_t n)
{
    float t[4] = {0, 0, 0, 0};
    memcpy(t, p, (size_t)n * sizeof *p);
    return _mm_loadu_ps(t);
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

/* One tile of sg_rows: mr rows by nv vectors of columns. With `full` every
 * column exists; otherwise the last vector holds only the first `cols` - (nv
 * - 1) L of its columns, and the rest are neither read nor written. */
INLINE void FN(rows_tile)(const float *a, ptrdiff_t si, ptrdiff_t sk, const float *b,
                          float *c, ptrdiff_t k, ptrdiff_t n, ptrdiff_t cols,
                          const int mr, const int nv, const int full)
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
            bv[v] = full || v < nv - 1 ? V_LOAD(b + kk * n + v * L)
                                       : V_LOAD_M(b + kk * n + v * L, last);
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
            if (full || v < nv - 1)
                V_STORE(c + r * n + v * L, acc[r][v]);
            else
                V_STORE_M(c + r * n + v * L, last, acc[r][v]);
        }
    }
}

/* Every row of the columns j..j+cols-1, in tiles of nv vectors. */
INLINE void FN(rows_cols)(const float *a, ptrdiff_t si, ptrdiff_t sk, const float *b,
                          float *c, ptrdiff_t m, ptrdiff_t k, ptrdiff_t n, ptrdiff_t j,
                          ptrdiff_t cols, const int nv, const int full)
{
    ptrdiff_t i = 0;
    for (; i + MR <= m; i += MR)
        FN(rows_tile)(a + i * si, si, sk, b + j, c + i * n + j, k, n, cols, MR, nv, full);
    for (; i < m; i++)
        FN(rows_tile)(a + i * si, si, sk, b + j, c + i * n + j, k, n, cols, 1, nv, full);
}

/* c = a b over D stacked products: a[d] is m x k at element strides
 * (a_sd, a_si, a_sk), b[d] is k x n C-contiguous at b + d * b_sd, and c is
 * C-contiguous (D, m, n). */
void FN(sg_rows)(const float *a, const float *b, float *c, ptrdiff_t D, ptrdiff_t m,
                 ptrdiff_t k, ptrdiff_t n, ptrdiff_t a_sd, ptrdiff_t a_si, ptrdiff_t a_sk,
                 ptrdiff_t b_sd)
{
    for (ptrdiff_t d = 0; d < D; d++) {
        const float *ad = a + d * a_sd, *bd = b + d * b_sd;
        float *cd = c + d * m * n;
        ptrdiff_t j = 0;
        for (; j + NV * L <= n; j += NV * L)
            FN(rows_cols)(ad, a_si, a_sk, bd, cd, m, k, n, j, NV * L, NV, 1);
        for (; j + L <= n; j += L)
            FN(rows_cols)(ad, a_si, a_sk, bd, cd, m, k, n, j, L, 1, 1);
        if (j < n)
            FN(rows_cols)(ad, a_si, a_sk, bd, cd, m, k, n, j, n - j, 1, 0);
    }
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
 * first `cols` of c. The 128-bit hadds pair lanes as numpy's npyv_sum does:
 * (l0 + l1) + (l2 + l3). */
INLINE void FN(dot_finish)(V *acc, float *c, ptrdiff_t cols)
{
    __m128 x[NC];
    SG_UNROLL
    for (int j = 0; j < NC; j++)
        x[j] = V_LANE(acc[j / CPV], j % CPV);
    SG_UNROLL
    for (int j = 0; j < NC; j += CH) {
        float out[4];
        __m128 s = _mm_hadd_ps(_mm_hadd_ps(x[j], x[j + 1]), _mm_hadd_ps(x[j + 2], x[j + 3]));
        _mm_storeu_ps(out, _mm_add_ps(_mm_setzero_ps(), s));
        if (cols - j >= CH)
            memcpy(c + j, out, sizeof out);
        else if (cols > j)
            memcpy(c + j, out, (size_t)(cols - j) * sizeof(float));
    }
}

/* One tile of sg_dot: mr rows of c, NC columns starting where p and c point,
 * of which the first `cols` exist. */
INLINE void FN(dot_tile)(const float *a, const float *p, float *c, ptrdiff_t k,
                         ptrdiff_t n, ptrdiff_t np, ptrdiff_t cols, const int mr)
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
        FN(dot_finish)(acc[r], c + r * n, cols);
    }
}

/* c = a w^T with a (m, k), w (n, k) and c (m, n) C-contiguous. Returns 0, or
 * -1 when the packing buffer cannot be allocated. */
int FN(sg_dot)(const float *a, const float *w, float *c, ptrdiff_t m, ptrdiff_t k,
               ptrdiff_t n)
{
    ptrdiff_t nq = (k + CH - 1) / CH, np = (n + NC - 1) / NC * NC, whole = k / CH;
    float *p = calloc((size_t)(nq * np * CH), sizeof *p);
    if (!p)
        return -1;
    for (ptrdiff_t j = 0; j < n; j++) {
        for (ptrdiff_t q = 0; q < whole; q++)
            memcpy(p + (q * np + j) * CH, w + j * k + q * CH, 16);
        if (whole < nq)
            memcpy(p + (whole * np + j) * CH, w + j * k + whole * CH,
                   (size_t)(k - whole * CH) * sizeof *p);
    }
    /* rows outside, so a tile's rows of a stay in cache across the columns */
    ptrdiff_t i = 0;
    for (; i + MR <= m; i += MR)
        for (ptrdiff_t j = 0; j < n; j += NC)
            FN(dot_tile)(a + i * k, p + j * CH, c + i * n + j, k, n, np,
                         n - j < NC ? n - j : NC, MR);
    for (; i < m; i++)
        for (ptrdiff_t j = 0; j < n; j += NC)
            FN(dot_tile)(a + i * k, p + j * CH, c + i * n + j, k, n, np,
                         n - j < NC ? n - j : NC, 1);
    free(p);
    return 0;
}

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
#undef V_BCAST
#undef V_LANE

#endif
