/* Matrix products with the exact bits of numpy's einsum, for
 * sentigru.numerics. Plain C with x86 intrinsics and no numpy headers;
 * numerics builds it with the C compiler on PATH, loads it with ctypes and
 * checks it against einsum before using it.
 *
 * Two reduction orders are reproduced, each for float and double:
 *
 * sg_rows: c[d] = a[d] b[d] with b[d] C-contiguous and a of any element
 *   strides. Each output starts at zero and adds the products over k in
 *   order, each product rounded before its add: einsum's stride-0 times
 *   contiguous loop.
 *
 * sg_dot: c = a w^T with a and w C-contiguous (the right operand is the
 *   transposed view of w). This is einsum's dot loop at numpy's baseline
 *   SIMD width: per output, a vector of 16-byte lanes (4 floats or 2
 *   doubles) starts at zero; each group of four lanes' worth of k is
 *   applied as chunks 3, 2, 1, 0, product then add; the rest follows chunk
 *   by chunk in order, the last one zero-padded; the lanes are summed
 *   (l0 + l1) + (l2 + l3) for floats or l0 + l1 for doubles, and that sum
 *   is added to zero.
 *
 * Register tiles hold several outputs at once, but every output goes
 * through the same operations in the same order in every tile and in every
 * instruction-set variant (AVX-512, AVX2 and SSE3, picked at run time), so
 * the variant changes only the speed. Build with -ffp-contract=off: a fused
 * multiply-add rounds once where einsum rounds twice.
 *
 * The file includes itself once per (instruction set, dtype) with SG_BODY
 * defined; that second part holds the kernels.
 */
#ifndef SG_BODY

#include <stddef.h>
#include <stdlib.h>
#include <string.h>

#define SG_BASE 1
#define SG_AVX2 2
#define SG_AVX512 4

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

#define SG_CAT_(a, b, c) a##_##b##_##c
#define SG_CAT(a, b, c) SG_CAT_(a, b, c)
#define FN(name) SG_CAT(name, ISA, TN)
#define INLINE static inline __attribute__((always_inline))
#define SG_UNROLL _Pragma("GCC unroll 16")

/* The first n < 4 floats at p, zeros above them, reading nothing past them. */
INLINE __m128 qf_load_n(const float *p, ptrdiff_t n)
{
    float t[4] = {0, 0, 0, 0};
    memcpy(t, p, (size_t)n * sizeof *p);
    return _mm_loadu_ps(t);
}

INLINE __m128d qd_load_n(const double *p, ptrdiff_t n)
{
    (void)n;                            /* n is 1 */
    return _mm_load_sd(p);
}

#define SG_BODY

/* ---- SSE3: the baseline variant, 128-bit vectors ---- */
#pragma GCC push_options
#pragma GCC target("sse3")
#define ISA base
#define MR 2                            /* tile rows */
#define NV 4                            /* vectors per tile row */

#define T float
#define TN f32
#define TSIZE 4
#define V __m128
#define L 4
#define VM ptrdiff_t                    /* a tail mask: the lane count */
#define V_MASK(n) (n)
#define V_LOAD _mm_loadu_ps
#define V_STORE _mm_storeu_ps
#define V_LOAD_M(p, m) qf_load_n(p, m)
#define V_STORE_M(p, m, v) do { float t_[4]; _mm_storeu_ps(t_, v); \
        memcpy(p, t_, (size_t)(m) * sizeof(float)); } while (0)
#define V_SET1 _mm_set1_ps
#define V_ZERO _mm_setzero_ps
#define V_MUL _mm_mul_ps
#define V_ADD _mm_add_ps
#define V_BCAST(q) (q)
#define V_LANE(v, i) (v)
#include "matmul.c"

#define T double
#define TN f64
#define TSIZE 8
#define V __m128d
#define L 2
#define VM ptrdiff_t
#define V_MASK(n) (n)
#define V_LOAD _mm_loadu_pd
#define V_STORE _mm_storeu_pd
#define V_LOAD_M(p, m) ((m) >= 2 ? _mm_loadu_pd(p) : (m) ? _mm_load_sd(p) : _mm_setzero_pd())
#define V_STORE_M(p, m, v) ((m) >= 2 ? _mm_storeu_pd(p, v) : _mm_store_sd(p, v))
#define V_SET1 _mm_set1_pd
#define V_ZERO _mm_setzero_pd
#define V_MUL _mm_mul_pd
#define V_ADD _mm_add_pd
#define V_BCAST(q) (q)
#define V_LANE(v, i) (v)
#include "matmul.c"

#undef ISA
#undef MR
#undef NV
#pragma GCC pop_options

/* ---- AVX2: 256-bit vectors ---- */
#pragma GCC push_options
#pragma GCC target("avx2")
#define ISA avx2
#define MR 4
#define NV 2

#define T float
#define TN f32
#define TSIZE 4
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

#define T double
#define TN f64
#define TSIZE 8
#define V __m256d
#define L 4
#define VM __m256i
#define V_MASK(n) _mm256_cmpgt_epi64(_mm256_set1_epi64x(n), \
        _mm256_setr_epi64x(0, 1, 2, 3))
#define V_LOAD _mm256_loadu_pd
#define V_STORE _mm256_storeu_pd
#define V_LOAD_M(p, m) _mm256_maskload_pd(p, m)
#define V_STORE_M(p, m, v) _mm256_maskstore_pd(p, m, v)
#define V_SET1 _mm256_set1_pd
#define V_ZERO _mm256_setzero_pd
#define V_MUL _mm256_mul_pd
#define V_ADD _mm256_add_pd
#define V_BCAST(q) _mm256_set_m128d(q, q)
#define V_LANE(v, i) ((i) ? _mm256_extractf128_pd(v, 1) : _mm256_castpd256_pd128(v))
#include "matmul.c"

#undef ISA
#undef MR
#undef NV
#pragma GCC pop_options

/* ---- AVX-512 (F and VL): 512-bit vectors ---- */
#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl")
#define ISA avx512
#define MR 4
#define NV 4

#define T float
#define TN f32
#define TSIZE 4
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

#define T double
#define TN f64
#define TSIZE 8
#define V __m512d
#define L 8
#define VM __mmask8
#define V_MASK(n) ((__mmask8)((1u << (n)) - 1))
#define V_LOAD _mm512_loadu_pd
#define V_STORE _mm512_storeu_pd
#define V_LOAD_M(p, m) _mm512_maskz_loadu_pd(m, p)
#define V_STORE_M(p, m, v) _mm512_mask_storeu_pd(p, m, v)
#define V_SET1 _mm512_set1_pd
#define V_ZERO _mm512_setzero_pd
#define V_MUL _mm512_mul_pd
#define V_ADD _mm512_add_pd
#define V_LANE_PS(v, i) ((i) == 0 ? _mm512_extractf32x4_ps(v, 0) : \
        (i) == 1 ? _mm512_extractf32x4_ps(v, 1) : \
        (i) == 2 ? _mm512_extractf32x4_ps(v, 2) : _mm512_extractf32x4_ps(v, 3))
#define V_BCAST(q) _mm512_castps_pd(_mm512_broadcast_f32x4(_mm_castpd_ps(q)))
#define V_LANE(v, i) _mm_castps_pd(V_LANE_PS(_mm512_castpd_ps(v), i))
#include "matmul.c"

#undef ISA
#undef MR
#undef NV
#pragma GCC pop_options

/* The variants this CPU runs, as a mask of SG_BASE, SG_AVX2, SG_AVX512. */
int sg_isas(void)
{
    static int known = -1;
    if (known >= 0)
        return known;
    __builtin_cpu_init();
    int isas = 0;
    if (__builtin_cpu_supports("sse3"))
        isas |= SG_BASE;
    if ((isas & SG_BASE) && __builtin_cpu_supports("avx2"))
        isas |= SG_AVX2;
    if ((isas & SG_AVX2) && __builtin_cpu_supports("avx512f")
            && __builtin_cpu_supports("avx512vl"))
        isas |= SG_AVX512;
    return known = isas;
}

#define SG_PICK(isa, name, tn) ((isa) == SG_AVX512 ? name##_avx512_##tn : \
                                (isa) == SG_AVX2 ? name##_avx2_##tn : name##_base_##tn)

/* c = a b over D stacked products: a[d] is m x k at element strides
 * (a_sd, a_si, a_sk), b[d] is k x n C-contiguous at b + d * b_sd, and c is
 * C-contiguous (D, m, n). dtype is the element size: 4 float, 8 double.
 * Returns 0, or -1 for an isa or dtype this build or CPU cannot run. */
int sg_rows(int isa, int dtype, const void *a, const void *b, void *c,
            ptrdiff_t D, ptrdiff_t m, ptrdiff_t k, ptrdiff_t n,
            ptrdiff_t a_sd, ptrdiff_t a_si, ptrdiff_t a_sk, ptrdiff_t b_sd)
{
    if (!(sg_isas() & isa) || (isa & (isa - 1)) || (dtype != 4 && dtype != 8))
        return -1;
    for (ptrdiff_t d = 0; d < D; d++) {
        const char *ad = (const char *)a + d * a_sd * dtype;
        const char *bd = (const char *)b + d * b_sd * dtype;
        char *cd = (char *)c + d * m * n * dtype;
        if (dtype == 4)
            SG_PICK(isa, rows, f32)((const float *)ad, a_si, a_sk, (const float *)bd,
                                  (float *)cd, m, k, n);
        else
            SG_PICK(isa, rows, f64)((const double *)ad, a_si, a_sk, (const double *)bd,
                                  (double *)cd, m, k, n);
    }
    return 0;
}

/* c = a w^T with a (m, k), w (n, k) and c (m, n) C-contiguous. Returns 0,
 * or -1 for an isa or dtype this build or CPU cannot run, or when the
 * packing buffer cannot be allocated. */
int sg_dot(int isa, int dtype, const void *a, const void *w, void *c,
           ptrdiff_t m, ptrdiff_t k, ptrdiff_t n)
{
    if (!(sg_isas() & isa) || (isa & (isa - 1)) || (dtype != 4 && dtype != 8))
        return -1;
    if (dtype == 4)
        return SG_PICK(isa, dot, f32)((const float *)a, (const float *)w, (float *)c, m, k, n);
    return SG_PICK(isa, dot, f64)((const double *)a, (const double *)w, (double *)c, m, k, n);
}

#else  /* not x86-64 with GCC builtins: no variant, numerics keeps einsum */

int sg_isas(void) { return 0; }

int sg_rows(int isa, int dtype, const void *a, const void *b, void *c,
            ptrdiff_t D, ptrdiff_t m, ptrdiff_t k, ptrdiff_t n,
            ptrdiff_t a_sd, ptrdiff_t a_si, ptrdiff_t a_sk, ptrdiff_t b_sd)
{
    return -1;
}

int sg_dot(int isa, int dtype, const void *a, const void *w, void *c,
           ptrdiff_t m, ptrdiff_t k, ptrdiff_t n)
{
    return -1;
}

#endif

#else  /* SG_BODY: the kernels of one instruction set (ISA) and dtype (T) */

/* One tile of sg_rows: mr rows by nv vectors of columns. With `full` every
 * column exists; otherwise the last vector holds only the first `cols` - (nv
 * - 1) L of its columns, and the rest are neither read nor written. */
INLINE void FN(rows_tile)(const T *a, ptrdiff_t si, ptrdiff_t sk, const T *b, T *c,
                          ptrdiff_t k, ptrdiff_t n, ptrdiff_t cols,
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
INLINE void FN(rows_cols)(const T *a, ptrdiff_t si, ptrdiff_t sk, const T *b, T *c,
                          ptrdiff_t m, ptrdiff_t k, ptrdiff_t n, ptrdiff_t j,
                          ptrdiff_t cols, const int nv, const int full)
{
    ptrdiff_t i = 0;
    for (; i + MR <= m; i += MR)
        FN(rows_tile)(a + i * si, si, sk, b + j, c + i * n + j, k, n, cols, MR, nv, full);
    for (; i < m; i++)
        FN(rows_tile)(a + i * si, si, sk, b + j, c + i * n + j, k, n, cols, 1, nv, full);
}

static void FN(rows)(const T *a, ptrdiff_t si, ptrdiff_t sk, const T *b, T *c,
                     ptrdiff_t m, ptrdiff_t k, ptrdiff_t n)
{
    ptrdiff_t j = 0;
    for (; j + NV * L <= n; j += NV * L)
        FN(rows_cols)(a, si, sk, b, c, m, k, n, j, NV * L, NV, 1);
    for (; j + L <= n; j += L)
        FN(rows_cols)(a, si, sk, b, c, m, k, n, j, L, 1, 1);
    if (j < n)
        FN(rows_cols)(a, si, sk, b, c, m, k, n, j, n - j, 1, 0);
}

/* sg_dot's packed operand: w's rows cut into 16-byte chunks of CH
 * elements and stored chunk-major, p[(q * np + j) * CH + e] = w[j, q * CH + e],
 * with zeros past k and in the padding rows n..np-1, so that one vector
 * load fetches chunk q of CPV consecutive outputs. */
#define CH ((ptrdiff_t)(16 / TSIZE))
#define CPV (L / CH)                    /* outputs per vector */
#define NC (NV * CPV)                   /* outputs per tile row */
#if TSIZE == 4
#define Q __m128
#define Q_LOAD _mm_loadu_ps
#define Q_LOAD_N qf_load_n
#define Q_HADD _mm_hadd_ps
#define Q_ADD _mm_add_ps
#define Q_ZERO _mm_setzero_ps
#define Q_STORE _mm_storeu_ps
#else
#define Q __m128d
#define Q_LOAD _mm_loadu_pd
#define Q_LOAD_N qd_load_n
#define Q_HADD _mm_hadd_pd
#define Q_ADD _mm_add_pd
#define Q_ZERO _mm_setzero_pd
#define Q_STORE _mm_storeu_pd
#endif

/* Chunk q of a row of a, in every 16-byte lane; a row's last chunk may be
 * partial, and is then zero-padded as numpy's tail load pads it. */
INLINE V FN(a_chunk)(const T *row, ptrdiff_t q, ptrdiff_t k, const int whole)
{
    ptrdiff_t left = k - q * CH;
    return V_BCAST(whole || left >= CH ? Q_LOAD(row + q * CH) : Q_LOAD_N(row + q * CH, left));
}

/* The lane sums of one tile row's NC outputs, each added to zero, into the
 * first `cols` of c. Each 128-bit hadd pairs lanes as numpy's npyv_sum does:
 * (l0 + l1) + (l2 + l3) for floats, l0 + l1 for doubles. */
INLINE void FN(dot_finish)(V *acc, T *c, ptrdiff_t cols)
{
    Q x[NC];
    SG_UNROLL
    for (int j = 0; j < NC; j++)
        x[j] = V_LANE(acc[j / CPV], j % CPV);
    SG_UNROLL
    for (int j = 0; j < NC; j += CH) {
        T out[4];
#if TSIZE == 4
        Q s = Q_HADD(Q_HADD(x[j], x[j + 1]), Q_HADD(x[j + 2], x[j + 3]));
#else
        Q s = Q_HADD(x[j], x[j + 1]);
#endif
        Q_STORE(out, Q_ADD(Q_ZERO(), s));
        if (cols - j >= CH)
            memcpy(c + j, out, sizeof(Q));
        else if (cols > j)
            memcpy(c + j, out, (size_t)(cols - j) * TSIZE);
    }
}

/* One tile of sg_dot: mr rows of c, NC columns starting where p and c point,
 * of which the first `cols` exist. */
INLINE void FN(dot_tile)(const T *a, const T *p, T *c, ptrdiff_t k, ptrdiff_t n,
                         ptrdiff_t np, ptrdiff_t cols, const int mr)
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

static int FN(dot)(const T *a, const T *w, T *c, ptrdiff_t m, ptrdiff_t k, ptrdiff_t n)
{
    ptrdiff_t nq = (k + CH - 1) / CH, np = (n + NC - 1) / NC * NC, whole = k / CH;
    T *p = calloc((size_t)(nq * np * CH), TSIZE);
    if (!p)
        return -1;
    for (ptrdiff_t j = 0; j < n; j++) {
        for (ptrdiff_t q = 0; q < whole; q++)
            memcpy(p + (q * np + j) * CH, w + j * k + q * CH, 16);
        if (whole < nq)
            memcpy(p + (whole * np + j) * CH, w + j * k + whole * CH,
                   (size_t)(k - whole * CH) * TSIZE);
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
#undef Q
#undef Q_LOAD
#undef Q_LOAD_N
#undef Q_HADD
#undef Q_ADD
#undef Q_ZERO
#undef Q_STORE
#undef T
#undef TN
#undef TSIZE
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
#undef V_LANE_PS

#endif
