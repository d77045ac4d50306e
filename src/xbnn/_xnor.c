/* The XNOR conv's inner loop and its scaling, over channel-packed uint64
 * words, for an image chunk at a time.
 *
 * cols is (rows, images * positions), the chunk's sign_patch_matrix, whose
 * columns run image by image; filt is (filters, rows), each filter tap's
 * channel words in the same (word, fh, fw) row order; alpha is (filters,),
 * beta (images, positions), the beta map K; out is (images, filters,
 * positions). Both operands keep zero pad bits, so pad bits never count as
 * mismatches, and a window's dot over its n = c*fh*fw signs is n - 2m:
 *
 *     m = sum over r of popcount(cols[r][i * positions + q] ^ filt[k][r])
 *     out[i][k][q] = (real)(n - 2m) * (alpha[k] * beta[i][q])
 *
 * for real = float or double, from the one body below. Each image's
 * positions go through in tiles of TILE counts; the innermost loops run over
 * a tile, with one filter word or one scale held fixed, so a compiler with
 * vector popcount (-march=native on AVX-512 VPOPCNTDQ) vectorizes them.
 * kernels.py compiles this file on first use and calls it through ctypes;
 * packing and the beta map stay in numpy.
 */
#include <stdint.h>
#include <string.h>

#define TILE 256

#define XNOR_CONV(name, real)                                                  \
    void name(const uint64_t *cols, const uint64_t *filt, const real *alpha,   \
              const real *beta, real *out, int64_t rows, int64_t images,       \
              int64_t positions, int64_t filters, int64_t n)                   \
    {                                                                          \
        const int64_t width = images * positions;                              \
        const int32_t n32 = (int32_t)n;                                        \
        int32_t acc[TILE];                                                     \
        for (int64_t i = 0; i < images; i++) {                                 \
            for (int64_t q0 = 0; q0 < positions; q0 += TILE) {                 \
                const int64_t len = positions - q0 < TILE ? positions - q0 : TILE; \
                const uint64_t *c0 = cols + i * positions + q0;                \
                const real *b = beta + i * positions + q0;                     \
                for (int64_t k = 0; k < filters; k++) {                        \
                    memset(acc, 0, (size_t)len * sizeof *acc);                 \
                    for (int64_t r = 0; r < rows; r++) {                       \
                        const uint64_t w = filt[k * rows + r];                 \
                        const uint64_t *c = c0 + r * width;                    \
                        for (int64_t q = 0; q < len; q++)                      \
                            acc[q] += (int32_t)__builtin_popcountll(c[q] ^ w); \
                    }                                                          \
                    real *o = out + (i * filters + k) * positions + q0;        \
                    const real a = alpha[k];                                   \
                    for (int64_t q = 0; q < len; q++)                          \
                        o[q] = (real)(n32 - 2 * acc[q]) * (a * b[q]);          \
                }                                                              \
            }                                                                  \
        }                                                                      \
    }

XNOR_CONV(xnor_conv_f32, float)
XNOR_CONV(xnor_conv_f64, double)
