/* The XNOR layer's inner loop: mismatched signs between every filter and
 * every receptive field, over channel-packed uint64 words.
 *
 * cols is (rows, positions), the layer's sign_patch_matrix; filt is
 * (filters, rows), each filter tap's channel words in the same (word, fh, fw)
 * row order; out is (filters, positions). Both operands keep zero pad bits,
 * so pad bits never count as mismatches.
 *
 *     out[k][p] = sum over r of popcount(cols[r][p] ^ filt[k][r])
 *
 * The innermost loop runs over positions, with one filter word held fixed,
 * so a compiler with vector popcount (-march=native on AVX-512 VPOPCNTDQ)
 * vectorizes it. kernels.py compiles this file on first use and calls it
 * through ctypes; packing, the beta map and the scaling stay in numpy.
 */
#include <stdint.h>
#include <string.h>

void xnor_mismatches(const uint64_t *cols, const uint64_t *filt, int32_t *out,
                     int64_t rows, int64_t positions, int64_t filters)
{
    for (int64_t k = 0; k < filters; k++) {
        int32_t *o = out + k * positions;
        memset(o, 0, (size_t)positions * sizeof *o);
        for (int64_t r = 0; r < rows; r++) {
            const uint64_t w = filt[k * rows + r];
            const uint64_t *c = cols + r * positions;
            for (int64_t p = 0; p < positions; p++)
                o[p] += (int32_t)__builtin_popcountll(c[p] ^ w);
        }
    }
}
