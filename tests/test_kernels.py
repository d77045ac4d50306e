import ctypes
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import xbnn
from xbnn import kernels, nn
from xbnn.binarize import BinarizedFilter, binarize_weights, compute_beta_map
from xbnn.bitpack import pack, xnor_dot
from xbnn.cli import load_arch
from xbnn.kernels import (
    OpCounters,
    conv2d_reference,
    conv_binary_weight,
    conv_binary_weight_layer,
    conv_xnor_layer,
    im2col,
    sign_patch_matrix,
)
from xbnn.tensor import ConvGeometry, ShapeError, channel_abs_mean, pad_chw, sign


TOY_CFG = Path(__file__).resolve().parents[1] / "configs" / "toy_cnn.cfg"


def make_filter(pattern, alpha, shape):
    return BinarizedFilter(bits=pack(np.asarray(pattern, dtype=np.float64)),
                           alpha=alpha, original_shape=shape)


# ---------------------------------------------------------------------------
# references: the single-image row layouts kernels used before they read
# their rows from tensor.windows


def reference_im2col(inp, geom):
    fh, fw = geom.filt_hw
    oh, ow = geom.out_hw(inp.shape[1:])
    padded = pad_chw(np.asarray(inp), geom.pad)
    win = np.lib.stride_tricks.sliding_window_view(padded, (fh, fw), axis=(1, 2))
    win = win[:, :: geom.stride, :: geom.stride]  # (c, oh, ow, fh, fw)
    cols = win.transpose(1, 2, 0, 3, 4).reshape(oh * ow, -1)
    return np.ascontiguousarray(cols)


def reference_sign_columns(I, geom):
    """The XNOR layer's channel-packed sign columns, one Python-int word at a
    time: word j of a pixel holds the I >= 0 bits of channels 64j..64j+63 at
    bits 0..63, with channel pad bits clear and zero-padded border pixels'
    channel bits set; row (word, dy, dx), column (y, x) is that word at tap
    (dy, dx) of output (y, x)."""
    c = I.shape[0]
    n_words = -(-c // 64)
    padded = pad_chw(I, geom.pad)
    bits = np.zeros((n_words * 64, *padded.shape[1:]), dtype=bool)
    bits[:c] = padded >= 0
    fh, fw = geom.filt_hw
    oh, ow = geom.out_hw(I.shape[1:])
    s = geom.stride
    cols = np.empty((n_words, fh, fw, oh, ow), dtype=np.uint64)
    for j, dy, dx, y, x in np.ndindex(cols.shape):
        chans = bits[64 * j:64 * (j + 1), y * s + dy, x * s + dx]
        cols[j, dy, dx, y, x] = sum(1 << i for i in range(64) if chans[i])
    return cols.reshape(n_words * fh * fw, oh * ow)


def xnor_oracle(I, bank, geom):
    """Integer dots and the beta map of the XNOR layer, from conv2d_reference
    alone: the dot is the correlation of sign(zero-padded I), with sign(0) =
    +1 on the border, against sign(W); K is the correlation of the padded
    channel abs-mean with a uniform 1/(fh*fw) filter."""
    unpadded = ConvGeometry(geom.filt_hw, geom.stride, 0)
    dots = conv2d_reference(sign(pad_chw(I, geom.pad)), sign(bank), unpadded)
    fh, fw = geom.filt_hw
    box = np.full((1, 1, fh, fw), 1.0 / (fh * fw))
    plane = pad_chw(channel_abs_mean(I)[None], geom.pad)
    return dots, conv2d_reference(plane, box, unpadded)[0]


@st.composite
def window_cases(draw, channels=st.integers(1, 5)):
    """(I, geom): c from ``channels``, h, w, fh, fw, stride 1 or 2, pad 0..2,
    float32/float64; the filter fits the padded input."""
    c, h, w = draw(channels), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    pad = draw(st.integers(0, 2))
    fh, fw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    assume(fh <= h + 2 * pad and fw <= w + 2 * pad)
    geom = ConvGeometry(filt_hw=(fh, fw), stride=draw(st.sampled_from([1, 2])), pad=pad)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    I = rng.normal(size=(c, h, w)).astype(dtype)
    if draw(st.booleans()):
        I[rng.random(I.shape) < 0.3] = 0.0  # exact zeros exercise the sign(0) rule
    return I, geom


class TestReferenceEquivalence:
    @given(window_cases())
    @settings(max_examples=300, deadline=None)
    def test_im2col_rows_equal_reference(self, case):
        I, geom = case
        np.testing.assert_array_equal(im2col(I, geom), reference_im2col(I, geom))

    @given(window_cases(st.sampled_from([1, 5, 63, 64, 65, 129])))
    @settings(max_examples=300, deadline=None)
    def test_packed_patch_words_equal_reference(self, case):
        I, geom = case
        cols = sign_patch_matrix(I, geom)
        assert cols.dtype == np.uint64
        np.testing.assert_array_equal(cols, reference_sign_columns(I, geom))


class TestIm2col:
    def test_patch_row_layout(self):
        # channel-outermost flattening must match filter.ravel() order
        rng = np.random.default_rng(0)
        I = rng.normal(size=(3, 5, 5)).astype(np.float32)
        W = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
        geom = ConvGeometry(filt_hw=(3, 3), pad=1, stride=2)
        cols = im2col(I, geom)
        out = (cols @ W.reshape(2, -1).T).T.reshape(2, *geom.out_hw(I.shape[1:]))
        np.testing.assert_allclose(out, conv2d_reference(I, W, geom), rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("filt_hw, hw", [((1, 1), (4, 5)), ((4, 5), (4, 5))],
                             ids=["1x1", "full-extent"])
    def test_returns_a_writable_copy(self, filt_hw, hw):
        # the reshape alone would be a read-only view of I for these geometries
        I = np.random.default_rng(2).normal(size=(3, *hw)).astype(np.float32)
        cols = im2col(I, ConvGeometry(filt_hw=filt_hw))
        assert cols.flags.writeable and not np.shares_memory(cols, I)

    def test_packed_patch_rows(self):
        rng = np.random.default_rng(1)
        I = rng.normal(size=(2, 4, 4)).astype(np.float32)
        geom = ConvGeometry(filt_hw=(2, 2), pad=1)
        cols = sign_patch_matrix(I, geom)
        oh, ow = geom.out_hw(I.shape[1:])
        assert cols.shape == (1 * 2 * 2, oh * ow)  # one word per tap
        # column 0 covers the padded corner: the three border taps binarize
        # to +1 and read both channel bits set; tap (1, 1) is pixel (0, 0),
        # whose word is its two channel bits alone (pad bits are 0)
        corner = [int(w) for w in cols[:, 0]]
        assert corner[:3] == [0b11] * 3
        pixel = int(I[0, 0, 0] >= 0) | int(I[1, 0, 0] >= 0) << 1
        assert corner[3] == pixel


class TestConvBinaryWeight:
    def test_hand_example(self):
        I = np.ones((1, 2, 2), dtype=np.float32)
        f = make_filter([1.0, 1.0, -1.0, -1.0], alpha=2.0, shape=(1, 2, 2))
        out = conv_binary_weight(I, f, ConvGeometry(filt_hw=(2, 2)))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(0.0)

    def test_all_plus_reduces_to_ones_filter(self):
        rng = np.random.default_rng(2)
        I = rng.normal(size=(2, 5, 5)).astype(np.float32)
        f = make_filter(np.ones(2 * 3 * 3), alpha=1.0, shape=(2, 3, 3))
        geom = ConvGeometry(filt_hw=(3, 3), pad=1)
        ref = conv2d_reference(I, np.ones((1, 2, 3, 3), dtype=np.float32), geom)[0]
        np.testing.assert_allclose(conv_binary_weight(I, f, geom), ref, rtol=1e-5, atol=1e-5)

    def test_oracle_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = int(rng.integers(1, 4))
            I = rng.normal(size=(c, 6, 6)).astype(np.float32)
            W = rng.normal(size=(c, 3, 3)).astype(np.float32)
            geom = ConvGeometry(filt_hw=(3, 3), pad=int(rng.integers(0, 2)),
                                stride=int(rng.integers(1, 3)))
            f = binarize_weights(W)
            ref = conv2d_reference(I, f.dense()[None], geom)[0]
            got = conv_binary_weight(I, f, geom)
            np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)

    def test_negation_invariance(self):
        rng = np.random.default_rng(4)
        I = rng.normal(size=(2, 4, 4)).astype(np.float32)
        W = rng.normal(size=(2, 2, 2)).astype(np.float32)
        geom = ConvGeometry(filt_hw=(2, 2))
        f = binarize_weights(W)
        f_neg = binarize_weights(-W)  # flips every sign, same alpha
        np.testing.assert_allclose(
            conv_binary_weight(I, f, geom), conv_binary_weight(-I, f_neg, geom),
            rtol=1e-6, atol=1e-6,
        )

    def test_degenerate_filter_zero_output(self):
        I = np.ones((1, 3, 3), dtype=np.float32)
        f = binarize_weights(np.zeros((1, 2, 2)))
        out = conv_binary_weight(I, f, ConvGeometry(filt_hw=(2, 2)))
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_counters(self):
        I = np.ones((1, 3, 3), dtype=np.float32)
        f = make_filter([1.0, -1.0, 1.0, -1.0], alpha=1.0, shape=(1, 2, 2))
        counters = OpCounters()
        conv_binary_weight(I, f, ConvGeometry(filt_hw=(2, 2)), counters)
        assert counters.real_mul == 4          # one alpha multiply per output
        assert counters.real_add == 4 * 3      # n-1 adds/subs per window
        assert counters.xnor_word == 0


class TestConvXnor:
    def test_exact_on_sign_inputs(self):
        rng = np.random.default_rng(5)
        I = sign(rng.normal(size=(3, 6, 6))).astype(np.float32)
        W = rng.normal(size=(3, 3, 3)).astype(np.float32)
        f = binarize_weights(W)
        geom = ConvGeometry(filt_hw=(3, 3))
        out = conv_xnor_layer(I, [f], geom)[0]
        ref = conv2d_reference(I, f.dense()[None], geom)[0]
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)

    def test_single_window_reduction(self):
        rng = np.random.default_rng(6)
        I = rng.normal(size=(2, 3, 3)).astype(np.float32)
        W = rng.normal(size=(2, 3, 3)).astype(np.float32)
        f = binarize_weights(W)
        out = conv_xnor_layer(I, [f], ConvGeometry(filt_hw=(3, 3)))[0]
        expected = (xnor_dot(pack(sign(I.reshape(-1))), pack(sign(W.reshape(-1))))
                    * np.abs(I).mean() * np.abs(W).mean())
        assert out[0, 0] == pytest.approx(expected, rel=1e-5)

    def test_zero_input(self):
        W = np.ones((2, 2, 2))
        out = conv_xnor_layer(np.zeros((2, 4, 4), dtype=np.float32), [binarize_weights(W)],
                              ConvGeometry(filt_hw=(2, 2)))[0]
        np.testing.assert_array_equal(out, np.zeros((3, 3)))

    def test_layer_matches_reference_oracle(self):
        rng = np.random.default_rng(7)
        I = rng.normal(size=(3, 7, 6)).astype(np.float32)
        I[:, 2, 3] = 0.0  # sign(0) = +1 inside the input as on the border
        bank = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        filters = [binarize_weights(w) for w in bank]
        alphas = np.array([f.alpha for f in filters], dtype=np.float32)
        for stride, pad in [(1, 0), (2, 1)]:
            geom = ConvGeometry(filt_hw=(3, 3), stride=stride, pad=pad)
            out = conv_xnor_layer(I, filters, geom)
            dots, K = xnor_oracle(I, bank, geom)
            scale = K[None] * alphas[:, None, None]
            np.testing.assert_allclose(out, dots * scale, rtol=1e-5,
                                       atol=1e-5 * np.abs(dots * scale).max())
            live = np.broadcast_to(K > 1e-6 * K.max(), out.shape)
            np.testing.assert_array_equal(np.rint(out[live] / scale[live]), dots[live])

    def test_layer_checks_every_filter(self):
        rng = np.random.default_rng(17)
        I = rng.normal(size=(2, 5, 5)).astype(np.float32)
        geom = ConvGeometry(filt_hw=(3, 3))
        good = binarize_weights(rng.normal(size=(2, 3, 3)))
        # the same length n = 18, but a 1x9 extent and a 1-channel filter
        for shape in [(2, 1, 9), (1, 6, 3)]:
            bad = make_filter(np.ones(18), alpha=1.0, shape=shape)
            for layer_fn in (conv_xnor_layer, conv_binary_weight_layer):
                with pytest.raises(ShapeError):
                    layer_fn(I, [good, bad], geom)

    def test_error_shrinks_toward_sign_structure(self):
        # blending the input toward its own sign pattern must shrink the
        # approximation error against the float reference
        rng = np.random.default_rng(21)
        I = rng.normal(size=(4, 8, 8)).astype(np.float32)
        W = rng.normal(size=(4, 3, 3)).astype(np.float32)
        geom = ConvGeometry(filt_hw=(3, 3))
        w_target = binarize_weights(W).dense()
        errs = []
        for t in (0.0, 0.5, 0.95):
            blended_i = ((1 - t) * I + t * sign(I)).astype(np.float32)
            blended_w = ((1 - t) * W + t * w_target).astype(np.float32)
            approx = conv_xnor_layer(blended_i, [binarize_weights(blended_w)], geom)[0]
            exact = conv2d_reference(blended_i, blended_w[None], geom)[0]
            err = np.abs(approx - exact).max()
            assert np.isfinite(err)
            errs.append(err)
        assert errs[2] < errs[1] < errs[0]

    def test_layer_shares_beta_map(self):
        rng = np.random.default_rng(8)
        I = rng.normal(size=(4, 8, 8)).astype(np.float32)
        filters = [binarize_weights(rng.normal(size=(4, 3, 3))) for _ in range(5)]
        geom = ConvGeometry(filt_hw=(3, 3), pad=1)
        out = conv_xnor_layer(I, filters, geom)
        assert out.shape == (5, 8, 8)
        for k, f in enumerate(filters):
            np.testing.assert_allclose(out[k], conv_xnor_layer(I, [f], geom)[0], rtol=1e-6)

    def test_counters_word_counts(self):
        rng = np.random.default_rng(9)
        c, fh, fw = 4, 3, 3
        I = rng.normal(size=(c, 10, 10)).astype(np.float32)
        f = binarize_weights(rng.normal(size=(c, fh, fw)))
        geom = ConvGeometry(filt_hw=(fh, fw))
        counters = OpCounters()
        out = conv_xnor_layer(I, [f], geom, counters)[0]
        n_i = out.size
        words = fh * fw * ((c + 63) // 64)  # one channel word per tap
        assert counters.xnor_word == n_i * words
        assert counters.popcount_word == n_i * words
        # the only real multiplies are per-output scaling plus beta-map cost
        beta_muls = 10 * 10 + n_i
        assert counters.real_mul <= 2 * n_i + beta_muls

    def test_degenerate_filter_in_bank(self):
        rng = np.random.default_rng(12)
        I = rng.normal(size=(3, 6, 6)).astype(np.float32)
        bank = rng.normal(size=(3, 3, 3, 3)).astype(np.float32)
        bank[1] = 0.0
        geom = ConvGeometry(filt_hw=(3, 3), pad=1, stride=2)
        filters = [binarize_weights(w) for w in bank]
        assert filters[1].degenerate
        counters = OpCounters()
        out = conv_xnor_layer(I, filters, geom, counters)
        np.testing.assert_array_equal(out[1], np.zeros(geom.out_hw((6, 6))))
        live = [0, 2]
        live_counters = OpCounters()
        np.testing.assert_array_equal(
            out[live], conv_xnor_layer(I, [filters[k] for k in live], geom, live_counters))
        # the zero filter adds no XNOR, popcount or scale work
        assert counters == live_counters
        assert counters.xnor_word == len(live) * out[0].size * 9  # 3 channels: a word per tap


@st.composite
def xnor_layer_cases(draw):
    """(I, bank, geom) across the word boundaries of the channel packing,
    with exact zeros in the input and all-zero (degenerate) filters."""
    I, geom = draw(window_cases(st.sampled_from([1, 63, 64, 65, 128, 129, 200])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bank = rng.normal(size=(draw(st.integers(1, 4)), I.shape[0], *geom.filt_hw))
    bank[rng.random(len(bank)) < 0.25] = 0.0
    return I, bank.astype(np.float32), geom


class TestXnorLayerOracle:
    @given(xnor_layer_cases())
    @settings(max_examples=150, deadline=None)
    def test_dots_exact_against_reference(self, case):
        # every output is float32(dot) * (K * alpha) to the bit, with the dot
        # from conv2d_reference; K itself is checked against the oracle's
        I, bank, geom = case
        filters = [binarize_weights(w) for w in bank]
        alphas = np.array([0.0 if f.degenerate else f.alpha for f in filters],
                          dtype=np.float32)
        dots, K_ref = xnor_oracle(I, bank, geom)
        K = compute_beta_map(I, geom).K
        np.testing.assert_allclose(K, K_ref, rtol=1e-5, atol=1e-6)
        out = conv_xnor_layer(I, filters, geom)
        expected = dots.astype(np.float32) * (K[None] * alphas[:, None, None])
        np.testing.assert_array_equal(out, expected)
        for k, f in enumerate(filters):
            if f.degenerate:
                np.testing.assert_array_equal(out[k], 0.0)


# ---------------------------------------------------------------------------
# the compiled XOR + popcount loop against the numpy loop it replaced

# cap on the (rows, filters, positions) XOR tile, in words (512 KiB) while
# rows <= 2^16; timed against 2^15..2^18 at c=16..512 with 9x9 to 56x56 outputs
TILE_WORDS = 1 << 16


def numpy_mismatches(cols, filt, tile_words=TILE_WORDS):
    """The numpy XOR + popcount loop over (rows, filters, positions) tiles of
    at most ``tile_words`` words: (filters, positions) int32 mismatch counts
    of the (rows, positions) columns against the (filters, rows) filter
    words."""
    rows, positions = cols.shape
    k = filt.shape[0]
    filt = filt.T
    mismatches = np.empty((k, positions), dtype=np.int32)
    pc = max(1, min(positions, tile_words // rows))
    kc = max(1, min(k, tile_words // (rows * pc)))
    xor = np.empty((rows, kc, pc), dtype=np.uint64)
    for k0 in range(0, k, kc):
        for p0 in range(0, positions, pc):
            tile = xor[:, :min(kc, k - k0), :min(pc, positions - p0)]
            np.bitwise_xor(cols[:, None, p0:p0 + pc], filt[:, k0:k0 + kc, None], out=tile)
            mismatches[k0:k0 + kc, p0:p0 + pc] = np.bitwise_count(tile).sum(axis=0, dtype=np.int32)
    return mismatches


@st.composite
def mismatch_cases(draw):
    """(I, filters, geom): c across the channel words' boundaries, 1 to 70
    filters, a quarter of them all-zero (alpha = 0), filters 1x1 to 5x5,
    stride 1 or 2, pad 0 to 2, and half the cases one output position."""
    c = draw(st.sampled_from([1, 63, 64, 65, 129]))
    fh, fw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    stride, pad = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    oh, ow = (1, 1) if draw(st.booleans()) else (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    h, w = (oh - 1) * stride + fh - 2 * pad, (ow - 1) * stride + fw - 2 * pad
    assume(h >= 1 and w >= 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    I = rng.normal(size=(c, h, w)).astype(np.float32)
    bank = rng.normal(size=(draw(st.integers(1, 70)), c, fh, fw))
    bank[rng.random(len(bank)) < 0.25] = 0.0
    geom = ConvGeometry(filt_hw=(fh, fw), stride=stride, pad=pad)
    assert geom.out_hw((h, w)) == (oh, ow)
    return I, [binarize_weights(f) for f in bank], geom


class TestCompiledMismatches:
    """The compiled XNOR conv entry, ``kernels._xnor_conv``: its counts
    against the numpy loop it replaced, and the scaling fused behind them."""

    @given(mismatch_cases())
    @settings(max_examples=200, deadline=None)
    def test_counts_equal_numpy_loop(self, case):
        # the layer's own operands and outputs, taken at the compiled call
        I, filters, geom = case
        calls = []

        def spy(cols, filt, alphas, beta, n):
            out = compiled(cols, filt, alphas, beta, n)
            calls.append((cols, filt, alphas, beta, n, out))
            return out

        compiled = kernels._xnor_conv
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_xnor_conv", spy)
            conv_xnor_layer(I, filters, geom)
        [(cols, filt, alphas, beta, n, out)] = calls
        np.testing.assert_array_equal(cols, sign_patch_matrix(I, geom))
        np.testing.assert_array_equal(beta, compute_beta_map(I, geom).K.reshape(1, -1))
        np.testing.assert_array_equal(alphas, np.array([f.alpha for f in filters], np.float32))
        rows, positions = cols.shape
        assert n == filters[0].n
        assert out.shape == (1, len(filters), positions) and out.dtype == np.float32
        # default tiles, 1x1 tiles, three-position tiles, two-filter tiles
        for cap in (TILE_WORDS, 1, 3 * rows, 2 * rows * positions):
            dots = n - 2 * numpy_mismatches(cols, filt, cap)
            np.testing.assert_array_equal(out[0], dots.astype(np.float32) * (alphas[:, None] * beta))

    @staticmethod
    def _operands(rng):
        """float32 operands of a two-image, three-position, three-filter call
        over four rows, and the output buffer, filled with -1."""
        return {"cols": rng.integers(0, 2**63, size=(4, 6), dtype=np.uint64),
                "filt": rng.integers(0, 2**63, size=(3, 4), dtype=np.uint64),
                "alphas": rng.normal(size=3).astype(np.float32),
                "beta": rng.random((2, 3)).astype(np.float32),
                "out": np.full((2, 3, 3), -1, dtype=np.float32)}

    @staticmethod
    def _call(kernel, args):
        kernel(args["cols"], args["filt"], args["alphas"], args["beta"], args["out"], 4, 2, 3, 3, 256)

    @pytest.mark.parametrize("which", ["cols", "filt", "beta", "out"])
    @pytest.mark.parametrize("bad", ["strided", "fortran", "int64", "1-d"])
    def test_operand_refused_before_the_call(self, which, bad):
        rng = np.random.default_rng(13)
        good = self._operands(rng)
        operand = good[which]
        wide = np.repeat(np.repeat(operand, 2, axis=0), 2, axis=-1)
        operand = {"strided": wide[::2, ..., ::2],
                   "fortran": np.asfortranarray(operand),
                   "int64": operand.astype(np.int64),
                   "1-d": operand.ravel()}[bad]
        args = {**good, which: operand}
        with pytest.raises(ctypes.ArgumentError):
            self._call(kernels._xnor_kernels()[np.dtype(np.float32)], args)
        assert (args["out"] == -1).all()  # nothing ran
        dots = 256 - 2 * numpy_mismatches(good["cols"], good["filt"]).reshape(3, 2, 3)
        want = dots.transpose(1, 0, 2).astype(np.float32) * (
            good["alphas"][None, :, None] * good["beta"][:, None, :])
        got = kernels._xnor_conv(good["cols"], good["filt"], good["alphas"], good["beta"], 256)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", ["strided", "float64", "2-d", "read-only-out",
                                     "float32-operands-float64-entry"])
    def test_scales_output_and_entry_refused_before_the_call(self, bad):
        rng = np.random.default_rng(15)
        args = self._operands(rng)
        dtype = np.float32
        if bad == "strided":
            args["alphas"] = np.repeat(args["alphas"], 2)[::2]
        elif bad == "float64":
            args["alphas"] = args["alphas"].astype(np.float64)
        elif bad == "2-d":
            args["alphas"] = args["alphas"][None]
        elif bad == "read-only-out":
            args["out"].flags.writeable = False
        else:
            dtype = np.float64
        with pytest.raises(ctypes.ArgumentError):
            self._call(kernels._xnor_kernels()[np.dtype(dtype)], args)
        assert (args["out"] == -1).all()

    def test_filter_rows_must_match_column_rows(self):
        good = self._operands(np.random.default_rng(16))
        cols, filt, alphas, beta = (good[k] for k in ("cols", "filt", "alphas", "beta"))
        for bad in ({"filt": filt[:, :3]}, {"alphas": alphas[:2]}, {"beta": beta[:1]}):
            args = {"cols": cols, "filt": filt, "alphas": alphas, "beta": beta, **bad}
            with pytest.raises(ShapeError):
                kernels._xnor_conv(**args, n=256)
        with pytest.raises(TypeError, match="float16"):
            kernels._xnor_conv(cols, filt, alphas.astype(np.float16), beta.astype(np.float16), 256)


def toy_xnor_net():
    return nn.build_network(nn.apply_mode(load_arch(TOY_CFG), "xnor"), (1, 28, 28), seed=0)


class TestBuild:
    """The library is built once per source, command and CPU into the cache
    directory; a failed build is a BuildError that names the command."""

    @pytest.fixture
    def fresh(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernels, "_CACHE_DIR", tmp_path / "cache")
        kernels._xnor_kernels.cache_clear()
        yield monkeypatch
        kernels._xnor_kernels.cache_clear()

    def _layer_call(self):
        rng = np.random.default_rng(14)
        I = rng.normal(size=(3, 5, 5)).astype(np.float32)
        return conv_xnor_layer(I, [binarize_weights(rng.normal(size=(3, 3, 3)))],
                               ConvGeometry(filt_hw=(3, 3)))

    def test_missing_compiler(self, fresh, tmp_path):
        fresh.setattr(kernels, "_CC", str(tmp_path / "no-such-cc"))
        with pytest.raises(kernels.BuildError, match=f"{tmp_path / 'no-such-cc'} -O3 -march=native"):
            self._layer_call()
        assert not list((tmp_path / "cache").glob("*"))

    def test_network_eval_without_compiler(self, fresh, tmp_path):
        # an xnor net's eval has no numpy fallback; its train step needs no library
        fresh.setattr(kernels, "_CC", str(tmp_path / "no-such-cc"))
        net = toy_xnor_net()
        x = np.random.default_rng(18).normal(size=(3, 1, 28, 28)).astype(np.float32)
        net.forward(x, train=True)
        with pytest.raises(kernels.BuildError, match="no-such-cc"):
            net.forward(x, train=False)
        assert not list((tmp_path / "cache").glob("*"))

    def test_compile_error_carries_stderr(self, fresh, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text("this is not C\n")
        fresh.setattr(kernels, "_SOURCE", bad)
        with pytest.raises(kernels.BuildError, match="(?s)cc -O3 -march=native.*bad.c.*error"):
            self._layer_call()
        assert not list((tmp_path / "cache").glob("*"))  # no temporary file left

    def test_one_build_per_source_command_and_cpu(self, fresh, tmp_path):
        out = self._layer_call()
        [lib] = (tmp_path / "cache").glob("*")
        assert lib.suffix == ".so" and kernels._build() == lib
        fresh.setattr(kernels, "_cpu_signature", lambda: b"model name\t: another CPU\n")
        other = kernels._build()
        assert other != lib and sorted((tmp_path / "cache").glob("*")) == sorted([lib, other])
        np.testing.assert_array_equal(self._layer_call(), out)

    def test_source_compiles_without_warnings(self, tmp_path):
        # the build's own command, with every common warning an error
        cmd = [kernels._CC, *kernels._CFLAGS, "-Wall", "-Wextra", "-Werror", "-std=c11",
               "-o", str(tmp_path / "xnor.so"), str(kernels._SOURCE)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr


LAZY_SCRIPT = """
import numpy as np
import xbnn
from xbnn import kernels, modelio, nn, train
from xbnn.cli import load_arch

net = nn.build_network(nn.apply_mode(load_arch({cfg!r}), {mode!r}), (1, 28, 28), seed=0)
rng = np.random.default_rng(0)
batch = (rng.normal(size=(8, 1, 28, 28)).astype(np.float32), rng.integers(0, 10, size=8))
train.train_step(net, batch, train.Adam(lr=0.01))
if {evaluate!r}:
    modelio.save(net, {model!r}, pack_binarized=True)
    logits = modelio.load({model!r}).logits(batch[0])
    assert np.isfinite(logits).all()
with open("/proc/self/maps") as fh:
    mapped = "_xnor" in fh.read()
print(kernels._xnor_kernels.cache_info().currsize, mapped, kernels._CACHE_DIR.exists())
"""


def run_lazy_script(tmp_path, mode, evaluate):
    """LAZY_SCRIPT's printout, run on a copy of the package whose cache
    directory starts absent."""
    src = Path(kernels.__file__).parent
    shutil.copytree(src, tmp_path / "xbnn", ignore=shutil.ignore_patterns("_xnor_cache"))
    script = LAZY_SCRIPT.format(cfg=str(TOY_CFG), model=str(tmp_path / "m.xbn"), mode=mode,
                                evaluate=evaluate)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, check=False,
                          env={"PYTHONPATH": str(tmp_path), "OPENBLAS_NUM_THREADS": "1",
                               "PATH": os.environ.get("PATH", os.defpath)})  # cc finds cc1 on PATH
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split(), (tmp_path / "xbnn" / "_xnor_cache").exists()


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="reads /proc/self/maps")
def test_import_and_train_load_no_library(tmp_path):
    assert run_lazy_script(tmp_path, "xnor", False) == (["0", "False", "False"], False)


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="reads /proc/self/maps")
@pytest.mark.parametrize("mode", ["full", "bwn", "xnor"])
def test_eval_loads_library_for_xnor_nets_only(tmp_path, mode):
    # an xnor net's eval runs its binarized conv on the compiled kernel
    printed, cache_made = run_lazy_script(tmp_path, mode, True)
    if mode == "xnor":
        assert (printed, cache_made) == (["1", "True", "True"], True)
    else:
        assert (printed, cache_made) == (["0", "False", "False"], False)


class TestExports:
    @pytest.mark.parametrize("module", [xbnn, kernels])
    def test_every_exported_name_resolves(self, module):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing


class TestConvBinaryWeightLayer:
    def test_degenerate_filter_in_bank(self):
        rng = np.random.default_rng(11)
        I = rng.normal(size=(3, 6, 6)).astype(np.float32)
        bank = rng.normal(size=(3, 3, 3, 3)).astype(np.float32)
        bank[1] = 0.0
        geom = ConvGeometry(filt_hw=(3, 3), pad=1, stride=2)
        filters = [binarize_weights(w) for w in bank]
        assert filters[1].degenerate
        counters = OpCounters()
        out = conv_binary_weight_layer(I, filters, geom, counters)
        np.testing.assert_array_equal(out[1], np.zeros(geom.out_hw((6, 6))))
        live = [0, 2]
        ref = conv2d_reference(I, np.stack([filters[k].dense() for k in live]), geom)
        np.testing.assert_allclose(out[live], ref, rtol=1e-5, atol=1e-5)
        positions, n = out[0].size, 3 * 3 * 3
        assert counters.real_mul == len(live) * positions
        assert counters.real_add == len(live) * positions * (n - 1)
        assert counters.xnor_word == 0

    def test_matches_reference_bank(self):
        rng = np.random.default_rng(10)
        I = rng.normal(size=(3, 6, 6)).astype(np.float32)
        bank = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        geom = ConvGeometry(filt_hw=(3, 3), pad=1)
        filters = [binarize_weights(w) for w in bank]
        out = conv_binary_weight_layer(I, filters, geom)
        ref = conv2d_reference(I, np.stack([f.dense() for f in filters]), geom)
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)
