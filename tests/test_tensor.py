import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xbnn.tensor import (
    ConvGeometry,
    ShapeError,
    channel_abs_mean,
    conv2d_reference,
    pad_hw,
    sign,
    windows,
)


class TestConvGeometry:
    def test_output_extent(self):
        g = ConvGeometry(filt_hw=(3, 3), stride=2, pad=1)
        assert g.out_hw((7, 7)) == (4, 4)

    def test_empty_output_rejected(self):
        g = ConvGeometry(filt_hw=(5, 5))
        with pytest.raises(ShapeError):
            g.out_hw((3, 3))

    @pytest.mark.parametrize("kwargs", [{"stride": 0}, {"pad": -1}, {"filt_hw": (0, 3)}])
    def test_invalid_fields(self, kwargs):
        base = {"filt_hw": (3, 3), "stride": 1, "pad": 0}
        base.update(kwargs)
        with pytest.raises(ShapeError):
            ConvGeometry(**base)


@st.composite
def tap_cases(draw):
    """(x, geom): an (n, c, h, w) input and a geometry whose window fits it padded."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    pad = draw(st.integers(0, 2))
    fh, fw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    assume(fh <= h + 2 * pad and fw <= w + 2 * pad)
    geom = ConvGeometry(filt_hw=(fh, fw), stride=draw(st.integers(1, 3)), pad=pad)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(draw(st.integers(1, 3)), draw(st.integers(1, 3)), h, w)), geom


class TestTaps:
    @given(tap_cases())
    @settings(max_examples=200, deadline=None)
    def test_taps_equal_window_view(self, case):
        x, geom = case
        oh, ow = geom.out_hw(x.shape[2:])
        p = geom.pad
        padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        win = windows(x, geom)
        taps = geom.taps(oh, ow)
        assert len(taps) == geom.filt_hw[0] * geom.filt_hw[1]
        for tap, (dy, dx) in zip(taps, np.ndindex(*geom.filt_hw)):
            np.testing.assert_array_equal(padded[tap], win[:, :, dy, dx])


class TestConv2dReference:
    def test_uniform_ones(self):
        inp = np.ones((1, 3, 3), dtype=np.float32)
        filt = np.ones((1, 1, 2, 2), dtype=np.float32)
        out = conv2d_reference(inp, filt, ConvGeometry(filt_hw=(2, 2)))
        np.testing.assert_array_equal(out, np.full((1, 2, 2), 4.0, dtype=np.float32))

    def test_zero_filter(self):
        rng = np.random.default_rng(0)
        inp = rng.normal(size=(3, 5, 5)).astype(np.float32)
        filt = np.zeros((2, 3, 3, 3), dtype=np.float32)
        out = conv2d_reference(inp, filt, ConvGeometry(filt_hw=(3, 3), pad=1))
        np.testing.assert_array_equal(out, np.zeros((2, 5, 5), dtype=np.float32))

    def test_hand_dot_product(self):
        inp = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        filt = np.array([[[[1.0, -1.0], [0.0, 2.0]]]])
        out = conv2d_reference(inp, filt, ConvGeometry(filt_hw=(2, 2)))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(7.0)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        geom = ConvGeometry(filt_hw=(3, 3), stride=1, pad=1)
        for _ in range(10):
            i1 = rng.normal(size=(2, 6, 6))
            i2 = rng.normal(size=(2, 6, 6))
            w = rng.normal(size=(3, 2, 3, 3))
            a, b = rng.normal(size=2)
            lhs = conv2d_reference(a * i1 + b * i2, w, geom)
            rhs = a * conv2d_reference(i1, w, geom) + b * conv2d_reference(i2, w, geom)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-9)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d_reference(
                np.ones((2, 4, 4)), np.ones((1, 3, 2, 2)), ConvGeometry(filt_hw=(2, 2))
            )

    def test_stride(self):
        # 1x4 input [1,2,3,4], filter [1,1], stride 2: windows [1,2], [3,4]
        inp = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        filt = np.array([[[[1.0, 1.0]]]])
        out = conv2d_reference(inp, filt, ConvGeometry(filt_hw=(1, 2), stride=2))
        np.testing.assert_allclose(out[0, 0], [3.0, 7.0])

    def test_pad(self):
        # 2x2 input [[1,2],[3,4]], all-ones 2x2 filter, pad 1: window sums
        inp = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        filt = np.ones((1, 1, 2, 2))
        out = conv2d_reference(inp, filt, ConvGeometry(filt_hw=(2, 2), pad=1))
        np.testing.assert_allclose(
            out[0], [[1.0, 3.0, 2.0], [4.0, 10.0, 6.0], [3.0, 7.0, 4.0]]
        )


class TestPadHW:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
    @pytest.mark.parametrize("shape, pad, value", [((2, 3, 5, 4), 1, 0.0), ((3, 7, 6), 2, 1.0),
                                                   ((1, 1), 3, -1.0)])
    def test_equals_np_pad(self, dtype, shape, pad, value):
        value = abs(value) if dtype == np.uint8 else value
        x = np.random.default_rng(5).normal(4, 2, size=shape).astype(dtype)
        want = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)], constant_values=value)
        got = pad_hw(x, pad, value)
        assert got.dtype == x.dtype
        np.testing.assert_array_equal(got, want)

    def test_pad_zero_returns_input(self):
        x = np.arange(6.0).reshape(1, 2, 3)
        assert pad_hw(x, 0, 1.0) is x


class TestElementwise:
    def test_sign_tie_rule(self):
        np.testing.assert_array_equal(sign(np.array([0.5, 0.0, -0.1])), [1.0, 1.0, -1.0])
        np.testing.assert_array_equal(sign(np.array([-0.0, np.nan])), [1.0, -1.0])
        ints = sign(np.array([3, 0, -2]))
        assert ints.dtype == np.float32
        np.testing.assert_array_equal(ints, [1.0, 1.0, -1.0])
        for dtype in (np.float32, np.float64):
            assert sign(np.array([-1.5, 2.0], dtype=dtype)).dtype == dtype

    def test_sign_times_abs_recovers_value(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=256)
        np.testing.assert_array_equal(sign(x) * np.abs(x), x)

    def test_sign_product_identity(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=64) + 0.01  # keep away from zero
        W = rng.normal(size=64) - 0.01
        np.testing.assert_array_equal(sign(X) * sign(W), sign(X * W))


class TestChannelAbsMean:
    def test_batched_equals_per_image(self):
        x = np.random.default_rng(3).normal(size=(4, 5, 3, 2)).astype(np.float32)
        np.testing.assert_array_equal(channel_abs_mean(x), [channel_abs_mean(i) for i in x])
        with pytest.raises(ShapeError):
            channel_abs_mean(x[0, 0])

    def test_two_channel_example(self):
        inp = np.array([[[1.0]], [[-3.0]]])
        np.testing.assert_array_equal(channel_abs_mean(inp), [[2.0]])

    def test_all_ones(self):
        np.testing.assert_array_equal(channel_abs_mean(np.ones((5, 2, 3))), np.ones((2, 3)))

    def test_single_channel_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4, 4))
        np.testing.assert_array_equal(channel_abs_mean(x), np.abs(x[0]))

    def test_channel_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 3, 3))
        perm = rng.permutation(6)
        np.testing.assert_allclose(channel_abs_mean(x), channel_abs_mean(x[perm]), rtol=1e-12)
