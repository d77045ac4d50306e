import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xbnn.binarize import (
    binarize_weights,
    compute_beta_map,
    filter_alphas,
    quantize_kbit,
    window_mean,
)
from xbnn.bitpack import unpack
from xbnn.tensor import ConvGeometry, channel_abs_mean


def residual(W, B, alpha):
    return float(np.sum((W - alpha * B) ** 2))


def brute_force_min_residual(W):
    """Enumerate all 2^n sign patterns; per pattern the optimal scale is
    max(W.B / n, 0) because the scale is constrained positive."""
    n = W.size
    best = np.inf
    for bits in itertools.product([-1.0, 1.0], repeat=n):
        B = np.array(bits)
        alpha = max(float(W @ B) / n, 0.0)
        best = min(best, residual(W, B, alpha))
    return best


class TestBinarizeWeights:
    def test_hand_example(self):
        f = binarize_weights(np.array([0.5, -1.5, 1.0]))
        np.testing.assert_array_equal(unpack(f.bits), [1.0, -1.0, 1.0])
        assert f.alpha == pytest.approx(1.0)
        W = np.array([0.5, -1.5, 1.0])
        assert residual(W, unpack(f.bits), f.alpha) == pytest.approx(0.5)

    def test_constant_filter_exact(self):
        f = binarize_weights(np.full((2, 2), 0.75))
        assert f.alpha == pytest.approx(0.75)
        np.testing.assert_array_equal(f.dense(), np.full((2, 2), 0.75))

    def test_l1_mean(self):
        assert binarize_weights(np.array([1.0, -2.0, 3.0])).alpha == pytest.approx(2.0)

    def test_all_zero_degenerate(self):
        f = binarize_weights(np.zeros(4))
        assert f.degenerate
        assert f.alpha == 0.0

    def test_brute_force_optimality(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            W = rng.normal(size=n)
            f = binarize_weights(W)
            ours = residual(W, unpack(f.bits), f.alpha)
            assert ours <= brute_force_min_residual(W) + 1e-9

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        W = rng.normal(size=12)
        f1 = binarize_weights(W)
        f2 = binarize_weights(2.5 * W)
        np.testing.assert_array_equal(unpack(f1.bits), unpack(f2.bits))
        assert f2.alpha == pytest.approx(2.5 * f1.alpha)


F32_SUBNORMALS = (float(np.finfo(np.float32).smallest_subnormal),
                  float(np.nextafter(np.finfo(np.float32).smallest_normal, np.float32(0))))
F32_MID = (float(np.float32(1e-30)), float(np.float32(1e30)))


class TestFilterAlphas:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 299), st.integers(1, 5),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    def test_equals_per_axis_and_flat_means(self, k_out, c, k, dtype, seed):
        # the forms training (mean over (c, fh, fw)) and the packed filters
        # (mean of the flattened filter) used before they shared this one; a
        # float32 bank is summed in float64, then its mean cast back
        bank = np.random.default_rng(seed).normal(size=(k_out, c, k, k)).astype(dtype)
        alphas = filter_alphas(bank)
        assert alphas.dtype == dtype
        n = c * k * k
        if dtype == np.float32:
            want = (np.abs(bank).sum(axis=(1, 2, 3), dtype=np.float64) / n).astype(np.float32)
        else:
            want = np.abs(bank).mean(axis=(1, 2, 3))
        np.testing.assert_array_equal(alphas, want)
        for w, alpha in zip(bank, alphas):
            flat = np.abs(w.reshape(-1))
            mean = flat.mean() if dtype == np.float64 else flat.sum(dtype=np.float64) / n
            assert binarize_weights(w).alpha == float(dtype(mean)) == alpha

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.just(0.0), st.floats(*F32_SUBNORMALS, width=32),
                     st.floats(*F32_MID, width=32), st.just(float(np.finfo(np.float32).max))),
           st.integers(1, 5000), st.integers(0, 2**32 - 1))
    def test_gives_alpha_back_from_alpha_times_signs(self, alpha, n, seed):
        # what a conv loaded from packed bits recomputes: alpha, bit for bit,
        # from its weights alpha * sign; n crosses many 64-bit word boundaries
        alpha = np.float32(alpha)
        signs = np.where(np.random.default_rng(seed).random((2, n)) < 0.5, -1, 1)
        bank = (alpha * signs).astype(np.float32)
        np.testing.assert_array_equal(filter_alphas(bank), [alpha, alpha])
        assert binarize_weights(bank[0]).alpha == alpha


def oracle_window_mean(planes, geom):
    """float64 mean of every zero-padded window of (..., H, W) planes,
    summed one window at a time."""
    fh, fw = geom.filt_hw
    oh, ow = geom.out_hw(planes.shape[-2:])
    p, s = geom.pad, geom.stride
    a = np.pad(np.asarray(planes, dtype=np.float64), [(0, 0)] * (planes.ndim - 2) + [(p, p)] * 2)
    out = np.empty((*a.shape[:-2], oh, ow))
    for y in range(oh):
        for x in range(ow):
            out[..., y, x] = a[..., y * s:y * s + fh, x * s:x * s + fw].sum(axis=(-2, -1))
    return out / (fh * fw)


@st.composite
def beta_cases(draw):
    """(I, geom): (n, c, h, w) input, fh, fw, stride 1 or 2, pad 0..2,
    float32/float64; the filter fits the padded input."""
    n, c = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    pad = draw(st.integers(0, 2))
    fh, fw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    assume(fh <= h + 2 * pad and fw <= w + 2 * pad)
    geom = ConvGeometry(filt_hw=(fh, fw), stride=draw(st.sampled_from([1, 2])), pad=pad)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(n, c, h, w)).astype(dtype), geom


class TestWindowMean:
    @given(beta_cases())
    @settings(max_examples=300, deadline=None)
    def test_single_plane_matches_float64_oracle(self, case):
        x, geom = case
        for a in channel_abs_mean(x):
            np.testing.assert_allclose(window_mean(a, geom), oracle_window_mean(a, geom),
                                       rtol=1e-12, atol=0)

    @given(beta_cases())
    @settings(max_examples=300, deadline=None)
    def test_batched_planes_match_float64_oracle(self, case):
        x, geom = case
        a = channel_abs_mean(x)
        got = window_mean(a, geom)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, oracle_window_mean(a, geom), rtol=1e-12, atol=0)

    def test_beta_map_at_imagenet_extent(self):
        # 224 x 224, the paper's ImageNet input: the error must not grow with
        # the plane's extent
        I = np.random.default_rng(8).normal(size=(3, 224, 224)).astype(np.float32)
        geom = ConvGeometry(filt_hw=(3, 3), pad=1)
        want = oracle_window_mean(channel_abs_mean(I.astype(np.float64)), geom)
        np.testing.assert_allclose(compute_beta_map(I, geom).K, want, rtol=1e-6, atol=0)


class TestBetaMap:
    def test_uniform_input(self):
        K = compute_beta_map(np.ones((1, 3, 3)), ConvGeometry(filt_hw=(2, 2))).K
        np.testing.assert_allclose(K, np.ones((2, 2)))

    def test_single_window_matches_filter_alpha(self):
        rng = np.random.default_rng(4)
        I = rng.normal(size=(3, 4, 5))
        K = compute_beta_map(I, ConvGeometry(filt_hw=(4, 5))).K
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(binarize_weights(I.reshape(-1)).alpha, rel=1e-6)

    def test_zero_input(self):
        K = compute_beta_map(np.zeros((2, 4, 4)), ConvGeometry(filt_hw=(3, 3))).K
        np.testing.assert_array_equal(K, np.zeros((2, 2)))

    def test_against_per_window_oracle(self):
        # padded positions are zeros that count in each window's mean
        rng = np.random.default_rng(5)
        I = rng.normal(size=(4, 9, 7)).astype(np.float32)
        for stride, pad in itertools.product((1, 2), (0, 1, 2)):
            geom = ConvGeometry(filt_hw=(3, 2), stride=stride, pad=pad)
            K = compute_beta_map(I, geom).K
            padded = np.pad(I, ((0, 0), (pad, pad), (pad, pad)))
            oh, ow = geom.out_hw(I.shape[1:])
            for y in range(oh):
                for x in range(ow):
                    window = padded[:, y * stride:y * stride + 3, x * stride:x * stride + 2]
                    expected = np.abs(window).mean()
                    assert K[y, x] == pytest.approx(expected, rel=1e-6, abs=1e-12)

    def test_padded_border_attenuated(self):
        I = np.ones((1, 4, 4), dtype=np.float32)
        K = compute_beta_map(I, ConvGeometry(filt_hw=(3, 3), pad=1)).K
        assert K[0, 0] == pytest.approx(4 / 9)  # corner window sees 4 real pixels
        assert K[1, 1] == pytest.approx(1.0)

    def test_entries_nonnegative(self):
        rng = np.random.default_rng(6)
        I = rng.normal(size=(2, 8, 8)).astype(np.float32)
        K = compute_beta_map(I, ConvGeometry(filt_hw=(3, 3), pad=2, stride=2)).K
        assert np.all(K >= 0)


class TestQuantizeKbit:
    def test_k1_is_sign_off_ties(self):
        assert quantize_kbit(0.3, 1) == pytest.approx(1.0)
        assert quantize_kbit(-0.3, 1) == pytest.approx(-1.0)
        assert quantize_kbit(0.0, 1) == pytest.approx(1.0)  # tie follows sign(0) = +1

    def test_k2_hand_value(self):
        assert quantize_kbit(0.3, 2) == pytest.approx(1.0 / 3.0)

    def test_endpoints_fixed(self):
        for k in (1, 2, 3, 8):
            assert quantize_kbit(1.0, k) == pytest.approx(1.0)
            assert quantize_kbit(-1.0, k) == pytest.approx(-1.0)

    def test_monotone_and_idempotent(self):
        x = np.linspace(-1, 1, 801)
        for k in (1, 2, 3, 4):
            q = quantize_kbit(x, k)
            assert np.all(np.diff(q) >= 0)
            np.testing.assert_allclose(quantize_kbit(q, k), q, atol=1e-12)

    def test_out_of_range_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            assert quantize_kbit(1.7, 2) == pytest.approx(1.0)

    def test_k1_odd_away_from_ties(self):
        x = np.array([0.9, 0.2, 0.0001])
        np.testing.assert_allclose(quantize_kbit(-x, 1), -quantize_kbit(x, 1))

