import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xbnn.binarize import binarize_weights, filter_alphas, window_mean
from xbnn.cli import load_arch
from xbnn.kernels import conv_xnor_layer
from xbnn import kernels, nn
from xbnn.nn import (
    BLOCK_ORDERS,
    AvgPool2d,
    BatchNorm2d,
    BinaryActivation,
    Conv2d,
    LayerSpec,
    MaxPool2d,
    Network,
    ReLU,
    apply_mode,
    build_network,
    conv_block,
    loss_softmax_nll,
    ste_backward_sign,
    weight_gradient,
)
from xbnn.tensor import ConvGeometry, ShapeError, channel_abs_mean, conv2d_reference, pad_chw, sign
from xbnn.train import SGDMomentum, train_step


def numeric_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f with respect to array x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


class TestSTE:
    def test_pass_through_region(self):
        assert ste_backward_sign(np.array(2.0), np.array(0.5)) == pytest.approx(2.0)

    def test_clipped_region(self):
        assert ste_backward_sign(np.array(7.0), np.array(2.0)) == pytest.approx(0.0)

    def test_boundary_inclusive(self):
        got = ste_backward_sign(np.array([1.0, 1.0]), np.array([1.0, -1.0]))
        np.testing.assert_array_equal(got, [1.0, 1.0])

    def test_closed_form_elementwise(self):
        rng = np.random.default_rng(0)
        up = rng.normal(size=50)
        pre = rng.normal(size=50) * 2
        expected = up * (np.abs(pre) <= 1.0)
        np.testing.assert_array_equal(ste_backward_sign(up, pre), expected)

    def test_scaled_variant(self):
        up = np.array([2.0, 2.0])
        pre = np.array([0.5, -0.25])
        np.testing.assert_allclose(
            ste_backward_sign(up, pre, variant="scaled"), up * pre
        )


class TestWeightGradient:
    def test_hand_example(self):
        g = weight_gradient(np.array([1.0, 1.0]), np.array([0.5, -0.5]), 0.5)
        np.testing.assert_allclose(g, [1.0, 1.0])

    def test_alpha_zero_outside_window(self):
        g = weight_gradient(np.array([3.0, -6.0]), np.array([2.0, -1.5]), 0.0)
        np.testing.assert_allclose(g, [1.5, -3.0])  # upstream / n only

    def test_zero_upstream(self):
        np.testing.assert_array_equal(
            weight_gradient(np.zeros(4), np.ones(4), 1.0), np.zeros(4)
        )

    def test_closed_form_elementwise(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=24)
        W = rng.normal(size=24) * 1.5
        alpha = 0.7
        expected = g * (1.0 / 24 + (np.abs(W) <= 1.0) * alpha)
        np.testing.assert_array_equal(weight_gradient(g, W, alpha), expected)

    def test_scale_path_diagonal_matches_finite_differences(self):
        # Freeze the sign pattern, perturb one coordinate at a time, and
        # check d(alpha(W) * B_i)/dW_i == 1/n on the diagonal (no sign flips).
        rng = np.random.default_rng(2)
        W = rng.uniform(0.2, 0.9, size=12) * np.where(rng.random(12) < 0.5, 1, -1)
        B = sign(W)
        n = W.size
        for i in range(n):
            def wtilde_i():
                return float(np.abs(W).mean() * B[i])

            fd = numeric_grad(wtilde_i, W[i:i + 1])[0] * B[i] * sign(W[i:i + 1])[0]
            # d alpha/dW_i = sign(W_i)/n, so d wtilde_i/dW_i = B_i*sign(W_i)/n = 1/n
            assert fd * B[i] * sign(np.array([W[i]]))[0] == pytest.approx(1.0 / n, rel=1e-4)


@pytest.mark.parametrize("fn", [weight_gradient])
class TestWeightGradientErrors:
    def test_unknown_variant_rejected(self, fn):
        with pytest.raises(ValueError, match="unknown STE variant"):
            fn(np.ones(4), np.full(4, 0.5), 0.5, variant="indicater")

    def test_shape_mismatch_rejected(self, fn):
        with pytest.raises(ShapeError, match="shape mismatch"):
            fn(np.ones(4), np.full(5, 0.5), 0.5)


class TestLoss:
    def test_uniform_logits(self):
        loss, _ = loss_softmax_nll(np.zeros((4, 10)), np.array([1, 3, 5, 7]))
        assert loss == pytest.approx(np.log(10))

    def test_confident_correct(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 50.0
        loss, _ = loss_softmax_nll(logits, np.array([2]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_two_class_hand_value(self):
        loss, _ = loss_softmax_nll(np.array([[1.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(np.log(1 + np.exp(-1)))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            loss_softmax_nll(np.zeros((2, 3)), np.array([0, 3]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(3, 5))
        labels = np.array([0, 4, 2])
        _, grad = loss_softmax_nll(logits, labels)
        fd = numeric_grad(lambda: loss_softmax_nll(logits, labels)[0], logits)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# references: the straightforward layer formulas, kept to pin the fast paths


def reference_maxpool(x, s, g):
    """argmax / take_along_axis max-pool: returns (output, input gradient)."""
    n, c, h, w = x.shape
    oh, ow = h // s, w // s
    blocks = x[:, :, :oh * s, :ow * s].reshape(n, c, oh, s, ow, s).transpose(0, 1, 2, 4, 3, 5)
    flat = blocks.reshape(n, c, oh, ow, s * s)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    gflat = np.zeros((n, c, oh, ow, s * s), dtype=g.dtype)
    np.put_along_axis(gflat, idx[..., None], g[..., None], axis=-1)
    gx = np.zeros(x.shape, dtype=g.dtype)
    gx[:, :, :oh * s, :ow * s] = (gflat.reshape(n, c, oh, ow, s, s)
                                  .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh * s, ow * s))
    return out, gx


def reference_avgpool(x, s, g):
    """6-D block-reshape average pool: returns (output, input gradient)."""
    n, c, h, w = x.shape
    oh, ow = h // s, w // s
    blocks = x[:, :, :oh * s, :ow * s].reshape(n, c, oh, s, ow, s).transpose(0, 1, 2, 4, 3, 5)
    gx = np.zeros(x.shape, dtype=g.dtype)
    gx[:, :, :oh * s, :ow * s] = np.repeat(np.repeat(g / (s * s), s, axis=2), s, axis=3)
    return blocks.mean(axis=(-2, -1)), gx


def reference_relu(x, g):
    mask = x > 0
    return np.where(mask, x, 0.0).astype(x.dtype), np.where(mask, g, 0.0).astype(g.dtype)


def _bcast(v):
    return v[None, :, None, None]


def reference_batchnorm_eval(bn, x):
    mu = bn.running_mean.astype(x.dtype)
    ivar = 1.0 / np.sqrt(bn.running_var.astype(x.dtype) + bn.eps)
    return _bcast(bn.gamma.value) * ((x - _bcast(mu)) * _bcast(ivar)) + _bcast(bn.beta.value)


def reference_batchnorm_train(gamma, beta, eps, x, g):
    """Train forward on batch stats and its input gradient: (out, gx, dgamma, dbeta)."""
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x - _bcast(mu)) * _bcast(ivar)
    out = _bcast(gamma) * xhat + _bcast(beta)
    m = g.shape[0] * g.shape[2] * g.shape[3]
    gxhat = g * _bcast(gamma)
    sum_g = gxhat.sum(axis=(0, 2, 3), keepdims=True)
    sum_gx = (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
    gx = _bcast(ivar) * (gxhat - sum_g / m - xhat * sum_gx / m)
    return out, gx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))


@st.composite
def pool_cases(draw):
    """(x, s, g): real, ReLU'd or +-1 input; H and W need not divide by s."""
    s = draw(st.sampled_from([2, 3]))
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    oh, ow = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h = oh * s + draw(st.integers(0, s - 1))
    w = ow * s + draw(st.integers(0, s - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, c, h, w)).astype(np.float32)
    kind = draw(st.sampled_from(["real", "relu", "sign"]))
    if kind == "relu":
        x = np.maximum(x, 0)
    elif kind == "sign":
        x = sign(x)
    g = rng.normal(size=(n, c, oh, ow)).astype(np.float32)
    return x, s, g


class TestReferenceEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(pool_cases())
    def test_maxpool_matches_argmax_reference(self, case):
        x, s, g = case
        want_out, want_gx = reference_maxpool(x, s, g)
        pool = MaxPool2d(s)
        np.testing.assert_array_equal(pool.forward(x, train=False), want_out)
        out = pool.forward(x, train=True)
        np.testing.assert_array_equal(out, want_out)
        gx = pool.backward(g)
        assert gx.dtype == want_gx.dtype
        np.testing.assert_array_equal(gx, want_gx)

    @settings(max_examples=150, deadline=None)
    @given(pool_cases())
    def test_avgpool_matches_block_mean_reference(self, case):
        # np.mean sums each block in an order numpy's iterator picks (row by
        # row for most shapes, but not when the output is one window wide),
        # so the forward agrees to the rounding of a s*s-term sum
        x, s, g = case
        want_out, want_gx = reference_avgpool(x, s, g)
        pool = AvgPool2d(s)
        np.testing.assert_array_equal(pool.forward(x, train=False), pool.forward(x, train=True))
        out = pool.forward(x, train=True)
        assert out.dtype == want_out.dtype
        bound = s * s * np.finfo(x.dtype).eps * max(np.abs(x).max(), 1e-30)
        assert np.abs(out - want_out).max() <= bound
        gx = pool.backward(g)
        assert gx.dtype == want_gx.dtype
        np.testing.assert_array_equal(gx, want_gx)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(st.sampled_from([np.float32, np.float64]),
                      hnp.array_shapes(min_dims=4, max_dims=4, max_side=4),
                      elements={"allow_nan": False, "allow_infinity": False}),
           st.integers(0, 2**32 - 1))
    def test_relu_matches_where_reference(self, x, seed):
        g = np.random.default_rng(seed).normal(size=x.shape).astype(x.dtype)
        want_out, want_gx = reference_relu(x, g)
        relu = ReLU()
        out = relu.forward(x, train=True)
        gx = relu.backward(g)
        assert out.dtype == want_out.dtype and gx.dtype == want_gx.dtype
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(gx, want_gx)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    @example(c=4, seed=3636)  # |mean|/std ~ 28: folding the mean into the shift failed here
    def test_batchnorm_eval_folded_within_rounding(self, c, seed):
        # inputs follow the running stats, as eval inputs are meant to
        rng = np.random.default_rng(seed)
        bn = BatchNorm2d(c)
        bn.running_mean = (rng.normal(size=c) * rng.choice([0.1, 1.0, 3.0])).astype(np.float32)
        bn.running_var = rng.uniform(0.05, 4.0, size=c).astype(np.float32)
        bn.gamma.value = rng.normal(size=c).astype(np.float32)
        bn.beta.value = rng.normal(size=c).astype(np.float32)
        spread = np.sqrt(bn.running_var) * rng.choice([0.5, 1.0, 3.0])
        x = (_bcast(bn.running_mean) + _bcast(spread) * rng.normal(size=(4, c, 5, 5))).astype(np.float32)
        want = reference_batchnorm_eval(bn, x)
        out = bn.forward(x, train=False)
        assert out.dtype == want.dtype == np.float32
        err = np.abs(out - want).max(axis=(0, 2, 3))
        assert np.all(err <= 1e-6 * np.abs(want).max(axis=(0, 2, 3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batchnorm_train_bit_exact(self, dtype):
        rng = np.random.default_rng(21)
        bn = BatchNorm2d(3)
        bn.gamma.value = rng.normal(size=3).astype(dtype)
        bn.beta.value = rng.normal(size=3).astype(dtype)
        x = (rng.normal(size=(4, 3, 5, 5)) * 2 + 1).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        out, gx, dgamma, dbeta = reference_batchnorm_train(bn.gamma.value, bn.beta.value,
                                                           bn.eps, x, g)
        np.testing.assert_array_equal(bn.forward(x, train=True), out)
        np.testing.assert_array_equal(bn.backward(g), gx)
        np.testing.assert_array_equal(bn.gamma.grad, dgamma.astype(dtype))
        np.testing.assert_array_equal(bn.beta.grad, dbeta.astype(dtype))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6), st.integers(1, 6),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    def test_batchnorm_train_bit_exact_drawn_shapes(self, n, c, h, w, dtype, seed):
        # N and H*W go down to 1, where a channel holds one value and its
        # variance is exactly zero
        rng = np.random.default_rng(seed)
        bn = BatchNorm2d(c)
        bn.gamma.value = rng.normal(size=c).astype(dtype)
        bn.beta.value = rng.normal(size=c).astype(dtype)
        x = (rng.normal(size=(n, c, h, w)) * rng.uniform(0.1, 3.0) + rng.normal()).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        out, gx, dgamma, dbeta = reference_batchnorm_train(bn.gamma.value, bn.beta.value,
                                                           bn.eps, x, g)
        np.testing.assert_array_equal(bn.forward(x, train=True), out)
        m = bn.momentum
        want_var = ((1 - m) * np.ones(c, dtype=np.float32) + m * x.var(axis=(0, 2, 3)))
        np.testing.assert_array_equal(bn.running_var, want_var.astype(np.float32))
        np.testing.assert_array_equal(bn.backward(g), gx)
        np.testing.assert_array_equal(bn.gamma.grad, dgamma.astype(dtype))
        np.testing.assert_array_equal(bn.beta.grad, dbeta.astype(dtype))


# ---------------------------------------------------------------------------
# reference: the row-major im2col convolution that Conv2d used before its
# channel-major path, one (N*oh*ow, C*fh*fw) matrix for the whole batch


def reference_im2col(x, geom, pad_value=0.0):
    n, c, h, w = x.shape
    fh, fw = geom.filt_hw
    oh, ow = geom.out_hw((h, w))
    if geom.pad:
        x = np.pad(x, ((0, 0), (0, 0), (geom.pad, geom.pad), (geom.pad, geom.pad)),
                   constant_values=pad_value)
    win = np.lib.stride_tricks.sliding_window_view(x, (fh, fw), axis=(2, 3))
    win = win[:, :, :: geom.stride, :: geom.stride]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * fh * fw)
    return np.ascontiguousarray(cols), (oh, ow)


def reference_col2im(gcols, x_shape, geom, out_hw):
    n, c, h, w = x_shape
    fh, fw = geom.filt_hw
    oh, ow = out_hw
    s, p = geom.stride, geom.pad
    g6 = gcols.reshape(n, oh, ow, c, fh, fw).transpose(0, 3, 4, 5, 1, 2)
    gpad = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=gcols.dtype)
    for ky in range(fh):
        for kx in range(fw):
            gpad[:, :, ky:ky + s * oh:s, kx:kx + s * ow:s] += g6[:, :, ky, kx]
    return gpad[:, :, p:h + p, p:w + p]


def reference_conv(layer, x, g):
    """Conv2d's forward and backward in the row-major layout, for 1-bit
    inputs and the default STE: (out, gx, weight grad, alpha grad or None)."""
    W = layer.weight.value
    k_out = layer.out_ch
    wt, alphas = W, None
    if layer.binarize_weights:
        wt = sign(W)
        if not layer.learned_scale:
            alphas = np.abs(W).mean(axis=(1, 2, 3))
            wt = alphas[:, None, None, None] * wt
    conv_in, pad_value, K = x, 0.0, None
    if layer.binarize_input:
        K = window_mean(np.abs(x).mean(axis=1), layer.geom).astype(x.dtype)
        conv_in, pad_value = sign(x), 1.0
    cols, out_hw = reference_im2col(conv_in, layer.geom, pad_value)
    flat = cols @ wt.reshape(k_out, -1).T
    out = flat.reshape(x.shape[0], *out_hw, k_out).transpose(0, 3, 1, 2)
    if K is not None:
        out = out * K[:, None]
    learned = layer.binarize_weights and layer.learned_scale
    galpha = None
    if learned:
        galpha = (g * out).sum(axis=(0, 2, 3))
        out = out * _bcast(layer.alpha.value)
        g = g * _bcast(layer.alpha.value)
    if K is not None:
        g = g * K[:, None]
    gflat = g.transpose(0, 2, 3, 1).reshape(-1, k_out)
    gwt = (gflat.T @ cols).reshape(W.shape)
    if layer.binary_gradient:
        scale = np.abs(g.reshape(g.shape[0], -1)).max(axis=1).reshape(-1, 1, 1, 1)
        gflat = (scale * sign(g)).transpose(0, 2, 3, 1).reshape(-1, k_out)
    gx = reference_col2im(gflat @ wt.reshape(k_out, -1), x.shape, layer.geom, out_hw)
    if layer.binarize_input:
        gx = ste_backward_sign(gx, x)
    if learned:
        gw = gwt * (np.abs(W) <= 1.0)  # alpha is already in g
    elif layer.binarize_weights:
        gw = np.stack([weight_gradient(gwt[k], W[k], float(alphas[k])) for k in range(k_out)])
    else:
        gw = gwt
    return out, gx, gw, galpha


CONV_KINDS = {
    "full": {},
    "bwn": {"binarize_weights": True},
    "xnor": {"binarize_weights": True, "binarize_input": True},
    "xnor-learned": {"binarize_weights": True, "binarize_input": True, "learned_scale": True},
    "xnor-binary-gradient": {"binarize_weights": True, "binarize_input": True,
                             "binary_gradient": True},
}


@st.composite
def conv_cases(draw, kinds=tuple(CONV_KINDS)):
    """(layer, n, h, w, rng): k in 1..5 or the full input extent (fc), stride 1
    or 2, pad 0..2, odd H/W, float32 or float64."""
    c, k_out = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    stride, pad = draw(st.sampled_from([1, 2])), draw(st.integers(0, 2))
    h, w = draw(st.sampled_from([1, 3, 5, 7, 9])), draw(st.sampled_from([1, 3, 5, 7, 9]))
    fc = draw(st.booleans())
    if fc:
        filt = (h, w)
    else:
        k = draw(st.integers(1, 5))
        assume(h + 2 * pad >= k and w + 2 * pad >= k)
        filt = (k, k)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layer = Conv2d(c, k_out, filt, stride=stride, pad=pad, rng=rng,
                   **CONV_KINDS[draw(st.sampled_from(kinds))])
    layer.weight.value = rng.normal(size=layer.weight.value.shape).astype(dtype)
    if layer.alpha is not None:
        layer.alpha.value = rng.uniform(0.5, 2.0, size=k_out).astype(dtype)
    return layer, draw(st.integers(1, 7)), h, w, rng


def chunk_budget(layer, h, w, images):
    """A column budget that makes a forward chunk hold `images` images."""
    oh, ow = layer.geom.out_hw((h, w))
    per_image = layer.in_ch * np.prod(layer.geom.filt_hw) * oh * ow
    return images * per_image * layer.weight.value.dtype.itemsize


def run_conv(layer, x, g, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "_CHUNK_BYTES", budget)
        out = layer.forward(x, train=True)
        gx = layer.backward(g)
    galpha = None if layer.alpha is None else layer.alpha.grad
    return out, gx, layer.weight.grad, galpha


def assert_close(got, want, rtol):
    """Every element within rtol of the largest magnitude of `want`."""
    assert got.dtype == want.dtype
    scale = max(np.abs(want).max(), 1.0)
    assert np.abs(got - want).max() <= rtol * scale


# Results may differ from the reference in float summation order only. In two
# runs of 1500 drawn cases the worst error, relative to max(1, largest
# |reference|), was 9.8e-7 in float32 and 1.6e-15 in float64.
CONV_RTOL = {np.float32: 1e-5, np.float64: 1e-13}


class TestConvReferenceEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(conv_cases(), st.integers(1, 3))
    def test_matches_row_major_reference(self, case, images):
        layer, n, h, w, rng = case
        dtype = layer.weight.value.dtype.type
        x = rng.normal(size=(n, layer.in_ch, h, w)).astype(dtype)
        g = rng.normal(size=(n, layer.out_ch, *layer.geom.out_hw((h, w)))).astype(dtype)
        want = reference_conv(layer, x, g)
        got = run_conv(layer, x, g, chunk_budget(layer, h, w, images))
        for a, b in zip(got, want):
            if b is not None:
                assert_close(a, b, CONV_RTOL[dtype])

    @settings(max_examples=100, deadline=None)
    @given(conv_cases(kinds=("full",)), st.integers(1, 3))
    def test_integer_dot_bit_exact(self, case, images):
        # +-1 inputs, sign weights with a unit learned scale and integer
        # upstream gradients: every sum is an exact small integer
        layer, n, h, w, rng = case
        dtype = layer.weight.value.dtype.type
        signed = Conv2d(layer.in_ch, layer.out_ch, layer.geom.filt_hw, layer.geom.stride,
                        layer.geom.pad, binarize_weights=True, learned_scale=True)
        signed.weight.value = layer.weight.value
        signed.alpha.value = np.ones(layer.out_ch, dtype=dtype)
        x = sign(rng.normal(size=(n, layer.in_ch, h, w))).astype(dtype)
        g = rng.integers(-3, 4, size=(n, layer.out_ch, *layer.geom.out_hw((h, w)))).astype(dtype)
        want = reference_conv(signed, x, g)
        got = run_conv(signed, x, g, chunk_budget(signed, h, w, images))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=100, deadline=None)
    @given(conv_cases(kinds=("bwn", "xnor", "xnor-learned")),
           st.sampled_from(["indicator", "scaled"]))
    def test_binarized_weight_gradient_equals_per_filter_calls(self, case, variant):
        # the gradient w.r.t. W~ does not depend on W~, so a full-precision
        # twin with the same input handling has it as its weight gradient
        layer, n, h, w, rng = case
        layer.ste_variant = variant
        twin = Conv2d(layer.in_ch, layer.out_ch, layer.geom.filt_hw, layer.geom.stride,
                      layer.geom.pad, binarize_input=layer.binarize_input)
        W = layer.weight.value
        twin.weight.value = W.copy()
        x = rng.normal(size=(n, layer.in_ch, h, w)).astype(W.dtype)
        g = rng.normal(size=(n, layer.out_ch, *layer.geom.out_hw((h, w)))).astype(W.dtype)
        for conv in (layer, twin):
            conv.forward(x, train=True)
            conv.backward(g)
        if layer.learned_scale:
            # W~ = alpha * sign(W): alpha gets sign(W) . dW~ per filter, and W
            # the estimator applied to alpha * dW~
            alpha = layer.alpha.value
            want = ste_backward_sign(alpha[:, None, None, None] * twin.weight.grad, W, variant)
            np.testing.assert_array_equal(layer.alpha.grad,
                                          (twin.weight.grad * sign(W)).sum(axis=(1, 2, 3)))
        else:
            alphas = filter_alphas(W)
            want = np.stack([weight_gradient(twin.weight.grad[k], W[k], float(alphas[k]), variant)
                             for k in range(layer.out_ch)])
        assert layer.weight.grad.dtype == want.dtype
        np.testing.assert_array_equal(layer.weight.grad, want)

    @settings(max_examples=100, deadline=None)
    @given(conv_cases(kinds=("bwn", "xnor")), st.booleans())
    def test_learned_scale_at_formula_value_equals_formula_conv(self, case, binary_gradient):
        # one binarized-weight form: a learned scale set to mean|W| builds the
        # same alpha * sign(W) as the formula, so forward and input gradient
        # are the formula conv's bit for bit
        formula, n, h, w, rng = case
        formula.binary_gradient = binary_gradient
        learned = Conv2d(formula.in_ch, formula.out_ch, formula.geom.filt_hw,
                         formula.geom.stride, formula.geom.pad, binarize_weights=True,
                         binarize_input=formula.binarize_input, learned_scale=True,
                         binary_gradient=binary_gradient)
        W = formula.weight.value
        learned.weight.value = W.copy()
        learned.alpha.value = filter_alphas(W)
        x = rng.normal(size=(n, formula.in_ch, h, w)).astype(W.dtype)
        g = rng.normal(size=(n, formula.out_ch, *formula.geom.out_hw((h, w)))).astype(W.dtype)
        got, want = ([conv.forward(x, train=False), conv.forward(x, train=True), conv.backward(g)]
                     for conv in (learned, formula))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=100, deadline=None)
    @given(conv_cases(), st.sampled_from([3, 5, 7]))
    def test_chunked_forward_equals_unchunked(self, case, n):
        layer, _, h, w, rng = case
        x = rng.normal(size=(n, layer.in_ch, h, w)).astype(layer.weight.value.dtype)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "_CHUNK_BYTES", chunk_budget(layer, h, w, 2))  # 2, 2, ..., 1
            chunked = layer.forward(x, train=False)
            mp.setattr(nn, "_CHUNK_BYTES", chunk_budget(layer, h, w, n))
            whole = layer.forward(x, train=False)
        np.testing.assert_array_equal(chunked, whole)


def test_conv_filter_larger_than_padded_input_raises_shape_error():
    layer = Conv2d(1, 2, (5, 5), pad=1)
    with pytest.raises(ShapeError, match="empty output"):
        layer.forward(np.zeros((2, 1, 2, 4), dtype=np.float32), train=False)


@pytest.mark.parametrize("make", [ReLU, lambda: MaxPool2d(2), lambda: AvgPool2d(2),
                                  BinaryActivation],
                         ids=["relu", "maxpool", "avgpool", "binactiv"])
def test_backward_needs_its_own_train_forward(make):
    x = np.random.default_rng(22).normal(size=(2, 3, 4, 4)).astype(np.float32)
    layer = make()
    g = np.ones_like(layer.forward(x, train=False))
    with pytest.raises(RuntimeError, match="without a train-mode forward"):
        layer.backward(g)
    layer.forward(x, train=True)
    layer.backward(g)
    with pytest.raises(RuntimeError, match="without a train-mode forward"):
        layer.backward(g)  # the tape is consumed by the first backward
    layer.forward(x, train=True)
    layer.forward(x, train=False)
    with pytest.raises(RuntimeError, match="without a train-mode forward"):
        layer.backward(g)  # an eval forward drops the earlier train tape


def test_network_backward_needs_a_train_forward():
    specs = apply_mode([LayerSpec(kind="conv", out_ch=4, k=3, pad=1), LayerSpec(kind="batchnorm"),
                        LayerSpec(kind="relu"), LayerSpec(kind="maxpool", k=2),
                        LayerSpec(kind="binconv", out_ch=4, k=3, pad=1), LayerSpec(kind="relu"),
                        LayerSpec(kind="conv", out_ch=3)], "xnor")
    net = build_network(specs, (2, 8, 8), seed=0)
    x = np.random.default_rng(23).normal(size=(2, 2, 8, 8)).astype(np.float32)
    g = np.ones((2, 3), dtype=np.float32)
    net.logits(x)
    with pytest.raises(RuntimeError, match="without a train-mode forward"):
        net.backward(g)  # an eval forward, run one image chunk at a time
    net.logits(x, train=True)
    net.logits(x)
    with pytest.raises(RuntimeError, match="without a train-mode forward"):
        net.backward(g)  # an eval forward drops the earlier train tapes
    net.logits(x, train=True)
    net.backward(g)
    with pytest.raises(RuntimeError, match="without a train-mode forward"):
        net.backward(g)  # the tapes are consumed by the first backward


@pytest.mark.parametrize("make, x_shape", [
    (ReLU, (2, 3, 5, 5)),
    (lambda: MaxPool2d(2), (2, 3, 5, 7)),
    (lambda: MaxPool2d(3), (2, 3, 7, 6)),
    (lambda: BatchNorm2d(3), (2, 3, 4, 4)),
    (lambda: Conv2d(3, 4, (3, 3), pad=1, rng=np.random.default_rng(0)), (2, 3, 5, 5)),
    (lambda: Conv2d(3, 4, (3, 3), stride=2, pad=1, binarize_weights=True, binarize_input=True,
                    rng=np.random.default_rng(0)), (2, 3, 5, 5)),
], ids=["relu", "maxpool-ragged-w", "maxpool-ragged-h", "batchnorm", "conv", "binconv"])
def test_backward_leaves_upstream_gradient_alone(make, x_shape):
    rng = np.random.default_rng(24)
    layer = make()
    x = rng.normal(size=x_shape).astype(np.float32)
    g = rng.normal(size=layer.forward(x, train=True).shape).astype(np.float32)
    g_before = g.copy()
    gx = layer.backward(g)
    np.testing.assert_array_equal(g, g_before)
    assert gx.shape == x.shape and not np.shares_memory(gx, g)


class TestBatchNorm:
    def test_identity_on_standardized_input(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 3, 4, 4))
        x -= x.mean(axis=(0, 2, 3), keepdims=True)
        x /= x.std(axis=(0, 2, 3), keepdims=True)
        bn = BatchNorm2d(3)
        out = bn.forward(x, train=True)
        np.testing.assert_allclose(out, x / np.sqrt(1 + bn.eps), rtol=1e-6)

    def test_running_stats_only_in_train(self):
        bn = BatchNorm2d(2)
        x = np.random.default_rng(6).normal(size=(4, 2, 3, 3)) + 5.0
        before = bn.running_mean.copy()
        bn.forward(x, train=False)
        np.testing.assert_array_equal(bn.running_mean, before)
        bn.forward(x, train=True)
        assert not np.array_equal(bn.running_mean, before)


class TestPooling:
    def test_maxpool_sign_semantics(self):
        rng = np.random.default_rng(7)
        x = sign(rng.normal(size=(2, 3, 8, 8)))
        out = MaxPool2d(2).forward(x, train=False)
        blocks = x.reshape(2, 3, 4, 2, 4, 2).transpose(0, 1, 2, 4, 3, 5).reshape(2, 3, 4, 4, 4)
        has_plus = (blocks == 1.0).any(axis=-1)
        np.testing.assert_array_equal(out == 1.0, has_plus)

    def test_maxpool_plus_one_concentration(self):
        # 2x2 max over iid +-1 is +1 unless all four are -1: expect 15/16.
        rng = np.random.default_rng(8)
        x = sign(rng.normal(size=(1, 1, 2000, 2000)))
        out = MaxPool2d(2).forward(x, train=False)
        frac = (out == 1.0).mean()
        assert frac == pytest.approx(15 / 16, abs=0.02)

    def test_avgpool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = AvgPool2d(2).forward(x, train=False)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])


class TestFiniteDifferenceGradients:
    """Full-network gradient checks for the non-binarized layers."""

    def _check_net(self, net: Network, x, labels, tol=1e-4):
        net.astype(np.float64)

        def run_loss():
            logits = net.logits(x, train=True)
            return loss_softmax_nll(logits, labels)[0]

        logits = net.logits(x, train=True)
        loss, grad = loss_softmax_nll(logits, labels)
        gx = net.backward(grad)

        fd_x = numeric_grad(run_loss, x)
        assert rel_err(gx, fd_x) < tol, f"input gradient off by {rel_err(gx, fd_x)}"
        for p in net.params():
            run_loss()  # refresh tapes not needed; closure reads current values
            fd = numeric_grad(run_loss, p.value)
            net.logits(x, train=True)
            assert rel_err(p.grad, fd) < tol, f"{p.name} gradient off by {rel_err(p.grad, fd)}"

    def test_single_linear_layer(self):
        rng = np.random.default_rng(9)
        specs = [LayerSpec(kind="conv", out_ch=4, k=0)]
        net = build_network(specs, (2, 3, 3), seed=1)
        x = rng.normal(size=(3, 2, 3, 3))
        labels = np.array([0, 1, 3])

        net.astype(np.float64)
        logits = net.logits(x, train=True)
        _, grad = loss_softmax_nll(logits, labels)
        net.backward(grad)
        p = net.params()[0]
        fd = numeric_grad(
            lambda: loss_softmax_nll(net.logits(x, train=True), labels)[0], p.value
        )
        assert rel_err(p.grad, fd) < 1e-4

    def test_conv_bn_relu_pool_chain(self):
        rng = np.random.default_rng(10)
        specs = [
            LayerSpec(kind="conv", out_ch=3, k=3, pad=1),
            LayerSpec(kind="batchnorm"),
            LayerSpec(kind="relu"),
            LayerSpec(kind="maxpool", k=2),
            LayerSpec(kind="conv", out_ch=4, k=0),
        ]
        net = build_network(specs, (2, 4, 4), seed=2)
        x = rng.normal(size=(4, 2, 4, 4))
        labels = np.array([0, 1, 2, 3])
        self._check_net(net, x, labels)

    def test_avgpool_strided_conv_chain(self):
        rng = np.random.default_rng(11)
        specs = [
            LayerSpec(kind="conv", out_ch=3, k=3, stride=2, pad=1),
            LayerSpec(kind="relu"),
            LayerSpec(kind="avgpool", k=2),
            LayerSpec(kind="conv", out_ch=3, k=0),
        ]
        net = build_network(specs, (1, 8, 8), seed=3)
        x = rng.normal(size=(2, 1, 8, 8))
        labels = np.array([1, 2])
        self._check_net(net, x, labels)

    def test_zero_upstream_zero_gradients(self):
        net = build_network(
            [LayerSpec(kind="conv", out_ch=3, k=2), LayerSpec(kind="conv", out_ch=2, k=0)],
            (1, 3, 3),
            seed=4,
        )
        x = np.random.default_rng(12).normal(size=(2, 1, 3, 3)).astype(np.float32)
        net.logits(x, train=True)
        net.backward(np.zeros((2, 2)))
        for p in net.params():
            np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))


class TestBinarizedConvLayer:
    def test_forward_matches_packed_kernels(self):
        rng = np.random.default_rng(13)
        layer = Conv2d(3, 4, (3, 3), pad=1, binarize_weights=True, binarize_input=True,
                       rng=np.random.default_rng(0))
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        out = layer.forward(x, train=False)
        geom = ConvGeometry(filt_hw=(3, 3), pad=1)
        filters = [binarize_weights(w) for w in layer.weight.value]
        for i in range(x.shape[0]):
            expected = conv_xnor_layer(x[i], filters, geom)
            np.testing.assert_allclose(out[i], expected, rtol=1e-4, atol=1e-5)

    def test_bwn_layer_uses_scaled_signs(self):
        rng = np.random.default_rng(14)
        layer = Conv2d(2, 3, (2, 2), binarize_weights=True, rng=np.random.default_rng(1))
        x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        out = layer.forward(x, train=False)
        ref_layer = Conv2d(2, 3, (2, 2), rng=np.random.default_rng(1))
        alphas = np.abs(layer.weight.value).mean(axis=(1, 2, 3))
        ref_layer.weight.value = alphas[:, None, None, None] * sign(layer.weight.value)
        np.testing.assert_allclose(out, ref_layer.forward(x, train=False), rtol=1e-6)

    def test_binarize_recomputed_each_forward(self):
        layer = Conv2d(1, 2, (2, 2), binarize_weights=True, rng=np.random.default_rng(2))
        x = np.random.default_rng(15).normal(size=(1, 1, 3, 3)).astype(np.float32)
        assert layer.binarize_count == 0
        layer.forward(x, train=True)
        layer.forward(x, train=True)
        assert layer.binarize_count == 2

    def test_k_bits_quantized_input(self):
        layer = Conv2d(1, 2, (2, 2), binarize_input=True, k_bits=2,
                       rng=np.random.default_rng(3))
        x = np.random.default_rng(16).normal(size=(1, 1, 4, 4)).astype(np.float32)
        out = layer.forward(x, train=False)
        assert np.all(np.isfinite(out))

    def test_binary_gradient_mode_backward_finite(self):
        layer = Conv2d(2, 3, (3, 3), pad=1, binarize_weights=True, binarize_input=True,
                       binary_gradient=True, rng=np.random.default_rng(4))
        x = np.random.default_rng(17).normal(size=(2, 2, 5, 5)).astype(np.float32)
        out = layer.forward(x, train=True)
        gx = layer.backward(np.ones_like(out))
        assert np.all(np.isfinite(gx))
        assert np.all(np.isfinite(layer.weight.grad))

    def test_learned_scale_alpha_gradient(self):
        layer = Conv2d(1, 2, (2, 2), binarize_weights=True, learned_scale=True,
                       rng=np.random.default_rng(5))
        x = np.random.default_rng(18).normal(size=(2, 1, 3, 3)).astype(np.float64)
        layer.weight.value = layer.weight.value.astype(np.float64)
        layer.alpha.value = layer.alpha.value.astype(np.float64)
        out = layer.forward(x, train=True)
        g = np.ones_like(out)
        layer.backward(g)
        fd = numeric_grad(lambda: layer.forward(x, train=True).sum(), layer.alpha.value)
        np.testing.assert_allclose(layer.alpha.grad, fd, rtol=1e-5, atol=1e-8)


def learned_scale_and_identity_gradients(variant):
    """Weight gradients of a learned-scale layer with |W| < 1 and of its
    surrogate with sign replaced by the identity, out = alpha * conv(x, W)."""
    rng = np.random.default_rng(23)
    alpha = np.array([0.5, 2.0, 3.0, 0.25])
    layer = Conv2d(3, 4, (3, 3), pad=1, binarize_weights=True, learned_scale=True,
                   ste_variant=variant)
    layer.weight.value = rng.uniform(-0.9, 0.9, size=layer.weight.value.shape)
    layer.alpha.value = alpha.copy()
    x = rng.normal(size=(2, 3, 5, 5))
    g = rng.normal(size=(2, 4, 5, 5))
    layer.forward(x, train=True)
    layer.backward(g)
    identity = Conv2d(3, 4, (3, 3), pad=1)
    identity.weight.value = layer.weight.value.copy()
    identity.forward(x, train=True)
    identity.backward(g * _bcast(alpha))
    return layer.weight.value, layer.weight.grad, identity.weight.grad


class TestLearnedScaleWeightGradient:
    def test_matches_identity_surrogate_inside_window(self):
        # inside the STE window d sign/dW = 1, so the chain rule leaves exactly
        # the surrogate's gradient; alpha enters once, through the output
        _, got, want = learned_scale_and_identity_gradients("indicator")
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_scaled_variant_applies(self):
        W, got, want = learned_scale_and_identity_gradients("scaled")
        np.testing.assert_allclose(got, want * W, rtol=1e-12, atol=0)
        _, indicator, _ = learned_scale_and_identity_gradients("indicator")
        assert not np.allclose(got, indicator)


class TestBlockOrders:
    def test_conv_block_shapes(self):
        bacp = conv_block("B-A-C-P", out_ch=8)
        assert [s.kind for s in bacp] == ["batchnorm", "binconv", "maxpool"]
        cbap = conv_block("C-B-A-P", out_ch=8)
        assert [s.kind for s in cbap] == ["binconv", "batchnorm", "binactiv", "maxpool"]

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            conv_block("P-A-C-B", out_ch=4)

    def test_bacp_forward_matches_hand_chain(self):
        # compose the same computation from individual layer calls
        specs = [LayerSpec(kind="conv", out_ch=4, k=3, pad=1)]
        specs += conv_block("B-A-C-P", out_ch=6)
        specs += [LayerSpec(kind="conv", out_ch=3, k=0)]
        specs = apply_mode(specs, "xnor")
        net = build_network(specs, (2, 8, 8), seed=7)
        rng = np.random.default_rng(19)
        x = rng.normal(size=(2, 2, 8, 8)).astype(np.float32)
        expected = x
        for layer in net.layers:
            expected = layer.forward(expected, train=False)
        out = net.forward(x, train=False)
        np.testing.assert_array_equal(out, expected)

    def test_eval_mode_deterministic(self):
        specs = [LayerSpec(kind="conv", out_ch=4, k=3, pad=1)]
        specs += conv_block("B-A-C-P", out_ch=6)
        specs += [LayerSpec(kind="conv", out_ch=3, k=0)]
        net = build_network(apply_mode(specs, "xnor"), (1, 8, 8), seed=8)
        x = np.random.default_rng(20).normal(size=(3, 1, 8, 8)).astype(np.float32)
        a = net.forward(x, train=False)
        b = net.forward(x, train=False)
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# eval plan: Network.forward works out each layer's per-batch state once, then
# runs the whole chain over one image chunk at a time

TOY_CFG = Path(__file__).resolve().parents[1] / "configs" / "toy_cnn.cfg"
PER_IMAGE_KINDS = ("batchnorm", "relu", "binactiv", "maxpool", "avgpool")


def toy_xnor_net(seed=0):
    return build_network(apply_mode(load_arch(TOY_CFG), "xnor"), (1, 28, 28), seed=seed)


def eval_plan_net(arch):
    """The toy xnor net, or a hand-built chain that opens with a BatchNorm and
    a binarized conv, so each image chunk's first two layers have state."""
    if arch == "toy":
        return toy_xnor_net()
    rng = np.random.default_rng(36)
    return Network([BatchNorm2d(1), Conv2d(1, 3, (3, 3), pad=1, binarize_weights=True, rng=rng),
                    BatchNorm2d(3), ReLU(), MaxPool2d(2),
                    Conv2d(3, 2, (3, 3), binarize_weights=True, binarize_input=True, rng=rng)],
                   (1, 8, 8))


@st.composite
def eval_chains(draw):
    """(net, chunk, rng): per-image layers, a first conv (pad 0/1,
    stride 1/2), per-image layers, a conv block in either order with maxpool
    or avgpool and relu or binactiv, per-image layers and an fc conv, in any
    mode, k_bits 1 or 2, maybe learned scales, odd extents, float32 or
    float64; random running statistics; ``chunk`` images per network eval
    chunk and per first-conv chunk."""
    def run():
        return [LayerSpec(kind=k) for k in draw(st.lists(st.sampled_from(PER_IMAGE_KINDS),
                                                         max_size=2))]

    pad, stride = draw(st.integers(0, 1)), draw(st.sampled_from([1, 2]))
    block = conv_block(draw(st.sampled_from(BLOCK_ORDERS)), out_ch=draw(st.integers(1, 5)))
    for spec in block:
        if spec.kind == "maxpool":
            spec.kind = draw(st.sampled_from(["maxpool", "avgpool"]))
        elif spec.kind == "binactiv":
            spec.kind = draw(st.sampled_from(["relu", "binactiv"]))
        elif spec.kind == "binconv":
            spec.pad = pad
            spec.learned_scale = draw(st.booleans())
    specs = run() + [LayerSpec(kind="conv", out_ch=draw(st.integers(1, 4)), k=3, pad=pad,
                               stride=stride)]
    specs += run() + block + run() + [LayerSpec(kind="conv", out_ch=draw(st.integers(2, 4)))]
    c, h, w = draw(st.integers(1, 3)), draw(st.sampled_from([9, 11, 13])), draw(st.sampled_from([9, 13, 15]))
    try:
        net = build_network(apply_mode(specs, draw(st.sampled_from(["full", "bwn", "xnor"]))),
                            (c, h, w), seed=draw(st.integers(0, 99)), k_bits=draw(st.integers(1, 2)))
    except ShapeError:
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for layer in net.layers:
        if isinstance(layer, BatchNorm2d):
            layer.running_mean = rng.normal(size=layer.channels).astype(np.float32)
            layer.running_var = rng.uniform(0.1, 3.0, size=layer.channels).astype(np.float32)
            layer.gamma.value = rng.normal(size=layer.channels).astype(np.float32)
            layer.beta.value = rng.normal(size=layer.channels).astype(np.float32)
        elif isinstance(layer, Conv2d) and layer.alpha is not None:
            layer.alpha.value = rng.uniform(0.5, 2.0, size=layer.out_ch).astype(np.float32)
    if draw(st.booleans()):
        net.astype(np.float64)
    return net, draw(st.integers(2, 5)), rng


class TestEvalSegments:
    @settings(max_examples=60, deadline=None)
    @given(eval_chains(), st.sampled_from(["one", "chunk-1", "chunk+1", "257"]))
    def test_forward_equals_layer_by_layer(self, case, batch):
        net, chunk, rng = case
        n = {"one": 1, "chunk-1": chunk - 1, "chunk+1": chunk + 1, "257": 257}[batch]
        first = net.conv_layers()[0]
        dtype = first.weight.value.dtype
        x = rng.normal(size=(n, *net.input_shape)).astype(dtype)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "_CHUNK_BYTES", chunk_budget(first, *first_conv_input_hw(net), chunk))
            mp.setattr(nn, "_EVAL_IMAGES", chunk)
            got = net.forward(x, train=False)
            mp.setattr(nn, "_CHUNK_BYTES", 1 << 62)  # the reference convs run in one chunk
            want = x
            for layer in net.layers:
                want = layer.forward(want, train=False)
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)

    def test_toy_net_plan(self):
        # each MaxPool runs first, ahead of the BatchNorm and ReLU before it;
        # a conv stops the pool from moving further forward
        plan = [type(step).__name__ for step in nn._pool_first(toy_xnor_net().layers, np.float32)]
        assert plan == ["Conv2d", "MaxPool2d", "BatchNorm2d", "ReLU", "BatchNorm2d",
                        "Conv2d", "MaxPool2d", "ReLU", "Conv2d"]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_pool_first_equals_layer_by_layer(self, data):
        """BatchNorm -> ReLU (-> BatchNorm) -> MaxPool run pool first where
        every gamma is positive, and give the same result with gammas of
        either sign, tiny, or zero of either sign (where the pool must stay
        behind), on inputs with infinities and NaN."""
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        c, h, w = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 7)), data.draw(st.integers(2, 7))
        tiny = float(np.finfo(dtype).smallest_subnormal)
        gammas = st.one_of(st.floats(-3, 3, width=32),
                           st.sampled_from([0.0, -0.0, tiny, -tiny, 1e-40, -1e-40, 1e-30]))
        layers = []
        for _ in range(data.draw(st.integers(1, 2))):
            bn = BatchNorm2d(c)
            bn.running_mean = data.draw(hnp.arrays(dtype, c, elements=st.floats(-2, 2, width=32)))
            bn.running_var = data.draw(hnp.arrays(dtype, c, elements=st.floats(0, 1e4, width=32)))
            bn.gamma.value = data.draw(hnp.arrays(dtype, c, elements=gammas))
            bn.beta.value = data.draw(hnp.arrays(dtype, c, elements=st.floats(-2, 2, width=32)))
            layers += [bn, ReLU()]
        pool = MaxPool2d(2)
        layers = layers[:data.draw(st.sampled_from([-1, len(layers)]))] + [pool]
        x = data.draw(hnp.arrays(dtype, (3, c, h, w), elements=st.one_of(
            st.floats(-3, 3, width=32), st.sampled_from([np.inf, -np.inf, np.nan, -0.0]))))

        steps = nn._pool_first(layers, x.dtype)
        with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf and inf - inf
            want = x
            for layer in layers:
                want = layer.forward(want, train=False)
            got = x.copy()
            for layer in steps:
                got = layer.forward(got, False, steps)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        scales = [l.eval_affine(dtype)[1] for l in layers if isinstance(l, BatchNorm2d)]
        assert (list(steps)[0] is pool) == all((a > 0).all() for a in scales)

    @pytest.mark.parametrize("field", ["running_mean", "beta", "gamma"])
    def test_non_finite_batchnorm_stops_the_pool(self, field):
        bn, relu, pool = BatchNorm2d(2), ReLU(), MaxPool2d(2)
        values = np.zeros(2, dtype=np.float32)
        values[1] = np.inf  # inf - inf or -inf + inf would be NaN on one side only
        if field == "beta":
            bn.beta.value = values
        elif field == "gamma":
            bn.gamma.value = np.array([1.0, -0.5], dtype=np.float32)  # decreasing in one channel
        else:
            bn.running_mean = values
        assert list(nn._pool_first([bn, relu, pool], np.float32)) == [bn, pool, relu]

    def test_conv_sets_the_dtype_the_plan_reads(self):
        # a float64 conv turns float32 input into float64, where this
        # running variance gives a positive scale; in float32 it overflows,
        # the scale is 0 and the pool moves ahead of the ReLU only
        conv, bn, relu, pool = Conv2d(2, 2, (1, 1)), BatchNorm2d(2), ReLU(), MaxPool2d(2)
        conv.weight.value = conv.weight.value.astype(np.float64)
        bn.running_var = np.full(2, 1e300)
        assert list(nn._pool_first([conv, bn, relu, pool], np.float32)) == [conv, pool, bn, relu]
        with np.errstate(over="ignore"):
            assert list(nn._pool_first([bn, relu, pool], np.float32)) == [bn, pool, relu]

    def test_binary_activation_stops_the_pool(self):
        bn, act, relu, pool = BatchNorm2d(2), BinaryActivation(), ReLU(), MaxPool2d(2)
        assert list(nn._pool_first([bn, act, relu, pool], np.float32)) == [bn, act, pool, relu]
        assert list(nn._pool_first([relu, act, pool], np.float32)) == [relu, act, pool]

    @pytest.mark.parametrize("arch", ["toy", "leading-relu-unpadded"])
    def test_eval_forward_leaves_input_and_tapes_alone(self, arch):
        if arch == "toy":
            net = toy_xnor_net()
        else:  # a standalone ReLU gets the caller's x; the first conv reads an unpadded view
            specs = [LayerSpec(kind="relu"), LayerSpec(kind="conv", out_ch=3, k=1),
                     LayerSpec(kind="relu"), LayerSpec(kind="batchnorm"),
                     LayerSpec(kind="conv", out_ch=2)]
            net = build_network(specs, (1, 28, 28), seed=3)
        rng = np.random.default_rng(31)
        x = rng.normal(size=(5, 1, 28, 28)).astype(np.float32)
        x_before = x.copy()
        net.forward(x, train=True)  # leaves a tape on every layer
        out = net.forward(x, train=False)
        np.testing.assert_array_equal(x, x_before)
        assert not np.shares_memory(out, x)
        assert all(layer._tape is None for layer in net.layers)
        with pytest.raises(RuntimeError):
            net.backward(np.ones_like(out))

    @pytest.mark.parametrize("x_dtype, p_dtype", [(np.float32, np.float32),
                                                  (np.float32, np.float64)])
    def test_batchnorm_overwrite_matches_fresh_output(self, x_dtype, p_dtype):
        rng = np.random.default_rng(33)
        bn = BatchNorm2d(3)
        bn.running_mean = rng.normal(size=3).astype(p_dtype)
        bn.running_var = rng.uniform(0.1, 3.0, size=3).astype(p_dtype)
        bn.gamma.value = rng.normal(size=3).astype(p_dtype)
        x = rng.normal(size=(2, 3, 4, 4)).astype(x_dtype)
        want = bn.forward(x, train=False)
        got = bn.forward(x.copy(), train=False, plan=nn._pool_first([bn], x.dtype))
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("arch", ["toy", "binarized-first"])
    def test_eval_binarizes_once_per_forward(self, arch):
        net = eval_plan_net(arch)
        convs = [c for c in net.conv_layers() if c.binarize_weights]
        x = np.random.default_rng(34).normal(size=(257, *net.input_shape)).astype(np.float32)
        before = [c.binarize_count for c in convs]
        net.forward(x, train=False)  # five image chunks
        assert [c.binarize_count - b for c, b in zip(convs, before)] == [1] * len(convs)

    @pytest.mark.parametrize("arch", ["toy", "binarized-first"])
    def test_eval_folds_each_batchnorm_once_per_forward(self, arch, monkeypatch):
        net = eval_plan_net(arch)
        calls = []
        eval_affine = BatchNorm2d.eval_affine
        monkeypatch.setattr(BatchNorm2d, "eval_affine",
                            lambda bn, dtype: calls.append(bn) or eval_affine(bn, dtype))
        x = np.random.default_rng(35).normal(size=(257, *net.input_shape)).astype(np.float32)
        x_before = x.copy()
        net.forward(x, train=False)
        assert calls == [l for l in net.layers if isinstance(l, BatchNorm2d)]
        np.testing.assert_array_equal(x, x_before)  # a leading BatchNorm reads, not writes

    def test_empty_batch(self):
        net, x = toy_xnor_net(), np.zeros((0, 1, 28, 28), dtype=np.float32)
        out = net.forward(x, train=False)
        assert out.shape == (0, 10, 1, 1) and out.dtype == np.float32
        assert net.logits(x).shape == (0, 10)

    def test_eval_peak_memory_below_one_full_resolution_activation(self):
        net = toy_xnor_net()
        x = np.random.default_rng(32).normal(size=(256, 1, 28, 28)).astype(np.float32)
        net.logits(x)
        tracemalloc.start()
        try:
            net.logits(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # half the first conv's (N, 16, 28, 28) float32 output: the forward
        # holds one image chunk's activations, not the batch's
        assert peak < 256 * 16 * 28 * 28 * 4 // 2


# ---------------------------------------------------------------------------
# the packed eval conv: a 1-bit XNOR conv's eval runs kernels.conv_xnor


def integer_first_eval(layer, x):
    """A 1-bit XNOR conv's eval output, built densely: the integer dots of
    sign(W) against sign(x), with the zero padding binarized to +1, from the
    naive conv2d_reference image by image, then float(dot) * (alpha * K) in
    the conv's result dtype, K being the beta map in x's dtype."""
    geom = layer.geom
    dtype = np.result_type(x, *(p.value for p in layer.params()))
    alphas = layer.scales().astype(dtype)
    K = window_mean(channel_abs_mean(x), geom).astype(x.dtype).astype(dtype)
    unpadded = ConvGeometry(geom.filt_hw, geom.stride)
    out = np.empty((len(x), layer.out_ch, *K.shape[1:]), dtype=dtype)
    for i, image in enumerate(x):
        dots = conv2d_reference(sign(pad_chw(image, geom.pad)), sign(layer.weight.value), unpadded)
        out[i] = dots.astype(np.int64).astype(dtype) * (alphas[:, None, None] * K[i])
    return out


@st.composite
def xnor_eval_cases(draw):
    """(layer, x, chunk): a 1-bit XNOR conv with c across the channel words'
    boundaries, stride 1 or 2, pad 0 to 2, a 1x1, full-extent or other
    filter, formula or learned scales with a quarter of them 0, float32 or
    float64 weights and input, exact zeros and all-zero images in the input,
    and 1 to 7 images run ``chunk`` at a time."""
    c = draw(st.sampled_from([1, 63, 64, 65, 129]))
    stride, pad = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    filt = draw(st.sampled_from(["1x1", "full-extent", "any"]))
    fh, fw = {"1x1": (1, 1), "full-extent": (h, w)}.get(filt, (draw(st.integers(1, 5)),
                                                               draw(st.integers(1, 5))))
    assume(fh <= h + 2 * pad and fw <= w + 2 * pad)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out_ch, learned = draw(st.integers(1, 6)), draw(st.booleans())
    layer = Conv2d(c, out_ch, (fh, fw), stride, pad, binarize_weights=True, binarize_input=True,
                   learned_scale=learned, rng=rng)
    w_dtype, x_dtype = (draw(st.sampled_from([np.float32, np.float64])) for _ in range(2))
    W = rng.normal(size=layer.weight.value.shape)
    W[rng.random(out_ch) < 0.25] = 0.0  # alpha = mean|W| = 0
    layer.weight.value = W.astype(w_dtype)
    if learned:
        alpha = rng.normal(size=out_ch)
        alpha[rng.random(out_ch) < 0.25] = 0.0
        layer.alpha.value = alpha.astype(w_dtype)
    x = rng.normal(size=(draw(st.integers(1, 7)), c, h, w)).astype(x_dtype)
    x[rng.random(x.shape) < 0.2] = 0.0  # sign(0) = +1
    if draw(st.booleans()):
        x[rng.integers(len(x))] = 0.0  # K = 0 over the whole image
    return layer, x, draw(st.integers(1, 4))


class TestPackedEvalConv:
    @settings(max_examples=200, deadline=None)
    @given(xnor_eval_cases())
    def test_equals_integer_first_oracle(self, case):
        layer, x, chunk = case
        want = integer_first_eval(layer, x)
        calls = []
        conv_xnor = kernels.conv_xnor
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "_EVAL_IMAGES", chunk)
            mp.setattr(kernels, "conv_xnor", lambda *a: calls.append(len(a[0])) or conv_xnor(*a))
            planned = Network([layer], x.shape[1:]).forward(x, train=False)
            alone = layer.forward(x, train=False)
        # one packed call per image chunk, and one for the whole batch alone
        assert calls == [min(chunk, len(x) - i) for i in range(0, len(x), chunk)] + [len(x)]
        for got in (planned, alone):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("flags", [{"binarize_weights": True},
                                       {"binarize_weights": True, "binarize_input": True,
                                        "k_bits": 2},
                                       {"binarize_input": True}],
                             ids=["bwn", "2-bit-input", "real-weights"])
    def test_other_convs_keep_the_dense_product(self, flags, monkeypatch):
        layer = Conv2d(3, 4, (3, 3), pad=1, rng=np.random.default_rng(40), **flags)
        monkeypatch.setattr(kernels, "conv_xnor", None)  # any call would fail
        x = np.random.default_rng(41).normal(size=(3, 3, 6, 6)).astype(np.float32)
        np.testing.assert_array_equal(Network([layer], (3, 6, 6)).forward(x, train=False),
                                      layer.forward(x, train=False))


class TestParameterOnlyBackward:
    @pytest.mark.parametrize("arch", ["toy", "batchnorm-first"])
    def test_parameter_gradients_equal_the_full_backward(self, arch, monkeypatch):
        if arch == "toy":
            net = toy_xnor_net()
        else:  # a ReLU ahead of the first layer that has parameters
            rng = np.random.default_rng(42)
            net = Network([ReLU(), BatchNorm2d(1),
                           Conv2d(1, 3, (3, 3), pad=1, binarize_weights=True,
                                  binarize_input=True, rng=rng),
                           BatchNorm2d(3), ReLU(), MaxPool2d(2), Conv2d(3, 2, (4, 4), rng=rng)],
                          (1, 8, 8))
        rng = np.random.default_rng(43)
        x = rng.normal(size=(5, *net.input_shape)).astype(np.float32)
        g = rng.normal(size=(5, 10 if arch == "toy" else 2)).astype(np.float32)
        col2im_calls, col2im = [], nn._col2im
        monkeypatch.setattr(nn, "_col2im", lambda *a: col2im_calls.append(1) or col2im(*a))
        grads, calls = {}, {}
        for input_grad in (True, False):
            del col2im_calls[:]
            net.forward(x, train=True)
            gx = net.backward(g, input_grad=input_grad)
            assert (gx is None) != input_grad
            assert all(layer._tape is None for layer in net.layers)  # every tape consumed
            grads[input_grad] = [p.grad.copy() for p in net.params()]
            calls[input_grad] = len(col2im_calls)
        for a, b in zip(grads[True], grads[False]):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        # the toy net's first conv scatters no input gradient
        assert calls[True] - calls[False] == (1 if arch == "toy" else 0)
        if arch == "batchnorm-first":
            net.forward(x, train=True)
            monkeypatch.setattr(net.layers[0], "backward", None)  # the ReLU does not run
            net.backward(g, input_grad=False)
            with pytest.raises(RuntimeError, match="without a train-mode forward"):
                net.backward(g, input_grad=False)


def first_conv_input_hw(net):
    """The spatial extent the first conv of `net` sees."""
    h, w = net.input_shape[1:]
    for layer in net.layers:
        if isinstance(layer, Conv2d):
            return h, w
        if isinstance(layer, (MaxPool2d, AvgPool2d)):
            h, w = h // layer.size, w // layer.size
    raise AssertionError("no conv")


def reference_apply_mode(specs, mode):
    """apply_mode as one loop over conv positions, each mode spelled out."""
    out = [replace(s) for s in specs]
    conv_idx = [i for i, s in enumerate(out) if s.kind in ("conv", "binconv")]
    for pos, i in enumerate(conv_idx):
        s = out[i]
        if mode == "full" or pos in (0, len(conv_idx) - 1):
            s.kind, s.binarize_weights, s.binarize_input = "conv", False, False
        elif mode == "bwn":
            s.kind, s.binarize_weights, s.binarize_input = "binconv", True, False
        else:
            s.kind, s.binarize_weights, s.binarize_input = "binconv", True, True
    return out


def reference_build_flags(specs):
    """(binarize_weights, binarize_input) per conv once build_network forces
    the first and last conv to full precision."""
    specs = [replace(s) for s in specs]
    conv_idx = [i for i, s in enumerate(specs) if s.kind in ("conv", "binconv")]
    for i in conv_idx[:1] + conv_idx[-1:]:
        specs[i].binarize_weights = specs[i].binarize_input = False
    return [(specs[i].binarize_weights, specs[i].binarize_input) for i in conv_idx]


@st.composite
def spec_lists(draw):
    """Chains of 1x1 convs (any kind and flags) and shape-keeping layers."""
    specs = []
    for kind in draw(st.lists(st.sampled_from(["conv", "binconv", "batchnorm", "relu",
                                                "binactiv"]), max_size=8)):
        if kind in ("conv", "binconv"):
            specs.append(LayerSpec(kind=kind, out_ch=draw(st.integers(1, 3)), k=1,
                                   binarize_weights=draw(st.booleans()),
                                   binarize_input=draw(st.booleans()),
                                   learned_scale=draw(st.booleans())))
        else:
            specs.append(LayerSpec(kind=kind))
    return specs


class TestSpecsAndModes:
    @settings(max_examples=150, deadline=None)
    @given(spec_lists())
    def test_apply_mode_matches_reference(self, specs):
        before = [replace(s) for s in specs]
        for mode in ("full", "bwn", "xnor"):
            assert apply_mode(specs, mode) == reference_apply_mode(specs, mode)
        assert specs == before

    @settings(max_examples=100, deadline=None)
    @given(spec_lists())
    def test_build_flags_match_reference(self, specs):
        assume(specs)  # a network holds at least one layer (test_network_needs_a_layer)
        before = [replace(s) for s in specs]
        net = build_network(specs, (2, 3, 3), seed=0)
        got = [(l.binarize_weights, l.binarize_input) for l in net.conv_layers()]
        assert got == reference_build_flags(specs)
        assert specs == before

    def test_apply_mode_xnor_flags_middle_layers(self):
        specs = [
            LayerSpec(kind="conv", out_ch=4, k=3),
            LayerSpec(kind="conv", out_ch=8, k=3),
            LayerSpec(kind="conv", out_ch=10, k=0),
        ]
        out = apply_mode(specs, "xnor")
        assert (out[0].binarize_weights, out[0].binarize_input) == (False, False)
        assert (out[1].binarize_weights, out[1].binarize_input) == (True, True)
        assert (out[2].binarize_weights, out[2].binarize_input) == (False, False)

    def test_apply_mode_bwn_no_input_binarization(self):
        specs = [LayerSpec(kind="conv", out_ch=4, k=3)] * 3
        out = apply_mode(specs, "bwn")
        assert out[1].binarize_weights and not out[1].binarize_input

    def test_build_forces_real_first_and_last(self):
        specs = [
            LayerSpec(kind="binconv", out_ch=4, k=3, binarize_weights=True, binarize_input=True),
            LayerSpec(kind="binconv", out_ch=5, k=0, binarize_weights=True),
        ]
        net = build_network(specs, (1, 4, 4), seed=0)
        convs = net.conv_layers()
        assert not convs[0].binarize_weights and not convs[0].binarize_input
        assert not convs[1].binarize_weights

    @pytest.mark.parametrize("kind", ["maxpool", "avgpool"])
    def test_build_rejects_pool_larger_than_its_input(self, kind):
        specs = [LayerSpec(kind="conv", out_ch=2, k=3, pad=1), LayerSpec(kind=kind, k=4),
                 LayerSpec(kind="conv", out_ch=3)]
        build_network(specs, (1, 4, 5), seed=0)
        with pytest.raises(ShapeError):
            build_network(specs, (1, 3, 5), seed=0)

    @pytest.mark.parametrize("stride", [1, 2, 3, 4])
    def test_build_pool_stride_is_one_or_its_size(self, stride):
        specs = [LayerSpec(kind="maxpool", k=3, stride=stride), LayerSpec(kind="conv", out_ch=2)]
        if stride in (1, 3):
            assert build_network(specs, (1, 6, 6)).layers[0].geom.stride == 3
        else:
            with pytest.raises(ShapeError, match="stride"):
                build_network(specs, (1, 6, 6))

    def test_full_precision_convs_have_no_learned_scale(self):
        # a learned scale multiplies binarized weights only: the end convs,
        # every conv in full mode and every conv whose spec leaves its weights
        # real drop it, so every parameter gets a gradient
        specs = [LayerSpec(kind="conv", out_ch=4, k=3, pad=1, learned_scale=True),
                 LayerSpec(kind="maxpool", k=2),
                 LayerSpec(kind="binconv", out_ch=4, k=3, pad=1, learned_scale=True),
                 LayerSpec(kind="conv", out_ch=3, learned_scale=True)]
        net = build_network(apply_mode(specs, "xnor"), (1, 6, 6), seed=0)
        for built in (build_network(specs, (1, 6, 6), seed=0), net):
            first, _, last = built.conv_layers()
            assert [p.name for p in first.params()] == ["weight"]
            assert [p.name for p in last.params()] == ["weight"]
        assert build_network(specs, (1, 6, 6), seed=0).conv_layers()[1].alpha is None
        with pytest.raises(ValueError, match="binarized weights only"):
            Conv2d(1, 2, (1, 1), learned_scale=True)
        assert [p.name for p in net.conv_layers()[1].params()] == ["weight", "alpha"]
        rng = np.random.default_rng(25)
        images = rng.normal(size=(4, 1, 6, 6)).astype(np.float32)
        train_step(net, (images, rng.integers(0, 3, 4)), SGDMomentum(lr=0.01))
        assert all(p.grad is not None for p in net.params())
        full = build_network(apply_mode(specs, "full"), (1, 6, 6), seed=0)
        assert all(conv.alpha is None for conv in full.conv_layers())

    def test_softmax_nll_must_be_last(self):
        with pytest.raises(ShapeError):
            build_network(
                [LayerSpec(kind="softmax-nll"), LayerSpec(kind="conv", out_ch=2, k=0)],
                (1, 3, 3),
            )

    def test_network_needs_a_layer(self):
        with pytest.raises(ShapeError, match="at least one layer"):
            build_network([LayerSpec(kind="softmax-nll")], (1, 3, 3))
        with pytest.raises(ShapeError, match="at least one layer"):
            Network([], (1, 3, 3))

    def test_network_holds_each_layer_once(self):
        # a layer keeps one tape and one eval-plan entry
        relu = ReLU()
        with pytest.raises(ShapeError, match="each in the chain once"):
            Network([relu, MaxPool2d(2), relu], (1, 4, 4))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LayerSpec(kind="dropout")

    def test_shape_chain_break(self):
        with pytest.raises(ShapeError):
            net = build_network([LayerSpec(kind="conv", out_ch=2, k=5)], (1, 3, 3))
