"""Layer graph with forward/backward for training binarized CNNs.

Layers operate on batched arrays of shape (N, C, H, W). Training is dense
and eval is packed where the maths allows. Convolutions are channel-major:
``tensor.windows``, a zero-copy strided view of the padded input, gives per
image the (C*fh*fw, oh*ow) column matrix with rows in the weights' own (c,
fh, fw) order, so the dense forward is one W @ columns product per image,
written straight into the (N, K, oh, ow) output. In eval, a conv with
binarized weights and a 1-bit sign input runs ``kernels.conv_xnor`` instead:
XNOR + popcount over packed sign words, scaled by alpha * K in the same C
call, once per image chunk. A binarized-input convolution takes its
per-window scale map K from ``binarize.window_mean``, the beta map the
packed kernels use. Convs and pools take their output
extent, and the pools and ``_col2im`` their window taps, from a
``tensor.ConvGeometry``. The forward copies the view into a reused buffer a
chunk of images at a time (about 1 MiB of columns, so a chunk stays in L2)
and never holds a whole batch of columns; the backward builds them once.
Binarized layers recompute their sign/scale factorization from the
real-valued weights once per forward pass, so the optimizer only ever
touches real parameters; a conv loaded from packed bits holds alpha * sign
as its weights, whose mean|W| is alpha again. Gradients flow through the
binarized weights, with the straight-through estimator standing in for the
sign function's derivative.

In eval, ``Network.forward`` first works out the eval plan, once per
forward (``_pool_first``): every layer, in the order eval runs them, mapped
to its per-batch state, such as a conv's (binarized) weights or packed
bank and a BatchNorm's folded scale. It then runs the chain over one chunk of
``_EVAL_IMAGES`` images at a time, handing each layer the plan, and writes
each chunk's result into the output, so only the last layer's output is
ever built for the whole batch: every layer's eval forward maps each image
on its own. The output is bit-identical to a layer-by-layer eval, a zero's
sign aside, which no later layer turns into another value. Every element
goes through the same float operations, with one reordering: a MaxPool2d
runs ahead of the ReLU and BatchNorm2d layers directly before it, so they
work on the pooled values only. Per channel those layers compose to a
non-decreasing map, and every float operation in them rounds
monotonically, so the max of the mapped values is the map of the max. A
BatchNorm whose scale is not positive (a negative one makes the map
decreasing, and 0 * inf is NaN) or whose parameters are not finite stops
the pool, and so does any other layer, such as BinaryActivation, whose
sign(NaN) = -1 does not pass NaN on (see ``_pool_first``).

Each binarization rule is written once: the binarized weights alpha *
sign(W) in ``Conv2d.effective_weights`` (an XNOR conv's eval packs the same
sign(W) and alpha in ``Conv2d.eval_state``), whose per-filter alpha comes from
``Conv2d.scales`` (a learned ``alpha`` Param, or else the formula alpha =
mean|W| in ``binarize.filter_alphas``), the estimator's gate in
``_sign_derivative`` (used by ``ste_backward_sign`` and
``weight_gradient``, for inputs, weights and learned-scale weights alike),
the input quantizer in ``_quantize``, and the full-precision first and last
conv in ``_inner_convs``.

Two block orderings are constructible: the conventional conv -> batchnorm ->
binary activation -> pool, and the reordering batchnorm -> binary activation
-> binary conv -> pool that binarizes freshly normalized inputs and pools
real-valued conv outputs instead of sign patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .binarize import filter_alphas, quantize_kbit, window_mean
from .tensor import ConvGeometry, ShapeError, channel_abs_mean, sign, windows

BLOCK_ORDERS = ("C-B-A-P", "B-A-C-P")


class Param:
    """A trainable array and its gradient slot."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = None


# ---------------------------------------------------------------------------
# gradient building blocks


def _sign_derivative(r, dtype, variant: str):
    """The straight-through stand-in for d sign(r)/dr: 1 where |r| <= 1 and 0
    elsewhere ("indicator"), or r where |r| <= 1 ("scaled", the alternative
    reading of the estimator)."""
    gate = (np.abs(r) <= 1.0).astype(dtype)
    if variant == "scaled":
        return gate * r
    if variant != "indicator":
        raise ValueError(f"unknown STE variant {variant!r}")
    return gate


def ste_backward_sign(upstream, pre_activation, variant: str = "indicator"):
    """Straight-through estimator for sign: pass gradient where |r| <= 1."""
    upstream = np.asarray(upstream)
    pre = np.asarray(pre_activation)
    if upstream.shape != pre.shape:
        raise ShapeError(f"shape mismatch {upstream.shape} vs {pre.shape}")
    return upstream * _sign_derivative(pre, upstream.dtype, variant)


def weight_gradient(upstream_wrt_wtilde, W, alpha, variant: str = "indicator"):
    """Map the gradient w.r.t. the binarized weights back onto the real ones:
    per element, g_i * (1/n + d_sign(W_i) * alpha) with n the size of one
    filter. W is one filter with a scalar alpha, or a (K, ...) bank of
    filters with a (K,) vector of their alphas."""
    g = np.asarray(upstream_wrt_wtilde)
    W = np.asarray(W)
    if g.shape != W.shape:
        raise ShapeError(f"shape mismatch {g.shape} vs {W.shape}")
    alpha = np.asarray(alpha, dtype=g.dtype)
    n = W.size
    if alpha.ndim:
        if alpha.shape != W.shape[:1]:
            raise ShapeError(f"expected {W.shape[:1]} filter scales, got {alpha.shape}")
        n //= len(alpha)
        alpha = alpha.reshape(-1, *(1,) * (W.ndim - 1))
    return g * (1.0 / n + _sign_derivative(W, g.dtype, variant) * alpha)


def _quantize(x, k_bits: int):
    """A binarized input: sign(x) at k_bits = 1, otherwise the k-bit
    quantizer on x clipped to [-1, 1]."""
    if k_bits == 1:
        return sign(x)
    return quantize_kbit(np.clip(x, -1.0, 1.0), k_bits).astype(x.dtype)


def loss_softmax_nll(logits, labels):
    """Mean negative log likelihood over the softmax; returns (loss, grad).

    Accepts (N, C) or (N, C, 1, 1) logits; the gradient matches the input
    shape and is already divided by the batch size.
    """
    raw_shape = np.asarray(logits).shape
    z = np.asarray(logits, dtype=np.float64).reshape(raw_shape[0], -1)
    labels = np.asarray(labels).astype(np.int64)
    n, c = z.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels must be ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c})")
    z = z - z.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsum
    loss = float(-logp[np.arange(n), labels].mean())
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.reshape(raw_shape).astype(np.asarray(logits).dtype)


# ---------------------------------------------------------------------------
# channel-major batched convolution

# Bytes of columns one forward matmul works on: a chunk this size, W and the
# chunk's output stay inside a 2 MiB L2 cache.
_CHUNK_BYTES = 1 << 20


def _conv_columns(win, wmat):
    """(N, K, oh, ow) = per image wmat (K, C*fh*fw) @ columns (C*fh*fw, oh*ow).

    Images go through in chunks of about _CHUNK_BYTES of columns, copied
    into one reused buffer; each image's product is the same BLAS call
    whatever the chunk size, so chunking does not change the result.
    """
    n, c, fh, fw, oh, ow = win.shape
    rows, positions = c * fh * fw, oh * ow
    dtype = np.result_type(win.dtype, wmat.dtype)
    wmat = wmat.astype(dtype, copy=False)
    k = wmat.shape[0]
    chunk = max(1, min(n, _CHUNK_BYTES // (rows * positions * dtype.itemsize)))
    buf = np.empty((chunk, c, fh, fw, oh, ow), dtype=dtype)
    out = np.empty((n, k, oh, ow), dtype=dtype)
    for i in range(0, n, chunk):
        b = min(chunk, n - i)
        np.copyto(buf[:b], win[i:i + b])
        np.matmul(wmat, buf[:b].reshape(b, rows, positions), out=out[i:i + b].reshape(b, k, positions))
    return out


def _col2im(gcols, x_shape, geom: ConvGeometry):
    """Sum (N, C, fh, fw, oh, ow) column gradients back onto the input."""
    fh, fw, oh, ow = gcols.shape[2:]
    h, w = x_shape[2:]
    p = geom.pad
    gpad = np.zeros((*x_shape[:2], h + 2 * p, w + 2 * p), dtype=gcols.dtype)
    for tap, (ky, kx) in zip(geom.taps(oh, ow), np.ndindex(fh, fw)):
        gpad[tap] += gcols[:, :, ky, kx]
    return gpad[:, :, p:h + p, p:w + p]


# ---------------------------------------------------------------------------
# layers


class Layer:
    """A layer's train-mode forward leaves a tape for its next backward;
    backward consumes it, and an eval-mode forward drops it.

    Every layer's eval forward maps each image on its own, so a chunk of
    images gives those images' rows of the whole-batch result. An eval
    forward given ``plan``, its chain's eval plan from ``_pool_first``,
    takes its per-batch state from ``plan[self]`` instead of working it out,
    and it may overwrite x where x is writeable. Without a plan (a train
    forward, or one layer run on its own) a forward works its state out and
    leaves x alone.
    """

    _tape = None

    def forward(self, x, train: bool, plan=None):
        raise NotImplementedError

    def backward(self, g):
        raise NotImplementedError

    def params(self) -> list[Param]:
        return []

    def _pop_tape(self):
        tape = self._tape
        if tape is None:
            raise RuntimeError("backward called without a train-mode forward")
        self._tape = None
        return tape


class Conv2d(Layer):
    """Convolution without bias; optionally binarizes weights and/or input.

    With binarized weights, the conv uses W~ = alpha * sign(W), one alpha per
    filter from ``scales()``: the learned ``alpha`` Param of a learned-scale
    conv, or else the formula mean|W|. W~ (in an XNOR conv's eval, its
    packed bank) is rebuilt from the real weights once per forward pass
    (Algorithm-1 ordering): by every train forward, and in eval by the plan,
    which hands it to every image chunk; ``binarize_count`` counts these,
    once per forward in both modes. A conv
    loaded from packed bits holds alpha * sign as W, whose mean|W| is alpha.
    With binarized input it quantizes the incoming tensor, computes the
    per-window scale map from the real input, and multiplies it back into
    the conv output; the scale map is treated as a constant in backward.

    An XNOR conv (``xnor``: binarized weights and a 1-bit sign input) runs
    packed in eval, with or without a plan: ``eval_state`` packs sign(W) and
    alpha into a ``kernels.XnorBank`` once per forward, and
    ``kernels.conv_xnor`` computes (sign W . sign x) * alpha * K per image
    chunk, exactly an integer times that scale, in the conv's result dtype.
    Every other conv, and every train forward, runs the dense channel-major
    path: per image, W (K, C*fh*fw) @ columns (C*fh*fw, oh*ow), in image
    chunks of about ``_CHUNK_BYTES`` of columns, scaled by K where the input
    is binarized. Each image's product is the same BLAS call whatever the
    chunk, so the chunk size never changes a result. Where every product is
    an integer (+-1 inputs times +-1 weights) the output is exact; elsewhere
    it differs from other summation orders by float rounding only. So an
    XNOR conv's train and eval outputs differ by float rounding: train sums
    alpha * sign products, eval scales the integer dot. In eval,
    ``Network.forward`` hands a conv one image chunk at a time with the
    plan's state, and it never writes its input.

    A train forward keeps the strided view of the padded input on its
    tape; the backward copies it into a full-batch column matrix and takes
    the gradient w.r.t. W~ from it with one ``tensordot`` gemm. Only mapping
    that gradient back depends on the scale's source: a formula scale goes
    through one broadcast ``weight_gradient`` call, and a learned one gets
    alpha's gradient, sign(W) . dW~ per filter, while W gets the estimator
    applied to alpha * dW~. The input gradient scatters W~.T @ g back with
    fh*fw strided adds; ``backward(g, input_grad=False)`` skips it.

    ``tensordot`` transposes the columns into a second copy before its gemm.
    One copy in (C*fh*fw, N*oh*ow) order, read transposed by the gemm, would
    save that, but OpenBLAS rounds the transposed gemm differently at small
    batches (under 16 images at the toy net's first conv), so trained
    weights would change with the batch remainder.
    """

    def __init__(self, in_ch, out_ch, filt_hw, stride=1, pad=0, *,
                 binarize_weights=False, binarize_input=False, learned_scale=False,
                 k_bits=1, ste_variant="indicator", binary_gradient=False, rng=None):
        if learned_scale and not binarize_weights:
            raise ValueError("a learned scale multiplies binarized weights only")
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.geom = ConvGeometry(filt_hw=tuple(filt_hw), stride=stride, pad=pad)
        self.binarize_weights = binarize_weights
        self.binarize_input = binarize_input
        self.learned_scale = learned_scale
        self.k_bits = k_bits
        self.ste_variant = ste_variant
        self.binary_gradient = binary_gradient
        rng = rng or np.random.default_rng()
        fan_in = in_ch * filt_hw[0] * filt_hw[1]
        limit = 1.0 / np.sqrt(fan_in)
        self.weight = Param("weight", rng.uniform(-limit, limit,
                                                  size=(out_ch, in_ch, *filt_hw)).astype(np.float32))
        self.alpha = None
        if learned_scale:
            self.alpha = Param("alpha", np.ones(out_ch, dtype=np.float32))
        self.binarize_count = 0

    def params(self):
        ps = [self.weight]
        if self.alpha is not None:
            ps.append(self.alpha)
        return ps

    def scales(self):
        """The per-filter alpha of the binarized weights alpha * sign(W): the
        learned scale, else mean|W|."""
        if self.learned_scale:
            return self.alpha.value
        return filter_alphas(self.weight.value)

    @property
    def xnor(self) -> bool:
        """Binarized weights and a 1-bit sign input: eval runs the packed
        ``kernels.conv_xnor``."""
        return self.binarize_weights and self.binarize_input and self.k_bits == 1

    def effective_weights(self):
        """The tensor the convolution actually uses this step, and its
        per-filter scales (None for full-precision weights)."""
        W = self.weight.value
        if not self.binarize_weights:
            return W, None
        self.binarize_count += 1
        alphas = self.scales()
        return alphas[:, None, None, None] * sign(W), alphas

    def eval_state(self):
        """What an eval forward computes with: an XNOR conv's packed bank of
        sign(W) and alpha, else ``effective_weights()``."""
        if not self.xnor:
            return self.effective_weights()
        self.binarize_count += 1
        W, alphas = self.weight.value, self.scales()
        # the scales in the dtype alpha * sign(W) would have
        return kernels.pack_bank(W >= 0, alphas.astype(np.result_type(W, alphas), copy=False))

    def forward(self, x, train: bool, plan=None):
        x = np.asarray(x)
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise ShapeError(f"expected (N, {self.in_ch}, H, W), got {x.shape}")
        if train:
            state = self.effective_weights()
        else:
            state = self.eval_state() if plan is None else plan[self]

        K = None
        if self.binarize_input:
            K = window_mean(channel_abs_mean(x), self.geom).astype(x.dtype)
        if self.xnor and not train:
            self._tape = None
            return kernels.conv_xnor(x, state, self.geom, K)

        wtilde, alphas = state
        conv_in = x
        pad_value = 0.0
        if self.binarize_input:
            conv_in = _quantize(x, self.k_bits)
            # zero padding is quantized like any other input value: sign(0) = +1
            pad_value = float(quantize_kbit(0.0, self.k_bits))

        win = windows(conv_in, self.geom, pad_value)
        del conv_in  # a padded view reads its own copy: free the unpadded input now
        out = _conv_columns(win, wtilde.reshape(self.out_ch, -1))
        if K is not None:
            out *= K[:, None]
        self._tape = None
        if train:
            self._tape = (x.shape, win, wtilde, alphas, K, x if self.binarize_input else None)
        return out

    def backward(self, g, input_grad: bool = True):
        x_shape, win, wtilde, alphas, K, x_pre = self._pop_tape()
        g = np.asarray(g)

        if self.binarize_input:
            g = g * K[:, None]

        n, positions = g.shape[0], g.shape[2] * g.shape[3]
        g = g.reshape(n, self.out_ch, positions)
        cols = np.ascontiguousarray(win).reshape(n, -1, positions)
        gwtilde = np.tensordot(g, cols, axes=([0, 2], [0, 2])).reshape(wtilde.shape)

        gx = None
        if input_grad:
            if self.binary_gradient:
                scale = np.abs(g).max(axis=(1, 2)).reshape(-1, 1, 1)
                g = scale * sign(g)
            gcols = np.matmul(wtilde.reshape(self.out_ch, -1).T, g)
            gx = _col2im(gcols.reshape(win.shape), x_shape, self.geom)
            if self.binarize_input:
                gx = ste_backward_sign(gx, x_pre, self.ste_variant)

        W = self.weight.value
        if self.learned_scale:
            # W~ = alpha * sign(W) with alpha a parameter of its own
            self.alpha.grad = (gwtilde * sign(W)).sum(axis=(1, 2, 3)).astype(self.alpha.value.dtype)
            gw = ste_backward_sign(alphas[:, None, None, None] * gwtilde, W, self.ste_variant)
        elif self.binarize_weights:
            gw = weight_gradient(gwtilde, W, alphas, self.ste_variant)
        else:
            gw = gwtilde
        self.weight.grad = gw.astype(W.dtype)
        return gx


class BatchNorm2d(Layer):
    """Per-channel batch normalization with affine parameters.

    Training uses biased batch statistics and updates running stats with
    momentum 0.1. Eval folds the running variance and gamma into one
    per-channel scale a = gamma / sqrt(var + eps), which ``eval_affine``
    works out once per network forward (the eval plan holds it), and returns
    (x - mean) * a + beta; it differs from gamma * (x - mean) /
    sqrt(var + eps) + beta only by float32 rounding. The mean is not folded
    into the shift: x * a + (beta - mean * a) cancels two large terms when
    |mean| is large against the std, and loses digits.

    Train mode centres the input once and reuses the centred tensor for the
    variance and, scaled in place, for xhat; forward and backward each reuse
    one scratch buffer for their products. The float operations and their
    order are those of np.var and of the textbook form, so the output and
    every gradient are bit-equal to it.
    """

    momentum = 0.1

    def __init__(self, channels, eps=1e-5):
        self.channels = channels
        self.eps = eps
        self.gamma = Param("gamma", np.ones(channels, dtype=np.float32))
        self.beta = Param("beta", np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def params(self):
        return [self.gamma, self.beta]

    def eval_affine(self, dtype):
        """(mean, a) of the eval map (x - mean) * a + beta, for x of ``dtype``."""
        ivar = 1.0 / np.sqrt(self.running_var.astype(dtype) + self.eps)
        return self.running_mean.astype(dtype), self.gamma.value * ivar

    def forward(self, x, train: bool, plan=None):
        x = np.asarray(x)
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(f"expected (N, {self.channels}, H, W), got {x.shape}")
        if not train:
            self._tape = None
            mean, a = self.eval_affine(x.dtype) if plan is None else plan[self]
            dtype = np.result_type(x, a)
            out = x if plan and x.flags.writeable and dtype == x.dtype else None
            out = np.subtract(x, mean[None, :, None, None], out=out, dtype=dtype)
            out *= a[None, :, None, None]
            out += self.beta.value[None, :, None, None]
            return out
        count = x.shape[0] * x.shape[2] * x.shape[3]
        mu = x.mean(axis=(0, 2, 3))
        xhat = x - mu[None, :, None, None]
        buf = xhat * xhat
        var = buf.sum(axis=(0, 2, 3)) / count
        m = self.momentum
        self.running_mean = ((1 - m) * self.running_mean + m * mu).astype(self.running_mean.dtype)
        self.running_var = ((1 - m) * self.running_var + m * var).astype(self.running_var.dtype)
        ivar = 1.0 / np.sqrt(var + self.eps)
        xhat *= ivar[None, :, None, None]
        self._tape = (xhat, ivar)
        out = np.multiply(self.gamma.value[None, :, None, None], xhat, out=buf)
        out += self.beta.value[None, :, None, None]
        return out

    def backward(self, g, input_grad: bool = True):
        xhat, ivar = self._pop_tape()
        g = np.asarray(g)
        m = g.shape[0] * g.shape[2] * g.shape[3]
        buf = g * xhat
        self.gamma.grad = buf.sum(axis=(0, 2, 3)).astype(self.gamma.value.dtype)
        self.beta.grad = g.sum(axis=(0, 2, 3)).astype(self.beta.value.dtype)
        if not input_grad:
            return None
        # gx = ivar * (gxhat - sum(gxhat) / m - xhat * sum(gxhat * xhat) / m),
        # finished in place in gxhat
        gxhat = g * self.gamma.value[None, :, None, None]
        sum_g = gxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = np.multiply(gxhat, xhat, out=buf).sum(axis=(0, 2, 3), keepdims=True)
        gxhat -= sum_g / m
        np.multiply(xhat, sum_gx, out=buf)
        buf /= m
        gxhat -= buf
        gxhat *= ivar[None, :, None, None]
        return gxhat


class ReLU(Layer):
    def forward(self, x, train: bool, plan=None):
        x = np.asarray(x)
        self._tape = x > 0 if train else None
        return np.maximum(x, 0, dtype=x.dtype, out=x if plan and x.flags.writeable else None)

    def backward(self, g):
        return g * self._pop_tape()


class BinaryActivation(Layer):
    """Standalone sign (or k-bit) activation with STE backward."""

    def __init__(self, k_bits=1, ste_variant="indicator"):
        self.k_bits = k_bits
        self.ste_variant = ste_variant

    def forward(self, x, train: bool, plan=None):
        x = np.asarray(x)
        self._tape = x if train else None
        return _quantize(x, self.k_bits)

    def backward(self, g):
        return ste_backward_sign(g, self._pop_tape(), self.ste_variant)


class _Pool(Layer):
    """Non-overlapping s x s windows: ``geom`` gives their output extent and
    taps; rows and columns past the last whole window are dropped."""

    def __init__(self, size=2):
        self.size = size
        self.geom = ConvGeometry((size, size), stride=size)


def _elementwise_max(arrays):
    """np.maximum over a list of same-shape arrays, into a new array."""
    out = np.maximum(arrays[0], arrays[1]) if len(arrays) > 1 else arrays[0].copy()
    for a in arrays[2:]:
        np.maximum(out, a, out=out)
    return out


class MaxPool2d(_Pool):
    """Max over non-overlapping s x s windows: the max over each window's
    rows, then over its columns. Max is exact in any order, and the row pass
    reads whole rows, not every s-th element.

    Backward routes each window's gradient to one input only: the first
    maximum in row-major window order, so ties (constant among sign inputs)
    go to the lowest (dy, dx).
    """

    def forward(self, x, train: bool, plan=None):
        x = np.asarray(x)
        s = self.size
        oh, ow = self.geom.out_hw(x.shape[2:])
        rows = _elementwise_max([x[..., dy:dy + s * oh:s, :s * ow] for dy in range(s)])
        out = _elementwise_max([rows[..., dx::s] for dx in range(s)])
        self._tape = None
        if train:
            # one "first max" mask per tap: equal to the max and not already
            # claimed by an earlier tap of the same window
            unclaimed = np.ones(out.shape, dtype=bool)
            masks = []
            for tap in (x[t] for t in self.geom.taps(oh, ow)):
                mask = tap == out
                mask &= unclaimed
                unclaimed ^= mask
                masks.append(mask)
            self._tape = (x.shape, masks)
        return out

    def backward(self, g):
        x_shape, masks = self._pop_tape()
        g = np.asarray(g)
        oh, ow = masks[0].shape[2:]
        s = self.size
        gx = np.empty(x_shape, dtype=g.dtype)
        # every tap slot is written once below; only the rows and columns
        # past the last whole window need zeros
        gx[:, :, oh * s:] = 0
        gx[:, :, :oh * s, ow * s:] = 0
        for t, mask in zip(self.geom.taps(oh, ow), masks):
            np.multiply(g, mask, out=gx[t])
        return gx


class AvgPool2d(_Pool):
    """Mean over non-overlapping s x s windows: each window row's taps are
    summed, then the rows, then divided by s * s."""

    def forward(self, x, train: bool, plan=None):
        x = np.asarray(x)
        s = self.size
        taps = self.geom.taps(*self.geom.out_hw(x.shape[2:]))
        self._tape = x.shape if train else None
        rows = (sum(x[t] for t in taps[i:i + s]) for i in range(0, s * s, s))
        return sum(rows) / (s * s)

    def backward(self, g):
        x_shape = self._pop_tape()
        s = self.size
        g = np.asarray(g) / (s * s)
        gx = np.zeros(x_shape, dtype=g.dtype)
        for t in self.geom.taps(*g.shape[2:]):
            gx[t] = g
        return gx


# Images an eval forward runs through the whole chain at a time. On the toy
# xnor net at batch 256 (2-core Intel Xeon, one BLAS thread) 64 ran level
# with per-conv fused tails over whole batches (p50 19.0 against 19.1 ms);
# 16 and 32 took 21.1 and 19.7 ms in more, smaller calls, and 128 and 256
# took 19.3 and 20.2 ms while holding larger activations (peak eval
# allocation 5.4 MiB at 64 images, 10.3 MiB for the whole batch).
_EVAL_IMAGES = 64


def _pool_first(layers, dtype):
    """The eval plan of a chain of layers, for an input of ``dtype``: every
    layer, in the order its eval forward runs them, mapped to its per-batch
    state. A Conv2d's state is its ``eval_state()``, and a
    BatchNorm2d's the (mean, a) of its ``eval_affine`` in the dtype it sees;
    other layers have none. A forward works the plan out once, so every
    chunk applies the numbers the pool decision below reads.

    Each MaxPool2d runs ahead of the ReLU and BatchNorm2d layers directly
    before it, so they work on the pooled planes. Per channel those layers
    compose to a non-decreasing map f: ReLU is one, and so is a BatchNorm's
    (x - mean) * a + beta where its scale a is positive. Every float
    operation in them rounds monotonically and passes NaN on, so the pool's
    max of f equals f of the max, bit for bit up to a zero's sign. That
    needs f free of 0 * inf and inf - inf, so a BatchNorm whose a is not
    positive and finite in every channel, or whose mean or beta is not
    finite, stops the pool. So does every other layer: a Conv2d mixes
    channels, BinaryActivation's sign(NaN) = -1 does not pass NaN on, and a
    pool does not map each value on its own.
    """
    steps, run = [], 0  # run: how many of the last steps are non-decreasing maps
    for layer in layers:
        if isinstance(layer, MaxPool2d):
            steps.insert(len(steps) - run, (layer, None))
            continue
        state, rising = None, isinstance(layer, ReLU)
        if isinstance(layer, BatchNorm2d):
            state = mean, a = layer.eval_affine(dtype)
            rising = bool((a > 0).all()) and all(
                np.isfinite(v).all() for v in (mean, a, layer.beta.value))
            dtype = np.result_type(dtype, a)  # what the BatchNorm returns
        elif isinstance(layer, Conv2d):
            state = layer.eval_state()
            dtype = np.result_type(dtype, *(p.value.dtype for p in layer.params()))
        run = run + 1 if rising else 0
        steps.append((layer, state))
    return dict(steps)


# ---------------------------------------------------------------------------
# layer specs and network assembly

LAYER_KINDS = ("conv", "binconv", "binactiv", "batchnorm", "relu",
               "maxpool", "avgpool", "softmax-nll")


@dataclass
class LayerSpec:
    """One line of an architecture description."""

    kind: str
    out_ch: int = 0
    k: int = 0              # square filter extent; 0 means full input extent (fc)
    stride: int = 1
    pad: int = 0
    binarize_input: bool = False
    binarize_weights: bool = False
    learned_scale: bool = False

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind in ("conv", "binconv") and self.out_ch < 1:
            raise ValueError(f"{self.kind} needs out >= 1, got {self.out_ch}")
        for name, low in (("k", 0), ("stride", 1), ("pad", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


def _inner_convs(specs: list[LayerSpec]) -> list[LayerSpec]:
    """Make the first and last conv of `specs` full precision, in place, and
    return the convs between them."""
    convs = [s for s in specs if s.kind in ("conv", "binconv")]
    for s in convs[:1] + convs[-1:]:
        s.kind = "conv"
        s.binarize_weights = False
        s.binarize_input = False
    return convs[1:-1]


def apply_mode(specs: list[LayerSpec], mode: str) -> list[LayerSpec]:
    """Set binarization flags for a run mode: full, bwn, or xnor.

    The first and last trainable layers always stay full precision (small
    channel count / 1x1 filters make binarizing them a bad trade).
    """
    if mode not in ("full", "bwn", "xnor"):
        raise ValueError(f"unknown mode {mode!r}")
    out = [replace(s) for s in specs]
    for s in _inner_convs(out):
        s.kind = "conv" if mode == "full" else "binconv"
        s.binarize_weights = mode != "full"
        s.binarize_input = mode == "xnor"
    return out


def conv_block(order: str, out_ch: int) -> list[LayerSpec]:
    """One convolution block in either ordering: a 3x3 pad-1 conv and a 2x2
    max-pool (the conv picks up its binarization flags from apply_mode)."""
    if order not in BLOCK_ORDERS:
        raise ValueError(f"block order must be one of {BLOCK_ORDERS}")
    conv = LayerSpec(kind="binconv", out_ch=out_ch, k=3, pad=1)
    if order == "B-A-C-P":
        return [LayerSpec(kind="batchnorm"), conv, LayerSpec(kind="maxpool", k=2)]
    return [conv, LayerSpec(kind="batchnorm"), LayerSpec(kind="binactiv"),
            LayerSpec(kind="maxpool", k=2)]


class Network:
    """A straight chain of at least one layer, each in it once, plus the
    input shape it was built for."""

    def __init__(self, layers: list[Layer], input_shape):
        if not layers or len(set(layers)) < len(layers):
            raise ShapeError("a network needs at least one layer, each in the chain once")
        self.layers = layers
        self.input_shape = tuple(input_shape)

    def params(self) -> list[Param]:
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def forward(self, x, train: bool = False):
        if train:
            for layer in self.layers:
                x = layer.forward(x, True)
            return x
        x = np.asarray(x).view()
        x.flags.writeable = False  # the caller's images: no layer may overwrite them
        plan = _pool_first(self.layers, x.dtype)
        out = None
        for i in range(0, max(len(x), 1), _EVAL_IMAGES):  # an empty batch runs one empty chunk
            y = x[i:i + _EVAL_IMAGES]
            for layer in plan:
                y = layer.forward(y, False, plan)
            if out is None:
                out = np.empty((len(x), *y.shape[1:]), dtype=y.dtype)
            out[i:i + len(y)] = y
        return out

    def logits(self, x, train: bool = False):
        out = self.forward(x, train)
        return out.reshape(out.shape[0], math.prod(out.shape[1:]))  # -1 cannot size an empty batch

    def backward(self, g, input_grad: bool = True):
        """Gradients of every parameter, and the gradient w.r.t. the input.

        With ``input_grad=False`` only the parameter gradients are worked
        out, and None is returned: the first layer with parameters computes
        its own gradients and no input gradient, and the layers before it do
        not run. Raises RuntimeError unless the last forward ran in train
        mode and no backward has consumed it yet: every layer checks its own
        tape.
        """
        g = np.asarray(g)
        if g.ndim == 2:
            g = g.reshape(*g.shape, 1, 1)
        first = -1 if input_grad else next(
            (i for i, layer in enumerate(self.layers) if layer.params()), len(self.layers))
        for i, layer in reversed(list(enumerate(self.layers))):
            if i > first:
                g = layer.backward(g)
            elif i == first:
                g = layer.backward(g, input_grad=False)
            else:
                layer._pop_tape()  # no gradient reaches it
        return g

    def astype(self, dtype):
        for p in self.params():
            p.value = p.value.astype(dtype)
        for layer in self.layers:
            if isinstance(layer, BatchNorm2d):
                layer.running_mean = layer.running_mean.astype(dtype)
                layer.running_var = layer.running_var.astype(dtype)
        return self

    def conv_layers(self) -> list[Conv2d]:
        return [l for l in self.layers if isinstance(l, Conv2d)]


def build_network(specs: list[LayerSpec], input_shape, seed: int = 0, *,
                  ste_variant: str = "indicator", k_bits: int = 1,
                  binary_gradient: bool = False) -> Network:
    """Assemble a Network from LayerSpecs, inferring channel counts and
    spatial extents along the chain.

    The first and last trainable layers are forced to full precision even if
    their specs carry binarization flags, and a conv without binarized
    weights drops its spec's learned scale.
    """
    specs = [replace(s) for s in specs]
    if any(s.kind == "softmax-nll" for s in specs[:-1]):
        raise ShapeError("softmax-nll must be the final layer entry")
    if specs and specs[-1].kind == "softmax-nll":
        specs = specs[:-1]

    _inner_convs(specs)

    rng = np.random.default_rng(seed)
    c, h, w = input_shape
    layers: list[Layer] = []
    for s in specs:
        if s.kind in ("conv", "binconv"):
            filt_hw = (s.k, s.k) if s.k else (h, w)
            layer = Conv2d(c, s.out_ch, filt_hw, stride=s.stride, pad=s.pad,
                           binarize_weights=s.binarize_weights,
                           binarize_input=s.binarize_input,
                           learned_scale=s.learned_scale and s.binarize_weights,
                           k_bits=k_bits, ste_variant=ste_variant,
                           binary_gradient=binary_gradient, rng=rng)
            c = s.out_ch
        elif s.kind == "batchnorm":
            layer = BatchNorm2d(c)
        elif s.kind == "relu":
            layer = ReLU()
        elif s.kind == "binactiv":
            layer = BinaryActivation(k_bits=k_bits, ste_variant=ste_variant)
        elif s.kind in ("maxpool", "avgpool"):
            size = s.k or 2
            if s.stride not in (1, size):
                raise ShapeError("pooling currently supports stride == window size")
            layer = (MaxPool2d if s.kind == "maxpool" else AvgPool2d)(size)
        else:  # pragma: no cover - guarded by LayerSpec.__post_init__
            raise ValueError(f"unhandled kind {s.kind}")
        if isinstance(layer, (Conv2d, _Pool)):
            h, w = layer.geom.out_hw((h, w))
        layers.append(layer)
    return Network(layers, input_shape)
