"""Binarization math: optimal sign/scale factorizations, the per-window input
scale map and the k-bit quantizer.

The weight factorization W ~ alpha*B with B = sign(W) and alpha = mean(|W|)
is the exact minimizer of ||W - alpha*B||^2 over B in {+-1}^n, alpha > 0; the
brute-force check in the test suite enumerates all sign patterns to confirm.
``filter_alphas`` is the one place alpha is computed: the packed filters and
the training layers (``nn.Conv2d.scales``, which the packed model export
also reads) call it. It gives back alpha exactly from alpha * sign, so a
conv loaded from a packed file recomputes the scales it was saved with.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bitpack import PackedBits, unpack, words_from_bits
from .tensor import ConvGeometry, ShapeError, channel_abs_mean, pad_hw


@dataclass(frozen=True)
class BinarizedFilter:
    """Packed sign pattern plus positive scale for one weight filter."""

    bits: PackedBits
    alpha: float
    original_shape: tuple

    @property
    def n(self) -> int:
        return self.bits.n

    @property
    def degenerate(self) -> bool:
        """The all-zero filter, whose optimal scale is 0 and so falls outside
        alpha > 0; kernels give it an all-zero output instead of inventing a
        floor constant."""
        return self.alpha == 0.0

    def dense(self) -> np.ndarray:
        """Reconstruct alpha * sign(W) as a float32 tensor."""
        return (self.alpha * unpack(self.bits)).reshape(self.original_shape)


@dataclass(frozen=True)
class BetaMap:
    """Per-output-location input scale factors, one beta per window."""

    K: np.ndarray  # (oh, ow), entries >= 0


def filter_alphas(bank) -> np.ndarray:
    """alpha = mean(|W|) of every filter of a (K, ...) bank: shape (K,), in
    the bank's float dtype (float64 for integers).

    The sum is taken in float64. Every partial sum of n float32 copies of
    alpha is j * alpha for some j <= n, which float64 holds exactly for
    n <= 2**29, so the mean of |alpha * sign(W)| is alpha bit for bit. A
    float32 sum rounds those partial sums and often misses alpha by a step.
    """
    flat = np.abs(np.asarray(bank).reshape(len(bank), -1))
    return (flat.sum(axis=1, dtype=np.float64) / flat.shape[1]).astype(np.result_type(flat, 1.0))


def binarize_weights(W) -> BinarizedFilter:
    """Optimal (B, alpha) for one filter: B = sign(W), alpha = mean(|W|)."""
    W = np.asarray(W)
    if W.size == 0:
        raise ShapeError("cannot binarize an empty filter")
    alpha = float(filter_alphas(W[None])[0])
    return BinarizedFilter(
        bits=PackedBits(n=W.size, words=words_from_bits(W.reshape(-1) >= 0)),
        alpha=alpha,
        original_shape=W.shape,
    )


def window_mean(planes: np.ndarray, geom: ConvGeometry) -> np.ndarray:
    """Mean of every zero-padded window of (..., H, W) planes: (..., oh, ow),
    float64. It sums the fh*fw taps of ``geom.taps`` in float64, so an entry's
    rounding error does not grow with the planes' extent."""
    fh, fw = geom.filt_hw
    oh, ow = geom.out_hw(planes.shape[-2:])
    planes = pad_hw(planes, geom.pad)
    sums = np.zeros((*planes.shape[:-2], oh, ow))
    for tap in geom.taps(oh, ow):
        sums += planes[tap]
    sums /= fh * fw
    return sums


def compute_beta_map(I, geom: ConvGeometry) -> BetaMap:
    """Scale factor beta for every window: K = abs-channel-mean convolved with
    the uniform 1/(fh*fw) filter. With pad = 0 each entry equals the l1-mean
    of the corresponding input sub-tensor; padded positions contribute zeros,
    which attenuates border entries.
    """
    return BetaMap(K=window_mean(channel_abs_mean(I), geom).astype(np.float32))


def quantize_kbit(x, k: int):
    """Uniform 2**k-level quantizer on [-1, 1]; k = 1 reduces to sign away
    from ties. Rounding is half-away-from-zero; out-of-range inputs are
    clamped first (with a warning)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    arr = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(arr) > 1):
        warnings.warn("quantize_kbit input outside [-1, 1]; clamping", stacklevel=2)
        arr = np.clip(arr, -1.0, 1.0)
    levels = float(2**k - 1)
    scaled = levels * (arr + 1.0) / 2.0  # in [0, levels]
    rounded = np.floor(scaled + 0.5)  # half away from zero (operand is >= 0)
    q = 2.0 * (rounded / levels - 0.5)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(q)
    return q.astype(np.asarray(x).dtype if np.asarray(x).dtype.kind == "f" else np.float64)

