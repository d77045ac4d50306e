"""The three convolution paths: full-precision reference (re-exported from
tensor), binary-weight convolution (adds/subs plus one scale multiply per
output), and XNOR convolution (packed XNOR + popcount inner loop).

Both binary paths are im2col-style: receptive fields are flattened to rows
once per layer invocation, so packing cost and the beta map are amortized
over all filters of the layer. The rows come from ``tensor.windows``, the
same receptive-field view the batched ``nn`` layers use, and the beta map
from ``binarize.window_mean``. Each path has one implementation, the layer
function; the one-filter functions call it with a one-filter bank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binarize import BinarizedFilter, compute_beta_map
from .bitpack import _words_from_bits, unpack
from .tensor import ConvGeometry, ShapeError, conv2d_reference, windows

__all__ = [
    "OpCounters",
    "PackedPatchMatrix",
    "conv2d_reference",
    "conv_binary_weight",
    "conv_binary_weight_layer",
    "conv_xnor",
    "conv_xnor_layer",
    "count_ops",
    "im2col",
    "sign_patch_matrix",
]


@dataclass
class OpCounters:
    """Per-invocation operation counts, by class."""

    real_mul: int = 0
    real_add: int = 0
    xnor_word: int = 0
    popcount_word: int = 0


@dataclass(frozen=True)
class PackedPatchMatrix:
    """One packed sign row per output location, each of length n = c*fh*fw."""

    words: np.ndarray  # (rows, n_words) uint64, canonical pad bits
    n: int
    out_hw: tuple[int, int]
    geom: ConvGeometry

    @property
    def n_rows(self) -> int:
        return self.words.shape[0]

    @property
    def n_words(self) -> int:
        return self.words.shape[1]


def _check_filters(I: np.ndarray, filters: list[BinarizedFilter], geom: ConvGeometry) -> None:
    """Every filter's channels must match the input's, and its extent the geometry's."""
    for c, fh, fw in {f.original_shape for f in filters}:
        if I.ndim != 3 or I.shape[0] != c:
            raise ShapeError(f"input {I.shape} does not match filter channels {c}")
        if (fh, fw) != tuple(geom.filt_hw):
            raise ShapeError(f"filter extent {(fh, fw)} does not match geometry {geom.filt_hw}")


def _rows(x: np.ndarray, geom: ConvGeometry, pad_value=0) -> np.ndarray:
    """Every padded receptive field of one (c, h, w) image as one contiguous
    row, in the filters' (c, fh, fw) order: (oh*ow, c*fh*fw)."""
    win = windows(x[None], geom, pad_value)[0]  # (c, fh, fw, oh, ow)
    oh, ow = win.shape[3:]
    return np.ascontiguousarray(win.transpose(3, 4, 0, 1, 2).reshape(oh * ow, -1))


def im2col(inp: np.ndarray, geom: ConvGeometry) -> np.ndarray:
    """Every zero-padded receptive field as one row: (oh*ow, c*fh*fw)."""
    return _rows(np.asarray(inp), geom)


def sign_patch_matrix(I, geom: ConvGeometry) -> PackedPatchMatrix:
    """Packed sign patterns of all receptive fields of sign(I).

    The rows are im2col's rows of the I >= 0 bits. Zero-padded border
    positions binarize to +1 (the sign(0) tie rule), so the border bits are
    1; the beta map's attenuated border entries partially compensate.
    """
    I = np.asarray(I)
    rows = _rows((I >= 0).view(np.uint8), geom, pad_value=1)
    return PackedPatchMatrix(
        words=_words_from_bits(rows), n=rows.shape[1], out_hw=geom.out_hw(I.shape[1:]),
        geom=geom,
    )


def conv_binary_weight(I, f: BinarizedFilter, geom: ConvGeometry,
                       counters: OpCounters | None = None) -> np.ndarray:
    """Binary-weight convolution of one filter: (oh, ow); see
    conv_binary_weight_layer."""
    return conv_binary_weight_layer(I, [f], geom, counters)[0]


def conv_binary_weight_layer(
    I, filters: list[BinarizedFilter], geom: ConvGeometry, counters: OpCounters | None = None
) -> np.ndarray:
    """Binary-weight convolution of a filter bank: out = alpha * (B @ columns).

    B is the (K, c*fh*fw) matrix of the filters' +-1 signs, so the product
    only adds and subtracts input values; the one multiplication per output
    element applies the filter scale. A degenerate filter's output is zeros.
    Returns float32 (K, oh, ow).
    """
    I = np.asarray(I)
    _check_filters(I, filters, geom)
    oh, ow = geom.out_hw(I.shape[1:])
    signs = np.stack([unpack(f.bits) for f in filters])
    alphas = np.array([0.0 if f.degenerate else f.alpha for f in filters], dtype=np.float32)
    out = np.matmul(signs, im2col(I, geom).T)
    out *= alphas[:, None]
    if counters is not None:
        live = sum(not f.degenerate for f in filters)
        counters.real_add += live * oh * ow * (signs.shape[1] - 1)
        counters.real_mul += live * oh * ow
    return out.astype(np.float32, copy=False).reshape(len(filters), oh, ow)


def _beta_map_cost(I_shape, geom: ConvGeometry, counters: OpCounters) -> None:
    # channel abs-mean: one divide per pixel; window sums: integral-image adds;
    # final 1/(fh*fw): one divide per output entry.
    c, h, w = I_shape
    ph, pw = h + 2 * geom.pad, w + 2 * geom.pad
    oh, ow = geom.out_hw((h, w))
    counters.real_mul += h * w + oh * ow
    counters.real_add += c * h * w + 2 * ph * pw + 3 * oh * ow


def conv_xnor(I, f: BinarizedFilter, geom: ConvGeometry,
              counters: OpCounters | None = None) -> np.ndarray:
    """XNOR convolution of one filter: (oh, ow); see conv_xnor_layer."""
    return conv_xnor_layer(I, [f], geom, counters)[0]


_CHUNK_WORD_BUDGET = 4_000_000  # cap the (rows, filters, words) XOR temporary


def conv_xnor_layer(
    I, filters: list[BinarizedFilter], geom: ConvGeometry, counters: OpCounters | None = None
) -> np.ndarray:
    """XNOR convolution of a filter bank: (sign(I) xnor-conv sign(W)) * K * alpha.

    All filters share one patch matrix and one beta map. Filters are
    pre-complemented so the inner loop is one XOR (equal to the XNOR against
    the original words) plus popcount, batched over filters; real
    multiplications are limited to scaling each output element by its beta
    and by alpha. A degenerate filter's output is zeros, and it is not
    counted in ``counters``. Returns float32 (K, oh, ow).
    """
    I = np.asarray(I)
    _check_filters(I, filters, geom)
    patches = sign_patch_matrix(I, geom)
    beta_map = compute_beta_map(I, geom)
    if counters is not None:
        _beta_map_cost(I.shape, geom, counters)
    n = patches.n
    if any(f.n != n for f in filters):
        raise ShapeError("filter length does not match patch rows")
    oh, ow = patches.out_hw
    n_pad = patches.n_words * 64 - n
    nfilt_words = ~np.stack([f.bits.words for f in filters])  # (K, W)
    alphas = np.array([0.0 if f.degenerate else f.alpha for f in filters], dtype=np.float32)

    rows = patches.words.shape[0]
    dots = np.empty((len(filters), rows), dtype=np.int32)
    chunk = max(1, _CHUNK_WORD_BUDGET // max(rows * patches.n_words, 1))
    for k0 in range(0, len(filters), chunk):
        xnor = patches.words[:, None, :] ^ nfilt_words[None, k0:k0 + chunk, :]
        total = np.bitwise_count(xnor).sum(axis=-1, dtype=np.int32)
        dots[k0:k0 + chunk] = (2 * total - (n + 2 * n_pad)).T
    if counters is not None:
        live = sum(not f.degenerate for f in filters)
        counters.xnor_word += live * rows * patches.n_words
        counters.popcount_word += live * rows * patches.n_words
        counters.real_mul += 2 * live * rows
    scale = beta_map.K[None, :, :] * alphas[:, None, None]
    return dots.reshape(len(filters), oh, ow).astype(np.float32) * scale


def count_ops(c: int, n_w: int, n_i: int, mode: str = "xnor") -> tuple[int, int]:
    """Abstract op counts for one filter: (binary_ops, real_ops).

    The XNOR path does c*N_W bit-ops per output location and one real op per
    location; the full-precision path does everything in real arithmetic.
    Word-level counters relate by ceil(c*N_W / 64) words per location.
    """
    if min(c, n_w, n_i) < 1:
        raise ValueError("c, n_w, n_i must all be positive")
    total = c * n_w * n_i
    if mode == "xnor":
        return total, n_i
    if mode == "full":
        return 0, total
    raise ValueError(f"unknown mode {mode!r}")
