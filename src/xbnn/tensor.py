"""Dense tensors, window geometry, the receptive-field view and the naive
reference convolution.

Feature maps are float arrays of shape (channels, height, width) and filter
banks are (filters, channels, fh, fw), both row-major with channels outermost
so a receptive field flattens to one contiguous vector of length c*fh*fw.
``ConvGeometry`` owns every sliding window's output extent and taps, for
convs and pools alike. ``windows`` is the one receptive-field layout: the
batched layers in ``nn`` and the kernels in ``kernels`` all read their
columns (float or sign-word) from it. ``conv2d_reference`` is deliberately
written as a plain sliding-window loop that does not use ``windows``: it is
the correctness oracle every fast path is measured against, so it stays
simple and independent of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes or geometry do not line up."""


@dataclass(frozen=True)
class ConvGeometry:
    """Window extent, stride and symmetric zero padding of a 2-D conv or pool."""

    filt_hw: tuple[int, int]
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        fh, fw = self.filt_hw
        if fh < 1 or fw < 1:
            raise ShapeError(f"filter extent must be >= 1, got {self.filt_hw}")
        if self.stride < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")
        if self.pad < 0:
            raise ShapeError(f"pad must be >= 0, got {self.pad}")

    def out_extent(self, in_extent: int, filt_extent: int) -> int:
        return (in_extent + 2 * self.pad - filt_extent) // self.stride + 1

    def out_hw(self, in_hw) -> tuple[int, int]:
        """Output (height, width); raises if any extent would be empty."""
        oh = self.out_extent(in_hw[0], self.filt_hw[0])
        ow = self.out_extent(in_hw[1], self.filt_hw[1])
        if oh < 1 or ow < 1:
            raise ShapeError(
                f"empty output: input {tuple(in_hw)}, filter {self.filt_hw}, "
                f"stride {self.stride}, pad {self.pad}"
            )
        return oh, ow

    def taps(self, oh: int, ow: int) -> list[tuple]:
        """Tap (dy, dx) of all oh x ow windows at once, for every tap in
        row-major order: the index [..., dy:dy+s*oh:s, dx:dx+s*ow:s] into the
        padded (..., H, W) input."""
        fh, fw = self.filt_hw
        s = self.stride
        return [(Ellipsis, slice(dy, dy + s * oh, s), slice(dx, dx + s * ow, s))
                for dy in range(fh) for dx in range(fw)]


def sign(x) -> np.ndarray:
    """Sign with the tie rule sign(0) = +1, so outputs are exactly +-1, in x's memory order."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype if x.dtype.kind == "f" else np.float32)
    np.greater_equal(x, 0, out=out)  # NaN compares false, so sign(NaN) = -1
    out *= 2
    out -= 1
    return out


def channel_abs_mean(inp) -> np.ndarray:
    """Per-pixel mean of |values| across channels: (..., c, h, w) -> (..., h, w)."""
    inp = np.asarray(inp)
    if inp.ndim < 3 or inp.shape[-3] < 1:
        raise ShapeError(f"expected (..., c, h, w) with c >= 1, got {inp.shape}")
    return np.abs(inp).mean(axis=-3)


def pad_chw(inp: np.ndarray, pad: int) -> np.ndarray:
    """The oracle's zero pad: np.pad, so it shares no code with ``pad_hw``."""
    if pad == 0:
        return inp
    return np.pad(inp, ((0, 0), (pad, pad), (pad, pad)))


def pad_hw(x: np.ndarray, pad: int, value: float = 0.0) -> np.ndarray:
    """(..., H, W) -> (..., H + 2*pad, W + 2*pad) with a border of ``value``
    in x's dtype: what np.pad's constant mode gives, in one fill and one
    interior copy. pad = 0 returns x itself."""
    if pad == 0:
        return x
    *lead, h, w = x.shape
    out = np.full((*lead, h + 2 * pad, w + 2 * pad), value, dtype=x.dtype)
    out[..., pad:h + pad, pad:w + pad] = x
    return out


def windows(x, geom: ConvGeometry, pad_value: float = 0.0) -> np.ndarray:
    """Zero-copy (N, C, fh, fw, oh, ow) view of the padded (N, C, H, W) input.

    For each image it is the (C*fh*fw, oh*ow) column matrix, with rows in
    the weights' own (c, fh, fw) order. The border is padded with
    ``pad_value``. Raises ShapeError if the filter does not fit the padded
    input.
    """
    geom.out_hw(x.shape[2:])
    x = pad_hw(x, geom.pad, pad_value)
    s = geom.stride
    win = np.lib.stride_tricks.sliding_window_view(x, geom.filt_hw, axis=(2, 3))
    return win[:, :, ::s, ::s].transpose(0, 1, 4, 5, 2, 3)


def conv2d_reference(inp, filters, geom: ConvGeometry) -> np.ndarray:
    """Naive full-precision correlation (no kernel flip, no bias).

    inp: (c, h, w); filters: (K, c, fh, fw). Returns (K, oh, ow) where each
    output value is the dot product of a filter with the zero-padded window.
    """
    inp = np.asarray(inp)
    filters = np.asarray(filters)
    if inp.ndim != 3:
        raise ShapeError(f"input must be (c, h, w), got {inp.shape}")
    if filters.ndim != 4:
        raise ShapeError(f"filters must be (K, c, fh, fw), got {filters.shape}")
    if inp.shape[0] != filters.shape[1]:
        raise ShapeError(
            f"channel mismatch: input has {inp.shape[0]}, filters expect {filters.shape[1]}"
        )
    if tuple(filters.shape[2:]) != tuple(geom.filt_hw):
        raise ShapeError(
            f"filter extent {filters.shape[2:]} does not match geometry {geom.filt_hw}"
        )
    nfilt, _, fh, fw = filters.shape
    oh, ow = geom.out_hw(inp.shape[1:])

    padded = pad_chw(inp, geom.pad)
    out = np.empty((nfilt, oh, ow), dtype=np.result_type(inp, filters))
    for y in range(oh):
        ys = y * geom.stride
        for x in range(ow):
            xs = x * geom.stride
            window = padded[:, ys:ys + fh, xs:xs + fw]
            # plain multiply-accumulate per window; deliberately no BLAS so
            # benchmark comparisons are against self-contained float math
            out[:, y, x] = (filters * window).sum(axis=(1, 2, 3))
    return out
