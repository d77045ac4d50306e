"""The three convolution paths: full-precision reference (re-exported from
tensor), binary-weight convolution (adds/subs plus one scale multiply per
output), and XNOR convolution (packed XNOR + popcount inner loop).

Both binary paths read receptive fields once per call from ``tensor.windows``,
the view the batched ``nn`` layers use, and unpack the filter bank once, so
the input's cost and the beta map are amortized over all filters. The XNOR
layer packs each pixel's and each filter tap's channel signs with
``bitpack.words_from_bits``, ceil(c/64) words with zero pad bits, as the file
layout packs a filter; only the (word, fh, fw) order of the words differs
from the file's (c, fh, fw). The one-filter BWN function calls the layer
with a one-filter bank.

The XNOR layer's XOR + popcount loop is C, in ``_xnor.c`` beside this file;
packing, the beta map and the scaling stay in numpy. The first
``conv_xnor_layer`` call of a process compiles it with ``cc -O3
-march=native`` into ``_xnor_cache/`` beside this file, under a name keyed
by the source, the command and the host CPU's model and flags, and loads it
through ctypes; later processes load the cached library. Importing the
package builds and loads nothing. Without a working ``cc`` the call raises
``BuildError`` with the command and the compiler's stderr: there is no
numpy fallback.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import zlib
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .binarize import BinarizedFilter, compute_beta_map
from .bitpack import bits_to_signs, unpack_bank, words_from_bits
from .tensor import ConvGeometry, ShapeError, conv2d_reference, pad_hw, windows

__all__ = [
    "BuildError",
    "OpCounters",
    "conv2d_reference",
    "conv_binary_weight",
    "conv_binary_weight_layer",
    "conv_xnor_layer",
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


def _unpack_filters(I: np.ndarray, filters: list[BinarizedFilter], geom: ConvGeometry):
    """Check every filter against the input's channels and the geometry's
    extent; return the bank's (K, c, fh, fw) 0/1 sign bits, from one unpack,
    and its float32 scales."""
    if I.ndim != 3:
        raise ShapeError(f"input must be (c, h, w), got {I.shape}")
    shape = (I.shape[0], *geom.filt_hw)
    n = shape[0] * shape[1] * shape[2]
    if any(tuple(f.original_shape) != shape or f.n != n for f in filters):
        raise ShapeError(f"filters do not all match input {I.shape} and extent {geom.filt_hw}")
    bits = unpack_bank(np.array([f.bits.words for f in filters]), n)
    alphas = np.array([f.alpha for f in filters], dtype=np.float32)
    return bits.reshape(len(filters), *shape), alphas


def im2col(inp: np.ndarray, geom: ConvGeometry) -> np.ndarray:
    """Receptive fields as rows, (oh*ow, c*fh*fw): a channel-major copy, transposed."""
    win = windows(np.asarray(inp)[None], geom)[0]  # (c, fh, fw, oh, ow)
    oh, ow = win.shape[3:]
    # a copy even where the reshape alone would be a view of inp (1x1 filters,
    # or one unpadded full-extent window), so callers may overwrite it
    return np.array(win, order="C").reshape(-1, oh * ow).T


def sign_patch_matrix(I, geom: ConvGeometry) -> np.ndarray:
    """Channel-packed sign columns of sign(I): (ceil(c/64)*fh*fw, oh*ow) uint64.

    The I >= 0 planes are padded with True (sign(0) = +1 on the border) and
    each pixel's channel vector is packed by ``words_from_bits``, so channel
    pad bits are 0; row (word, dy, dx) reads that word at tap (dy, dx) of
    every receptive field. The beta map's attenuated border entries partially
    compensate for the +1 border.
    """
    I = np.asarray(I)
    planes = words_from_bits(pad_hw(I >= 0, geom.pad, True).transpose(1, 2, 0))  # (H, W, words)
    win = windows(planes.transpose(2, 0, 1)[None], ConvGeometry(geom.filt_hw, geom.stride))[0]
    return win.reshape(-1, win.shape[3] * win.shape[4])


def conv_binary_weight(I, f: BinarizedFilter, geom: ConvGeometry,
                       counters: OpCounters | None = None) -> np.ndarray:
    """Binary-weight convolution of one filter: (oh, ow); see
    conv_binary_weight_layer."""
    return conv_binary_weight_layer(I, [f], geom, counters)[0]


def conv_binary_weight_layer(
    I, filters: list[BinarizedFilter], geom: ConvGeometry, counters: OpCounters | None = None
) -> np.ndarray:
    """Binary-weight convolution of a filter bank: out = alpha * (B @ columns).

    B is the (K, c*fh*fw) matrix of the filters' +-1 signs and the columns
    are ``im2col``'s channel-major copy, so the product only adds
    and subtracts inputs; one multiply per output applies the filter scale.
    A degenerate filter's output is zeros. Returns float32 (K, oh, ow).
    """
    I = np.asarray(I)
    bits, alphas = _unpack_filters(I, filters, geom)
    signs = bits_to_signs(bits.reshape(len(filters), -1))
    out = (signs @ im2col(I, geom).T) * alphas[:, None]
    if counters is not None:
        live = sum(not f.degenerate for f in filters)
        counters.real_add += live * out.shape[1] * (signs.shape[1] - 1)
        counters.real_mul += live * out.shape[1]
    return out.astype(np.float32, copy=False).reshape(len(filters), *geom.out_hw(I.shape[1:]))


def _beta_map_cost(I_shape, geom: ConvGeometry, counters: OpCounters) -> None:
    # channel abs-mean: c adds and one divide per pixel; window sums: one add
    # per tap and output entry; final 1/(fh*fw): one divide per output entry.
    c, h, w = I_shape
    fh, fw = geom.filt_hw
    oh, ow = geom.out_hw((h, w))
    counters.real_mul += h * w + oh * ow
    counters.real_add += c * h * w + fh * fw * oh * ow


class BuildError(RuntimeError):
    """The C compiler could not build the XNOR inner loop; the message holds
    the command and the compiler's stderr."""


_SOURCE = Path(__file__).with_name("_xnor.c")
_CACHE_DIR = Path(__file__).with_name("_xnor_cache")
_CC = "cc"
_CFLAGS = ("-O3", "-march=native", "-shared", "-fPIC")
# /proc/cpuinfo fields that name the instruction set -march=native targets
# ("Features" is the flags field on Arm)
_CPU_FIELDS = ("model name", "flags", "Features")


def _cpu_signature() -> bytes:
    """The first processor's model and flags lines from /proc/cpuinfo, or
    nothing where that file does not exist."""
    lines = []
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if not line.strip():
                    break
                if line.partition(":")[0].strip() in _CPU_FIELDS:
                    lines.append(line)
    except OSError:
        pass
    return "".join(lines).encode()


def _build() -> Path:
    """Path of ``_xnor.c`` compiled for this host: from the cache, or built
    into it through a temporary file that ``os.replace`` moves into place."""
    cmd = [_CC, *_CFLAGS]
    key = zlib.crc32(b"\0".join([_SOURCE.read_bytes(), " ".join(cmd).encode(),
                                   _cpu_signature()]))
    lib = _CACHE_DIR / f"_xnor-{key:08x}.so"
    if lib.exists():
        return lib
    lib.parent.mkdir(exist_ok=True)
    tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
    cmd += ["-o", str(tmp), str(_SOURCE)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    except OSError as exc:
        raise BuildError(f"{' '.join(cmd)}: {exc}") from None
    if proc.returncode:
        tmp.unlink(missing_ok=True)
        raise BuildError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    os.replace(tmp, lib)
    return lib


@cache
def _mismatch_kernel():
    """``xnor_mismatches`` from the built library, loaded once per process.
    Its array arguments refuse a wrong dtype, rank or layout before any
    pointer reaches C."""
    fn = ctypes.CDLL(str(_build())).xnor_mismatches
    words = np.ctypeslib.ndpointer(np.uint64, ndim=2, flags="C_CONTIGUOUS")
    counts = np.ctypeslib.ndpointer(np.int32, ndim=2, flags=("C_CONTIGUOUS", "WRITEABLE"))
    fn.argtypes = [words, words, counts, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64]
    fn.restype = None
    return fn


def _xnor_mismatches(cols: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """(filters, positions) int32 counts of mismatched signs: out[k, p] sums
    popcount(cols[r, p] ^ filt[k, r]) over the rows r of the (rows,
    positions) columns and the (filters, rows) filter words."""
    rows, positions = cols.shape
    k = filt.shape[0]
    if filt.shape != (k, rows):
        raise ShapeError(f"filter words {filt.shape} do not match {rows} column rows")
    out = np.empty((k, positions), dtype=np.int32)
    _mismatch_kernel()(cols, filt, out, rows, positions, k)
    return out


def conv_xnor_layer(
    I, filters: list[BinarizedFilter], geom: ConvGeometry, counters: OpCounters | None = None
) -> np.ndarray:
    """XNOR convolution of a filter bank: (sign(I) xnor-conv sign(W)) * K * alpha.

    All filters share one set of sign columns and one beta map. Each filter
    tap's channel signs are packed once into the columns' (word, fh, fw)
    order, with zero pad bits like the columns', so the inner loop is one XOR
    plus popcount, summed over rows: m mismatched signs per output, whose dot
    is c*fh*fw - 2*m. Real multiplications only scale each output by beta
    and alpha. A degenerate filter's output is zeros, and it is not counted
    in ``counters``. Returns float32 (K, oh, ow).
    """
    I = np.asarray(I)
    bits, alphas = _unpack_filters(I, filters, geom)
    cols = sign_patch_matrix(I, geom)
    beta_map = compute_beta_map(I, geom)
    if counters is not None:
        _beta_map_cost(I.shape, geom, counters)
    k, c, fh, fw = bits.shape
    # each filter tap's channel words, in the columns' (word, fh, fw) row order
    filt = words_from_bits(bits.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1).reshape(k, -1)
    rows, positions = cols.shape
    mismatches = _xnor_mismatches(np.ascontiguousarray(cols), np.ascontiguousarray(filt))
    dots = c * fh * fw - 2 * mismatches
    if counters is not None:
        live = sum(not f.degenerate for f in filters)
        counters.xnor_word += live * rows * positions
        counters.popcount_word += live * rows * positions
        counters.real_mul += 2 * live * positions
    scale = beta_map.K[None, :, :] * alphas[:, None, None]
    return dots.reshape(k, *beta_map.K.shape).astype(np.float32) * scale

