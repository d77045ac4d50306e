"""The three convolution paths: full-precision reference (re-exported from
tensor), binary-weight convolution (adds/subs plus one scale multiply per
output), and XNOR convolution (packed XNOR + popcount inner loop).

Both binary paths read receptive fields from ``tensor.windows``, the view the
batched ``nn`` layers use, so the input's cost and the beta map are amortized
over all filters. ``conv_xnor`` is the one XNOR conv: ``nn.Conv2d`` calls it
in eval for every 1-bit binarized-input conv, once per image chunk, and
``conv_xnor_layer`` is its one-image case. It packs each pixel's and each
filter tap's channel signs with ``bitpack.words_from_bits``, ceil(c/64)
words with zero pad bits, as the file layout packs a filter; only the (word,
fh, fw) order of the words differs from the file's (c, fh, fw). This module
is the only one that knows that word layout: ``pack_bank`` builds a bank's
words and ``sign_patch_matrix`` an input's. The one-filter BWN function calls
the layer with a one-filter bank.

The XNOR conv's XOR + popcount loop and its scaling by alpha * K are C, in
``_xnor.c`` beside this file, with a float32 and a float64 entry; packing and
the beta map stay in numpy. The first XNOR conv of a process compiles it with
``cc -O3 -march=native`` into ``_xnor_cache/`` beside this file, under a name
keyed by the source, the command and the host CPU's model and flags, and
loads it through ctypes; later processes load the cached library. Importing
the package, training and evaluating a full or bwn net build and load
nothing. Without a working ``cc`` the call raises ``BuildError`` with the
command and the compiler's stderr: there is no numpy fallback.
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
    "XnorBank",
    "conv2d_reference",
    "conv_binary_weight",
    "conv_binary_weight_layer",
    "conv_xnor",
    "conv_xnor_layer",
    "im2col",
    "pack_bank",
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
    """Channel-packed sign columns of sign(I), for one (c, h, w) image or an
    (N, c, h, w) chunk: (ceil(c/64)*fh*fw, N*oh*ow) uint64, N = 1 for one
    image, with the columns image by image.

    The I >= 0 planes are padded with True (sign(0) = +1 on the border) and
    each pixel's channel vector is packed by ``words_from_bits``, so channel
    pad bits are 0; row (word, dy, dx) reads that word at tap (dy, dx) of
    every receptive field. The beta map's attenuated border entries partially
    compensate for the +1 border.
    """
    I = np.asarray(I)
    x = I[None] if I.ndim == 3 else I
    planes = words_from_bits(pad_hw(x >= 0, geom.pad, True).transpose(0, 2, 3, 1))  # (N, H, W, words)
    win = windows(planes.transpose(0, 3, 1, 2), ConvGeometry(geom.filt_hw, geom.stride))
    n, words, fh, fw, oh, ow = win.shape
    return np.ascontiguousarray(win.transpose(1, 2, 3, 0, 4, 5)).reshape(words * fh * fw, n * oh * ow)


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


_ENTRIES = {np.dtype(np.float32): "xnor_conv_f32", np.dtype(np.float64): "xnor_conv_f64"}


@cache
def _xnor_kernels() -> dict:
    """The built library's XNOR conv entry for each result dtype, loaded
    once per process. Their array arguments refuse a wrong dtype, rank or
    layout before any pointer reaches C."""
    library = ctypes.CDLL(str(_build()))
    words = np.ctypeslib.ndpointer(np.uint64, ndim=2, flags="C_CONTIGUOUS")
    entries = {}
    for dtype, name in _ENTRIES.items():
        fn = getattr(library, name)
        fn.argtypes = [words, words, np.ctypeslib.ndpointer(dtype, ndim=1, flags="C_CONTIGUOUS"),
                       np.ctypeslib.ndpointer(dtype, ndim=2, flags="C_CONTIGUOUS"),
                       np.ctypeslib.ndpointer(dtype, ndim=3, flags=("C_CONTIGUOUS", "WRITEABLE")),
                       *[ctypes.c_int64] * 5]
        fn.restype = None
        entries[dtype] = fn
    return entries


def _xnor_conv(cols: np.ndarray, filt: np.ndarray, alphas: np.ndarray, beta: np.ndarray,
               n: int) -> np.ndarray:
    """(images, filters, positions) outputs (n - 2m) * (alphas[k] * beta[i, q]),
    in beta's dtype, float32 or float64: m sums popcount(cols[r, i*positions
    + q] ^ filt[k, r]) over the rows r of the (rows, images*positions) columns
    and the (filters, rows) filter words, and n is a window's sign count."""
    rows, width = cols.shape
    k = filt.shape[0]
    images, positions = beta.shape
    if filt.shape != (k, rows) or alphas.shape != (k,) or width != images * positions:
        raise ShapeError(f"filter words {filt.shape}, scales {alphas.shape} and beta map "
                         f"{beta.shape} do not match columns {cols.shape}")
    if beta.dtype not in _ENTRIES:
        raise TypeError(f"the XNOR conv computes float32 or float64, not {beta.dtype}")
    out = np.empty((images, k, positions), dtype=beta.dtype)
    _xnor_kernels()[beta.dtype](cols, filt, alphas, beta, out, rows, images, positions, k, n)
    return out


@dataclass(frozen=True)
class XnorBank:
    """A (K, c, fh, fw) filter bank's signs as XNOR words, and its scales."""

    words: np.ndarray  # (K, ceil(c/64)*fh*fw) uint64, in sign_patch_matrix's row order
    alphas: np.ndarray  # (K,) per-filter scales
    shape: tuple  # (K, c, fh, fw)


def pack_bank(bits, alphas) -> XnorBank:
    """The XnorBank of (K, c, fh, fw) boolean or 0/1 sign bits (1 means +1)
    and (K,) scales: each filter tap's channel signs packed once into the
    sign columns' (word, fh, fw) row order, with zero pad bits like theirs."""
    bits = np.asarray(bits)
    words = words_from_bits(bits.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return XnorBank(np.ascontiguousarray(words).reshape(len(bits), -1), np.asarray(alphas),
                    bits.shape)


def conv_xnor(x, bank: XnorBank, geom: ConvGeometry, K) -> np.ndarray:
    """XNOR convolution of an (N, c, h, w) chunk: (sign(x) xnor-conv sign(W))
    * alpha * K, (N, filters, oh, ow), given the chunk's (N, oh, ow) beta map
    K.

    The chunk's sign columns span all N*oh*ow positions, so one C call XORs
    and popcounts every filter's words against them: m mismatched signs per
    output, whose dot is c*fh*fw - 2*m. The same call scales each dot by
    alpha * K, in the result dtype of K and the scales, float32 or float64,
    straight into the output. Every output is an exact integer times that
    scale, so how a batch is chunked never changes it.
    """
    x = np.asarray(x)
    k, c, fh, fw = bank.shape
    if x.ndim != 4 or x.shape[1] != c or tuple(geom.filt_hw) != (fh, fw):
        raise ShapeError(f"input {x.shape} and extent {geom.filt_hw} do not match bank {bank.shape}")
    oh, ow = geom.out_hw(x.shape[2:])
    dtype = np.result_type(K, bank.alphas)
    beta = np.ascontiguousarray(K, dtype=dtype).reshape(len(x), oh * ow)
    out = _xnor_conv(sign_patch_matrix(x, geom), bank.words, bank.alphas.astype(dtype),
                     beta, c * fh * fw)
    return out.reshape(len(x), k, oh, ow)


def conv_xnor_layer(
    I, filters: list[BinarizedFilter], geom: ConvGeometry, counters: OpCounters | None = None
) -> np.ndarray:
    """XNOR convolution of a filter bank over one image: ``conv_xnor`` of
    the one-image chunk, with float32 scales and beta map.

    All filters share one set of sign columns and one beta map; the inner
    loop is one XOR plus popcount per word, summed over rows, and real
    multiplications only scale each output by beta and alpha. A degenerate
    filter's output is zeros, and it is not counted in ``counters``. Returns
    float32 (K, oh, ow).
    """
    I = np.asarray(I)
    bits, alphas = _unpack_filters(I, filters, geom)
    bank = pack_bank(bits, alphas)
    beta_map = compute_beta_map(I, geom)
    if counters is not None:
        _beta_map_cost(I.shape, geom, counters)
    out = conv_xnor(I[None], bank, geom, beta_map.K[None])[0]
    if counters is not None:
        live = sum(not f.degenerate for f in filters)
        words = live * bank.words.shape[1] * beta_map.K.size
        counters.xnor_word += words
        counters.popcount_word += words
        counters.real_mul += 2 * live * beta_map.K.size
    return out
