"""Bit-exact model serialization and the memory footprint calculator.

File layout (all little-endian):

    magic "XBN1" | version u16 | layer_count u16 | input shape 3*u32
    then per layer: kind u8 | flags u8 | kind-specific header | payload

A conv's flags byte keeps the k_bits of its input quantizer, minus one, in
its high nibble. A binarized conv evaluates alpha * sign(W), and
``Conv2d.scales`` gives its per-filter alpha: the learned scale, or else
mean|W|. A learned scale or a packed payload needs the binarized-weights
flag. Conv payloads are either raw float32 weights (training checkpoints),
followed by the learned scales if the conv has them, or the packed form:
per filter ceil(n/64) uint64 sign words (bitpack layout) followed by the
float32 ``scales()``, one per filter. Loading a packed convolution gives
back a binarized conv: with a learned scale, sign weights and the stored
scales as that scale; otherwise weights alpha * sign, whose mean|W| is the
stored alpha bit for bit (``binarize.filter_alphas``). So an exported model
evaluates bit-identically without the real-valued weights. A mean|W| is
never negative or non-finite in a file: ``save`` refuses to pack such a
scale and ``load`` rejects it, while a learned scale may take any value.

A pool header keeps a stride field, always equal to the window size.

``save`` and ``load`` both walk the chain from the input shape: each conv
and BatchNorm takes the channels of the layer before it, every conv and
pool window fits its input, a conv's pad is smaller than its filter, and a
conv's one-image float32 column matrix (c*fh*fw by oh*ow) holds at most
MAX_COLUMN_BYTES. So a file that loads evaluates, and any network that
saves loads again.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .bitpack import bits_to_signs, unpack_bank, word_count, words_from_bits
from .nn import (
    AvgPool2d,
    BatchNorm2d,
    BinaryActivation,
    Conv2d,
    Layer,
    MaxPool2d,
    Network,
    ReLU,
)
from .tensor import ShapeError

MAGIC = b"XBN1"
VERSION = 1

_KIND_CONV = 1
_KIND_BATCHNORM = 2
_KIND_RELU = 3
_KIND_BINACTIV = 4
_KIND_MAXPOOL = 5
_KIND_AVGPOOL = 6

_FLAG_BIN_WEIGHTS = 1
_FLAG_BIN_INPUT = 2
_FLAG_LEARNED_SCALE = 4
_FLAG_PACKED = 8
# the high nibble of a conv's flags holds k_bits - 1, so k_bits = 1 files keep
# the layout they had before k_bits was stored
_K_BITS_SHIFT = 4
_MAX_K_BITS = 16

# cap on one conv's float32 column matrix for one image, in bytes
MAX_COLUMN_BYTES = 1 << 30


class ModelIOError(Exception):
    pass


class BadMagicError(ModelIOError):
    pass


class UnsupportedVersionError(ModelIOError):
    pass


class TruncatedFileError(ModelIOError):
    pass


class SizeMismatchError(ModelIOError):
    pass


def _read(fh, count: int, what: str) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise TruncatedFileError(f"truncated {what}: wanted {count} bytes, got {len(buf)}")
    return buf


def _write_conv(fh, layer: Conv2d, pack_binarized: bool) -> None:
    flags = (layer.k_bits - 1) << _K_BITS_SHIFT
    if layer.binarize_weights:
        flags |= _FLAG_BIN_WEIGHTS
    if layer.binarize_input:
        flags |= _FLAG_BIN_INPUT
    if layer.learned_scale:
        flags |= _FLAG_LEARNED_SCALE
    packed = layer.binarize_weights and pack_binarized
    if packed:
        flags |= _FLAG_PACKED
    fh.write(struct.pack("<BB", _KIND_CONV, flags))
    fh.write(struct.pack("<6H", layer.out_ch, layer.in_ch, *layer.geom.filt_hw,
                         layer.geom.stride, layer.geom.pad))
    W = layer.weight.value.astype(np.float32)
    if packed:
        flat = W.reshape(layer.out_ch, -1)
        fh.write(words_from_bits(flat >= 0).astype("<u8").tobytes())
        fh.write(layer.scales().astype("<f4").tobytes())
    else:
        fh.write(W.astype("<f4").tobytes())
        if layer.learned_scale:
            fh.write(layer.alpha.value.astype("<f4").tobytes())


def _read_conv(fh, flags: int) -> Conv2d:
    out_ch, in_ch, fh_, fw_, stride, pad = struct.unpack("<6H", _read(fh, 12, "conv header"))
    if min(out_ch, in_ch, fh_, fw_, stride) < 1:
        raise ModelIOError(f"conv header out {out_ch}, in {in_ch}, filter {fh_}x{fw_}, "
                           f"stride {stride}: each must be at least 1")
    n = in_ch * fh_ * fw_
    if flags & (_FLAG_PACKED | _FLAG_LEARNED_SCALE) and not flags & _FLAG_BIN_WEIGHTS:
        raise ModelIOError("packed or learned-scale conv record without binarized weights")
    packed = bool(flags & _FLAG_PACKED)
    learned = bool(flags & _FLAG_LEARNED_SCALE)
    # check the payload against the file before building a layer of that
    # size; describe prices the record the same way
    payload = memory_footprint([(out_ch, n, packed, learned)], "binary" if packed else "float32")
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if payload > left:
        raise TruncatedFileError(f"truncated conv payload: its header names {payload} bytes, "
                                 f"the file has {left} left")
    layer = Conv2d(in_ch, out_ch, (fh_, fw_), stride=stride, pad=pad,
                   binarize_weights=bool(flags & _FLAG_BIN_WEIGHTS),
                   binarize_input=bool(flags & _FLAG_BIN_INPUT),
                   learned_scale=learned, k_bits=(flags >> _K_BITS_SHIFT) + 1,
                   rng=np.random.default_rng(0))
    if packed:
        n_words = word_count(n)
        raw = _read(fh, out_ch * n_words * 8, "packed filter words")
        words = np.frombuffer(raw, dtype="<u8").reshape(out_ch, n_words)
        alphas = np.frombuffer(_read(fh, out_ch * 4, "filter scales"), dtype="<f4").copy()
        _check_scales(layer, alphas)
        signs = bits_to_signs(unpack_bank(words, n)).reshape(out_ch, in_ch, fh_, fw_)
        if learned:
            # keep the sign weights and the learned scale as separate pieces
            layer.weight.value, layer.alpha.value = signs, alphas
        else:
            layer.weight.value = alphas[:, None, None, None] * signs
    else:
        raw = _read(fh, out_ch * n * 4, "conv weights")
        layer.weight.value = np.frombuffer(raw, dtype="<f4").reshape(
            out_ch, in_ch, fh_, fw_).copy()
        if learned:
            layer.alpha.value = np.frombuffer(
                _read(fh, out_ch * 4, "learned scales"), dtype="<f4").copy()
    return layer


def _check_chain(layers, input_shape) -> None:
    """Raise ModelIOError unless the chain of layers fits ``input_shape``:
    the rules of the module docstring."""
    c, hw = input_shape[0], tuple(input_shape[1:])
    for i, layer in enumerate(layers):
        if isinstance(layer, Conv2d) and layer.geom.pad >= min(layer.geom.filt_hw):
            raise ModelIOError(f"layer {i}: conv pad {layer.geom.pad} is not smaller than "
                               f"its {layer.geom.filt_hw} filter")
        takes = layer.in_ch if isinstance(layer, Conv2d) else getattr(layer, "channels", c)
        if takes != c:
            raise ModelIOError(f"layer {i}: takes {takes} channels, the chain gives it {c}")
        if isinstance(layer, (Conv2d, MaxPool2d, AvgPool2d)):
            try:
                hw = layer.geom.out_hw(hw)
            except ShapeError as exc:
                raise ModelIOError(f"layer {i}: {exc}") from None
        if isinstance(layer, Conv2d):
            col_bytes = 4 * c * layer.geom.filt_hw[0] * layer.geom.filt_hw[1] * hw[0] * hw[1]
            if col_bytes > MAX_COLUMN_BYTES:
                raise ModelIOError(f"layer {i}: conv's column matrix takes {col_bytes} bytes "
                                   f"per image, over the {MAX_COLUMN_BYTES}-byte limit")
        c = getattr(layer, "out_ch", c)


def _write_batchnorm(fh, layer: BatchNorm2d) -> None:
    fh.write(struct.pack("<BB", _KIND_BATCHNORM, 0))
    fh.write(struct.pack("<Hf", layer.channels, layer.eps))
    for arr in (layer.gamma.value, layer.beta.value, layer.running_mean, layer.running_var):
        fh.write(np.asarray(arr, dtype="<f4").tobytes())


def _read_batchnorm(fh) -> BatchNorm2d:
    channels, eps = struct.unpack("<Hf", _read(fh, 6, "batchnorm header"))
    layer = BatchNorm2d(channels, eps=float(eps))
    arrays = []
    for what in ("gamma", "beta", "running mean", "running var"):
        raw = _read(fh, channels * 4, f"batchnorm {what}")
        arrays.append(np.frombuffer(raw, dtype="<f4").copy())
    layer.gamma.value, layer.beta.value, layer.running_mean, layer.running_var = arrays
    return layer


def _check_scales(layer: Conv2d, alphas) -> None:
    """Raise ModelIOError for a negative or non-finite mean|W| scale, which
    ``save`` never writes; a learned scale may take any value."""
    if not layer.learned_scale and (np.signbit(alphas).any() or not np.isfinite(alphas).all()):
        raise ModelIOError("packed conv scale is negative or not finite; a mean|W| "
                           "scale is neither")


def _check_k_bits(k_bits: int) -> None:
    if not 1 <= k_bits <= _MAX_K_BITS:
        raise ModelIOError(f"k_bits={k_bits} does not fit a model file (1 to {_MAX_K_BITS})")


def save(net: Network, path, *, pack_binarized: bool = False) -> None:
    """Serialize a network; ``pack_binarized=True`` stores binarized-weight
    convolutions as 1-bit sign words plus per-filter scales, and every other
    layer as it is. A network loaded from a file ``save`` packed re-saves
    packed to the same bytes. Raises ModelIOError, before the file is
    opened, for a network ``load`` would reject."""
    for layer in net.layers:
        if isinstance(layer, (Conv2d, BinaryActivation)):
            _check_k_bits(layer.k_bits)
        if isinstance(layer, Conv2d) and layer.binarize_weights and pack_binarized:
            _check_scales(layer, layer.scales().astype(np.float32))
    _check_chain(net.layers, net.input_shape)
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HH", VERSION, len(net.layers)))
        fh.write(struct.pack("<3I", *net.input_shape))
        for layer in net.layers:
            if isinstance(layer, Conv2d):
                _write_conv(fh, layer, pack_binarized)
            elif isinstance(layer, BatchNorm2d):
                _write_batchnorm(fh, layer)
            elif isinstance(layer, ReLU):
                fh.write(struct.pack("<BB", _KIND_RELU, 0))
            elif isinstance(layer, BinaryActivation):
                fh.write(struct.pack("<BB", _KIND_BINACTIV, 0))
                fh.write(struct.pack("<B", layer.k_bits))
            elif isinstance(layer, MaxPool2d):
                fh.write(struct.pack("<BB", _KIND_MAXPOOL, 0))
                fh.write(struct.pack("<HH", layer.size, layer.size))
            elif isinstance(layer, AvgPool2d):
                fh.write(struct.pack("<BB", _KIND_AVGPOOL, 0))
                fh.write(struct.pack("<HH", layer.size, layer.size))
            else:
                raise ModelIOError(f"cannot serialize layer {type(layer).__name__}")


def load(path) -> Network:
    path = Path(path)
    with open(path, "rb") as fh:
        magic = _read(fh, 4, "magic")
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version, layer_count = struct.unpack("<HH", _read(fh, 4, "version header"))
        if version != VERSION:
            raise UnsupportedVersionError(f"unsupported version {version}, expected {VERSION}")
        if not layer_count:
            raise ModelIOError("the file holds no layers; a network needs at least one")
        input_shape = struct.unpack("<3I", _read(fh, 12, "input shape"))
        layers: list[Layer] = []
        for i in range(layer_count):
            kind, flags = struct.unpack("<BB", _read(fh, 2, f"layer {i} tag"))
            if kind == _KIND_CONV:
                layers.append(_read_conv(fh, flags))
            elif kind == _KIND_BATCHNORM:
                layers.append(_read_batchnorm(fh))
            elif kind == _KIND_RELU:
                layers.append(ReLU())
            elif kind == _KIND_BINACTIV:
                k_bits, = struct.unpack("<B", _read(fh, 1, "binactiv header"))
                _check_k_bits(k_bits)
                layers.append(BinaryActivation(k_bits=k_bits))
            elif kind in (_KIND_MAXPOOL, _KIND_AVGPOOL):
                size, stride = struct.unpack("<HH", _read(fh, 4, "pool header"))
                if not size or stride != size:
                    raise ModelIOError(f"layer {i}: pool of size {size} with stride {stride}; "
                                       "a pool's stride is its size")
                cls = MaxPool2d if kind == _KIND_MAXPOOL else AvgPool2d
                layers.append(cls(size))
            else:
                raise ModelIOError(f"unknown layer kind tag {kind}")
        trailing = fh.read(1)
        if trailing:
            raise SizeMismatchError("trailing bytes after final layer record")
    _check_chain(layers, input_shape)
    return Network(layers, input_shape)


# ---------------------------------------------------------------------------
# memory accounting


def filter_bytes(n: int, binarized: bool) -> int:
    """Storage for one filter of n weights: 4n bytes at full precision, or
    ceil(n/64) words plus one float32 scale when binarized."""
    if binarized:
        return word_count(n) * 8 + 4
    return 4 * n


def memory_footprint(arch, mode: str = "binary") -> int:
    """Total weight bytes for an architecture description.

    ``arch`` entries are either plain ints (full-precision parameter blobs:
    batchnorm params, biases, embeddings) or (filters, n, binarized) tuples
    for convolution banks, with an optional fourth field that is True for a
    bank with a learned scale per filter. mode="float32" prices everything
    at 4 bytes per parameter, learned scales included; mode="binary" packs
    the banks marked binarized, whose packed filters each hold their one
    scale, learned or not.
    """
    if mode not in ("float32", "binary"):
        raise ValueError(f"unknown mode {mode!r}")
    total = 0
    for entry in arch:
        if isinstance(entry, (int, np.integer)):
            total += 4 * int(entry)
            continue
        filters, n, binarized, *learned = entry
        if mode == "float32":
            total += 4 * filters * (n + any(learned))
        else:
            total += filters * filter_bytes(n, binarized)
    return total


def _layer_arch(layer: Layer) -> list:
    """One layer's entries in memory_footprint terms."""
    if isinstance(layer, Conv2d):
        n = layer.in_ch * layer.geom.filt_hw[0] * layer.geom.filt_hw[1]
        return [(layer.out_ch, n, layer.binarize_weights, layer.learned_scale)]
    if isinstance(layer, BatchNorm2d):
        return [4 * layer.channels]
    return []


def network_arch(net: Network) -> list:
    """Describe a network in memory_footprint terms."""
    return [entry for layer in net.layers for entry in _layer_arch(layer)]


def describe(net: Network) -> str:
    """Human-readable layer table with per-layer storage at both precisions;
    the rows are priced by memory_footprint, so they sum to the totals. Each
    row is its record's payload in a raw and in a packed file."""
    lines = [f"{'idx':>3} {'layer':<14} {'detail':<34} {'float B':>10} {'binary B':>10}"]
    for i, layer in enumerate(net.layers):
        name, detail = type(layer).__name__.lower(), ""
        if isinstance(layer, Conv2d):
            fh_, fw_ = layer.geom.filt_hw
            name = "conv"
            detail = (f"{layer.in_ch}->{layer.out_ch} {fh_}x{fw_} s{layer.geom.stride} "
                      f"p{layer.geom.pad}"
                      + (" Wbin" if layer.binarize_weights else "")
                      + (" Ibin" if layer.binarize_input else ""))
        elif isinstance(layer, BatchNorm2d):
            name, detail = "batchnorm", f"channels={layer.channels}"
        elif isinstance(layer, (MaxPool2d, AvgPool2d)):
            detail = f"{layer.size}x{layer.size} s{layer.size}"
        arch = _layer_arch(layer)
        lines.append(f"{i:>3} {name:<14} {detail:<34} {memory_footprint(arch, 'float32'):>10} "
                     f"{memory_footprint(arch, 'binary'):>10}")
    arch = network_arch(net)
    lines.append(f"total float32: {memory_footprint(arch, 'float32')} B; "
                 f"binary: {memory_footprint(arch, 'binary')} B")
    return "\n".join(lines)
