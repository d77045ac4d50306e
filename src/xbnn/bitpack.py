"""Sign vectors packed into 64-bit words, and the XNOR-popcount dot product.

Layout (normative for the model file format): bit = 1 means +1, bit = 0 means
-1; bits are LSB-first within each little-endian word, so element i lives at
bit (i mod 64) of word (i // 64). ``words_from_bits`` is the one packer, and
every layout it builds has zero pad bits past the logical length. So the pad
bits of two operands cancel under XOR: popcount(a XOR b) counts the
mismatched signs, and the +-1 dot of two length-n vectors is
n - 2*popcount(a XOR b). The XNOR conv's channel-major words in
``kernels`` pack each pixel's and each filter tap's channel signs by the same
rule; they are built per call (a network's conv bank once per forward) and
never stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORD_BITS = 64


@dataclass(frozen=True)
class PackedBits:
    """Immutable packed sign pattern of logical length ``n``."""

    n: int
    words: np.ndarray  # uint64, ceil(n / 64) entries, canonical zero pad bits

    def __post_init__(self):
        self.words.setflags(write=False)

    @property
    def n_words(self) -> int:
        return self.words.size


def word_count(n: int) -> int:
    """Words that hold n bits: ceil(n / 64)."""
    return -(-n // WORD_BITS)


def words_from_bits(bits: np.ndarray) -> np.ndarray:
    """(..., n) boolean or 0/1 bits, one vector per row -> (..., ceil(n/64))
    little-endian uint64 words, with zero pad bits."""
    *lead, n = bits.shape
    padded = np.zeros((*lead, word_count(n) * WORD_BITS), dtype=bool)
    padded[..., :n] = bits
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8").astype(np.uint64, copy=False)


def pack(v) -> PackedBits:
    """Pack a +-1 sign vector; any other value is rejected."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D sign vector, got shape {v.shape}")
    if v.size == 0 or not np.all(np.abs(v) == 1):
        raise ValueError("sign vector must be nonempty with every element exactly +1 or -1")
    return PackedBits(n=v.size, words=words_from_bits(v > 0))


def unpack_bank(words, n: int) -> np.ndarray:
    """(..., n_words) uint64 words of vectors of length n -> (..., n) uint8
    0/1 bits, with one unpackbits for the whole bank."""
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=n, bitorder="little")


def bits_to_signs(bits) -> np.ndarray:
    """0/1 bits -> float32 +-1 (bit 1 means +1), in one new buffer."""
    out = np.array(bits, dtype=np.float32)  # a copy even of a float32 input
    out *= 2
    out -= 1
    return out


def unpack(pb: PackedBits) -> np.ndarray:
    """Inverse of pack: float32 +-1 vector of length pb.n."""
    return bits_to_signs(unpack_bank(pb.words, pb.n))


def xnor_dot(a: PackedBits, b: PackedBits) -> int:
    """Exact +-1 dot product via XOR + popcount: popcount(a XOR b) counts the
    mismatched signs (the zero pad bits cancel), so the dot is n - 2*that."""
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    return a.n - 2 * int(np.bitwise_count(a.words ^ b.words).sum())
