import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbnn.bitpack import WORD_BITS, bits_to_signs, pack, unpack, unpack_bank, words_from_bits, xnor_dot

sign_vectors = st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=300).map(np.array)


class TestPack:
    def test_lsb_first_layout(self):
        pb = pack(np.array([1.0, -1.0, 1.0]))
        assert pb.n == 3
        assert pb.words.tolist() == [0b101]

    def test_full_word_all_plus(self):
        pb = pack(np.ones(64))
        assert pb.words.tolist() == [0xFFFFFFFFFFFFFFFF]

    def test_two_words_all_minus(self):
        pb = pack(-np.ones(65))
        assert pb.n_words == 2
        assert pb.words.tolist() == [0, 0]
        assert pb.n == 65  # 63 pad bits, all zero

    def test_rejects_non_sign_values(self):
        with pytest.raises(ValueError):
            pack(np.array([1.0, 0.0, -1.0]))

    @given(sign_vectors)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, v):
        np.testing.assert_array_equal(unpack(pack(v)), v)

    @given(sign_vectors)
    @settings(max_examples=100, deadline=None)
    def test_pad_bits_canonical(self, v):
        pb = pack(v)
        used = pb.n - (pb.n_words - 1) * WORD_BITS  # bits of the last word that hold signs
        assert int(pb.words[-1]) >> used == 0


    def test_words_equal_pad_then_pack_reference(self):
        # the bits padded with zeros to whole words, then packed, for every
        # length, any leading shape and a non-contiguous input (the XNOR
        # layer packs transposed views)
        rng = np.random.default_rng(3)
        for n in range(1, 300):
            bits = rng.random((2, 3, n)) < 0.5
            padded = np.zeros((2, 3, -(-n // WORD_BITS) * WORD_BITS), dtype=np.uint8)
            padded[..., :n] = bits
            ref = np.packbits(padded, axis=-1, bitorder="little").view("<u8")
            got = words_from_bits(bits)
            assert got.dtype == np.uint64 and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
            assert words_from_bits(bits.astype(np.uint8)).tobytes() == ref.tobytes()
            strided = np.ascontiguousarray(bits.transpose(2, 0, 1)).transpose(1, 2, 0)
            assert n == 1 or not strided.flags.c_contiguous
            assert words_from_bits(strided).tobytes() == ref.tobytes()


class TestUnpackBank:
    def test_rows_equal_per_vector_unpack(self):
        rng = np.random.default_rng(4)
        for n in (1, 63, 64, 65, 200):
            vs = np.where(rng.random((5, n)) < 0.5, 1.0, -1.0)
            words = np.stack([pack(v).words for v in vs])
            bits = unpack_bank(words, n)
            assert bits.shape == (5, n) and bits.dtype == np.uint8
            np.testing.assert_array_equal(bits, (vs > 0).astype(np.uint8))
            np.testing.assert_array_equal(unpack_bank(words[2], n), bits[2])


class TestBitsToSigns:
    @pytest.mark.parametrize("dtype", [np.uint8, bool, np.float32, np.float64])
    def test_values_in_a_new_float32_buffer(self, dtype):
        bits = np.array([[1, 0, 1], [0, 0, 1]], dtype=dtype)
        before = bits.copy()
        signs = bits_to_signs(bits)
        assert signs.dtype == np.float32 and not np.shares_memory(signs, bits)
        np.testing.assert_array_equal(signs, [[1, -1, 1], [-1, -1, 1]])
        np.testing.assert_array_equal(bits, before)


class TestXnorDot:
    def test_hand_example(self):
        a = pack(np.array([1.0, 1.0, -1.0]))
        b = pack(np.array([1.0, -1.0, -1.0]))
        assert xnor_dot(a, b) == 1

    def test_identity_and_complement(self):
        rng = np.random.default_rng(11)
        for n in (1, 7, 64, 65, 200):
            v = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            assert xnor_dot(pack(v), pack(v)) == n
            assert xnor_dot(pack(v), pack(-v)) == -n

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xnor_dot(pack(np.ones(3)), pack(np.ones(4)))

    def test_matches_float_dot_random(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 4097))
            a = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            b = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            assert xnor_dot(pack(a), pack(b)) == int(a @ b)

    @given(sign_vectors, st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_symmetry_bound_parity(self, a, rnd):
        b = np.array([rnd.choice([-1.0, 1.0]) for _ in range(a.size)])
        pa, pb = pack(a), pack(b)
        d = xnor_dot(pa, pb)
        assert d == xnor_dot(pb, pa)
        assert abs(d) <= a.size
        assert d % 2 == a.size % 2
