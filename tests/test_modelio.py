import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xbnn import modelio
from xbnn.modelio import (
    MAGIC,
    BadMagicError,
    ModelIOError,
    SizeMismatchError,
    TruncatedFileError,
    VERSION,
    UnsupportedVersionError,
    describe,
    filter_bytes,
    load,
    memory_footprint,
    network_arch,
    save,
)
from xbnn.nn import (
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
)
from xbnn.train import SGDMomentum, clamp_binarized_weights, train_step


def conv_file(path, *records, input_hw=(28, 28)):
    """A one-channel model file of conv records, each (out, in, fh, fw,
    stride, pad) with the raw weights it names, or the bytes of any other
    record."""
    raw = MAGIC + struct.pack("<HH3I", VERSION, len(records), 1, *input_hw)
    for record in records:
        if isinstance(record, bytes):
            raw += record
            continue
        out, inp, fh, fw = record[:4]
        raw += struct.pack("<BB6H", 1, 0, *record) + bytes(4 * out * inp * fh * fw)
    path.write_bytes(raw)
    return path


def random_net(seed, mode="bwn", k_bits=1):
    rng = np.random.default_rng(seed)
    specs = [
        LayerSpec(kind="conv", out_ch=int(rng.integers(2, 6)), k=3, pad=1),
        LayerSpec(kind="batchnorm"),
        LayerSpec(kind="relu"),
        LayerSpec(kind="maxpool", k=2),
        LayerSpec(kind="binconv", out_ch=int(rng.integers(2, 8)), k=3, pad=1),
        LayerSpec(kind="batchnorm"),
        LayerSpec(kind="avgpool", k=2),
        LayerSpec(kind="conv", out_ch=5),
    ]
    net = build_network(apply_mode(specs, mode), (2, 8, 8), seed=seed, k_bits=k_bits)
    # perturb batchnorm state so round trips cover non-default values
    for layer in net.layers:
        if hasattr(layer, "running_mean"):
            layer.running_mean = rng.normal(size=layer.channels).astype(np.float32)
            layer.running_var = rng.uniform(0.5, 2.0, size=layer.channels).astype(np.float32)
    return net


def params_equal(a, b):
    pa, pb = a.params(), b.params()
    if len(pa) != len(pb):
        return False
    return all(np.array_equal(x.value, y.value) for x, y in zip(pa, pb))


class TestRoundTrip:
    def test_real_payload_bit_exact(self, tmp_path):
        net = random_net(0)
        path = tmp_path / "m.xbn"
        save(net, path)
        loaded = load(path)
        assert params_equal(net, loaded)
        x = np.random.default_rng(1).normal(size=(4, 2, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(
            net.forward(x, train=False), loaded.forward(x, train=False)
        )

    def test_many_random_models(self, tmp_path):
        for seed in range(25):
            net = random_net(seed, mode=("bwn", "xnor", "full")[seed % 3])
            path = tmp_path / f"m{seed}.xbn"
            save(net, path)
            assert params_equal(net, load(path))

    def test_double_roundtrip_identical_bytes(self, tmp_path):
        net = random_net(3)
        p1, p2 = tmp_path / "a.xbn", tmp_path / "b.xbn"
        save(net, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestPackedExport:
    def _trained_net(self, mode, seed=0):
        rng = np.random.default_rng(seed)
        net = random_net(seed, mode=mode)
        images = rng.normal(size=(32, 2, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 5, 32).astype(np.int64)
        for _ in range(3):
            train_step(net, (images, labels), SGDMomentum(lr=0.05))
        return net, images

    @pytest.mark.parametrize("mode", ["bwn", "xnor"])
    def test_packed_model_evaluates_identically(self, tmp_path, mode):
        net, images = self._trained_net(mode)
        path = tmp_path / "packed.xbn"
        save(net, path, pack_binarized=True)
        loaded = load(path)
        np.testing.assert_array_equal(
            net.forward(images, train=False), loaded.forward(images, train=False)
        )

    @pytest.mark.parametrize("mode", ["bwn", "xnor", "learned"])
    def test_packed_resave_identical_bytes(self, tmp_path, mode):
        # a loaded packed layer keeps its 1-bit flag and its stored scales,
        # so a packed re-save writes the same bytes; a raw re-save writes its
        # weights (alpha * sign, or the signs beside a learned scale) in full
        for seed in range(5):
            if mode == "learned":
                rng = np.random.default_rng(seed)
                specs = [
                    LayerSpec(kind="conv", out_ch=3, k=3, pad=1),
                    LayerSpec(kind="binconv", out_ch=4, k=3, pad=1,
                              binarize_weights=True, learned_scale=True),
                    LayerSpec(kind="conv", out_ch=5),
                ]
                net = build_network(specs, (1, 6, 6), seed=seed)
                net.conv_layers()[1].alpha.value = rng.uniform(0.5, 2, size=4).astype(np.float32)
                x = rng.normal(size=(3, 1, 6, 6)).astype(np.float32)
            else:
                net, x = self._trained_net(mode, seed)
            first = tmp_path / f"{mode}{seed}.xbn"
            save(net, first, pack_binarized=True)
            for pack in (True, False):
                again = tmp_path / f"{mode}{seed}_{pack}.xbn"
                save(load(first), again, pack_binarized=pack)
                if pack:
                    assert again.read_bytes() == first.read_bytes()
                else:
                    assert again.stat().st_size > first.stat().st_size
                np.testing.assert_array_equal(
                    net.forward(x, train=False), load(again).forward(x, train=False)
                )

    @pytest.mark.parametrize("mode", ["bwn", "xnor"])
    def test_fine_tuned_packed_model_round_trips(self, tmp_path, mode):
        # a conv loaded from packed bits is a binarized conv: it describes as
        # Wbin, it clamps, and once trained it re-saves with its new scales
        net, images = self._trained_net(mode)
        path = tmp_path / "packed.xbn"
        save(net, path, pack_binarized=True)
        loaded = load(path)
        assert [c.binarize_weights for c in loaded.conv_layers()] == [False, True, False]
        rows = [r for r in describe(loaded).splitlines()[1:-1] if r.split()[1] == "conv"]
        assert ["Wbin" in r for r in rows] == [False, True, False]
        weights = loaded.conv_layers()[1].weight.value
        weights[0] = 3.0
        clamp_binarized_weights(loaded)
        assert weights.max() == 1.0

        tuned = load(path)
        labels = np.random.default_rng(1).integers(0, 5, len(images))
        for _ in range(3):
            train_step(tuned, (images, labels), SGDMomentum(lr=0.05))
        want = tuned.forward(images, train=False)
        sizes = []
        for pack in (False, True):
            save(tuned, tmp_path / "tuned.xbn", pack_binarized=pack)
            np.testing.assert_array_equal(load(tmp_path / "tuned.xbn").forward(images, train=False),
                                          want)
            sizes.append((tmp_path / "tuned.xbn").stat().st_size)
        # trained, it has real-valued weights again, which a raw save keeps
        assert sizes[0] > sizes[1]

    @pytest.mark.parametrize("binarize_input", [False, True], ids=["bwn", "xnor"])
    def test_loaded_packed_conv_scales_are_the_files(self, tmp_path, binarize_input):
        # a loaded formula-scale conv recomputes mean|alpha * sign| = alpha
        conv = Conv2d(16, 64, (3, 3), pad=1, binarize_weights=True,
                      binarize_input=binarize_input, rng=np.random.default_rng(3))
        path = tmp_path / "m.xbn"
        save(Network([conv], (16, 4, 4)), path, pack_binarized=True)
        stored = np.frombuffer(path.read_bytes()[-4 * 64:], dtype="<f4")  # the last field
        np.testing.assert_array_equal(stored, conv.scales())
        loaded = load(path).layers[0]
        np.testing.assert_array_equal(loaded.scales(), stored)
        assert loaded.scales().dtype == np.float32

    def test_packed_learned_scale_evaluates_identically(self, tmp_path):
        rng = np.random.default_rng(4)
        specs = [
            LayerSpec(kind="conv", out_ch=3, k=3, pad=1),
            LayerSpec(kind="binconv", out_ch=4, k=3, pad=1,
                      binarize_weights=True, learned_scale=True),
            LayerSpec(kind="conv", out_ch=5),
        ]
        net = build_network(specs, (1, 6, 6), seed=4)
        x = rng.normal(size=(3, 1, 6, 6)).astype(np.float32)
        path = tmp_path / "ls.xbn"
        save(net, path, pack_binarized=True)
        loaded = load(path)
        np.testing.assert_array_equal(
            net.forward(x, train=False), loaded.forward(x, train=False)
        )

    def test_packed_file_smaller(self, tmp_path):
        net, _ = self._trained_net("bwn")
        full, packed = tmp_path / "f.xbn", tmp_path / "p.xbn"
        save(net, full)
        save(net, packed, pack_binarized=True)
        assert packed.stat().st_size < full.stat().st_size


class TestErrors:
    def _saved(self, tmp_path):
        path = tmp_path / "m.xbn"
        save(random_net(5), path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load(path)

    def test_unsupported_version(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersionError):
            load(path)

    def test_truncation(self, tmp_path):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TruncatedFileError):
            load(path)

    def test_file_without_layers_rejected(self, tmp_path):
        path = tmp_path / "m.xbn"
        path.write_bytes(MAGIC + struct.pack("<HH3I", VERSION, 0, 1, 28, 28))
        assert path.stat().st_size == 20
        with pytest.raises(ModelIOError, match="no layers"):
            load(path)

    def test_trailing_garbage(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SizeMismatchError):
            load(path)

    @pytest.mark.parametrize("kind", ["maxpool", "avgpool"])
    @pytest.mark.parametrize("size, stride", [(2, 1), (2, 3), (0, 0)])
    def test_pool_stride_must_be_its_size(self, tmp_path, kind, size, stride):
        specs = [LayerSpec(kind="conv", out_ch=2, k=3, pad=1), LayerSpec(kind=kind, k=2),
                 LayerSpec(kind="conv", out_ch=3)]
        net = build_network(specs, (1, 4, 4), seed=0)
        path = tmp_path / "m.xbn"
        save(net, path)
        raw = bytearray(path.read_bytes())
        # header, then the conv's tag, header and raw weights, then the pool's tag
        at = 20 + 2 + 12 + 4 * net.layers[0].weight.value.size + 2
        assert struct.unpack_from("<HH", raw, at) == (2, 2)  # size, then stride
        struct.pack_into("<HH", raw, at, size, stride)
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelIOError, match="stride"):
            load(path)

    def test_packed_conv_without_binarized_weights_rejected(self, tmp_path):
        # save packs only binarized convs; clear that flag of a packed record
        conv = Conv2d(2, 3, (3, 3), pad=1, binarize_weights=True, rng=np.random.default_rng(0))
        path = tmp_path / "m.xbn"
        save(Network([conv], (2, 4, 4)), path, pack_binarized=True)
        raw = bytearray(path.read_bytes())
        assert raw[21] == 1 | 8  # the conv's flags: binarized weights, packed
        raw[21] = 8
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelIOError, match="packed"):
            load(path)

    def test_learned_scale_without_binarized_weights_rejected(self, tmp_path):
        # a raw 1->4 3x3 conv record with the learned-scale flag alone, and
        # the 4 float32 scales such a record holds after its weights
        path = conv_file(tmp_path / "m.xbn", struct.pack("<BB6H", 1, 4, 4, 1, 3, 3, 1, 1)
                         + bytes(4 * 4 * 9) + struct.pack("<4f", 1, 1, 1, 1))
        with pytest.raises(ModelIOError, match="learned-scale conv record without binarized"):
            load(path)
        raw = bytearray(path.read_bytes())
        raw[21] |= 1  # with binarized weights it is a learned-scale binconv
        path.write_bytes(bytes(raw))
        assert load(path).layers[0].alpha.value.tolist() == [1.0] * 4

    @pytest.mark.parametrize("scale, loads", [
        ("-alpha", False), (np.nan, False), (np.inf, False), (-0.0, False), (0.0, True),
        (float(np.finfo(np.float32).smallest_subnormal), True),
    ], ids=["negated", "nan", "inf", "negative-zero", "zero", "subnormal"])
    def test_packed_formula_scale_is_one_save_can_write(self, tmp_path, scale, loads):
        conv = Conv2d(2, 3, (3, 3), pad=1, binarize_weights=True, rng=np.random.default_rng(0))
        path = tmp_path / "m.xbn"
        save(Network([conv], (2, 4, 4)), path, pack_binarized=True)
        raw = bytearray(path.read_bytes())
        at = len(raw) - 4  # the last filter's scale, the file's last field
        alpha, = struct.unpack_from("<f", raw, at)
        struct.pack_into("<f", raw, at, -alpha if scale == "-alpha" else scale)
        path.write_bytes(bytes(raw))
        if not loads:
            with pytest.raises(ModelIOError, match="scale is negative or not finite"):
                load(path)
            return
        loaded = load(path).layers[0]
        assert loaded.scales()[-1] == np.float32(scale)
        save(Network([loaded], (2, 4, 4)), tmp_path / "again.xbn", pack_binarized=True)
        np.testing.assert_array_equal(load(tmp_path / "again.xbn").layers[0].scales(),
                                      loaded.scales())

    def test_save_refuses_to_pack_a_scale_load_rejects(self, tmp_path):
        conv = Conv2d(2, 3, (3, 3), pad=1, binarize_weights=True, rng=np.random.default_rng(0))
        conv.weight.value[1, 0, 0, 0] = np.inf
        net, path = Network([conv], (2, 4, 4)), tmp_path / "m.xbn"
        with pytest.raises(ModelIOError, match="scale is negative or not finite"):
            save(net, path, pack_binarized=True)
        assert not path.exists()
        save(net, path)  # a raw record holds the weights, not their scales
        assert np.isinf(load(path).layers[0].scales()[1])

    def test_packed_learned_scale_keeps_any_value(self, tmp_path):
        conv = Conv2d(2, 3, (3, 3), pad=1, binarize_weights=True, learned_scale=True,
                      rng=np.random.default_rng(0))
        conv.alpha.value = np.array([-0.5, np.inf, 0.0], dtype=np.float32)
        path = tmp_path / "m.xbn"
        save(Network([conv], (2, 4, 4)), path, pack_binarized=True)
        np.testing.assert_array_equal(load(path).layers[0].alpha.value, conv.alpha.value)

    @pytest.mark.parametrize("flags, dims", [(0, (1024, 1024, 3, 3)), (1 | 8, (1024, 1024, 3, 3)),
                                             (0, (65535,) * 4)], ids=["raw", "packed", "u16-limits"])
    def test_conv_header_bigger_than_file_rejected_before_allocating(self, tmp_path, flags, dims):
        # a 34-byte file: the header, then one conv tag and header (out, in,
        # fh, fw, stride, pad) naming a payload the file does not hold
        path = tmp_path / "m.xbn"
        path.write_bytes(MAGIC + struct.pack("<HH3I", 1, 1, 1, 8, 8)
                         + struct.pack("<BB6H", 1, flags, *dims, 1, 1))
        assert path.stat().st_size == 34
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFileError, match="conv payload"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("field", range(5), ids=["out_ch", "in_ch", "fh", "fw", "stride"])
    def test_conv_header_zero_field_rejected(self, tmp_path, field):
        # out, in, fh, fw, stride, pad, then the raw weights the header names
        # before one of its fields is zeroed
        dims = [2, 1, 3, 3, 1, 1]
        dims[field] = 0
        path = tmp_path / "m.xbn"
        path.write_bytes(MAGIC + struct.pack("<HH3I", VERSION, 1, 1, 8, 8)
                         + struct.pack("<BB6H", 1, 0, *dims) + bytes(4 * 2 * 1 * 3 * 3))
        with pytest.raises(ModelIOError, match="each must be at least 1"):
            load(path)

    @pytest.mark.parametrize("pad", [3, 65535])
    def test_conv_pad_not_smaller_than_filter_rejected(self, tmp_path, pad):
        # a 106-byte file: the header, then a 1->2 3x3 conv and its raw
        # weights; with pad 65535 an eval would pad each image to 131098^2
        path = conv_file(tmp_path / "m.xbn", (2, 1, 3, 3, 1, pad))
        assert path.stat().st_size == 106
        tracemalloc.start()
        try:
            with pytest.raises(ModelIOError, match=f"layer 0: conv pad {pad} is not smaller"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_conv_column_matrix_over_the_limit_rejected(self, giant_conv_model):
        # one packed 1->1 1025x1025 conv with pad 1024 on a 1x28x28 input,
        # whose first eval would ask for 4.23 TiB of columns
        path = giant_conv_model
        assert path.stat().st_size == 131_374
        with pytest.raises(ModelIOError, match="layer 0: conv's column matrix takes "
                                               f"{4 * 1025**2 * 1052**2} bytes per image"):
            load(path)

    def test_column_matrix_limit_is_inclusive(self, tmp_path, monkeypatch):
        net = Network([Conv2d(1, 2, (3, 3), pad=1)], (1, 8, 8))
        monkeypatch.setattr(modelio, "MAX_COLUMN_BYTES", 4 * 9 * 64)
        path = tmp_path / "m.xbn"
        save(net, path)
        assert load(path).layers[0].geom == net.layers[0].geom
        monkeypatch.setattr(modelio, "MAX_COLUMN_BYTES", 4 * 9 * 64 - 1)
        with pytest.raises(ModelIOError, match="over the 2303-byte limit"):
            load(path)

    def test_conv_channels_must_follow_the_chain(self, tmp_path):
        path = conv_file(tmp_path / "m.xbn", (2, 1, 3, 3, 1, 1), (3, 5, 3, 3, 1, 0))
        with pytest.raises(ModelIOError, match="layer 1: takes 5 channels, the chain gives it 2"):
            load(path)

    def test_batchnorm_channels_must_follow_the_chain(self, tmp_path):
        net = Network([Conv2d(1, 2, (3, 3), pad=1), BatchNorm2d(2)], (1, 8, 8))
        path = tmp_path / "m.xbn"
        save(net, path)
        raw = bytearray(path.read_bytes())
        at = 20 + 2 + 12 + 4 * net.layers[0].weight.value.size + 2  # the BatchNorm's header
        assert struct.unpack_from("<H", raw, at) == (2,)
        # three channels, with the 4 * 3 float32 values such a record holds
        struct.pack_into("<H", raw, at, 3)
        path.write_bytes(bytes(raw[:at + 6]) + bytes(4 * 4 * 3))
        with pytest.raises(ModelIOError, match="layer 1: takes 3 channels, the chain gives it 2"):
            load(path)

    @pytest.mark.parametrize("records, input_hw", [
        ([(2, 1, 5, 5, 1, 0)], (4, 4)),
        ([(2, 1, 1, 1, 1, 0), struct.pack("<BBHH", 5, 0, 4, 4)], (3, 3)),
    ], ids=["conv", "maxpool"])
    def test_empty_window_extent_rejected(self, tmp_path, records, input_hw):
        path = conv_file(tmp_path / "m.xbn", *records, input_hw=input_hw)
        with pytest.raises(ModelIOError, match="empty output"):
            load(path)

    @pytest.mark.parametrize("layers, message", [
        ([Conv2d(1, 2, (3, 3), pad=3)], "conv pad 3 is not smaller"),
        ([Conv2d(1, 2, (3, 3)), Conv2d(5, 3, (3, 3))], "takes 5 channels"),
        ([Conv2d(1, 1, (1025, 1025), pad=1024)], "over the 1073741824-byte limit"),
    ], ids=["pad", "channels", "columns"])
    def test_save_checks_the_chain_load_checks(self, tmp_path, layers, message):
        path = tmp_path / "m.xbn"
        with pytest.raises(ModelIOError, match=message):
            save(Network(layers, (1, 8, 8)), path)
        assert not path.exists()

    @pytest.mark.parametrize("k_bits", [0, 17, 200])
    def test_binactiv_k_bits_out_of_range_rejected(self, tmp_path, k_bits):
        path = tmp_path / "m.xbn"
        save(Network([BinaryActivation(k_bits=2)], (2, 4, 4)), path)
        raw = bytearray(path.read_bytes())
        assert raw[22] == 2  # after the binactiv's kind and flags bytes
        raw[22] = k_bits
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelIOError, match="k_bits"):
            load(path)


def fuzz_net(mode):
    """A net with a learned-scale binconv (outside full mode), BatchNorm,
    binactiv and both pool kinds, trained one step."""
    specs = [LayerSpec(kind="conv", out_ch=3, k=3, pad=1), LayerSpec(kind="batchnorm"),
             LayerSpec(kind="binactiv"), LayerSpec(kind="maxpool", k=2),
             LayerSpec(kind="binconv", out_ch=4, k=3, pad=1, learned_scale=True),
             LayerSpec(kind="relu"), LayerSpec(kind="avgpool", k=2),
             LayerSpec(kind="conv", out_ch=5)]
    net = build_network(apply_mode(specs, mode), (2, 8, 8), seed=1)
    rng = np.random.default_rng(2)
    images = rng.normal(size=(8, 2, 8, 8)).astype(np.float32)
    train_step(net, (images, rng.integers(0, 5, 8)), SGDMomentum(lr=0.05))
    return net


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """(bytes of every saved full, bwn and xnor net, raw and packed; a path to
    write mutants to)."""
    d = tmp_path_factory.mktemp("fuzz")
    files = []
    for mode in ("full", "bwn", "xnor"):
        net = fuzz_net(mode)
        for pack in (False, True):
            save(net, d / "m.xbn", pack_binarized=pack)
            files.append((d / "m.xbn").read_bytes())
    return files, d / "mutant.xbn"


@st.composite
def mutations(draw, n_files):
    """(file index, truncation length or None, [(offset, byte)] of 1-3
    rewritten bytes, or none when truncating)."""
    index = draw(st.integers(0, n_files - 1))
    if draw(st.booleans()):
        return index, draw(st.integers(0, 1 << 16)), []
    edits = draw(st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
                          min_size=1, max_size=3))
    return index, None, edits


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_files_load_or_raise_model_io_errors(saved_files, data):
    # a truncated file, or one with 1-3 bytes rewritten, either raises a
    # ModelIOError or loads a net that describes, and evaluates 2 images
    # when its input holds at most 65,536 values
    files, path = saved_files
    index, cut, edits = data.draw(mutations(len(files)))
    raw = bytearray(files[index])
    if cut is not None:
        raw = raw[:cut % len(raw)]
    for offset, byte in edits:
        raw[offset % len(raw)] = byte
    path.write_bytes(bytes(raw))
    try:
        net = load(path)
    except ModelIOError:
        return
    describe(net)
    if np.prod(net.input_shape) <= 1 << 16:
        x = np.random.default_rng(0).normal(size=(2, *net.input_shape)).astype(np.float32)
        with np.errstate(all="ignore"):
            assert net.logits(x).shape[0] == 2


class TestKBits:
    @pytest.mark.parametrize("pack", [False, True], ids=["raw", "packed"])
    @pytest.mark.parametrize("k_bits", [2, 3])
    def test_round_trip_keeps_k_bits(self, tmp_path, k_bits, pack):
        net = random_net(k_bits, mode="xnor", k_bits=k_bits)
        path = tmp_path / "k.xbn"
        save(net, path, pack_binarized=pack)
        loaded = load(path)
        assert [l.k_bits for l in loaded.conv_layers()] == [k_bits] * 3
        x = np.random.default_rng(k_bits).normal(size=(4, 2, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(net.forward(x, train=False),
                                      loaded.forward(x, train=False))

    @pytest.mark.parametrize("k_bits", [1, 2, 16])
    def test_stored_in_conv_flags_high_nibble(self, tmp_path, k_bits):
        # so a k_bits = 1 conv keeps the flags byte files had before k_bits was stored
        path = tmp_path / "k.xbn"
        save(random_net(0, mode="xnor", k_bits=k_bits), path)
        flags = path.read_bytes()[21]  # the first layer record starts at byte 20
        assert flags >> 4 == k_bits - 1

    @pytest.mark.parametrize("k_bits", [0, 17])
    def test_unstorable_k_bits_rejected(self, tmp_path, k_bits):
        net = random_net(0, mode="xnor")
        net.conv_layers()[1].k_bits = k_bits
        path = tmp_path / "k.xbn"
        with pytest.raises(ModelIOError, match="k_bits"):
            save(net, path)
        assert not path.exists()

    @pytest.mark.parametrize("k_bits", [0, 17, 300])
    def test_unstorable_binactiv_k_bits_rejected(self, tmp_path, k_bits):
        path = tmp_path / "k.xbn"
        with pytest.raises(ModelIOError, match="k_bits"):
            save(Network([BinaryActivation(k_bits=k_bits)], (2, 4, 4)), path)
        assert not path.exists()


def test_layers_keep_the_attributes_their_init_sets(tmp_path):
    # no step of a network's life adds an attribute __init__ does not declare
    declared = {type(layer): set(vars(layer)) | {"_tape"}
                for layer in (Conv2d(1, 1, (1, 1)), BatchNorm2d(1), ReLU(), BinaryActivation(),
                              MaxPool2d(2), AvgPool2d(2))}
    specs = [LayerSpec(kind="conv", out_ch=3, k=3, pad=1), LayerSpec(kind="maxpool", k=2)]
    specs += conv_block("C-B-A-P", out_ch=4)[:-1]
    specs += [LayerSpec(kind="binconv", out_ch=4, k=3, pad=1, learned_scale=True),
              LayerSpec(kind="relu"), LayerSpec(kind="avgpool", k=2),
              LayerSpec(kind="conv", out_ch=5)]
    net = build_network(apply_mode(specs, "xnor"), (2, 8, 8), seed=0)
    rng = np.random.default_rng(0)
    images = rng.normal(size=(16, 2, 8, 8)).astype(np.float32)
    train_step(net, (images, rng.integers(0, 5, 16)), SGDMomentum(lr=0.05))
    nets = [net]
    for pack in (False, True):
        save(net, tmp_path / "m.xbn", pack_binarized=pack)
        nets.append(load(tmp_path / "m.xbn"))
    for n in nets:
        n.forward(images, train=False)
        for layer in n.layers:
            assert set(vars(layer)) <= declared[type(layer)], type(layer).__name__
    assert {type(layer) for layer in net.layers} == set(declared)


class TestMemoryFootprint:
    def test_single_filter_hand_values(self):
        n = 3 * 3 * 256
        assert filter_bytes(n, binarized=False) == 9216
        assert filter_bytes(n, binarized=True) == (2304 // 64) * 8 + 4  # 292

    def test_empty_architecture(self):
        assert memory_footprint([], "float32") == 0
        assert memory_footprint([], "binary") == 0

    def test_param_blob_pricing(self):
        # 61M parameters at 4 bytes each
        assert memory_footprint([61_000_000], "float32") == 244_000_000

    def test_compression_ratio_large_filters(self):
        for n in (2048, 4096, 100_000):
            ratio = filter_bytes(n, False) / filter_bytes(n, True)
            assert ratio == pytest.approx(32.0, rel=0.05)

    def test_mixed_architecture(self):
        arch = [(8, 2048, True), (4, 100, False), 32]
        binary = memory_footprint(arch, "binary")
        expected = 8 * ((2048 // 64) * 8 + 4) + 4 * 100 * 4 + 32 * 4
        assert binary == expected
        assert memory_footprint(arch, "float32") == 4 * (8 * 2048 + 4 * 100 + 32)

    def test_network_arch_marks_binarized(self):
        net = random_net(6, mode="bwn")
        arch = network_arch(net)
        banks = [e for e in arch if isinstance(e, tuple)]
        assert [b[2] for b in banks] == [False, True, False]

    def test_describe_rows_sum_to_totals(self):
        specs = [LayerSpec(kind="conv", out_ch=4, k=3, pad=1), LayerSpec(kind="batchnorm"),
                 LayerSpec(kind="maxpool", k=2),
                 LayerSpec(kind="binconv", out_ch=6, k=3, pad=1, learned_scale=True),
                 LayerSpec(kind="batchnorm"), LayerSpec(kind="conv", out_ch=5)]
        net = build_network(apply_mode(specs, "bwn"), (2, 8, 8), seed=0)
        assert net.conv_layers()[1].learned_scale
        lines = describe(net).splitlines()
        rows = [line.split() for line in lines[1:-1]]
        total = lines[-1].replace(";", "").split()
        assert sum(int(r[-2]) for r in rows) == int(total[2])
        assert sum(int(r[-1]) for r in rows) == int(total[5])

    @pytest.mark.parametrize("mode", ["full", "bwn", "xnor", "learned"])
    def test_describe_totals_are_the_file_payloads(self, tmp_path, mode):
        # a file is its 20-byte header, then per layer its kind and flags
        # bytes, its kind's header and the payload describe prices
        heads = {Conv2d: 2 + 12, BatchNorm2d: 2 + 6, ReLU: 2, BinaryActivation: 2 + 1,
                 MaxPool2d: 2 + 4, AvgPool2d: 2 + 4}
        net = fuzz_net("bwn") if mode == "learned" else random_net(8, mode=mode)
        assert any(c.learned_scale for c in net.conv_layers()) == (mode == "learned")
        total = describe(net).splitlines()[-1].replace(";", "").split()
        fixed = 20 + sum(heads[type(layer)] for layer in net.layers)
        path = tmp_path / "m.xbn"
        for pack, column in ((False, 2), (True, 5)):
            save(net, path, pack_binarized=pack)
            assert fixed + int(total[column]) == path.stat().st_size, pack

    def test_describe_mentions_totals(self):
        text = describe(random_net(7))
        assert "total float32" in text
        assert "conv" in text
