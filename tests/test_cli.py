import shutil
import struct
import time

import pytest

from xbnn.cli import (
    UsageError,
    _time_call,
    bench_case,
    cli_main,
    parse_arch_text,
    speedup_model,
)
from xbnn.data import ingest, write_digit_corpus
from xbnn.modelio import MAGIC, VERSION, save
from xbnn.nn import apply_mode, build_network

TOY_ARCH = """\
# toy digit classifier
conv out=8 k=5 pad=2
batchnorm
relu
maxpool k=2
batchnorm
binconv out=16 k=3 pad=1
relu
maxpool k=2
conv out=10
"""


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("digits")
    write_digit_corpus(d, n_train=400, n_val=120, seed=0)
    return d


@pytest.fixture()
def arch_file(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY_ARCH)
    return path


class TestSpeedupModel:
    def test_reference_point(self):
        assert speedup_model(256, 9) == pytest.approx(62.27, abs=0.01)

    def test_small_first_layer_shape(self):
        assert speedup_model(3, 1) == pytest.approx(192 / 67, abs=0.01)

    def test_monotone_and_bounded(self):
        values = [speedup_model(c, 9) for c in (1, 2, 8, 64, 512, 4096)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 64 for v in values)
        assert speedup_model(10**9, 9) == pytest.approx(64.0, rel=1e-4)
        values_nw = [speedup_model(256, nw) for nw in (1, 9, 25, 121)]
        assert all(a < b for a, b in zip(values_nw, values_nw[1:]))

    def test_cli_prints_value(self, capsys):
        assert cli_main(["speedup", "--c", "256", "--nw", "9"]) == 0
        assert capsys.readouterr().out.strip() == "62.27"

    def test_cli_table(self, capsys):
        assert cli_main(["speedup"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "1024" in out


class TestArchParsing:
    def test_parse_toy(self):
        specs = parse_arch_text(TOY_ARCH)
        kinds = [s.kind for s in specs]
        assert kinds == ["conv", "batchnorm", "relu", "maxpool", "batchnorm",
                         "binconv", "relu", "maxpool", "conv"]
        assert specs[0].out_ch == 8 and specs[0].k == 5 and specs[0].pad == 2
        assert specs[-1].k == 0  # full extent / fully connected

    def test_unknown_key(self):
        with pytest.raises(UsageError, match="unknown key"):
            parse_arch_text("conv out=4 kernel=3")

    def test_unknown_kind(self):
        with pytest.raises(UsageError):
            parse_arch_text("dropout out=4")

    def test_empty_file(self):
        with pytest.raises(UsageError, match="no layers"):
            parse_arch_text("# nothing here\n")


class TestExitCodes:
    # each command accepts only the flags it reads; the rest are usage errors
    @pytest.mark.parametrize("argv", [
        ["speedup", "--bogus"],
        ["eval", "--model", "m.xbn", "--data", "d", "--out", "o"],
        ["eval", "--model", "m.xbn", "--data", "d", "--seed", "1"],
        ["describe", "--model", "m.xbn", "--out", "o"],
        ["describe", "--model", "m.xbn", "--seed", "1"],
        ["speedup", "--out", "o"],
        ["speedup", "--seed", "1"],
        ["pack", "--model", "m.xbn", "--seed", "1"],
        ["ablate", "--data", "d", "--seed", "1"],  # not an abbreviation of --seeds
    ], ids=lambda argv: argv[0] + "-" + [a for a in argv if a.startswith("--")][-1][2:])
    def test_unknown_flag_is_user_error(self, argv, capsys):
        assert cli_main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_command_is_user_error(self):
        assert cli_main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "train" in capsys.readouterr().out

    def test_missing_data_dir(self, tmp_path, arch_file, capsys):
        rc = cli_main(["train", "--arch", str(arch_file),
                       "--data", str(tmp_path / "nope"), "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("line", ["conv out=0 k=3", "conv out=4 k=-3", "maxpool k=-1",
                                      "conv out=4 k=3 stride=0", "conv out=4 k=3 pad=-1",
                                      # --mode would overwrite these flags
                                      "binconv out=8 k=3 pad=1 binarize_input=0",
                                      "conv out=8 k=3 binarize_weights=1"])
    def test_malformed_arch_value_is_user_error(self, data_dir, tmp_path, line, capsys):
        arch = tmp_path / "bad.cfg"
        arch.write_text(TOY_ARCH.replace("maxpool k=2", line, 1))
        rc = cli_main(["train", "--arch", str(arch), "--data", str(data_dir),
                       "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "arch line 5" in capsys.readouterr().err

    @pytest.mark.parametrize("k_bits", ["-1", "0", "17"])
    def test_k_bits_outside_the_file_range_fails_before_reading_data(
            self, data_dir, arch_file, tmp_path, k_bits, monkeypatch, capsys):
        def no_ingest(*args):
            raise AssertionError("train read the data")

        monkeypatch.setattr("xbnn.cli.ingest", no_ingest)
        out = tmp_path / "run"
        rc = cli_main(["train", "--arch", str(arch_file), "--data", str(data_dir),
                       "--k-bits", k_bits, "--out", str(out)])
        assert rc == 1
        assert f"argument --k-bits: invalid choice: {k_bits}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.xbn"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        assert cli_main(["describe", "--model", str(bad)]) == 1

    def test_arch_without_layers_writes_nothing(self, data_dir, tmp_path, capsys):
        arch = tmp_path / "loss_only.cfg"
        arch.write_text("softmax-nll\n")
        out = tmp_path / "run"
        rc = cli_main(["train", "--arch", str(arch), "--data", str(data_dir), "--out", str(out)])
        assert rc == 1
        assert "at least one layer" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_model_without_layers(self, data_dir, tmp_path, capsys):
        model = tmp_path / "empty.xbn"
        model.write_bytes(MAGIC + struct.pack("<HH3I", VERSION, 0, 1, 28, 28))
        assert cli_main(["eval", "--model", str(model), "--data", str(data_dir)]) == 1
        assert "no layers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_splits_are_dataset_errors(self, tmp_path, arch_file, command, capsys):
        empty = tmp_path / "empty"
        write_digit_corpus(empty, n_train=0, n_val=0, seed=0)
        if command == "train":
            argv = ["train", "--arch", str(arch_file), "--out", str(tmp_path / "run")]
        else:
            model = tmp_path / "m.xbn"
            save(build_network(apply_mode(parse_arch_text(TOY_ARCH), "bwn"), (1, 28, 28)), model)
            argv = ["eval", "--model", str(model)]
        capsys.readouterr()
        assert cli_main(argv + ["--data", str(empty)]) == 1
        assert "train-images-idx3-ubyte: the train split holds no images" in capsys.readouterr().err

    def test_idx_header_bigger_than_file(self, tmp_path, capsys):
        data = tmp_path / "data"
        write_digit_corpus(data, n_train=20, n_val=10, seed=0)
        (data / "train-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 0x00000803, 100000, 1000, 1000) + bytes(64))
        model = tmp_path / "m.xbn"
        save(build_network(apply_mode(parse_arch_text(TOY_ARCH), "bwn"), (1, 28, 28)), model)
        capsys.readouterr()
        assert cli_main(["eval", "--model", str(model), "--data", str(data)]) == 1
        assert "truncated pixel data" in capsys.readouterr().err

    def test_conv_header_without_input_channels(self, tmp_path, capsys):
        model = tmp_path / "m.xbn"
        model.write_bytes(MAGIC + struct.pack("<HH3I", VERSION, 1, 1, 8, 8)
                          + struct.pack("<BB6H", 1, 0, 2, 0, 3, 3, 1, 1))
        assert cli_main(["describe", "--model", str(model)]) == 1
        assert "each must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["describe", "eval"])
    @pytest.mark.parametrize("convs, message", [
        ([(2, 1, 3, 3, 1, 65535)], "layer 0: conv pad 65535 is not smaller"),
        ([(2, 1, 3, 3, 1, 1), (3, 5, 3, 3, 1, 0)], "layer 1: takes 5 channels"),
    ], ids=["pad-65535", "in-channels"])
    def test_model_that_does_not_fit_its_chain(self, data_dir, tmp_path, command, convs,
                                               message, capsys):
        # conv records (out, in, fh, fw, stride, pad), each with its raw weights
        raw = MAGIC + struct.pack("<HH3I", VERSION, len(convs), 1, 28, 28)
        for out, inp, fh, fw, stride, pad in convs:
            raw += struct.pack("<BB6H", 1, 0, out, inp, fh, fw, stride, pad)
            raw += bytes(4 * out * inp * fh * fw)
        model = tmp_path / "m.xbn"
        model.write_bytes(raw)
        argv = [command, "--model", str(model)]
        capsys.readouterr()
        assert cli_main(argv + (["--data", str(data_dir)] if command == "eval" else [])) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["describe", "eval"])
    def test_model_whose_columns_ask_for_terabytes(self, data_dir, giant_conv_model, command,
                                                   capsys):
        argv = [command, "--model", str(giant_conv_model)]
        capsys.readouterr()
        assert cli_main(argv + (["--data", str(data_dir)] if command == "eval" else [])) == 1
        assert "layer 0: conv's column matrix takes" in capsys.readouterr().err

    def test_eval_without_train_split(self, data_dir, tmp_path, capsys):
        # eval normalizes with the train split's statistics; without that
        # split it must fail, not fall back to the eval split's own
        val_only = tmp_path / "val_only"
        val_only.mkdir()
        for name in ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
            shutil.copy(data_dir / name, val_only / name)
        model = tmp_path / "m.xbn"
        shape = ingest(data_dir, "IDX", "val").images.shape[1:]
        save(build_network(apply_mode(parse_arch_text(TOY_ARCH), "bwn"), shape), model)
        capsys.readouterr()
        assert cli_main(["eval", "--model", str(model), "--data", str(val_only)]) == 1
        assert "train-images-idx3-ubyte" in capsys.readouterr().err


class TestTrainEvalPipeline:
    def test_train_eval_pack_describe(self, data_dir, arch_file, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli_main([
            "train", "--arch", str(arch_file), "--data", str(data_dir),
            "--mode", "bwn", "--epochs", "1", "--batch-size", "32",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,split,loss,top1,topk,seed"
        assert all(line.endswith(",3") for line in history[1:])
        assert (out / "model.xbn").exists()

        rc = cli_main(["eval", "--model", str(out / "model.xbn"),
                       "--data", str(data_dir)])
        assert rc == 0
        assert "top1=" in capsys.readouterr().out

        rc = cli_main(["pack", "--model", str(out / "model.xbn"), "--out", str(out)])
        assert rc == 0
        packed = out / "model_packed.xbn"
        assert packed.exists()
        assert packed.stat().st_size < (out / "model.xbn").stat().st_size

        rc = cli_main(["describe", "--model", str(packed)])
        assert rc == 0
        assert "Wbin" in capsys.readouterr().out

    def test_same_seed_identical_history(self, data_dir, arch_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli_main([
                "train", "--arch", str(arch_file), "--data", str(data_dir),
                "--mode", "xnor", "--epochs", "1", "--batch-size", "32",
                "--seed", "7", "--out", str(out), "--subset", "200",
            ])
            assert rc == 0
            outs.append((out / "history.csv").read_bytes())
        assert outs[0] == outs[1]


class TestBench:
    def test_bench_case_counters_match_count_ops(self):
        row = bench_case(c=8, filt=3, out_extent=6, n_filters=4, seed=0,
                         min_time=0.005)
        words = 9 * ((8 + 63) // 64)  # one channel word per tap
        assert row["xnor_word"] == 4 * 36 * words  # filters * locations * words/output
        assert row["n_i"] == 36
        assert row["speedup_model"] == pytest.approx(speedup_model(8, 9))

    def test_bench_cli_writes_csv(self, tmp_path, capsys):
        rc = cli_main(["bench", "--quick", "--filters", "16", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[0].startswith("kernel,c,n_w,n_i,filters,reps,ref_ms,xnor_ms")
        assert lines[0].endswith("seed")
        assert len(lines) > 4

    def test_bench_refuses_more_than_one_blas_thread(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert cli_main(["bench", "--quick", "--out", str(tmp_path)]) == 1
        assert "OPENBLAS_NUM_THREADS=1" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()

    def test_time_call_reports_the_median_when_one_call_stalls(self, monkeypatch):
        # a fake clock: every call takes 1 ms, except the third, which takes 1 s
        clock = {"now": 0.0, "calls": 0}

        def fn():
            clock["calls"] += 1
            clock["now"] += 1.0 if clock["calls"] == 3 else 1e-3

        monkeypatch.setattr(time, "perf_counter", lambda: clock["now"])
        seconds, calls = _time_call(fn, min_time=0.05)
        assert seconds == pytest.approx(1e-3, rel=1e-9)
        assert calls >= 5

    def test_bench_sweep_qualitative_shape(self):
        # speedup grows with channel count; 1x1 filters are markedly slower.
        # Each case keeps its best of three measurements, as timeit does:
        # a single one is at the mercy of machine load.
        def best_speedup(c, filt):
            return max(bench_case(c=c, filt=filt, out_extent=14, n_filters=16, seed=0,
                                  min_time=0.1)["speedup_measured"] for _ in range(3))

        lo, hi, tiny = best_speedup(1, 3), best_speedup(256, 3), best_speedup(256, 1)
        assert hi > 2 * lo
        assert tiny < hi
