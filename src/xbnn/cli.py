"""Command-line entry point: training, evaluation, kernel benchmarking, the
analytic speedup/memory models, and the ablation runner. Batch jobs only; all
tabular output goes to CSV files so external tools can plot it.

Every option's default is written once, in RunConfig. The parser declares
each option without a default, and only on the commands that read it, so a
flag left off the command line keeps RunConfig's value and a flag a command
does not read is a usage error.

numpy sizes its BLAS thread pool from the environment when it is first
imported, before any command runs, so the CLI cannot pin it. `xbnn bench`
times single-thread kernels and refuses to run unless the process was
started with OPENBLAS_NUM_THREADS=1 (or, if that is unset, OMP_NUM_THREADS=1).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from .binarize import binarize_weights, compute_beta_map
from .data import DatasetError, ingest
from .kernels import OpCounters, conv2d_reference, conv_xnor_layer, im2col
from .modelio import _MAX_K_BITS, ModelIOError, describe, load, save
from .nn import LayerSpec, apply_mode, build_network, conv_block
from .tensor import ConvGeometry, ShapeError, sign
from .train import PolynomialDecay, StepDecay, evaluate, fit, make_optimizer

OPS_PER_WORD = 64  # binary ops one CPU word carries per cycle


def speedup_model(c: int, n_w: int) -> float:
    """Theoretical speedup of the XNOR path over full precision for channel
    count c and filter area n_w; saturates at OPS_PER_WORD as c*n_w grows."""
    if c < 1 or n_w < 1:
        raise ValueError("c and n_w must be >= 1")
    return OPS_PER_WORD * c * n_w / (c * n_w + OPS_PER_WORD)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@dataclass
class RunConfig:
    command: str
    arch: str | None = None
    data: str | None = None
    model: str | None = None
    out: str = "out"
    mode: str = "full"
    optimizer: str = ""
    schedule: str = "step"
    lr: float = 0.01
    decay_factor: float = 0.1
    decay_every: int = 2
    poly_power: float = 4.0
    epochs: int = 5
    batch_size: int = 64
    seed: int = 0
    subset: int = 0
    seeds: int = 3
    filters: int = 32
    k_bits: int = 1
    gradient_variant: str = "indicator"
    binary_gradient: bool = False
    no_clamp: bool = False
    quick: bool = False
    c: int = 0
    nw: int = 0
    split: str = "val"
    fmt: str = "IDX"


def _write_csv(path, fieldnames, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# architecture config parsing

# no binarization keys: --mode and a conv's position set those flags
_ARCH_KEYS = {"out", "k", "stride", "pad", "learned_scale"}


def parse_arch_text(text: str):
    """Line-oriented architecture format: one layer per line, '#' comments.

    Example:
        conv out=16 k=5 pad=2
        batchnorm
        relu
        maxpool k=2
        binconv out=32 k=3 pad=1
        conv out=10        # no k: full spatial extent (fully connected)
    """
    specs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        kwargs = {}
        for token in parts[1:]:
            if "=" not in token:
                raise UsageError(f"arch line {lineno}: expected key=value, got {token!r}")
            key, value = token.split("=", 1)
            if key not in _ARCH_KEYS:
                raise UsageError(f"arch line {lineno}: unknown key {key!r}")
            if key == "learned_scale":
                kwargs[key] = value not in ("0", "false", "False")
            elif key == "out":
                kwargs["out_ch"] = int(value)
            else:
                kwargs[key] = int(value)
        try:
            specs.append(LayerSpec(kind=kind, **kwargs))
        except (ValueError, TypeError) as exc:
            raise UsageError(f"arch line {lineno}: {exc}") from exc
    if not specs:
        raise UsageError("architecture file defines no layers")
    return specs


def load_arch(path):
    p = Path(path)
    if not p.exists():
        raise UsageError(f"architecture file not found: {p}")
    return parse_arch_text(p.read_text())


# ---------------------------------------------------------------------------
# train / eval


def _load_splits(cfg: RunConfig):
    train = ingest(cfg.data, cfg.fmt, "train")
    val = ingest(cfg.data, cfg.fmt, "val")
    if cfg.subset:
        train = train.subset(cfg.subset)
        val = val.subset(max(cfg.subset // 5, 1))
    train = train.normalized()
    val = val.normalized(train.stats)
    return train, val


def _make_sched(cfg: RunConfig, epochs: int):
    if cfg.schedule == "step":
        return StepDecay(base_lr=cfg.lr, factor=cfg.decay_factor, every=cfg.decay_every)
    if cfg.schedule == "poly":
        return PolynomialDecay(base_lr=cfg.lr, power=cfg.poly_power, total_epochs=epochs)
    raise UsageError(f"unknown schedule {cfg.schedule!r}")


def _default_optimizer(mode: str) -> str:
    # weight-only binarization trains well with SGD+momentum; fully binarized
    # nets converge faster with Adam
    return "adam" if mode == "xnor" else "sgd"


def cmd_train(cfg: RunConfig) -> int:
    if not cfg.arch or not cfg.data:
        raise UsageError("train requires --arch and --data")
    specs = apply_mode(load_arch(cfg.arch), cfg.mode)
    train_ds, val_ds = _load_splits(cfg)
    net = build_network(
        specs, train_ds.images.shape[1:], seed=cfg.seed,
        ste_variant=cfg.gradient_variant, k_bits=cfg.k_bits,
        binary_gradient=cfg.binary_gradient,
    )
    opt_kind = cfg.optimizer or _default_optimizer(cfg.mode)
    opt = make_optimizer(opt_kind, cfg.lr)
    sched = _make_sched(cfg, cfg.epochs)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    history = fit(net, train_ds, val_ds, cfg.epochs, opt, sched,
                  batch_size=cfg.batch_size, seed=cfg.seed,
                  clamp=not cfg.no_clamp, verbose=True)
    history.write_csv(out / "history.csv", cfg.seed)
    save(net, out / "model.xbn")
    if history.rows:
        last_val = [r for r in history.rows if r["split"] == "val"]
        if last_val:
            print(f"final val top1={last_val[-1]['top1']:.4f} topk={last_val[-1]['topk']:.4f}")
    print(f"wrote {out / 'history.csv'} and {out / 'model.xbn'}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    if not cfg.model or not cfg.data:
        raise UsageError("eval requires --model and --data")
    net = load(cfg.model)
    stats = ingest(cfg.data, cfg.fmt, "train").normalized().stats
    ds = ingest(cfg.data, cfg.fmt, cfg.split).normalized(stats)
    top1, topk, loss = evaluate(net, ds)
    print(f"top1={top1:.4f} top5={topk:.4f} loss={loss:.4f} n={ds.n}")
    return 0


def cmd_pack(cfg: RunConfig) -> int:
    if not cfg.model:
        raise UsageError("pack requires --model")
    out = Path(cfg.out)
    if out.is_dir() or not out.suffix:
        out.mkdir(parents=True, exist_ok=True)
        out = out / (Path(cfg.model).stem + "_packed.xbn")
    net = load(cfg.model)
    save(net, out, pack_binarized=True)
    print(f"wrote {out} ({out.stat().st_size} bytes, was {Path(cfg.model).stat().st_size})")
    return 0


def cmd_describe(cfg: RunConfig) -> int:
    if not cfg.model:
        raise UsageError("describe requires --model")
    print(describe(load(cfg.model)))
    return 0


def cmd_speedup(cfg: RunConfig) -> int:
    if cfg.c and cfg.nw:
        print(f"{speedup_model(cfg.c, cfg.nw):.2f}")
        return 0
    print(f"{'c':>6} {'n_w':>5} {'speedup':>8}")
    for c in (1, 3, 8, 32, 64, 128, 256, 512, 1024):
        for nw in (1, 9, 25, 49):
            print(f"{c:>6} {nw:>5} {speedup_model(c, nw):>8.2f}")
    return 0


# ---------------------------------------------------------------------------
# kernel benchmark


def _time_call(fn, min_time: float = 0.05):
    """Median seconds per call over timed blocks of calls, and the calls timed.

    A block repeats ``fn`` until it spans at least min_time / 10, well above
    timer resolution; blocks run until five of them and min_time of calls
    were timed. A call that stalls once moves one block, not the
    median."""
    fn()  # warm-up
    span = min_time / 10
    reps = 1
    times = []
    while len(times) < 5 or sum(times) * reps < min_time:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        dt = time.perf_counter() - t0
        if not times and dt < span:  # still sizing the block
            reps = max(reps * 2, int(reps * span / max(dt, 1e-9)) + 1)
        else:
            times.append(dt / reps)
    return median(times), reps * len(times)


def bench_case(c: int, filt: int, out_extent: int, n_filters: int, seed: int,
               min_time: float = 0.05) -> dict:
    """conv_xnor_layer against the naive oracle and the sgemm bar: float32
    matmul on the same +-1 operands, scaled by the same K * alpha."""
    rng = np.random.default_rng(seed)
    h_in = out_extent + filt - 1
    I = rng.normal(size=(c, h_in, h_in)).astype(np.float32)
    bank = rng.normal(size=(n_filters, c, filt, filt)).astype(np.float32)
    geom = ConvGeometry(filt_hw=(filt, filt))
    filters = [binarize_weights(w) for w in bank]
    alphas = np.array([f.alpha for f in filters], dtype=np.float32)
    signs_t = np.ascontiguousarray(sign(bank.reshape(n_filters, -1)).T)

    def sgemm():
        # sign im2col's fresh copy in place, as tensor.sign does: a second
        # column-sized temporary costs page faults on every call
        cols = im2col(I, geom)
        np.greater_equal(cols, 0, out=cols)
        cols *= 2
        cols -= 1
        out = (cols @ signs_t).T.reshape(n_filters, out_extent, out_extent)
        return out * (compute_beta_map(I, geom).K[None] * alphas[:, None, None])

    ref_s, ref_reps = _time_call(lambda: conv2d_reference(I, bank, geom), min_time)
    xnor_s, xnor_reps = _time_call(lambda: conv_xnor_layer(I, filters, geom), min_time)
    sgemm_s, sgemm_reps = _time_call(sgemm, min_time)
    counters = OpCounters()
    out = conv_xnor_layer(I, filters, geom, counters)
    if not np.allclose(sgemm(), out, rtol=1e-5, atol=1e-5 * np.abs(out).max()):
        raise AssertionError(f"sgemm bar disagrees with conv_xnor_layer at c={c}, {filt}x{filt}")
    return {
        "kernel": "conv_xnor",
        "c": c,
        "n_w": filt * filt,
        "n_i": out_extent * out_extent,
        "filters": n_filters,
        "reps": max(ref_reps, xnor_reps, sgemm_reps),
        "ref_ms": ref_s * 1e3,
        "xnor_ms": xnor_s * 1e3,
        "sgemm_ms": sgemm_s * 1e3,
        "speedup_vs_sgemm": sgemm_s / xnor_s,
        "speedup_measured": ref_s / xnor_s,
        "speedup_model": speedup_model(c, filt * filt),
        "real_mul": counters.real_mul,
        "real_add": counters.real_add,
        "xnor_word": counters.xnor_word,
        "popcount_word": counters.popcount_word,
    }


def bench_kernels(cfg: RunConfig) -> list[dict]:
    """Channel and filter-size sweeps with the fixed counterpart parameters
    c=256, 14x14 output, 3x3 filters."""
    min_time = 0.02 if cfg.quick else 0.05
    channel_sweep = (1, 2, 4, 8, 16, 64, 256, 1024)
    filter_sweep = (1, 3, 5, 7, 9, 11)
    if cfg.quick:
        channel_sweep = (1, 8, 64, 256)
        filter_sweep = (1, 3, 7)
    rows = []
    for c in channel_sweep:
        rows.append(bench_case(c, 3, 14, cfg.filters, cfg.seed, min_time))
    for filt in filter_sweep:
        rows.append(bench_case(256, filt, 14, cfg.filters, cfg.seed, min_time))
    for row in rows:
        row["seed"] = cfg.seed
    return rows


def cmd_bench(cfg: RunConfig) -> int:
    threads = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    if threads != "1":
        raise UsageError("bench times single-thread kernels: start it with "
                         f"OPENBLAS_NUM_THREADS=1 (BLAS threads: {threads or 'unset'})")
    rows = bench_kernels(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    fields = list(rows[0].keys())
    _write_csv(out / "bench.csv", fields, rows)
    for row in rows:
        print(f"c={row['c']:>5} n_w={row['n_w']:>3}: measured {row['speedup_measured']:6.1f}x "
              f"(model {row['speedup_model']:6.2f}x), {row['speedup_vs_sgemm']:5.2f}x vs sgemm")
    print(f"wrote {out / 'bench.csv'}")
    return 0


# ---------------------------------------------------------------------------
# ablations


def _ablation_arch(study: str, variant: str):
    if study == "scale":
        specs = [
            LayerSpec(kind="conv", out_ch=12, k=3, pad=1),
            LayerSpec(kind="batchnorm"),
            LayerSpec(kind="relu"),
            LayerSpec(kind="maxpool", k=2),
            LayerSpec(kind="binconv", out_ch=24, k=3, pad=1),
            LayerSpec(kind="relu"),
            LayerSpec(kind="maxpool", k=2),
            LayerSpec(kind="conv", out_ch=10),
        ]
        specs = apply_mode(specs, "bwn")
        if variant == "learned":
            for s in specs:
                if s.binarize_weights:
                    s.learned_scale = True
        return specs, "bwn"
    if study == "block-order":
        specs = [
            LayerSpec(kind="conv", out_ch=12, k=3, pad=1),
            LayerSpec(kind="maxpool", k=2),
        ]
        specs += conv_block(variant, out_ch=24)
        specs += [LayerSpec(kind="conv", out_ch=10)]
        return apply_mode(specs, "xnor"), "xnor"
    raise UsageError(f"unknown study {study!r}")


def run_ablation(cfg: RunConfig) -> list[dict]:
    train_full, val = _load_splits(cfg)
    rows = []
    for study, variants in (("scale", ("formula", "learned")),
                            ("block-order", ("C-B-A-P", "B-A-C-P"))):
        for variant in variants:
            for seed in range(cfg.seeds):
                specs, mode = _ablation_arch(study, variant)
                net = build_network(specs, train_full.images.shape[1:], seed=seed)
                opt = make_optimizer(_default_optimizer(mode), cfg.lr)
                sched = _make_sched(cfg, cfg.epochs)
                fit(net, train_full, None, cfg.epochs, opt, sched,
                    batch_size=cfg.batch_size, seed=seed)
                top1, topk, _ = evaluate(net, val)
                rows.append({"study": study, "variant": variant, "seed": seed,
                             "epochs": cfg.epochs, "val_top1": round(top1, 6),
                             "val_topk": round(topk, 6)})
    return rows


def cmd_ablate(cfg: RunConfig) -> int:
    if not cfg.data:
        raise UsageError("ablate requires --data")
    rows = run_ablation(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "ablate.csv",
               ["study", "variant", "seed", "epochs", "val_top1", "val_topk"], rows)
    for study in ("scale", "block-order"):
        for variant in sorted({r["variant"] for r in rows if r["study"] == study}):
            accs = [r["val_top1"] for r in rows if r["study"] == study and r["variant"] == variant]
            print(f"{study:<12} {variant:<10} top1 {np.mean(accs):.4f} +- {np.std(accs):.4f} "
                  f"over {len(accs)} seeds")
    print(f"wrote {out / 'ablate.csv'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> _Parser:
    # no option has a default here: one left off is absent from the namespace,
    # and RunConfig supplies it. No abbreviations either, so that ablate's
    # --seeds does not take a --seed it does not read.
    parser = _Parser(prog="xbnn", description=__doc__.split("\n\n")[0],
                     argument_default=argparse.SUPPRESS, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        return sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS,
                              allow_abbrev=False)

    def add_data(p):
        p.add_argument("--data", required=True)
        p.add_argument("--format", dest="fmt", choices=["IDX", "CIFAR"])

    def add_model(p):
        p.add_argument("--model", required=True)

    def add_out(p):
        p.add_argument("--out", help="output directory")

    def add_seed(p):
        p.add_argument("--seed", type=int)

    def add_training(p):
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--schedule", choices=["step", "poly"])
        p.add_argument("--decay-factor", type=float)
        p.add_argument("--decay-every", type=int)
        p.add_argument("--poly-power", type=float)
        p.add_argument("--subset", type=int)

    p_train = command("train", "train a network from an arch config")
    p_train.add_argument("--arch", required=True)
    add_data(p_train)
    add_out(p_train)
    add_seed(p_train)
    add_training(p_train)
    p_train.add_argument("--mode", choices=["full", "bwn", "xnor"])
    p_train.add_argument("--optimizer", choices=["", "sgd", "adam"])
    p_train.add_argument("--k-bits", type=int, choices=range(1, _MAX_K_BITS + 1))
    p_train.add_argument("--gradient-variant", choices=["indicator", "scaled"])
    p_train.add_argument("--binary-gradient", action="store_true")
    p_train.add_argument("--no-clamp", action="store_true")

    p_eval = command("eval", "evaluate a saved model")
    add_model(p_eval)
    add_data(p_eval)
    p_eval.add_argument("--split", choices=["train", "val"])

    p_bench = command("bench", "benchmark kernels and write CSV")
    add_out(p_bench)
    add_seed(p_bench)
    p_bench.add_argument("--filters", type=int)
    p_bench.add_argument("--quick", action="store_true")

    p_ablate = command("ablate", "run the scale and block-order studies")
    add_data(p_ablate)
    add_out(p_ablate)
    add_training(p_ablate)
    p_ablate.add_argument("--seeds", type=int)
    p_ablate.set_defaults(epochs=2)

    p_pack = command("pack", "convert a checkpoint to 1-bit weights")
    add_model(p_pack)
    add_out(p_pack)

    add_model(command("describe", "print the layer table of a model"))

    p_speed = command("speedup", "print the analytic speedup model")
    p_speed.add_argument("--c", type=int)
    p_speed.add_argument("--nw", type=int)

    return parser


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "ablate": cmd_ablate,
    "pack": cmd_pack,
    "describe": cmd_describe,
    "speedup": cmd_speedup,
}


def cli_main(argv=None) -> int:
    """Exit code 0 on success, 1 on user error, 2 on internal error."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help lands here
        return 0 if exc.code in (0, None) else 1
    cfg = RunConfig(**vars(ns))
    try:
        return _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (FileNotFoundError, PermissionError, DatasetError, ModelIOError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
