"""The benchmark's three workloads.

Each one builds its inputs from the seed, sets the system up through the
package's public functions, hands the closed loop one operation at a time
with a check of its output, and names the callables the traced run wraps.
Every callable the timed operations reach is looked up through its module or
instance attribute at call time, so wrapping that attribute from outside
traces it.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

from harness import Op
from xbnn import binarize, data, kernels, modelio, nn, tensor, train
from xbnn.cli import load_arch

TOY_CFG = Path("configs") / "toy_cnn.cfg"
N_TRAIN, N_VAL = 4096, 1024  # synthetic digit splits written per set-up
TRAIN_BATCH, EVAL_BATCH = 64, 256
LR = 0.01  # Adam, as the xnor mode trains by default
EVAL_TRAIN_STEPS = 20  # the short fixed-seed run that produces the evaluated model

NN_KINDS = ("conv", "binconv", "batchnorm", "relu", "maxpool")

# shape name -> (channels, input extent, pad, filters); 3x3 filters, stride 1.
# c16 is the toy net's binarized conv at batch 1 (14x14 out); c256 is the
# paper-scale layer that criterion 6 measures (16x16 in, 14x14 out).
SHAPES = {"c16": (16, 14, 1, 32), "c256": (256, 16, 0, 64)}
VARIANTS = ("xnor-c16", "xnor-c256", "bwn-c16", "bwn-c256")
LAYER_FN = {"xnor": "conv_xnor_layer", "bwn": "conv_binary_weight_layer"}

# Module attributes that the library itself looks up at call time. Wrapping
# them in every traced run shows which layers a workload reaches at all.
MODULE_TARGETS = (
    (train, "train_step", "train.step_self"),
    (train, "loss_softmax_nll", "train.loss"),
    (train, "clamp_binarized_weights", "train.clamp"),
    (kernels, "conv_xnor_layer", "kernels.xnor_self"),
    (kernels, "conv_binary_weight_layer", "kernels.bwn_self"),
    (kernels, "sign_patch_matrix", "kernels.sign_patch_matrix"),
    (kernels, "compute_beta_map", "binarize.compute_beta_map"),
    (kernels, "im2col", "kernels.im2col"),
)
SETUP_TARGETS = (
    (data, "write_digit_corpus", "data.corpus"),
    (data, "ingest", "data.ingest"),
    (modelio, "save", "modelio.save"),
    (modelio, "load", "modelio.load"),
)

_POINTWISE_KINDS = {"BatchNorm2d": "batchnorm", "ReLU": "relu", "MaxPool2d": "maxpool"}


def layer_kind(layer) -> str:
    if isinstance(layer, nn.Conv2d):
        # a conv loaded from a packed file keeps its signs in frozen weights
        binarized = (layer.binarize_weights or layer.binarize_input
                     or getattr(layer, "frozen_alphas", None) is not None)
        return "binconv" if binarized else "conv"
    return _POINTWISE_KINDS.get(type(layer).__name__, type(layer).__name__.lower())


def _nbytes(result) -> int:
    return int(result.nbytes)


def network_targets(net) -> list[tuple]:
    """(owner, attribute, span name, measure) for every layer of a network."""
    targets = [(net, "logits", "nn.network_self", None),
               (net, "backward", "nn.network_self", None)]
    for layer in net.layers:
        kind = layer_kind(layer)
        targets.append((layer, "forward", f"nn.{kind}.fwd", _nbytes))
        targets.append((layer, "backward", f"nn.{kind}.bwd", None))
        if isinstance(layer, nn.Conv2d) and layer.binarize_weights:
            targets.append((layer, "effective_weights", "nn.binarize", None))
    return targets


def median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


class Workload:
    name = ""
    setup_reps = 3  # set-ups per run; setup_s is their median
    warmup_ops = 2  # untimed operations before the timed loop

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir

    def keys(self) -> tuple[str, ...]:
        """The keys latencies are reported under."""
        return (self.name,)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> list[bool]:
        """Untimed, once after set-up: reference outputs; returns set-up checks."""
        return []

    def next_op(self, i: int) -> Op:
        raise NotImplementedError

    def trace_targets(self) -> list[tuple]:
        return []

    def run_check(self) -> bool:
        """Whole-run correctness beyond the per-operation checks."""
        return True

    def binarize_calls(self) -> int:
        return 0

    def workload_metrics(self, untraced, traced) -> tuple[dict, list[bool]]:
        """Traced run only: workload-specific metrics, with their checks."""
        return {}, []

    # shared set-up steps

    def digit_splits(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        data.write_digit_corpus(self.workdir, n_train=N_TRAIN, n_val=N_VAL, seed=self.seed)
        return data.ingest(self.workdir, "IDX", "train").normalized()

    def toy_xnor_net(self, input_shape):
        specs = nn.apply_mode(load_arch(self.root / TOY_CFG), "xnor")
        return nn.build_network(specs, input_shape, seed=self.seed)


class ShuffledBatches:
    """Batches of a split in a fresh seeded permutation every epoch."""

    def __init__(self, ds, batch: int, seed: int):
        self.ds = ds
        self.batch = batch
        self.rng = np.random.default_rng(seed)
        self.order = self.rng.permutation(ds.n)
        self.pos = 0

    def next(self):
        if self.pos + self.batch > self.ds.n:
            self.order = self.rng.permutation(self.ds.n)
            self.pos = 0
        idx = self.order[self.pos:self.pos + self.batch]
        self.pos += self.batch
        return self.ds.images[idx], self.ds.labels[idx]


class TrainXnor(Workload):
    """One operation is one train_step of the toy net in xnor mode."""

    name = "train-xnor"
    setup_reps = 5
    warmup_ops = 3

    def setup(self):
        train_ds = self.digit_splits()
        self.net = self.toy_xnor_net(train_ds.images.shape[1:])
        self.opt = train.Adam(lr=LR)
        self.batches = ShuffledBatches(train_ds, TRAIN_BATCH, self.seed)
        self.losses = []

    def next_op(self, i):
        batch = self.batches.next()
        return Op(self.name, lambda: train.train_step(self.net, batch, self.opt),
                  self._check, TRAIN_BATCH)

    def _check(self, result) -> bool:
        loss = result[0]
        self.losses.append(loss)
        return math.isfinite(loss)

    def run_check(self):
        """The loss must fall: last tenth of steps below the first tenth."""
        tenth = len(self.losses) // 10
        if tenth < 1:
            return False
        return statistics.fmean(self.losses[-tenth:]) < statistics.fmean(self.losses[:tenth])

    def trace_targets(self):
        return network_targets(self.net) + [(self.opt, "step", "train.opt_step", None)]

    def binarize_calls(self):
        return sum(layer.binarize_count for layer in self.net.conv_layers())


class EvalXnor(Workload):
    """One operation is one logits call on a 256-image val batch, run by a
    network loaded from a packed .xbn file."""

    name = "eval-xnor"
    setup_reps = 3

    def setup(self):
        train_ds = self.digit_splits()
        val_ds = data.ingest(self.workdir, "IDX", "val").normalized(train_ds.stats)
        trained = self.toy_xnor_net(train_ds.images.shape[1:])
        opt = train.Adam(lr=LR)
        batches = ShuffledBatches(train_ds, TRAIN_BATCH, self.seed)
        for _ in range(EVAL_TRAIN_STEPS):
            train.train_step(trained, batches.next(), opt)
        path = self.workdir / "model.xbn"
        modelio.save(trained, path, pack_binarized=True)
        self.file_bytes = path.stat().st_size
        self.net = modelio.load(path)
        self.trained = trained
        self.batches = [val_ds.images[s:s + EVAL_BATCH]
                        for s in range(0, val_ds.n - EVAL_BATCH + 1, EVAL_BATCH)]

    def prepare_checks(self):
        self.expected = [self.trained.logits(b).argmax(axis=1) for b in self.batches]
        return []

    def next_op(self, i):
        b = i % len(self.batches)
        x = self.batches[b]

        def check(logits) -> bool:
            return bool(np.isfinite(logits).all()) and np.array_equal(
                logits.argmax(axis=1), self.expected[b])

        return Op(self.name, lambda: self.net.logits(x), check, len(x))

    def trace_targets(self):
        return network_targets(self.net)

    def workload_metrics(self, untraced, traced):
        return {"modelio.file_bytes": self.file_bytes}, []

    def binarize_calls(self):
        return sum(layer.binarize_count for layer in self.net.conv_layers())


# ---------------------------------------------------------------------------
# kernels


def xnor_oracle(I, bank, alphas, geom):
    """Exact dots and scales for the XNOR layer from conv2d_reference alone.

    The dot is the reference correlation of sign(zero-padded I), with
    sign(0) = +1 on the border, against sign(W): integers, exact in float32.
    The scale is K * alpha, with K the reference correlation of the channel
    abs-mean with a uniform 1/(fh*fw) filter over the zero-padded plane.
    """
    unpadded = tensor.ConvGeometry(geom.filt_hw, geom.stride, 0)
    dots = tensor.conv2d_reference(tensor.sign(tensor.pad_chw(I, geom.pad)),
                                   tensor.sign(bank), unpadded)
    fh, fw = geom.filt_hw
    box = np.full((1, 1, fh, fw), 1.0 / (fh * fw))
    plane = tensor.pad_chw(tensor.channel_abs_mean(I)[None], geom.pad)
    K = tensor.conv2d_reference(plane, box, unpadded)[0]
    return dots, K[None] * alphas[:, None, None]


XNOR_RTOL = 1e-5  # float32 rounding of the scale product K * alpha
BWN_RTOL = 1e-4  # float32 sums in another order than the oracle's


def close(out, ref, rtol: float) -> bool:
    """Equal within ``rtol`` of each value, or of the largest one near zero."""
    return np.allclose(out, ref, rtol=rtol, atol=rtol * np.abs(ref).max())


def xnor_matches(out, dots, scale) -> bool:
    """The scale within float tolerance, and the integer dot exact."""
    if not close(out, dots * scale, XNOR_RTOL):
        return False
    live = scale > 1e-6 * scale.max()
    return np.array_equal(np.rint(out[live] / scale[live]), dots[live])


def dense_operand(I, geom, kind: str):
    """The patch matrix a float layer multiplies: im2col, signed for XNOR."""
    cols = kernels.im2col(I, geom)
    return tensor.sign(cols) if kind == "xnor" else cols


class Kernels(Workload):
    """Direct calls to the packed XNOR and binary-weight conv layers, one
    call of each variant in turn."""

    name = "kernels"
    setup_reps = 9
    warmup_ops = 2 * len(VARIANTS)

    def keys(self):
        return VARIANTS

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.shapes = {}
        for shape, (c, hw, pad, k) in SHAPES.items():
            I = rng.normal(size=(c, hw, hw)).astype(np.float32)
            bank = rng.normal(size=(k, c, 3, 3)).astype(np.float32)
            geom = tensor.ConvGeometry(filt_hw=(3, 3), stride=1, pad=pad)
            filters = [binarize.binarize_weights(w) for w in bank]
            self.shapes[shape] = (I, bank, geom, filters)

    def _call(self, variant, counters=None):
        kind, shape = variant.split("-")
        I, _, geom, filters = self.shapes[shape]
        return getattr(kernels, LAYER_FN[kind])(I, filters, geom, counters)

    def prepare_checks(self):
        self.expected = {}
        oks = []
        for variant in VARIANTS:
            kind, shape = variant.split("-")
            I, bank, geom, filters = self.shapes[shape]
            out = self._call(variant)
            alphas = np.array([f.alpha for f in filters])
            if kind == "xnor":
                oks.append(xnor_matches(out, *xnor_oracle(I, bank, alphas, geom)))
            else:
                dense = alphas[:, None, None, None] * tensor.sign(bank)
                oks.append(close(out, tensor.conv2d_reference(I, dense, geom), BWN_RTOL))
            self.expected[variant] = out
        return oks

    def next_op(self, i):
        variant = VARIANTS[i % len(VARIANTS)]
        expected = self.expected[variant]
        return Op(variant, lambda: self._call(variant),
                  lambda out: np.array_equal(out, expected), 1)

    def workload_metrics(self, untraced, traced):
        """Per variant: untraced latency and tracing overhead, the honest
        sgemm bar, the naive oracle, speedups over both (base: the variant's
        untraced p50), exact op counts and computed bytes. Bar and oracle
        timings are medians of repeated calls.

        kernels.sgemm_ms times what a float layer would do with the same
        operands the packed layer consumes: im2col of the input (plus sign for
        XNOR) and the beta map built inside the timed call, then one
        single-thread float32 matmul against the +-1 filter matrix and the
        same output scaling. Only the +-1 filter matrix is built beforehand,
        as the packed filters are. kernels.sgemm_matmul_ms is the matmul
        alone on prebuilt operands.
        """
        metrics, oks = {}, []
        oracle_ms = {}
        for shape, (I, bank, geom, _) in self.shapes.items():
            oracle_ms[shape] = median_ms(lambda: tensor.conv2d_reference(I, bank, geom), 5)
            metrics[f"kernels.oracle_ms.{shape}"] = oracle_ms[shape]
        for variant in VARIANTS:
            kind, shape = variant.split("-")
            I, bank, geom, filters = self.shapes[shape]
            k = len(filters)
            oh, ow = geom.out_hw(I.shape[1:])
            alphas = np.array([f.alpha for f in filters], dtype=np.float32)
            signs = tensor.sign(bank.reshape(k, -1))  # the signs binarize_weights packs
            w_t = np.ascontiguousarray((signs if kind == "xnor" else alphas[:, None] * signs).T)

            def bar():
                out = (dense_operand(I, geom, kind) @ w_t).T.reshape(k, oh, ow)
                if kind == "xnor":
                    K = binarize.compute_beta_map(I, geom).K
                    out = out * (K[None, :, :] * alphas[:, None, None])
                return out

            cols = dense_operand(I, geom, kind)
            out = self.expected[variant]
            oks.append(close(bar(), out, XNOR_RTOL if kind == "xnor" else BWN_RTOL))
            sgemm_ms = median_ms(bar, 21)
            p50 = untraced.p50_ms(variant)
            metrics[f"kernel_ms_p50.{variant}"] = p50
            metrics[f"kernel_ms_p90.{variant}"] = untraced.p90_ms(variant)
            metrics[f"trace.overhead_ms.{variant}"] = traced.p50_ms(variant) - p50
            metrics[f"kernels.sgemm_ms.{variant}"] = sgemm_ms
            metrics[f"kernels.speedup_vs_sgemm.{variant}"] = sgemm_ms / p50
            metrics[f"kernels.speedup_vs_oracle.{variant}"] = oracle_ms[shape] / p50
            metrics[f"kernels.sgemm_matmul_ms.{variant}"] = median_ms(lambda: cols @ w_t, 21)

            counters = kernels.OpCounters()
            self._call(variant, counters)
            n = filters[0].n
            n_words = filters[0].bits.n_words
            P = oh * ow
            if kind == "xnor":
                for field in ("xnor_word", "popcount_word"):
                    metrics[f"kernels.{field}s.{variant}"] = getattr(counters, field)
                metrics[f"kernels.word_fill.{variant}"] = n / (64 * n_words)
                intermediate = 8 * P * n_words + 4 * P  # packed patch rows + beta map
            else:
                intermediate = 4 * P * n  # float im2col matrix
            metrics[f"kernels.real_mul.{variant}"] = counters.real_mul
            metrics[f"kernels.real_add.{variant}"] = counters.real_add
            moved = 4 * I.size + k * (8 * n_words + 4) + intermediate + 4 * k * P
            ops = (counters.xnor_word + counters.popcount_word
                   + counters.real_mul + counters.real_add)
            metrics[f"kernels.bytes_moved.{variant}"] = moved
            metrics[f"kernels.ops_per_byte.{variant}"] = ops / moved
        return metrics, oks
