import numpy as np
import pytest

from xbnn.data import Dataset
from xbnn.nn import LayerSpec, Param, build_network
from xbnn.train import (
    Adam,
    PolynomialDecay,
    SGDMomentum,
    StepDecay,
    evaluate,
    fit,
    make_optimizer,
    train_step,
)


def separable_dataset(n=120, seed=0):
    """Two classes with well-separated 2x2 mean patterns."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n).astype(np.int64)
    mu = np.where(labels[:, None, None, None] == 0, 0.8, -0.8)
    images = (mu + 0.1 * rng.normal(size=(n, 1, 4, 4))).astype(np.float32)
    return Dataset(images=images, labels=labels)


def tiny_bwn_net(seed=0):
    specs = [
        LayerSpec(kind="conv", out_ch=4, k=2),
        LayerSpec(kind="binconv", out_ch=6, k=1, binarize_weights=True),
        LayerSpec(kind="relu"),
        LayerSpec(kind="conv", out_ch=2),
    ]
    return build_network(specs, (1, 4, 4), seed=seed)


class TestOptimizers:
    def test_sgd_all_positive_gradient_decreases_weights(self):
        p = Param("w", np.array([0.5, 0.2, -0.3], dtype=np.float32))
        p.grad = np.ones(3, dtype=np.float32)
        SGDMomentum(lr=0.1).step([p])
        assert np.all(p.value < np.array([0.5, 0.2, -0.3]))

    def test_sgd_momentum_accumulates(self):
        p = Param("w", np.zeros(1, dtype=np.float32))
        opt = SGDMomentum(lr=1.0)
        p.grad = np.ones(1, dtype=np.float32)
        opt.step([p])
        first = p.value.copy()
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step([p])  # momentum keeps moving
        assert p.value[0] == pytest.approx(first[0] - 0.9)

    def test_adam_decreases_quadratic(self):
        p = Param("w", np.array([2.0], dtype=np.float64))
        opt = Adam(lr=0.1)
        for _ in range(100):
            p.grad = 2 * p.value
            opt.step([p])
        assert abs(p.value[0]) < 0.5

    def test_make_optimizer(self):
        assert isinstance(make_optimizer("sgd", 0.1), SGDMomentum)
        assert isinstance(make_optimizer("adam", 0.1), Adam)
        with pytest.raises(ValueError):
            make_optimizer("lbfgs", 0.1)


class TestSchedules:
    def test_step_decay(self):
        s = StepDecay(base_lr=0.01, factor=0.1, every=2)
        assert s.lr_at(0) == pytest.approx(0.01)
        assert s.lr_at(1) == pytest.approx(0.01)
        assert s.lr_at(2) == pytest.approx(0.001)
        assert s.lr_at(5) == pytest.approx(1e-4)

    def test_polynomial_decay_positive_throughout(self):
        s = PolynomialDecay(base_lr=0.1, power=4.0, total_epochs=10)
        lrs = [s.lr_at(e) for e in range(10)]
        assert all(lr > 0 for lr in lrs)
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestTrainStep:
    def test_lr_zero_leaves_weights_unchanged(self):
        net = tiny_bwn_net()
        ds = separable_dataset()
        before = [p.value.copy() for p in net.params()]
        wtilde_before = [l.effective_weights()[0].copy() for l in net.conv_layers()]
        train_step(net, (ds.images[:16], ds.labels[:16]), SGDMomentum(lr=0.0))
        for p, b in zip(net.params(), before):
            np.testing.assert_array_equal(p.value, b)
        for layer, wb in zip(net.conv_layers(), wtilde_before):
            np.testing.assert_array_equal(layer.effective_weights()[0], wb)

    def test_updates_real_weights_not_binarized_copies(self):
        net = tiny_bwn_net()
        ds = separable_dataset()
        layer = [l for l in net.conv_layers() if l.binarize_weights][0]
        real_before = layer.weight.value.copy()
        train_step(net, (ds.images[:16], ds.labels[:16]), SGDMomentum(lr=0.1))
        # the step moved the real weights, and they are not the binarized copy
        assert not np.array_equal(layer.weight.value, real_before)
        assert not np.array_equal(layer.effective_weights()[0], layer.weight.value)

    def test_binarization_runs_before_every_forward(self):
        net = tiny_bwn_net()
        ds = separable_dataset()
        layer = [l for l in net.conv_layers() if l.binarize_weights][0]
        for step in range(3):
            train_step(net, (ds.images[:8], ds.labels[:8]), SGDMomentum(lr=0.01))
        assert layer.binarize_count == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_diagnostics(self):
        net = tiny_bwn_net()
        net.conv_layers()[0].weight.value[0, 0, 0, 0] = np.inf
        ds = separable_dataset()
        with pytest.raises(RuntimeError, match="non-finite loss"):
            train_step(net, (ds.images[:8], ds.labels[:8]), SGDMomentum(lr=0.1))

    def test_clamp_keeps_binarized_weights_in_window(self):
        net = tiny_bwn_net()
        ds = separable_dataset()
        opt = SGDMomentum(lr=5.0)  # huge steps
        for _ in range(5):
            train_step(net, (ds.images[:16], ds.labels[:16]), opt, clamp=True)
        for layer in net.conv_layers():
            if layer.binarize_weights:
                assert np.abs(layer.weight.value).max() <= 1.0

    def test_separable_task_reaches_full_train_accuracy(self):
        net = tiny_bwn_net(seed=3)
        ds = separable_dataset(n=64, seed=3)
        opt = SGDMomentum(lr=0.05)
        acc = 0.0
        for step in range(200):
            _, metrics = train_step(net, (ds.images, ds.labels), opt)
            acc = metrics["top1"]
            if acc == 1.0:
                break
        assert acc == 1.0


class TestEvaluate:
    def test_perfect_classifier(self):
        ds = separable_dataset(n=40, seed=5)
        net = tiny_bwn_net(seed=5)
        opt = SGDMomentum(lr=0.05)
        for _ in range(200):
            train_step(net, (ds.images, ds.labels), opt)
        top1, topk, _ = evaluate(net, ds)
        assert top1 == 1.0
        assert topk == 1.0

    def test_constant_logits_tie_rule(self):
        # constant logits: stable argsort ranks class 0 first everywhere
        class Stub:
            def logits(self, x, train=False):
                return np.zeros((x.shape[0], 10))

        labels = np.repeat(np.arange(10), 5).astype(np.int64)
        images = np.zeros((50, 1, 2, 2), dtype=np.float32)
        ds = Dataset(images=images, labels=labels)
        top1, top5, _ = evaluate(Stub(), ds)
        assert top1 == pytest.approx(0.1)
        assert top5 == pytest.approx(0.5)

    def test_topk_contains_top1(self):
        rng = np.random.default_rng(6)

        class Stub:
            def logits(self, x, train=False):
                return rng.normal(size=(x.shape[0], 10))

        ds = Dataset(images=np.zeros((30, 1, 2, 2), dtype=np.float32),
                     labels=rng.integers(0, 10, 30).astype(np.int64))
        top1, top5, _ = evaluate(Stub(), ds)
        assert top5 >= top1


class TestFit:
    def test_zero_epochs_noop(self):
        net = tiny_bwn_net(seed=7)
        ds = separable_dataset(n=32, seed=7)
        before = [p.value.copy() for p in net.params()]
        history = fit(net, ds, ds, 0, SGDMomentum(lr=0.1))
        assert history.rows == []
        for p, b in zip(net.params(), before):
            np.testing.assert_array_equal(p.value, b)

    def test_seeded_determinism(self):
        losses = []
        for _ in range(2):
            net = tiny_bwn_net(seed=8)
            ds = separable_dataset(n=48, seed=8)
            history = fit(net, ds, None, 3, SGDMomentum(lr=0.05),
                          StepDecay(0.05), batch_size=16, seed=11)
            losses.append([r["loss"] for r in history.rows])
        assert losses[0] == losses[1]

    def test_history_rows_and_csv(self, tmp_path):
        net = tiny_bwn_net(seed=9)
        ds = separable_dataset(n=32, seed=9)
        history = fit(net, ds, ds, 2, SGDMomentum(lr=0.05), batch_size=16, seed=1)
        assert [r["epoch"] for r in history.rows] == [0, 0, 1, 1]
        path = tmp_path / "history.csv"
        history.write_csv(path, seed=1)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,split,loss,top1,topk,seed"
        assert len(lines) == 5
        assert all(line.endswith(",1") for line in lines[1:])
