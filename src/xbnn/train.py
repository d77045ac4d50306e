"""Training loop: per-step weight binarization happens inside the layers'
forward pass, gradients flow through the binarized copies, and the optimizer
updates only the real-valued parameters. Real weights of binarized layers are
clamped to [-1, 1] after each update (switchable) so the straight-through
window stays populated.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .nn import Network, Param, loss_softmax_nll


class SGDMomentum:
    """SGD with classical momentum 0.9."""

    def __init__(self, lr: float = 0.01):
        self.lr = lr
        self._velocity: dict[int, np.ndarray] = {}

    def step(self, params: list[Param]) -> None:
        for i, p in enumerate(params):
            if p.grad is None:
                continue
            v = self._velocity.get(i)
            if v is None or v.shape != p.value.shape:
                v = np.zeros_like(p.value)
            v = 0.9 * v - self.lr * p.grad
            self._velocity[i] = v
            p.value += v


class Adam:
    """Adam with beta1 = 0.9, beta2 = 0.999 and eps = 1e-8."""

    def __init__(self, lr: float = 0.001):
        self.lr = lr
        self.t = 0
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def step(self, params: list[Param]) -> None:
        self.t += 1
        b1, b2 = 0.9, 0.999
        for i, p in enumerate(params):
            if p.grad is None:
                continue
            m = self._m.get(i)
            if m is None:
                m = np.zeros_like(p.value)
            v = self._v.get(i)
            if v is None:
                v = np.zeros_like(p.value)
            m = b1 * m + (1 - b1) * p.grad
            v = b2 * v + (1 - b2) * p.grad**2
            self._m[i], self._v[i] = m, v
            mhat = m / (1 - b1**self.t)
            vhat = v / (1 - b2**self.t)
            p.value -= self.lr * mhat / (np.sqrt(vhat) + 1e-8)


@dataclass
class StepDecay:
    """Multiply the learning rate by ``factor`` every ``every`` epochs."""

    base_lr: float = 0.01
    factor: float = 0.1
    every: int = 2

    def lr_at(self, epoch: int) -> float:
        lr = self.base_lr * self.factor ** (epoch // self.every)
        if lr <= 0:
            raise ValueError(f"schedule produced lr={lr} at epoch {epoch}")
        return lr


@dataclass
class PolynomialDecay:
    base_lr: float = 0.01
    power: float = 4.0
    total_epochs: int = 10

    def lr_at(self, epoch: int) -> float:
        frac = min(epoch, self.total_epochs - 1) / max(self.total_epochs, 1)
        lr = self.base_lr * (1.0 - frac) ** self.power
        if lr <= 0:
            raise ValueError(f"schedule produced lr={lr} at epoch {epoch}")
        return lr


def make_optimizer(kind: str, lr: float) -> SGDMomentum | Adam:
    if kind == "sgd":
        return SGDMomentum(lr=lr)
    if kind == "adam":
        return Adam(lr=lr)
    raise ValueError(f"unknown optimizer {kind!r}")


def clamp_binarized_weights(net: Network) -> None:
    for layer in net.conv_layers():
        if layer.binarize_weights:
            np.clip(layer.weight.value, -1.0, 1.0, out=layer.weight.value)


def train_step(net: Network, batch: tuple[np.ndarray, np.ndarray], opt,
               *, clamp: bool = True) -> tuple[float, dict]:
    """One optimization step; returns (loss, metrics).

    Aborts with diagnostics if the loss goes non-finite.
    """
    images, labels = batch
    logits = net.logits(images, train=True)
    loss, grad = loss_softmax_nll(logits, labels)
    if not np.isfinite(loss):
        norms = {p.name: float(np.abs(p.value).max()) for p in net.params()}
        raise RuntimeError(f"non-finite loss {loss}; param max-abs: {norms}")
    net.backward(grad, input_grad=False)
    opt.step(net.params())
    if clamp:
        clamp_binarized_weights(net)
    top1 = float((logits.argmax(axis=1) == labels).mean())
    return loss, {"top1": top1}


def evaluate(net: Network, ds: Dataset):
    """Deterministic (top1, top5, mean loss) over a split, in batches of 256;
    ties break toward the lower class index via a stable sort."""
    hits1 = 0
    hitsk = 0
    losses = []
    for start in range(0, ds.n, 256):
        images = ds.images[start:start + 256]
        labels = ds.labels[start:start + 256]
        logits = net.logits(images, train=False)
        loss, _ = loss_softmax_nll(logits, labels)
        losses.append(loss * len(labels))
        order = np.argsort(-logits, axis=1, kind="stable")
        hits1 += int((order[:, 0] == labels).sum())
        hitsk += int((order[:, :5] == labels[:, None]).any(axis=1).sum())
    top1 = hits1 / ds.n
    topk = hitsk / ds.n
    return top1, topk, float(np.sum(losses) / ds.n)


@dataclass
class History:
    rows: list[dict] = field(default_factory=list)

    def append(self, **kwargs):
        self.rows.append(kwargs)

    def write_csv(self, path, seed: int) -> None:
        fields = ["epoch", "split", "loss", "top1", "topk", "seed"]
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({**row, "seed": seed})


def fit(net: Network, train_ds: Dataset, val_ds: Dataset | None, epochs: int, opt,
        sched=None, *, batch_size: int = 64, seed: int = 0, clamp: bool = True,
        verbose: bool = False) -> History:
    """Run the full training loop; returns per-epoch history.

    Weight binarization is recomputed inside every forward pass, before the
    convolution consumes the weights; the optimizer then updates the real
    weights only.
    """
    history = History()
    rng = np.random.default_rng(seed)
    for epoch in range(epochs):
        if sched is not None:
            opt.lr = sched.lr_at(epoch)
        order = rng.permutation(train_ds.n)
        losses = []
        accs = []
        for start in range(0, train_ds.n, batch_size):
            idx = order[start:start + batch_size]
            loss, metrics = train_step(
                net, (train_ds.images[idx], train_ds.labels[idx]), opt, clamp=clamp
            )
            losses.append(loss * idx.size)
            accs.append(metrics["top1"] * idx.size)
        history.append(epoch=epoch, split="train",
                       loss=float(np.sum(losses) / train_ds.n),
                       top1=float(np.sum(accs) / train_ds.n), topk="")
        if val_ds is not None:
            top1, topk_acc, vloss = evaluate(net, val_ds)
            history.append(epoch=epoch, split="val", loss=vloss, top1=top1, topk=topk_acc)
            if verbose:
                print(f"epoch {epoch}: train_loss={history.rows[-2]['loss']:.4f} "
                      f"val_top1={top1:.4f}")
    return history
