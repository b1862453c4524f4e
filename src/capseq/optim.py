"""Gradient-descent steps (SGD, Adam) with global-norm clipping, and the
shuffled minibatch epoch loop both training stages share.

A step refuses to update when any gradient is non-finite: it emits a
diagnostic and returns False, leaving parameter values untouched. After a
successful update the optimizer zeroes the gradients it consumed.
"""

from __future__ import annotations

import logging

import numpy as np

from .autodiff import Parameter, Tape

logger = logging.getLogger(__name__)


def global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    return float(np.sqrt(total))


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients by max_norm/g when the global norm g exceeds
    max_norm. Returns the pre-clip norm."""
    params = list(params)
    norm = global_grad_norm(params)
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale
    return norm


class _Optimizer:
    def __init__(self, params, lr: float, clip_norm: float | None):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params: list[Parameter] = list(params)
        self.lr = lr
        self.clip_norm = clip_norm

    def _trainable(self) -> list[Parameter]:
        return [p for p in self.params if p.trainable]

    def _grads_finite(self, params) -> bool:
        for p in params:
            if not np.all(np.isfinite(p.grad)):
                logger.error("optimizer step refused: non-finite gradient in %r", p.name)
                return False
        return True

    def step(self) -> bool:
        active = self._trainable()
        if not self._grads_finite(active):
            return False
        if self.clip_norm is not None:
            clip_gradients(active, self.clip_norm)
        self._apply(active)
        for p in active:
            p.grad[...] = 0.0
        return True

    def _apply(self, params) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Sgd(_Optimizer):
    def __init__(self, params, lr: float, clip_norm: float | None = None):
        super().__init__(params, lr, clip_norm)

    def _apply(self, params) -> None:
        for p in params:
            p.data -= self.lr * p.grad


class Adam(_Optimizer):
    """Adam with bias correction; first-moment/second-moment state per
    parameter, kept by parameter identity so freeze toggles do not shift it."""

    def __init__(self, params, lr: float, eps: float = 1e-8,
                 beta1: float = 0.9, beta2: float = 0.999,
                 clip_norm: float | None = None):
        super().__init__(params, lr, clip_norm)
        self.eps = eps
        self.beta1 = beta1
        self.beta2 = beta2
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def _apply(self, params) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            if not p.trainable:
                continue
            m, v = self._m[i], self._v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flat name->array view of the moment state, for checkpointing."""
        out: dict[str, np.ndarray] = {"adam.t": np.array([float(self.t)])}
        for i, p in enumerate(self.params):
            key = p.name or f"param{i}"
            out[f"adam.m.{key}"] = self._m[i]
            out[f"adam.v.{key}"] = self._v[i]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.t = int(arrays["adam.t"][0])
        for i, p in enumerate(self.params):
            key = p.name or f"param{i}"
            self._m[i] = arrays[f"adam.m.{key}"].reshape(self._m[i].shape).copy()
            self._v[i] = arrays[f"adam.v.{key}"].reshape(self._v[i].shape).copy()


def train_epochs(model, n_items: int, batch_loss, optimizers, epochs: int,
                 batch_size: int, shuffle_rng, epoch_callback=None, trace=None,
                 start_epoch: int = 0) -> list[float]:
    """Minibatch epochs ``start_epoch..epochs-1`` over ``n_items`` examples;
    returns the loss trace.

    Each epoch draws one permutation from ``shuffle_rng``; each batch of
    indices is scored by ``batch_loss(indices)`` on a tape, backpropagated,
    and every optimizer steps in order. Per-batch losses are appended to
    ``trace``, and ``epoch_callback(epoch, model)`` runs after every epoch.
    An epoch with batches in which any optimizer refused its step logs one
    warning with the count.
    """
    trace = [] if trace is None else trace
    starts = range(0, n_items, batch_size)
    for epoch in range(start_epoch, epochs):
        order = shuffle_rng.permutation(n_items)
        refused = 0
        for lo in starts:
            with Tape() as tape:
                loss = batch_loss(order[lo:lo + batch_size])
            tape.backward(loss)
            # every optimizer steps, even after another refused
            if not all([opt.step() for opt in optimizers]):
                refused += 1
            trace.append(loss.item())
        if refused:
            logger.warning("epoch %d: %d of %d optimizer steps refused",
                           epoch, refused, len(starts))
        if epoch_callback is not None:
            epoch_callback(epoch, model)
    return trace
