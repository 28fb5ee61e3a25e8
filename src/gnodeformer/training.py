"""Full-batch centralized training loop.

Federated clients reuse ``run_epochs`` with an epoch offset, so a
single-client run and a centralized run walk the exact same sequence of
forward seeds and optimizer steps.

Each parameter state is run forward once. With dropout 0 the training
forward gives the same logits, bit for bit, as the eval forward, so
``train_centralized`` hands the graph that the validation ``evaluate``
built for the parameters after step e to ``run_epochs`` as the forward of
step e + 1, which then runs only the loss, backward and Adam. The first
step, and every step of a run with dropout or without a validation mask,
runs its own forward. The last validation forward can likewise go back to
the caller, whose filter table and test score need that same eval forward.
"""

import logging
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .autodiff import Tensor, backward
from .errors import ConfigError
from .graphs import GraphDataset
from .model import ModelConfig, forward, init_params, loss_and_metrics
from .optim import AdamConfig, OptimizerState, ParamSet, adam_step, init_optimizer
from .seeding import DROPOUT, derive_seed
from .spectral import SpectralBasis

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EpochRecord:
    """One optimizer step; loss/accuracy are measured before the step."""

    epoch: int
    loss: float
    accuracy: float
    seconds: float


@dataclass(frozen=True)
class CentralRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float
    seconds: float


def run_epochs(
    dataset: GraphDataset,
    basis: SpectralBasis,
    config: ModelConfig,
    params: ParamSet,
    state: OptimizerState,
    n_epochs: int,
    seed: int,
    epoch_offset: int = 0,
    logits: Tensor | None = None,
) -> list[EpochRecord]:
    """Advance ``params`` in place by ``n_epochs`` full-batch steps.

    The dropout stream for epoch ``e`` depends only on (seed, e), never
    on how the epochs are batched into calls.

    ``logits``, if given, is a forward already made at the current
    ``params``; the first step takes its loss from it instead of running
    a forward, and its backward consumes that graph. Only a run without
    dropout may pass one, since only there does the eval forward equal
    the training forward.
    """
    if logits is not None and config.dropout:
        raise ConfigError("reusing a forward needs dropout 0")
    records = []
    for j in range(n_epochs):
        epoch = epoch_offset + j
        start = perf_counter()
        if logits is None:
            logits, _ = forward(
                dataset,
                basis,
                config,
                params,
                training=True,
                dropout_seed=derive_seed(seed, DROPOUT, epoch),
            )
        loss, accuracy = loss_and_metrics(logits, dataset.labels, dataset.train_mask)
        logits = None
        grads = backward(loss, dict(params.items()))
        adam_step(params, grads, state)
        records.append(
            EpochRecord(epoch, loss.item(), accuracy, perf_counter() - start)
        )
    return records


def evaluate(
    dataset: GraphDataset,
    basis: SpectralBasis,
    config: ModelConfig,
    params: ParamSet,
    mask: np.ndarray,
    logits: Tensor | None = None,
    keep_forward: bool = False,
) -> tuple[float, float] | tuple[float, float, tuple[Tensor, Tensor]]:
    """Loss and accuracy on ``mask`` with dropout disabled.

    ``logits``, if given, is an eval forward already made at ``params``
    and is scored instead of running a new one. With ``keep_forward`` the
    forward's (logits, gamma) come back as a third item, graph included,
    so the caller can reuse it (gamma is None when ``logits`` was given).
    """
    gamma = None
    if logits is None:
        logits, gamma = forward(dataset, basis, config, params, training=False)
    loss, accuracy = loss_and_metrics(logits, dataset.labels, mask)
    if keep_forward:
        return loss.item(), accuracy, (logits, gamma)
    return loss.item(), accuracy


def train_centralized(
    dataset: GraphDataset,
    basis: SpectralBasis,
    config: ModelConfig,
    optimizer: AdamConfig,
    epochs: int,
    seed: int,
    patience: int | None = None,
) -> tuple[ParamSet, list[CentralRecord], tuple[Tensor, Tensor] | None]:
    """Train from a fresh initialization, returning params, history and
    the last eval forward.

    With ``patience`` set and a nonempty validation mask, training stops
    once validation accuracy has not improved for that many consecutive
    epochs, and the best-validation parameters are restored.

    The third item is the eval forward's (logits, gamma) at the returned
    params, graph included, when the last validation ``evaluate`` ran at
    them, else None (no epochs, no validation mask, or parameters
    restored from an earlier epoch).
    """
    if epochs < 0:
        raise ConfigError("epochs must be >= 0")
    if patience is not None and patience < 1:
        raise ConfigError("patience must be >= 1")

    params = init_params(config, seed)
    state = init_optimizer(params, optimizer)
    has_val = bool(dataset.val_mask.any())
    track_best = patience is not None and has_val

    # the validation (logits, gamma) of the params after step e, held for
    # step e + 1 and, after the last step, for the caller
    reuse = has_val and config.dropout == 0
    held = None

    history: list[CentralRecord] = []
    best_accuracy = -1.0
    best_params = None
    stale = 0
    for epoch in range(epochs):
        record = run_epochs(
            dataset, basis, config, params, state, 1, seed, epoch,
            logits=None if held is None else held[0],
        )[0]
        held = None
        if has_val and (reuse or epoch + 1 == epochs):
            val_loss, val_accuracy, held = evaluate(
                dataset, basis, config, params, dataset.val_mask, keep_forward=True
            )
        elif has_val:
            val_loss, val_accuracy = evaluate(
                dataset, basis, config, params, dataset.val_mask
            )
        else:
            val_loss = val_accuracy = float("nan")
        history.append(
            CentralRecord(
                epoch,
                record.loss,
                record.accuracy,
                val_loss,
                val_accuracy,
                record.seconds,
            )
        )
        logger.info(
            "epoch %d: train_loss=%.4f val_loss=%.4f val_accuracy=%.4f",
            epoch, record.loss, val_loss, val_accuracy,
        )
        if track_best:
            if val_accuracy > best_accuracy:
                best_accuracy = val_accuracy
                best_params = params.copy()
                stale = 0
            else:
                stale += 1
                if stale >= patience:
                    break
    # stale is 0 when the last epoch was the best: params already hold it
    if track_best and stale and best_params is not None:
        params, held = best_params, None
    return params, history, held
