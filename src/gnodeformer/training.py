"""Full-batch training: the step loop, its record and the scoring call.

Federated clients reuse ``run_epochs`` with an epoch offset, so a
single-client run and a centralized run walk the exact same sequence of
forward seeds and optimizer steps, and both record each step as an
``EpochRecord``.

Each parameter state is run forward once. ``evaluate`` returns the eval
forward it scored, and the hand-off rule (``hands_off``) says when a
training step may take that forward as its own: with dropout 0, where the
training forward gives the same logits bit for bit, and only when a step
at the same parameters follows. That step then runs only the loss,
backward and Adam. ``train_centralized`` hands each validation forward
to the next step, and ``fedsim.client_update`` hands the forward that
scores the received parameters to the first local step. Where no step
takes it, the forward is dropped before the next step runs, so no eval
graph is held across one; only the last validation forward goes back to
the caller, whose filter table and test score need that same forward.
"""

import logging
from dataclasses import dataclass, replace
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
    """One optimizer step of ``seconds``. loss/accuracy are on the training
    mask, measured before the step; val_loss/val_accuracy score the
    parameters after it on the validation mask, nan where nothing scored
    them (federated steps, or no validation split)."""

    epoch: int
    loss: float
    accuracy: float
    seconds: float
    val_loss: float = float("nan")
    val_accuracy: float = float("nan")


def hands_off(config: ModelConfig, steps: int) -> bool:
    """Whether an eval forward at the current parameters serves as the
    forward of the next of ``steps`` training steps: only with dropout 0,
    where the training forward equals the eval forward bit for bit, and
    only when a step follows to take it."""
    return config.dropout == 0 and steps >= 1


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

    ``logits``, if given, is an eval forward already made at the current
    ``params``; the first step takes its loss from it instead of running
    a forward, and its backward consumes that graph. Only a run that
    ``hands_off`` allows may pass one.
    """
    if logits is not None and not hands_off(config, n_epochs):
        raise ConfigError("reusing a forward needs dropout 0 and a step to take it")
    records = []
    for j in range(n_epochs):
        epoch = epoch_offset + j
        start = perf_counter()
        if logits is None:
            logits, _ = forward(
                dataset, basis, config, params, derive_seed(seed, DROPOUT, epoch)
            )
        loss, accuracy = loss_and_metrics(logits, dataset.labels, dataset.train_mask)
        logits = None
        adam_step(params, backward(loss, params), state)
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
) -> tuple[float, float, tuple[Tensor, Tensor | None]]:
    """Loss and accuracy on ``mask`` with dropout disabled, and the eval
    forward's (logits, gamma) they were scored from, the logits' graph
    included, so the caller may hand it to a training step (see
    ``hands_off``).

    ``logits``, if given, is an eval forward already made at ``params``
    and is scored instead of running a new one; gamma is then None.
    """
    gamma = None
    if logits is None:
        logits, gamma = forward(dataset, basis, config, params)
    loss, accuracy = loss_and_metrics(logits, dataset.labels, mask)
    return loss.item(), accuracy, (logits, gamma)


def train_centralized(
    dataset: GraphDataset,
    basis: SpectralBasis,
    config: ModelConfig,
    optimizer: AdamConfig,
    epochs: int,
    seed: int,
    patience: int | None = None,
) -> tuple[ParamSet, list[EpochRecord], tuple[Tensor, Tensor] | None]:
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

    history: list[EpochRecord] = []
    best_accuracy = -1.0
    best_params = None
    stale = 0
    # the validation forward at params, kept for the next step that takes
    # it and, after the last step, for the caller
    last = None
    for epoch in range(epochs):
        record = run_epochs(
            dataset, basis, config, params, state, 1, seed, epoch,
            logits=None if last is None else last[0],
        )[0]
        last = None
        if has_val:
            val_loss, val_accuracy, last = evaluate(
                dataset, basis, config, params, dataset.val_mask
            )
            # a later step takes this forward only under the hand-off
            # rule; after the last step it goes to the caller
            left = epochs - epoch - 1
            if left and not hands_off(config, left):
                last = None
            record = replace(record, val_loss=val_loss, val_accuracy=val_accuracy)
        history.append(record)
        logger.info(
            "epoch %d: train_loss=%.4f val_loss=%.4f val_accuracy=%.4f",
            epoch, record.loss, record.val_loss, record.val_accuracy,
        )
        if track_best:
            if record.val_accuracy > best_accuracy:
                best_accuracy = record.val_accuracy
                best_params = params.copy()
                stale = 0
            else:
                stale += 1
                if stale >= patience:
                    break
    # stale is 0 when the last epoch was the best: params already hold it
    if track_best and stale and best_params is not None:
        params, last = best_params, None
    return params, history, last
