"""Single-process federated training simulator.

Clients hold disjoint induced subgraphs of one global graph. Each round
samples a client subset, runs local full-batch epochs from a copy of the
global parameters, and aggregates with a node-count-weighted average.
Each participant's local steps are training.EpochRecords, as a central
run's are. Where training.hands_off allows (dropout 0 and at least one
local epoch), a client scores the parameters it received on its test
nodes with evaluate and hands that forward to its first local step,
which gives the previous round's global test row without a second
forward (see run_rounds).
With threads > 1, a round with a participant of at least
_POOL_MIN_NODES nodes runs its client updates on a thread pool, and a
round of smaller clients runs them on the calling thread: a small
client's step is mostly Python and small numpy calls, which take turns
on the interpreter lock rather than overlap. Results are consumed in
client-id order wherever they ran, so placement never changes a number.
No network transport: byte counts follow a 4-bytes-per-parameter wire
model for accounting only.
"""

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from math import ceil, inf, nan

import numpy as np

from .errors import ConfigError, NumericsError
from .fileio import write_lines
from .graphs import (
    GraphDataset,
    _largest_remainder,
    build_normalized_laplacian,
    sorted_unique,
    split_masks,
)
from .model import ModelConfig, count_parameters, init_params
from .optim import AdamConfig, OptimizerState, ParamSet
from .seeding import MASKS, PARTITION, SAMPLING, derive_seed, rng_for
from .spectral import SpectralBasis, sym_eig
from .training import EpochRecord, evaluate, hands_off, run_epochs

logger = logging.getLogger(__name__)

BYTES_PER_PARAM = 4  # 32-bit wire model; training itself stays in 64-bit
# Smallest client that sends its round to the thread pool. Two equal
# client updates (2 local epochs, default model, 1 BLAS thread, 2-vCPU VM)
# on two threads took this share of their serial time, median of 12-19
# runs per size: 1.07 at 150 nodes, 0.94 at 175, 0.90 at 200, 0.81 at
# 225, 0.77 at 250. Threads gain 10% or more from 200 nodes on; below,
# less than the runs' spread, while each pool thread holds its own
# malloc arena.
_POOL_MIN_NODES = 200


@dataclass(frozen=True)
class FedConfig:
    model: ModelConfig
    optimizer: AdamConfig
    clients: int = 5
    alpha: float = 100.0
    rounds: int = 10
    local_epochs: int = 5
    fraction_fit: float = 1.0
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.clients < 1:
            raise ConfigError(f"clients={self.clients} must be >= 1")
        if not 0.0 < self.alpha < inf:
            raise ConfigError(f"alpha={self.alpha} must be positive and finite")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.local_epochs < 0:
            raise ConfigError("local epochs must be >= 0")
        if not 0.0 < self.fraction_fit <= 1.0:
            raise ConfigError(f"fraction_fit={self.fraction_fit} outside (0, 1]")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")


@dataclass
class ClientState:
    """Complete when build_clients makes it; its Adam settings stay fixed."""

    client_id: int
    dataset: GraphDataset
    basis: SpectralBasis
    opt_state: OptimizerState


@dataclass(frozen=True)
class RoundRecord:
    """One round: each participant's local steps (none when its update
    failed or there are no local epochs), the global test row and the
    bytes transferred in this and every earlier round."""

    round_index: int
    participants: tuple[int, ...]
    client_epochs: dict[int, list[EpochRecord]]
    global_loss: float
    global_accuracy: float
    bytes_cum: int


def dirichlet_partition(
    labels: np.ndarray, clients: int, alpha: float, seed: int
) -> list[np.ndarray]:
    """Assign node ids to clients by per-class Dirichlet proportions.

    Every node lands on exactly one client. A client left empty at
    extreme concentration receives one node from the largest client, so
    there may be no more clients than nodes.
    """
    if clients < 1:
        raise ConfigError("clients must be >= 1")
    if not 0.0 < alpha < inf:
        raise ConfigError(f"alpha={alpha} must be positive and finite")
    labels = np.asarray(labels)
    # with no more clients than nodes the repair loop below ends: a donor
    # always holds two or more nodes while some client is empty
    check_client_count(clients, labels.size)
    rng = rng_for(seed, PARTITION)

    assigned: list[list[np.ndarray]] = [[] for _ in range(clients)]
    for cls in sorted_unique(labels):
        nodes = rng.permutation(np.flatnonzero(labels == cls))
        proportions = rng.dirichlet(np.full(clients, alpha))
        counts = _largest_remainder(len(nodes), proportions)
        start = 0
        for i, count in enumerate(counts):
            assigned[i].append(nodes[start : start + count])
            start += count

    parts = [np.concatenate(chunks) if chunks else np.array([], dtype=int)
             for chunks in assigned]
    sizes = np.array([len(p) for p in parts])
    while (sizes == 0).any():
        empty = int(np.argmin(sizes))
        donor = int(np.argmax(sizes))
        parts[empty] = parts[donor][-1:]
        parts[donor] = parts[donor][:-1]
        sizes = np.array([len(p) for p in parts])
        logger.warning(
            "client %d received no nodes; moved one node from client %d",
            empty,
            donor,
        )
    return parts


def check_client_count(clients: int, nodes: int) -> None:
    """Refuse a federation of more clients than the graph has nodes."""
    if clients > nodes:
        raise ConfigError(
            f"clients={clients} exceeds the graph's {nodes} nodes; "
            "every client needs at least one"
        )


def induce_subgraph(
    dataset: GraphDataset, nodes: np.ndarray, mask_seed: int, name: str | None = None
) -> GraphDataset:
    """Subgraph on ``nodes`` with edges between them; masks re-split locally."""
    nodes = np.sort(nodes)
    if nodes.size == 0:
        raise ConfigError("cannot induce a subgraph on an empty node list")
    if (nodes[1:] == nodes[:-1]).any():
        raise ConfigError("duplicate node ids in subgraph selection")
    if nodes[0] < 0 or nodes[-1] >= dataset.n:
        raise ConfigError("node id outside the graph")

    labels = dataset.labels[nodes]
    train, val, test = split_masks(labels, mask_seed)
    # new id of each kept node, -1 elsewhere; the ids rise with the old
    # ones, so the kept rows stay sorted with u < v
    index = np.full(dataset.n, -1, dtype=np.int64)
    index[nodes] = np.arange(nodes.size)
    edges = index[dataset.edges]
    return GraphDataset(
        n=nodes.size,
        edges=edges[(edges >= 0).all(axis=1)],
        features=dataset.features[nodes],
        labels=labels,
        num_classes=dataset.num_classes,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        name=name or f"{dataset.name}/sub{nodes.size}",
    )


def sample_clients(clients: int, fraction: float, round_index: int, seed: int) -> np.ndarray:
    """Sorted participant ids for one round, |S| = max(1, ceil(K*m))."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction_fit={fraction} outside (0, 1]")
    size = max(1, ceil(fraction * clients))
    rng = rng_for(seed, SAMPLING, round_index)
    return np.sort(rng.choice(clients, size=size, replace=False))


def client_update(
    global_params: ParamSet,
    client: ClientState,
    config: FedConfig,
    epoch_offset: int,
) -> tuple[ParamSet | None, list[EpochRecord], tuple[float, float] | None]:
    """Run local epochs from a copy of the global parameters.

    Returns (updated params, per-epoch records, score). When the client
    has test nodes and hands_off allows, score is the (test loss, test
    accuracy) that evaluate gives at the received parameters, and that
    evaluate's forward serves as the first local step's. Otherwise score
    is None.

    The steps use the client's Adam state, whose settings build_clients
    fixed. When a step hits non-finite numbers the result is (None, [],
    score), with the score of a forward that completed; the optimizer
    state rolls back so a failed round leaves no trace.
    """
    local = global_params.copy()
    state = client.opt_state.copy()
    score = logits = None
    try:
        test_mask = client.dataset.test_mask
        if test_mask.any() and hands_off(config.model, config.local_epochs):
            loss, accuracy, (logits, _) = evaluate(
                client.dataset, client.basis, config.model, local, test_mask
            )
            score = (loss, accuracy)
        records = run_epochs(
            client.dataset,
            client.basis,
            config.model,
            local,
            state,
            config.local_epochs,
            config.seed,
            epoch_offset,
            logits=logits,
        )
    except NumericsError as exc:
        logger.warning("client %d aborted this round: %s", client.client_id, exc)
        return None, [], score
    client.opt_state = state
    return local, records, score


def fedavg(param_sets: list[ParamSet], weights: list[float]) -> ParamSet:
    """Weighted average of parameter sets, weights normalized to sum 1.

    Anchored at the first participant so identical inputs, one set
    among them, average to themselves exactly (anchor + 0.0 keeps every
    bit but a -0.0's sign, and no parameter is ever -0.0).
    """
    if not param_sets:
        raise ConfigError("fedavg needs at least one parameter set")
    if len(param_sets) != len(weights):
        raise ConfigError("one weight per parameter set required")
    weights = np.asarray(weights, dtype=float)
    if (weights <= 0).any():
        raise ConfigError("weights must be positive")
    names = param_sets[0].names()
    layout = param_sets[0].layout()
    for other in param_sets[1:]:
        if other.names() != names:
            raise ConfigError("parameter sets disagree on names")
        for (name, want), (_, got) in zip(layout, other.layout()):
            if got != want:
                raise ConfigError(f"shape mismatch for {name}")

    # over the flat buffers: per entry the same sums as tensor by tensor
    scale = weights / weights.sum()
    anchor = param_sets[0].flat
    total = np.zeros_like(anchor)
    for s, other in zip(scale[1:], param_sets[1:]):
        total += s * (other.flat - anchor)
    return param_sets[0].like(anchor + total)


def build_clients(dataset: GraphDataset, config: FedConfig) -> list[ClientState]:
    """Partition the graph; each client gets its eigenbasis and fresh Adam state."""
    parts = dirichlet_partition(dataset.labels, config.clients, config.alpha, config.seed)
    size = count_parameters(config.model)
    clients = []
    for i, nodes in enumerate(parts):
        sub = induce_subgraph(
            dataset,
            nodes,
            derive_seed(config.seed, MASKS, i),
            name=f"{dataset.name}/client{i}",
        )
        basis = sym_eig(build_normalized_laplacian(sub), unit_band=True)
        state = OptimizerState(config.optimizer, np.zeros(size), np.zeros(size))
        clients.append(ClientState(i, sub, basis, state))
    return clients


def evaluate_global(
    clients: list[ClientState],
    config: ModelConfig,
    params: ParamSet,
    scores: dict[int, tuple[float, float]] | None = None,
) -> tuple[float, float]:
    """Test loss/accuracy over the union of client test masks.

    Each client is evaluated on its own subgraph; contributions are
    weighted by the client's test-node count. ``scores`` maps client ids
    to (loss, accuracy) already measured at ``params`` (client_update's
    score); only the other clients with test nodes run a forward. No step
    takes those forwards, so they run over ``params.detached()`` and
    build no graph.
    """
    scores = dict(scores or {})
    view = params.detached()
    for client in _unscored(clients, scores):
        scores[client.client_id] = evaluate(
            client.dataset, client.basis, config, view, client.dataset.test_mask
        )[:2]
    return _pool_scores(clients, scores)


def _unscored(clients: list[ClientState], scores: dict) -> list[ClientState]:
    """Clients with test nodes and no entry in ``scores``."""
    return [
        c for c in clients
        if c.client_id not in scores and c.dataset.test_mask.any()
    ]


def _pool_scores(
    clients: list[ClientState], scores: dict[int, tuple[float, float]]
) -> tuple[float, float]:
    """Test-node-weighted mean of per-client (loss, accuracy), summed in
    client-id order; clients without test nodes are skipped."""
    total = 0
    loss_sum = 0.0
    acc_sum = 0.0
    for client in clients:
        count = int(client.dataset.test_mask.sum())
        if count == 0:
            continue
        loss, accuracy = scores[client.client_id]
        total += count
        loss_sum += count * loss
        acc_sum += count * accuracy
    if total == 0:
        return float("nan"), float("nan")
    return loss_sum / total, acc_sum / total


def run_rounds(
    dataset: GraphDataset, config: FedConfig, on_round=None
) -> tuple[ParamSet, list[RoundRecord], list[ClientState]]:
    """Full federated simulation: partition, round loop, aggregation.

    Deterministic given the seed. With threads > 1, a round with a
    participant of at least _POOL_MIN_NODES nodes hands its client
    updates to a thread pool in client-id order; any other round runs
    them on the calling thread, in the same order, and no pool thread
    starts while no round needs one. Aggregation consumes every result
    in client-id order, so where an update ran never changes a number.

    Each round's RoundRecord is appended when the round aggregates, with
    a nan global row. That row scores the aggregate, the parameters that
    round r + 1 sends out, so it is filled one round late: from the
    scores that round r + 1's participants return (client_update), plus
    an evaluate_global forward for every other client with test nodes.
    The last round's row, and every row of a run whose clients share no
    forward, takes evaluate_global's forwards alone. Either way the row
    equals evaluate_global at those parameters bit for bit.
    ``on_round(record, global_params)`` fires once the row is filled.
    """
    clients = build_clients(dataset, config)
    global_params = init_params(config.model, config.seed)
    _, one_way_bytes = comm_accounting(config.model)
    records: list[RoundRecord] = []
    bytes_cum = 0

    def finish(scores: dict):
        """Fill the last record's global row at global_params; report it."""
        # evaluate_global runs only when some forward is missing, so its
        # calls time evaluation work, never a sum of known scores
        if _unscored(clients, scores):
            loss, accuracy = evaluate_global(clients, config.model, global_params, scores)
        else:
            loss, accuracy = _pool_scores(clients, scores)
        records[-1] = replace(records[-1], global_loss=loss, global_accuracy=accuracy)
        if on_round is not None:
            on_round(records[-1], global_params)

    # one worker pool serves every round that gains from it; it starts a
    # thread only at its first submit, so a run of small clients starts none
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        for round_index in range(config.rounds):
            participants = sample_clients(
                config.clients, config.fraction_fit, round_index, config.seed
            ).tolist()
            offset = round_index * config.local_epochs

            def update(cid: int):
                return client_update(global_params, clients[cid], config, offset)

            # per round, not per client: small clients on this thread beside
            # a pool busy with big ones keep threads + 1 threads busy, and on
            # a 2-vCPU VM a heterophilic alpha-0.1 run took up to 17% longer
            pooled = config.threads > 1 and any(
                clients[c].dataset.n >= _POOL_MIN_NODES for c in participants
            )
            run = pool.map if pooled else map
            results = dict(zip(participants, run(update, participants)))
            if records:
                finish({cid: r[2] for cid, r in results.items() if r[2] is not None})

            survivors = {cid: r[0] for cid, r in results.items() if r[0] is not None}
            if survivors:
                global_params = fedavg(
                    list(survivors.values()), [clients[cid].dataset.n for cid in survivors]
                )
            else:
                logger.warning("round %d: every participant failed; keeping params", round_index)

            bytes_cum += 2 * len(participants) * one_way_bytes
            epochs = {cid: r[1] for cid, r in results.items()}
            records.append(RoundRecord(
                round_index, tuple(participants), epochs, nan, nan, bytes_cum
            ))
        if records:
            finish({})
    return global_params, records, clients


def comm_accounting(config: ModelConfig) -> tuple[int, int]:
    """(parameter count, bytes per one-way transfer of the model)."""
    count = count_parameters(config)
    return count, param_bytes(count)


def param_bytes(count: int) -> int:
    return BYTES_PER_PARAM * count


def write_metrics_csv(path, records: list[RoundRecord]) -> None:
    """Per-round metrics: one row per participant plus one global row.

    A participant's row holds its last local step's loss and accuracy and
    the mean seconds of its steps, all nan when it took none; the global
    row's epoch_seconds is the mean over participants that took steps.
    epoch_seconds is wall-clock and therefore excluded from any
    bit-for-bit reproducibility guarantee; every other column is
    deterministic given the run seed in single-thread mode.
    """
    def fmt(x: float) -> str:
        return repr(float(x))

    nan = float("nan")
    rows = ["round,client_id,loss,accuracy,bytes_cum,epoch_seconds"]
    for rec in records:
        seconds = []
        for cid in rec.participants:
            epochs = rec.client_epochs[cid]
            loss = accuracy = mean = nan
            if epochs:
                loss, accuracy = epochs[-1].loss, epochs[-1].accuracy
                mean = float(np.mean([e.seconds for e in epochs]))
                seconds.append(mean)
            rows.append(
                f"{rec.round_index},{cid},{fmt(loss)},{fmt(accuracy)},"
                f"{rec.bytes_cum},{fmt(mean)}"
            )
        rows.append(
            f"{rec.round_index},global,{fmt(rec.global_loss)},"
            f"{fmt(rec.global_accuracy)},{rec.bytes_cum},"
            f"{fmt(np.mean(seconds) if seconds else nan)}"
        )
    write_lines(path, rows)


def partition_stats(
    labels: np.ndarray, parts: list[np.ndarray], num_classes: int
) -> dict:
    """Histogram and skew statistics for one partition.

    Returns per-client class counts, per-client dominant-class share,
    and the mean total-variation distance between client label
    distributions and the global one.
    """
    labels = np.asarray(labels)
    counts = np.zeros((len(parts), num_classes))
    for i, nodes in enumerate(parts):
        for cls, num in zip(*np.unique(labels[nodes], return_counts=True)):
            counts[i, cls] = num
    totals = counts.sum(axis=1, keepdims=True)
    hist = counts / np.where(totals == 0, 1, totals)
    global_hist = np.bincount(labels, minlength=num_classes) / labels.size
    tv = 0.5 * np.abs(hist - global_hist).sum(axis=1)
    return {
        "counts": counts,
        "max_share": hist.max(axis=1),
        "mean_tv": float(tv.mean()),
    }
