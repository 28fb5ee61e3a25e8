"""The benchmark's workloads: inputs made from the seed, the gnodeformer
command each one runs, and the checks on that command's outputs.

All three are closed loops: one command at a time, each in a fresh process,
the next launched only after the previous one has exited.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

# Below the lowest test accuracy seen over seeds (central 0.59 over 22, fed
# 0.66 over 10, replay 0.59 over 20) and well above chance (1/3, 1/3, 1/4).
CENTRAL_ACCURACY_FLOOR = 0.45
FED_ACCURACY_FLOOR = 0.5
REPLAY_ACCURACY_FLOOR = 0.4


@dataclass
class Outcome:
    """Checks of one finished command."""

    failures: list = field(default_factory=list)
    client_updates: int = 0
    client_failures: int = 0
    deterministic: list | None = None
    bytes_cum: int = 0

    @property
    def ok(self):
        return not self.failures


def read_metrics(path, timing_column):
    """metrics.csv as (header, rows); the timing column is dropped from the
    rows because it is the only one that may differ between runs. Raises
    OSError or ValueError when the file is missing or malformed."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",") if lines else []
    drop = header.index(timing_column)
    rows = [[cell for i, cell in enumerate(line.split(",")) if i != drop]
            for line in lines[1:] if line]
    return [h for i, h in enumerate(header) if i != drop], rows


def _is_finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _accuracy(stdout, prefix):
    for line in reversed(stdout.splitlines()):
        if prefix in line:
            try:
                return float(line.split(prefix, 1)[1].split()[0].rstrip(","))
            except (IndexError, ValueError):
                return None
    return None


def check_central(exit_code, stdout, out_dir, floor):
    """Exit code, finite train/val losses, test accuracy over ``floor``."""
    outcome = Outcome()
    if exit_code != 0:
        outcome.failures.append(f"exit code {exit_code}")
        return outcome
    try:
        header, rows = read_metrics(os.path.join(out_dir, "metrics.csv"), "seconds")
        losses = [header.index("train_loss"), header.index("val_loss")]
    except (OSError, ValueError) as exc:
        outcome.failures.append(f"metrics.csv: {exc}")
        return outcome
    if not rows:
        outcome.failures.append("metrics.csv has no epochs")
    if any(not _is_finite(row[i]) for row in rows for i in losses):
        outcome.failures.append("non-finite loss in metrics.csv")
    accuracy = _accuracy(stdout, "test accuracy ")
    if accuracy is None or not accuracy > floor:
        outcome.failures.append(f"test accuracy {accuracy} not above {floor}")
    outcome.deterministic = rows
    return outcome


def check_fed(exit_code, stdout, out_dir, floor):
    """Exit code, finite global losses, global accuracy over ``floor``.

    A participant row with a non-finite loss is an aborted client update: it
    counts as one failed client update, not as a failed command.
    """
    outcome = Outcome()
    if exit_code != 0:
        outcome.failures.append(f"exit code {exit_code}")
        return outcome
    try:
        header, rows = read_metrics(os.path.join(out_dir, "metrics.csv"), "epoch_seconds")
        client, loss = header.index("client_id"), header.index("loss")
        bytes_cum = header.index("bytes_cum")
    except (OSError, ValueError) as exc:
        outcome.failures.append(f"metrics.csv: {exc}")
        return outcome
    for row in rows:
        if row[client] == "global":
            if not _is_finite(row[loss]):
                outcome.failures.append(f"round {row[0]}: non-finite global loss")
        else:
            outcome.client_updates += 1
            outcome.client_failures += not _is_finite(row[loss])
    if not rows:
        outcome.failures.append("metrics.csv has no rounds")
    else:
        outcome.bytes_cum = int(rows[-1][bytes_cum])
    accuracy = _accuracy(stdout, "global accuracy ")
    if accuracy is None or not accuracy > floor:
        outcome.failures.append(f"global accuracy {accuracy} not above {floor}")
    outcome.deterministic = rows
    return outcome


def write_text_dataset(path, seed):
    """A 4x500-node block-model graph in gnodeformer's dataset directory
    format, made with the benchmark's own generator so the program only
    reads it."""
    blocks, p_in, p_out, feature_dim, signal = (500, 500, 500, 500), 0.008, 0.002, 16, 0.7
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(blocks)), blocks)
    n = labels.size
    prob = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    us, vs = np.nonzero(np.triu(rng.random((n, n)) < prob, k=1))
    means = rng.standard_normal((len(blocks), feature_dim))
    features = signal * means[labels] + rng.standard_normal((n, feature_dim))
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "meta"), "w") as fh:
        fh.write(f"n={n}\nf={feature_dim}\nc={len(blocks)}\nname=bench{n}\n")
    with open(os.path.join(path, "edges"), "w") as fh:
        fh.writelines(f"{u} {v}\n" for u, v in zip(us, vs))
    np.savetxt(os.path.join(path, "features"), features, fmt="%.17g")
    np.savetxt(os.path.join(path, "labels"), labels[:, None], fmt="%d")


class Workload:
    blas_threads = 2
    primes = 0  # leading commands that only fill caches and are not measured
    fresh_out = False  # remove the output directory before every command

    def prepare(self, work, seed):
        """Make this run's inputs under ``work``; no timing happens here."""
        self.work, self.seed = work, seed
        self.out = os.path.join(work, "out")

    def argv(self, index):
        """gnodeformer argv of the ``index``-th command of the run."""
        raise NotImplementedError

    def check(self, exit_code, stdout):
        raise NotImplementedError


class Central(Workload):
    name = "central-sbm1500-rk4"
    fresh_out = True  # so every command misses the eigen cache and writes it

    def argv(self, index):
        spec = f"blocks=500,500,500;p_in=0.02;p_out=0.01;signal=0.6;seed={self.seed}"
        return ["train", "--sbm", spec, "--rk", "4", "--epochs", "4",
                "--seed", str(self.seed), "--out", self.out]

    def check(self, exit_code, stdout):
        return check_central(exit_code, stdout, self.out, CENTRAL_ACCURACY_FLOOR)


class Fed(Workload):
    name = "fed-sbm1200-c8-iid"
    blas_threads = 1  # with --threads 2 the process then runs exactly 2 threads
    threads = 2

    def argv(self, index):
        spec = f"blocks=400,400,400;p_in=0.05;p_out=0.01;signal=0.3;seed={self.seed}"
        return ["fed-train", "--sbm", spec, "--clients", "8", "--alpha", "100",
                "--local-epochs", "2", "--threads", str(self.threads), "--rounds", "10",
                "--seed", str(self.seed), "--out", self.out]

    def check(self, exit_code, stdout):
        return check_fed(exit_code, stdout, self.out, FED_ACCURACY_FLOOR)


class Replay(Workload):
    name = "replay-text2000-warm"
    primes = 1

    def prepare(self, work, seed):
        super().prepare(work, seed)
        self.data = os.path.join(work, "data")
        write_text_dataset(self.data, seed)

    def argv(self, index):
        if index == 0:  # the priming run: solves the eigenproblem, fills the cache
            return ["train", "--dataset", self.data, "--epochs", "3",
                    "--seed", str(self.seed), "--out", self.out]
        manifest = os.path.join(self.out, "manifest.txt")
        return ["train", "--from-manifest", manifest, "--out", self.out]

    def check(self, exit_code, stdout):
        return check_central(exit_code, stdout, self.out, REPLAY_ACCURACY_FLOOR)


WORKLOADS = {w.name: w for w in (Central, Fed, Replay)}
