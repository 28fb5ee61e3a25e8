"""gnodeformer benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload's inputs are made from
the seed; then gnodeformer commands run one after another, each in a fresh
process: first any priming command, then (untraced runs) SETUP_LAUNCHES
commands that stop where set-up ends, then full commands until the next one
would end after S seconds. Every command's outputs are checked. With
--trace 0 the end-to-end metrics are printed; with --trace 1 traced and
untraced full commands alternate and the per-layer metrics are printed.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Lines above it give the same
numbers as a table with sample counts and the environment of the run.
Working files go to .perfbench_work/ under the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np
import scipy

from spans import END, NAME, START, VALUE, has_descendant, totals
from workloads import WORKLOADS, Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
RUN_LIMIT_S = 170  # a run must end within 180 s even if a command hangs
SETUP_LAUNCHES = 2
NEXT_COMMAND_MARGIN = 1.25  # a command may run this much longer than the last

END_TO_END_UNITS = {
    "setup_s": "s", "epoch_s": "s", "eval_s": "s", "round_s": "s",
    "total_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.artifacts_s": "s",
    "graphs.generate_sbm_s": "s", "graphs.load_dataset_s": "s",
    "graphs.build_normalized_laplacian_s": "s",
    "graphs.build_normalized_laplacian_calls": "count",
    "spectral.sym_eig_s": "s", "spectral.sym_eig_calls": "count",
    "spectral.validate_s": "s", "spectral.matrix_digest_s": "s",
    "spectral.load_basis_s": "s", "spectral.save_basis_s": "s",
    "spectral.cache_hits": "count", "spectral.cache_misses": "count",
    "spectral.cache_bytes_read": "bytes", "spectral.cache_bytes_written": "bytes",
    "spectral.peak_rss_mb": "MB",
    "model.forward_s": "s", "model.forward_calls": "count",
    "model.transformer_layer_f_s": "s", "model.transformer_layer_f_calls": "count",
    "model.spectral_conv_head_s": "s",
    "autodiff.softmax_rows_s": "s", "autodiff.softmax_rows_calls": "count",
    "autodiff.softmax_rows_bytes": "bytes",
    "autodiff.matmul_s": "s", "autodiff.matmul_calls": "count",
    "autodiff.matmul_flops": "flop", "autodiff.matmul_gflops": "GFLOP/s",
    "autodiff.backward_s": "s", "autodiff.op_calls": "count",
    "optim.adam_step_s": "s", "optim.adam_step_calls": "count",
    "optim.paramset_copy_s": "s", "optim.paramset_copy_calls": "count",
    "training.run_epochs_s": "s", "training.evaluate_s": "s",
    "training.evaluate_calls": "count",
    "fedsim.build_clients_s": "s", "fedsim.client_update_s": "s",
    "fedsim.client_update_calls": "count", "fedsim.client_update_failed": "count",
    "fedsim.client_overlap": "ratio", "fedsim.fedavg_s": "s",
    "fedsim.evaluate_global_s": "s", "fedsim.bytes_cum": "bytes",
    "fedsim.partition_repairs": "count", "trace.overhead": "ratio",
}

class Command:
    """One finished gnodeformer command: its timings, record and checks.

    ``mode`` is the child's: "run", "trace" or "setup" (stopped where set-up
    ends). A priming command fills caches; only its training loop is measured.
    """

    def __init__(self, index, mode, prime=False):
        self.index, self.mode, self.prime = index, mode, prime
        self.exit_code = None
        self.launch = self.exit = None
        self.maxrss_kb = 0
        self.record = None
        self.outcome = None

    @property
    def ok(self):
        return self.outcome is not None and self.outcome.ok

    @property
    def total_s(self):
        return self.exit - self.launch


def run_command(workload, index, mode, deadline, prime=False):
    """Launch one command in a fresh process and wait for it to exit."""
    cmd = Command(index, mode, prime)
    logs = os.path.join(workload.work, "logs")
    os.makedirs(logs, exist_ok=True)
    record_path = os.path.join(logs, f"{index}.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), record_path,
            f"{workload.name}-{workload.seed}-{index}", mode, "--"] + workload.argv(index)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(workload.blas_threads))
    if workload.fresh_out:
        shutil.rmtree(workload.out, ignore_errors=True)
    with open(os.path.join(logs, f"{index}.out"), "w") as out, \
            open(os.path.join(logs, f"{index}.err"), "w") as err:
        cmd.launch = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(max(1.0, deadline - cmd.launch), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        cmd.exit = time.monotonic()
    proc.returncode = cmd.exit_code = os.waitstatus_to_exitcode(status)
    cmd.maxrss_kb = usage.ru_maxrss
    with open(os.path.join(logs, f"{index}.out")) as fh:
        stdout = fh.read()
    if os.path.exists(record_path):
        with open(record_path) as fh:
            cmd.record = json.load(fh)
    if mode == "setup":
        cmd.outcome = Outcome()
        if cmd.exit_code != 0:
            cmd.outcome.failures.append(f"exit code {cmd.exit_code}")
    else:
        cmd.outcome = workload.check(cmd.exit_code, stdout)
    if cmd.ok and (cmd.record is None or cmd.record["setup_end"] is None):
        cmd.outcome.failures.append("no record of the end of set-up")
    return cmd


def loop_samples(spans):
    """(epoch, eval, round) durations of one command's training loop.

    A central iteration starts at each training step and a federated one at
    each client sampling; the first iteration is warm-up (fresh memory is
    touched for the first time) and is left out.
    """
    loops = [s for s in spans
             if s[NAME] in ("training.train_centralized", "fedsim.run_rounds")]
    if len(loops) != 1:
        return [], [], []
    loop_end = loops[0][END]
    rounds = sorted(s[START] for s in spans if s[NAME] == "fedsim.sample_clients")
    starts = rounds or sorted(
        s[START] for s in spans if s[NAME] == "training.run_epochs")
    if len(starts) < 2:
        return [], [], []
    warm = starts[1]
    bounds = starts[1:] + [loop_end]
    round_s = [b - a for a, b in zip(bounds, bounds[1:])]
    epoch_s = [(s[END] - s[START]) / s[VALUE] for s in spans
               if s[NAME] == "training.run_epochs" and s[START] >= warm and s[VALUE]]
    eval_name = "fedsim.evaluate_global" if rounds else "training.evaluate"
    eval_s = [s[END] - s[START] for s in spans
              if s[NAME] == eval_name and s[START] >= warm and s[END] <= loop_end]
    return epoch_s, eval_s, round_s


def end_to_end(commands):
    """Sample lists of the end-to-end metrics over successful untraced commands.

    Set-up comes from set-up-only and full commands. A priming command runs
    the same training loop as the others, so its loop samples count; its
    set-up, total and memory are of the cold path and do not.
    """
    samples = {name: [] for name in END_TO_END_UNITS}
    for cmd in commands:
        if cmd.mode == "run":
            epoch_s, eval_s, round_s = loop_samples(cmd.record["spans"])
            samples["epoch_s"] += epoch_s
            samples["eval_s"] += eval_s
            samples["round_s"] += round_s
        if cmd.prime:
            continue
        samples["setup_s"].append(cmd.record["setup_end"] - cmd.launch)
        if cmd.mode == "run":
            samples["total_s"].append(cmd.total_s)
            samples["peak_rss_mb"].append(cmd.maxrss_kb / 1024.0)
    return samples


def client_overlap(spans):
    """Client-update busy time over update-phase wall time, per round summed."""
    rounds = sorted(s[START] for s in spans if s[NAME] == "fedsim.sample_clients")
    updates = [s for s in spans if s[NAME] == "fedsim.client_update"]
    busy = wall = 0.0
    for i, start in enumerate(rounds):
        stop = rounds[i + 1] if i + 1 < len(rounds) else float("inf")
        batch = [s for s in updates if start <= s[START] < stop]
        if batch:
            busy += sum(s[END] - s[START] for s in batch)
            wall += max(s[END] for s in batch) - min(s[START] for s in batch)
    return busy / wall if wall > 0 else 0.0


def per_layer(cmd):
    """Per-layer metrics of one traced command."""
    spans, counts = cmd.record["spans"], cmd.record["counts"]
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
    by_name = totals(spans)
    for name, (self_s, calls, _) in by_name.items():
        if f"{name}_s" in metrics:  # span names are the metric prefixes
            metrics[f"{name}_s"] = self_s
        if f"{name}_calls" in metrics:
            metrics[f"{name}_calls"] = calls
    sums = {name: value for name, (_, _, value) in by_name.items()}
    metrics["spectral.cache_bytes_read"] = sums.get("spectral.load_basis", 0)
    metrics["spectral.cache_bytes_written"] = sums.get("spectral.save_basis", 0)
    metrics["autodiff.softmax_rows_bytes"] = sums.get("autodiff.softmax_rows", 0)
    metrics["autodiff.matmul_flops"] = sums.get("autodiff.matmul", 0)
    if metrics["autodiff.matmul_s"]:
        metrics["autodiff.matmul_gflops"] = (
            metrics["autodiff.matmul_flops"] / metrics["autodiff.matmul_s"] / 1e9)
    metrics["fedsim.client_update_failed"] = sums.get("fedsim.client_update", 0)
    for s in spans:
        if s[NAME] == "spectral.load_or_compute":
            miss = has_descendant(spans, s, "spectral.sym_eig")
            metrics["spectral.cache_misses" if miss else "spectral.cache_hits"] += 1
    metrics["spectral.peak_rss_mb"] = (cmd.record["setup_maxrss_kb"] or 0) / 1024.0
    metrics["autodiff.op_calls"] = counts.get("autodiff.op_calls", 0)
    metrics["fedsim.partition_repairs"] = counts.get("fedsim.partition_repairs", 0)
    metrics["fedsim.client_overlap"] = client_overlap(spans)
    metrics["fedsim.bytes_cum"] = cmd.outcome.bytes_cum
    return metrics


def high_percentile(values):
    """(q, value): the highest percentile with at least ten samples above it."""
    if len(values) < 20:
        return None
    q = int(100 * (1 - 10 / len(values)))
    return q, float(np.percentile(values, q))


def fail_counts(commands):
    """(attempted, failed) operations: every command, plus in federated runs
    every client update, an aborted one counting as failed."""
    attempted = len(commands) + sum(c.outcome.client_updates for c in commands)
    failed = (sum(not c.ok for c in commands)
              + sum(c.outcome.client_failures for c in commands))
    return attempted, failed


def _median_row(values, unit):
    top = high_percentile(values)
    tail = f"  p{top[0]} {top[1]:.6g}" if top else ""
    return (statistics.median(values) if values else 0, unit, len(values), tail)


def summarize(commands, trace):
    """(correct, attempted, failed, metrics) of one run's commands, where
    metrics maps name -> (median, unit, sample count, percentile text)."""
    full = [c for c in commands if c.ok and c.mode != "setup"]
    reference = full[0].outcome.deterministic if full else None
    for cmd in full:
        if cmd.outcome.deterministic != reference:
            cmd.outcome.failures.append("metrics.csv differs from the run's first command")
    attempted, failed = fail_counts(commands)
    plain = [c for c in commands if c.ok and c.mode == "run" and not c.prime]
    traced = [c for c in commands if c.ok and c.mode == "trace"]
    correct = all(c.ok for c in commands) and bool(plain) and bool(traced or not trace)

    if not trace:
        samples = end_to_end([c for c in commands if c.ok and c.mode != "trace"])
        return correct, attempted, failed, {
            name: _median_row(samples[name], unit)
            for name, unit in END_TO_END_UNITS.items()}
    layer = [per_layer(c) for c in traced]
    metrics = {name: _median_row([m[name] for m in layer], unit)
               for name, unit in PER_LAYER_UNITS.items()}
    if traced and plain:
        overhead = (statistics.median(c.total_s for c in traced)
                    / statistics.median(c.total_s for c in plain))
        metrics["trace.overhead"] = (overhead, "ratio", len(traced), "")
    return correct, attempted, failed, metrics


def src_digest():
    """Short hash of the program's Python sources, a revision outside git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def git_revision():
    """HEAD's commit read from .git, or None outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed):
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": str(workload.blas_threads),
        "git_revision": git_revision(),
        "src_digest": src_digest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    started = time.monotonic()
    if not os.path.exists(os.path.join(ROOT, "src", "gnodeformer", "cli.py")):
        print(f"no gnodeformer sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    work = os.path.join(WORK, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload.prepare(work, args.seed)

    deadline = started + args.seconds
    hard_deadline = started + RUN_LIMIT_S
    plan = ([("run", True)] * workload.primes
            + [("setup", False)] * (0 if args.trace else SETUP_LAUNCHES))
    full = ["run", "trace"] if args.trace else ["run"]
    commands = []
    while True:
        index = len(commands)
        planned = index < len(plan) + len(full)
        mode, prime = plan[index] if index < len(plan) else (
            full[(index - len(plan)) % len(full)], False)
        cmd = run_command(workload, index, mode, hard_deadline, prime)
        commands.append(cmd)
        if not cmd.ok:
            break
        if (not planned
                and time.monotonic() + NEXT_COMMAND_MARGIN * cmd.total_s > deadline):
            break

    correct, attempted, failed, metrics = summarize(commands, args.trace)
    failed_cmds = [c for c in commands if not c.ok]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(commands)} commands, {len(failed_cmds)} failed")
    for cmd in failed_cmds:
        print(f"  command {cmd.index} failed: {'; '.join(cmd.outcome.failures)}")
    env = environment(workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, samples, tail) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:8s} median of {samples}{tail}")
    print(f"  {'fail_rate':40s} {failed / attempted:14.6g} {'ratio':8s} "
          f"{failed} of {attempted} operations (commands plus client updates)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in metrics.items()},
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        samples = {name: m[2] for name, m in metrics.items()}
        json.dump(dict(result, env=env, samples=samples), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
