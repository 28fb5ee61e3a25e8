"""One-off comparison of the federated workload under --threads {1,2} x
OPENBLAS_NUM_THREADS {1,2}; not a benchmark workload.

    python3 perfbench/thread_matrix.py [--seed N] [--repeats R]

For each setting it runs R untraced and R traced fed-sbm1200-c8-iid commands
and prints a markdown table: median round time (untraced), median whole
command, and from the traced runs the client-update overlap and the summed
self times of the client-side layers.
"""

import argparse
import os
import shutil
import statistics
import sys
import time

import run
from workloads import Fed


def measure(threads, blas_threads, seed, repeats):
    workload = Fed()
    workload.threads, workload.blas_threads = threads, blas_threads
    work = os.path.join(run.WORK, f"thread-matrix-t{threads}-b{blas_threads}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload.prepare(work, seed)
    deadline = time.monotonic() + run.RUN_LIMIT_S * 2 * repeats
    commands = [run.run_command(workload, i, "trace" if i % 2 else "run", deadline)
                for i in range(2 * repeats)]
    bad = [c for c in commands if not c.ok]
    if bad:
        raise SystemExit(f"t{threads} b{blas_threads}: {bad[0].outcome.failures}")
    plain = [c for c in commands if c.mode == "run"]
    layers = [run.per_layer(c) for c in commands if c.mode == "trace"]
    rounds = [s for c in plain for s in run.loop_samples(c.record["spans"])[2]]

    def layer(name):
        return statistics.median(m[name] for m in layers)

    return {
        "round_s": statistics.median(rounds),
        "total_s": statistics.median(c.total_s for c in plain),
        "overlap": layer("fedsim.client_overlap"),
        "backward_s": layer("autodiff.backward_s"),
        "softmax_s": layer("autodiff.softmax_rows_s"),
        "matmul_s": layer("autodiff.matmul_s"),
        "adam_s": layer("optim.adam_step_s"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args(argv)
    print("| --threads | OPENBLAS_NUM_THREADS | round_s | total_s | client_overlap "
          "| backward_s | softmax_rows_s | matmul_s | adam_step_s |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for threads in (1, 2):
        for blas_threads in (1, 2):
            m = measure(threads, blas_threads, args.seed, args.repeats)
            print(f"| {threads} | {blas_threads} | {m['round_s']:.3f} | {m['total_s']:.2f} "
                  f"| {m['overlap']:.2f} | {m['backward_s']:.2f} | {m['softmax_s']:.2f} "
                  f"| {m['matmul_s']:.2f} | {m['adam_s']:.2f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
