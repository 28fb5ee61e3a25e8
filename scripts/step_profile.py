"""Where a central training step goes: per-step forward, backward, Adam
and eval time, minor page faults and peak memory.

Builds the SBM graph of --sbm and its eigenbasis, then runs --steps full
training steps of the default model (the `train` command's defaults) at
--rk. Each step is a forward with its loss, a backward and an Adam step,
then an eval: the validation forward and loss at the new parameters over
a detached view (params.detached()), which builds no graph, as every
forward that no step takes does. Each phase is timed with perf_counter
and counted in minor page faults (getrusage), under the allocator policy
that every command sets (cli.set_allocator_policy); the last column is
the process's peak RSS (ru_maxrss) after the step. The first step pays
one-time costs (imports, first touch of every buffer), so the median
line covers the later steps.

ru_maxrss is one high-water mark for the whole process, so the last line
gives each phase's own peak: the most memory it allocated beyond what it
started with, traced by tracemalloc in step 0. Step 0 starts on an empty
attention pool, so the forward's peak counts the n x n arrays it holds
for the backward; the eval forward holds none.

    python3 scripts/step_profile.py \\
        --sbm 'blocks=500,500,500;p_in=0.02;p_out=0.01;signal=0.6;seed=5' \\
        --rk 4 --blas-threads 2
"""

import argparse
import os
import resource
import statistics
import time
import tracemalloc

PHASES = ("forward", "backward", "adam", "eval")


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--sbm", required=True, help="SBM spec, as for `train --sbm`")
    parser.add_argument("--rk", type=int, default=4, choices=(1, 2, 4))
    parser.add_argument("--blas-threads", type=int, default=None,
                        help="BLAS thread count (default: the environment's)")
    parser.add_argument("--steps", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.steps < 2:
        parser.error("--steps must be at least 2: the first one warms up")
    # read by the BLAS library when numpy loads it, so set before importing
    if args.blas_threads is not None:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[name] = str(args.blas_threads)

    from gnodeformer.autodiff import backward
    from gnodeformer.cli import parse_sbm_spec, set_allocator_policy
    from gnodeformer.graphs import build_normalized_laplacian, generate_sbm
    from gnodeformer.model import ModelConfig, forward, init_params, loss_and_metrics
    from gnodeformer.optim import AdamConfig, adam_step, init_optimizer
    from gnodeformer.spectral import sym_eig

    set_allocator_policy()
    dataset = generate_sbm(parse_sbm_spec(args.sbm))
    basis = sym_eig(build_normalized_laplacian(dataset), unit_band=True)
    config = ModelConfig(
        feature_dim=dataset.feature_dim, classes=dataset.num_classes, rk_order=args.rk
    )
    params = init_params(config, args.seed)
    state = init_optimizer(params, AdamConfig(lr=0.01))

    def loss_at(ps, mask, dropout_seed=None):
        logits, _ = forward(dataset, basis, config, ps, dropout_seed)
        return loss_and_metrics(logits, dataset.labels, mask)[0]

    columns = ([f"{phase}_ms" for phase in PHASES]
               + [f"faults_{phase}" for phase in PHASES] + ["maxrss_mb"])
    print(f"n={dataset.n} rk={args.rk} "
          f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print("step  " + "  ".join(columns))
    rows, peaks = [], []
    for step in range(args.steps):
        loss = grad = None
        times, faults = [], []
        for phase in PHASES:
            if step == 0:
                tracemalloc.start()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            if phase == "forward":
                loss = loss_at(params, dataset.train_mask, dropout_seed=0)
            elif phase == "backward":
                grad = backward(loss, params)
                loss = None
            elif phase == "adam":
                adam_step(params, grad, state)
            else:
                loss_at(params.detached(), dataset.val_mask)
            times.append((time.perf_counter() - start) * 1e3)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            if step == 0:
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()
        # ru_maxrss is in KiB on Linux
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rows.append((*times, *faults, maxrss))
        print(f"{step:<4}  " + "  ".join(
            f"{value:{len(name)}.1f}" if name.endswith(("_ms", "_mb"))
            else f"{value:{len(name)}d}"
            for name, value in zip(columns, rows[-1])))
    medians = [statistics.median(column) for column in zip(*rows[1:])]
    print(f"median of steps 1-{args.steps - 1}: "
          + "  ".join(f"{name} {value:.1f}" for name, value in zip(columns, medians)))
    print("traced peak_mb of step 0: "
          + "  ".join(f"{phase} {peak:.2f}" for phase, peak in zip(PHASES, peaks)))


if __name__ == "__main__":
    main()
