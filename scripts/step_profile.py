"""Where a central training step goes: per-step forward, backward and Adam
time, minor page faults and peak RSS.

Builds the SBM graph of --sbm and its eigenbasis, then runs --steps full
training steps of the default model (the `train` command's defaults) at
--rk. Each step is a forward with its loss, a backward and an Adam step,
each timed with perf_counter and counted in minor page faults
(getrusage), under the allocator policy that every command sets
(cli.set_allocator_policy); the last column is the process's peak RSS
(ru_maxrss) after the step. The first step pays one-time costs (imports,
first touch of every buffer), so the summary line is the median of the
later steps.

    python3 scripts/step_profile.py \\
        --sbm 'blocks=500,500,500;p_in=0.02;p_out=0.01;signal=0.6;seed=5' \\
        --rk 4 --blas-threads 2
"""

import argparse
import os
import resource
import statistics
import time

PHASES = ("forward", "backward", "adam")


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

    def forward_loss():
        logits, _ = forward(dataset, basis, config, params, dropout_seed=0)
        return loss_and_metrics(logits, dataset.labels, dataset.train_mask)[0]

    print(f"n={dataset.n} rk={args.rk} "
          f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print("step  forward_ms  backward_ms  adam_ms  "
          "faults_forward  faults_backward  faults_adam  maxrss_mb")
    rows = []
    for step in range(args.steps):
        loss = grad = None
        times, faults = [], []
        for phase in PHASES:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            if phase == "forward":
                loss = forward_loss()
            elif phase == "backward":
                grad = backward(loss, params)
                loss = None
            else:
                adam_step(params, grad, state)
            times.append((time.perf_counter() - start) * 1e3)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        # ru_maxrss is in KiB on Linux
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rows.append((*times, *faults, maxrss))
        print(f"{step:<4}  {times[0]:10.1f}  {times[1]:11.1f}  {times[2]:7.1f}  "
              f"{faults[0]:14d}  {faults[1]:15d}  {faults[2]:11d}  {maxrss:9.1f}")
    medians = [statistics.median(column) for column in zip(*rows[1:])]
    print(f"median of steps 1-{args.steps - 1}: "
          + "  ".join(f"{name} {value:.1f}" for name, value in zip(
              ("forward_ms", "backward_ms", "adam_ms", "faults_forward",
               "faults_backward", "faults_adam", "maxrss_mb"), medians)))


if __name__ == "__main__":
    main()
