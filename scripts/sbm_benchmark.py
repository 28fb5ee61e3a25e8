"""Centralized benchmark on homophilic and heterophilic synthetic graphs.

Trains the same model on two 300-node SBMs whose within/between edge
probabilities are swapped, then reports test accuracy and per-epoch
wall time for the requested integration orders.
"""

import argparse
import time

from gnodeformer.graphs import SbmConfig, build_normalized_laplacian, generate_sbm
from gnodeformer.model import ModelConfig
from gnodeformer.optim import AdamConfig
from gnodeformer.spectral import sym_eig
from gnodeformer.training import evaluate, train_centralized


def benchmark(name: str, sbm: SbmConfig, rk_order: int, args) -> None:
    dataset = generate_sbm(sbm)
    basis = sym_eig(build_normalized_laplacian(dataset), unit_band=True)
    config = ModelConfig(
        feature_dim=dataset.feature_dim,
        classes=dataset.num_classes,
        d=16,
        heads=2,
        layers=2,
        rk_order=rk_order,
        hidden=64,
    )
    start = time.perf_counter()
    params, history, _ = train_centralized(
        dataset, basis, config, AdamConfig(lr=args.lr), args.epochs, args.seed
    )
    wall = time.perf_counter() - start
    _, accuracy, _ = evaluate(dataset, basis, config, params, dataset.test_mask)
    print(
        f"{name:<12} rk{rk_order}  test_acc={accuracy:.3f}  "
        f"epochs={len(history)}  {wall / len(history) * 1000:6.1f} ms/epoch"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--lr", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rk", type=int, nargs="+", default=[2, 4], choices=(1, 2, 4))
    args = parser.parse_args()

    homophilic = SbmConfig(
        block_sizes=(100, 100, 100), p_in=0.10, p_out=0.01, seed=args.seed
    )
    heterophilic = SbmConfig(
        block_sizes=(100, 100, 100), p_in=0.01, p_out=0.10, seed=args.seed
    )
    for rk_order in args.rk:
        benchmark("homophilic", homophilic, rk_order, args)
        benchmark("heterophilic", heterophilic, rk_order, args)


if __name__ == "__main__":
    main()
