"""Shared test oracles.

central_difference_grads is the independent gradient check: it knows
nothing about the backward rules and just perturbs raw parameter
storage one entry at a time; named_grads is backward's flat gradient
read back by name. reference_train_centralized is the epoch
loop without forward reuse: every step runs its own forward, then the
validation forward runs again at the new parameters.
reference_normalized_laplacian is the dense-adjacency Laplacian formula
that the edge-list one must reproduce bit for bit.
reconstruct_basis and spectral_filter_apply apply a spectral filter
through a basis, as references for the eigensolver and the model's
head. package_env sets up child processes that import the package
under test. no_masks gives a graph-only dataset its three empty masks.
"""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np

import gnodeformer
from gnodeformer.autodiff import backward
from gnodeformer.model import init_params
from gnodeformer.optim import ParamSet, init_optimizer
from gnodeformer.training import evaluate, run_epochs


def package_env():
    """os.environ with PYTHONPATH led by the directory holding the imported
    gnodeformer, so a child process imports the copy under test whatever
    its working directory or any installed copy."""
    src_dir = str(Path(gnodeformer.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    return env


def no_masks(n):
    """GraphDataset's three masks, all empty: for a graph-only dataset,
    which trains and scores no node."""
    return {k: np.zeros(n, dtype=bool) for k in ("train_mask", "val_mask", "test_mask")}


def named_grads(loss, tensors):
    """backward's gradient of ``loss`` for a name -> Tensor dict, as name ->
    array. The tensors are gathered into one ParamSet, so their data
    becomes views of its buffer (the values do not change)."""
    params = ParamSet(tensors)
    flat = backward(loss, params)
    return {name: t.data for name, t in params.like(flat).items()}


def central_difference_grads(func, tensors, h=1e-5):
    """Finite-difference gradients of a scalar-valued recomputation.

    func must rebuild the loss from the tensors' current .data and
    return a scalar Tensor. Returns one gradient array per tensor.
    """
    grads = []
    for t in tensors:
        flat = t.data.ravel()
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = func().item()
            flat[i] = orig - h
            fm = func().item()
            flat[i] = orig
            g[i] = (fp - fm) / (2.0 * h)
        grads.append(g.reshape(t.data.shape))
    return grads


def max_rel_err(got, want, floor=1e-6):
    """Infinity-norm relative error with an absolute floor to avoid
    dividing by a vanishing reference gradient.
    """
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want).max() / max(np.abs(want).max(), floor)


def reference_train_centralized(
    dataset, basis, config, optimizer, epochs, seed, patience=None
):
    """train_centralized as one training step then one evaluate per
    epoch, each with its own forward. Returns (params, history)."""
    params = init_params(config, seed)
    state = init_optimizer(params, optimizer)
    has_val = bool(dataset.val_mask.any())
    track_best = patience is not None and has_val
    history = []
    best_accuracy, best_params, stale = -1.0, None, 0
    for epoch in range(epochs):
        record = run_epochs(dataset, basis, config, params, state, 1, seed, epoch)[0]
        if has_val:
            val_loss, val_accuracy, _ = evaluate(
                dataset, basis, config, params, dataset.val_mask
            )
            record = replace(record, val_loss=val_loss, val_accuracy=val_accuracy)
        history.append(record)
        if track_best:
            if record.val_accuracy > best_accuracy:
                best_accuracy = record.val_accuracy
                best_params, stale = params.copy(), 0
            else:
                stale += 1
                if stale >= patience:
                    break
    if track_best and best_params is not None:
        params = best_params
    return params, history


def dense_adjacency(dataset):
    """The dataset's edges as a symmetric 0/1 float matrix."""
    a = np.zeros((dataset.n, dataset.n))
    u, v = dataset.edges.T
    a[u, v] = a[v, u] = 1.0
    return a


def reference_normalized_laplacian(a):
    """I - D^{-1/2} A D^{-1/2} computed on the dense adjacency ``a``."""
    deg = a.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = deg[nz] ** -0.5
    lap = inv_sqrt[:, None] * a
    lap *= inv_sqrt[None, :]
    np.subtract(0.0, lap, out=lap)
    lap.flat[:: a.shape[0] + 1] += 1.0
    return lap


def reconstruct_basis(basis, new_eigenvalues):
    """U diag(g) U^T, symmetrised, for a replacement eigenvalue vector g."""
    g = np.asarray(new_eigenvalues, dtype=np.float64)
    out = basis.eigenvectors @ (g[:, None] * basis.eigenvectors.T)
    return (out + out.T) / 2.0


def spectral_filter_apply(u, ut, gamma_col, h):
    """U diag(g) U^T h on Tensors, without the n x n filter matrix."""
    return u @ (gamma_col * (ut @ h))
