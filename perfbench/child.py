"""Runs one gnodeformer command in this (fresh) process and records spans.

    python3 perfbench/child.py RECORD_PATH RUN_ID MODE -- <gnodeformer argv>

The command goes through ``gnodeformer.cli.main``, the function behind the
``gnodeformer`` console script. Before it runs, functions are wrapped at the
import sites the program calls them through (``cli.train_centralized``,
``fedsim.client_update``, ``Tensor.softmax_rows``, ...), so nothing under
``src/`` changes. MODE is one of
  run    only the few boundaries the end-to-end metrics need are wrapped;
  trace  every layer boundary is wrapped as well;
  setup  as run, but the command stops where set-up ends, before the first
         epoch or round, and the process exits with code 0.
The spans are kept in memory and written to RECORD_PATH as JSON when the
command returns, and the process exits with the command's exit code.
"""

import importlib
import json
import logging
import os
import resource
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spans import Recorder  # noqa: E402

# Public Tensor ops; each call adds to autodiff.op_calls when tracing.
TENSOR_OPS = (
    "__add__", "__sub__", "__mul__", "__matmul__", "scale", "__neg__",
    "transpose", "relu", "gelu", "tanh", "sin", "cos", "exp", "log",
    "softmax_rows", "layer_norm_rows", "sum", "mean",
)

REPAIR_MESSAGE = "client %d received no nodes"


def _epochs(args, kwargs, result):
    return kwargs.get("n_epochs", args[5] if len(args) > 5 else 0)


def _matmul_flops(args, kwargs, result):
    a, b = args[0].data.shape, result.data.shape
    return 2 * a[0] * a[1] * b[1]


def _file_size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def probe_sites(m):
    """(owner, attribute, span name, value) wrapped in every run."""
    return [
        (m.cli, "train_centralized", "training.train_centralized", None),
        (m.training, "run_epochs", "training.run_epochs", _epochs),
        (m.training, "evaluate", "training.evaluate", None),
        (m.cli, "run_rounds", "fedsim.run_rounds", None),
        (m.fedsim, "sample_clients", "fedsim.sample_clients", None),
        (m.fedsim, "run_epochs", "training.run_epochs", _epochs),
        (m.fedsim, "evaluate_global", "fedsim.evaluate_global", None),
    ]


def trace_sites(m):
    """(owner, attribute, span name, value) wrapped only in traced runs."""
    failed = lambda args, kwargs, result: int(result[0] is None)
    artifacts = [
        (m.cli, name, "cli.artifacts", None)
        for name in ("save_checkpoint", "write_filter_table", "write_manifest",
                     "write_metrics_csv", "_write_central_csv")
    ]
    return artifacts + [
        (m.cli, "generate_sbm", "graphs.generate_sbm", None),
        (m.cli, "load_dataset", "graphs.load_dataset", None),
        (m.cli, "build_normalized_laplacian", "graphs.build_normalized_laplacian", None),
        (m.fedsim, "build_normalized_laplacian", "graphs.build_normalized_laplacian", None),
        (m.cli, "load_or_compute", "spectral.load_or_compute", None),
        (m.spectral, "sym_eig", "spectral.sym_eig", None),
        (m.fedsim, "sym_eig", "spectral.sym_eig", None),
        (m.spectral, "matrix_digest", "spectral.matrix_digest", None),
        (m.spectral, "load_basis", "spectral.load_basis",
         lambda args, kwargs, result: _file_size(args[0])),
        (m.spectral, "save_basis", "spectral.save_basis",
         lambda args, kwargs, result: _file_size(result)),
        (m.spectral.SpectralBasis, "validate", "spectral.validate", None),
        (m.training, "forward", "model.forward", None),
        (m.cli, "forward", "model.forward", None),
        (m.model, "transformer_layer_f", "model.transformer_layer_f", None),
        (m.model, "spectral_conv_head", "model.spectral_conv_head", None),
        (m.autodiff.Tensor, "softmax_rows", "autodiff.softmax_rows",
         lambda args, kwargs, result: result.data.nbytes),
        (m.autodiff.Tensor, "__matmul__", "autodiff.matmul", _matmul_flops),
        (m.training, "backward", "autodiff.backward", None),
        (m.training, "adam_step", "optim.adam_step", None),
        (m.optim.ParamSet, "copy", "optim.paramset_copy", None),
        (m.cli, "evaluate", "training.evaluate", None),
        (m.fedsim, "evaluate", "training.evaluate", None),
        (m.fedsim, "build_clients", "fedsim.build_clients", None),
        (m.fedsim, "client_update", "fedsim.client_update", failed),
        (m.fedsim, "fedavg", "fedsim.fedavg", None),
    ]


class _RepairCounter(logging.Handler):
    def __init__(self, recorder):
        super().__init__(logging.WARNING)
        self.recorder = recorder

    def emit(self, record):
        if str(record.msg).startswith(REPAIR_MESSAGE):
            self.recorder.count("fedsim.partition_repairs")


class SetupDone(BaseException):
    """Unwinds a set-up-only command past the program's error handlers."""


def install(recorder, trace, stop_after_setup):
    """Wrap the probe sites (and with ``trace`` every layer site); returns
    the dict that receives the set-up end time and peak RSS at that point."""
    m = SimpleNamespace(**{
        name: importlib.import_module(f"gnodeformer.{name}")
        for name in ("cli", "training", "fedsim", "spectral", "model", "autodiff", "optim")
    })
    setup = {}

    def mark_setup_end(fn):
        # set-up ends where the first epoch or round is about to start
        def marked(*args, **kwargs):
            if not setup:
                setup["end"] = time.monotonic()
                setup["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                if stop_after_setup:
                    raise SetupDone
            return fn(*args, **kwargs)
        return marked

    if trace:
        for op in TENSOR_OPS:
            setattr(m.autodiff.Tensor, op,
                    recorder.wrap_count(getattr(m.autodiff.Tensor, op), "autodiff.op_calls"))
        for name in ("dropout", "masked_cross_entropy"):
            setattr(m.model, name,
                    recorder.wrap_count(getattr(m.model, name), "autodiff.op_calls"))
        logging.getLogger("gnodeformer.fedsim").addHandler(_RepairCounter(recorder))
    sites = probe_sites(m) + (trace_sites(m) if trace else [])
    for owner, attr, name, value in sites:
        setattr(owner, attr, recorder.wrap(getattr(owner, attr), name, value))
    m.cli.train_centralized = mark_setup_end(m.cli.train_centralized)
    m.fedsim.sample_clients = mark_setup_end(m.fedsim.sample_clients)
    return setup


def main(argv):
    (record_path, run_id, mode, _), command = argv[:4], argv[4:]
    recorder = Recorder()
    cli = recorder.call("cli.import", importlib.import_module, ("gnodeformer.cli",), {})
    setup = install(recorder, trace=mode == "trace", stop_after_setup=mode == "setup")
    code = 1
    try:
        code = recorder.call("cli.main", cli.main, (command,), {})
    except SetupDone:
        code = 0
    finally:
        with open(record_path, "w") as fh:
            json.dump({
                "run_id": run_id,
                "mode": mode,
                "exit_code": code,
                "setup_end": setup.get("end"),
                "setup_maxrss_kb": setup.get("maxrss_kb"),
                "counts": recorder.counts(),
                "spans": recorder.spans,
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
