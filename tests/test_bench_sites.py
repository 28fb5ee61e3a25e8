"""The benchmark wraps program functions by name (perfbench/child.py);
a rename or deletion under src/ that drops one of those names would
crash every traced benchmark run, so the names are checked here."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from gnodeformer import autodiff, cli, fedsim, model, optim, spectral, training

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def child(monkeypatch):
    # child.py imports its sibling spans.py and prepends src/ to sys.path;
    # syspath_prepend restores sys.path afterwards
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists(child):
    m = SimpleNamespace(
        cli=cli, training=training, fedsim=fedsim, spectral=spectral,
        model=model, autodiff=autodiff, optim=optim,
    )
    sites = child.probe_sites(m) + child.trace_sites(m)
    sites += [(autodiff.Tensor, op, None, None) for op in child.TENSOR_OPS]
    sites += [(model, name, None, None) for name in ("dropout", "masked_cross_entropy")]
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in sites
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
