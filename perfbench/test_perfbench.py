"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import re
import subprocess
import sys

import pytest

import run
from spans import Recorder, self_times, totals
from workloads import Outcome, check_fed

HERE = os.path.dirname(os.path.abspath(__file__))
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def span(span_id, parent, name, start, end, value=0, thread=1):
    return (span_id, parent, name, thread, start, end, value)


def test_self_time_subtracts_union_of_children():
    spans = [
        span(1, 0, "root", 0.0, 10.0),
        span(2, 1, "a", 1.0, 4.0),
        span(3, 1, "b", 3.0, 6.0, thread=2),  # overlaps a on another thread
        span(4, 2, "leaf", 2.0, 3.0),
        span(5, 1, "late", 9.0, 12.0),  # reaches past its parent: clipped
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


def test_totals_sum_self_time_calls_and_values_per_name():
    spans = [
        span(1, 0, "outer", 0.0, 4.0),
        span(2, 1, "op", 0.0, 1.0, value=10),
        span(3, 1, "op", 2.0, 3.0, value=5),
    ]
    assert totals(spans)["op"] == (pytest.approx(2.0), 2, 15)
    assert totals(spans)["outer"][0] == pytest.approx(2.0)


def test_recorder_parents_spans_and_counts_per_thread():
    rec = Recorder()
    inner = rec.wrap(lambda x: x + 1, "inner")
    outer = rec.wrap(lambda x: inner(x) * 2, "outer", lambda a, k, r: r)
    assert outer(1) == 4
    by_name = {s[2]: s for s in rec.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["outer"][6] == 4
    counted = rec.wrap_count(len, "ops")
    counted("ab")
    counted("c")
    assert rec.counts() == {"ops": 2}


def _write_fed_metrics(path, rows):
    header = "round,client_id,loss,accuracy,bytes_cum,epoch_seconds"
    path.write_text("\n".join([header] + rows) + "\n")


def test_fail_rate_counts_aborted_client_update(tmp_path):
    _write_fed_metrics(tmp_path / "metrics.csv", [
        "0,0,0.9,0.5,100,0.01",
        "0,1,nan,nan,100,nan",
        "0,global,0.8,0.6,100,0.01",
    ])
    outcome = check_fed(0, "round 0: global accuracy 0.6000, 100 bytes", str(tmp_path), 0.5)
    assert outcome.ok
    assert (outcome.client_updates, outcome.client_failures) == (2, 1)
    cmd = run.Command(0, "run")
    cmd.outcome = outcome
    assert run.fail_counts([cmd]) == (3, 1)


def test_failed_command_and_global_nan_count_against_the_run(tmp_path):
    _write_fed_metrics(tmp_path / "metrics.csv", ["0,0,0.9,0.5,100,0.01",
                                                  "0,global,nan,0.6,100,0.01"])
    bad_loss = run.Command(0, "run")
    bad_loss.outcome = check_fed(0, "global accuracy 0.6000", str(tmp_path), 0.5)
    crashed = run.Command(1, "run")
    crashed.outcome = check_fed(4, "", str(tmp_path), 0.5)
    assert not bad_loss.ok and not crashed.ok
    assert run.fail_counts([bad_loss, crashed]) == (3, 2)


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_match_benchmark_json():
    bench = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == run.PER_LAYER_UNITS
    for name in list(run.END_TO_END_UNITS) + list(run.PER_LAYER_UNITS):
        assert NAME_RE.match(name), name
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)


def _fabricated_command(mode):
    cmd = run.Command(0, mode)
    cmd.launch, cmd.exit, cmd.maxrss_kb = 0.0, 5.0, 2048
    cmd.outcome = Outcome(deterministic=[])
    cmd.record = {
        "setup_end": 1.0, "setup_maxrss_kb": 1024,
        "counts": {"autodiff.op_calls": 7},
        "spans": [
            span(1, 0, "cli.main", 0.5, 4.5),
            span(2, 1, "training.train_centralized", 1.0, 4.0),
            span(3, 2, "training.run_epochs", 1.0, 2.0, value=1),
            span(4, 2, "training.evaluate", 2.0, 2.5),
            span(5, 2, "training.run_epochs", 2.5, 3.0, value=1),
            span(6, 2, "training.evaluate", 3.0, 3.5),
            span(7, 5, "autodiff.matmul", 2.5, 2.75, value=2e9),
        ],
    }
    return cmd


def test_printed_metrics_are_the_declared_ones():
    commands = [_fabricated_command("run"), _fabricated_command("trace")]
    correct, attempted, failed, plain = run.summarize(commands[:1], trace=0)
    assert (correct, attempted, failed) == (True, 1, 0)
    assert list(plain) == list(run.END_TO_END_UNITS)
    assert plain["epoch_s"][0] == pytest.approx(0.5)  # first epoch is warm-up
    assert plain["round_s"][0] == pytest.approx(1.5)
    assert plain["setup_s"][0] == pytest.approx(1.0)
    correct, _, _, layer = run.summarize(commands, trace=1)
    assert correct
    assert list(layer) == list(run.PER_LAYER_UNITS)
    assert layer["autodiff.matmul_gflops"][0] == pytest.approx(8.0)
    assert layer["training.run_epochs_s"][0] == pytest.approx(1.25)


def test_commands_that_disagree_on_metrics_fail_the_run():
    first, second = _fabricated_command("run"), _fabricated_command("run")
    second.outcome.deterministic = [["0", "1.0"]]
    correct, attempted, failed, _ = run.summarize([first, second], trace=0)
    assert not correct and (attempted, failed) == (2, 1)


@pytest.mark.parametrize("argv, expected", [
    (["fed-train", "--sbm", "blocks=30,30;p_in=0.2;p_out=0.02", "--clients", "2",
      "--rounds", "2", "--local-epochs", "1", "--threads", "2"],
     {"fedsim.build_clients", "fedsim.client_update", "fedsim.fedavg",
      "fedsim.evaluate_global", "fedsim.sample_clients", "spectral.sym_eig",
      "optim.paramset_copy", "autodiff.softmax_rows", "autodiff.backward"}),
    (["train", "--sbm", "blocks=30,30;p_in=0.2;p_out=0.02", "--epochs", "2"],
     {"training.train_centralized", "spectral.load_or_compute", "spectral.save_basis",
      "spectral.matrix_digest", "spectral.validate", "model.transformer_layer_f",
      "model.spectral_conv_head", "optim.adam_step", "cli.artifacts"}),
])
def test_traced_child_reaches_every_import_site(tmp_path, argv, expected):
    record = tmp_path / "record.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), str(record), "t", "trace", "--",
         *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    data = json.loads(record.read_text())
    names = {s[2] for s in data["spans"]}
    assert expected <= names
    assert data["counts"]["autodiff.op_calls"] > 0
    assert data["setup_end"] is not None


def test_setup_only_child_stops_before_the_first_epoch(tmp_path):
    record, out = tmp_path / "record.json", tmp_path / "out"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), str(record), "t", "setup", "--",
         "train", "--sbm", "blocks=30,30;p_in=0.2;p_out=0.02", "--epochs", "2",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    data = json.loads(record.read_text())
    assert data["setup_end"] is not None
    assert "training.run_epochs" not in {s[2] for s in data["spans"]}
    assert not (out / "metrics.csv").exists()
