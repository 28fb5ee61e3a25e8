import csv
import io
import shutil
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gnodeformer import cli, graphs, training
from gnodeformer.cli import main, parse_sbm_spec
from gnodeformer.errors import ConfigError
from gnodeformer.graphs import GraphDataset, split_masks
from gnodeformer.model import EPSILON_MAX
from gnodeformer.optim import load_checkpoint
from gnodeformer.seeding import MASKS, derive_seed
from tests.helpers import package_env

TINY_SBM = "blocks=20,20,20;p_in=0.3;p_out=0.03;feature_dim=8;seed=1"
SMALL_MODEL = ["--width", "8", "--heads", "2", "--layers", "1", "--hidden", "8"]


def run_cli(*argv):
    return main([str(a) for a in argv])


def run_child(*argv):
    """``python -m gnodeformer argv`` in a child process. A hang fails the
    test after 60 s rather than stalling the suite, and an uncaught error
    shows as a traceback on stderr."""
    return subprocess.run(
        [sys.executable, "-m", "gnodeformer", *(str(a) for a in argv)],
        capture_output=True, text=True, env=package_env(), timeout=60,
    )


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def settings_of(command):
    """The actions that a ``command`` manifest records."""
    return cli.build_parser().parse_args([command, "--out", "x"]).settings


def setting_keys():
    return {a.dest for c in ("train", "fed-train") for a in settings_of(c)}


def other_value(action):
    """A value of ``action``'s option that is not its default."""
    if action.nargs == 0:
        return not action.default
    if action.choices:
        return next(c for c in action.choices if c != action.default)
    if action.type in (int, cli.non_negative_int, cli.positive_int):
        return (action.default or 0) + 3
    if action.type is float:
        return (action.default or 0.0) + 1 / 3
    return f"{action.dest}-value"


class TestParseSbmSpec:
    def test_full_spec(self):
        cfg = parse_sbm_spec(
            "blocks=10,20;p_in=0.5;p_out=0.1;feature_dim=4;signal=2.0;seed=7"
        )
        assert cfg.block_sizes == (10, 20)
        assert cfg.p_in == 0.5
        assert cfg.p_out == 0.1
        assert cfg.feature_dim == 4
        assert cfg.signal == 2.0
        assert cfg.seed == 7

    def test_defaults(self):
        cfg = parse_sbm_spec("blocks=5,5;p_in=0.4;p_out=0.2")
        assert cfg.feature_dim == 16
        assert cfg.signal == 1.0
        assert cfg.seed == 0

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing"):
            parse_sbm_spec("blocks=5,5;p_in=0.4")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_sbm_spec("blocks=5,5;p_in=0.4;p_out=0.2;bogus=1")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="sbm spec"):
            parse_sbm_spec("blocks=5,x;p_in=0.4;p_out=0.2")

    def test_not_key_value(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_sbm_spec("blocks=5,5;nonsense;p_in=0.1;p_out=0.1")


class TestGenData:
    def test_writes_dataset_and_summary(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run_cli("gen-data", "--sbm", TINY_SBM, "--out", out) == 0
        for fname in ("meta", "edges", "features", "labels"):
            assert (out / fname).exists()
        text = capsys.readouterr().out
        assert "n=60" in text
        assert "classes=3" in text
        assert "homophily=" in text

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("gen-data", "--sbm", TINY_SBM, "--out", a)
        run_cli("gen-data", "--sbm", TINY_SBM, "--out", b)
        for fname in ("meta", "edges", "features", "labels"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes()

    def test_homophilic_ratio(self, tmp_path, capsys):
        spec = "blocks=50,50,50;p_in=0.3;p_out=0.01;seed=2"
        run_cli("gen-data", "--sbm", spec, "--out", tmp_path / "h")
        ratio = float(capsys.readouterr().out.split("homophily=")[1])
        assert ratio > 0.8

    def test_equal_probabilities_match_class_share_squares(self, tmp_path, capsys):
        # with p_in == p_out edges ignore labels, so the same-label edge
        # fraction approaches the sum of squared class shares (1/3 here)
        spec = "blocks=100,100,100;p_in=0.05;p_out=0.05;seed=3"
        run_cli("gen-data", "--sbm", spec, "--out", tmp_path / "u")
        ratio = float(capsys.readouterr().out.split("homophily=")[1])
        assert abs(ratio - 1.0 / 3.0) < 0.05


class TestTrain:
    def test_artifacts_and_learning(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            "train", "--sbm", TINY_SBM, *SMALL_MODEL,
            "--epochs", 30, "--lr", 0.05, "--seed", 0, "--out", out,
        )
        assert code == 0
        rows = read_csv(out / "metrics.csv")
        assert rows[0] == [
            "epoch", "train_loss", "train_accuracy",
            "val_loss", "val_accuracy", "seconds",
        ]
        assert len(rows) == 31
        assert float(rows[-1][1]) < float(rows[1][1])
        params = load_checkpoint(out / "checkpoint.bin")
        assert params.flat.size > 0
        filters = (out / "filters.txt").read_text().splitlines()
        assert filters[0].startswith("gamma_original channel0")
        accuracy = float(capsys.readouterr().out.split("test accuracy ")[1].split()[0])
        assert accuracy > 0.5

    def test_old_symmetrize_key_is_skipped(self, tmp_path):
        # manifests written before --symmetrize retired record symmetrize=;
        # replay skips it, since the loader always reads edges as undirected
        data = tmp_path / "data"
        assert run_cli("gen-data", "--sbm", TINY_SBM, "--out", data) == 0
        first = tmp_path / "first"
        assert run_cli(
            "train", "--dataset", data, *SMALL_MODEL, "--epochs", 2, "--out", first,
        ) == 0
        text = (first / "manifest.txt").read_text()
        assert not any(line.startswith("symmetrize=") for line in text.splitlines())
        checkpoints = {}
        for line in ("", "symmetrize=true\n", "symmetrize=false\n"):
            manifest = tmp_path / f"manifest{len(checkpoints)}.txt"
            manifest.write_text(text + line)
            out = tmp_path / f"replay{len(checkpoints)}"
            assert run_cli("train", "--from-manifest", manifest, "--out", out) == 0
            checkpoints[line] = (out / "checkpoint.bin").read_bytes()
        assert checkpoints[""] == (first / "checkpoint.bin").read_bytes()
        assert checkpoints["symmetrize=true\n"] == checkpoints[""]
        assert checkpoints["symmetrize=false\n"] == checkpoints[""]

    def test_symmetrize_flag_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--sbm", TINY_SBM, "--symmetrize", "--out", tmp_path / "x")
        assert exc.value.code == 2

    def test_zero_epochs_near_chance(self, tmp_path, capsys):
        out = tmp_path / "run"
        spec = "blocks=100,100,100;p_in=0.1;p_out=0.01;feature_dim=8;seed=1"
        run_cli("train", "--sbm", spec, *SMALL_MODEL, "--epochs", 0, "--out", out)
        accuracy = float(capsys.readouterr().out.split("test accuracy ")[1].split()[0])
        assert accuracy < 0.6
        assert read_csv(out / "metrics.csv") == [
            ["epoch", "train_loss", "train_accuracy",
             "val_loss", "val_accuracy", "seconds"]
        ]

    @staticmethod
    def _count_phases(monkeypatch):
        phases = []
        real_train = cli.train_centralized

        def train(*args, **kwargs):
            result = real_train(*args, **kwargs)
            phases.append("trained")
            return result

        def counted(module):
            real = module.forward

            def forward(*args, **kwargs):
                phases.append("forward")
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "forward", forward)

        monkeypatch.setattr(cli, "train_centralized", train)
        counted(cli)
        counted(training)
        return phases

    def test_one_forward_after_training(self, tmp_path, monkeypatch):
        # filters.txt and the test score share one eval forward: the last
        # validation forward, made inside training
        phases = self._count_phases(monkeypatch)
        out = tmp_path / "run"
        assert run_cli(
            "train", "--sbm", TINY_SBM, *SMALL_MODEL, "--epochs", 3, "--out", out
        ) == 0
        assert phases == ["forward"] * 4 + ["trained"]

    def test_one_forward_after_patience_restore(self, tmp_path, monkeypatch):
        # restored params have no forward yet: filters.txt and the test
        # score share one eval forward
        phases = self._count_phases(monkeypatch)
        out = tmp_path / "run"
        epochs = 30
        assert run_cli(
            "train", "--sbm", TINY_SBM, *SMALL_MODEL, "--epochs", epochs,
            "--lr", "0.3", "--patience", 1, "--out", out,
        ) == 0
        assert len(read_csv(out / "metrics.csv")) - 1 < epochs
        assert phases[-2:] == ["trained", "forward"]
        assert phases.count("trained") == 1

    def test_manifest_replay_reproduces_metrics(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        run_cli(
            "train", "--sbm", TINY_SBM, *SMALL_MODEL,
            "--epochs", 5, "--dropout", "0.2", "--seed", 3, "--out", first,
        )
        code = run_cli(
            "train", "--from-manifest", first / "manifest.txt", "--out", second,
        )
        assert code == 0
        a = [r[:5] for r in read_csv(first / "metrics.csv")]
        b = [r[:5] for r in read_csv(second / "metrics.csv")]
        assert a == b
        assert (first / "checkpoint.bin").read_bytes() == (
            second / "checkpoint.bin"
        ).read_bytes()

    def test_manifest_settings_beat_flags(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        run_cli(
            "train", "--sbm", TINY_SBM, *SMALL_MODEL,
            "--epochs", 2, "--seed", 3, "--out", first,
        )
        code = run_cli(
            "train", "--from-manifest", first / "manifest.txt",
            "--epochs", 5, "--out", second,
        )
        assert code == 0
        assert len(read_csv(second / "metrics.csv")) == 1 + 2
        assert "epochs=2" in (second / "manifest.txt").read_text().splitlines()

    @pytest.mark.parametrize("command", ["train", "fed-train"])
    def test_manifest_carries_every_setting(self, tmp_path, command):
        parser = cli.build_parser()
        args = parser.parse_args([command, "--out", "x"])
        # every option but --out and --from-manifest is a recorded setting
        options = set(vars(args)) - {
            "command", "func", "settings", "verbose", "out", "from_manifest"
        }
        assert {a.dest for a in args.settings} == options
        for action in args.settings:
            setattr(args, action.dest, other_value(action))
        manifest = tmp_path / "manifest.txt"
        cli.write_manifest(manifest, cli.manifest_entries(args))
        replayed = cli.apply_manifest(parser.parse_args([command, "--out", "x"]), manifest)
        for action in args.settings:
            assert getattr(replayed, action.dest) == getattr(args, action.dest), action.dest
            assert getattr(replayed, action.dest) != action.default, action.dest

    def test_wrong_manifest_command_rejected(self, tmp_path, capsys):
        out = tmp_path / "a"
        run_cli("train", "--sbm", TINY_SBM, *SMALL_MODEL, "--epochs", 0, "--out", out)
        code = run_cli("fed-train", "--from-manifest", out / "manifest.txt",
                       "--out", tmp_path / "b")
        assert code == 2

    @pytest.mark.parametrize(
        "key", sorted(setting_keys() - {"dataset", "sbm", "patience"})
    )
    def test_empty_manifest_value_is_config_error(self, tmp_path, capsys, key):
        # only dataset, sbm and patience take an empty value (None)
        parser = cli.build_parser()
        command = next(
            c for c in ("train", "fed-train")
            if hasattr(parser.parse_args([c, "--out", "x"]), key)
        )
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"command={command}\nsbm={TINY_SBM}\n{key}=\n")
        capsys.readouterr()
        code = run_cli(command, "--from-manifest", manifest, "--out", tmp_path / "o")
        assert code == 2
        assert f"config error: manifest value {key}= is empty" in capsys.readouterr().err

    def test_missing_source_is_config_error(self, tmp_path):
        assert run_cli("train", "--epochs", 1, "--out", tmp_path / "x") == 2

    def test_manifest_naming_both_sources_is_config_error(self, tmp_path, capsys):
        # the parser rejects --dataset with --sbm; a hand-edited manifest
        # that names both must be rejected too, not train on the SBM
        data, first = tmp_path / "data", tmp_path / "first"
        assert run_cli("gen-data", "--sbm", TINY_SBM, "--out", data) == 0
        assert run_cli(
            "train", "--dataset", data, *SMALL_MODEL, "--epochs", 1, "--out", first,
        ) == 0
        text = (first / "manifest.txt").read_text()
        assert "sbm=\n" in text.splitlines(keepends=True)
        manifest = tmp_path / "manifest.txt"
        sbm = "sbm=blocks=30,30;p_in=0.3;p_out=0.03\n"
        manifest.write_text(text.replace("sbm=\n", sbm))
        capsys.readouterr()
        out = tmp_path / "replay"
        assert run_cli("train", "--from-manifest", manifest, "--out", out) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "--dataset" in err and "--sbm" in err
        assert not out.exists()

    def test_dataset_masks_set_without_rebuilding(self, tmp_path, monkeypatch):
        # the load splits the run seed's masks and builds the dataset once:
        # its edge list is canonicalised once and its features scanned once
        data = tmp_path / "data"
        assert run_cli("gen-data", "--sbm", TINY_SBM, "--out", data) == 0
        built, scanned = [], []
        real = GraphDataset.__post_init__
        monkeypatch.setattr(
            GraphDataset, "__post_init__", lambda self: built.append(1) or real(self)
        )
        isfinite = np.isfinite
        monkeypatch.setattr(
            np, "isfinite", lambda a, *rest: scanned.append(a) or isfinite(a, *rest)
        )
        args = cli.build_parser().parse_args(
            ["train", "--dataset", str(data), "--seed", "5", "--out", "x"]
        )
        dataset = cli.load_source(args)
        monkeypatch.undo()
        assert len(built) == 1
        assert sum(a is dataset.features for a in scanned) == 1
        want = split_masks(dataset.labels, derive_seed(5, MASKS, 0))
        got = (dataset.train_mask, dataset.val_mask, dataset.test_mask)
        for mask, expected in zip(got, want):
            np.testing.assert_array_equal(mask, expected)

    def test_gelu_activation(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "train", "--sbm", TINY_SBM, *SMALL_MODEL, "--activation", "gelu",
            "--epochs", 2, "--out", out,
        ) == 0
        assert "activation=gelu" in (out / "manifest.txt").read_text().splitlines()
        assert len(read_csv(out / "metrics.csv")) == 1 + 2


class TestFedTrain:
    def test_degenerate_federation_matches_centralized_cli(self, tmp_path):
        # one client, full participation, 3 rounds x 2 local epochs vs a
        # straight 6-epoch centralized run: identical checkpoints
        data = tmp_path / "data"
        run_cli("gen-data", "--sbm", TINY_SBM, "--out", data)
        central, fed = tmp_path / "central", tmp_path / "fed"
        run_cli(
            "train", "--dataset", data, *SMALL_MODEL,
            "--epochs", 6, "--seed", 5, "--out", central,
        )
        run_cli(
            "fed-train", "--dataset", data, *SMALL_MODEL,
            "--clients", 1, "--fraction-fit", 1.0,
            "--rounds", 3, "--local-epochs", 2, "--seed", 5, "--out", fed,
        )
        assert (central / "checkpoint.bin").read_bytes() == (
            fed / "checkpoint.bin"
        ).read_bytes()

    def test_metrics_schema(self, tmp_path):
        out = tmp_path / "fed"
        run_cli(
            "fed-train", "--sbm", TINY_SBM, *SMALL_MODEL,
            "--clients", 2, "--rounds", 2, "--local-epochs", 1, "--out", out,
        )
        rows = read_csv(out / "metrics.csv")
        assert rows[0] == [
            "round", "client_id", "loss", "accuracy", "bytes_cum", "epoch_seconds",
        ]
        assert len(rows) == 1 + 2 * 3
        assert rows[3][1] == "global"

    def test_checkpoint_every(self, tmp_path):
        out = tmp_path / "fed"
        run_cli(
            "fed-train", "--sbm", TINY_SBM, *SMALL_MODEL,
            "--clients", 2, "--rounds", 4, "--local-epochs", 1,
            "--checkpoint-every", 2, "--out", out,
        )
        assert (out / "checkpoint_round1.bin").exists()
        assert (out / "checkpoint_round3.bin").exists()
        assert not (out / "checkpoint_round0.bin").exists()
        assert not (out / "checkpoint_round2.bin").exists()

    def test_manifest_replay_reproduces_threaded_run(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run_cli(
            "fed-train", "--sbm", "blocks=30,30,30;p_in=0.2;p_out=0.02;feature_dim=8;seed=1",
            *SMALL_MODEL, "--dropout", 0, "--seed", 4, "--clients", 3, "--rounds", 3,
            "--local-epochs", 2, "--threads", 2, "--checkpoint-every", 2, "--out", first,
        ) == 0
        assert run_cli(
            "fed-train", "--from-manifest", first / "manifest.txt", "--out", second,
        ) == 0
        for name in ("checkpoint.bin", "checkpoint_round1.bin"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        a = [r[:5] for r in read_csv(first / "metrics.csv")]
        b = [r[:5] for r in read_csv(second / "metrics.csv")]
        assert a == b

    def test_alpha_sweep_manifests_differ_only_in_alpha(self, tmp_path):
        outs = []
        for alpha in ("0.01", "0.1"):
            out = tmp_path / f"a{alpha}"
            run_cli(
                "fed-train", "--sbm", TINY_SBM, *SMALL_MODEL,
                "--alpha", alpha, "--rounds", 0, "--out", out,
            )
            outs.append(out)
        a = dict(
            line.split("=", 1)
            for line in (outs[0] / "manifest.txt").read_text().splitlines()
        )
        b = dict(
            line.split("=", 1)
            for line in (outs[1] / "manifest.txt").read_text().splitlines()
        )
        differing = {k for k in a if a[k] != b[k]}
        assert differing == {"alpha"}


class TestRk4Contracts:
    """Replay and --threads equality through the RK4 tableau and the
    history norm between layers (layer1/ln_hist), on the graphs of the CI
    contract step. Bit-exact replay is promised at a fixed BLAS thread
    count, so every command runs in a child with one BLAS thread."""

    MODEL = [*SMALL_MODEL, "--layers", 2, "--rk", 4, "--dropout", 0, "--seed", 4]

    @pytest.fixture(autouse=True)
    def one_blas_thread(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    @staticmethod
    def run(*argv):
        result = run_child(*argv)
        assert result.returncode == 0, result.stderr

    @staticmethod
    def assert_same_run(first, second):
        assert (first / "checkpoint.bin").read_bytes() == (
            second / "checkpoint.bin"
        ).read_bytes()
        a = [r[:5] for r in read_csv(first / "metrics.csv")]
        b = [r[:5] for r in read_csv(second / "metrics.csv")]
        assert a == b

    def test_train_replay(self, tmp_path):
        first, second = tmp_path / "train", tmp_path / "replay"
        sbm = "blocks=30,30,30;p_in=0.2;p_out=0.02;feature_dim=8;seed=1"
        self.run("train", "--sbm", sbm, *self.MODEL, "--epochs", 4, "--out", first)
        self.run("train", "--from-manifest", first / "manifest.txt", "--out", second)
        self.assert_same_run(first, second)

    def test_fed_train_threads(self, tmp_path):
        # at alpha 0.1 the clients have 3, 113 and 244 nodes, and the
        # 244-node one runs its updates on the pool under --threads 2
        het = "blocks=120,120,120;p_in=0.01;p_out=0.05;feature_dim=8;seed=1"
        for t in (1, 2):
            self.run(
                "fed-train", "--sbm", het, *self.MODEL, "--clients", 3,
                "--alpha", 0.1, "--rounds", 3, "--local-epochs", 2,
                "--threads", t, "--out", tmp_path / f"het{t}",
            )
        self.assert_same_run(tmp_path / "het1", tmp_path / "het2")


class TestPartitionReport:
    def test_row_count_and_determinism(self, tmp_path, capsys):
        code = run_cli(
            "partition-report", "--sbm", TINY_SBM,
            "--clients", 3, "--alpha", 1.0, "--seeds", 4,
        )
        assert code == 0
        first = capsys.readouterr().out
        table = [l for l in first.splitlines() if not l.startswith("mean_")]
        assert len(table) == 1 + 3 * 4
        run_cli(
            "partition-report", "--sbm", TINY_SBM,
            "--clients", 3, "--alpha", 1.0, "--seeds", 4,
        )
        assert capsys.readouterr().out == first

    def test_high_alpha_near_uniform_histograms(self, tmp_path):
        out = tmp_path / "report.csv"
        spec = "blocks=100,100,100;p_in=0.05;p_out=0.05;seed=0"
        run_cli(
            "partition-report", "--sbm", spec,
            "--clients", 5, "--alpha", 1e6, "--seeds", 3, "--out", out,
        )
        rows = read_csv(out)
        counts = np.array([[int(c) for c in row[3:6]] for row in rows[1:]])
        assert np.abs(counts - 20).max() <= 2

    def test_summary_lines(self, capsys):
        run_cli(
            "partition-report", "--sbm", TINY_SBM,
            "--clients", 2, "--alpha", 100.0, "--seeds", 2,
        )
        text = capsys.readouterr().out
        assert "mean_max_share=" in text
        assert "mean_tv=" in text
        mean_tv = float(text.split("mean_tv=")[1])
        assert 0.0 <= mean_tv <= 1.0


class TestCommReport:
    def test_sorted_table_with_wire_ratio(self, capsys):
        run_cli(
            "comm-report", "--spec", "zebra=10,3", "--spec", "aard=20,4",
            "--width", 16,
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "name,params,bytes"
        names = [l.split(",")[0] for l in lines[1:]]
        assert names == ["aard", "zebra"]
        for line in lines[1:]:
            _, params, nbytes = line.split(",")
            assert int(nbytes) == 4 * int(params)

    def test_params_grow_with_width(self, capsys):
        run_cli("comm-report", "--spec", "x=10,3", "--width", 8)
        narrow = int(capsys.readouterr().out.splitlines()[1].split(",")[1])
        run_cli("comm-report", "--spec", "x=10,3", "--width", 16)
        wide = int(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert wide > narrow

    def test_bad_spec(self, capsys):
        assert run_cli("comm-report", "--spec", "nocomma=12") == 2


def test_import_leaves_scipy_special_unloaded():
    # scipy.special costs about 0.2 s to import, and no command needs it
    probe = "import sys, gnodeformer.cli; print('scipy.special' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=package_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("command", [
    ["train", "--epochs", "2", "--activation", "gelu"],
    ["fed-train", "--clients", "2", "--rounds", "1", "--local-epochs", "1"],
])
def test_commands_run_without_scipy(tmp_path, command):
    # a None entry in sys.modules makes any import of scipy fail; gelu runs
    # in the FFN and the decoder of every model, and in train's head here
    probe = (
        "import sys; sys.modules['scipy'] = None; from gnodeformer.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, *command, "--sbm", TINY_SBM, "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=package_env(), timeout=60,
    )
    assert result.returncode == 0, result.stderr


# a one-token edit of a dataset file: an empty value, nan, inf, -1, 0, a
# huge float, a '#', a byte that is not UTF-8 and a 400-digit number
EDIT_VALUES = [b"", b"nan", b"inf", b"-1", b"0", b"1e308", b"#", b"\xff", b"9" * 400]


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    """The four files of a valid 30-node dataset, as bytes."""
    data = tmp_path_factory.mktemp("fuzz") / "data"
    sbm = "blocks=10,10,10;p_in=0.3;p_out=0.05;feature_dim=4;seed=1"
    assert run_cli("gen-data", "--sbm", sbm, "--out", data) == 0
    return {name: (data / name).read_bytes() for name in ("meta", "edges", "features", "labels")}


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        assert run_cli("train", "--sbm", "p_in=0.5", "--out", tmp_path / "x") == 2

    def test_data_error_is_3(self, tmp_path):
        missing = tmp_path / "nope"
        assert run_cli(
            "train", "--dataset", missing, "--epochs", 1, "--out", tmp_path / "x"
        ) == 3

    @pytest.mark.parametrize(
        "case",
        ["missing_manifest", "manifest_bytes", "edges_bytes", "meta_name_bytes",
         "meta_negative_n", "manifest_no_equals", "meta_no_equals",
         "features_inf", "features_nan", "fed_features_inf", "fed_features_nan",
         "meta_huge_c", "meta_c_above_n"],
    )
    def test_malformed_input_is_data_error(self, tmp_path, capsys, case):
        data = tmp_path / "data"
        assert run_cli("gen-data", "--sbm", TINY_SBM, "--out", data) == 0
        manifest = tmp_path / "manifest.txt"
        argv = ["train", "--dataset", data, "--epochs", 1]
        if case.startswith("fed_"):
            argv = ["fed-train", "--dataset", data, "--clients", 2, "--rounds", 1]
        if "features" in case:
            # node 7's third feature
            rows = (data / "features").read_text().splitlines()
            cells = rows[7].split()
            cells[2] = case.rsplit("_", 1)[1]
            rows[7] = " ".join(cells)
            (data / "features").write_text("\n".join(rows) + "\n")
        if case == "missing_manifest":
            argv = ["train", "--from-manifest", manifest]
        elif case == "manifest_bytes":
            manifest.write_bytes(b"command=train\nepochs=\xff\n")
            argv = ["train", "--from-manifest", manifest]
        elif case == "edges_bytes":
            with open(data / "edges", "ab") as fh:
                fh.write(b"0 \xff1\n")
        elif case == "meta_name_bytes":
            (data / "meta").write_bytes(b"n=60\nf=8\nc=3\nname=\xff\n")
        elif case == "manifest_no_equals":
            manifest.write_text(f"command=train\nsbm={TINY_SBM}\nepochs\n")
            argv = ["train", "--from-manifest", manifest]
        elif case == "meta_no_equals":
            (data / "meta").write_text("n=60\nf=8\nc=3\nname\n")
        elif case == "meta_negative_n":
            (data / "meta").write_text("n=-5\nf=8\nc=3\nname=x\n")
        elif case == "meta_huge_c":
            (data / "meta").write_text("n=60\nf=8\nc=" + "9" * 400 + "\nname=x\n")
        elif case == "meta_c_above_n":
            (data / "meta").write_text("n=60\nf=8\nc=61\nname=x\n")
        capsys.readouterr()
        assert run_cli(*argv, "--out", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "data error:" in err
        if "features" in case:
            assert f"{data}: features hold a non-finite value at node 7, column 2" in err
            assert not (tmp_path / "out" / "metrics.csv").exists()
        if case in ("meta_huge_c", "meta_c_above_n"):
            assert f"data error: {data / 'meta'}: c=" in err
            assert "classes exceed n=60 nodes" in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "case, name, reason",
        [("labels_short", "labels", "59 rows, meta says 60"),
         ("meta_wide_f", "features", "feature matrix (60, 8), meta says (60, 9)"),
         ("meta_not_int", "meta",
          "meta file: invalid literal for int() with base 10: 'sixty'"),
         ("features_past_bound", "features",
          "feature scale 1e+300 at node 7, column 2 passes the bound 1.16e+77")],
    )
    def test_loader_reason_names_its_file(self, tmp_path, capsys, case, name, reason):
        data = tmp_path / "data"
        assert run_cli("gen-data", "--sbm", TINY_SBM, "--out", data) == 0
        if case == "features_past_bound":
            # finite, but past graphs.FEATURE_SCALE_MAX
            rows = (data / "features").read_text().splitlines()
            cells = rows[7].split()
            cells[2] = "-1e300"
            rows[7] = " ".join(cells)
            (data / "features").write_text("\n".join(rows) + "\n")
        elif case == "labels_short":
            rows = (data / "labels").read_text().splitlines()
            (data / "labels").write_text("\n".join(rows[:-1]) + "\n")
        elif case == "meta_wide_f":
            (data / "meta").write_text("n=60\nf=9\nc=3\nname=x\n")
        else:
            (data / "meta").write_text("n=sixty\nf=8\nc=3\nname=x\n")
        capsys.readouterr()
        argv = ["train", "--dataset", data, "--epochs", 1, "--out", tmp_path / "out"]
        assert run_cli(*argv) == 3
        assert capsys.readouterr().err == f"data error: {data / name}: {reason}\n"

    def test_overflowing_gradient_is_numerics_error(self, tmp_path, capsys, monkeypatch):
        # a finite feature of 1e308 gives a finite first gradient whose
        # entries reach 1e306; Adam's second moment would overflow on it.
        # The loader now refuses such a feature (the features_past_bound
        # case above), so the bound is lifted to reach Adam's own guard
        monkeypatch.setattr(graphs, "FEATURE_SCALE_MAX", np.inf)
        data = tmp_path / "data"
        sbm = "blocks=10,10,10;p_in=0.3;p_out=0.05;feature_dim=4;seed=1"
        assert run_cli("gen-data", "--sbm", sbm, "--out", data) == 0
        rows = (data / "features").read_text().splitlines()
        rows[0] = " ".join(["1e308", *rows[0].split()[1:]])
        (data / "features").write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        code = run_cli("train", "--dataset", data, "--epochs", 20, "--out", tmp_path / "out")
        assert code == 4
        assert capsys.readouterr().err == (
            "numerics error: overflowing gradient for 'input_proj/w'; step aborted\n"
        )

    @pytest.mark.parametrize("name", ["features", "labels", "edges"])
    def test_malformed_number_names_its_file(self, tmp_path, capsys, name):
        data = tmp_path / "data"
        assert run_cli("gen-data", "--sbm", TINY_SBM, "--out", data) == 0
        rows = (data / name).read_text().splitlines()
        rows[3] = " ".join(["#", *rows[3].split()[1:]])
        (data / name).write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        argv = ["train", "--dataset", data, "--epochs", 1, "--out", tmp_path / "out"]
        assert run_cli(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {data / name}: could not convert string '#'")
        assert err.count("\n") == 1

    @given(edit=st.data())
    def test_one_token_edit_of_a_dataset_exits_cleanly(self, fuzz_dataset, edit):
        # one token of a valid 30-node dataset replaced, repeated or dropped:
        # the run trains, or exits 2-4 with a one-line reason, never a traceback
        files = dict(fuzz_dataset)
        value = edit.draw(st.sampled_from(EDIT_VALUES), label="value")
        target = edit.draw(st.sampled_from(["meta", "edges", "features", "labels"]))
        lines = files[target].splitlines()
        i = edit.draw(st.integers(0, len(lines) - 1), label="line")
        if target == "meta":
            key = lines[i].partition(b"=")[0]
            how = edit.draw(st.sampled_from(["value", "repeat", "drop"]))
            if how == "value":
                lines[i] = key + b"=" + value
            elif how == "repeat":
                lines.append(lines[i])
            else:
                del lines[i]
        else:
            cells = lines[i].split(b" ")
            cells[edit.draw(st.integers(0, len(cells) - 1), label="cell")] = value
            lines[i] = b" ".join(cells)
        files[target] = b"\n".join(lines) + b"\n"
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "data"
            data.mkdir()
            for name, raw in files.items():
                (data / name).write_bytes(raw)
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = run_cli(
                    "train", "--dataset", data, *SMALL_MODEL, "--epochs", 1,
                    "--out", Path(tmp) / "out",
                )
        assert code in (0, 2, 3, 4)
        if code:
            reason = err.getvalue()
            assert reason.count("\n") == 1, reason
            assert reason.startswith(("config error: ", "data error: ", "numerics error: "))

    def test_repeated_manifest_key_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"command=train\nsbm={TINY_SBM}\nepochs=1\nepochs=3\n")
        capsys.readouterr()
        code = run_cli("train", "--from-manifest", manifest, "--out", tmp_path / "o")
        assert code == 3
        assert "data error: manifest repeats key 'epochs'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "metrics.csv").exists()

    def test_repeated_meta_key_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli("gen-data", "--sbm", TINY_SBM, "--out", data) == 0
        (data / "meta").write_text("n=60\nf=8\nc=3\nc=2\nname=x\n")
        capsys.readouterr()
        code = run_cli("train", "--dataset", data, "--epochs", 1, "--out", tmp_path / "o")
        assert code == 3
        err = capsys.readouterr().err
        assert f"data error: {data / 'meta'}: meta file repeats key 'c'" in err

    def test_repeated_sbm_key_is_config_error(self, tmp_path, capsys):
        code = run_cli("gen-data", "--sbm", TINY_SBM + ";seed=2", "--out", tmp_path / "g")
        assert code == 2
        assert "config error: sbm spec repeats key 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fed-train", "--alpha", "inf"],
            ["partition-report", "--alpha", "inf"],
            ["train", "--lr", "nan"],
            ["train", "--lr", "inf"],
            ["train", "--weight-decay", "nan"],
            ["train", "--epsilon", "nan"],
            ["train", "--epsilon", "inf"],
            ["fed-train", "--epsilon", "1e308"],
            ["fed-train", "--checkpoint-every", "-1"],
            ["partition-report", "--seeds", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_setting_is_config_error(self, tmp_path, capsys, argv):
        out = [] if argv[0] == "partition-report" else ["--out", tmp_path / "out"]
        code = run_cli(*argv, "--sbm", TINY_SBM, *out)
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["gen-data", "--sbm", "blocks=5,-5;p_in=0.5;p_out=0.1"],
             "block sizes must be positive"),
            (["train", "--sbm", TINY_SBM, "--heads", "-2"], "heads=-2 must be >= 1"),
            (["gen-data", "--sbm", "blocks=5,5;p_in=0.5;seed;p_out=0.1"],
             "sbm spec entry 'seed' is not key=value"),
            (["gen-data", "--sbm", f"blocks={'9' * 400};p_in=0.3;p_out=0.05"],
             "SBM blocks sum past numpy's index limit"),
            (["gen-data", "--sbm", f"blocks={np.iinfo(np.intp).max},1;p_in=0.3;p_out=0.05"],
             "SBM blocks sum past numpy's index limit"),
            (["gen-data", "--sbm",
              f"blocks=5,5;p_in=0.3;p_out=0.05;feature_dim={'9' * 400}"],
             "feature_dim past numpy's index limit"),
            (["train", "--sbm", TINY_SBM, "--epsilon", "1e308"],
             "encoding temperature epsilon=1e+308 must be in (0, "),
            (["train", "--sbm", "blocks=10,10,10;p_in=0.3;p_out=0.05;signal=1e308"],
             "feature signal 1e+308 overflows the SBM features"),
            (["train", "--sbm", "blocks=10,10,10;p_in=0.3;p_out=0.05;signal=1e300"],
             "feature signal 1e+300 overflows the SBM features: their scale 1.88e+300 "
             "passes the feature scale bound 1.16e+77"),
            (["train", "--sbm", TINY_SBM, "--hidden", "9" * 400],
             "hidden past numpy's index limit"),
            (["train", "--sbm", TINY_SBM, "--width", "9" * 399 + "8", "--heads", "2"],
             "width d past numpy's index limit"),
            (["train", "--sbm", TINY_SBM, "--layers", "9" * 400],
             "layers past numpy's index limit"),
        ],
        ids=["negative_block", "negative_heads", "sbm_no_equals", "huge_block",
             "blocks_sum_past_intp", "huge_feature_dim", "huge_epsilon",
             "huge_signal", "signal_past_feature_scale", "huge_hidden", "huge_width",
             "huge_layers"],
    )
    def test_config_error_names_its_reason(self, tmp_path, capsys, argv, reason):
        code = run_cli(*argv, "--out", tmp_path / "out")
        assert code == 2
        assert f"config error: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-data", "--sbm", "blocks=5,5;p_in=0.5;p_out=0.1;feature_dim=-1"],
            ["gen-data", "--sbm", "blocks=5,5;p_in=0.5;p_out=0.1;feature_dim=0"],
            ["gen-data", "--sbm", "blocks=5,5;p_in=0.5;p_out=0.1;seed=-1"],
            ["train", "--sbm", TINY_SBM, "--seed", "-1"],
            ["fed-train", "--sbm", TINY_SBM, "--seed", "-1"],
            ["partition-report", "--sbm", TINY_SBM, "--seed", "-1"],
            ["train", "--from-manifest"],  # a manifest holding seed=-1
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_negative_seed_or_feature_width_exits_2(self, tmp_path, argv):
        # 2 from main or from argparse's SystemExit; any other exception
        # would propagate as a traceback
        if argv[-1] == "--from-manifest":
            manifest = tmp_path / "manifest.txt"
            manifest.write_text(f"command=train\nsbm={TINY_SBM}\nepochs=1\nseed=-1\n")
            argv = [*argv, manifest]
        out = tmp_path / "out"
        try:
            code = run_cli(*argv, "--out", out)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--epochs", "-1"],
            ["train", "--patience", "0"],
            ["fed-train", "--rounds", "-1"],
            ["fed-train", "--local-epochs", "-1"],
            ["fed-train", "--clients", "0"],
            ["fed-train", "--threads", "0"],
            ["train", "--from-manifest", "epochs=-1"],
            ["train", "--from-manifest", "patience=0"],
            ["train", "--epsilon", "1e308"],
            ["train", "--from-manifest", "epsilon=1e308"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_refused_setting_exits_2_and_writes_nothing(self, tmp_path, argv):
        # refused before any eigensolve or directory: --out never appears
        if argv[1] == "--from-manifest":
            manifest = tmp_path / "manifest.txt"
            manifest.write_text(f"command=train\nsbm={TINY_SBM}\n{argv[2]}\n")
            argv = [*argv[:2], manifest]
        else:
            argv = [*argv, "--sbm", TINY_SBM]
        out = tmp_path / "out"
        try:
            code = run_cli(*argv, "--out", out)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert not out.exists()

    def test_largest_epsilon_trains_without_warnings(self, tmp_path):
        # epsilon * eigenvalue, and its sine and cosine, stay finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                "train", "--sbm", TINY_SBM, *SMALL_MODEL, "--epochs", 1,
                "--epsilon", repr(EPSILON_MAX), "--out", tmp_path / "out",
            )
        assert code == 0
        metrics = read_csv(tmp_path / "out" / "metrics.csv")
        assert np.isfinite([float(v) for v in metrics[1][1:5]]).all()

    def test_overflowing_signal_is_refused_without_warnings(self, tmp_path):
        # the overflowing product is checked, not reported by numpy
        spec = "blocks=10,10,10;p_in=0.3;p_out=0.05;signal=1e308"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("gen-data", "--sbm", spec, "--out", tmp_path / "g")
        assert code == 2
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("command", ["fed-train", "partition-report"])
    def test_more_clients_than_nodes_is_config_error(self, tmp_path, command):
        out = tmp_path / "out" if command == "fed-train" else tmp_path / "report.csv"
        result = run_child(
            command, "--sbm", "blocks=3,3;p_in=0.5;p_out=0.1", "--clients", 7,
            "--out", out,
        )
        assert result.returncode == 2, result.stderr
        assert "clients=7 exceeds the graph's 6 nodes" in result.stderr
        assert "Traceback" not in result.stderr
        # refused before the run makes its --out, as every other setting is
        assert not out.exists()

    @pytest.mark.parametrize(
        "case, code",
        [("report_out_in_missing_dir", 2), ("train_out_is_file", 2),
         ("fed_out_is_file", 2), ("gen_data_out_is_file", 2),
         ("features_is_dir", 3), ("meta_is_dir", 3)],
    )
    def test_os_error_exits_with_its_code(self, tmp_path, case, code):
        data = tmp_path / "data"
        assert run_cli("gen-data", "--sbm", TINY_SBM, "--out", data) == 0
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        train = ["train", "--dataset", data, "--epochs", 1, *SMALL_MODEL]
        if case == "report_out_in_missing_dir":
            argv = ["partition-report", "--sbm", TINY_SBM, "--seeds", 1,
                    "--out", tmp_path / "missing" / "dir" / "x.csv"]
        elif case == "train_out_is_file":
            argv = [*train, "--out", a_file]
        elif case == "fed_out_is_file":
            argv = ["fed-train", "--dataset", data, "--rounds", 1, "--out", a_file]
        elif case == "gen_data_out_is_file":
            argv = ["gen-data", "--sbm", TINY_SBM, "--out", a_file]
        else:
            name = "features" if case == "features_is_dir" else "meta"
            (data / name).unlink()
            (data / name).mkdir()
            argv = [*train, "--out", tmp_path / "out"]
        result = run_child(*argv)
        assert result.returncode == code, result.stderr
        assert ("config error:" if code == 2 else "data error:") in result.stderr
        assert "Traceback" not in result.stderr

    def test_console_script_end_to_end(self, tmp_path):
        # exercises the entry point across a process boundary rather than
        # in-process main: `python -m gnodeformer` always, and the installed
        # console script wherever one is on PATH
        if sys.version_info >= (3, 11):  # tomllib is stdlib from 3.11
            import tomllib

            pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
            with open(pyproject, "rb") as fh:
                scripts = tomllib.load(fh)["project"]["scripts"]
            assert scripts["gnodeformer"] == "gnodeformer.cli:main"
        env = package_env()
        launchers = [[sys.executable, "-m", "gnodeformer"]]
        script = shutil.which("gnodeformer")
        if script is not None:
            launchers.append([script])
        for i, launcher in enumerate(launchers):
            name = " ".join(launcher)
            result = subprocess.run(
                [*launcher, "gen-data",
                 "--sbm", TINY_SBM, "--out", str(tmp_path / f"d{i}")],
                capture_output=True,
                text=True,
                env=env,
            )
            assert result.returncode == 0, f"{name}: {result.stderr}"
            assert "n=60" in result.stdout, f"{name}: {result.stderr}"
            bad = subprocess.run(
                [*launcher, "train", "--dataset", str(tmp_path / "missing"),
                 "--out", str(tmp_path / f"o{i}")],
                capture_output=True,
                text=True,
                env=env,
            )
            assert bad.returncode == 3, f"{name}: {bad.stderr}"
            assert "data error" in bad.stderr, f"{name}: {bad.stderr}"

    def test_argparse_rejects_bad_choice(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--sbm", TINY_SBM, "--rk", 3, "--out", tmp_path / "x")
        assert exc.value.code == 2
