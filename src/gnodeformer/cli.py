"""Command-line entry point.

Subcommands: gen-data, train, fed-train, partition-report, comm-report.
Every train and fed-train run writes a key=value manifest of its options
but --out and --from-manifest (``args.settings``, the parser's actions);
rerunning with --from-manifest reproduces the metrics (timing columns
excepted) in single-thread mode.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerics.
"""

import argparse
import logging
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, GnodeformerError, NumericsError
from .fedsim import (
    FedConfig,
    check_client_count,
    comm_accounting,
    dirichlet_partition,
    partition_stats,
    run_rounds,
    write_metrics_csv,
)
from .fileio import parse_pairs, write_lines
from .graphs import (
    GraphDataset,
    SbmConfig,
    build_normalized_laplacian,
    generate_sbm,
    homophily_ratio,
    load_dataset,
    save_dataset,
)
from .model import ACTIVATIONS, RK_WEIGHTS, ModelConfig, forward, write_filter_table
from .optim import AdamConfig, save_checkpoint
from .seeding import MASKS, derive_seed
from .spectral import load_or_compute
from .training import evaluate, train_centralized

logger = logging.getLogger(__name__)

# sbm spec key -> (SbmConfig field, converter); the first three are required
_SBM_KEYS = {
    "blocks": ("block_sizes", lambda text: tuple(int(b) for b in text.split(","))),
    "p_in": ("p_in", float),
    "p_out": ("p_out", float),
    "feature_dim": ("feature_dim", int),
    "signal": ("signal", float),
    "seed": ("seed", int),
}


def parse_sbm_spec(spec: str) -> SbmConfig:
    """Parse 'blocks=100,100,100;p_in=0.1;p_out=0.01[;key=value...]'.

    Optional keys: feature_dim, signal, seed.
    """
    entries = parse_pairs(spec.split(";"), "sbm spec", ConfigError)
    missing = {"blocks", "p_in", "p_out"} - set(entries)
    if missing:
        raise ConfigError(f"sbm spec missing {sorted(missing)}")
    unknown = set(entries) - set(_SBM_KEYS)
    if unknown:
        raise ConfigError(f"sbm spec has unknown keys {sorted(unknown)}")
    try:
        kwargs = {
            field: convert(entries[key])
            for key, (field, convert) in _SBM_KEYS.items()
            if key in entries
        }
    except ValueError as exc:
        raise ConfigError(f"bad sbm spec value: {exc}") from None
    return SbmConfig(**kwargs)


def load_source(args) -> GraphDataset:
    """Dataset from --sbm (generator masks) or --dataset (masks from run
    seed, matching client 0 of a single-client federation)."""
    sbm, directory = getattr(args, "sbm", None), getattr(args, "dataset", None)
    if sbm and directory:
        # the parser rejects the pair; a manifest can still name both
        raise ConfigError(f"both --dataset {directory!r} and --sbm {sbm!r} given")
    if sbm:
        return generate_sbm(parse_sbm_spec(sbm))
    if not directory:
        raise ConfigError("one of --dataset or --sbm is required")
    return load_dataset(directory, derive_seed(args.seed, MASKS, 0))


def model_config_from_args(args, feature_dim: int, classes: int) -> ModelConfig:
    return ModelConfig(
        feature_dim=feature_dim,
        classes=classes,
        d=args.width,
        heads=args.heads,
        layers=args.layers,
        rk_order=args.rk,
        epsilon=args.epsilon,
        hidden=args.hidden,
        dropout=args.dropout,
        activation=args.activation,
        learn_rk_weights=not args.freeze_rk_weights,
    )


def write_manifest(path, entries: dict) -> None:
    """Write run settings as sorted ``key=value`` lines.

    A float's str is its repr, so a read-back reproduces it exactly; keys
    may not contain '='.
    """
    for key in entries:
        if "=" in key:
            raise ConfigError(f"manifest key {key!r} contains '='")
    write_lines(path, (f"{key}={entries[key]}" for key in sorted(entries)))


def read_manifest(path) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"manifest {path} is not text: {exc}") from None
    return parse_pairs(text.splitlines(), "manifest", DataError)


def manifest_entries(args) -> dict:
    """The command and the value of each option in ``args.settings``."""
    entries = {"command": args.command}
    for action in args.settings:
        value = getattr(args, action.dest)
        if value is None:
            value = ""
        elif isinstance(value, bool):
            value = "true" if value else "false"
        entries[action.dest] = value
    return entries


def apply_manifest(args, path: str):
    """Overwrite the settings of ``args`` from a manifest file."""
    entries = read_manifest(path)
    command = entries.pop("command", None)
    if command != args.command:
        raise ConfigError(
            f"manifest was written by {command!r}, not {args.command!r}"
        )
    # retired --symmetrize: the loader always reads edges as undirected
    entries.pop("symmetrize", None)
    settings = {action.dest: action for action in args.settings}
    for key, raw in entries.items():
        action = settings.get(key)
        if action is None:
            raise ConfigError(f"unknown manifest key {key!r}")
        if raw == "":
            # only an option that defaults to None ("not given") takes None
            if action.default is not None:
                raise ConfigError(f"manifest value {key}= is empty")
            value = None
        elif action.nargs == 0:  # a store_true flag
            if raw not in ("true", "false"):
                raise ConfigError(f"manifest boolean {key}={raw!r}")
            value = raw == "true"
        else:
            try:
                value = (action.type or str)(raw)
            except ValueError:
                raise ConfigError(f"manifest value {key}={raw!r}") from None
        setattr(args, key, value)
    return args


@contextmanager
def _writing(out):
    """Turn an OSError from creating or writing ``out``, the --out path,
    into a ConfigError, so the run exits 2."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc}") from None


def _write_central_csv(path: Path, history) -> None:
    rows = ["epoch,train_loss,train_accuracy,val_loss,val_accuracy,seconds"]
    for h in history:
        rows.append(
            f"{h.epoch},{h.loss!r},{h.accuracy!r},"
            f"{h.val_loss!r},{h.val_accuracy!r},{h.seconds!r}"
        )
    write_lines(path, rows)


def cmd_gen_data(args) -> int:
    dataset = generate_sbm(parse_sbm_spec(args.sbm))
    out = Path(args.out)
    with _writing(out):
        save_dataset(dataset, out)
    print(
        f"wrote {out}: n={dataset.n} edges={dataset.num_edges} "
        f"classes={dataset.num_classes} homophily={homophily_ratio(dataset):.4f}"
    )
    return 0


def cmd_train(args) -> int:
    if args.from_manifest:
        apply_manifest(args, args.from_manifest)
    dataset = load_source(args)
    config = model_config_from_args(args, dataset.feature_dim, dataset.num_classes)
    optimizer = AdamConfig(lr=args.lr, weight_decay=args.weight_decay)
    out = Path(args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        basis = load_or_compute(build_normalized_laplacian(dataset), out / "eig_cache")

    params, history, last = train_centralized(
        dataset, basis, config, optimizer,
        epochs=args.epochs, seed=args.seed, patience=args.patience,
    )

    with _writing(out):
        _write_central_csv(out / "metrics.csv", history)
        save_checkpoint(params, out / "checkpoint.bin")
    # one eval forward serves both the filter table and the test score: the
    # last validation forward when it ran at these params, else a new one
    if last is None:
        last = forward(dataset, basis, config, params)
    logits, gamma = last
    with _writing(out):
        write_filter_table(out / "filters.txt", basis.eigenvalues, gamma.data)
        write_manifest(out / "manifest.txt", manifest_entries(args))

    if dataset.test_mask.any():
        test_loss, test_accuracy, _ = evaluate(
            dataset, basis, config, params, dataset.test_mask, logits=logits
        )
        print(f"test accuracy {test_accuracy:.4f} (loss {test_loss:.4f})")
    print(f"trained {len(history)} epochs; artifacts in {out}")
    return 0


def cmd_fed_train(args) -> int:
    if args.from_manifest:
        apply_manifest(args, args.from_manifest)
    if args.checkpoint_every < 0:
        raise ConfigError(f"--checkpoint-every {args.checkpoint_every} must be >= 0")
    dataset = load_source(args)
    config = FedConfig(
        model=model_config_from_args(args, dataset.feature_dim, dataset.num_classes),
        optimizer=AdamConfig(lr=args.lr, weight_decay=args.weight_decay),
        clients=args.clients,
        alpha=args.alpha,
        rounds=args.rounds,
        local_epochs=args.local_epochs,
        fraction_fit=args.fraction_fit,
        seed=args.seed,
        threads=args.threads,
    )
    check_client_count(config.clients, dataset.n)
    out = Path(args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)

    def on_round(record, global_params):
        logger.info(
            "round %d: accuracy=%.4f bytes_cum=%d",
            record.round_index, record.global_accuracy, record.bytes_cum,
        )
        every = args.checkpoint_every
        if every and (record.round_index + 1) % every == 0:
            with _writing(out):
                save_checkpoint(
                    global_params, out / f"checkpoint_round{record.round_index}.bin"
                )

    params, records, _ = run_rounds(dataset, config, on_round=on_round)
    with _writing(out):
        write_metrics_csv(out / "metrics.csv", records)
        save_checkpoint(params, out / "checkpoint.bin")
        write_manifest(out / "manifest.txt", manifest_entries(args))

    if records:
        last = records[-1]
        print(
            f"round {last.round_index}: global accuracy {last.global_accuracy:.4f}, "
            f"{last.bytes_cum} bytes transferred"
        )
    print(f"ran {len(records)} rounds; artifacts in {out}")
    return 0


def cmd_partition_report(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds {args.seeds} must be >= 1")
    dataset = load_source(args)
    classes = dataset.num_classes
    header = ["seed", "client_id", "nodes"]
    header += [f"class{c}" for c in range(classes)]
    header.append("max_share")
    rows = [",".join(header)]
    tvs, max_shares = [], []
    for seed in range(args.seed, args.seed + args.seeds):
        parts = dirichlet_partition(dataset.labels, args.clients, args.alpha, seed)
        stats = partition_stats(dataset.labels, parts, classes)
        tvs.append(stats["mean_tv"])
        max_shares.append(stats["max_share"].mean())
        for cid in range(args.clients):
            counts = stats["counts"][cid].astype(int)
            row = [str(seed), str(cid), str(int(counts.sum()))]
            row += [str(c) for c in counts]
            row.append(repr(float(stats["max_share"][cid])))
            rows.append(",".join(row))
    if args.out:
        out = Path(args.out)
        # the report makes no directory, unlike a run's --out
        if not out.parent.is_dir():
            raise ConfigError(f"cannot write --out {out}: no directory {out.parent}")
        with _writing(out):
            write_lines(out, rows)
    else:
        print(*rows, sep="\n")
    print(f"mean_max_share={float(np.mean(max_shares))!r}")
    print(f"mean_tv={float(np.mean(tvs))!r}")
    return 0


def cmd_comm_report(args) -> int:
    rows = []
    for spec in args.spec:
        if "=" not in spec or "," not in spec.partition("=")[2]:
            raise ConfigError(f"--spec {spec!r}; expected name=feature_dim,classes")
        name, _, rest = spec.partition("=")
        f_text, _, c_text = rest.partition(",")
        try:
            feature_dim, classes = int(f_text), int(c_text)
        except ValueError:
            raise ConfigError(f"--spec {spec!r} has non-integer sizes") from None
        count, nbytes = comm_accounting(model_config_from_args(args, feature_dim, classes))
        rows.append((name, count, nbytes))
    print("name,params,bytes")
    for name, count, nbytes in sorted(rows):
        print(f"{name},{count},{nbytes}")
    return 0


def non_negative_int(text: str) -> int:
    """The argparse type of --seed (numpy takes no negative seed) and --epochs."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


def positive_int(text: str) -> int:
    """The argparse type of --patience."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is below 1")
    return value


def _add_source_flags(parser, require=True):
    group = parser.add_mutually_exclusive_group(required=require)
    return [
        group.add_argument("--dataset", help="dataset directory (graph text format)"),
        group.add_argument("--sbm", help="synthetic graph spec, e.g. "
                           "'blocks=100,100,100;p_in=0.1;p_out=0.01'"),
    ]


def _add_model_flags(parser):
    return [
        parser.add_argument("--rk", type=int, default=2, choices=tuple(RK_WEIGHTS),
                            help="integration order per block"),
        parser.add_argument("--width", type=int, default=16, help="model width d"),
        parser.add_argument("--heads", type=int, default=2),
        parser.add_argument("--layers", type=int, default=2),
        parser.add_argument("--hidden", type=int, default=64,
                            help="convolution head hidden width"),
        parser.add_argument("--epsilon", type=float, default=100.0,
                            help="eigenvalue encoding scale"),
        parser.add_argument("--dropout", type=float, default=0.0),
        parser.add_argument("--activation", default="relu", choices=ACTIVATIONS),
        parser.add_argument("--freeze-rk-weights", action="store_true",
                            help="keep classical stage weights fixed"),
    ]


def _add_optim_flags(parser):
    return [
        parser.add_argument("--lr", type=float, default=0.01),
        parser.add_argument("--weight-decay", type=float, default=0.0),
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnodeformer",
        description="Spectral graph transformer with a federated simulator.",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log per-round/per-epoch progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and save a synthetic graph")
    p.add_argument("--sbm", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="centralized training")
    settings = [
        *_add_source_flags(p, require=False),
        *_add_model_flags(p),
        *_add_optim_flags(p),
        p.add_argument("--epochs", type=non_negative_int, default=200),
        p.add_argument("--patience", type=positive_int, default=None,
                       help="early-stop after this many non-improving epochs"),
        p.add_argument("--seed", type=non_negative_int, default=0),
    ]
    p.add_argument("--out", required=True)
    p.add_argument("--from-manifest", help="replay settings from a manifest")
    p.set_defaults(func=cmd_train, settings=settings)

    p = sub.add_parser("fed-train", help="federated simulation")
    settings = [
        *_add_source_flags(p, require=False),
        *_add_model_flags(p),
        *_add_optim_flags(p),
        p.add_argument("--clients", type=int, default=5),
        p.add_argument("--alpha", type=float, default=100.0),
        p.add_argument("--rounds", type=int, default=10),
        p.add_argument("--local-epochs", type=int, default=5),
        p.add_argument("--fraction-fit", type=float, default=1.0),
        p.add_argument("--threads", type=int, default=1),
        p.add_argument("--checkpoint-every", type=int, default=0,
                       help="save the global model every k rounds (0: only final)"),
        p.add_argument("--seed", type=non_negative_int, default=0),
    ]
    p.add_argument("--out", required=True)
    p.add_argument("--from-manifest", help="replay settings from a manifest")
    p.set_defaults(func=cmd_fed_train, settings=settings)

    p = sub.add_parser("partition-report",
                       help="class histograms and skew across partition seeds")
    _add_source_flags(p)
    p.add_argument("--clients", type=int, default=5)
    p.add_argument("--alpha", type=float, default=100.0)
    p.add_argument("--seeds", type=int, default=10,
                   help="number of partition seeds to sample")
    p.add_argument("--seed", type=non_negative_int, default=0, help="first seed")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_partition_report)

    p = sub.add_parser("comm-report", help="parameter and byte counts per config")
    p.add_argument("--spec", action="append", required=True,
                   help="name=feature_dim,classes (repeatable)")
    _add_model_flags(p)
    p.set_defaults(func=cmd_comm_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return 4
    except GnodeformerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
