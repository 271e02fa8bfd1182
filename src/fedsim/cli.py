"""Command-line front end: single experiments, malicious-fraction sweeps, CSV/JSON reports."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .data import Dataset, PoisonSpec, load_idx, synthesize
from .defense import DefenseConfig
from .federation import MEAN_FIELDS, ExperimentReport, FederationConfig, run_experiment, validate
from .privacy import LdpConfig

_SYNTHETIC_DEFAULTS = {
    "type": "synthetic",
    "num_classes": 10,
    "per_class": 200,
    "dim": 64,
    "separation": 6.0,
    "noise_std": 1.0,
    "test_per_class": 50,
}
# Every IDX key is required; the empty strings only tell _merge that each value is a string.
_IDX_KEYS = dict.fromkeys(("type", "train_images", "train_labels", "test_images", "test_labels"), "")

# Accepted JSON value types (and their name in errors), by the type of a key's default.
_JSON_TYPES = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    tuple: ((list,), "a list of integers"),
    dict: ((dict,), "a JSON object"),
}


def _config_json(fed: FederationConfig) -> dict:
    """The config as JSON values, with poison_spec flattened to source_class/target_class."""
    values = asdict(fed)
    values.update(values.pop("poison_spec"))
    return values


# Every key the config file accepts besides dataset and sweep, with its default.
_DEFAULTS = _config_json(FederationConfig())

ROUNDS_COLUMNS = ("repeat", "epoch", "malicious_fraction", "defense", *MEAN_FIELDS, "selected_count")
SWEEP_COLUMNS = (
    "malicious_fraction", "defense_on", "final_accuracy", "final_source_recall",
    "mean_det_accuracy", "mean_det_f1",
)


@dataclass(frozen=True)
class ExperimentSpec:
    dataset: dict
    federation: FederationConfig
    sweep: tuple[float, ...] | None = None


def _merge(section: str, given: dict, defaults: dict) -> dict:
    """The defaults updated by the given values; unknown keys and mistyped values are fatal."""
    merged = dict(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ValueError(f"unknown key {key!r} in {section}")
        types, expected = _JSON_TYPES[type(defaults[key])]
        if type(value) not in types or (
            type(value) is list and not all(type(v) is int for v in value)
        ):
            raise ValueError(f"{key} in {section} must be {expected}, got {value!r}")
        merged[key] = _merge(key, value, defaults[key]) if type(value) is dict else value
    return merged


def _sweep_fractions(values) -> tuple[float, ...]:
    """A validated sweep list, from the config or from --fractions."""
    if not isinstance(values, list) or not values:
        raise ValueError("sweep must be a nonempty list of fractions")
    try:
        fractions = tuple(float(f) for f in values)
    except (TypeError, ValueError):
        raise ValueError(f"sweep fractions must be numbers, got {values}") from None
    for f in fractions:
        if not 0.0 <= f <= 0.5:
            raise ValueError(f"sweep fraction {f} outside the supported [0, 0.5]")
    return fractions


def _non_finite(constant: str):
    """json.loads hook for NaN, Infinity and -Infinity, which no config value may be."""
    raise ValueError(f"{constant} in the config: every number must be finite")


def parse_config(path) -> ExperimentSpec:
    """Load a JSON experiment config, checked against FederationConfig's fields and defaults."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), parse_constant=_non_finite)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: top level must be a JSON object")

    dataset = raw.pop("dataset", {"type": "synthetic"})
    ds_type = dataset.get("type") if isinstance(dataset, dict) else None
    if ds_type == "synthetic":
        dataset = _merge("dataset", dataset, _SYNTHETIC_DEFAULTS)
    elif ds_type == "idx":
        missing = set(_IDX_KEYS) - set(dataset)
        dataset = _merge("dataset", dataset, _IDX_KEYS)
        if missing:
            raise ValueError(f"dataset missing keys: {sorted(missing)}")
    else:
        raise ValueError(f"dataset must be an object of type 'synthetic' or 'idx', got {dataset!r}")
    sweep = raw.pop("sweep", None)
    values = _merge("config", raw, _DEFAULTS)
    federation = FederationConfig(
        poison_spec=PoisonSpec(values.pop("source_class"), values.pop("target_class")),
        defense=DefenseConfig(**values.pop("defense")),
        ldp=LdpConfig(**values.pop("ldp")),
        hidden_dims=tuple(values.pop("hidden_dims")),
        **values,
    )
    return ExperimentSpec(dataset, federation, None if sweep is None else _sweep_fractions(sweep))


def build_datasets(spec: ExperimentSpec) -> tuple[Dataset, Dataset]:
    """Materialize the (train, test) pair named by the spec; validate checks the config fits it."""
    ds = spec.dataset
    if ds["type"] == "synthetic":
        train, test = (
            synthesize(ds["num_classes"], per_class, ds["dim"], ds["separation"],
                       seed=[spec.federation.seed, stream], noise_std=ds["noise_std"])
            for per_class, stream in ((ds["per_class"], 1000), (ds["test_per_class"], 1001))
        )
    else:
        train = load_idx(ds["train_images"], ds["train_labels"])
        test = load_idx(ds["test_images"], ds["test_labels"], num_classes=train.num_classes)
    validate(spec.federation, train, test)
    return train, test


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _write_csv(path: Path, rows) -> None:
    lines = (",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_reports(spec: ExperimentSpec, report: ExperimentReport, out_dir: Path) -> None:
    """Write rounds.csv (per-round rows plus repeat=-1 mean rows) and summary.json."""
    out_dir.mkdir(parents=True, exist_ok=True)
    fed = spec.federation
    # (repeat, epoch, metrics by name, selected count) of every row, mean rows last.
    records = [
        (repeat, rec.epoch, {name: getattr(rec, name) for name in MEAN_FIELDS}, len(rec.selected))
        for repeat, run in enumerate(report.runs)
        for rec in run
    ]
    records += [
        (-1, epoch, means, fed.clients_per_round) for epoch, means in enumerate(report.epoch_means)
    ]
    rows = [
        (repeat, epoch, fed.malicious_fraction, fed.defense.kind,
         *(values[name] for name in MEAN_FIELDS), selected)
        for repeat, epoch, values, selected in records
    ]
    _write_csv(out_dir / "rounds.csv", [ROUNDS_COLUMNS, *rows])
    summary = {
        "final_epoch_means": report.final_means,
        "mean_det_accuracy": report.mean_det_accuracy,
        "mean_det_f1": report.mean_det_f1,
        "config": {"dataset": spec.dataset, **_config_json(fed), "sweep": spec.sweep},
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_run(spec: ExperimentSpec, train: Dataset, test: Dataset, out_dir: Path) -> int:
    report = run_experiment(spec.federation, train, test)
    write_reports(spec, report, out_dir)
    final = report.final_means
    print(
        f"done: accuracy={final['accuracy']:.4f} test_loss={final['test_loss']:.4f} "
        f"source_recall={final['source_recall']:.4f} det_accuracy={report.mean_det_accuracy:.4f}"
    )
    return 0


def cmd_sweep(spec: ExperimentSpec, fractions, train: Dataset, test: Dataset, out_dir: Path) -> int:
    """Run each fraction with the configured defense on and off; write sweep.csv."""
    defense = spec.federation.defense
    rows = [SWEEP_COLUMNS]
    for fraction in fractions:
        for defense_on in (False, True):
            arm_defense = defense if defense_on else replace(defense, kind="none")
            fed = replace(spec.federation, malicious_fraction=fraction, defense=arm_defense)
            report = run_experiment(fed, train, test)
            label = "on" if defense_on else "off"
            arm_dir = out_dir / f"frac_{_fmt(fraction)}_{label}"
            write_reports(replace(spec, federation=fed, sweep=None), report, arm_dir)
            final = report.final_means
            rows.append((
                fraction, int(defense_on), final["accuracy"], final["source_recall"],
                report.mean_det_accuracy, report.mean_det_f1,
            ))
            print(
                f"fraction={fraction:g} defense={label}: "
                f"accuracy={final['accuracy']:.4f} source_recall={final['source_recall']:.4f}"
            )
    _write_csv(out_dir / "sweep.csv", rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim", description="Federated-learning poisoning/defense simulator"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON experiment config")
    common.add_argument("--out", default="out", help="output directory")
    p_run = sub.add_parser("run", parents=[common], help="run a single experiment")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="sweep malicious fractions with/without defense"
    )
    p_sweep.add_argument(
        "--fractions", help="comma-separated malicious fractions (default: the config's sweep list)"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:  # Every input is checked in this phase, before any training.
        spec = parse_config(args.config)
        if getattr(args, "seed", None) is not None:
            spec = replace(spec, federation=replace(spec.federation, seed=args.seed))
        fractions = spec.sweep
        if args.command == "sweep":
            if args.fractions is not None:
                fractions = _sweep_fractions(args.fractions.split(","))
            if fractions is None:
                raise ValueError("sweep requires --fractions or a 'sweep' list in the config")
            if spec.federation.defense.kind == "none":
                raise ValueError("sweep needs a defense kind other than 'none' to compare against")
        train, test = build_datasets(spec)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:  # A ValueError from here on is a bug, and keeps its traceback.
        if args.command == "run":
            return cmd_run(spec, train, test, out_dir)
        return cmd_sweep(spec, fractions, train, test, out_dir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
