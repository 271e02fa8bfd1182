"""Command-line front end: single experiments, malicious-fraction sweeps, CSV/JSON reports."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path

from . import __version__
from .data import Dataset, IdxData, SyntheticData, load_idx, synthesize
from .federation import MEAN_FIELDS, ExperimentReport, FederationConfig, run_experiment, validate

# The config dataclass of each dataset section, by the section's "type" key.
_DATASETS = {"synthetic": SyntheticData, "idx": IdxData}

ROUNDS_COLUMNS = ("repeat", "epoch", "malicious_fraction", "defense", *MEAN_FIELDS, "selected_count")
SWEEP_COLUMNS = (
    "malicious_fraction", "defense_on", "final_accuracy", "final_source_recall",
    "mean_det_accuracy", "mean_det_f1",
)


@dataclass(frozen=True)
class ExperimentSpec:
    dataset: SyntheticData | IdxData
    federation: FederationConfig


def _build(cls, section: str, given):
    """A cls from the JSON object given; unknown and missing keys are fatal, and cls rejects
    a value of the wrong kind."""
    if type(given) is not dict:
        raise ValueError(f"{section} must be a JSON object, got {given!r}")
    schema = {f.name: f for f in fields(cls)}
    values = {}
    for key, value in given.items():
        if key not in schema:
            raise ValueError(f"unknown key {key!r} in {section}")
        default = schema[key].default  # a config dataclass for a nested section: defense or ldp
        values[key] = _build(type(default), key, value) if is_dataclass(default) else value
    if missing := [name for name, f in schema.items() if f.default is MISSING and name not in given]:
        raise ValueError(f"{section} missing keys: {missing}")
    return cls(**values)


def _sweep_arms(text: str, spec: ExperimentSpec, out_dir: Path) -> list[tuple[ExperimentSpec, Path]]:
    """The (spec, report directory) of each arm of a --fractions comma string's sweep:
    each fraction with spec's defense off, then on. FederationConfig checks each fraction."""
    defense = spec.federation.defense
    try:
        fractions = [float(f) + 0.0 for f in text.split(",")]  # + 0.0 makes -0 the fraction 0
        if len({_fmt(f) for f in fractions}) < len(fractions):
            raise ValueError("sweep fractions repeat a fraction, to 9 significant digits")
        return [
            (replace(spec, federation=replace(
                spec.federation, malicious_fraction=fraction, defense=arm_defense)),
             out_dir / f"frac_{_fmt(fraction)}_{label}")
            for fraction in fractions
            for label, arm_defense in (("off", replace(defense, kind="none")), ("on", defense))
        ]
    except ValueError as exc:
        raise ValueError(f"--fractions {text!r}: {exc}") from None


def _non_finite(constant: str):
    """json.loads hook for NaN, Infinity and -Infinity, which no config value may be."""
    raise ValueError(f"{constant} in the config: every number must be finite")


def _unique_keys(pairs) -> dict:
    """json.loads hook for every JSON object: a key given twice is fatal, not last-wins."""
    keys = [key for key, _ in pairs]
    if repeated := sorted({key for key in keys if keys.count(key) > 1}):
        raise ValueError(f"config gives key(s) {repeated} more than once")
    return dict(pairs)


def parse_config(path) -> ExperimentSpec:
    """Load a JSON experiment config; each section is built from its config dataclass."""
    path = Path(path)
    try:
        raw = json.loads(
            path.read_text(encoding="utf-8"), parse_constant=_non_finite, object_pairs_hook=_unique_keys
        )
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: top level must be a JSON object")

    dataset = raw.pop("dataset", {"type": "synthetic"})
    kind = dataset.get("type") if type(dataset) is dict else None
    if type(kind) is not str or kind not in _DATASETS:
        raise ValueError(f"dataset must be an object of type 'synthetic' or 'idx', got {dataset!r}")
    return ExperimentSpec(
        _build(_DATASETS[kind], "dataset", {k: v for k, v in dataset.items() if k != "type"}),
        _build(FederationConfig, "config", raw),
    )


def build_datasets(spec: ExperimentSpec) -> tuple[Dataset, Dataset]:
    """Materialize the (train, test) pair named by the spec; validate checks the config fits it."""
    ds = spec.dataset
    if isinstance(ds, IdxData):
        train = load_idx(ds.train_images, ds.train_labels)
        test = load_idx(ds.test_images, ds.test_labels, num_classes=train.num_classes)
    else:
        train, test = (
            synthesize(ds.num_classes, per_class, ds.dim, ds.separation,
                       seed=[spec.federation.seed, stream], noise_std=ds.noise_std)
            for per_class, stream in ((ds.per_class, 1000), (ds.test_per_class, 1001))
        )
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
    arm = (fed.malicious_fraction, fed.defense.kind)
    rows = [
        (repeat, rec.epoch, *arm, *(getattr(rec, name) for name in MEAN_FIELDS), len(rec.selected))
        for repeat, run in enumerate(report.runs)
        for rec in run
    ] + [
        (-1, epoch, *arm, *(means[name] for name in MEAN_FIELDS), fed.clients_per_round)
        for epoch, means in enumerate(report.epoch_means)
    ]
    _write_csv(out_dir / "rounds.csv", [ROUNDS_COLUMNS, *rows])
    kind = next(name for name, cls in _DATASETS.items() if type(spec.dataset) is cls)
    summary = {
        "final_epoch_means": report.final_means,
        "mean_det_accuracy": report.mean_det_accuracy,
        "mean_det_f1": report.mean_det_f1,
        "config": {"dataset": {"type": kind, **asdict(spec.dataset)}, **asdict(fed)},
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim", description="Federated-learning poisoning/defense simulator"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON experiment config")
    common.add_argument("--out", default="out", help="output directory")
    sub.add_parser("run", parents=[common], help="run a single experiment")
    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="sweep malicious fractions with/without defense"
    )
    p_sweep.add_argument("--fractions", required=True, help="comma-separated malicious fractions")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:  # Every input is checked in this phase, before any training.
        spec = parse_config(args.config)
        experiments = [(spec, out_dir)]  # (spec, report directory) of each experiment
        if args.command == "sweep":
            experiments = _sweep_arms(args.fractions, spec, out_dir)
            if spec.federation.defense.kind == "none":
                raise ValueError("sweep needs a defense kind other than 'none' to compare against")
        train, test = build_datasets(spec)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = [SWEEP_COLUMNS]
    try:  # A ValueError from here on is a bug, and keeps its traceback.
        for arm, arm_dir in experiments:
            fed = arm.federation
            report = run_experiment(fed, train, test)
            write_reports(arm, report, arm_dir)
            final = report.final_means
            rows.append((
                fed.malicious_fraction, int(fed.defense.kind != "none"), final["accuracy"],
                final["source_recall"], report.mean_det_accuracy, report.mean_det_f1,
            ))
            print(
                f"{arm_dir}: accuracy={final['accuracy']:.4f} test_loss={final['test_loss']:.4f} "
                f"source_recall={final['source_recall']:.4f} det_accuracy={report.mean_det_accuracy:.4f}"
            )
        if args.command == "sweep":
            _write_csv(out_dir / "sweep.csv", rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
