"""Output checks: is what one fedsim invocation wrote plausible, and the same as before?

Three layers of checking, cheapest first:

- structure: the report files exist, have the documented columns and row
  counts, and agree with each other (mean rows are the means of the
  per-repeat rows, summary.json repeats the final mean row, sweep.csv
  repeats each arm's summary);
- determinism: the bytes of every report file are identical across
  invocations of one seed, traced or not (the caller compares digests);
- reference: on the reference seed, the final-epoch means in every
  summary.json match reference.json within REFERENCE_TOLERANCE.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

ROUNDS_COLUMNS = (
    "repeat", "epoch", "malicious_fraction", "defense", "accuracy", "test_loss",
    "source_recall", "det_accuracy", "det_precision", "det_recall", "det_f1",
    "eliminated_count", "selected_count",
)
SWEEP_COLUMNS = (
    "malicious_fraction", "defense_on", "final_accuracy", "final_source_recall",
    "mean_det_accuracy", "mean_det_f1",
)
_SHARES = ("accuracy", "source_recall", "det_accuracy", "det_precision", "det_recall", "det_f1")
_MEANS = (*_SHARES, "test_loss", "eliminated_count")

# Report files print floats with 9 significant digits; a mean of printed
# values differs from the printed mean by at most a few units in the 9th.
CSV_TOLERANCE = 1e-8
# Final-epoch means on the reference seed, compared with the recorded values.
# summary.json prints floats in full, so this catches any change in the
# numbers beyond last-bit noise from a different summation order.
REFERENCE_TOLERANCE = 1e-9


class OutputError(Exception):
    """What an invocation wrote is missing, malformed or wrong."""


def read_tree(out_dir: Path) -> dict:
    """Every file under out_dir, keyed by its relative POSIX path."""
    return {
        p.relative_to(out_dir).as_posix(): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def digest(files: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def _close(a: float, b: float, tol: float) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def _check_arm(files: dict, prefix: str, cfg: dict, fraction: float, defense: str) -> dict:
    """Check one experiment's rounds.csv and summary.json; return its summary."""
    try:
        rounds = files[prefix + "rounds.csv"].decode()
        summary = json.loads(files[prefix + "summary.json"])
    except KeyError as exc:
        raise OutputError(f"missing report file {exc.args[0]}") from None
    except ValueError as exc:
        raise OutputError(f"{prefix}summary.json: {exc}") from None
    reader = csv.reader(io.StringIO(rounds))
    if tuple(next(reader, ())) != ROUNDS_COLUMNS:
        raise OutputError(f"{prefix}rounds.csv: unexpected header")
    repeats, epochs, k = cfg["repeats"], cfg["global_epochs"], cfg["clients_per_round"]
    per_repeat = [[None] * epochs for _ in range(repeats)]
    means = [None] * epochs
    for line_no, row in enumerate(reader, start=2):
        try:
            if len(row) != len(ROUNDS_COLUMNS):
                raise ValueError("wrong field count")
            rec = dict(zip(ROUNDS_COLUMNS, row))
            repeat, epoch = int(rec["repeat"]), int(rec["epoch"])
            values = {name: float(rec[name]) for name in _MEANS}
            ok = (
                -1 <= repeat < repeats and 0 <= epoch < epochs
                and float(rec["malicious_fraction"]) == fraction and rec["defense"] == defense
                and int(rec["selected_count"]) == k
                and all(0.0 <= values[s] <= 1.0 for s in _SHARES)
                and 0.0 < values["test_loss"] < math.inf
                and 0.0 <= values["eliminated_count"] < k
            )
            slot = means if repeat == -1 else per_repeat[repeat]
            if not ok or slot[epoch] is not None:
                raise ValueError("value out of range or duplicate row")
        except (ValueError, IndexError) as exc:
            raise OutputError(f"{prefix}rounds.csv line {line_no}: {exc}: {row}") from None
        slot[epoch] = values
    if any(v is None for run in per_repeat + [means] for v in run):
        raise OutputError(f"{prefix}rounds.csv: missing rows")
    for epoch in range(epochs):
        for name in _MEANS:
            mean = sum(run[epoch][name] for run in per_repeat) / repeats
            if not _close(mean, means[epoch][name], CSV_TOLERANCE):
                raise OutputError(f"{prefix}rounds.csv: epoch {epoch} {name} mean row is wrong")
    final = summary.get("final_epoch_means", {})
    if set(final) != set(_MEANS) or not all(
        _close(final[name], means[-1][name], CSV_TOLERANCE) for name in _MEANS
    ):
        raise OutputError(f"{prefix}summary.json: final_epoch_means disagree with rounds.csv")
    det = sum(run[e]["det_accuracy"] for run in per_repeat for e in range(epochs))
    if not _close(summary.get("mean_det_accuracy", math.nan), det / (repeats * epochs), CSV_TOLERANCE):
        raise OutputError(f"{prefix}summary.json: mean_det_accuracy disagrees with rounds.csv")
    if summary.get("config", {}).get("seed") != cfg["seed"]:
        raise OutputError(f"{prefix}summary.json: config seed is not {cfg['seed']}")
    return summary


def check_outputs(files: dict, cfg: dict, fractions: tuple = ()) -> None:
    """Raise OutputError unless files are a valid `run` (no fractions) or `sweep` output."""
    defense = cfg["defense"]["kind"]
    if not fractions:
        if set(files) != {"rounds.csv", "summary.json"}:
            raise OutputError(f"unexpected report files {sorted(files)}")
        _check_arm(files, "", cfg, cfg["malicious_fraction"], defense)
        return
    arms = {}
    for name in files:
        if name.endswith("/summary.json"):
            prefix = name[: -len("summary.json")]
            arm_cfg = json.loads(files[name]).get("config", {})
            on = arm_cfg.get("defense", {}).get("kind") != "none"
            arms[(arm_cfg.get("malicious_fraction"), on)] = prefix
    if sorted(arms) != sorted((f, on) for f in fractions for on in (False, True)):
        raise OutputError(f"sweep arms {sorted(arms)} do not match fractions {fractions}")
    rows = list(csv.reader(io.StringIO(files.get("sweep.csv", b"").decode())))
    if not rows or tuple(rows[0]) != SWEEP_COLUMNS or len(rows) != 1 + len(arms):
        raise OutputError("sweep.csv: unexpected header or row count")
    for row in rows[1:]:
        try:
            fraction, on = float(row[0]), row[1] == "1"
            summary = _check_arm(files, arms[(fraction, on)], cfg, fraction, defense if on else "none")
            reported = [float(v) for v in row[2:]]
        except (ValueError, IndexError, KeyError) as exc:
            raise OutputError(f"sweep.csv row {row}: {exc}") from None
        final = summary["final_epoch_means"]
        expected = [final["accuracy"], final["source_recall"],
                    summary["mean_det_accuracy"], summary["mean_det_f1"]]
        if not all(_close(a, b, CSV_TOLERANCE) for a, b in zip(reported, expected)):
            raise OutputError(f"sweep.csv row {row} disagrees with {arms[(fraction, on)]}summary.json")


def final_means(files: dict) -> dict:
    """final_epoch_means of every summary.json, keyed by its path."""
    return {
        name: json.loads(data)["final_epoch_means"]
        for name, data in sorted(files.items())
        if name.endswith("summary.json")
    }


def check_reference(files: dict, expected: dict) -> None:
    """Raise OutputError unless the final-epoch means match the recorded ones."""
    got = final_means(files)
    if set(got) != set(expected):
        raise OutputError(f"summaries {sorted(got)} differ from reference {sorted(expected)}")
    for name, means in expected.items():
        for key, value in means.items():
            if not _close(got[name].get(key, math.nan), value, REFERENCE_TOLERANCE):
                raise OutputError(
                    f"{name}: final {key} {got[name].get(key)} != reference {value}"
                )
