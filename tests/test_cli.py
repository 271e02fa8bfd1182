"""Tests for config parsing, report writers, and the command-line entry point."""

import contextlib
import io
import json
import struct
import tempfile
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fedsim import cli, data
from fedsim.defense import DEFENSE_KINDS
from fedsim.federation import FederationConfig

GOLDEN = Path(__file__).with_name("cli_golden.json")

SMALL_CONFIG = {
    "dataset": {
        "type": "synthetic",
        "num_classes": 4,
        "per_class": 30,
        "dim": 8,
        "separation": 6.0,
        "noise_std": 1.0,
        "test_per_class": 10,
    },
    "total_clients": 8,
    "clients_per_round": 4,
    "global_epochs": 3,
    "client_epochs": 2,
    "client_lr": 0.5,
    "batch_size": 8,
    "malicious_fraction": 0.25,
    "source_class": 1,
    "target_class": 2,
    "hidden_dims": [6],
    "repeats": 2,
    "defense": {"kind": "kmeans"},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    for key, value in (overrides or {}).items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


# --- parsing ------------------------------------------------------------------

def test_parse_config_defaults(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text("{}", encoding="utf-8")
    spec = cli.parse_config(path)
    fed = spec.federation
    assert fed.total_clients == 50
    assert fed.clients_per_round == 10
    assert fed.global_epochs == 15
    assert fed.source_class == 5
    assert fed.target_class == 3
    assert fed.ldp.epsilon == 1.0
    assert fed.ldp.sensitivity == 0.0001
    assert fed.defense.kmeans_guard == 3.5
    assert fed.repeats == 3
    assert fed == FederationConfig()  # the CLI keeps no defaults of its own
    assert spec.dataset == data.SyntheticData()


def test_parse_config_float_fields_accept_integers(tmp_path):
    path = write_config(tmp_path, {"client_lr": 1, "ldp": {"epsilon": 2}})
    fed = cli.parse_config(path).federation
    assert fed.client_lr == 1
    assert fed.ldp.epsilon == 2


def test_parse_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, {"defence": {"kind": "kmeans"}})
    with pytest.raises(ValueError) as err:
        cli.parse_config(path)
    assert "defence" in str(err.value)


def test_parse_config_rejects_unknown_nested_key(tmp_path):
    path = write_config(tmp_path, {"defense": {"kind": "kmeans", "gaurd": 2.0}})
    with pytest.raises(ValueError) as err:
        cli.parse_config(path)
    assert "gaurd" in str(err.value)


def test_parse_config_rejects_repeated_key_at_any_depth(tmp_path):
    path = tmp_path / "repeated.json"
    path.write_text('{"seed": 1, "defense": {"kind": "kmeans", "kind": "zscore"}, "seed": 2}', encoding="utf-8")
    with pytest.raises(ValueError, match=r"\['kind'\]"):  # the inner object is read first
        cli.parse_config(path)
    path.write_text('{"seed": 1, "repeats": 1, "seed": 2, "repeats": 2}', encoding="utf-8")
    with pytest.raises(ValueError, match=r"\['repeats', 'seed'\]"):
        cli.parse_config(path)


def test_parse_config_rejects_excess_fraction(tmp_path):
    path = write_config(tmp_path, {"malicious_fraction": 0.7})
    with pytest.raises(ValueError) as err:
        cli.parse_config(path)
    assert "0.7" in str(err.value)


def test_parse_config_reports_json_error_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "total_clients": ,\n}', encoding="utf-8")
    with pytest.raises(ValueError) as err:
        cli.parse_config(path)
    assert "line 2" in str(err.value)


def test_parse_config_idx_requires_all_paths(tmp_path):
    path = write_config(tmp_path, {"dataset": {"type": "idx", "train_images": "x"}})
    with pytest.raises(ValueError) as err:
        cli.parse_config(path)
    assert "train_labels" in str(err.value)


def test_parse_config_rejects_bad_sweep(tmp_path):
    """The fractions come only from --fractions; a config's sweep list is an unknown key."""
    path = write_config(tmp_path, {"sweep": [0.2, 0.4]})
    with pytest.raises(ValueError, match="unknown key 'sweep' in config"):
        cli.parse_config(path)


# --- run ------------------------------------------------------------------------

def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_run_writes_rounds_and_summary(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    header, rows = read_csv(out / "rounds.csv")
    assert header == list(cli.ROUNDS_COLUMNS)
    # repeats * epochs per-round rows plus one mean row per epoch (repeat -1).
    assert len(rows) == 2 * 3 + 3
    assert sum(1 for r in rows if r["repeat"] == "-1") == 3
    for row in rows:
        assert row["defense"] == "kmeans"
        assert row["selected_count"] == "4"
        assert 0.0 <= float(row["accuracy"]) <= 1.0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert set(summary) == {"final_epoch_means", "mean_det_accuracy", "mean_det_f1", "config"}
    assert summary["config"]["malicious_fraction"] == 0.25
    assert summary["config"]["defense"]["kind"] == "kmeans"
    mean_rows = [r for r in rows if r["repeat"] == "-1"]
    assert float(mean_rows[-1]["accuracy"]) == pytest.approx(
        summary["final_epoch_means"]["accuracy"]
    )
    assert "accuracy=" in capsys.readouterr().out


def test_run_seed_override_changes_results(tmp_path):
    """The config's seed key, the only route for the seed, changes the results."""
    for name, seed in (("a", 0), ("b", 9)):
        config = write_config(tmp_path, {"seed": seed}, name=f"{name}.json")
        cli.main(["run", "--config", str(config), "--out", str(tmp_path / name)])
    a = (tmp_path / "a" / "rounds.csv").read_bytes()
    b = (tmp_path / "b" / "rounds.csv").read_bytes()
    assert a != b
    summary = json.loads((tmp_path / "b" / "summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["seed"] == 9


@pytest.mark.parametrize("kind", ["zscore", "kmeans"])
def test_run_one_client_per_round_exits_0(tmp_path, kind):
    """A lone report is retained by the zero-spread branch, as by every other kind."""
    config = write_config(tmp_path, {"clients_per_round": 1, "defense": {"kind": kind}})
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    _, rows = read_csv(tmp_path / "o" / "rounds.csv")
    assert {row["eliminated_count"] for row in rows} == {"0"}


def test_run_float_format_nine_significant_digits(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", "--config", str(config), "--out", str(out)])
    _, rows = read_csv(out / "rounds.csv")
    for row in rows:
        for col in ("accuracy", "test_loss", "source_recall"):
            digits = row[col].replace("-", "").replace(".", "").lstrip("0")
            assert len(digits) <= 9


def test_run_reports_config_errors_on_stderr(tmp_path, capsys):
    config = write_config(tmp_path, {"malicious_fraction": 0.9})
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_synthetic_test_per_class_error_names_its_key(tmp_path, capsys):
    config = write_config(tmp_path, {"dataset": {**SMALL_CONFIG["dataset"], "test_per_class": 0}})
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "test_per_class 0" in capsys.readouterr().err


def test_run_missing_config_file(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


IDX_PATHS = ("train_images", "train_labels", "test_images", "test_labels")


def idx_dataset(train_side, test_side, test_count=12):
    """Overrides whose dataset section points at IDX files written into tmp_path.

    40 train and test_count test images, of train_side and test_side pixels square.
    """
    def overrides(tmp_path) -> dict:
        section = {"type": "idx"}
        for split, side, n in (("train", train_side, 40), ("test", test_side, test_count)):
            images, labels = tmp_path / f"{split}-images.idx", tmp_path / f"{split}-labels.idx"
            images.write_bytes(struct.pack(">IIII", data.IDX_IMAGES_MAGIC, n, side, side) + bytes(n * side * side))
            labels.write_bytes(struct.pack(">II", data.IDX_LABELS_MAGIC, n) + bytes(i % 4 for i in range(n)))
            section[f"{split}_images"], section[f"{split}_labels"] = str(images), str(labels)
        return {"dataset": section}

    return overrides


NAN, INF = float("nan"), float("inf")  # json.dumps writes them as NaN and Infinity
BAD_INPUTS = {
    "int_given_float": ({"clients_per_round": 5.0}, "run"),
    "int_given_string": ({"seed": "x"}, "run"),
    "int_given_bool": ({"total_clients": True}, "run"),
    "repeats_given_float": ({"repeats": 2.0}, "run"),
    "section_not_object": ({"defense": 3}, "run"),
    "ldp_not_object": ({"ldp": [1.0]}, "run"),
    "dataset_not_object": ({"dataset": "synthetic"}, "run"),
    "hidden_dims_not_list": ({"hidden_dims": 6}, "run"),
    "hidden_dims_float_item": ({"hidden_dims": [6.5]}, "run"),
    "dataset_value_rejected": ({"dataset": {"type": "synthetic", "per_class": 0}}, "run"),
    "idx_file_malformed": ({"dataset": {"type": "idx", **dict.fromkeys(IDX_PATHS, __file__)}}, "run"),
    "source_class_beyond_dataset": ({"source_class": 12}, "run"),
    "more_clients_than_samples": ({"total_clients": 5000}, "run"),
    # The config no longer has a sweep key: whatever value it gives is rejected.
    "config_sweep_not_list": ({"sweep": 0.2}, "sweep --fractions 0.25"),
    "config_sweep_bool_item": ({"sweep": [False, 0.25]}, "run"),
    "config_sweep_string_item": ({"sweep": [0.0, "0.25"]}, "run"),
    "fractions_not_numbers": ({}, "sweep --fractions abc"),
    "fractions_out_of_range": ({}, "sweep --fractions 0.2,0.9"),
    "train_test_feature_dims_differ": (idx_dataset(4, 5), "run"),
    "seed_negative": ({"seed": -1}, "run"),
    "hidden_dims_zero_width": ({"hidden_dims": [0]}, "run"),
    "kmeans_guard_negative": ({"defense": {"kind": "kmeans", "kmeans_guard": -1.0}}, "run"),
    "zscore_threshold_negative": ({"defense": {"kind": "zscore", "zscore_threshold": -0.5}}, "run"),
    "kmeans_max_iters_negative": ({"defense": {"kind": "kmeans", "kmeans_max_iters": -5}}, "run"),
    "client_lr_nan": ({"client_lr": NAN}, "run"),
    "ldp_epsilon_infinite": ({"ldp": {"epsilon": INF}}, "run"),
    "ldp_sensitivity_nan": ({"ldp": {"sensitivity": NAN}}, "run"),
    "ldp_scale_underflows": ({"ldp": {"epsilon": 1e300, "sensitivity": 1e-300}}, "run"),
    "ldp_scale_overflows": ({"ldp": {"epsilon": 1e-300, "sensitivity": 1e300}}, "run"),
    # A finite scale whose largest draw passes the eliminators' report limit, past which the
    # kmeans guard's squares would overflow.
    "ldp_draw_past_report_limit": (
        {"ldp": {"sensitivity": 1e160}, "defense": {"kind": "kmeans"}, "malicious_fraction": 0.4}, "run"
    ),
    "dataset_separation_nan": ({"dataset": {**SMALL_CONFIG["dataset"], "separation": NAN}}, "run"),
    "idx_test_set_empty": (idx_dataset(4, 4, test_count=0), "run"),
    "dataset_classes_beyond_patterns": ({"dataset": {"type": "synthetic", "num_classes": 75, "dim": 6}}, "run"),
    "dataset_test_per_class_zero": ({"dataset": {"type": "synthetic", "test_per_class": 0}}, "run"),
    "fractions_share_a_directory": ({}, "sweep --fractions 0.25,0.25,0.250"),
    "fractions_repeat_to_nine_digits": ({}, "sweep --fractions 0.1,0.1000000000001"),
    "fractions_nan": ({}, "sweep --fractions nan"),
    "fractions_negative_zero_repeats_zero": ({}, "sweep --fractions 0,-0"),
    "poison_spec_key_unknown": ({"poison_spec": {"source_class": 1}}, "run"),
    # Raw JSON text: json.dumps cannot give a key twice.
    "key_repeated": ('{"seed": 1, "seed": 2}', "run"),
    "defense_key_repeated": ('{"defense": {"kind": "kmeans", "kind": "zscore"}}', "run"),
    "idx_given_synthetic_key": (
        lambda tmp_path: {"dataset": {**idx_dataset(4, 4)(tmp_path)["dataset"], "num_classes": 3}}, "run"
    ),
}


@pytest.mark.parametrize("overrides, command", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_1_before_training(tmp_path, capsys, monkeypatch, overrides, command):
    def no_training(*args):
        raise AssertionError("training started before the input was rejected")

    monkeypatch.setattr(cli, "run_experiment", no_training)
    if type(overrides) is str:
        config = tmp_path / "config.json"
        config.write_text(overrides, encoding="utf-8")
    else:
        config = write_config(tmp_path, overrides(tmp_path) if callable(overrides) else overrides)
    argv = [*command.split(), "--config", str(config), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize("phase", ["synthesize", "run_experiment"])
@pytest.mark.parametrize(
    "raised, shown",
    [
        (MemoryError("Unable to allocate 7.28 TiB"), "error: Unable to allocate 7.28 TiB"),
        (MemoryError(), "error: MemoryError"),
    ],
    ids=["numpy_message", "bare"],
)
def test_memory_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch, phase, raised, shown):
    """A MemoryError while the datasets are built or while training runs ends in one
    error line and exit 1. Both phases raise it in place of any allocation."""
    def out_of_memory(*args, **kwargs):
        raise raised

    monkeypatch.setattr(cli, phase, out_of_memory)
    config = write_config(tmp_path)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [shown]


# --- fuzz -----------------------------------------------------------------------

class TrainingReached(Exception):
    """Raised in place of run_experiment: the input passed every check."""


# Any JSON value. Integers stay small, so no dataset they size gets large;
# floats include NaN and the infinities, which json.dumps writes as NaN and Infinity.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 60) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
# Values of each JSON type a config default has, in range and out of it.
FITTING = {
    bool: st.booleans(),
    int: st.integers(-2, 60),
    float: st.floats(-0.5, 2.0) | st.sampled_from([NAN, INF, -INF]) | st.floats(),
    str: st.sampled_from([*DEFENSE_KINDS, "synthetic", "idx", "other"]),
    tuple: st.lists(st.integers(-1, 8) | st.floats(-0.1, 0.6), max_size=3),
}
SCHEMA = asdict(FederationConfig())
# Each dataset section's keys with a value of their JSON type: the defaults, or the IDX key names as paths.
DATASETS = {
    "synthetic": {"type": "synthetic", **asdict(data.SyntheticData())},
    "idx": {"type": "idx", **asdict(data.IdxData(*IDX_PATHS))},
}
KEY_NAMES = sorted({*SCHEMA, "dataset", *DATASETS["synthetic"], *DATASETS["idx"]})


def fitting_values(default):
    """Values of the default's JSON type; a section gets its kind or type and some of its other keys."""
    if type(default) is dict:
        kinds = {k: fitting_values(v) for k, v in default.items() if k in ("kind", "type")}
        others = {k: fitting_values(v) for k, v in default.items() if k not in kinds}
        return st.fixed_dictionaries(kinds, optional=others)
    if type(default) is str:  # the default kind about half the time
        return st.just(default) | FITTING[str]
    return FITTING[type(default)]


@st.composite
def configs(draw):
    """A config of schema keys, with either dataset section or none, spoiled at most once:
    any JSON value for the whole config, or for a key of any name in the top level or in a section."""
    config = draw(fitting_values(SCHEMA))
    kind = draw(st.sampled_from(["none", *sorted(DATASETS)]))
    if kind != "none":
        config["dataset"] = draw(fitting_values(DATASETS[kind]))
    spoiler = draw(st.sampled_from(["none", "none", "key", "whole"]))  # half stay unspoiled
    if spoiler == "whole":
        return draw(JSON_VALUES)
    if spoiler == "key":
        section = draw(st.sampled_from([config, *(v for v in config.values() if type(v) is dict)]))
        section[draw(st.sampled_from(KEY_NAMES) | st.text(max_size=3))] = draw(JSON_VALUES)
    return config


@settings(max_examples=150)
@given(config=configs())
def test_fuzzed_config_exits_1_or_reaches_training(config):
    """Any config either fails with one error line or passes every check; nothing else escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["run", "--config", str(path), "--out", str(Path(tmp) / "o")]
        err = io.StringIO()
        with mock.patch.object(cli, "run_experiment", side_effect=TrainingReached), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except TrainingReached:
                event("reached training")
                return
    lines = err.getvalue().splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error:"), (code, lines)


# --- config echo ------------------------------------------------------------------

@pytest.mark.parametrize(
    "overrides", [{"seed": 9, "ldp": {"epsilon": 2.0}}, idx_dataset(4, 4)], ids=["synthetic", "idx"]
)
def test_summary_config_echo_reruns_identically(tmp_path, overrides):
    """summary.json's config, written back out as a config file, reproduces the run byte for byte."""
    config = write_config(tmp_path, overrides(tmp_path) if callable(overrides) else overrides)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "first")]) == 0
    summary = json.loads((tmp_path / "first" / "summary.json").read_text(encoding="utf-8"))
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(summary["config"]), encoding="utf-8")
    assert cli.main(["run", "--config", str(echo), "--out", str(tmp_path / "again")]) == 0
    for name in ("rounds.csv", "summary.json"):
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "again" / name).read_bytes(), name


# --- sweep ------------------------------------------------------------------------

def test_sweep_outputs_and_reruns_identically(tmp_path):
    config = write_config(tmp_path)
    args = ["sweep", "--config", str(config), "--fractions", "0.0,0.25"]
    assert cli.main(args + ["--out", str(tmp_path / "s1")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "s2")]) == 0
    header, rows = read_csv(tmp_path / "s1" / "sweep.csv")
    assert header == list(cli.SWEEP_COLUMNS)
    assert len(rows) == 4  # 2 fractions x defense off/on
    assert [r["defense_on"] for r in rows] == ["0", "1", "0", "1"]
    for sub in ("frac_0_off", "frac_0_on", "frac_0.25_off", "frac_0.25_on"):
        assert (tmp_path / "s1" / sub / "rounds.csv").exists()
        a = (tmp_path / "s1" / sub / "rounds.csv").read_bytes()
        b = (tmp_path / "s2" / sub / "rounds.csv").read_bytes()
        assert a == b
    assert (tmp_path / "s1" / "sweep.csv").read_bytes() == (tmp_path / "s2" / "sweep.csv").read_bytes()


def test_sweep_requires_fractions_somewhere(tmp_path, capsys):
    """A missing --fractions is an argparse usage error, like a missing --config."""
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--fractions" in capsys.readouterr().err


def test_sweep_rejects_defense_none(tmp_path, capsys):
    config = write_config(tmp_path, {"defense": {"kind": "none"}})
    assert (
        cli.main(["sweep", "--config", str(config), "--fractions", "0.2", "--out", str(tmp_path / "o")])
        == 1
    )
    assert "defense" in capsys.readouterr().err


def test_sweep_cross_file_consistency(tmp_path):
    """sweep.csv rows must agree with each sub-run's summary.json, and the
    off arm echoes the configured defense with only its kind switched off."""
    config = write_config(tmp_path, {"defense": {"kind": "kmeans", "zscore_one_sided": True}})
    out = tmp_path / "out"
    cli.main(["sweep", "--config", str(config), "--fractions", "0.25", "--out", str(out)])
    _, rows = read_csv(out / "sweep.csv")
    configs = {}
    for row, label in zip(rows, ("off", "on")):
        summary = json.loads(
            (out / f"frac_0.25_{label}" / "summary.json").read_text(encoding="utf-8")
        )
        assert float(row["final_accuracy"]) == pytest.approx(
            summary["final_epoch_means"]["accuracy"]
        )
        assert float(row["mean_det_accuracy"]) == pytest.approx(summary["mean_det_accuracy"])
        configs[label] = summary["config"]
    assert configs["on"]["defense"]["zscore_one_sided"] is True
    configs["off"]["defense"]["kind"] = "kmeans"
    assert configs["off"] == configs["on"]


# --- misc ------------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "fedsim" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "run" in out and "sweep" in out


# --- behaviour lock -----------------------------------------------------------------

def cli_outputs(tmp_path) -> dict:
    """Config echo, rounds.csv header and final means of a run and a two-fraction sweep.

    Keyed by each report directory's path relative to tmp_path.
    """
    config = write_config(tmp_path)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    sweep = ["sweep", "--config", str(config), "--fractions", "0.0,0.25"]
    assert cli.main(sweep + ["--out", str(tmp_path / "sweep")]) == 0
    outputs = {}
    for path in sorted(tmp_path.rglob("summary.json")):
        summary = json.loads(path.read_text(encoding="utf-8"))
        outputs[path.parent.relative_to(tmp_path).as_posix()] = {
            "config": summary["config"],
            "rounds_header": (path.parent / "rounds.csv").read_text(encoding="utf-8").split("\n")[0],
            "final_epoch_means": summary["final_epoch_means"],
        }
    return outputs


def test_outputs_match_golden(tmp_path):
    """A change that alters these on purpose rewrites the file (run this module) and says why."""
    got = cli_outputs(tmp_path)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    for name, expected in want.items():
        # Compared as JSON text, so an int echoed where a float was (1 vs 1.0) differs.
        assert json.dumps(got[name]["config"], sort_keys=True) == json.dumps(
            expected["config"], sort_keys=True
        ), name
        assert got[name]["rounds_header"] == expected["rounds_header"], name
        assert got[name]["final_epoch_means"] == pytest.approx(
            expected["final_epoch_means"], rel=1e-9, abs=0.0
        ), name


if __name__ == "__main__":
    # Rewrite the golden file from the current code: PYTHONPATH=src python tests/test_cli.py
    with tempfile.TemporaryDirectory() as tmp:
        outputs = cli_outputs(Path(tmp))
    GOLDEN.write_text(json.dumps(outputs, indent=2, sort_keys=True) + "\n", encoding="utf-8")
