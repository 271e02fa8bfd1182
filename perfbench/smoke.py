"""Fast self-check of the benchmark (about 20 s):

    python3 perfbench/smoke.py

- BENCHMARK.json names exactly the workloads run.py runs, with their reasons;
- every metric in BENCHMARK.json prints with its unit, traced and untraced;
- counts repeat exactly across two traced runs of one seed;
- the output check rejects corrupted report files;
- without the fedsim sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys

import checks
import run
import tracing
from workloads import REFERENCE_SEED, WORKLOADS

WORK_DIR = run.ROOT / ".perfbench_run" / "smoke"


def bench(*args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess, trace: bool) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3, result
    units = run.declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"metrics {got} != declared {units}"
    for name, unit in units.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name
    assert any(line.startswith("machine ") for line in lines)
    assert trace or any(line.startswith("host ") for line in lines)
    return result


def check_declared_workloads() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    assert declared == {w.name: w.why for w in WORKLOADS.values()}, declared


def check_metrics_and_counts() -> None:
    result_of(bench("--trace", "0"), trace=False)
    spans = WORK_DIR / "spans.jsonl"
    first = result_of(bench("--trace", "1", "--spans", str(spans)), trace=True)["metrics"]
    second = result_of(bench("--trace", "1"), trace=True)["metrics"]
    counts = [name for name in first if tracing.is_count(name)]
    assert counts, "no count metrics"
    differ = [name for name in counts if first[name]["value"] != second[name]["value"]]
    assert not differ, f"counts differ between runs of one seed: {differ}"
    with open(spans, encoding="utf-8") as f:
        names = {json.loads(line)["name"] for line in f}
    assert names == set(tracing.CALL_SITES) - {"data.load_idx"}, names


def corruptions(rounds: bytes):
    header, *rows = rounds.decode().splitlines(keepends=True)
    fields = rows[0].split(",")
    fields[4] = "0.123456789"  # accuracy of repeat 0, epoch 0
    yield "changed value", header + ",".join(fields) + "".join(rows[1:])
    yield "dropped row", header + "".join(rows[:-1])
    yield "renamed column", header.replace("accuracy", "acc", 1) + "".join(rows)


def check_corruption_rejected() -> None:
    os.environ.update(dict.fromkeys(run.THREAD_VARS, "1"))
    cli = run.load_fedsim_cli()
    workload = WORKLOADS["desk"]
    reference = run.load_reference(workload.name)["warmup"]
    runner = run.Runner(cli, workload, REFERENCE_SEED, WORK_DIR / "desk", reference, warmup=True)
    runner.invoke(traced=False)
    assert runner.failed == 0, "clean output was rejected"
    files = checks.read_tree(runner.out_dir)
    for label, text in corruptions(files["rounds.csv"]):
        bad = {**files, "rounds.csv": text.encode()}
        try:
            checks.check_outputs(bad, runner.cfg)
        except checks.OutputError:
            pass
        else:
            raise AssertionError(f"structure check accepted a rounds.csv with a {label}")
        try:
            runner.check(bad)
        except checks.OutputError:
            continue
        raise AssertionError(f"output check accepted a rounds.csv with a {label}")


def check_bare_directory_fails() -> None:
    bare = WORK_DIR / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = bench("--trace", "0", cwd=bare)
    assert proc.returncode != 0, "benchmark succeeded without fedsim sources"
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    try:
        for check in (
            check_declared_workloads, check_bare_directory_fails,
            check_corruption_rejected, check_metrics_and_counts,
        ):
            check()
            print(f"ok  {check.__name__}")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
