"""fedsim benchmark: run one workload for a fixed time and check every output.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Each run is a closed loop of one: fedsim.cli.main is invoked in this
process, one invocation at a time, on the config and input files written
for the workload and seed. A warm-up invocation (a shrunk config on the
reference seed) comes first and is not timed. Then invocations repeat
until the next one would end after --seconds.

Untraced invocations also time a short fixed loop every 50 ms
(hostspeed.py) and are reported at the loop's reference speed, so that a
shared host's drift in speed cancels.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced invocations and prints the per-layer metrics. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Metric names and units come from BENCHMARK.json. README.md in this
directory says what each metric means and which workload should move it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time
from typing import NamedTuple

import checks
import hostspeed
import tracing
from workloads import REFERENCE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
MIN_TIMED = 2  # byte identity is checked between invocations of one seed
MIN_TRACED = 3  # traced, untraced, traced: counts must repeat between the two traced
# Set-up takes milliseconds on synthetic workloads, so setup_s is timed
# alone this many times after every untraced invocation, each time followed
# by one host-speed loop that scales it.
SETUPS_PER_INVOCATION = 5


def load_fedsim_cli():
    """Import fedsim from this checkout's src/, never from anywhere else."""
    src = (ROOT / "src").resolve()
    if not (src / "fedsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no fedsim sources at {src / 'fedsim'}")
    sys.path.insert(0, str(src))
    import fedsim.cli

    if Path(fedsim.__file__).resolve().parent != src / "fedsim":
        raise SystemExit(f"error: imported fedsim from {fedsim.__file__}, not {src}")
    return fedsim.cli


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Invocation(NamedTuple):
    wall_s: float
    cpu_s: float
    setup_s: float
    tracer: tracing.Tracer
    bytes_written: int
    loop_s: float  # mean host-speed loop time while it ran; 0 if not sampled


class Runner:
    """Invokes one workload's fedsim command and checks what each invocation writes."""

    def __init__(self, cli, workload, seed: int, work_dir: Path, reference, warmup=False):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.reference = reference
        self.cfg = workload.config(seed, warmup)
        self.fractions = workload.warmup_fractions if warmup else workload.fractions
        self.argv = workload.prepare(work_dir, seed, warmup)
        self.out_dir = work_dir / "out"
        self.config_path = work_dir / "config.json"

    def invoke(self, traced: bool, host: hostspeed.HostSpeed | None = None) -> Invocation:
        """One timed invocation; a failed check is counted and reported on stderr.

        With host, the host's speed is sampled while fedsim runs, and the
        samples' own time is taken off the invocation's.
        """
        tracer = tracing.Tracer() if traced else tracing.Tracer(tracing.SETUP_SITES)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        error = None
        with tracer.installed():
            cpu0 = cpu_seconds()
            start = perf_counter()
            with host.sampling() if host else contextlib.nullcontext():
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = self.cli.main(self.argv)
                    if code != 0:
                        error = f"fedsim exited with code {code}"
                except SystemExit as exc:  # argparse rejects bad arguments this way
                    error = f"fedsim exited with code {exc.code}"
                except Exception:  # a crash is a failed run; keep measuring the others
                    error = traceback.format_exc()
            wall = perf_counter() - start
            cpu = cpu_seconds() - cpu0
        loop_s = 0.0
        if host:
            wall -= sum(w for w, _ in host.ticks)
            cpu -= sum(c for _, c in host.ticks)
            loop_s = statistics.mean(w for w, _ in host.ticks or [host.loop()])
        totals = tracer.totals()
        setup = sum(totals[name][1] for name in tracing.SETUP_SITES)
        files = checks.read_tree(self.out_dir) if self.out_dir.is_dir() else {}
        try:
            if error:
                raise checks.OutputError(error)
            self.check(files)
        except checks.OutputError as exc:
            self.failed += 1
            print(f"failed: {self.workload.name} seed {self.seed}: {exc}", file=sys.stderr)
        return Invocation(wall, cpu, setup, tracer, sum(len(b) for b in files.values()), loop_s)

    def check(self, files: dict) -> None:
        checks.check_outputs(files, self.cfg, self.fractions)
        digest = checks.digest(files)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise checks.OutputError("report bytes differ from the first invocation of this seed")
        if self.reference is not None:
            checks.check_reference(files, self.reference)

    def time_setup(self) -> float:
        start = perf_counter()
        self.cli.build_datasets(self.cli.parse_config(self.config_path))
        return perf_counter() - start


def load_reference(name: str) -> dict:
    recorded = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    if name not in recorded:
        raise SystemExit(f"error: {REFERENCE_FILE.name} has no values for workload {name!r}")
    return recorded[name]


def end_to_end(workload, timed: list, setups: list) -> dict:
    """Medians over the invocations, whose times are already at the reference speed."""
    samples = workload.nominal_samples()
    return {
        "wall_s": statistics.median(t.wall_s for t in timed),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(t.cpu_s for t in timed),
        "train_samples_per_s": statistics.median(samples / (t.wall_s - t.setup_s) for t in timed),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(traced: list, untraced: list) -> tuple[dict, list]:
    """Median of each per-layer figure over the traced invocations.

    Counts must repeat exactly between invocations of one seed; any that
    do not are returned as flags.
    """
    runs = [tracing.layer_metrics(t.tracer, t.bytes_written) for t in traced]
    metrics, flags = {}, []
    for name in runs[0]:
        values = [r[name] for r in runs]
        if tracing.is_count(name):
            if len(set(values)) > 1:
                flags.append(f"{name} differs between invocations of one seed: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = (
        statistics.median(t.wall_s for t in traced) - statistics.median(t.wall_s for t in untraced)
    )
    return metrics, flags


def measure(cli, workload, seed: int, seconds: float, trace: bool, work_dir: Path, spans_path=None):
    """Warm up, then run the closed loop; returns (runner, metrics, lines to print)."""
    reference = load_reference(workload.name)
    warm = Runner(cli, workload, REFERENCE_SEED, work_dir / "warmup", reference["warmup"], warmup=True)
    warm.invoke(traced=trace)
    runner = Runner(cli, workload, seed, work_dir / "run",
                    reference["full"] if seed == REFERENCE_SEED else None)
    done = {False: [], True: []}
    setups, measured = [], []
    host = None if trace else hostspeed.HostSpeed()
    minimum = MIN_TRACED if trace else MIN_TIMED
    start, longest = perf_counter(), 0.0
    while True:
        lap = perf_counter()
        traced = trace and len(done[True]) <= len(done[False])
        done[traced].append(runner.invoke(traced, host))
        if host:
            got = done[False][-1]
            factor = hostspeed.REFERENCE_S / got.loop_s
            done[False][-1] = got._replace(
                wall_s=got.wall_s * factor, cpu_s=got.cpu_s * factor, setup_s=got.setup_s * factor,
            )
            for _ in range(SETUPS_PER_INVOCATION):
                alone = runner.time_setup()
                setups.append(alone * hostspeed.REFERENCE_S / host.loop()[0])
            measured.append(got)
        longest = max(longest, perf_counter() - lap)
        if runner.attempted >= minimum and perf_counter() - start + longest > seconds:
            break
    runner.attempted += warm.attempted
    runner.failed += warm.failed
    if trace:
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as f:
                for i, t in enumerate(done[True]):
                    t.tracer.write_spans(f, i)
        metrics, flags = per_layer(done[True], done[False])
        return runner, metrics, ["flag " + flag for flag in flags]
    speed = {
        "unscaled_wall_s_median": statistics.median(t.wall_s for t in measured),
        "loop_s_median": statistics.median(t.loop_s for t in measured),
        "loop_reference_s": hostspeed.REFERENCE_S,
    }
    return runner, end_to_end(workload, done[False], setups), ["host " + json.dumps(speed)]


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write every span as a JSON line here")
    args = parser.parse_args(argv)

    # BLAS reads its thread count once, when numpy first loads it.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    cli = load_fedsim_cli()
    units = declared_metrics(bool(args.trace))
    work_dir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        runner, metrics, notes = measure(
            cli, WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), work_dir, args.spans,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()

    print("machine " + json.dumps(machine_record(), sort_keys=True))
    print("run " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": runner.attempted, "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
    }))
    for line in notes:
        print(line)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
