"""Record the reference final-epoch means that every benchmark run checks against.

    python3 perfbench/record_reference.py [workload ...]

Runs each workload once at full size and once shrunk (the warm-up config),
both on the reference seed, and writes their summary.json final-epoch
means to reference.json. Run it only when a change to fedsim is meant to
change its numbers, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
from workloads import REFERENCE_SEED, WORKLOADS


def record(cli, workload, warmup: bool) -> dict:
    work_dir = run.ROOT / ".perfbench_run" / f"record-{workload.name}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        runner = run.Runner(cli, workload, REFERENCE_SEED, work_dir, None, warmup=warmup)
        runner.invoke(traced=False)
        if runner.failed:
            raise SystemExit(f"error: {workload.name} failed its output check; nothing recorded")
        return checks.final_means(checks.read_tree(runner.out_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(names) -> int:
    os.environ.update(dict.fromkeys(run.THREAD_VARS, "1"))
    cli = run.load_fedsim_cli()
    recorded = json.loads(run.REFERENCE_FILE.read_text()) if run.REFERENCE_FILE.exists() else {}
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        recorded[name] = {"warmup": record(cli, workload, True), "full": record(cli, workload, False)}
        print(f"recorded {name}")
    run.REFERENCE_FILE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
