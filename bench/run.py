"""The aam benchmark: one workload per invocation, every metric with its unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: concrete-ladder, explore, widen-ladder, cli-corpus (see
bench/README.md).  Requests run in a closed loop: one client in the
measured process, one request at a time.

This script imports nothing from the package.  It starts ``worker.py`` in
fresh interpreters: SETUP_SAMPLES times to time set-up alone, then once for
the measured run, so memory is read per workload.  It reports the median
set-up time of all those starts and passes the measured run's metrics
through.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one traced pass.  The last line of
standard output is one JSON object; the lines before it name every failed
request.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 4
# Every run must end within 180 s; a worker still going at this deadline
# is killed and the run fails without a result.
DEADLINE_S = 170


def _worker(args, deadline, *extra) -> tuple:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    # The hash seed follows the workload seed, so string hashing (and with
    # it set and dict layout) is the same in every run of one seed.
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    lines = proc.stdout.splitlines()
    if not lines:
        raise SystemExit("worker printed no result")
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    report, result = _worker(args, deadline)
    if not args.trace:
        setup = [_worker(args, deadline, "--setup-only")[1]["setup_s"]
                 for _ in range(SETUP_SAMPLES)]
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    for line in report:
        print(line)
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
