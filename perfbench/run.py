"""Benchmark of carryideals: one seeded workload per run, every answer checked.

    python3 perfbench/run.py --workload ideal_build --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from src/ with no
build step; CARRYIDEALS_JOBS and CARRYIDEALS_PURE are removed from the
environment, so no process pool runs and no kernel choice is forced.
Set-up (a fresh interpreter, the import, the seeded inputs and a warm-up) is
repeated SETUP_RUNS times in separate processes; the last of them goes on to
the measured run in perfbench/worker.py. Times are scaled to a fixed
machine speed measured by a reference loop. With --trace 0 the last line of
output is a JSON object with the end-to-end metrics, with --trace 1 one with
the per-layer metrics. The lines before it give the environment and every
metric with its unit. The exit code is 0 only when every answer passed its
check. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ideal_build", "betti_koszul", "cli_queries")
SETUP_RUNS = 5
CHILD_TIMEOUT = 170


def source_digest():
    """SHA-256 over the package sources, a commit id that needs no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def child_env():
    # no process pool, no forced kernel, and src/ (added by the worker) is the
    # only place the package can come from
    return {k: v for k, v in os.environ.items()
            if k not in ("CARRYIDEALS_JOBS", "CARRYIDEALS_PURE", "PYTHONPATH")}


def run_worker(args, extra, deadline):
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--started", repr(started)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(deadline - started, 1))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the jobs per pass (the smoke test uses a small value)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + CHILD_TIMEOUT
    try:
        setups = [run_worker(args, ["--setup-only"], deadline) for _ in range(SETUP_RUNS - 1)]
        result = run_worker(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(result)

    metrics = dict(result["metrics"])
    info = dict(result["info"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
        info["unscaled"]["setup_s"] = statistics.median(s["unscaled_setup_s"] for s in setups)
    attempted, failed = result["attempted"], result["failed"]
    env = dict(result["env"], commit=git_commit(), source_sha256=source_digest(),
               nproc=len(os.sched_getaffinity(0)), workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace, **info)
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    for report in result["failures"]:
        print(f"FAILED {report}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
