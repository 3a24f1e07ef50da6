"""One benchmark process: set up one workload, run it, check every answer.

Started by run.py in a fresh interpreter. Set-up imports the package from
src/, builds the job list from the seed and runs a small warm-up list. The
timed part is a closed loop, one client: passes over the fixed job list,
each job started when the previous one returns, until the time budget is
spent and at least MIN_PASSES passes are done. Each answer is checked right
after its job, outside the job's timing. With --trace 1 the passes
alternate between untraced and traced, after one untraced pass that fills
the caches.

The last line of standard output is a JSON object that run.py reads.
"""

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer, per_layer, quantile

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
WARMUP_SCALE = 0.05
REPORTED_FAILURES = 5
# Times are reported at a fixed machine speed: the speed of the moment is
# measured by a short reference loop after every job, and a time is scaled
# by REFERENCE_S over the median reference time of the nine jobs around it.
# On a shared machine the speed of pure-Python code drifts by a third over
# tens of seconds; the scaled times drift several times less.
REFERENCE_S = 0.002
REFERENCE_WINDOW = 4


def reference():
    """Seconds for a fixed loop of tuple, set and integer work, about 2 ms."""
    start = time.perf_counter()
    seen = set()
    total = 0
    for i in range(3000):
        key = (i % 7, i // 7, i % 13)
        if key not in seen:
            seen.add(key)
        total += sum(x * x % 5 for x in key)
    return time.perf_counter() - start


def speed_factors(references):
    """REFERENCE_S over the median reference time in a window around each job."""
    w = REFERENCE_WINDOW
    return [REFERENCE_S / statistics.median(references[max(0, i - w): i + w + 1])
            for i in range(len(references))]


class Checker:
    """Checks each distinct (job, answer) once and counts failed executions."""

    def __init__(self, check, expect):
        self.check, self.expect = check, expect
        self.verdicts = {}
        self.failed = 0
        self.attempted = 0
        self.reports = []

    def __call__(self, job, answer, error):
        self.attempted += 1
        if error is None:
            key = (job, hashlib.sha1(repr(answer).encode()).hexdigest())
            if key not in self.verdicts:
                try:
                    self.verdicts[key] = self.check(job, answer, self.expect)
                except Exception:  # a malformed answer is a failed job
                    self.verdicts[key] = [traceback.format_exc()]
            errors = self.verdicts[key]
        else:
            errors = [error]
        if errors:
            self.failed += 1
            if len(self.reports) < REPORTED_FAILURES:
                self.reports.append(f"{job!r}: {'; '.join(errors)}"[:2000])


class Pass:
    """One pass over the job list: measured latencies, the speed factor of
    each job, and for a traced pass each job's layer times (two dicts, layer
    -> self seconds and layer -> seconds inside its outermost spans)."""

    def __init__(self, latencies, references, layers):
        self.latencies = latencies
        self.layers = layers
        self.scaled = [x * f for x, f in zip(latencies, speed_factors(references))]
        self.wall = sum(latencies)
        self.scaled_wall = sum(self.scaled)


def run_pass(jobs, run, api, checker, tracer=None):
    latencies, references, layers = [], [], []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.start_job(index)
        start = time.perf_counter()
        try:
            answer, error = run(job, api), None
        except Exception:  # a failed job is counted, and the loop goes on
            answer, error = None, traceback.format_exc()
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            layers.append((tracer.job_self, tracer.job_inclusive))
        references.append(reference())
        checker(job, answer, error)
    return Pass(latencies, references, layers)


def scored_run(jobs, run, api, checker, seconds):
    passes = [run_pass(jobs, run, api, checker) for _ in range(MIN_PASSES)]
    while sum(p.wall for p in passes) + statistics.median(p.wall for p in passes) <= seconds:
        passes.append(run_pass(jobs, run, api, checker))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def summary(walls, per_job):
        return (statistics.median(walls), 1000 * quantile(per_job, 0.5),
                1000 * quantile(per_job, 0.9))

    # each job's latency is its median over the passes
    wall, p50, p90 = summary([p.scaled_wall for p in passes],
                             [statistics.median(x) for x in zip(*(p.scaled for p in passes))])
    raw = summary([p.wall for p in passes],
                  [statistics.median(x) for x in zip(*(p.latencies for p in passes))])
    return {
        "wall_s": (wall, "s"),
        "job_p50_ms": (p50, "ms"),
        "job_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }, {"passes": len(passes), "jobs_per_pass": len(jobs),
        "unscaled": dict(zip(("wall_s", "job_p50_ms", "job_p90_ms"), raw))}


def traced_run(jobs, run, api, checker, seconds, spans_path):
    tracer = Tracer()
    spent = run_pass(jobs, run, api, checker).wall
    plain, traced = [], []
    while not traced or spent + traced[-1].wall + plain[-1].wall <= seconds:
        tracer.install()
        try:
            traced.append(run_pass(jobs, run, api, checker, tracer))
        finally:
            tracer.uninstall()
        plain.append(run_pass(jobs, run, api, checker))
        spent += traced[-1].wall + plain[-1].wall
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    metrics = per_layer(tracer, traced, statistics.median(p.scaled_wall for p in plain))
    return metrics, {"passes": len(plain) + len(traced) + 1, "jobs_per_pass": len(jobs),
                     "absent_layers": tracer.absent, "hook_errors": tracer.hook_errors,
                     "spans_file": str(spans_path.relative_to(HERE.parent))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() of the parent just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    import carryideals
    import carryideals.cli
    from workloads import WORKLOADS

    if not Path(carryideals.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"carryideals was imported from {carryideals.__file__}, not from {src}")

    api = SimpleNamespace(ci=carryideals, cli=carryideals.cli)
    make, run, check = WORKLOADS[args.workload]
    jobs, expect = make(random.Random(args.seed), args.scale)
    warmup, warm_expect = make(random.Random(f"warm-up {args.seed}"), WARMUP_SCALE * args.scale)
    answers = []
    for job in warmup:
        try:
            answers.append((job, run(job, api), None))
        except Exception:  # checked below like any failed job
            answers.append((job, None, traceback.format_exc()))
    setup_s = time.monotonic() - args.started
    speed = REFERENCE_S / statistics.median(reference() for _ in range(2 * REFERENCE_WINDOW + 1))

    result = {"setup_s": setup_s * speed, "unscaled_setup_s": setup_s}
    if not args.setup_only:
        checker = Checker(check, {**warm_expect, **expect})
        for answer in answers:
            checker(*answer)
        if args.trace:
            spans = HERE / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            metrics, info = traced_run(jobs, run, api, checker, args.seconds, spans)
        else:
            metrics, info = scored_run(jobs, run, api, checker, args.seconds)
        result.update(metrics=metrics, info=info, attempted=checker.attempted,
                      failed=checker.failed, failures=checker.reports, env={
                          "python": sys.version.split()[0],
                          "compiled_kernel": any(m.endswith("._modpc") for m in sys.modules),
                          "carryideals": getattr(carryideals, "__version__", "unknown"),
                      })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
