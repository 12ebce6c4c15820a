"""qrees benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload resolve-corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  The load is a closed loop with one caller in a single
process and thread: each op starts after the previous one returns.  A run
repeats whole passes over the workload's cases for about ``--seconds``,
scales every time it takes to one reference speed with ``gauge.py``, checks
every op's outcome against the goldens in ``data/``, and prints a line with
the run's context and then, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones of ``tracer.py``.  README.md lists them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from gauge import gauge, scale

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Fewest passes a run makes: untraced ones without tracing, and traced ones
# (each paired with an untraced one) with it.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Least time between two readings of the gauge within a pass.  The machine's
# speed can change within a tenth of a second, so readings must be close to
# the ops they scale; each takes 2-4 ms.
GAUGE_EVERY_S = 0.05


def import_library() -> None:
    """Put the checkout's src/ first on the path; refuse any other qrees."""
    if not (SRC / "qrees" / "__init__.py").is_file():
        sys.exit(f"bench: no qrees sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qrees

    if Path(qrees.__file__).resolve().parent != (SRC / "qrees").resolve():
        sys.exit(f"bench: imported qrees from {qrees.__file__}, not from {SRC}")


def time_setup(workload: str, seed: int) -> float:
    """Time of a fresh interpreter importing qrees and parsing the workload's
    inputs, what a command-line user pays on every invocation, scaled to the
    reference speed.  The interpreter reads the gauge itself, at its start and
    end, since it may run on another CPU than this process; the readings'
    own time is taken off."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    done = subprocess.run(command, check=True, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    readings = json.loads(done.stdout)
    return (elapsed - sum(readings)) * scale(*readings)


def judge(observed: str, golden: str) -> tuple[bool, bool]:
    """(failed, wrong) for one op.  A leak is a failure even when the golden
    records the same leak.  An op whose golden is a leak and that now ends
    otherwise is a fixed defect: it passes, unverified until re-recorded."""
    if observed == golden:
        return observed.startswith("leak:"), False
    if golden.startswith("leak:") and not observed.startswith("leak:"):
        return False, False
    return True, True


class Pass:
    """One pass over every case, in order, optionally under a tracer.

    The gauge is read before the first case, and after a case once
    GAUGE_EVERY_S have gone by since the last reading, and after the last
    case.  The op times of the cases between two readings are scaled by
    those two readings."""

    def __init__(self, workload, cases, prepared, tracer=None):
        import workloads

        self.tally: Counter = Counter()
        self.op_seconds: list[float] = []
        self.case_seconds: list[float] = []
        self.outcomes: list[str] = []
        self.failed = 0
        self.wrong = 0
        clock = time.perf_counter
        readings = [gauge()]
        last_reading = clock()
        pending: list[list[float]] = []  # raw op times of the cases since then
        for index, (case, ready) in enumerate(zip(cases, prepared)):
            raw = []
            for op, golden in zip(workloads.ops_of(workload, ready, self.tally), case["golden"]):
                if tracer is not None:
                    tracer.begin_op()
                t0 = clock()
                outcome = workloads.outcome_of(op)
                raw.append(clock() - t0)
                self.outcomes.append(outcome)
                failed, wrong = judge(outcome, golden)
                self.failed += failed
                self.wrong += wrong
            pending.append(raw)
            if clock() - last_reading >= GAUGE_EVERY_S or index == len(cases) - 1:
                readings.append(gauge())
                last_reading = clock()
                factor = scale(readings[-2], readings[-1])
                for times in pending:
                    self.op_seconds += [t * factor for t in times]
                    self.case_seconds.append(sum(times) * factor)
                pending.clear()
        self.wall = sum(self.case_seconds)
        # for span totals, which are kept per pass, not per case
        self.scale = scale(*readings)


def typical(passes, attr):
    """Element-wise median of the passes' timings: the same op (or case) in
    every pass, timed once per pass.  Percentiles are then taken across ops,
    so a statistic over a few distinct cases does not jump between them as
    the machine's speed varies from pass to pass."""
    return [statistics.median(times) for times in zip(*(getattr(p, attr) for p in passes))]


def end_to_end(plain, setup_s, attempted, failed):
    wall = statistics.median(p.wall for p in plain)
    ops = typical(plain, "op_seconds")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(ops) / wall, "1/s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(ops, n=10, method="inclusive")[8] * 1e3, "ms"),
        "max_case_s": (max(typical(plain, "case_seconds")), "s"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(plain, traced, parse_s, problems):
    """Per-layer metrics of the traced passes; appends to `problems` every
    integrity check that fails."""
    counts = [tracer.counts() | dict(p.tally) for p, tracer in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced passes")
    if any(p.outcomes != plain[0].outcomes for p, _ in traced):
        problems.append("traced outputs differ from untraced outputs")
    metrics = {}
    for name, value in counts[0].items():
        metrics[name] = (value, "ratio" if name.endswith("_frac") else "count")
    for name in ("resolve.steps", "resolve.charts"):
        metrics.setdefault(name, (0, "count"))
    times = [{name: t * p.scale for name, t in tracer.times().items()} for p, tracer in traced]
    for name in times[0]:
        metrics[name] = (statistics.median(t[name] for t in times), "s")
    metrics["problem.parse_problem.s"] = (parse_s, "s")
    traced_wall = statistics.median(p.wall for p, _ in traced)
    metrics["trace.overhead_frac"] = (traced_wall / statistics.median(p.wall for p in plain) - 1, "ratio")
    return metrics


def benchmark(workload: str, seed: int, seconds: float, trace: bool, cases=None) -> dict:
    """One run; returns the result object.  `cases` replaces the seeded case
    list (the self-test uses it to run at a tiny size)."""
    import workloads
    from tracer import Tracer

    problems: list[str] = []
    if cases is None:
        cases = workloads.load(workload, seed)
    if trace:
        before = gauge()
        with Tracer() as parse_tracer:
            prepared = [workloads.prepare(workload, c) for c in cases]
        parse_s = parse_tracer.seconds["problem.parse_problem"] * scale(before, gauge())
    else:
        prepared = [workloads.prepare(workload, c) for c in cases]

    # An untraced run times two fresh set-ups before each pass, so that their
    # median samples the machine over the whole run, not over one moment.
    plain, traced, setups = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if not trace:
            setups += [time_setup(workload, seed), time_setup(workload, seed)]
        plain.append(Pass(workload, cases, prepared))
        if trace:
            with Tracer() as tracer:
                traced.append((Pass(workload, cases, prepared, tracer), tracer))
        enough = len(traced) >= MIN_TRACED_PASSES if trace else len(plain) >= MIN_PASSES
        # stop rather than start a round that would likely end after the deadline
        now = time.perf_counter()
        if enough and now - start + (now - began) > seconds:
            break

    every = plain + [p for p, _ in traced]
    attempted = sum(len(p.outcomes) for p in every)
    failed = sum(p.failed for p in every)
    wrong = sum(p.wrong for p in every)
    if wrong:
        problems.append(f"{wrong} op outcomes differ from the goldens")
    if trace:
        metrics = per_layer(plain, traced, parse_s, problems)
        if workload == "blowup-chains" and metrics["ideal.groebner_basis.calls"][0]:
            problems.append("blowup-chains made Groebner calls")
    else:
        metrics = end_to_end(plain, statistics.median(setups), attempted, failed)
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        readings = [gauge()]

    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        for case in workloads.load(args.workload, args.seed):
            workloads.prepare(args.workload, case)
        readings.append(gauge())
        print(json.dumps(readings))
        return 0

    context = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(json.dumps({"context": context}), flush=True)
    print(json.dumps(benchmark(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
