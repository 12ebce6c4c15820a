"""Regenerate the case pools and goldens under data/.

    python3 bench/record.py [--workload NAME]

Run from the root of a source checkout.  Goldens are the outcomes of the
library as checked out, so re-record only when an output change is intended;
the benchmark then measures against the new goldens.

The generated pools come from workloads.POOL_SEED.  Each case is run
RECORD_REPEATS times; an op's cost is its median time, scaled by the gauge
as the benchmark scales it, and a case's cost is the sum over its ops.  The
`fixed` costliest cases are in every run.  The rest are sorted by op count,
then by how many of their ops are slower than the pool's p95, p90 and p50
op, then by cost, and cut into strata of `stratum_size` cases, from which a
run draws one case each (see workloads.load).  So every seed's cases have
about the same number of ops beyond each of those percentiles, which keeps
the op percentiles of a run from depending on the seed.  A case in which any
op leaks an internal error, or that costs over MAX_CASE_S, is not admitted
to a generated pool.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from collections import Counter

import run
from gauge import gauge, scale

RECORD_REPEATS = 5
# A generated case slower than this when recorded is not admitted to a pool.
# Three of the first 772 query cases took 1.6-3.5 s, over 20 times the mean:
# each would be a quarter of a pass on its own, and whether a seed drew one
# would decide the run's wall time and slowest case.
MAX_CASE_S = 1.0
SIZES = {
    # workload: (fixed cases, strata, stratum size); a run has fixed + strata cases
    "queries": (1, 96, 8),
    "blowup-chains": (4, 196, 4),
}


def outcomes_and_cost(workloads, workload, ready):
    """Outcomes of one case's ops, checked to repeat, and each op's median
    time over the repeats, scaled by the gauge read around each repeat."""
    runs, repeats = [], []
    clock = time.perf_counter
    for _ in range(RECORD_REPEATS):
        outcomes, times = [], []
        before = gauge()
        for op in workloads.ops_of(workload, ready, Counter()):
            start = clock()
            outcome = workloads.outcome_of(op)
            times.append(clock() - start)
            if outcome == workloads.STOPPED:
                break
            outcomes.append(outcome)
        factor = scale(before, gauge())
        runs.append(outcomes)
        repeats.append([t * factor for t in times[: len(outcomes)]])
    if any(r != runs[0] for r in runs):
        raise RuntimeError(f"outcomes of a {workload} case do not repeat")
    return runs[0], [statistics.median(op) for op in zip(*repeats)]


def record_corpus(workloads) -> dict:
    cases = []
    for name, text in workloads.RESOLVE_CORPUS.items():
        case = {"name": name, "problem": text}
        ready = workloads.prepare("resolve-corpus", case)
        case["golden"], _ = outcomes_and_cost(workloads, "resolve-corpus", ready)
        cases.append(case)
    return {"cases": cases}


def record_pool(workloads, workload) -> dict:
    fixed, strata, size = SIZES[workload]
    generate = {
        "queries": workloads.generate_query_case,
        "blowup-chains": workloads.generate_chain_case,
    }[workload]
    rng = random.Random(workloads.POOL_SEED)
    pool = []
    while len(pool) < fixed + strata * size:
        case = generate(rng)
        ready = workloads.prepare(workload, case)
        outcomes, costs = outcomes_and_cost(workloads, workload, ready)
        if not outcomes or sum(costs) > MAX_CASE_S or any(o.startswith("leak:") for o in outcomes):
            continue
        if workload == "blowup-chains":
            case["steps"] = case["steps"][: len(outcomes)]
        pool.append((costs, {**case, "golden": outcomes}))
        print(f"{workload}: {len(pool)} cases", end="\r", file=sys.stderr)
    # The costliest cases first, then the rest in strata of alike cases.
    pool.sort(key=lambda item: sum(item[0]), reverse=True)
    op_costs = sorted(c for costs, _ in pool[fixed:] for c in costs)
    cuts = [op_costs[int(q * len(op_costs))] for q in (0.95, 0.9, 0.5)]

    def likeness(item):
        costs = item[0]
        return len(costs), *(sum(c > cut for c in costs) for cut in cuts), sum(costs)

    pool[fixed:] = sorted(pool[fixed:], key=likeness, reverse=True)
    return {
        "pool_seed": workloads.POOL_SEED,
        "fixed": fixed,
        "stratum_size": size,
        "cases": [
            {**case, "recorded_ms": round(sum(costs) * 1e3, 2), "op_ms": [round(c * 1e3, 3) for c in costs]}
            for costs, case in pool
        ],
    }


def main(argv=None) -> int:
    run.import_library()
    import workloads

    parser = argparse.ArgumentParser(description="Regenerate bench/data/*.json.")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)

    for workload in args.workload or workloads.WORKLOADS:
        data = record_corpus(workloads) if workload == "resolve-corpus" else record_pool(workloads, workload)
        path = workloads.DATA / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        cases = data.pop("cases")
        # one case per line keeps the file diffable
        head = json.dumps(data)[:-1] + (", " if data else "")
        with open(path, "w") as fh:
            fh.write(head + '"cases": [\n')
            fh.write(",\n".join(json.dumps(c) for c in cases))
            fh.write("\n]}\n")
        print(f"wrote {path} ({len(cases)} cases)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
