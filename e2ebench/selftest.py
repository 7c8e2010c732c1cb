#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: verdict digests must not move.

    python3 e2ebench/selftest.py

For every workload in workloads.json, shrunk to a small size, runs uesr_e2e
with threads in {1, 4}, shards in {1, 16} (arena workloads) and tracing off
and on.  Every run must pass its verdict audit, and all runs of a workload
must print the same verdict digest: the engine's reports are
thread/shard-invariant, and the tracing decorators must not change them.
The traced counters must separate the workloads as they were chosen to
(see separations()), and the metric names run.py reports must be exactly
those BENCHMARK.json lists.
Exits nonzero on any mismatch.
"""

import itertools
import json
import os
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark harness in this directory)

# Small instances of each workload: same shape, a few seconds in total.
SMALL = {
    "arena": {"clusters": 256, "sessions": 4096},
    "lossy": {"nodes": 6, "edge-p": 0.5},
}
BATCH = 64  # kBatch in uesr_e2e.cpp


def separations(name, metrics):
    """The traced counters each workload was chosen to show, as
    (description, holds) pairs."""
    m = {k: v for k, (v, _) in metrics.items()}
    return {
        "openloop_arena": [
            ("explore.symbols_per_tx > 8", m["explore.symbols_per_tx"] > 8),
            ("core.slots_per_round < 2", m["core.slots_per_round"] < 2),
        ],
        "burst_arena": [
            ("explore.symbols_per_tx < 2", m["explore.symbols_per_tx"] < 2),
            ("core.slots_per_round == batch",
             m["core.slots_per_round"] == BATCH),
        ],
        "lossy_churn": [
            ("explore.fill_calls == 0 (no arena walks)",
             m["explore.fill_calls"] == 0),
            ("net.hops > 0", m["net.hops"] > 0),
            ("net.retransmits > 0", m["net.retransmits"] > 0),
        ],
    }[name]


def main():
    if not run.build():
        return 2
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {section: {m["name"] for m in bench[section]}
                for section in ("end_to_end", "per_layer")}
    failures = 0
    for name, spec in sorted(run.load_workloads().items()):
        kind = spec["flags"]["kind"]
        shard_choices = (1, 16) if kind == "arena" else (1,)
        digests = set()
        reps = []
        for threads, shards, trace in itertools.product((1, 4), shard_choices,
                                                        (False, True)):
            small = dict(spec, threads=threads, shards=shards, setups=1,
                         flags=dict(spec["flags"], **SMALL[kind]))
            rep = run.run_once(small, seed=7, trace=trace, timeout=120)
            problems = run.check([rep])
            digests.add(rep["digest"])
            reps.append(rep)
            print("%-15s threads=%d shards=%-2d trace=%d digest=%s %s"
                  % (name, threads, shards, trace, rep["digest"],
                     "; ".join(problems) or "ok"))
            failures += bool(problems)
        if len(digests) != 1:
            print("%s: digests differ across threads/shards/trace" % name)
            failures += 1
        layers = run.per_layer(reps, kind)
        for what, holds in separations(name, layers):
            if not holds:
                print("%s: expected %s" % (name, what))
                failures += 1
        reported = {"end_to_end": set(run.end_to_end(reps)),
                    "per_layer": set(layers)}
        for section, names in reported.items():
            if names != declared[section]:
                print("%s: %s metrics differ from BENCHMARK.json: %s"
                      % (name, section,
                         sorted(names.symmetric_difference(declared[section]))))
                failures += 1
    print("selftest: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
