#!/usr/bin/env python3
"""The fleet benchmark: build fleetbench from source, run one workload,
check its records and print the metrics.

    python3 fleetbench/run.py --workload fleet-dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is built under
.bench_build/fleetbench (Release).  Every line the program prints is
passed through; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics.  --size tiny shrinks
every workload for the benchmark's own tests.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "fleetbench"
RUN_TIMEOUT_S = 170

WORKLOADS = ("fleet-dense", "client-faults")

END_TO_END = {
    "refreshes_per_s": "1/s",
    "client_reads_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fidelity_mean": "ratio",
    "origin_polls": "count",
    "client_stale_rate": "ratio",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.peek_s": "s",
    "sim.ns_per_event": "ns",
    "sim.max_pending": "count",
    "sim.max_same_instant": "count",
    "origin.requests": "count",
    "origin.useful_ratio": "ratio",
    "origin.replay_events": "count",
    "origin.replay_s": "s",
    "origin.replica_updates": "count",
    "proxy.policy_polls": "count",
    "proxy.demand_fills": "count",
    "proxy.failed_polls": "count",
    "proxy.poll_s": "s",
    "proxy.us_per_poll": "us",
    "fleet.relays_sent": "count",
    "fleet.relays_delivered": "count",
    "fleet.relays_applied": "count",
    "fleet.relay_useful_ratio": "ratio",
    "fleet.relays_lost": "count",
    "fleet.relays_retried": "count",
    "fleet.relays_dropped_dark": "count",
    "fleet.relay_s": "s",
    "fleet.shards": "count",
    "fleet.shard_run_s.t1": "s",
    "fleet.shard_run_s.t2": "s",
    "fleet.shard_run_s.tN": "s",
    "fleet.shard_speedup": "x",
    "fleet.shard_overhead": "x",
    "client.requests": "count",
    "client.hit_rate": "ratio",
    "client.fills": "count",
    "client.dark_reads": "count",
    "client.read_s": "s",
    "client.idle_events": "count",
    "client.idle_s": "s",
    "trace.overhead": "x",
    "trace.coverage": "ratio",
}

# Simulated outcome of a fleet run: equal between repetitions, between a
# traced run and its untraced twin, and between a sharded run and the
# single-simulator run of the same inputs.
OUTCOME = (
    "origin_polls", "policy_polls", "demand_fills", "failed_polls",
    "relays_sent", "relays_delivered", "relays_in_flight", "relays_applied",
    "relays_lost", "relays_retried", "relays_dropped_dark",
    "client_requests", "client_hits", "client_misses", "client_stale",
    "client_fills", "client_dark_reads", "client_hit_rate",
    "client_stale_rate", "fidelity_mean", "origin_requests", "origin_200",
)
# Equal between runs of one layout only (replicas differ across layouts).
LAYOUT = ("replica_updates", "replicas", "events", "shards")

RUN_RECORDS = ("run", "untraced", "traced", "scaling", "reference")


def ledger_failures(rec):
    """Ledger invariants every fleet run must satisfy; returns the broken ones."""
    broken = []
    if rec["origin_polls"] != rec["policy_polls"] + rec["demand_fills"]:
        broken.append("origin_polls != policy_polls + demand_fills")
    if rec["relays_sent"] != (rec["relays_delivered"] + rec["relays_in_flight"]
                              + rec["relays_lost"]):
        broken.append("relays_sent != delivered + in_flight + lost")
    if rec["client_hits"] + rec["client_misses"] != rec["client_requests"]:
        broken.append("client hits + misses != requests")
    return broken


def differences(rec, ref, keys):
    """Names of `keys` on which two records disagree."""
    return [k for k in keys if k in ref and rec.get(k) != ref[k]]


def check_runs(records):
    """Check every run record; returns (attempted, failed, problems).

    A run is one operation.  It fails when a ledger does not balance or
    when its simulated outcome differs from the run it must equal: the
    first repetition, its untraced twin, or the single-simulator reference
    of the scaling table.
    """
    attempted, failed, problems = 0, 0, []
    first_run = None
    untraced = None    # latest untraced twin
    scaling = []       # sharded runs awaiting their reference
    for rec in records:
        kind = rec.get("record")
        if kind not in RUN_RECORDS:
            continue
        attempted += 1
        broken = ledger_failures(rec)
        if kind == "run":
            first_run = first_run or rec
            broken += differences(rec, first_run, OUTCOME + LAYOUT)
        elif kind == "scaling":
            if scaling:
                broken += differences(rec, scaling[0], OUTCOME + LAYOUT)
            scaling.append(rec)
        elif kind == "reference":
            for sharded in scaling:
                broken += ["sharded %d threads: %s" % (sharded["threads"], k)
                           for k in differences(sharded, rec, OUTCOME)]
            scaling = []
        elif kind == "untraced":
            untraced = rec
        elif untraced is None:
            broken.append("traced run without an untraced twin")
        else:
            broken += ["traced " + k for k in
                       differences(rec, untraced, OUTCOME + LAYOUT)]
        if broken:
            failed += 1
            problems.append("%s run: %s" % (kind, ", ".join(broken)))
    if scaling:
        failed += 1
        problems.append("sharded runs without a single-simulator reference")
    return attempted, failed, problems


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end_metrics(records):
    runs = [r for r in records if r["record"] == "run"]
    setups = [r["setup_s"] for r in records if r["record"] in ("setup", "run")]
    memory = [r["peak_rss_mb"] for r in records if r["record"] == "memory"]
    first = runs[0]
    return {
        "refreshes_per_s": median(
            [(r["origin_polls"] + r["relays_applied"]) / r["run_s"] for r in runs]),
        "client_reads_per_s": median(
            [r["client_requests"] / r["run_s"] for r in runs]),
        "setup_s": median(setups),
        "peak_rss_mb": max(memory),
        "fidelity_mean": first["fidelity_mean"],
        "origin_polls": first["origin_polls"],
        "client_stale_rate": first["client_stale_rate"],
    }


def per_layer_metrics(records):
    traced = [r for r in records if r["record"] == "traced"]
    untraced = [r for r in records if r["record"] == "untraced"]
    scaling = [r for r in records if r["record"] == "scaling"]
    reference = [r for r in records if r["record"] == "reference"]
    t = traced[0]

    def med(key):
        return median([r[key] for r in traced])

    single_s = median([r["run_s"] for r in untraced])
    if scaling:
        by_threads = {}
        for r in scaling:
            by_threads.setdefault(r["threads"], []).append(r["run_s"])
        top = max(by_threads)
        t1 = median(by_threads[1])
        t2 = median(by_threads.get(2, by_threads[top]))
        tn = median(by_threads[top])
        widest = [r for r in scaling if r["threads"] == top][0]
        shards, replica_updates = widest["shards"], widest["replica_updates"]
        overhead = ratio(t1, median([r["run_s"] for r in reference]))
    else:
        # One simulator is one shard, whatever the thread count.
        t1 = t2 = tn = single_s
        shards, replica_updates, overhead = 1, t["replica_updates"], 1.0
    classified = ("peek_s", "replay_s", "read_s", "poll_s", "relay_s", "idle_s")
    coverage = median([sum(r[k] for k in classified) / r["traced_s"]
                       for r in traced])
    return {
        "sim.events": t["steps"],
        "sim.peek_s": med("peek_s"),
        "sim.ns_per_event": ratio(single_s, t["events"]) * 1e9,
        "sim.max_pending": t["max_pending"],
        "sim.max_same_instant": t["max_same_instant"],
        "origin.requests": t["origin_requests"],
        "origin.useful_ratio": ratio(t["origin_200"], t["origin_requests"]),
        "origin.replay_events": t["replay_steps"],
        "origin.replay_s": med("replay_s"),
        "origin.replica_updates": replica_updates,
        "proxy.policy_polls": t["policy_polls"],
        "proxy.demand_fills": t["demand_fills"],
        "proxy.failed_polls": t["failed_polls"],
        "proxy.poll_s": med("poll_s"),
        "proxy.us_per_poll": ratio(med("poll_s"), t["poll_steps"]) * 1e6,
        "fleet.relays_sent": t["relays_sent"],
        "fleet.relays_delivered": t["relays_delivered"],
        "fleet.relays_applied": t["relays_applied"],
        "fleet.relay_useful_ratio": ratio(t["relays_applied"],
                                          t["relays_delivered"]),
        "fleet.relays_lost": t["relays_lost"],
        "fleet.relays_retried": t["relays_retried"],
        "fleet.relays_dropped_dark": t["relays_dropped_dark"],
        "fleet.relay_s": med("relay_s"),
        "fleet.shards": shards,
        "fleet.shard_run_s.t1": t1,
        "fleet.shard_run_s.t2": t2,
        "fleet.shard_run_s.tN": tn,
        "fleet.shard_speedup": ratio(t1, tn),
        "fleet.shard_overhead": overhead,
        "client.requests": t["client_requests"],
        "client.hit_rate": t["client_hit_rate"],
        "client.fills": t["client_fills"],
        "client.dark_reads": t["client_dark_reads"],
        "client.read_s": med("read_s"),
        "client.idle_events": t["idle_steps"],
        "client.idle_s": med("idle_s"),
        "trace.overhead": ratio(med("traced_s"), single_s),
        "trace.coverage": coverage,
    }


def result(records, trace):
    """The benchmark's last line, from the program's records."""
    attempted, failed, problems = check_runs(records)
    for problem in problems:
        print("fleetbench check failed: " + problem, file=sys.stderr)
    values = per_layer_metrics(records) if trace else end_to_end_metrics(records)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def build():
    """Configure (once) and build the program; returns its path."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "fleetbench"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        program = build()
        proc = subprocess.run(
            [str(program), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", repr(args.seconds), "--trace",
             str(args.trace), "--size", args.size],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        print("fleetbench: %s" % err, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("fleetbench: program exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    records = [json.loads(line) for line in proc.stdout.splitlines() if line]
    print(json.dumps(result(records, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
