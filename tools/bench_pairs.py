"""Compare two checkouts on the perfbench workloads in alternating pairs.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_x.json \
        --claim train_default:peak_rss_mb

For each workload and each of ``SEEDS``, runs the command of
``BENCHMARK.json`` in both checkouts with the same seed and the benchmark's
run length, untraced; odd pairs run the parent first and even pairs the
change first. It then makes one traced run per side per workload at
``TRACE_SEED``. The bounds and the end-to-end metrics come from the change
checkout's ``BENCHMARK.json``. Each metric's summary gives both sides'
quartiles, the pairs the change wins and loses, the relative change of the
median, the parent's quartile spread, whether the change is worse than the
bound, and whether the parent's spread is too wide to tell. Each workload's
``traced_summary`` gives ``[parent, change]`` for the traced runs' tape and
trace figures (``TRACED_METRICS``). Each run also records what its
perfbench process cost the operating system, from
``getrusage(RUSAGE_CHILDREN)`` taken around it: minor page faults and user
and system CPU seconds (``RUSAGE_FIELDS``). Each workload's ``rusage`` gives
their medians per side, whole and per attempted unit (an optimizer step or
a frame, set-up included). A run whose output check failed
(``"correct": false``) is counted per side; the record then says
``"all_correct": false`` and the tool exits 1. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SEEDS = tuple(range(1001, 1011))
TRACE_SEED = 1
TRACED_METRICS = ("tape.nodes_per_sample", "tape.recorded_per_sample", "trace.unit_ms")
RUSAGE_FIELDS = {"minflt": "ru_minflt", "utime_s": "ru_utime", "stime_s": "ru_stime"}


def parse_run(stdout: str) -> dict:
    """The ``env`` line and the result (the last line) of one perfbench run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    if not lines or env is None:
        raise ValueError("perfbench printed no env line or no result line")
    return {"env": env, "result": json.loads(lines[-1])}


def run_side(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float, trace: int) -> dict:
    """One perfbench run: its env and result lines and, under ``rusage``, its process's
    ``RUSAGE_FIELDS``."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode not in (0, 1):  # 1 still prints a result line: "correct": false
        raise RuntimeError(f"{' '.join(args)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr}")
    run = parse_run(done.stdout)
    run["rusage"] = {name: getattr(after, field) - getattr(before, field)
                     for name, field in RUSAGE_FIELDS.items()}
    return run


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric comparison of the pairs' untraced results, keyed by metric name."""
    summary = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        both = [(p["parent"]["result"]["metrics"][name]["value"],
                 p["change"]["result"]["metrics"][name]["value"])
                for p in pairs
                if all(name in p[side]["result"]["metrics"] for side in SIDES)]
        if not both:
            continue
        parent = _quartiles([a for a, _ in both])
        change = _quartiles([b for _, b in both])
        rel = (change[1] - parent[1]) / parent[1] if parent[1] else 0.0
        spread = (parent[2] - parent[0]) / parent[1] if parent[1] else 0.0
        separated = (max(b for _, b in both) < min(a for a, _ in both) if lower
                     else min(b for _, b in both) > max(a for a, _ in both))
        summary[name] = {
            "parent_q1_median_q3": parent,
            "change_q1_median_q3": change,
            "pairs_change_better": sum((b < a) if lower else (b > a) for a, b in both),
            "pairs_change_worse": sum((b > a) if lower else (b < a) for a, b in both),
            "median_change_rel": rel,
            "parent_iqr": parent[2] - parent[0],
            "bound": spec["bound"],
            "worse_than_bound": rel > spec["bound"] if lower else rel < -spec["bound"],
            # the parent's own spread exceeds the bound and the sides overlap
            "unresolved": spread > spec["bound"] and not separated,
        }
    return summary


def traced_summary(traced: dict) -> dict:
    """``{metric: [parent, change]}`` over ``TRACED_METRICS``; None where a run lacks it."""
    return {name: [traced[side]["result"]["metrics"].get(name, {}).get("value")
                   for side in SIDES]
            for name in TRACED_METRICS}


def rusage_summary(pairs: list[dict]) -> dict:
    """Per side, the median of each ``RUSAGE_FIELDS`` figure, whole and per attempted unit."""
    summary = {}
    for side in SIDES:
        runs = [p[side] for p in pairs]
        summary[side] = {}
        for name in RUSAGE_FIELDS:
            summary[side][name] = statistics.median(r["rusage"][name] for r in runs)
            summary[side][f"{name}_per_attempted"] = statistics.median(
                r["rusage"][name] / r["result"]["attempted"] for r in runs)
    return summary


def failed(pairs: list[dict], side: str) -> str:
    results = [p[side]["result"] for p in pairs]
    return (f"{sum(r['failed'] for r in results)} of "
            f"{sum(r['attempted'] for r in results)}")


def incorrect(runs: list[dict]) -> int:
    """How many runs failed perfbench's output check."""
    return sum(not run["result"]["correct"] for run in runs)


def claim_met(stats: dict, pairs: int) -> bool:
    """At least nine tenths of the pairs won, and the medians further apart than the parent's IQR."""
    gap = abs(stats["change_q1_median_q3"][1] - stats["parent_q1_median_q3"][1])
    return stats["pairs_change_better"] * 10 >= 9 * pairs and gap > stats["parent_iqr"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims")
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    checkouts = {"parent": args.parent, "change": args.change}
    seconds = bench["run_seconds"]

    runs = []

    def run(side, workload, seed, trace):
        print(f"{side} {workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
        runs.append(run_side(checkouts[side], bench["command"], workload, seed, seconds,
                             trace))
        return runs[-1]

    record = {
        "what": f"{len(SEEDS)} alternating parent/change pairs per workload, "
                f"{seconds} s runs, untraced; odd pairs run the parent first, even pairs "
                f"the change first; both sides of a pair use the same seed "
                f"({SEEDS[0]}-{SEEDS[-1]}). env and result lines as printed.",
        "command": " ".join(bench["command"])
                   + f" --workload W --seed S --seconds {seconds} --trace 0",
        "parent": None,
        "change": None,
        "workloads": {},
    }
    for workload in names:
        pairs = []
        for n, seed in enumerate(SEEDS, start=1):
            order = SIDES if n % 2 else SIDES[::-1]
            pair = {"pair": n, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(side, workload, seed, 0)
            pairs.append(pair)
        record["workloads"][workload] = {
            "summary": summarize(pairs, bench["end_to_end"]),
            "failed": {side: failed(pairs, side) for side in SIDES},
            "incorrect_runs": {side: incorrect([p[side] for p in pairs]) for side in SIDES},
            "rusage": rusage_summary(pairs),
            "pairs": pairs,
        }
    first = record["workloads"][names[0]]["pairs"][0]
    for side in SIDES:
        record[side] = (first[side]["env"].get("git_sha") or "")[:7] or None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        stats = record["workloads"][workload]["summary"][metric]
        record["claim"] = {
            "workload": workload, "metric": metric, "pairs": len(SEEDS),
            "pairs_change_better": stats["pairs_change_better"],
            "median_parent_change": [stats["parent_q1_median_q3"][1],
                                     stats["change_q1_median_q3"][1]],
            "parent_iqr": stats["parent_iqr"],
            "met": claim_met(stats, len(SEEDS)),
        }
    for workload in names:
        traced = {side: run(side, workload, TRACE_SEED, 1) for side in SIDES}
        record[f"traced_{workload}_seed{TRACE_SEED}"] = traced
        record["workloads"][workload]["traced_summary"] = traced_summary(traced)
    record["all_correct"] = not incorrect(runs)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if record["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
