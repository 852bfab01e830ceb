"""tools/bench_pairs.py on canned perfbench output: parsing, pair summaries, alternation,
failed output checks."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    {"name": "mean_iou", "unit": "ratio", "better": "higher", "bound": 0.25},
]


def _stdout(seed, rss, iou, failed=0):
    env = {"workload": "train_default", "seed": seed, "git_sha": "abcdef0123456789"}
    result = {"correct": failed == 0, "attempted": 20, "failed": failed,
              "metrics": {"peak_rss_mb": {"value": rss, "unit": "MiB"},
                          "mean_iou": {"value": iou, "unit": "ratio"}}}
    return "\n".join([
        "env " + json.dumps(env),
        f"{'peak_rss_mb':40s} {rss:16.6f} MiB",
        f"{'failed_frac':40s} {failed / 20:16.6f} 1 ({failed} of 20)",
        "run took 1.0 s",
        json.dumps(result),
        "",
    ])


def _pair(seed, parent, change):
    return {"pair": seed, "seed": seed,
            "parent": bench_pairs.parse_run(_stdout(seed, *parent)),
            "change": bench_pairs.parse_run(_stdout(seed, *change))}


def test_parse_run_reads_env_and_last_line():
    run = bench_pairs.parse_run(_stdout(7, 150.5, 0.25, failed=1))
    assert run["env"]["seed"] == 7
    assert run["result"]["failed"] == 1
    assert run["result"]["metrics"]["peak_rss_mb"]["value"] == 150.5
    with pytest.raises(ValueError):
        bench_pairs.parse_run("no env line\n{}\n")
    with pytest.raises(ValueError):
        bench_pairs.parse_run("")


def test_summary_counts_wins_by_direction_and_checks_bounds():
    pairs = [_pair(1, (150.0, 0.25), (85.0, 0.25)),
             _pair(2, (151.0, 0.30), (86.0, 0.20)),
             _pair(3, (152.0, 0.20), (153.0, 0.10)),
             _pair(4, (153.0, 0.22), (87.0, 0.30)),
             _pair(5, (154.0, 0.24), (88.0, 0.24))]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    rss = summary["peak_rss_mb"]
    assert rss["parent_q1_median_q3"] == [151.0, 152.0, 153.0]
    assert rss["change_q1_median_q3"] == [86.0, 87.0, 88.0]
    assert (rss["pairs_change_better"], rss["pairs_change_worse"]) == (4, 1)
    assert rss["median_change_rel"] == pytest.approx(87.0 / 152.0 - 1.0)
    assert rss["parent_iqr"] == 2.0
    assert rss["bound"] == 0.1 and not rss["worse_than_bound"] and not rss["unresolved"]
    iou = summary["mean_iou"]  # higher is better: ties count for neither side
    assert (iou["pairs_change_better"], iou["pairs_change_worse"]) == (1, 2)
    assert iou["median_change_rel"] == 0.0
    assert not iou["worse_than_bound"]
    assert not bench_pairs.claim_met(rss, len(pairs))  # 4 of 5 is under nine tenths
    assert bench_pairs.claim_met(dict(rss, pairs_change_better=5), len(pairs))
    assert not bench_pairs.claim_met(dict(rss, pairs_change_better=5, parent_iqr=70.0), 5)


def test_summary_flags_a_metric_worse_than_its_bound_and_counts_failures():
    pairs = [_pair(1, (100.0, 0.4), (120.0, 0.2)), _pair(2, (100.0, 0.4), (125.0, 0.2, 3))]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert summary["peak_rss_mb"]["worse_than_bound"]
    assert summary["mean_iou"]["worse_than_bound"]
    assert bench_pairs.failed(pairs, "parent") == "0 of 40"
    assert bench_pairs.failed(pairs, "change") == "3 of 40"


def test_a_parent_spread_wider_than_the_bound_is_unresolved_unless_the_sides_separate():
    spec = END_TO_END[:1]  # lower is better, bound 10%
    wide = [(100.0, 0.3), (120.0, 0.3), (140.0, 0.3)]  # parent IQR 20 of a 120 median
    overlap = [_pair(n, parent, (rss, 0.3))
               for n, (parent, rss) in enumerate(zip(wide, (95.0, 118.0, 101.0)))]
    stats = bench_pairs.summarize(overlap, spec)["peak_rss_mb"]
    assert stats["unresolved"] and not stats["worse_than_bound"]
    apart = [_pair(n, parent, (rss, 0.3))
             for n, (parent, rss) in enumerate(zip(wide, (95.0, 99.0, 97.0)))]
    assert not bench_pairs.summarize(apart, spec)["peak_rss_mb"]["unresolved"]
    narrow = [_pair(n, (parent, 0.3), (rss, 0.3))
              for n, (parent, rss) in enumerate(zip((100.0, 101.0, 102.0), (95.0, 103.0, 99.0)))]
    assert not bench_pairs.summarize(narrow, spec)["peak_rss_mb"]["unresolved"]


def test_rusage_summary_gives_each_sides_medians_whole_and_per_attempted_unit():
    pairs = [_pair(n, (150.0, 0.25), (86.0, 0.25)) for n in (1, 2, 3)]
    for n, pair in enumerate(pairs, start=1):  # every run attempted 20 units
        pair["parent"]["rusage"] = {"minflt": 8000 * n, "utime_s": 1.0 + n, "stime_s": 0.4}
        pair["change"]["rusage"] = {"minflt": 2000 * n, "utime_s": 1.8, "stime_s": 0.1 * n}
    summary = bench_pairs.rusage_summary(pairs)
    assert summary["parent"] == {"minflt": 16000, "minflt_per_attempted": 800.0,
                                 "utime_s": 3.0, "utime_s_per_attempted": 0.15,
                                 "stime_s": 0.4, "stime_s_per_attempted": 0.02}
    assert summary["change"]["minflt_per_attempted"] == 200.0
    assert summary["change"]["stime_s"] == pytest.approx(0.2)


_FAKE_RUN = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
side = open("side.txt").read().strip()
with open("../calls.txt", "a") as log:
    log.write(f"{side} {args['--seed']} {args['--trace']} {args['--seconds']}\\n")
print("env " + json.dumps({"seed": int(args["--seed"]), "git_sha": side * 8}))
if side == "change" and args["--seed"] == open("../broken_seed.txt").read().strip():
    # perfbench's output check failed: an empty result and exit 1
    print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
    sys.exit(1)
rss = 150.0 if side == "parent" else 86.0
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"peak_rss_mb": {"value": rss + int(args["--seed"]) % 7,
                                              "unit": "MiB"}}}))
"""


def _checkouts(tmp_path, broken_seed=""):
    bench = {"command": [sys.executable, "perfbench/run.py"], "run_seconds": 2,
             "workloads": [{"name": "train_default"}], "end_to_end": END_TO_END[:1]}
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(_FAKE_RUN)
        (tmp_path / side / "side.txt").write_text(side)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
    (tmp_path / "broken_seed.txt").write_text(broken_seed)
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--out", str(tmp_path / "BENCH.json"), "--claim", "train_default:peak_rss_mb"]


def test_main_alternates_sides_and_writes_the_record(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "SEEDS", (1001, 1002))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(_checkouts(tmp_path)) == 0
    calls = (tmp_path / "calls.txt").read_text().split("\n")[:-1]
    assert calls == ["parent 1001 0 2", "change 1001 0 2", "change 1002 0 2",
                     "parent 1002 0 2", "parent 1 1 2", "change 1 1 2"]
    record = json.loads(out.read_text())
    assert (record["parent"], record["change"]) == ("parentp", "changec")
    workload = record["workloads"]["train_default"]
    assert [p["first"] for p in workload["pairs"]] == ["parent", "change"]
    assert workload["failed"] == {"parent": "0 of 20", "change": "0 of 20"}
    assert workload["summary"]["peak_rss_mb"]["pairs_change_better"] == 2
    assert record["claim"]["met"] is True
    assert set(record["traced_train_default_seed1"]) == {"parent", "change"}
    assert workload["incorrect_runs"] == {"parent": 0, "change": 0}
    assert record["all_correct"] is True
    # each run's own process: a fresh interpreter faults pages and spends CPU time
    for run in [p[side] for p in workload["pairs"] for side in ("parent", "change")]:
        assert set(run["rusage"]) == {"minflt", "utime_s", "stime_s"}
        assert run["rusage"]["minflt"] > 0 and run["rusage"]["utime_s"] > 0
    assert set(workload["rusage"]) == {"parent", "change"}
    assert workload["rusage"]["change"]["minflt_per_attempted"] > 0


def test_main_counts_a_failed_output_check_and_exits_1(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "SEEDS", (1001, 1002))
    assert bench_pairs.main(_checkouts(tmp_path, broken_seed="1002")) == 1
    record = json.loads((tmp_path / "BENCH.json").read_text())
    workload = record["workloads"]["train_default"]
    assert workload["incorrect_runs"] == {"parent": 0, "change": 1}
    assert record["all_correct"] is False
    assert workload["summary"]["peak_rss_mb"]["pairs_change_better"] == 1
    assert record["claim"]["met"] is False  # the broken pair counts as not won


def _traced_stdout(side, nodes, recorded, unit_ms):
    """A traced perfbench run as printed: per-span lines, then the result line."""
    env = {"workload": "train_default", "seed": 1, "git_sha": side * 8, "trace": 1}
    metrics = {"latency_ms.p90": {"value": 80.0, "unit": "ms"},
               "peak_rss_mb": {"value": 70.0, "unit": "MiB"},
               "model.block.calls": {"value": 0.775, "unit": "count"},
               "tape.nodes_per_sample": {"value": nodes, "unit": "count"},
               "tape.recorded_per_sample": {"value": recorded, "unit": "count"},
               "trace.unit_ms": {"value": unit_ms, "unit": "ms"},
               "trace.coverage_pct": {"value": 97.0, "unit": "%"}}
    result = {"correct": True, "attempted": 20, "failed": 0, "metrics": metrics}
    return "\n".join(["env " + json.dumps(env),
                      f"{'tape.nodes_per_sample':40s} {nodes:16.6f} count",
                      json.dumps(result), ""])


def test_traced_summary_pairs_the_tape_and_trace_figures_of_both_sides():
    traced = {"parent": bench_pairs.parse_run(_traced_stdout("p", 69.675, 68.75, 56.8)),
              "change": bench_pairs.parse_run(_traced_stdout("c", 69.425, 68.5, 55.1))}
    assert bench_pairs.traced_summary(traced) == {
        "tape.nodes_per_sample": [69.675, 69.425],
        "tape.recorded_per_sample": [68.75, 68.5],
        "trace.unit_ms": [56.8, 55.1],
    }
    # a traced run that failed its output check prints no metrics
    traced["change"]["result"]["metrics"] = {}
    assert bench_pairs.traced_summary(traced)["trace.unit_ms"] == [56.8, None]


def test_main_records_the_traced_summary_per_workload(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "SEEDS", (1001,))
    args = _checkouts(tmp_path)
    figures = {"parent": (238, 0, 9.5), "change": (237, 0, 9.25)}
    for side, (nodes, recorded, unit_ms) in figures.items():
        (tmp_path / side / "perfbench" / "run.py").write_text(
            "import sys\n"
            f"print({_traced_stdout(side[0], nodes, recorded, unit_ms)!r})\n")
    assert bench_pairs.main(args) == 0
    record = json.loads((tmp_path / "BENCH.json").read_text())
    assert record["workloads"]["train_default"]["traced_summary"] == {
        "tape.nodes_per_sample": [238, 237],
        "tape.recorded_per_sample": [0, 0],
        "trace.unit_ms": [9.5, 9.25],
    }
