"""tools/same_output.py on fake checkouts: the pinned configs, the thread pin, the verdicts."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_output.py"
_spec = importlib.util.spec_from_file_location("same_output", _PATH)
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)

# stands in for pairtrack.harness.cli: logs its call and writes metrics.tsv and the checkpoint
# from its arguments
_FAKE_CLI = """
import os
from pathlib import Path

def main(argv):
    args = dict(zip(argv[1::2], argv[2::2]))
    side, broken = Path("side.txt").read_text(), Path("broken.txt").read_text()
    config = Path(args["--config"]).read_text().splitlines()[0] if "--config" in args else "-"
    with open("../calls.txt", "a") as log:
        log.write(f"{side} {argv[0]} {os.environ['OPENBLAS_NUM_THREADS']} {args['--seed']} "
                  f"{args.get('--steps', '-')} {args.get('--top-k', '-')} {config}\\n")
    if broken == "exit" and args.get("--top-k") == "1":
        return 3
    extra = side if broken == "bytes" and args.get("--top-k") == "2" else ""
    os.makedirs(args["--out"])
    Path(args["--out"], "metrics.tsv").write_text(f"step\\t{args['--seed']}\\t{extra}\\n")
    if broken != "no-checkpoint":
        weights = side if broken == "blob" and args.get("--top-k") == "1" else ""
        Path(args["--out"], "checkpoint.blob").write_text(f"{args['--seed']}{weights}")
        Path(args["--out"], "checkpoint.manifest").write_text("w\\t1\\t0\\n")
    return 0
"""


# stand in for pairtrack.harness.config and .data under same_output.DATASET: they log each
# dataset asked for, and the change's "check" set moves by one ulp or its run fails
_FAKE_CONFIG = """
class RunConfig:
    def __init__(self, seed):
        self.seed = seed
"""
_FAKE_DATA = """
from pathlib import Path
import numpy as np

class Box:
    cx = cy = w = h = 0.5

class Sample:
    def __init__(self, value):
        self.template_r = self.template_x = self.search_r = self.search_x = np.full((2, 2), value)
        self.gt_box, self.tag = Box(), "none"

def generate_dataset(cfg, count, stream):
    side, broken = Path("side.txt").read_text(), Path("broken.txt").read_text()
    with open("../datasets.txt", "a") as log:
        log.write(f"{side} {cfg.seed} {stream} {count}\\n")
    if broken == "dataset-exit":
        raise SystemExit(3)
    moved = 2.0 ** -52 if broken == "dataset" and stream == "check" else 0.0
    return [Sample(1.0 + cfg.seed + index + moved) for index in range(count)]
"""


# stands in for same_output.PROBE: the change moves one output by 2**-50 and one gradient by
# 2**-42 of their arrays' largest values
_FAKE_PROBE = """
import sys
from pathlib import Path
import numpy as np
side = Path("side.txt").read_text()
with open("../calls.txt", "a") as log:
    log.write(f"{side} probe {sys.argv[2]} {sys.argv[3]}\\n")
if Path("no_probe").exists():
    sys.exit(3)
nudge = 2.0 ** -50 if side == "change" else 0.0
grads = {"grad.w": np.array([[4.0, 0.5 + 2.0 ** 10 * nudge]])}
if Path("renamed").exists():  # the change regroups grad.w into two halves
    grads = {"grad.w0": grads["grad.w"][:, :1], "grad.w1": grads["grad.w"][:, 1:]}
total = np.array([3.0, 3.0] if Path("reshaped").exists() else [3.0])
np.savez(sys.argv[1], **{"forward.box": np.array([1.0, -2.0 * (1 + nudge)]),
                         "forward.total": total, **grads})
"""


def _checkouts(tmp_path, broken=""):
    for side in ("parent", "change"):
        package = tmp_path / side / "src" / "pairtrack" / "harness"
        package.mkdir(parents=True)
        (package.parent / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(_FAKE_CLI)
        (package / "config.py").write_text(_FAKE_CONFIG)
        (package / "data.py").write_text(_FAKE_DATA)
        (tmp_path / side / "side.txt").write_text(side)
        (tmp_path / side / "broken.txt").write_text(broken if side == "change" else "")
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]


def test_same_bytes_on_every_pinned_config_exit_0(tmp_path, capsys):
    assert same_output.main(_checkouts(tmp_path)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["determinism-seed3", "same"], ["default-40-steps-k1", "same"],
        ["default-40-steps-k2", "same"], ["dataset", "same"]]
    assert all(line.endswith(", checkpoint same") for line in lines[:3])
    calls = (tmp_path / "calls.txt").read_text().splitlines()
    assert calls == [f"{side} train 1 {run}" for run in (
        "3 - - model_dim = 16", "0 40 1 -", "0 40 2 -") for side in ("parent", "change")]
    datasets = (tmp_path / "datasets.txt").read_text().splitlines()
    assert datasets == [f"{side} {seed} {stream} {count}" for side in ("parent", "change")
                        for seed in (0, 3)
                        for stream, count in (("data", 8), ("eval", 64), ("check", 128))]


def test_different_bytes_or_a_failed_run_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(same_output, "PROBE", _FAKE_PROBE)
    assert same_output.main(_checkouts(tmp_path / "bytes", broken="bytes")) == 1
    verdicts = [line.split()[1] for line in capsys.readouterr().out.splitlines()[:3]]
    assert verdicts == ["same", "same", "DIFFERENT"]
    assert same_output.main(_checkouts(tmp_path / "exit", broken="exit")) == 1
    captured = capsys.readouterr()
    assert [line.split()[1] for line in captured.out.splitlines()[:3]] == [
        "same", "DIFFERENT", "same"]
    assert "train exited 3" in captured.err


def test_a_difference_prints_the_probe_batch_differences_at_k1_and_k2(tmp_path, capsys,
                                                                       monkeypatch):
    monkeypatch.setattr(same_output, "PROBE", _FAKE_PROBE)
    assert same_output.main(_checkouts(tmp_path, broken="bytes")) == 1
    probed = capsys.readouterr().out.splitlines()[4:]
    forward, grad = 2.0 ** -50, 2.0 ** -42
    assert probed == [f"{f'probe-batch-k{k}':22s} largest relative difference: forward "
                      f"{forward:.1e}, gradients {grad:.1e}" for k in (1, 2)]
    calls = (tmp_path / "calls.txt").read_text().splitlines()
    assert calls[6:] == [f"{side} probe {k} {same_output.PROBE_STEPS}"
                         for k in (1, 2) for side in ("parent", "change")]


def test_a_failed_probe_is_reported_and_leaves_the_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(same_output, "PROBE", _FAKE_PROBE)
    args = _checkouts(tmp_path, broken="bytes")
    (tmp_path / "change" / "no_probe").write_text("")
    assert same_output.main(args) == 1
    captured = capsys.readouterr()
    assert [line.split() for line in captured.out.splitlines()[4:]] == [
        ["probe-batch-k1", "failed"], ["probe-batch-k2", "failed"]]
    assert "probe exited 3" in captured.err


def test_probes_compare_the_arrays_both_hold_and_list_the_others(tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.setattr(same_output, "PROBE", _FAKE_PROBE)
    args = _checkouts(tmp_path, broken="bytes")
    (tmp_path / "change" / "renamed").write_text("")
    assert same_output.main(args) == 1
    assert capsys.readouterr().out.splitlines()[4:] == [
        f"{f'probe-batch-k{k}':22s} largest relative difference: forward {2.0 ** -50:.1e}, "
        f"gradients none shared; only in parent: grad.w; only in change: grad.w0, grad.w1"
        for k in (1, 2)]
    # a name both hold with different shapes cannot be compared
    (tmp_path / "change" / "reshaped").write_text("")
    assert same_output.main(args) == 1
    assert [line.split()[:3] for line in capsys.readouterr().out.splitlines()[4:]] == [
        ["probe-batch-k1", "not", "comparable:"], ["probe-batch-k2", "not", "comparable:"]]


def test_equal_metrics_with_a_different_blob_exit_0_and_name_the_blob(tmp_path, capsys,
                                                                      monkeypatch):
    monkeypatch.setattr(same_output, "PROBE", _FAKE_PROBE)
    assert same_output.main(_checkouts(tmp_path, broken="blob")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(", ")[1] for line in lines[:3]] == [
        "checkpoint same", "checkpoint DIFFERENT checkpoint.blob", "checkpoint same"]
    assert [line.split()[1] for line in lines[:3]] == ["same", "same", "same"]
    # the moved weights get the probe's figures, as a metrics difference does
    assert [line.split()[0] for line in lines[4:]] == ["probe-batch-k1", "probe-batch-k2"]


def test_a_missing_checkpoint_is_reported_and_leaves_the_exit_code(tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.setattr(same_output, "PROBE", _FAKE_PROBE)
    assert same_output.main(_checkouts(tmp_path, broken="no-checkpoint")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith(", checkpoint missing checkpoint.blob,checkpoint.manifest")
               for line in lines[:3])


def test_a_different_or_failed_dataset_exits_1_without_a_probe(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(same_output, "PROBE", _FAKE_PROBE)
    assert same_output.main(_checkouts(tmp_path / "moved", broken="dataset")) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == ["same", "same", "same", "DIFFERENT"]
    digests = lines[3].split("(sha256 ")[1].rstrip(")").split("/")
    assert len(digests) == 2 and digests[0] != digests[1]
    assert same_output.main(_checkouts(tmp_path / "exit", broken="dataset-exit")) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[3].split()[:2] == ["dataset", "failed"]
    assert "dataset exited 3" in captured.err
