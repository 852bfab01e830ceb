"""tools/same_output.py on fake checkouts: the pinned configs, the thread pin, the verdicts."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_output.py"
_spec = importlib.util.spec_from_file_location("same_output", _PATH)
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)

# stands in for pairtrack.harness.cli: logs its call and writes metrics.tsv from its arguments
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
    return 0
"""


def _checkouts(tmp_path, broken=""):
    for side in ("parent", "change"):
        package = tmp_path / side / "src" / "pairtrack" / "harness"
        package.mkdir(parents=True)
        (package.parent / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(_FAKE_CLI)
        (tmp_path / side / "side.txt").write_text(side)
        (tmp_path / side / "broken.txt").write_text(broken if side == "change" else "")
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]


def test_same_bytes_on_every_pinned_config_exit_0(tmp_path, capsys):
    assert same_output.main(_checkouts(tmp_path)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["determinism-seed3", "same"], ["default-40-steps-k1", "same"],
        ["default-40-steps-k2", "same"]]
    calls = (tmp_path / "calls.txt").read_text().splitlines()
    assert calls == [f"{side} train 1 {run}" for run in (
        "3 - - model_dim = 16", "0 40 1 -", "0 40 2 -") for side in ("parent", "change")]


def test_different_bytes_or_a_failed_run_exit_1(tmp_path, capsys):
    assert same_output.main(_checkouts(tmp_path / "bytes", broken="bytes")) == 1
    verdicts = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
    assert verdicts == ["same", "same", "DIFFERENT"]
    assert same_output.main(_checkouts(tmp_path / "exit", broken="exit")) == 1
    captured = capsys.readouterr()
    assert [line.split()[1] for line in captured.out.splitlines()] == ["same", "DIFFERENT", "same"]
    assert "train exited 3" in captured.err
