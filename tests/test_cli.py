"""CLI surface: subcommands, config files, exit codes, determinism."""

import os
import warnings

import numpy as np
import pytest

from pairtrack.errors import ConfigError
from pairtrack.harness import load_config
from pairtrack.harness.cli import main

TINY_CONFIG = """
# tiny run for tests
seed = 3
model_dim = 16
depth = 2
heads = 4
reduction_g = 4
n_experts = 2
shared_m = 2
template_size = 8
search_size = 16
head_hidden = 16
level_taps = 1,2
steps = 3
batch_size = 2
log_interval = 1
n_train = 4
n_eval = 4
epsilon_mode = fixed
epsilon_value = 0.8
"""


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return str(path)


def test_load_config_file_and_overrides(tiny_config_file):
    cfg = load_config(tiny_config_file, {"seed": 9, "lr": None})
    assert cfg.seed == 9  # override wins
    assert cfg.model_dim == 16
    assert cfg.level_taps == (1, 2)
    assert cfg.epsilon_mode == "fixed"


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("not_a_key = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_load_config_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some text\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_cli_train_eval_roundtrip(tiny_config_file, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["train", "--config", tiny_config_file, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "metrics.tsv"))
    assert os.path.exists(os.path.join(out, "checkpoint.manifest"))
    assert os.path.exists(os.path.join(out, "checkpoint.blob"))
    assert main(["eval", "--config", tiny_config_file, "--out", out]) == 0
    captured = capsys.readouterr()
    assert "loaded checkpoint" in captured.out


def test_cli_metrics_are_byte_identical_across_runs(tiny_config_file, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["train", "--config", tiny_config_file, "--out", out_a]) == 0
    assert main(["train", "--config", tiny_config_file, "--out", out_b]) == 0
    bytes_a = open(os.path.join(out_a, "metrics.tsv"), "rb").read()
    bytes_b = open(os.path.join(out_b, "metrics.tsv"), "rb").read()
    assert bytes_a == bytes_b


def test_cli_flag_overrides_reach_the_run(tiny_config_file, tmp_path, capsys):
    out = str(tmp_path / "flags")
    code = main([
        "train", "--config", tiny_config_file, "--out", out,
        "--steps", "2", "--n-experts", "3", "--top-k", "2",
        "--alpha", "0.5", "--no-toggle-mhg",
    ])
    assert code == 0
    usage = open(os.path.join(out, "metrics.tsv")).read().strip().splitlines()[-1]
    assert usage.split("\t")[-1].count(",") == 2  # three experts in histogram


def test_cli_bad_config_exits_2(tiny_config_file):
    assert main(["train", "--config", tiny_config_file, "--steps", "-1"]) == 2
    assert main(["train", "--config", "/does/not/exist.cfg"]) == 2


def test_cli_numeric_failure_exits_3(tiny_config_file, tmp_path, monkeypatch):
    import pairtrack.harness.cli as cli
    from pairtrack.errors import NumericError

    def explode(cfg):
        raise NumericError("non-finite loss component 'cls' at step 2")

    monkeypatch.setattr(cli, "train", explode)
    out = str(tmp_path / "blowup")
    assert main(["train", "--config", tiny_config_file, "--out", out]) == 3


def test_cli_numeric_failure_prints_no_numpy_warning(tmp_path, capsys):
    out = str(tmp_path / "lr1e6")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["train", "--steps", "3", "--lr", "1e6", "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and err.count("\n") == 1


def test_cli_gen_data_writes_dataset(tiny_config_file, tmp_path, capsys):
    out = str(tmp_path / "data")
    assert main(["gen-data", "--config", tiny_config_file, "--out", out]) == 0
    archive = np.load(os.path.join(out, "dataset.npz"))
    assert archive["search_r"].shape[0] == 4
    assert set(archive["tags"].tolist()) <= {
        "none", "rgb_degraded", "x_degraded", "both_noisy"
    }


@pytest.mark.parametrize("flag", ["--lr", "--epsilon", "--lambda-iou", "--lambda-l1", "--alpha"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_non_finite_float_exits_2(tiny_config_file, tmp_path, capsys, flag, value):
    out = str(tmp_path / "nonfinite")
    assert main(["train", "--config", tiny_config_file, "--out", out, f"{flag}={value}"]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_load_config_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("# caf\xe9\nseed = 3\n".encode("latin-1"))
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("command", ["train", "gen-data", "ablate"])
def test_cli_out_under_a_regular_file_exits_1(tiny_config_file, tmp_path, capsys, command):
    blocker = tmp_path / "plain.txt"
    blocker.write_text("not a directory\n", encoding="utf-8")
    assert main([command, "--config", tiny_config_file, "--out", str(blocker / "run")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot create output directory")
