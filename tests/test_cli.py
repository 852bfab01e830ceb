"""CLI surface: subcommands, config files, exit codes, determinism."""

import importlib
import os
import warnings
from dataclasses import fields

import numpy as np
import pytest

from pairtrack.errors import ConfigError
from pairtrack.harness import RunConfig, load_config
from pairtrack.harness.config import parse_config_text
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


def test_load_config_reads_back_every_field(tmp_path):
    expected = RunConfig(
        seed=5, channels=3, patch_size=2, template_size=8, search_size=12,
        model_dim=24, depth=3, heads=2, mlp_ratio=3, head_hidden=8,
        n_experts=3, top_k=2, reduction_g=6, shared_m=2,
        epsilon_mode="fixed", epsilon_value=0.5,
        lambda_iou=1.5, lambda_l1=4.0, alpha=0.01,
        lr=0.05, steps=7, batch_size=3, log_interval=2,
        toggle_sdmoe=False, toggle_mff=False, toggle_gram=False, toggle_mhg=False,
        n_train=5, n_eval=6,
    )
    lines = []
    for field in fields(RunConfig):
        value = getattr(expected, field.name)
        assert value != field.default, field.name
        text = str(value).lower() if isinstance(value, bool) else str(value)
        lines.append(f"{field.name} = {text}\n")
    path = tmp_path / "every.cfg"
    path.write_text("".join(lines), encoding="utf-8")
    assert load_config(str(path)) == expected


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("not_a_key = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_level_taps_follow_depth_and_are_no_config_key(tmp_path, capsys):
    assert [RunConfig(depth=d).level_taps for d in (1, 2, 3, 4)] == [
        (1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)]
    with pytest.raises(ConfigError, match="unknown config key: level_taps"):
        load_config(None, {"level_taps": (1, 2)})
    config = tmp_path / "taps.cfg"
    config.write_text(TINY_CONFIG + "level_taps = 1,2\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: unknown config key: level_taps\n"
    assert not out.exists()


def test_parse_config_text_rejects_a_key_set_twice():
    with pytest.raises(ConfigError, match="config key steps set twice, on lines 2 and 4"):
        parse_config_text("# run\nsteps = 3\nseed = 1\nsteps = 5\n")


def test_cli_config_that_sets_a_key_twice_exits_2_and_leaves_no_directory(tmp_path, capsys):
    config = tmp_path / "twice.cfg"
    config.write_text(TINY_CONFIG + "steps = 5\n", encoding="utf-8")
    first = TINY_CONFIG.splitlines().index("steps = 3") + 1
    last = len(TINY_CONFIG.splitlines()) + 1
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: config key steps set twice, on lines {first} and {last}\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, line", [
    (["--top-k", "4"], "top_k must satisfy 1 <= K < N, got K=4, N=4"),
    (["--reduction-g", "7"], "model_dim 72 not divisible by reduction_g 7"),
    (["--alpha", "-1"], "loss weights must be nonnegative"),
], ids=["top-k", "reduction-g", "alpha"])
def test_cli_cross_key_config_error_exits_2_and_leaves_no_directory(tmp_path, capsys, flags,
                                                                    line):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"
    assert not out.exists()


def test_gradcheck_takes_no_flags(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["gradcheck", "--lr", "5"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --lr 5" in capsys.readouterr().err


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


OVERFLOWING_WEIGHTS = ["--lambda-iou", "1e308", "--lambda-l1", "1e308"]


def _assert_numeric_failure(capsys, *parts):
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and err.count("\n") == 1
    assert all(part in err for part in parts)


def test_cli_train_with_overflowing_loss_exits_3(tiny_config_file, tmp_path, capsys):
    out = str(tmp_path / "overflow")
    assert main(["train", "--config", tiny_config_file, "--out", out] + OVERFLOWING_WEIGHTS) == 3
    _assert_numeric_failure(capsys, "step 0")


def test_cli_eval_with_overflowing_loss_exits_3(tiny_config_file, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["train", "--config", tiny_config_file, "--out", out]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", tiny_config_file, "--out", out] + OVERFLOWING_WEIGHTS) == 3
    _assert_numeric_failure(capsys, "total")


def test_cli_non_finite_gram_norm_exits_3(tiny_config_file, tmp_path, capsys):
    out = str(tmp_path / "lr1e100")
    assert main(["train", "--config", tiny_config_file, "--out", out, "--lr", "1e100"]) == 3
    _assert_numeric_failure(capsys, "gram_basis", "step 1")


def test_cli_gen_data_writes_dataset(tiny_config_file, tmp_path, capsys):
    out = str(tmp_path / "data")
    assert main(["gen-data", "--config", tiny_config_file, "--out", out]) == 0
    archive = np.load(os.path.join(out, "dataset.npz"))
    assert archive["search_r"].shape[0] == 4
    assert set(archive["tags"].tolist()) <= {
        "none", "rgb_degraded", "x_degraded", "both_noisy"
    }


def test_cli_config_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    # the mark sits right before the first key, as an editor saving the file writes it
    text = "\n".join(line for line in TINY_CONFIG.splitlines() if line and line[0] != "#")
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text, encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_config(str(bom)) == load_config(str(plain))
    archives = []
    for config in (plain, bom):
        out = tmp_path / config.stem
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
        archives.append(np.load(out / "dataset.npz"))
    without, with_mark = archives
    assert without.files == with_mark.files
    for key in without.files:
        np.testing.assert_array_equal(without[key], with_mark[key])
    assert "config error" not in capsys.readouterr().err


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


@pytest.mark.parametrize("command, name", [
    ("train", "metrics.tsv"),
    ("train", "checkpoint.manifest"),
    ("ablate", "ablation.tsv"),
    ("gen-data", "dataset.npz"),
])
def test_cli_unwritable_output_exits_1_with_one_error_line(tiny_config_file, tmp_path, capsys,
                                                           command, name):
    out = tmp_path / "run"
    blocker = out / name
    blocker.mkdir(parents=True)  # a directory where the output file goes
    assert main([command, "--config", tiny_config_file, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocker}: ")
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["train", "gen-data", "ablate"])
def test_cli_out_under_a_regular_file_exits_1(tiny_config_file, tmp_path, capsys, command):
    blocker = tmp_path / "plain.txt"
    blocker.write_text("not a directory\n", encoding="utf-8")
    assert main([command, "--config", tiny_config_file, "--out", str(blocker / "run")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot create output directory")


def test_cli_ablate_with_an_empty_test_split_exits_2_before_training(tmp_path, capsys,
                                                                    monkeypatch):
    train_module = importlib.import_module("pairtrack.harness.train")

    def never(*args, **kwargs):
        raise AssertionError("ablate trained a variant")

    monkeypatch.setattr(train_module, "train", never)
    config = tmp_path / "one-eval.cfg"
    config.write_text(TINY_CONFIG.replace("n_eval = 4", "n_eval = 1"), encoding="utf-8")
    assert main(["ablate", "--config", str(config), "--out", str(tmp_path / "ablate")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "n_eval >= 2" in err and err.count("\n") == 1
    assert not (tmp_path / "ablate").exists()


def test_frame_sizes_too_small_to_place_a_target_are_a_config_error():
    with pytest.raises(ConfigError, match="frame sizes too small"):
        RunConfig(search_size=4, template_size=4)


@pytest.mark.parametrize("command", ["train", "gen-data"])
def test_cli_frame_sizes_too_small_exit_2_and_leave_no_directory(tmp_path, capsys, command):
    config = tmp_path / "small.cfg"
    config.write_text(TINY_CONFIG.replace("template_size = 8", "template_size = 4")
                      .replace("search_size = 16", "search_size = 4"), encoding="utf-8")
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: frame sizes too small to place a target\n"
    assert not out.exists()
