"""RNG determinism, parameter store contracts, checkpoint round-trips."""

import os

import numpy as np
import pytest

from pairtrack.errors import ContractError
from pairtrack.numerics import (
    ParamStore,
    RngStream,
    load_checkpoint,
    save_checkpoint,
)


def test_same_seed_same_draws():
    a = RngStream(1234)
    b = RngStream(1234)
    np.testing.assert_array_equal(a.uniform(-1, 1, (100,)), b.uniform(-1, 1, (100,)))
    np.testing.assert_array_equal(a.normal(1.0, (50,)), b.normal(1.0, (50,)))
    np.testing.assert_array_equal(a.integers(0, 10, (20,)), b.integers(0, 10, (20,)))


def test_child_streams_are_stable_and_distinct():
    root = RngStream(7)
    c1 = root.child("data")
    c2 = root.child("init")
    c1_again = RngStream(7).child("data")
    np.testing.assert_array_equal(c1.uniform(0, 1, (8,)), c1_again.uniform(0, 1, (8,)))
    assert c1.seed != c2.seed
    assert not np.array_equal(
        RngStream(7).child("data").uniform(0, 1, (8,)),
        RngStream(7).child("init").uniform(0, 1, (8,)),
    )


def test_param_store_rejects_duplicates():
    store = ParamStore()
    store.add("w", np.zeros((2, 2)))
    with pytest.raises(ContractError):
        store.add("w", np.zeros((3,)))


def test_uniform_init_bounds():
    store = ParamStore()
    p = store.uniform_init("w", (64, 64), fan_in=64, rng=RngStream(3))
    bound = 1.0 / np.sqrt(64)
    assert np.all(np.abs(p.data) <= bound)


def test_sgd_skips_frozen_parameters():
    store = ParamStore()
    w = store.add("w", np.ones((2,)), trainable=True)
    frozen = store.add("frozen", np.ones((2,)), trainable=False)
    w.tensor.grad = np.array([1.0, 1.0])
    frozen.tensor.grad = np.array([1.0, 1.0])
    store.sgd_step(0.5)
    np.testing.assert_array_equal(w.data, [0.5, 0.5])
    np.testing.assert_array_equal(frozen.data, [1.0, 1.0])


def test_count_and_checksum():
    store = ParamStore()
    store.add("a", np.zeros((3, 4)))
    store.add("b", np.zeros((5,)), trainable=False)
    assert store.count() == 17
    assert store.count(lambda p: p.trainable) == 12
    before = store.checksum()
    store.set_values("a", np.ones((3, 4)))
    assert store.checksum() != before


def test_checkpoint_roundtrip_is_byte_exact(tmp_path):
    rng = RngStream(99)
    store = ParamStore()
    store.add("layer.w", rng.uniform(-1, 1, (7, 3)))
    store.add("layer.b", rng.uniform(-1, 1, (3,)))
    store.add("scalar", rng.uniform(-1, 1, ()))
    d1 = tmp_path / "ck1"
    manifest1, blob1 = save_checkpoint(store, str(d1))
    raw_manifest = open(manifest1, "rb").read()
    raw_blob = open(blob1, "rb").read()

    # perturb, reload, re-save: bytes must match the first save exactly
    store.set_values("layer.w", np.zeros((7, 3)))
    load_checkpoint(store, str(d1))
    d2 = tmp_path / "ck2"
    manifest2, blob2 = save_checkpoint(store, str(d2))
    assert open(manifest2, "rb").read() == raw_manifest
    assert open(blob2, "rb").read() == raw_blob


def test_checkpoint_unknown_name_rejected(tmp_path):
    store = ParamStore()
    store.add("w", np.zeros((2,)))
    save_checkpoint(store, str(tmp_path / "ck"))
    other = ParamStore()
    other.add("different", np.zeros((2,)))
    with pytest.raises(ContractError):
        load_checkpoint(other, str(tmp_path / "ck"))


@pytest.mark.parametrize("damage", ["missing", "truncated"])
def test_damaged_checkpoint_blob_makes_eval_exit_1(tmp_path, capsys, damage):
    from pairtrack.harness import load_config
    from pairtrack.harness.cli import main
    from pairtrack.harness.model import Tracker

    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(
        "model_dim = 16\ndepth = 2\nheads = 4\nreduction_g = 4\nn_experts = 2\n"
        "shared_m = 2\ntemplate_size = 8\nsearch_size = 16\nhead_hidden = 16\n"
        "n_eval = 4\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    _, blob = save_checkpoint(Tracker(load_config(str(cfg_path))).store, str(out))
    if damage == "missing":
        os.remove(blob)
    else:
        with open(blob, "r+b") as fh:
            fh.truncate(os.path.getsize(blob) // 2)
    assert main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
