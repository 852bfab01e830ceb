"""RNG determinism, parameter store contracts, checkpoint round-trips."""

import os

import numpy as np
import pytest

from pairtrack.errors import ContractError
from pairtrack.numerics import (
    ParamStore,
    RngStream,
    backward,
    constant,
    linear,
    load_checkpoint,
    matmul,
    save_checkpoint,
    tsum,
)


def test_same_seed_same_draws():
    a = RngStream(1234)
    b = RngStream(1234)
    np.testing.assert_array_equal(a.uniform(-1, 1, (100,)), b.uniform(-1, 1, (100,)))
    np.testing.assert_array_equal(a.normal(1.0, (50,)), b.normal(1.0, (50,)))
    np.testing.assert_array_equal(a.integers(0, 10, (20,)), b.integers(0, 10, (20,)))


def test_scalar_uniform_draws_match_zero_d_draws_in_order():
    scalar, zero_d = RngStream(1235), RngStream(1235)
    for i in range(20_000):
        low, high = -(i % 3), 1 + i % 5
        value = scalar.uniform(low, high)
        assert type(value) is float
        assert value == zero_d.uniform(low, high, ()).item()
        if i % 7 == 0:  # array draws in between keep both streams in step
            np.testing.assert_array_equal(scalar.uniform(0, 1, (3,)), zero_d.uniform(0, 1, (3,)))
            np.testing.assert_array_equal(scalar.normal(1.0, (2,)), zero_d.normal(1.0, (2,)))


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
    w.grad = np.array([1.0, 1.0])
    frozen.grad = np.array([1.0, 1.0])
    store.sgd_step(0.5)
    np.testing.assert_array_equal(w.data, [0.5, 0.5])
    np.testing.assert_array_equal(frozen.data, [1.0, 1.0])


def test_parameter_goes_straight_into_kernels():
    store = ParamStore()
    w = store.add("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = store.add("b", np.array([0.5, -0.5]), trainable=False)
    x = constant(np.array([[1.0, -1.0]]))
    np.testing.assert_array_equal(matmul(x, w).data, [[-2.0, -2.0]])
    np.testing.assert_array_equal(linear(x, w, b).data, [[-1.5, -2.5]])


def test_backward_fills_trainable_grads_and_sgd_moves_only_them():
    store = ParamStore()
    w = store.add("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = store.add("b", np.array([0.5, -0.5]), trainable=False)
    x = constant(np.array([[1.0, -1.0], [2.0, 0.0]]))
    backward(tsum(linear(x, w, b)))
    # d sum(x w + b) / dw = x^T 1: row i holds the column sum of x[:, i]
    np.testing.assert_array_equal(w.grad, [[3.0, 3.0], [-1.0, -1.0]])
    assert b.grad is None
    store.sgd_step(0.5)
    np.testing.assert_array_equal(w.data, [[-0.5, 0.5], [3.5, 4.5]])
    np.testing.assert_array_equal(b.data, [0.5, -0.5])


def test_count_and_checksum():
    store = ParamStore()
    store.add("a", np.zeros((3, 4)))
    store.add("b", np.zeros((5,)), trainable=False)
    assert store.count() == 17
    assert store.count(lambda p: p.requires_grad) == 12
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


@pytest.mark.parametrize("failing_open", [1, 2])  # the blob's temp file, the manifest's
def test_failed_checkpoint_save_keeps_the_previous_one(tmp_path, monkeypatch, failing_open):
    import builtins

    import pairtrack.numerics.checkpoint as checkpoint

    rng = RngStream(7)
    store = ParamStore()
    store.add("layer.w", rng.uniform(-1, 1, (5, 2)))
    store.add("layer.b", rng.uniform(-1, 1, (2,)))
    directory = str(tmp_path / "ck")
    manifest, blob = save_checkpoint(store, directory)
    saved = {path: open(path, "rb").read() for path in (manifest, blob)}
    before = {name: store[name].data.copy() for name in ("layer.w", "layer.b")}

    opened = []

    def open_then_fail_part_way(path, mode, **kw):
        handle = builtins.open(path, mode, **kw)
        opened.append(path)
        if len(opened) == failing_open:
            with handle:
                handle.write(b"partial" if "b" in mode else "partial")
            raise OSError(28, "No space left on device")
        return handle

    monkeypatch.setattr(checkpoint, "open", open_then_fail_part_way, raising=False)
    store.set_values("layer.w", np.zeros((5, 2)))
    with pytest.raises(OSError):
        save_checkpoint(store, directory)
    monkeypatch.undo()

    assert sorted(os.listdir(directory)) == sorted(os.path.basename(p) for p in saved)
    for path, raw in saved.items():
        assert open(path, "rb").read() == raw
    fresh = ParamStore()
    fresh.add("layer.w", np.zeros((5, 2)))
    fresh.add("layer.b", np.zeros((2,)))
    load_checkpoint(fresh, directory)
    for name, values in before.items():
        np.testing.assert_array_equal(fresh[name].data, values)


def test_checkpoint_unknown_name_rejected(tmp_path):
    store = ParamStore()
    store.add("w", np.zeros((2,)))
    save_checkpoint(store, str(tmp_path / "ck"))
    other = ParamStore()
    other.add("different", np.zeros((2,)))
    with pytest.raises(ContractError):
        load_checkpoint(other, str(tmp_path / "ck"))


def _per_expert_lines(line):
    """A stacked expert line as the layout with one parameter per expert matrix wrote it."""
    name, shape, offset = line.rstrip("\n").split("\t")
    if name != "adapter0.expert.w_down":
        return line
    n, *matrix = (int(d) for d in shape.split(","))
    step = 8 * int(np.prod(matrix))
    return "".join(f"adapter0.expert{e}.w_down\t{','.join(map(str, matrix))}\t"
                   f"{int(offset) + e * step}\n" for e in range(n))


@pytest.mark.parametrize(
    "damage",
    ["missing", "truncated", "malformed", "dropped-line", "duplicate-line", "undecodable",
     "no-checkpoint", "old-expert-layout"],
)
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
    manifest, blob = save_checkpoint(Tracker(load_config(str(cfg_path))).store, str(out))
    if damage == "missing":
        os.remove(blob)
    elif damage == "no-checkpoint":  # eval must not score the random initial weights
        os.remove(manifest)
        os.remove(blob)
    elif damage == "truncated":
        with open(blob, "r+b") as fh:
            fh.truncate(os.path.getsize(blob) // 2)
    elif damage == "undecodable":
        with open(manifest, "r+b") as fh:
            fh.write(b"\xff")
    else:
        with open(manifest, encoding="utf-8") as fh:
            lines = fh.readlines()
        edited = {
            "malformed": [lines[0].rsplit("\t", 1)[0] + "\n"] + lines[1:],
            "dropped-line": lines[:-1],
            "duplicate-line": lines + lines[:1],
            "old-expert-layout": [_per_expert_lines(line) for line in lines],
        }[damage]
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.writelines(edited)
    assert main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
