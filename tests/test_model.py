"""Tracker model: patch embedding, toggles, zero-init identity, determinism, prefix cache."""

import importlib

import numpy as np
import pytest

from pairtrack.errors import ContractError
from pairtrack.harness import (
    Tracker,
    forward_track,
    gaussian_center_map,
    generate_dataset,
    patch_embed,
    tiny_config,
)
from pairtrack.harness.train import _batch_loss
from pairtrack.harness.verify import sampled_coords
from pairtrack.losses import Box
from pairtrack.harness.model import Block
from pairtrack.numerics import ParamStore, RngStream, Tensor, backward, mean, smul


def test_patch_count_shape_arithmetic():
    store = ParamStore()
    w = store.add("w", RngStream(1).uniform(-1, 1, (16, 6)))
    b = store.add("b", np.zeros(6))
    tokens = patch_embed([np.zeros((1, 8, 8))], 4, w, b)
    assert tokens.shape == (4, 6)


def test_patch_embed_constant_frame_gives_constant_rows():
    store = ParamStore()
    w = store.add("w", RngStream(2).uniform(-1, 1, (16, 5)))
    b = store.add("b", RngStream(3).uniform(-1, 1, (5,)))
    tokens = patch_embed([np.full((1, 8, 8), 0.37)], 4, w, b)
    for row in tokens.data[1:]:
        np.testing.assert_allclose(row, tokens.data[0], atol=1e-12)


def test_patch_embed_matches_reshape_matmul_oracle():
    rng = RngStream(4)
    frame = rng.uniform(-1, 1, (2, 8, 8))
    store = ParamStore()
    w = store.add("w", rng.uniform(-1, 1, (2 * 16, 3)))
    b = store.add("b", rng.uniform(-1, 1, (3,)))
    tokens = patch_embed([frame], 4, w, b)
    # independent recomputation with explicit loops
    expected = np.zeros((4, 3))
    t = 0
    for gy in range(2):
        for gx in range(2):
            patch = frame[:, gy * 4:(gy + 1) * 4, gx * 4:(gx + 1) * 4]
            expected[t] = patch.reshape(-1) @ w.data + b.data
            t += 1
    np.testing.assert_allclose(tokens.data, expected, atol=1e-12)


def test_patch_embed_indivisible_frame_rejected():
    store = ParamStore()
    w = store.add("w", np.zeros((16, 4)))
    b = store.add("b", np.zeros(4))
    with pytest.raises(ContractError):
        patch_embed([np.zeros((1, 9, 9))], 4, w, b)


def test_patch_embed_of_two_frame_sizes_is_each_embedded_and_concatenated():
    rng = RngStream(5)
    small = rng.uniform(-1, 1, (3, 2, 1, 16, 16))
    large = rng.uniform(-1, 1, (3, 2, 1, 32, 32))
    store = ParamStore()
    w = store.add("w", rng.uniform(-1, 1, (16, 5)))
    b = store.add("b", rng.uniform(-1, 1, (5,)))
    together = patch_embed([small, large], 4, w, b)
    assert together.shape == (3, 2, 16 + 64, 5)
    apart = np.concatenate([patch_embed([small], 4, w, b).data,
                            patch_embed([large], 4, w, b).data], axis=-2)
    np.testing.assert_allclose(together.data, apart, rtol=0, atol=1e-12)


def test_gaussian_center_map_peak_and_range():
    side = 8
    gt = gaussian_center_map(side, Box(0.3, 0.6, 0.3, 0.3))
    assert gt.shape == (side, side)
    assert gt.max() == 1.0
    assert np.count_nonzero(gt == 1.0) >= 1
    assert gt.min() >= 0.0
    peak = np.unravel_index(np.argmax(gt), gt.shape)
    assert peak == (int(0.6 * side), int(0.3 * side))


def test_baseline_config_has_no_adapter_or_fusion_params():
    cfg = tiny_config(toggle_sdmoe=False, toggle_mff=False,
                      toggle_gram=False, toggle_mhg=False)
    model = Tracker(cfg)
    names = [p.name for p in model.store]
    assert not any(n.startswith("adapter") or n.startswith("fusion.") for n in names)
    assert model.n_adapter_params() == 0


def test_zero_init_identity_end_to_end():
    cfg_on = tiny_config(seed=21)
    cfg_off = tiny_config(
        seed=21, toggle_sdmoe=False, toggle_mff=False, toggle_gram=False,
        toggle_mhg=False,
    )
    model_on = Tracker(cfg_on)
    model_on.zero_new_modules()
    model_off = Tracker(cfg_off)
    for sample in generate_dataset(cfg_on, 3, "zid"):
        on = forward_track(sample, model_on)
        off = forward_track(sample, model_off)
        assert np.max(np.abs(on.output.box_tensor.data - off.output.box_tensor.data)) <= 1e-10
        assert np.max(np.abs(on.output.center_map.data - off.output.center_map.data)) <= 1e-10


def test_forward_is_reproducible_to_bit_level():
    cfg = tiny_config(seed=5)
    sample = generate_dataset(cfg, 1, "repro")[0]
    a = forward_track(sample, Tracker(cfg))
    b = forward_track(sample, Tracker(cfg))
    assert abs(a.bundle.total.item() - b.bundle.total.item()) <= 1e-12
    np.testing.assert_array_equal(a.output.box_tensor.data, b.output.box_tensor.data)


def test_adapter_evaluations_per_forward_equal_token_count():
    cfg = tiny_config(seed=6)
    model = Tracker(cfg)
    sample = generate_dataset(cfg, 1, "evals")[0]
    result = forward_track(sample, model)
    tokens_per_pass = cfg.n_template_tokens + cfg.n_search_tokens
    # one adapter call per block per modality
    assert len(result.output.expert_evals) == 2 * cfg.depth
    assert all(n == tokens_per_pass for n in result.output.expert_evals)


def test_variant_parameter_counts_strictly_increase():
    ladder = [
        (False, False, False, False),
        (True, False, False, False),
        (True, True, False, False),
        (True, True, True, True),
    ]
    counts = [Tracker(tiny_config(toggle_sdmoe=a, toggle_mff=b, toggle_gram=c,
                                  toggle_mhg=d)).n_trainable()
              for a, b, c, d in ladder]
    assert all(x < y for x, y in zip(counts, counts[1:]))


def test_usage_histogram_matches_routed_tokens():
    cfg = tiny_config(seed=8)
    model = Tracker(cfg)
    sample = generate_dataset(cfg, 1, "usage")[0]
    result = forward_track(sample, model)
    hist = result.output.usage_histogram(cfg.n_experts)
    routed = (cfg.n_template_tokens + cfg.n_search_tokens) * 2 * cfg.depth * cfg.top_k
    assert hist.sum() == routed


def _perturbed_tracker(cfg, scale=0.05):
    """A tracker whose zero-initialised insertions are switched on."""
    model = Tracker(cfg)
    noise = RngStream(cfg.seed).child("perturb")
    for p in model.store:
        if p.requires_grad:
            model.store.set_values(p.name, p.data + noise.normal(scale, p.shape))
    return model


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def test_batched_forward_matches_single_calls():
    cfg = tiny_config(seed=14, top_k=1)
    model = _perturbed_tracker(cfg)
    samples = generate_dataset(cfg, 4, "batched")
    batched = forward_track(samples, model)
    together = batched.output
    assert batched.bundle.total.shape == (len(samples),)
    assert together.box_tensor.shape == (len(samples), 4)
    usage = np.zeros(cfg.n_experts, dtype=np.int64)
    for i, sample in enumerate(samples):
        alone = forward_track(sample, model)
        assert _rel_err(together.box_tensor.data[i], alone.output.box_tensor.data[0]) <= 1e-12
        assert _rel_err(together.center_map.data[i], alone.output.center_map.data[0]) <= 1e-12
        assert _rel_err(batched.bundle.total.data[i], alone.bundle.total.data[0]) <= 1e-12
        assert together.boxes[i] == Box(*together.box_tensor.data[i])
        assert together.expert_evals == alone.output.expert_evals
        for picks, alone_picks in zip(together.selected, alone.output.selected, strict=True):
            np.testing.assert_array_equal(picks[2 * i:2 * i + 2], alone_picks)
        usage += alone.output.usage_histogram(cfg.n_experts)
    np.testing.assert_array_equal(together.usage_histogram(cfg.n_experts), usage)

    model.store.zero_grad()
    backward(_batch_loss(model, samples, step=0)[0])
    batch_grads = {p.name: p.grad.copy() for p in model.store if p.grad is not None}
    model.store.zero_grad()
    for sample in samples:
        backward(smul(mean(forward_track(sample, model).bundle.total), 1.0 / len(samples)))
    single_grads = {p.name: p.grad for p in model.store if p.grad is not None}
    assert batch_grads.keys() == single_grads.keys() and batch_grads
    for name, grad in batch_grads.items():
        assert _rel_err(grad, single_grads[name]) <= 1e-12, name


def test_one_sample_accessors_reject_a_larger_pass():
    cfg = tiny_config(seed=17)
    model = Tracker(cfg)
    samples = generate_dataset(cfg, 2, "accessors")
    result = forward_track(samples, model)
    assert len(result.output.boxes) == 2
    with pytest.raises(ContractError):
        result.output.box
    with pytest.raises(ContractError):
        result.box_prediction
    one = forward_track(samples[0], model)
    assert one.box_prediction == one.output.boxes[0]
    assert one.bundle.values()["total"] == one.bundle.total.data[0]


# the default toggles, ``baseline``, and sdmoe off with mff on: the last puts
# the level taps inside the frozen prefix
PREFIX_TOGGLES = {
    "default": (True, True, True, True),
    "baseline": (False, False, False, False),
    "mff-without-sdmoe": (False, True, False, False),
}


def _step(model, samples, prefix_cache):
    """One pass and its backward; returns the output and every trainable gradient."""
    model.store.zero_grad()
    result = forward_track(samples, model, prefix_cache)
    backward(mean(result.bundle.total))
    return result.output, {p.name: p.grad for p in model.store if p.requires_grad}


@pytest.mark.parametrize("toggles", list(PREFIX_TOGGLES))
def test_a_prefix_cache_hit_is_bit_identical_to_a_miss_and_to_no_cache(toggles):
    cfg = tiny_config(seed=23, top_k=1).with_toggles(*PREFIX_TOGGLES[toggles])
    model = _perturbed_tracker(cfg)
    samples = generate_dataset(cfg, 4, "prefix")
    cache = {}
    runs = [_step(model, samples, None), _step(model, samples, cache), _step(model, samples, cache)]
    assert len(cache) == 1
    (plain, plain_grads), *cached = runs
    assert plain_grads and all(g is not None for g in plain_grads.values())
    for output, grads in cached:
        for field in ("box_tensor", "center_map", "balance"):
            np.testing.assert_array_equal(getattr(output, field).data,
                                          getattr(plain, field).data, err_msg=field)
        assert grads.keys() == plain_grads.keys()
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, plain_grads[name], err_msg=name)


@pytest.mark.parametrize("toggles", ["default", "mff-without-sdmoe"])
def test_cached_prefix_stays_read_only_and_unchanged_through_training_steps(toggles):
    cfg = tiny_config(seed=24).with_toggles(*PREFIX_TOGGLES[toggles])
    model = _perturbed_tracker(cfg)
    samples = generate_dataset(cfg, 4, "prefix")
    cache = {}
    _step(model, samples, cache)
    (tokens, levels), = cache.values()
    stored = [tokens, *levels]
    assert len(stored) == (1 if toggles == "default" else 1 + len(cfg.level_taps))
    before = [t.data.copy() for t in stored]
    for _ in range(3):
        _step(model, samples, cache)
        model.store.sgd_step(0.1)
    assert len(cache) == 1
    for t, old in zip(stored, before):
        assert not t.requires_grad and t.grad is None
        assert not t.data.flags.writeable
        np.testing.assert_array_equal(t.data, old)
        with pytest.raises(ValueError):
            t.data[...] = 0.0


def test_a_prefix_with_a_trainable_weight_is_not_cached():
    cfg = tiny_config(seed=26)
    model = Tracker(cfg)
    model.blocks[0].wq.requires_grad = True
    cache = {}
    with pytest.raises(ContractError, match="trainable"):
        forward_track(generate_dataset(cfg, 2, "prefix"), model, cache)
    assert not cache


@pytest.mark.parametrize("toggles", ["default", "baseline"])
def test_a_prefix_cache_hit_runs_no_patch_embed_and_no_prefix_block(toggles, monkeypatch):
    cfg = tiny_config(seed=25).with_toggles(*PREFIX_TOGGLES[toggles])
    model = Tracker(cfg)
    samples = generate_dataset(cfg, 2, "prefix")
    cache = {}
    forward_track(samples, model, cache)
    calls = []
    model_module = importlib.import_module("pairtrack.harness.model")
    embed, block_call = model_module.patch_embed, Block.__call__

    def counted_embed(*args):
        calls.append("embed")
        return embed(*args)

    def counted_block(self, x):
        calls.append(model.blocks.index(self))
        return block_call(self, x)

    monkeypatch.setattr(model_module, "patch_embed", counted_embed)
    monkeypatch.setattr(Block, "__call__", counted_block)
    forward_track(samples, model, cache)
    # with adapters the prefix ends after block 0; without, it holds every block
    assert calls == ([1] if toggles == "default" else [])
    calls.clear()
    forward_track(samples, model)  # the counters do see a pass without the cache
    assert calls == ["embed", 0, 1]


def _recorded_nodes(out):
    """The tape entries reachable from ``out``: one per recorded node backward would run."""
    seen, stack = set(), [out._entry]
    while stack:
        entry = stack.pop()
        if id(entry) not in seen:
            seen.add(id(entry))
            stack.extend(s for s in entry._parents if s is not None and not isinstance(s, Tensor))
    return len(seen)


def test_backbone_tape_size_is_independent_of_batch_size():
    cfg = tiny_config(seed=15)
    model = Tracker(cfg)
    samples = generate_dataset(cfg, 4, "tape")
    counts = {}
    for b in (1, 2, 4):
        features = model._backbone(samples[:b])[0]
        assert features.shape == (2 * b * cfg.n_search_tokens, cfg.model_dim)
        counts[b] = _recorded_nodes(features)
    assert set(counts.values()) == {63}, counts  # the tiny config's backbone


def test_step_tape_size_is_independent_of_batch_size():
    cfg = tiny_config(seed=16)
    model = Tracker(cfg)
    samples = generate_dataset(cfg, 4, "step-tape")
    counts = {b: _recorded_nodes(_batch_loss(model, samples[:b], step=0)[0]) for b in (1, 2, 4)}
    assert set(counts.values()) == {192}, counts  # the tiny config's whole step


def _numpy_block(x, block):
    """A block as separate head-split copies, [S, H, T, T] scores and softmax, in numpy."""
    n_seq, n_tok, dim = x.shape
    d = dim // block.heads

    def project(t, w):
        return (t.reshape(-1, t.shape[-1]) @ w.data).reshape(t.shape[:-1] + (w.shape[1],))

    def split(t, axes):
        return np.ascontiguousarray(t.reshape(n_seq, n_tok, block.heads, d).transpose(axes))

    q = split(project(x, block.wq) * (1.0 / np.sqrt(d)), (0, 2, 1, 3))
    k_t = split(project(x, block.wk), (0, 2, 3, 1))
    v = split(project(x, block.wv), (0, 2, 1, 3))
    scores = q @ k_t
    weights = scores - np.max(scores, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.sum(weights, axis=-1, keepdims=True)
    heads = np.ascontiguousarray((weights @ v).transpose(0, 2, 1, 3)).reshape(x.shape)
    x = x + project(heads, block.wo)
    hidden = project(x, block.w1)
    e = np.exp(-np.abs(hidden))
    hidden = hidden * (np.maximum(e, hidden >= 0) / (1.0 + e))  # silu's arithmetic
    return x + project(hidden, block.w2)


def test_block_attention_is_one_node_and_matches_the_head_split_chain():
    block = Block(ParamStore(), "block", 24, 4, 2, RngStream(21))
    x = Tensor(RngStream(22).uniform(-1, 1, (3, 13, 24)), requires_grad=True)
    out = block(x)
    # q, k, v, attention, output projection, residual add, MLP matmul, silu, matmul, add
    assert _recorded_nodes(out) == 10
    np.testing.assert_array_equal(out.data, _numpy_block(x.data, block))


def test_the_end_to_end_check_samples_each_expert_matrix_on_its_own():
    stacks = [p for p in Tracker(tiny_config()).store if ".expert." in p.name]
    assert len(stacks) == 2 * 3 and all(p.shape[0] == 2 for p in stacks)
    coords = {p.name: sampled_coords(p) for p in stacks}
    # one parameter per expert matrix gave 166 distinct coordinates; stacks give no fewer
    assert sum(len(c) for c in coords.values()) >= 166
    for p in stacks:
        assert len(set(coords[p.name])) == len(coords[p.name])
        per_matrix = np.bincount(np.asarray(coords[p.name]) // (p.size // 2), minlength=2)
        assert per_matrix.min() >= 8, (p.name, per_matrix)  # every expert gets its own draws
