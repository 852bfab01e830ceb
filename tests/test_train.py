"""Training loop, evaluation metrics, frozen-backbone contract."""

import gc
import importlib
import tracemalloc
import warnings

import numpy as np
import pytest

from pairtrack.errors import ContractError, NumericError
from pairtrack.harness import (
    RunConfig,
    Tracker,
    evaluate,
    forward_track,
    generate_dataset,
    tiny_config,
    train,
    usage_entropy,
)
from pairtrack.harness.model import ForwardOutput, gaussian_center_map
from pairtrack.harness.train import _batch_loss
from pairtrack.losses import Box, box_iou
from pairtrack.numerics import backward, constant, mean


class _StubModel:
    """Model stand-in that predicts a fixed or gt-copied box."""

    def __init__(self, cfg, box=None):
        self.cfg = cfg
        self.box = box

    def forward(self, samples, prefix_cache=None):
        boxes = [self.box if self.box is not None else s.gt_box for s in samples]
        side = self.cfg.heatmap_side
        return ForwardOutput(
            box_tensor=constant(np.stack([box.as_array() for box in boxes])),
            center_map=constant(np.stack([np.clip(gaussian_center_map(side, box), 0.0, 1.0)
                                          for box in boxes])),
            balance=constant(np.zeros(len(boxes))),
            boxes=boxes,
            expert_counts=np.zeros((0, len(boxes), 2, self.cfg.n_experts), dtype=np.int64),
        )


class _CountingModel:
    """A tracker that counts its forward passes."""

    def __init__(self, model):
        self.model = model
        self.cfg = model.cfg
        self.passes = 0

    def forward(self, samples, prefix_cache=None):
        self.passes += 1
        return self.model.forward(samples, prefix_cache)


def test_evaluate_perfect_predictions():
    cfg = tiny_config()
    dataset = generate_dataset(cfg, 8, "eval")
    record = evaluate(_StubModel(cfg), dataset)
    assert abs(record.mean_iou - 1.0) <= 1e-9
    assert record.success_at_50 == 1.0
    assert record.success_at_70 == 1.0


def test_evaluate_fixed_box_matches_bruteforce_thresholding():
    cfg = tiny_config()
    dataset = generate_dataset(cfg, 12, "eval")
    fixed = Box(0.5, 0.5, 0.4, 0.4)
    record = evaluate(_StubModel(cfg, box=fixed), dataset)
    ious = [box_iou(fixed, s.gt_box) for s in dataset]
    assert abs(record.mean_iou - np.mean(ious)) <= 1e-12
    assert record.success_at_50 == np.mean([i >= 0.5 for i in ious])
    assert record.success_at_70 == np.mean([i >= 0.7 for i in ious])


def test_evaluate_is_deterministic():
    cfg = tiny_config(seed=9)
    model = Tracker(cfg)
    dataset = generate_dataset(cfg, 6, "eval")
    a = evaluate(model, dataset)
    b = evaluate(model, dataset)
    assert a.mean_iou == b.mean_iou and a.total == b.total
    assert a.success_at_50 == b.success_at_50 and a.entropy == b.entropy
    np.testing.assert_array_equal(a.expert_usage, b.expert_usage)


def test_evaluate_runs_training_shaped_passes():
    cfg = tiny_config(seed=17, batch_size=3)
    counting = _CountingModel(Tracker(cfg))
    dataset = generate_dataset(cfg, 7, "passes")
    record = evaluate(counting, dataset)
    assert counting.passes == 3  # ceil(7 / 3)

    singles = [forward_track(sample, counting.model) for sample in dataset]
    for name in ("total", "cls", "iou", "l1", "eb"):
        expected = np.mean([result.bundle.values()[name] for result in singles])
        assert abs(getattr(record, name) - expected) <= 1e-12 * abs(expected), name
    ious = [box_iou(result.box_prediction, sample.gt_box)
            for result, sample in zip(singles, dataset)]
    assert abs(record.mean_iou - np.mean(ious)) <= 1e-12
    assert record.success_at_50 == np.mean([i >= 0.5 for i in ious])
    np.testing.assert_array_equal(
        record.expert_usage,
        sum(result.output.expert_counts.sum(axis=(0, 1, 2)) for result in singles))


def test_evaluate_empty_dataset_rejected():
    with pytest.raises(ContractError):
        evaluate(_StubModel(tiny_config()), [])


def test_train_smoke_and_frozen_backbone():
    cfg = tiny_config(seed=10, steps=5, log_interval=2, n_train=4, n_eval=4)
    before = Tracker(cfg).backbone_checksum()
    result = train(cfg)
    assert len(result.records) >= 2
    assert np.isfinite(result.final_loss)
    assert result.model.backbone_checksum() == before
    for record in result.records:
        assert 0.0 <= record.entropy <= np.log(cfg.n_experts) + 1e-12


def test_train_without_logged_eval_builds_no_eval_set(monkeypatch):
    # the package's ``train`` attribute is the function, so fetch the module
    train_module = importlib.import_module("pairtrack.harness.train")
    cfg = tiny_config(seed=14, steps=3, batch_size=2, log_interval=1, n_train=4, n_eval=4)
    logged = train(cfg, eval_each_log=True)
    streams = []

    def spy(cfg, count=None, stream="data"):
        streams.append(stream)
        return generate_dataset(cfg, count, stream)

    monkeypatch.setattr(train_module, "generate_dataset", spy)
    result = train(cfg, eval_each_log=False)
    assert streams == ["data"]
    assert (result.initial_loss, result.final_loss) == (logged.initial_loss, logged.final_loss)
    assert [r.total for r in result.records] == [r.total for r in logged.records]


@pytest.mark.parametrize("n_train, entries", [(8, 2), (6, 3), (3, 1)])
def test_train_keeps_one_prefix_entry_per_distinct_batch(n_train, entries, monkeypatch):
    caches, sizes = [], []
    forward = Tracker.forward

    def spy(self, samples, prefix_cache=None):
        caches.append(prefix_cache)
        sizes.append(None if prefix_cache is None else len(prefix_cache))
        return forward(self, samples, prefix_cache)

    monkeypatch.setattr(Tracker, "forward", spy)
    cfg = tiny_config(seed=18, steps=6, batch_size=4, n_train=n_train)
    train(cfg, eval_each_log=False)
    # step 0's pass is the initial evaluation's first, so set-up runs the other passes;
    # they, every step and the final evaluation pass the same cache
    batches = -(-n_train // 4)
    setup = batches - 1
    assert len(caches) == setup + cfg.steps + batches
    assert caches[0] is not None and all(c is caches[0] for c in caches)
    # set-up stores one entry per pass; the steps add one per distinct batch that set-up
    # did not see, and the final evaluation hits them all. A chunk no step runs, the 2
    # last samples when n_train is 6, is set-up's
    assert sizes[setup] == setup
    assert sizes[setup + cfg.steps] == entries + (n_train == 6)
    assert len(caches[0]) == entries + (n_train == 6)


def test_logging_evaluations_share_one_prefix_cache_and_match_uncached_ones(monkeypatch):
    train_module = importlib.import_module("pairtrack.harness.train")
    cfg = tiny_config(seed=20, steps=3, batch_size=2, log_interval=1, n_train=4, n_eval=6)
    plain_evaluate, logged = train_module.evaluate, []

    def spy(model, dataset, step=0, prefix_cache=None):
        before = None if prefix_cache is None else len(prefix_cache)
        record = plain_evaluate(model, dataset, step, prefix_cache)
        if len(dataset) == cfg.n_eval:  # a logging evaluation, not the final one
            logged.append((prefix_cache, len(prefix_cache) - before))
            fresh = plain_evaluate(model, dataset, step)
            assert [getattr(record, f) for f in ("total", "mean_iou", "success_at_50")] == [
                getattr(fresh, f) for f in ("total", "mean_iou", "success_at_50")]
            np.testing.assert_array_equal(record.expert_usage, fresh.expert_usage)
        return record

    monkeypatch.setattr(train_module, "evaluate", spy)
    train(cfg, eval_each_log=True)
    assert len(logged) == cfg.steps and all(c is logged[0][0] for c, _ in logged)
    # the first logging evaluation stores the eval set's 3 batches; later ones hit them
    assert [added for _, added in logged] == [3, 0, 0]


@pytest.mark.parametrize("toggles", ["default", "baseline"])
def test_final_evaluation_through_the_cache_matches_an_uncached_one(toggles):
    cfg = tiny_config(seed=19, steps=4, batch_size=2, n_train=4)
    if toggles == "baseline":
        cfg = cfg.with_toggles(False, False, False, False)
    result = train(cfg, eval_each_log=False)
    fresh = evaluate(result.model, generate_dataset(cfg, cfg.n_train, "data"))
    assert result.final_loss == fresh.total


@pytest.mark.parametrize("toggles", ["default", "baseline"])
@pytest.mark.parametrize("n_train", [8, 6, 3])
def test_initial_loss_equals_an_evaluation_of_the_initial_model(n_train, toggles):
    # at this seed, summing the set-up passes before step 0's batch changes the last bit
    # of the n_train = 8 totals and of the 6-sample default one
    cfg = tiny_config(seed=38, steps=2, batch_size=4, n_train=n_train)
    if toggles == "baseline":
        cfg = cfg.with_toggles(False, False, False, False)
    result = train(cfg, eval_each_log=False)
    fresh = evaluate(Tracker(cfg), generate_dataset(cfg, cfg.n_train, "data"))
    assert result.initial_loss == fresh.total


@pytest.mark.parametrize("batch_size, message", [
    (4, "batch mean loss is not finite (training step 0)"),  # step 0's own check
    (1, "mean loss 'total' is not finite (step 0)"),  # each batch is finite, the sum is not
])
def test_an_overflowing_initial_loss_raises_numeric_error(batch_size, message):
    cfg = tiny_config(seed=12, steps=3, batch_size=batch_size, n_train=8,
                      lambda_iou=1e308, lambda_l1=1e308)
    with np.errstate(over="ignore"), pytest.raises(NumericError) as exc:
        train(cfg, eval_each_log=False)
    assert message in str(exc.value)


def test_train_record_usage_accounts_batch_tokens():
    cfg = tiny_config(seed=11, steps=2, batch_size=2, log_interval=1,
                      n_train=2, n_eval=4)
    result = train(cfg, eval_each_log=False)
    tokens = (cfg.n_template_tokens + cfg.n_search_tokens) * 2 * cfg.depth
    for record in result.records:
        assert record.expert_usage.sum() == tokens * 2  # batch of 2 samples


def test_nonfinite_loss_aborts_with_step_and_component():
    from pairtrack.harness.train import _batch_loss

    cfg = tiny_config(seed=12)
    model = Tracker(cfg)
    shape = model.store["head.w1"].shape
    model.store.set_values("head.w1", np.full(shape, np.nan))
    samples = generate_dataset(cfg, 1, "nan")
    with pytest.raises(NumericError) as exc:
        _batch_loss(model, samples, step=7)
    message = str(exc.value)
    assert "step 7" in message and "cls" in message


def test_overflowing_batch_mean_aborts_with_step():
    from pairtrack.harness.train import _batch_loss

    # each sample's total is finite near 1e308; their sum is not
    cfg = tiny_config(seed=12, lambda_iou=1e308, lambda_l1=1e308)
    samples = generate_dataset(cfg, 4, "overflow")
    with np.errstate(over="ignore"), pytest.raises(NumericError) as exc:
        _batch_loss(Tracker(cfg), samples, step=4)
    message = str(exc.value)
    assert "batch mean" in message and "step 4" in message


def test_overflowing_batch_mean_raises_only_numeric_error_under_warnings_as_errors():
    from pairtrack.harness.train import _batch_loss

    cfg = tiny_config(seed=12, lambda_iou=1e308, lambda_l1=1e308)
    samples = generate_dataset(cfg, 4, "overflow")
    model = Tracker(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="batch mean loss is not finite"):
            _batch_loss(model, samples, step=4)


def test_usage_entropy_bounds():
    assert usage_entropy(np.array([0, 0, 0, 0])) == 0.0
    assert usage_entropy(np.array([10, 0, 0, 0])) == 0.0
    uniform = usage_entropy(np.array([5, 5, 5, 5]))
    assert abs(uniform - np.log(4)) <= 1e-12


def test_forward_track_bundle_consistency():
    cfg = tiny_config(seed=13)
    model = Tracker(cfg)
    sample = generate_dataset(cfg, 1, "bundle")[0]
    result = forward_track(sample, model)
    parts = result.bundle.values()
    recon = (parts["cls"] + cfg.lambda_iou * parts["iou"]
             + cfg.lambda_l1 * parts["l1"] + cfg.alpha * parts["eb"])
    assert abs(parts["total"] - recon) <= 1e-12
    assert parts["eb"] > 0  # adapters enabled in the tiny config


@pytest.fixture(scope="module")
def traced_default_step():
    """Traced bytes live after one default-config training forward (B=4, seed 3), and the
    traced peak of its backward."""
    cfg = RunConfig(seed=3)
    model = Tracker(cfg)
    samples = generate_dataset(cfg, cfg.n_train, "data")[:cfg.batch_size]
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        loss = mean(forward_track(samples, model).bundle.total)
        tape = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(loss)
        return tape, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_tape_holds_only_what_backward_reads(traced_default_step):
    tape, _ = traced_default_step
    assert tape <= 26 * 2**20, f"the forward tape holds {tape / 2**20:.1f} MiB"


def test_backward_frees_the_tape_as_it_walks(traced_default_step):
    tape, peak = traced_default_step
    assert peak <= 1.05 * tape, f"backward peaked at {peak / tape:.2f}x the forward tape"


@pytest.mark.parametrize("toggles", ["default", "baseline"])
def test_a_cached_step_keeps_few_tracked_objects_per_recorded_node(toggles, monkeypatch):
    """The collector runs once per 700 net new tracked objects, so a step's tape sets how
    often it runs inside training steps: a budget per recorded node bounds that."""
    cfg = RunConfig(seed=3)
    if toggles == "baseline":
        cfg = cfg.with_toggles(False, False, False, False)
    model = Tracker(cfg)
    samples = generate_dataset(cfg, cfg.n_train, "data")[:cfg.batch_size]
    cache = {}
    _batch_loss(model, samples, 0, cache)  # fills the prefix cache
    tensor_module = importlib.import_module("pairtrack.numerics.tensor")
    node, recorded = tensor_module._node, [0]

    def counted(data, parents, bw):
        out = node(data, parents, bw)
        recorded[0] += out.requires_grad
        return out

    monkeypatch.setattr(tensor_module, "_node", counted)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        step = _batch_loss(model, samples, 1, cache)
        alive = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert recorded[0] > 0 and step[0].requires_grad
    per_node = alive / recorded[0]
    assert per_node <= 6.5, f"{alive} tracked objects for {recorded[0]} nodes: {per_node:.2f}"


def test_training_steps_do_not_overlap_their_tapes(traced_default_step):
    tape, _ = traced_default_step
    cfg = RunConfig(seed=3, steps=6)
    tracemalloc.start()
    try:
        train(cfg, eval_each_log=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * tape, f"train() peaked at {peak / tape:.2f}x one forward tape"
