"""Training loop, evaluation, and the ablation grid."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import ConfigError, ContractError, NumericError
from ..losses import (
    LOSS_NAMES,
    Box,
    LossBundle,
    box_iou,
    giou_loss,
    l1_box_loss,
    total_loss,
    weighted_focal,
)
from ..numerics import Tensor, backward, mean, no_grad
from .config import RunConfig
from .data import SyntheticSample, complementary_split, generate_dataset
from .metrics import MetricsRecord, usage_entropy
from .model import ForwardOutput, Tracker, gaussian_center_map


@dataclass
class TrackResult:
    """A pass's forward output and its bundle of [B] losses."""

    output: ForwardOutput
    bundle: LossBundle

    @property
    def box_prediction(self) -> Box:
        """The predicted box of a one-sample pass."""
        return self.output.box


def forward_track(samples: SyntheticSample | Sequence[SyntheticSample],
                  model: Tracker, prefix_cache: dict | None = None) -> TrackResult:
    """Tracking forward pass plus the full loss bundle against gt.

    Takes one sample, or a list of them that the model runs in one pass,
    and computes the losses once over the pass's stacked predictions.
    ``prefix_cache`` goes to ``Tracker.forward``.
    """
    batch = [samples] if isinstance(samples, SyntheticSample) else list(samples)
    output = model.forward(batch, prefix_cache=prefix_cache)
    side = model.cfg.heatmap_side
    gt_maps = np.stack([gaussian_center_map(side, sample.gt_box) for sample in batch])
    gt_boxes = np.stack([sample.gt_box.as_array() for sample in batch])
    bundle = total_loss(
        weighted_focal(output.center_map, gt_maps),
        giou_loss(output.box_tensor, gt_boxes),
        l1_box_loss(output.box_tensor, gt_boxes),
        output.balance,
        lambda_iou=model.cfg.lambda_iou,
        lambda_l1=model.cfg.lambda_l1,
        alpha=model.cfg.alpha,
    )
    return TrackResult(output, bundle)


def _loss_sums(bundles: Sequence[LossBundle]) -> dict[str, float]:
    """Each loss component summed over the bundles' samples, in bundle and sample order."""
    sums = dict.fromkeys(LOSS_NAMES, 0.0)
    for bundle in bundles:
        for row in zip(*(getattr(bundle, name).data for name in LOSS_NAMES)):
            for name, value in zip(LOSS_NAMES, row):
                sums[name] += float(value)
    return sums


def _mean_losses(sums: dict[str, float], n: int, step: int) -> dict[str, float]:
    """The per-sample means of loss sums over n samples, each checked finite."""
    means = {name: sums[name] / n for name in LOSS_NAMES}
    for name, value in means.items():
        if not np.isfinite(value):
            raise NumericError(f"evaluate: mean loss '{name}' is not finite (step {step})")
    return means


@dataclass
class TrainResult:
    records: list[MetricsRecord]
    model: Tracker
    initial_loss: float
    final_loss: float


def _batch_loss(model: Tracker, samples: list[SyntheticSample], step: int,
                prefix_cache: dict | None = None
                ) -> tuple[Tensor, LossBundle, np.ndarray]:
    """Mean loss over samples, run in one pass; also the pass's [B] losses and expert usage."""
    try:
        result = forward_track(samples, model, prefix_cache)
    except NumericError as exc:
        raise NumericError(f"{exc} (training step {step})") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # the finite check below decides
        loss = mean(result.bundle.total)
    if not np.isfinite(loss.item()):
        raise NumericError(f"batch mean loss is not finite (training step {step})")
    return loss, result.bundle, result.output.expert_counts.sum(axis=(0, 1, 2))


def _passes(model: Tracker, dataset: list[SyntheticSample],
            prefix_cache: dict | None = None
            ) -> Iterator[tuple[list[SyntheticSample], TrackResult]]:
    """No-grad passes over ``dataset`` in order, each chunk with its result.

    A pass holds at most ``batch_size`` samples, the shape of a training step.
    """
    size = model.cfg.batch_size
    for start in range(0, len(dataset), size):
        chunk = dataset[start:start + size]
        with no_grad():
            result = forward_track(chunk, model, prefix_cache)
        yield chunk, result


def evaluate(model: Tracker, dataset: list[SyntheticSample], step: int = 0,
             prefix_cache: dict | None = None) -> MetricsRecord:
    """Mean IoU and success rates plus loss components, without gradients.

    Runs the passes of ``_passes``; ``prefix_cache`` goes to ``Tracker.forward``.
    """
    if not dataset:
        raise ContractError("evaluate: empty dataset")
    bundles = []
    usage = np.zeros(model.cfg.n_experts, dtype=np.int64)
    ious = []
    for chunk, result in _passes(model, dataset, prefix_cache):
        bundles.append(result.bundle)
        usage += result.output.expert_counts.sum(axis=(0, 1, 2))
        ious.extend(box_iou(box, sample.gt_box)
                    for box, sample in zip(result.output.boxes, chunk))
    means = _mean_losses(_loss_sums(bundles), len(dataset), step)
    ious = np.asarray(ious)
    return MetricsRecord(
        step=step, **means,
        expert_usage=usage, entropy=usage_entropy(usage),
        mean_iou=float(ious.mean()),
        success_at_50=float((ious >= 0.5).mean()),
        success_at_70=float((ious >= 0.7).mean()),
    )


def train(cfg: RunConfig, eval_each_log: bool = True) -> TrainResult:
    """Gradient descent over deterministically cycled minibatches.

    Initial and final losses are both measured on the full training set, so
    the convergence ratio is batch-size independent. Frozen weights never
    move: the optimizer skips them. So the frozen backbone prefix of a batch
    never changes either: the pass that first sees a batch computes it, and
    later passes on that batch start from it. One cache serves the training
    batches and the logging evaluations' ``eval_set`` batches, and lives for
    this call; see README, "Frozen prefix".

    Step 0's batch is the initial evaluation's first pass, at the same
    weights, so the initial loss takes that pass's losses from step 0's
    forward. Set-up runs only the evaluation's other passes, through the
    cache, which the steps and the final evaluation on those batches then hit.
    """
    model = Tracker(cfg)
    train_set = generate_dataset(cfg, cfg.n_train, "data")
    eval_set = generate_dataset(cfg, cfg.n_eval, "eval") if eval_each_log else None
    batch = min(cfg.batch_size, len(train_set))
    records: list[MetricsRecord] = []
    prefix_cache: dict = {}
    later = [result.bundle for _, result in _passes(model, train_set[batch:], prefix_cache)]
    for step in range(cfg.steps):
        start = (step * batch) % len(train_set)
        samples = [train_set[(start + j) % len(train_set)] for j in range(batch)]
        model.store.zero_grad()
        loss_t, bundle, usage = _batch_loss(model, samples, step, prefix_cache)
        if step == 0:  # samples are train_set[:batch], the evaluation's first pass
            initial = _mean_losses(_loss_sums([bundle, *later]), len(train_set), 0)["total"]
        if step % cfg.log_interval == 0 or step == cfg.steps - 1:
            components = {name: total / len(samples)
                          for name, total in _loss_sums([bundle]).items()}
            eval_rec = (evaluate(model, eval_set, step, prefix_cache=prefix_cache)
                        if eval_each_log else None)
            records.append(MetricsRecord(
                step=step, **components,
                expert_usage=usage, entropy=usage_entropy(usage),
                mean_iou=eval_rec.mean_iou if eval_rec else 0.0,
                success_at_50=eval_rec.success_at_50 if eval_rec else 0.0,
                success_at_70=eval_rec.success_at_70 if eval_rec else 0.0,
            ))
        backward(loss_t)
        model.store.sgd_step(cfg.lr)
    final = evaluate(model, train_set, prefix_cache=prefix_cache).total
    return TrainResult(records=records, model=model, initial_loss=initial, final_loss=final)


ABLATION_VARIANTS = (
    ("baseline", (False, False, False, False)),
    ("+moe", (True, False, False, False)),
    ("+moe+mff", (True, True, False, False)),
    ("full", (True, True, True, True)),
)


@dataclass
class AblationRow:
    name: str
    trainable_params: int
    adapter_params: int
    record: MetricsRecord


def ablation_test_split(cfg: RunConfig) -> list[SyntheticSample]:
    """The eval samples whose target one modality hides, which ``ablate`` scores."""
    test_split = complementary_split(generate_dataset(cfg, cfg.n_eval, "eval"))
    if not test_split:  # tags cycle from "none", so sample 1 is the first degraded one
        raise ConfigError(f"ablate: the complementary test split of n_eval={cfg.n_eval} "
                          "samples is empty; it needs n_eval >= 2")
    return test_split


def ablate(cfg: RunConfig) -> list[AblationRow]:
    """Train the standard variant ladder on shared data and compare."""
    test_split = ablation_test_split(cfg)
    rows = []
    for name, toggles in ABLATION_VARIANTS:
        variant_cfg = cfg.with_toggles(*toggles)
        result = train(variant_cfg, eval_each_log=False)
        record = evaluate(result.model, test_split)
        rows.append(AblationRow(
            name=name,
            trainable_params=result.model.n_trainable(),
            adapter_params=result.model.n_adapter_params(),
            record=record,
        ))
    return rows
