"""Training loop, evaluation, and the ablation grid."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ContractError, NumericError
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
from ..numerics import backward, mean, no_grad
from .config import RunConfig
from .data import SyntheticSample, complementary_split, generate_dataset
from .metrics import MetricsRecord, usage_entropy
from .model import ForwardOutput, Tracker, gaussian_center_map, row_of, stacked


class TrackResult:
    """One sample's predicted box, forward output and losses.

    ``losses`` is the bundle of the whole ``forward_track`` call, [B]
    tensors that its results share; ``bundle`` is this sample's row of it,
    built on first read so that rows nobody reads add nothing to the tape.
    """

    def __init__(self, box_prediction: Box, output: ForwardOutput, losses: LossBundle,
                 row: int):
        self.box_prediction = box_prediction
        self.output = output
        self.losses = losses
        self.row = row
        self._bundle: LossBundle | None = None

    @property
    def bundle(self) -> LossBundle:
        if self._bundle is None:
            self._bundle = LossBundle(
                *(row_of(getattr(self.losses, name), self.row) for name in LOSS_NAMES))
        return self._bundle

    def values(self) -> dict[str, float]:
        """This sample's loss floats, read without building ``bundle``."""
        return self.losses.values(self.row)


def forward_track(samples: SyntheticSample | Sequence[SyntheticSample], model: Tracker):
    """Tracking forward pass plus the full loss bundle against gt.

    Takes one sample, or a list of them that the model runs in one pass,
    and computes the losses once over the pass's stacked predictions;
    returns a TrackResult, or a list of them in order.
    """
    single = isinstance(samples, SyntheticSample)
    outputs = model.forward(samples)
    batch, outputs = ([samples], [outputs]) if single else (list(samples), outputs)
    side = model.cfg.heatmap_side
    gt_maps = np.stack([gaussian_center_map(side, sample.gt_box) for sample in batch])
    gt_boxes = np.stack([sample.gt_box.as_array() for sample in batch])
    boxes = stacked(outputs, "box_tensor")
    losses = total_loss(
        weighted_focal(stacked(outputs, "center_map"), gt_maps),
        giou_loss(boxes, gt_boxes),
        l1_box_loss(boxes, gt_boxes),
        stacked(outputs, "balance"),
        model.cfg.loss_weights(),
    )
    results = [TrackResult(output.box, output, losses, row)
               for row, output in enumerate(outputs)]
    return results[0] if single else results


@dataclass
class TrainResult:
    records: list[MetricsRecord]
    model: Tracker
    initial_loss: float
    final_loss: float


def _batch_loss(model: Tracker, samples: list[SyntheticSample], step: int):
    """Mean loss over samples, run in one pass; component means summed in sample order."""
    components = dict.fromkeys(LOSS_NAMES, 0.0)
    usage = np.zeros(model.cfg.n_experts, dtype=np.int64)
    try:
        results = forward_track(samples, model)
    except NumericError as exc:
        raise NumericError(f"{exc} (training step {step})") from exc
    for result in results:
        for name, value in result.values().items():
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite loss component '{name}' at step {step}"
                )
            components[name] += value
        usage += result.output.usage_histogram(model.cfg.n_experts)
    n = len(samples)
    for name in components:
        components[name] /= n
    return mean(results[0].losses.total), components, usage


def evaluate(model: Tracker, dataset: list[SyntheticSample], step: int = 0) -> MetricsRecord:
    """Mean IoU and success rates plus loss components, without gradients."""
    if not dataset:
        raise ContractError("evaluate: empty dataset")
    with no_grad():
        components = dict.fromkeys(LOSS_NAMES, 0.0)
        usage = np.zeros(model.cfg.n_experts, dtype=np.int64)
        ious = []
        for sample in dataset:
            result = forward_track(sample, model)
            for name, value in result.values().items():
                components[name] += value
            usage += result.output.usage_histogram(model.cfg.n_experts)
            ious.append(box_iou(result.box_prediction, sample.gt_box))
    n = len(dataset)
    ious = np.asarray(ious)
    return MetricsRecord(
        step=step,
        total=components["total"] / n, cls=components["cls"] / n,
        iou=components["iou"] / n, l1=components["l1"] / n, eb=components["eb"] / n,
        expert_usage=usage, entropy=usage_entropy(usage),
        mean_iou=float(ious.mean()),
        success_at_50=float((ious >= 0.5).mean()),
        success_at_70=float((ious >= 0.7).mean()),
    )


def train(cfg: RunConfig, eval_each_log: bool = True) -> TrainResult:
    """Gradient descent over deterministically cycled minibatches.

    Initial and final losses are both measured on the full training set, so
    the convergence ratio is batch-size independent. Frozen weights never
    move: the optimizer skips them.
    """
    model = Tracker(cfg)
    train_set = generate_dataset(cfg, cfg.n_train, "data")
    eval_set = generate_dataset(cfg, cfg.n_eval, "eval")
    batch = min(cfg.batch_size, len(train_set))
    records: list[MetricsRecord] = []
    initial = evaluate(model, train_set).total
    for step in range(cfg.steps):
        start = (step * batch) % len(train_set)
        samples = [train_set[(start + j) % len(train_set)] for j in range(batch)]
        model.store.zero_grad()
        loss_t, components, usage = _batch_loss(model, samples, step)
        if step % cfg.log_interval == 0 or step == cfg.steps - 1:
            eval_rec = evaluate(model, eval_set, step) if eval_each_log else None
            records.append(MetricsRecord(
                step=step,
                total=components["total"], cls=components["cls"],
                iou=components["iou"], l1=components["l1"], eb=components["eb"],
                expert_usage=usage, entropy=usage_entropy(usage),
                mean_iou=eval_rec.mean_iou if eval_rec else 0.0,
                success_at_50=eval_rec.success_at_50 if eval_rec else 0.0,
                success_at_70=eval_rec.success_at_70 if eval_rec else 0.0,
            ))
        backward(loss_t)
        model.store.sgd_step(cfg.lr)
    final = evaluate(model, train_set).total
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


def ablate(cfg: RunConfig) -> list[AblationRow]:
    """Train the standard variant ladder on shared data and compare."""
    rows = []
    test_split = complementary_split(generate_dataset(cfg, cfg.n_eval, "eval"))
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
