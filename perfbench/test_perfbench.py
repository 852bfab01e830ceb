"""Short traced runs of every workload, checking the per-layer accounting.

Run from the repository root with ``python3 -m pytest perfbench``. A renamed
or re-bound public function shows up here as a span with no calls, instead
of a per-layer figure that silently reads zero.
"""

from __future__ import annotations

import importlib
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

MOE_FUSION = tuple(n for n in spans.SPAN_NAMES if n.startswith(("moe.", "fusion.")))
TRAIN_ONLY = ("losses.weighted_focal", "losses.giou_loss", "losses.l1_box_loss",
              "losses.total_loss", "harness.forward_track", "numerics.backward",
              "numerics.sgd_step")
CHECKPOINT = ("numerics.save_checkpoint", "numerics.load_checkpoint")

# spans whose layer does no work on each workload
IDLE_SPANS = {
    "train_default": CHECKPOINT,
    "train_backbone_head": CHECKPOINT + MOE_FUSION,
    "track_online": TRAIN_ONLY,
}


@pytest.fixture(scope="module")
def traced():
    """One short traced run per workload; fewer steps and check samples than a real run."""
    saved = workloads.STEPS_PER_TRAIN, workloads.CHECK_SAMPLES
    workloads.STEPS_PER_TRAIN, workloads.CHECK_SAMPLES = 3, 4
    try:
        return {
            name: workloads.run_workload(name, seed=3, seconds=0.01, trace=True,
                                         tmp_root=str(ROOT / ".bench_tmp"))
            for name in workloads.WORKLOADS
        }
    finally:
        workloads.STEPS_PER_TRAIN, workloads.CHECK_SAMPLES = saved


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_span_is_called_where_its_layer_works(traced, name):
    metrics = traced[name].metrics
    assert traced[name].failed == 0
    for span in spans.SPAN_NAMES:
        calls = metrics[f"{span}.calls"][0]
        if span in IDLE_SPANS[name]:
            assert calls == 0, f"{span} ran on {name}"
        else:
            assert calls > 0, f"{span} was never called on {name}"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_self_nodes_sum_to_nodes_per_sample(traced, name):
    metrics = traced[name].metrics
    self_nodes = sum(metrics[f"{span}.nodes"][0] for span in spans.SPAN_NAMES
                     if span not in spans.SETUP_SPANS)
    assert metrics["tape.nodes_per_sample"][0] > 0
    assert math.isclose(self_nodes, metrics["tape.nodes_per_sample"][0], rel_tol=1e-12)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_self_times_fit_in_the_unit(traced, name):
    metrics = traced[name].metrics
    self_ms = sum(metrics[f"{span}.self_ms"][0] for span in spans.SPAN_NAMES
                  if span not in spans.SETUP_SPANS)
    assert 0 < self_ms <= metrics["trace.unit_ms"][0]


def test_missing_target_fails_and_restores(monkeypatch):
    moe = importlib.import_module("pairtrack.moe")
    original = moe.sparse_moe
    monkeypatch.setattr(spans, "SPANS", spans.SPANS + (("moe.gone", "pairtrack.moe", "gone"),))
    with pytest.raises(AttributeError):
        with spans.Tracer("model.forward"):
            pass
    assert moe.sparse_moe is original
