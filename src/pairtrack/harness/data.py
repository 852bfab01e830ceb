"""Synthetic paired-modality samples with distractors and complementary degradation.

Each sample renders one target blob plus a few opposite-polarity distractor
blobs into two modality channels: modality R draws smooth Gaussian bumps,
modality X filled rectangles, each with per-sample amplitudes. The template
shows the target alone at canonical scale, so localization requires matching
the template's polarity and appearance rather than finding any blob.

Degradation keeps the task complementary: a degraded modality retains only
5% of the *target* amplitude while its distractors stay at full strength,
so that modality is actively misleading and the tracker must lean on the
other one. ``both_noisy`` raises the noise floor on both modalities instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..losses import Box
from ..numerics import RngStream
from .config import DEGRADATION_TAGS, RunConfig

DEGRADED_AMPLITUDE = 0.05
BASE_NOISE = 0.02
HEAVY_NOISE = 0.08
N_DISTRACTORS = 2
# Gaussian blobs have visible tails ~2 sigma = w/2 past their box edge, so
# distractors keep a wide gap from the target box
PLACEMENT_MARGIN = 0.12
MAX_PLACEMENT_TRIES = 40


@dataclass(eq=False)  # identity equality and hash: a sample keys the prefix cache
class SyntheticSample:
    template_r: np.ndarray
    template_x: np.ndarray
    search_r: np.ndarray
    search_x: np.ndarray
    gt_box: Box
    tag: str


def _axis(size: int) -> np.ndarray:
    return (np.arange(size) + 0.5) / size


def _box_mask(size: int, box: Box) -> np.ndarray:
    """[size, size] mask (rows y, columns x) of the cells whose centre lies in the box."""
    axis = _axis(size)
    x1, y1, x2, y2 = box.corners()
    return ((axis >= x1) & (axis <= x2)) & ((axis[:, None] >= y1) & (axis[:, None] <= y2))


def _gaussian_blob(size: int, box: Box, amplitude: float) -> np.ndarray:
    axis = _axis(size)
    sx = max(box.w / 4.0, 1.0 / size)
    sy = max(box.h / 4.0, 1.0 / size)
    bump = np.exp(-(((axis - box.cx) / sx) ** 2 + ((axis[:, None] - box.cy) / sy) ** 2) / 2.0)
    return amplitude * bump


def _rect_blob(size: int, box: Box, amplitude: float) -> np.ndarray:
    return amplitude * _box_mask(size, box).astype(np.float64)


def _boxes_disjoint(a: Box, b: Box, margin: float) -> bool:
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    return (ax2 + margin <= bx1 or bx2 + margin <= ax1
            or ay2 + margin <= by1 or by2 + margin <= ay1)


def _draw_box(rng: RngStream, w_lo: float, w_hi: float) -> Box:
    w = rng.uniform(w_lo, w_hi)
    h = rng.uniform(w_lo, w_hi)
    cx = rng.uniform(w / 2 + 0.02, 1.0 - w / 2 - 0.02)
    cy = rng.uniform(h / 2 + 0.02, 1.0 - h / 2 - 0.02)
    return Box(cx=cx, cy=cy, w=w, h=h)


def _draw_distractors(rng: RngStream, target: Box) -> list[Box]:
    boxes = []
    for _ in range(N_DISTRACTORS):
        for _ in range(MAX_PLACEMENT_TRIES):
            candidate = _draw_box(rng, 0.14, 0.26)
            if _boxes_disjoint(candidate, target, PLACEMENT_MARGIN):
                boxes.append(candidate)
                break
    return boxes


def generate_dataset(cfg: RunConfig, count: int, stream: str) -> list[SyntheticSample]:
    """Deterministic dataset; degradation tags cycle in fixed proportions."""
    if count < 1:
        raise ConfigError("dataset size must be positive")
    rng = RngStream(cfg.seed).child(stream)
    size = cfg.search_size
    samples = []
    for index in range(count):
        tag = DEGRADATION_TAGS[index % len(DEGRADATION_TAGS)]
        box = _draw_box(rng, 0.25, 0.45)
        sign = 1.0 if rng.uniform(0, 1) < 0.5 else -1.0
        amp_r = sign * rng.uniform(0.8, 1.2)
        amp_x = sign * rng.uniform(0.8, 1.2)
        target_r, target_x = amp_r, amp_x
        if tag == "rgb_degraded":
            target_r *= DEGRADED_AMPLITUDE
        elif tag == "x_degraded":
            target_x *= DEGRADED_AMPLITUDE

        search_r = _gaussian_blob(size, box, target_r)
        search_x = _rect_blob(size, box, target_x)
        # distractors carry the opposite polarity and ignore degradation
        for dbox in _draw_distractors(rng, box):
            d_amp = rng.uniform(0.8, 1.2)
            search_r = search_r + _gaussian_blob(size, dbox, -sign * d_amp)
            search_x = search_x + _rect_blob(size, dbox, -sign * d_amp)

        template_box = Box(cx=0.5, cy=0.5, w=0.5, h=0.5)
        template_r = _gaussian_blob(cfg.template_size, template_box, amp_r)
        template_x = _rect_blob(cfg.template_size, template_box, amp_x)

        noise = HEAVY_NOISE if tag == "both_noisy" else BASE_NOISE
        frames = []
        for plane, side in ((search_r, size), (search_x, size),
                            (template_r, cfg.template_size),
                            (template_x, cfg.template_size)):
            stacked = np.repeat(plane[None, :, :], cfg.channels, axis=0)
            frames.append(stacked + rng.normal(noise, stacked.shape))
        samples.append(SyntheticSample(
            search_r=frames[0], search_x=frames[1],
            template_r=frames[2], template_x=frames[3],
            gt_box=box, tag=tag,
        ))
    return samples


def complementary_split(samples: list[SyntheticSample]) -> list[SyntheticSample]:
    """Samples whose target is visible in only one modality."""
    return [s for s in samples if s.tag in ("rgb_degraded", "x_degraded")]


def box_region_energy(frame: np.ndarray, box: Box) -> float:
    """Signal energy inside the box relative to the background level.

    The background is the median of pixels outside the box; the median is
    robust to the distractor blobs occupying part of the background.
    """
    inside = _box_mask(frame.shape[-1], box)
    total = 0.0
    for channel in frame:
        background = np.median(channel[~inside]) if np.any(~inside) else 0.0
        total += float(np.sum((channel[inside] - background) ** 2))
    return total
