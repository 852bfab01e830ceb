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
# samples drawn and rendered together; bounds the render pass's [chunk, size, size] temporaries
CHUNK_SIZE = 16
# the template shows the target alone at canonical scale: cx, cy, w, h
TEMPLATE_BOX = np.array([0.5, 0.5, 0.5, 0.5])


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


def _plane_lead(values) -> np.ndarray:
    """A float or an [...] array as [..., 1, 1], to broadcast against [size, size] planes."""
    return np.asarray(values)[..., None, None]


def _box_mask(size: int, box: np.ndarray) -> np.ndarray:
    """[..., size, size] mask (rows y, columns x) of the cells whose centre lies in the box.

    ``box`` holds cx, cy, w, h along its first axis, each a float or an [...] array.
    """
    axis = _axis(size)
    cx, cy, w, h = (_plane_lead(field) for field in box)
    return (((axis >= cx - w / 2.0) & (axis <= cx + w / 2.0))
            & ((axis[:, None] >= cy - h / 2.0) & (axis[:, None] <= cy + h / 2.0)))


def _gaussian_blob(size: int, box: np.ndarray, amplitude) -> np.ndarray:
    axis = _axis(size)
    cx, cy, w, h = (_plane_lead(field) for field in box)
    sx = np.maximum(w / 4.0, 1.0 / size)
    sy = np.maximum(h / 4.0, 1.0 / size)
    bump = np.exp(-(((axis - cx) / sx) ** 2 + ((axis[:, None] - cy) / sy) ** 2) / 2.0)
    return _plane_lead(amplitude) * bump


def _rect_blob(size: int, box: np.ndarray, amplitude) -> np.ndarray:
    return _plane_lead(amplitude) * _box_mask(size, box).astype(np.float64)


def _boxes_disjoint(a: Box, b: Box, margin: float) -> bool:
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    return (ax2 + margin <= bx1 or bx2 + margin <= ax1
            or ay2 + margin <= by1 or by2 + margin <= ay1)


def _between(low: float, high: float, u: float) -> float:
    """The map ``Generator.uniform`` applies to a draw u in [0, 1)."""
    return low + (high - low) * u


def _draw_box(rng: RngStream, w_lo: float, w_hi: float) -> Box:
    # one call takes the same four values from the stream as four scalar draws
    uw, uh, ucx, ucy = rng.uniform(0.0, 1.0, 4).tolist()
    w = _between(w_lo, w_hi, uw)
    h = _between(w_lo, w_hi, uh)
    cx = _between(w / 2 + 0.02, 1.0 - w / 2 - 0.02, ucx)
    cy = _between(h / 2 + 0.02, 1.0 - h / 2 - 0.02, ucy)
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


def _chunk(cfg: RunConfig, rng: RngStream, indices: range) -> list[SyntheticSample]:
    """The samples at ``indices``: a draw pass, sample by sample, then one render pass."""
    n, size, side = len(indices), cfg.search_size, cfg.template_size
    search_cells = cfg.channels * size * size
    # [field, slot, sample] boxes and [modality, slot, sample] amplitudes; slot 0 is the
    # target, then the distractors. A distractor that could not be placed keeps amplitude 0
    # and adds zeros, which change no sum once the noise (never -0.0) is added.
    boxes = np.zeros((4, 1 + N_DISTRACTORS, n))
    amplitudes = np.zeros((2, 1 + N_DISTRACTORS, n))
    template_amplitudes = np.empty((2, n))
    # per sample: the noise of search R, search X, template R and template X, in draw order
    frames = np.empty((n, 2 * search_cells + 2 * cfg.channels * side * side))
    gt_boxes, tags = [], []
    for i, index in enumerate(indices):
        tag = DEGRADATION_TAGS[index % len(DEGRADATION_TAGS)]
        box = _draw_box(rng, 0.25, 0.45)
        sign = 1.0 if rng.uniform(0, 1) < 0.5 else -1.0
        amp_r = sign * rng.uniform(0.8, 1.2)
        amp_x = sign * rng.uniform(0.8, 1.2)
        template_amplitudes[:, i] = amp_r, amp_x
        if tag == "rgb_degraded":
            amp_r *= DEGRADED_AMPLITUDE
        elif tag == "x_degraded":
            amp_x *= DEGRADED_AMPLITUDE
        boxes[:, 0, i] = box.as_array()
        amplitudes[:, 0, i] = amp_r, amp_x
        # distractors carry the opposite polarity and ignore degradation
        for slot, dbox in enumerate(_draw_distractors(rng, box), start=1):
            boxes[:, slot, i] = dbox.as_array()
            amplitudes[:, slot, i] = -sign * rng.uniform(0.8, 1.2)
        noise = HEAVY_NOISE if tag == "both_noisy" else BASE_NOISE
        frames[i] = rng.normal(noise, frames.shape[1:])
        gt_boxes.append(box)
        tags.append(tag)

    search = frames[:, :2 * search_cells].reshape(n, 2, cfg.channels, size, size)
    template = frames[:, 2 * search_cells:].reshape(n, 2, cfg.channels, side, side)
    for modality, blob in enumerate((_gaussian_blob, _rect_blob)):
        plane = blob(size, boxes[:, 0], amplitudes[modality, 0])
        for slot in range(1, 1 + N_DISTRACTORS):
            plane += blob(size, boxes[:, slot], amplitudes[modality, slot])
        search[:, modality] += plane[:, None]
        template[:, modality] += blob(side, TEMPLATE_BOX,
                                      template_amplitudes[modality])[:, None]
    return [SyntheticSample(search_r=search[i, 0], search_x=search[i, 1],
                            template_r=template[i, 0], template_x=template[i, 1],
                            gt_box=gt_boxes[i], tag=tags[i])
            for i in range(n)]


def generate_dataset(cfg: RunConfig, count: int, stream: str) -> list[SyntheticSample]:
    """Deterministic dataset; degradation tags cycle in fixed proportions.

    Samples are drawn and rendered ``CHUNK_SIZE`` at a time; each sample's planes are
    views of its chunk's stack.
    """
    if count < 1:
        raise ConfigError("dataset size must be positive")
    rng = RngStream(cfg.seed).child(stream)
    samples = []
    for start in range(0, count, CHUNK_SIZE):
        samples += _chunk(cfg, rng, range(start, min(start + CHUNK_SIZE, count)))
    return samples


def complementary_split(samples: list[SyntheticSample]) -> list[SyntheticSample]:
    """Samples whose target is visible in only one modality."""
    return [s for s in samples if s.tag in ("rgb_degraded", "x_degraded")]


def box_region_energy(frame: np.ndarray, box: Box) -> float:
    """Signal energy inside the box relative to the background level.

    The background is the median of pixels outside the box; the median is
    robust to the distractor blobs occupying part of the background.
    """
    inside = _box_mask(frame.shape[-1], box.as_array())
    total = 0.0
    for channel in frame:
        background = np.median(channel[~inside]) if np.any(~inside) else 0.0
        total += float(np.sum((channel[inside] - background) ** 2))
    return total
