"""Synthetic dataset generator contracts."""

import numpy as np
import pytest

from pairtrack.errors import ConfigError
from pairtrack.harness import DEGRADATION_TAGS, RunConfig, generate_dataset
from pairtrack.harness.data import (
    _gaussian_blob,
    _rect_blob,
    box_region_energy,
    complementary_split,
)
from pairtrack.harness.model import gaussian_center_map
from pairtrack.losses import Box


def _cfg(**kw):
    base = dict(seed=11, n_train=16, n_eval=8)
    base.update(kw)
    return RunConfig(**base)


def test_same_seed_gives_bit_identical_datasets():
    a = generate_dataset(_cfg(), 12, "data")
    b = generate_dataset(_cfg(), 12, "data")
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.search_r, sb.search_r)
        np.testing.assert_array_equal(sa.search_x, sb.search_x)
        np.testing.assert_array_equal(sa.template_r, sb.template_r)
        assert sa.gt_box == sb.gt_box and sa.tag == sb.tag


def test_different_streams_differ():
    a = generate_dataset(_cfg(), 4, "data")
    b = generate_dataset(_cfg(), 4, "eval")
    assert not np.array_equal(a[0].search_r, b[0].search_r)


def test_degraded_modality_energy_ratio():
    samples = generate_dataset(_cfg(), 32, "data")
    for s in samples:
        er = box_region_energy(s.search_r, s.gt_box)
        ex = box_region_energy(s.search_x, s.gt_box)
        if s.tag == "rgb_degraded":
            assert er < 0.10 * ex
        elif s.tag == "x_degraded":
            assert ex < 0.10 * er


def test_gt_boxes_inside_unit_square_with_area():
    for s in generate_dataset(_cfg(), 40, "data"):
        x1, y1, x2, y2 = s.gt_box.corners()
        assert 0.0 <= x1 < x2 <= 1.0
        assert 0.0 <= y1 < y2 <= 1.0
        assert s.gt_box.area() > 0


def test_tag_proportions_fixed():
    samples = generate_dataset(_cfg(), 16, "data")
    counts = {tag: 0 for tag in DEGRADATION_TAGS}
    for s in samples:
        counts[s.tag] += 1
    assert set(counts.values()) == {4}


def test_complementary_split():
    samples = generate_dataset(_cfg(), 16, "data")
    split = complementary_split(samples)
    assert len(split) == 8
    assert all(s.tag in ("rgb_degraded", "x_degraded") for s in split)


def test_frame_shapes_follow_config():
    cfg = _cfg(channels=2)
    s = generate_dataset(cfg, 1, "data")[0]
    assert s.search_r.shape == (2, 32, 32)
    assert s.template_x.shape == (2, 16, 16)


def test_dataset_size_contract():
    with pytest.raises(ConfigError):
        generate_dataset(_cfg(), 0, "data")


# The renderers as they were written over full meshgrids; the 1-D axis forms
# must reproduce them bit for bit.
def _meshgrid(size):
    coords = (np.arange(size) + 0.5) / size
    return np.meshgrid(coords, coords, indexing="ij")


def _reference_gaussian_blob(size, box, amplitude):
    yy, xx = _meshgrid(size)
    sx = max(box.w / 4.0, 1.0 / size)
    sy = max(box.h / 4.0, 1.0 / size)
    return amplitude * np.exp(-(((xx - box.cx) / sx) ** 2 + ((yy - box.cy) / sy) ** 2) / 2.0)


def _reference_inside(size, box):
    yy, xx = _meshgrid(size)
    x1, y1, x2, y2 = box.corners()
    return (xx >= x1) & (xx <= x2) & (yy >= y1) & (yy <= y2)


def _reference_center_map(side, box):
    pi = min(side - 1, max(0, int(box.cy * side)))
    pj = min(side - 1, max(0, int(box.cx * side)))
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    sigma = max(0.75, min(box.w, box.h) * side / 6.0)
    return np.exp(-((ii - pi) ** 2 + (jj - pj) ** 2) / (2.0 * sigma**2))


def _reference_energy(frame, box):
    inside = _reference_inside(frame.shape[-1], box)
    total = 0.0
    for channel in frame:
        background = np.median(channel[~inside]) if np.any(~inside) else 0.0
        total += float(np.sum((channel[inside] - background) ** 2))
    return total


@pytest.mark.parametrize("channels", [1, 3])
def test_renderers_match_meshgrid_reference_bit_for_bit(channels):
    rng = np.random.default_rng(channels)
    for size in range(8, 41):
        for _ in range(6):
            w, h = rng.uniform(0.01, 0.7, 2)
            box = Box(cx=float(rng.uniform(-0.1, 1.1)), cy=float(rng.uniform(-0.1, 1.1)),
                      w=float(w), h=float(h))
            amplitude = float(rng.uniform(-1.2, 1.2))
            assert _gaussian_blob(size, box, amplitude).tobytes() == \
                _reference_gaussian_blob(size, box, amplitude).tobytes()
            assert _rect_blob(size, box, amplitude).tobytes() == \
                (amplitude * _reference_inside(size, box).astype(np.float64)).tobytes()
            assert gaussian_center_map(size, box).tobytes() == \
                _reference_center_map(size, box).tobytes()
            frame = rng.normal(0.0, 1.0, (channels, size, size))
            assert box_region_energy(frame, box) == _reference_energy(frame, box)
