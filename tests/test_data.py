"""Synthetic dataset generator contracts."""

import numpy as np
import pytest

from pairtrack.errors import ConfigError
from pairtrack.harness import DEGRADATION_TAGS, RunConfig, data, generate_dataset
from pairtrack.harness.data import (
    CHUNK_SIZE,
    _draw_box,
    _gaussian_blob,
    _rect_blob,
    box_region_energy,
    complementary_split,
)
from pairtrack.harness.model import gaussian_center_map
from pairtrack.losses import Box
from pairtrack.numerics import RngStream


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
        boxes, amplitudes = [], []
        for _ in range(6):
            w, h = rng.uniform(0.01, 0.7, 2)
            box = Box(cx=float(rng.uniform(-0.1, 1.1)), cy=float(rng.uniform(-0.1, 1.1)),
                      w=float(w), h=float(h))
            amplitude = float(rng.uniform(-1.2, 1.2))
            gaussian = _reference_gaussian_blob(size, box, amplitude)
            rect = amplitude * _reference_inside(size, box).astype(np.float64)
            assert _gaussian_blob(size, box.as_array(), amplitude).tobytes() == gaussian.tobytes()
            assert _rect_blob(size, box.as_array(), amplitude).tobytes() == rect.tobytes()
            assert gaussian_center_map(size, box).tobytes() == \
                _reference_center_map(size, box).tobytes()
            frame = rng.normal(0.0, 1.0, (channels, size, size))
            assert box_region_energy(frame, box) == _reference_energy(frame, box)
            boxes.append(box)
            amplitudes.append(amplitude)
        # array-valued box fields render the whole stack at once, each plane as alone
        fields = np.stack([box.as_array() for box in boxes], axis=1)
        for blob in (_gaussian_blob, _rect_blob):
            stack = blob(size, fields, np.array(amplitudes))
            assert stack.shape == (len(boxes), size, size)
            for plane, box, amplitude in zip(stack, boxes, amplitudes):
                assert plane.tobytes() == blob(size, box.as_array(), amplitude).tobytes()


# generate_dataset as it was written before the chunked passes: one sample at a time, four
# scalar draws per box, each blob rendered and added on its own, four noise draws
def _reference_draw_box(rng, w_lo, w_hi):
    w = rng.uniform(w_lo, w_hi)
    h = rng.uniform(w_lo, w_hi)
    cx = rng.uniform(w / 2 + 0.02, 1.0 - w / 2 - 0.02)
    cy = rng.uniform(h / 2 + 0.02, 1.0 - h / 2 - 0.02)
    return Box(cx=cx, cy=cy, w=w, h=h)


def _reference_disjoint(a, b, margin):
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    return (ax2 + margin <= bx1 or bx2 + margin <= ax1
            or ay2 + margin <= by1 or by2 + margin <= ay1)


def _reference_dataset(cfg, count, stream):
    """The samples as (planes, gt_box, tag, distractors placed)."""
    rng = RngStream(cfg.seed).child(stream)
    size = cfg.search_size
    out = []
    for index in range(count):
        tag = DEGRADATION_TAGS[index % len(DEGRADATION_TAGS)]
        box = _reference_draw_box(rng, 0.25, 0.45)
        sign = 1.0 if rng.uniform(0, 1) < 0.5 else -1.0
        amp_r = sign * rng.uniform(0.8, 1.2)
        amp_x = sign * rng.uniform(0.8, 1.2)
        target_r, target_x = amp_r, amp_x
        if tag == "rgb_degraded":
            target_r *= data.DEGRADED_AMPLITUDE
        elif tag == "x_degraded":
            target_x *= data.DEGRADED_AMPLITUDE
        search_r = _reference_gaussian_blob(size, box, target_r)
        search_x = target_x * _reference_inside(size, box).astype(np.float64)
        distractors = []
        for _ in range(data.N_DISTRACTORS):
            for _ in range(data.MAX_PLACEMENT_TRIES):
                candidate = _reference_draw_box(rng, 0.14, 0.26)
                if _reference_disjoint(candidate, box, data.PLACEMENT_MARGIN):
                    distractors.append(candidate)
                    break
        for dbox in distractors:
            d_amp = rng.uniform(0.8, 1.2)
            search_r = search_r + _reference_gaussian_blob(size, dbox, -sign * d_amp)
            search_x = search_x + -sign * d_amp * _reference_inside(size, dbox).astype(np.float64)
        template_box = Box(cx=0.5, cy=0.5, w=0.5, h=0.5)
        template_r = _reference_gaussian_blob(cfg.template_size, template_box, amp_r)
        template_x = amp_x * _reference_inside(cfg.template_size, template_box).astype(np.float64)
        noise = data.HEAVY_NOISE if tag == "both_noisy" else data.BASE_NOISE
        planes = []
        for plane in (search_r, search_x, template_r, template_x):
            stacked = np.repeat(plane[None, :, :], cfg.channels, axis=0)
            planes.append(stacked + rng.normal(noise, stacked.shape))
        out.append((planes, box, tag, len(distractors)))
    return out


def _assert_matches_reference(samples, reference):
    assert len(samples) == len(reference)
    for sample, (planes, box, tag, _) in zip(samples, reference):
        ours = (sample.search_r, sample.search_x, sample.template_r, sample.template_x)
        for got, want in zip(ours, planes):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert sample.gt_box == box and sample.tag == tag
        assert all(type(v) is float for v in (sample.gt_box.cx, sample.gt_box.cy,
                                              sample.gt_box.w, sample.gt_box.h))


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("count", [1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1,
                                   2 * CHUNK_SIZE + 3])
def test_chunked_dataset_matches_per_sample_reference_byte_for_byte(count, channels):
    cfg = _cfg(seed=count, channels=channels)
    for stream in ("data", "eval"):
        _assert_matches_reference(generate_dataset(cfg, count, stream),
                                  _reference_dataset(cfg, count, stream))


def test_chunked_dataset_matches_reference_with_missing_distractors(monkeypatch):
    monkeypatch.setattr(data, "MAX_PLACEMENT_TRIES", 1)
    cfg = _cfg(seed=5)
    count = 2 * CHUNK_SIZE + 3
    reference = _reference_dataset(cfg, count, "data")
    placed = [entry[3] for entry in reference]
    assert min(placed) < data.N_DISTRACTORS and max(placed) == data.N_DISTRACTORS
    _assert_matches_reference(generate_dataset(cfg, count, "data"), reference)


def test_a_dataset_starts_with_every_shorter_one():
    cfg = _cfg()
    longer = generate_dataset(cfg, 2 * CHUNK_SIZE + 3, "data")
    for count in (1, CHUNK_SIZE - 1, CHUNK_SIZE + 1):
        for short, long in zip(generate_dataset(cfg, count, "data"), longer):
            for name in ("search_r", "search_x", "template_r", "template_x"):
                assert getattr(short, name).tobytes() == getattr(long, name).tobytes()
            assert short.gt_box == long.gt_box and short.tag == long.tag


def test_one_box_draw_equals_four_scalar_draws():
    ours, scalar = RngStream(7).child("boxes"), RngStream(7).child("boxes")
    for _ in range(2000):
        for w_lo, w_hi in ((0.25, 0.45), (0.14, 0.26)):
            box, want = _draw_box(ours, w_lo, w_hi), _reference_draw_box(scalar, w_lo, w_hi)
            assert (box.cx, box.cy, box.w, box.h) == (want.cx, want.cy, want.w, want.h)
    assert ours.uniform(0, 1) == scalar.uniform(0, 1)
