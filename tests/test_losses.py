"""Loss stack: focal map loss, GIoU / L1 box terms, weighted total."""

import math

import numpy as np
import pytest

from pairtrack.errors import ContractError, NumericError
from pairtrack.harness import RunConfig
from pairtrack.harness.verify import input_grad_error
from pairtrack.losses import (
    PROB_EPS,
    Box,
    box_iou,
    giou_loss,
    l1_box_loss,
    total_loss,
    weighted_focal,
)
from pairtrack.numerics import (
    RngStream,
    Tensor,
    backward,
    constant,
    mul,
    tsum,
)

# RunConfig's loss weights, as total_loss takes them
DEFAULT_WEIGHTS = {name: getattr(RunConfig(), name)
                   for name in ("lambda_iou", "lambda_l1", "alpha")}


def _one_hot_map(shape, pos):
    gt = np.zeros(shape)
    gt[pos] = 1.0
    return gt


def test_box_validation_and_corners():
    with pytest.raises(ContractError):
        Box(0.5, 0.5, -0.1, 0.2)
    b = Box(0.5, 0.5, 0.2, 0.4)
    np.testing.assert_allclose(b.corners(), (0.4, 0.3, 0.6, 0.7), atol=1e-15)


def test_focal_near_perfect_prediction():
    gt = _one_hot_map((4, 4), (1, 2))
    pred = np.full((4, 4), 1e-6)
    pred[1, 2] = 1.0 - 1e-6
    loss = weighted_focal(constant(pred), gt)
    assert 0.0 <= loss.item() < 1e-4


def test_focal_uniform_half_hand_expansion():
    gt = _one_hot_map((4, 4), (0, 0))
    pred = np.full((4, 4), 0.5)
    loss = weighted_focal(constant(pred), gt)
    # hand expansion over all 16 cells
    expected = 0.0
    for i in range(4):
        for j in range(4):
            if gt[i, j] == 1.0:
                expected -= math.log(0.5) * (1 - 0.5) ** 2
            else:
                expected -= math.log(1 - 0.5) * 0.5**2 * (1 - gt[i, j]) ** 4
    assert abs(loss.item() - expected) <= 1e-12
    assert abs(loss.item() - 4.0 * math.log(2.0)) <= 1e-12


def test_focal_nonnegative_on_random_pairs():
    rng = RngStream(1)
    for _ in range(100):
        pred = rng.uniform(0.01, 0.99, (5, 5))
        gt = rng.uniform(0.0, 0.99, (5, 5))
        gt[tuple(rng.integers(0, 5, (2,)))] = 1.0
        assert weighted_focal(constant(pred), gt).item() >= 0.0


def test_focal_requires_positive_location():
    with pytest.raises(ContractError):
        weighted_focal(constant(np.full((3, 3), 0.5)), np.full((3, 3), 0.5))


def test_focal_gradient_matches_finite_differences():
    rng = RngStream(2)
    gt = rng.uniform(0.0, 0.9, (4, 4))
    gt[2, 1] = 1.0
    pred0 = rng.uniform(0.05, 0.95, (4, 4))
    assert input_grad_error(lambda pred: weighted_focal(pred, gt), pred0, 1.0, 1e-6) <= 1e-4


def test_giou_identical_boxes_zero_loss():
    b = Box(0.5, 0.5, 0.3, 0.2)
    assert abs(giou_loss(b, b).item()) <= 1e-12


def test_giou_hand_geometry_case():
    a = Box(0.5, 0.5, 1.0, 1.0)  # corners (0,0)-(1,1)
    b = Box(1.5, 1.5, 1.0, 1.0)  # corners (1,1)-(2,2)
    assert abs(giou_loss(a, b).item() - 1.5) <= 1e-12


def test_giou_far_separation_approaches_two():
    a = Box(0.0, 0.0, 0.001, 0.001)
    b = Box(100.0, 0.0, 0.001, 0.001)
    assert giou_loss(a, b).item() > 1.99


def test_giou_zero_area_edge_cases():
    same_point = giou_loss(Box(0.3, 0.3, 0.0, 0.0), Box(0.3, 0.3, 0.0, 0.0))
    assert abs(same_point.item() - 1.0) <= 1e-12  # iou 0, empty enclosure
    apart = giou_loss(Box(0.2, 0.2, 0.0, 0.0), Box(0.8, 0.8, 0.0, 0.0))
    assert abs(apart.item() - 2.0) <= 1e-12  # iou 0, full enclosure penalty


def test_giou_range_and_symmetry_on_random_boxes():
    rng = RngStream(3)
    for _ in range(1000):
        vals = rng.uniform(0.05, 0.95, (8,))
        a = Box(vals[0], vals[1], vals[2] * 0.5, vals[3] * 0.5)
        b = Box(vals[4], vals[5], vals[6] * 0.5, vals[7] * 0.5)
        lab = giou_loss(a, b).item()
        lba = giou_loss(b, a).item()
        assert 0.0 <= lab <= 2.0
        assert abs(lab - lba) <= 1e-12


def test_giou_monotone_as_disjoint_box_approaches():
    gt = Box(0.0, 0.0, 0.2, 0.2)
    losses = []
    for step in range(20):
        cx = 2.0 - 0.08 * step  # stays disjoint: final cx = 0.48 > 0.2
        losses.append(giou_loss(Box(cx, 0.0, 0.2, 0.2), gt).item())
    diffs = np.diff(losses)
    assert np.all(diffs < 0)


def test_giou_gradient_matches_finite_differences():
    rng = RngStream(4)
    gt = Box(0.5, 0.5, 0.3, 0.4)
    pred0 = rng.uniform(0.2, 0.8, (4,))
    assert input_grad_error(lambda pred: giou_loss(pred, gt), pred0, 1.0, 1e-6) <= 1e-4


def test_giou_tie_on_a_corner_sends_the_gradient_to_the_prediction():
    # pred (0.25, 0.25)-(0.5, 0.5) lies inside gt (0.25, 0.25)-(0.75, 0.75) and shares its
    # low corner exactly. With the tie's gradient on the prediction the overlap is
    # pred's own box, so U = area(gt) and loss = 2 - w h / U - U / C with
    # C = (0.75 - cx + w/2)(0.75 - cy + h/2): d/dcx = -U * 0.5 / C^2 = -2 and
    # d/dw = -h / U + U * 0.25 / C^2 = 0. Sent to the ground truth, d/dcx would be -0.25.
    pred = Tensor([0.375, 0.375, 0.25, 0.25], requires_grad=True)
    loss = giou_loss(pred, Box(0.5, 0.5, 0.5, 0.5))
    assert loss.item() == 0.75
    backward(loss)
    np.testing.assert_allclose(pred.grad, [-2.0, -2.0, 0.0, 0.0], rtol=0, atol=1e-12)


def test_focal_prediction_on_a_clip_bound_gets_no_gradient():
    gt = _one_hot_map((3, 3), (1, 1))
    pred0 = np.full((3, 3), 0.3)
    pred0[0, 0], pred0[1, 1] = PROB_EPS, 1.0 - PROB_EPS
    pred = Tensor(pred0, requires_grad=True)
    backward(weighted_focal(pred, gt))
    assert pred.grad[0, 0] == 0.0 and pred.grad[1, 1] == 0.0
    interior = np.ones((3, 3), dtype=bool)
    interior[0, 0] = interior[1, 1] = False
    assert np.all(pred.grad[interior] != 0.0)


def test_a_nan_prediction_reaches_exactly_its_row_of_each_loss():
    rng = RngStream(9)
    boxes = rng.uniform(0.3, 0.7, (3, 4))
    gt_boxes = rng.uniform(0.3, 0.7, (3, 4))
    boxes[1, 0] = np.nan
    nan_truth = gt_boxes.copy()
    nan_truth[2, 1] = np.nan  # a NaN ground truth reaches its row of GIoU too, not just L1
    np.testing.assert_array_equal(np.isnan(giou_loss(constant(gt_boxes), nan_truth).data),
                                  [False, False, True])
    maps = rng.uniform(0.05, 0.95, (3, 4, 4))
    gt_maps = rng.uniform(0.0, 0.9, (3, 4, 4))
    gt_maps[:, 2, 2] = 1.0
    maps[1, 3, 0] = np.nan
    for loss, pred, gt in ((giou_loss, boxes, gt_boxes), (l1_box_loss, boxes, gt_boxes),
                           (weighted_focal, maps, gt_maps)):
        np.testing.assert_array_equal(np.isnan(loss(constant(pred), gt).data),
                                      [False, True, False], err_msg=loss.__name__)


def test_losses_on_a_stack_equal_single_calls():
    rng = RngStream(7)
    # the last row is a zero-area box on a zero-area truth: empty union and enclosure
    preds = np.vstack([rng.uniform(0.2, 0.8, (2, 4)), [[0.4, 0.6, 0.0, 0.0]]])
    boxes = np.vstack([rng.uniform(0.2, 0.8, (2, 4)), [[0.4, 0.6, 0.0, 0.0]]])
    maps = rng.uniform(0.05, 0.95, (3, 4, 4))
    gt_maps = rng.uniform(0.0, 0.9, (3, 4, 4))
    gt_maps[0, 1, 2] = gt_maps[1, 0, 0] = gt_maps[1, 3, 3] = gt_maps[2, 2, 1] = 1.0
    for loss, pred, gt in ((giou_loss, preds, boxes), (l1_box_loss, preds, boxes),
                           (weighted_focal, maps, gt_maps)):
        together = loss(constant(pred), gt)
        assert together.shape == (3,)
        for i in range(3):
            assert together.data[i] == loss(constant(pred[i]), gt[i]).item(), (loss, i)
    assert giou_loss(constant(preds), boxes).data[2] == 1.0


def test_giou_gradient_on_a_stack_with_a_zero_area_row():
    rng = RngStream(8)
    preds = np.vstack([rng.uniform(0.2, 0.8, (2, 4)), [[0.4, 0.6, 0.0, 0.0]]])
    gt = np.vstack([rng.uniform(0.2, 0.8, (2, 4)), [[0.4, 0.6, 0.0, 0.0]]])
    u = rng.uniform(0.5, 1.5, (3,))
    assert input_grad_error(lambda pred: giou_loss(pred, gt), preds, u, 1e-6) <= 1e-4
    pred = Tensor(preds, requires_grad=True)
    backward(tsum(mul(giou_loss(pred, gt), constant(u))))
    np.testing.assert_array_equal(pred.grad[2], np.zeros(4))


def test_l1_box_loss_cases():
    b = Box(0.5, 0.5, 0.2, 0.2)
    assert l1_box_loss(b, b).item() == 0.0
    shifted = Box(0.6, 0.5, 0.2, 0.2)
    assert abs(l1_box_loss(shifted, b).item() - 0.025) <= 1e-12
    rng = RngStream(5)
    pa = rng.uniform(0.1, 0.9, (4,))
    pb = rng.uniform(0.1, 0.9, (4,))
    expected = float(np.mean(np.abs(pa - pb)))
    assert abs(l1_box_loss(constant(pa), constant(pb)).item() - expected) <= 1e-15


def test_box_iou_helper():
    a = Box(0.5, 0.5, 0.4, 0.4)
    assert abs(box_iou(a, a) - 1.0) <= 1e-12
    assert box_iou(a, Box(5.0, 5.0, 0.1, 0.1)) == 0.0
    assert box_iou(Box(0, 0, 0, 0), Box(0, 0, 0, 0)) == 0.0


def test_total_loss_default_weights():
    one = constant(np.asarray(1.0))
    bundle = total_loss(one, one, one, one, **DEFAULT_WEIGHTS)
    assert abs(bundle.total.item() - 8.001) <= 1e-12


def test_total_loss_zero_components():
    zero = constant(np.asarray(0.0))
    assert total_loss(zero, zero, zero, zero, **DEFAULT_WEIGHTS).total.item() == 0.0


def test_total_loss_linear_combination_oracle():
    rng = RngStream(6)
    for _ in range(20):
        c = rng.uniform(0, 3, (4,))
        w = {"lambda_iou": 2.0, "lambda_l1": 5.0, "alpha": 0.001}
        bundle = total_loss(*(constant(np.asarray(v)) for v in c), **w)
        expected = c[0] + 2.0 * c[1] + 5.0 * c[2] + 0.001 * c[3]
        assert abs(bundle.total.item() - expected) <= 1e-15
        parts = bundle.values()
        recon = parts["cls"] + 2.0 * parts["iou"] + 5.0 * parts["l1"] + 0.001 * parts["eb"]
        assert abs(parts["total"] - recon) <= 1e-12


def test_total_loss_linearity_slope_per_component():
    w = DEFAULT_WEIGHTS
    base = [0.7, 0.3, 0.9, 1.1]
    coeffs = [1.0, w["lambda_iou"], w["lambda_l1"], w["alpha"]]
    delta = 0.125
    for k in range(4):
        hi = list(base)
        lo = list(base)
        hi[k] += delta
        lo[k] -= delta
        th = total_loss(*(constant(np.asarray(v)) for v in hi), **w).total.item()
        tl = total_loss(*(constant(np.asarray(v)) for v in lo), **w).total.item()
        slope = (th - tl) / (2 * delta)
        assert abs(slope - coeffs[k]) <= 1e-12


def test_total_loss_rejects_nonfinite_and_names_component():
    good = constant(np.asarray(1.0))
    bad = constant(np.asarray(np.nan))
    with pytest.raises(NumericError) as exc:
        total_loss(good, bad, good, good, **DEFAULT_WEIGHTS)
    assert "iou" in str(exc.value)
