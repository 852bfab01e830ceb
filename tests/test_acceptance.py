"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE PASS/FAIL`` line (visible with
``pytest -s``) and asserts the criterion at its stated tolerance. The
training-based criteria are the slow ones; the full module targets well
under half an hour on one CPU core.
"""

import os
import time
from pathlib import Path

import numpy as np

from pairtrack.fusion import HyperConvParams, build_hypergraph, hyperconv, propagation_matrix
from pairtrack.harness import (
    RunConfig,
    Tracker,
    evaluate,
    forward_track,
    generate_dataset,
    train,
)
from pairtrack.harness.cli import main
from pairtrack.harness.train import ablate
from pairtrack.harness.verify import (
    END_TO_END_TOL,
    UNIT_TOL,
    end_to_end_gradient_check,
    unit_gradient_suite,
)
from pairtrack.moe import (
    MoEAdapter,
    RouterDecision,
    balance_loss,
    dense_shared_param_count,
    sparse_moe,
)
from pairtrack.numerics import ParamStore, RngStream, constant

DETERMINISM_CONFIG = Path(__file__).with_name("determinism.cfg")  # tools/same_output.py runs it too


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def test_gradient_suite():
    started = time.time()
    unit = unit_gradient_suite()
    model = end_to_end_gradient_check()
    elapsed = time.time() - started
    worst_unit = max(r.error for r in unit)
    worst_model = max(r.error for r in model)
    ok = (all(r.passed for r in unit) and all(r.passed for r in model)
          and elapsed < 120.0)
    _report(
        "gradient suite",
        ok,
        f"{len(unit)} ops worst {worst_unit:.2e} (tol {UNIT_TOL:g}), "
        f"{len(model)} params worst {worst_model:.2e} (tol {END_TO_END_TOL:g}), "
        f"{elapsed:.1f}s",
    )


def test_balance_loss_anchors():
    balanced = RouterDecision(
        scores=constant(np.full((4, 4), 0.25)),
        selected=np.array([[0], [1], [2], [3]]),
    )
    balanced_loss, _ = balance_loss(balanced)
    one_hot = np.zeros((4, 4))
    one_hot[:, 0] = 1.0
    collapsed = RouterDecision(
        scores=constant(one_hot),
        selected=np.zeros((4, 1), dtype=np.int64),
    )
    collapsed_loss, _ = balance_loss(collapsed)

    tokens = constant(RngStream(5).uniform(-1, 1, (64, 4)))
    store = ParamStore()
    w = store.add("w", RngStream(6).uniform(-1, 1, (4, 4)))
    from pairtrack.moe import route

    decision = route(tokens, w, 1)
    base, _ = balance_loss(decision)
    perm = np.array([2, 0, 3, 1])
    permuted = RouterDecision(
        scores=constant(decision.scores.data[:, perm]),
        selected=np.argsort(perm)[decision.selected],
    )
    shuffled, _ = balance_loss(permuted)
    err_balanced = abs(balanced_loss.item() - 1.0)
    err_collapsed = abs(collapsed_loss.item() - 4.0)
    err_perm = abs(base.item() - shuffled.item())
    ok = err_balanced <= 1e-9 and err_collapsed <= 1e-9 and err_perm <= 1e-12
    _report(
        "balance-loss anchors",
        ok,
        f"balanced err {err_balanced:.1e}, collapse err {err_collapsed:.1e}, "
        f"permutation err {err_perm:.1e}",
    )


def test_hypergraph_algebra():
    worst_row = 0.0
    for seed in range(100):
        rng = RngStream(3000 + seed)
        v = int(rng.integers(1, 14, ()))
        pts = rng.uniform(-1, 1, (v, 3))
        eps = float(rng.uniform(0.05, 3.0, ()))
        p = propagation_matrix(build_hypergraph(pts, eps))
        worst_row = max(worst_row, float(np.max(np.abs(p.sum(axis=1) - 1.0))))

    rng = RngStream(77)
    x = constant(rng.uniform(-1, 1, (6, 4)))
    store = ParamStore()
    params = HyperConvParams(
        theta1=store.add("t1", rng.uniform(-1, 1, (4, 4))),
        theta2=store.zeros_init("t2", (4, 4)),
    )
    residual_dev = float(np.max(np.abs(
        hyperconv(x, build_hypergraph(x, 1.0), params).data - x.data
    )))

    hand = build_hypergraph(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]]), 2.0)
    hand_ok = (
        np.array_equal(hand.incidence, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        and np.array_equal(hand.d_v, [2, 2, 1]) and np.array_equal(hand.d_e, [2, 2, 1])
    )
    ok = worst_row <= 1e-10 and residual_dev == 0.0 and hand_ok
    _report(
        "hypergraph algebra",
        ok,
        f"row-stochastic worst {worst_row:.1e}, residual dev {residual_dev}, "
        f"3-point example {'ok' if hand_ok else 'wrong'}",
    )


def test_sparsity_contract():
    t_count = 33
    counts = {}
    for n in (2, 4, 8):
        store = ParamStore()
        adapter = MoEAdapter(store, "a", RngStream(n), dim=8, hidden=2, n_experts=n, top_k=1,
                             n_shared=2)
        tokens = constant(RngStream(100 + n).uniform(-1, 1, (t_count, 8)))
        result = sparse_moe(tokens, adapter.experts, adapter.w_router, 1)
        counts[n] = result.n_expert_evals
    ok = all(c == t_count for c in counts.values())
    _report("sparsity contract", ok, f"evals per forward {counts} for T={t_count}")


def test_efficiency_structure():
    ratios = {}
    for d in (48, 144, 768):
        store = ParamStore()
        MoEAdapter(store, "a", RngStream(d), dim=d, hidden=d // 12, n_experts=4, top_k=1,
                   n_shared=4)
        walker = store.count(lambda p: p.name.startswith("a.shared"))
        assert walker == dense_shared_param_count(d, d // 12, 4)
        ratios[d] = walker / (2 * d * d)
    ok = all(r < 0.2 for r in ratios.values())
    detail = ", ".join(f"D={d}: {r:.4f}" for d, r in ratios.items())
    _report("dense-shared efficiency", ok, detail)


def test_zero_init_safety():
    cfg_on = RunConfig(seed=4, n_train=4, n_eval=4)
    cfg_off = cfg_on.with_toggles(False, False, False, False)
    model_on = Tracker(cfg_on)
    model_on.zero_new_modules()
    model_off = Tracker(cfg_off)
    worst = 0.0
    for sample in generate_dataset(cfg_on, 4, "acceptance-zero"):
        on = forward_track(sample, model_on)
        off = forward_track(sample, model_off)
        worst = max(
            worst,
            float(np.max(np.abs(on.output.box_tensor.data - off.output.box_tensor.data))),
            float(np.max(np.abs(on.output.center_map.data - off.output.center_map.data))),
        )
    ok = worst <= 1e-10
    _report("zero-init safety", ok, f"max prediction deviation {worst:.2e}")


def test_determinism_byte_identical_metrics(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["train", "--config", str(DETERMINISM_CONFIG), "--seed", "3", "--out", out_a]) == 0
    assert main(["train", "--config", str(DETERMINISM_CONFIG), "--seed", "3", "--out", out_b]) == 0
    bytes_a = open(os.path.join(out_a, "metrics.tsv"), "rb").read()
    bytes_b = open(os.path.join(out_b, "metrics.tsv"), "rb").read()
    ok = bytes_a == bytes_b and len(bytes_a) > 0
    _report("determinism", ok, f"metrics files identical ({len(bytes_a)} bytes)")


def test_overfit_convergence():
    started = time.time()
    cfg = RunConfig(seed=0, n_train=8, steps=500, batch_size=4, n_eval=8,
                    log_interval=250)
    result = train(cfg, eval_each_log=False)
    elapsed = time.time() - started
    ratio = result.final_loss / result.initial_loss
    ok = ratio < 0.10 and elapsed < 300.0
    _report(
        "overfit convergence",
        ok,
        f"loss {result.initial_loss:.3f} -> {result.final_loss:.3f} "
        f"(ratio {ratio:.3f}), {elapsed:.0f}s",
    )


def test_anti_collapse_entropy():
    base = dict(seed=1, n_train=8, steps=250, batch_size=4, n_eval=16,
                log_interval=250)
    with_balance = train(RunConfig(alpha=0.001, **base), eval_each_log=False)
    without = train(RunConfig(alpha=0.0, **base), eval_each_log=False)
    eval_set = generate_dataset(RunConfig(**base), 16, "eval")
    h_with = evaluate(with_balance.model, eval_set).entropy
    h_without = evaluate(without.model, eval_set).entropy
    floor = np.log(4) / 2
    ok = h_with >= floor
    _report(
        "anti-collapse",
        ok,
        f"entropy with balance {h_with:.3f} (floor {floor:.3f}), "
        f"without {h_without:.3f} (unconstrained)",
    )


def test_directional_ablation():
    started = time.time()
    per_variant: dict[str, list[float]] = {}
    for seed in (0, 1, 2):
        cfg = RunConfig(seed=seed, n_train=32, steps=300, batch_size=4,
                        n_eval=64, log_interval=1000)
        for row in ablate(cfg):
            per_variant.setdefault(row.name, []).append(row.record.mean_iou)
    elapsed = time.time() - started
    agg = {name: float(np.mean(v)) for name, v in per_variant.items()}
    ordered = agg["baseline"] <= agg["+moe"] <= agg["full"]
    margin = agg["full"] - agg["baseline"]
    ok = ordered and margin >= 0.02 and elapsed < 1800.0
    detail = (
        f"baseline {agg['baseline']:.3f} <= +moe {agg['+moe']:.3f} "
        f"<= full {agg['full']:.3f}, margin {margin:.3f}, {elapsed:.0f}s"
    )
    _report("directional ablation", ok, detail)
