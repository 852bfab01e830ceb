"""The three pairtrack workloads, their output checks and their metrics.

Every workload is a closed loop with one client: the next optimizer step or
frame starts when the previous one has returned. Inputs come only from the
workload seed, through ``generate_dataset``.

* ``train_default``: ``train()`` at the default config, all insertions on.
* ``train_backbone_head``: ``train()`` on the ablation ladder's ``baseline``
  variant; the MoE adapters and the fusion stage do no work.
* ``track_online``: no-grad ``Tracker.forward`` frame by frame over a stream
  of never-repeated samples; each chunk of the stream follows a fresh
  checkpoint save and load.

End-to-end numbers come from untraced runs. A traced run alternates traced
and untraced turns, so it also reports the tracing overhead.
"""

from __future__ import annotations

import importlib
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from spans import StepClock, Tracer

STEPS_PER_TRAIN = 20   # fixed step count of one train() call
CHECK_SAMPLES = 128    # held-out samples behind final_loss and mean_iou
STREAM_CHUNK = 64      # stream samples generated at a time (a multiple of the 4 tags)
SETUP_PROBES = 3       # train() set-ups timed alone after each whole untraced call
WARMUP_UNITS = 3       # first steps or frames of a run, left out of latency figures
WEIGHT_NOISE = 0.01    # scale of the perturbation that stands in for training on track_online


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "track"
    toggles: tuple[bool, bool, bool, bool] = (True, True, True, True)


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w for w in (
        Workload("train_default", "train"),
        Workload("train_backbone_head", "train", (False, False, False, False)),
        Workload("track_online", "track"),
    )
}


class CheckFailed(Exception):
    """An output check of the benchmark failed."""


@dataclass
class Outcome:
    """What one run measured; metrics and info hold (value, unit) pairs.

    ``metrics`` go into the result line; ``info`` figures are only printed.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict[str, tuple[float, str]] = field(default_factory=dict)


class Api:
    """pairtrack entry points, looked up on their modules at call time.

    Calls go through module attributes so that the functions a tracer
    rebinds are the ones the benchmark calls.
    """

    def __init__(self):
        self.config = importlib.import_module("pairtrack.harness.config")
        self.data = importlib.import_module("pairtrack.harness.data")
        self.model = importlib.import_module("pairtrack.harness.model")
        self.train = importlib.import_module("pairtrack.harness.train")
        self.checkpoint = importlib.import_module("pairtrack.numerics.checkpoint")
        self.tensor = importlib.import_module("pairtrack.numerics.tensor")
        self.losses = importlib.import_module("pairtrack.losses")
        self.rng = importlib.import_module("pairtrack.numerics.rng")
        self.errors = importlib.import_module("pairtrack.errors")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _latency_metrics(out: Outcome, durations: list[float], samples_per_unit: int) -> None:
    """Put p90 latency into the result; median latency and throughput are printed only.

    On a shared 2-vCPU Xeon VM (2.1 GHz base clock) the CPU runs at one of two
    speeds, about 13 and 19 ms a frame on track_online, and the share of time
    at each shifts over minutes. The median, and the mean behind
    samples_per_s, follow that share: across ten 30 s runs their quartiles
    lay up to 28% of the median apart. p90 sits on the slower speed; its
    quartiles lay at most 15% apart.
    """
    _require(bool(durations), "no untraced step or frame completed")
    timed = durations[WARMUP_UNITS:] if len(durations) > WARMUP_UNITS else durations
    out.metrics["latency_ms.p90"] = (1e3 * _percentile(timed, 90), "ms")
    out.info["latency_ms.p50"] = (1e3 * _percentile(timed, 50), "ms")
    out.info["samples_per_s"] = (samples_per_unit * len(timed) / sum(timed), "1/s")
    out.info["timed_units"] = (float(len(timed)), "count")


def _check_box(box, where: str) -> None:
    values = (box.cx, box.cy, box.w, box.h)
    _require(all(math.isfinite(v) for v in values), f"{where}: non-finite box {values}")
    _require(all(0.0 <= v <= 1.0 for v in values), f"{where}: box {values} outside [0, 1]")


def _check_expert_evals(output, cfg, where: str) -> None:
    tokens = cfg.n_template_tokens + cfg.n_search_tokens
    expected = [tokens * cfg.top_k] * (2 * cfg.depth if cfg.toggle_sdmoe else 0)
    _require(output.expert_evals == expected,
             f"{where}: expert_evals {output.expert_evals}, expected {expected}")


def _check_evals_per_token(tracer: Tracer, cfg) -> None:
    _require(tracer.expert_evals == cfg.top_k * tracer.routed_tokens,
             f"sparse MoE ran {tracer.expert_evals} expert evaluations for "
             f"{tracer.routed_tokens} tokens at K={cfg.top_k}")


def _check_model(api: Api, model, cfg, tmp: str) -> tuple[float, float]:
    """Checks shared by all workloads; returns (check-set loss, mean IoU)."""
    check_set = api.data.generate_dataset(cfg, CHECK_SAMPLES, "check")
    pinned = check_set[0]
    taped = model.forward(pinned)
    with api.tensor.no_grad():
        plain = model.forward(pinned)
    _require(taped.box == plain.box,
             f"pinned sample: taped box {taped.box} != no-grad box {plain.box}")
    _check_expert_evals(plain, cfg, "pinned sample")

    losses, ious = [], []
    with api.tensor.no_grad():
        for i, sample in enumerate(check_set):
            result = api.train.forward_track(sample, model)
            _check_box(result.box_prediction, f"check sample {i}")
            total = result.bundle.values()["total"]
            _require(math.isfinite(total), f"check sample {i}: non-finite loss {total}")
            losses.append(total)
            ious.append(api.losses.box_iou(result.box_prediction, sample.gt_box))

    first, second = os.path.join(tmp, "first"), os.path.join(tmp, "second")
    api.checkpoint.save_checkpoint(model.store, first)
    other = api.model.Tracker(replace(cfg, seed=cfg.seed + 1))
    api.checkpoint.load_checkpoint(other.store, first)
    api.checkpoint.save_checkpoint(other.store, second)
    for name in (api.checkpoint.MANIFEST_NAME, api.checkpoint.BLOB_NAME):
        with open(os.path.join(first, name), "rb") as a, open(os.path.join(second, name), "rb") as b:
            _require(a.read() == b.read(), f"checkpoint round-trip changed {name}")
    _require(other.store.checksum() == model.store.checksum(),
             "checkpoint round-trip changed parameter values")
    return statistics.fmean(losses), statistics.fmean(ious)


def _finish(api: Api, out: Outcome, model, cfg, tmp: str, tracer: Tracer | None,
            setups: list[float], plain: list[float], traced: list[float],
            samples_per_unit: int) -> Outcome:
    """Run the checks shared by all workloads and fill in the run's metrics."""
    if tracer is not None:
        _check_evals_per_token(tracer, cfg)
    loss, iou = _check_model(api, model, cfg, tmp)
    out.metrics = {"setup_s": (statistics.median(setups), "s")}
    _latency_metrics(out, plain, samples_per_unit)
    out.info["setups"] = (float(len(setups)), "count")
    out.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MiB")
    out.metrics["final_loss"] = (loss, "1")
    out.metrics["mean_iou"] = (iou, "ratio")
    if tracer is not None:
        out.metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0), "%")
    return out


class _SetupDone(Exception):
    """Raised where train()'s first optimizer step starts, to end a set-up probe."""


def _probe_setup(api: Api, cfg) -> float:
    """Time train()'s set-up alone, cutting the call off where its first step starts.

    A whole call gives one set-up sample per STEPS_PER_TRAIN steps, too few
    for a steady median on train_default.
    """
    def stop():
        raise _SetupDone

    start = time.perf_counter()
    try:
        with StepClock(stop) as clock:
            api.train.train(cfg, eval_each_log=False)
    except _SetupDone:
        return clock.starts[0] - start
    raise CheckFailed("train() returned without starting an optimizer step")


def run_train(api: Api, workload: Workload, seed: int, seconds: float,
              tracer: Tracer | None, tmp: str) -> Outcome:
    cfg = api.config.RunConfig(seed=seed, steps=STEPS_PER_TRAIN).with_toggles(*workload.toggles)
    out = Outcome()
    backbone = api.model.Tracker(cfg).backbone_checksum()
    plain, traced, setups, final_losses = [], [], [], []
    final = None  # only the latest result is kept, so memory does not grow with the run
    begin = time.perf_counter()
    turn = 0
    while (time.perf_counter() - begin < seconds or final is None
           or (tracer is not None and not traced)):
        use_tracer = tracer is not None and turn % 2 == 1
        turn += 1
        clock = (StepClock(lambda: tracer.begin_unit(cfg.batch_size), tracer.end_unit)
                 if use_tracer else StepClock())
        start = time.perf_counter()
        try:
            with (tracer if use_tracer else nullcontext()):
                if use_tracer:
                    tracer.begin_setup()
                with clock:
                    result = api.train.train(cfg, eval_each_log=False)
        except api.errors.PairtrackError as exc:
            out.attempted += max(len(clock.starts), 1)
            out.failed += 1
            out.errors.append(f"train(): {type(exc).__name__}: {exc}")
            if out.failed > 3:
                break
            continue
        out.attempted += len(clock.starts)
        (traced if use_tracer else plain).extend(clock.durations())
        setups.append(clock.starts[0] - start)
        final_losses.append(result.final_loss)
        final = result
        if not use_tracer:
            setups.extend(_probe_setup(api, cfg) for _ in range(SETUP_PROBES))

    _require(final is not None, "no train() call completed")
    _require(len(set(final_losses)) == 1,
             f"train() is not deterministic: final losses {sorted(set(final_losses))}")
    _require(math.isfinite(final.initial_loss) and math.isfinite(final.final_loss),
             f"non-finite loss: initial {final.initial_loss}, final {final.final_loss}")
    _require(final.final_loss < final.initial_loss,
             f"training did not lower the loss: {final.initial_loss} -> {final.final_loss}")
    _require(final.model.backbone_checksum() == backbone, "training changed the frozen backbone")
    return _finish(api, out, final.model, cfg, tmp, tracer, setups, plain, traced,
                   cfg.batch_size)


def _track_setup(api: Api, cfg, directory: str, stream_name: str):
    """Build, save and reload a tracker as ``pairtrack eval`` does; fetch one stream chunk."""
    saved = api.model.Tracker(cfg)
    # stand-in for trained weights: no parameter keeps its init value, so a
    # parameter the load skips cannot match by chance (zero-init ones would)
    noise = api.rng.RngStream(cfg.seed).child("weights")
    for p in saved.store:
        saved.store.set_values(p.name, p.data + noise.normal(WEIGHT_NOISE, p.shape))
    stream = api.data.generate_dataset(cfg, STREAM_CHUNK, stream_name)
    api.checkpoint.save_checkpoint(saved.store, directory)
    # a different init seed, so only a working load makes the stores agree
    model = api.model.Tracker(replace(cfg, seed=cfg.seed + 1))
    api.checkpoint.load_checkpoint(model.store, directory)
    return saved, model, stream


def run_track(api: Api, workload: Workload, seed: int, seconds: float,
              tracer: Tracer | None, tmp: str) -> Outcome:
    """Frames in chunks; a whole set-up precedes every chunk.

    Set-ups are spread over the run, like the frames, so setup_s (their
    median) sees the same host conditions as the latency figures rather than
    only those of the run's first second.
    """
    cfg = api.config.RunConfig(seed=seed).with_toggles(*workload.toggles)
    out = Outcome()
    plain, traced, setups = [], [], []
    no_grad = api.tensor.no_grad
    begin = time.perf_counter()
    chunk = 0
    while True:
        use_tracer = tracer is not None and chunk % 2 == 1
        directory = os.path.join(tmp, f"setup{chunk}")
        with (tracer if use_tracer else nullcontext()):
            if use_tracer:
                tracer.begin_setup()
            start = time.perf_counter()
            saved, model, stream = _track_setup(api, cfg, directory, f"stream{chunk}")
            setups.append(time.perf_counter() - start)
            if use_tracer:
                tracer.idle()
            shutil.rmtree(directory)
            _require(model.store.checksum() == saved.store.checksum(),
                     "checkpoint load did not reproduce the saved parameters")
            backbone = model.backbone_checksum()
            for i, sample in enumerate(stream):
                where = f"frame {i} of chunk {chunk}"
                out.attempted += 1
                if use_tracer:
                    tracer.begin_unit(1)
                start = time.perf_counter()
                try:
                    with no_grad():
                        output = model.forward(sample)
                except api.errors.PairtrackError as exc:
                    out.failed += 1
                    out.errors.append(f"{where}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    if use_tracer:
                        tracer.end_unit()
                (traced if use_tracer else plain).append(time.perf_counter() - start)
                box = output.box
                if not all(math.isfinite(v) for v in (box.cx, box.cy, box.w, box.h)):
                    out.failed += 1
                    out.errors.append(f"{where}: non-finite box {box}")
                    continue
                _check_box(box, where)
                _check_expert_evals(output, cfg, where)
        _require(model.backbone_checksum() == backbone, "tracking changed the backbone")
        chunk += 1
        if out.failed > 3:
            break
        if time.perf_counter() - begin >= seconds and (tracer is None or traced):
            break

    return _finish(api, out, model, cfg, tmp, tracer, setups, plain, traced, 1)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp_root: str) -> Outcome:
    """Run one workload; raises CheckFailed when an output check fails."""
    workload = WORKLOADS[name]
    api = Api()
    tracer = None
    if trace:
        tracer = Tracer("harness.forward_track" if workload.kind == "train" else "model.forward")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root)
    try:
        runner = run_train if workload.kind == "train" else run_track
        outcome = runner(api, workload, seed, seconds, tracer, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    if tracer is not None:
        overhead = outcome.metrics["trace.overhead_pct"]
        outcome.metrics = tracer.metrics()
        outcome.metrics["trace.overhead_pct"] = overhead
    return outcome
