"""Step timestamps and per-layer spans, recorded from outside the program.

``StepClock`` marks optimizer-step boundaries: a step runs from the start of
``ParamStore.zero_grad`` to the end of ``ParamStore.sgd_step``. It is the only
patch an untraced run installs.

``Tracer`` wraps the public function behind each entry of ``SPANS`` with a
timer, in its defining module and in every ``pairtrack`` module that imported
it by name, and counts the kernel outputs (tape nodes) that
``numerics.tensor._node`` creates. A span's self time and self nodes exclude
those of the spans nested inside it. Totals are kept in memory, split into
set-up and timed-unit buckets, and read out at the end of the run.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# (span name, defining module, attribute path); names follow the package layout
SPANS = (
    ("model.patch_embed", "pairtrack.harness.model", "patch_embed"),
    ("model.block", "pairtrack.harness.model", "Block.__call__"),
    ("model.forward", "pairtrack.harness.model", "Tracker.forward"),
    ("moe.adapter", "pairtrack.moe", "MoEAdapter.__call__"),
    ("moe.sparse_moe", "pairtrack.moe", "sparse_moe"),
    ("moe.route", "pairtrack.moe", "route"),
    ("moe.balance_loss", "pairtrack.moe", "balance_loss"),
    ("moe.dense_shared_moe", "pairtrack.moe", "dense_shared_moe"),
    ("fusion.multi_level_fuse", "pairtrack.fusion", "multi_level_fuse"),
    ("fusion.cross_align", "pairtrack.fusion", "cross_align"),
    ("fusion.gram_basis", "pairtrack.fusion", "gram_basis"),
    ("fusion.auto_epsilon", "pairtrack.fusion", "auto_epsilon"),
    ("fusion.build_hypergraph", "pairtrack.fusion", "build_hypergraph"),
    ("fusion.hyperconv", "pairtrack.fusion", "hyperconv"),
    ("losses.weighted_focal", "pairtrack.losses", "weighted_focal"),
    ("losses.giou_loss", "pairtrack.losses", "giou_loss"),
    ("losses.l1_box_loss", "pairtrack.losses", "l1_box_loss"),
    ("losses.total_loss", "pairtrack.losses", "total_loss"),
    # the module is shadowed by the function ``pairtrack.harness.train``, so
    # targets are resolved through importlib, never by attribute access
    ("harness.forward_track", "pairtrack.harness.train", "forward_track"),
    ("numerics.backward", "pairtrack.numerics.tensor", "backward"),
    ("numerics.sgd_step", "pairtrack.numerics.params", "ParamStore.sgd_step"),
    ("numerics.save_checkpoint", "pairtrack.numerics.checkpoint", "save_checkpoint"),
    ("numerics.load_checkpoint", "pairtrack.numerics.checkpoint", "load_checkpoint"),
    ("data.generate_dataset", "pairtrack.harness.data", "generate_dataset"),
)
SPAN_NAMES = tuple(name for name, _, _ in SPANS)

# spans reported per set-up; every other span is reported per timed unit
SETUP_SPANS = ("data.generate_dataset", "numerics.save_checkpoint", "numerics.load_checkpoint")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def replace_everywhere(self, original, new) -> int:
        """Rebind every ``pairtrack`` module global that is ``original``."""
        count = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "pairtrack" or name.startswith("pairtrack.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, new)
                    count += 1
        return count

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _resolve(module_name: str, path: str):
    """Return (owner, attribute, original) for a ``Class.method`` or function path."""
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, getattr(owner, attr)


class StepClock:
    """Timestamps of optimizer steps, taken around ``ParamStore`` methods.

    ``on_start`` and ``on_end`` run just inside the step's boundaries, so a
    tracer can switch into and out of its timed-unit bucket.
    """

    def __init__(self, on_start=None, on_end=None):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._on_start = on_start
        self._on_end = on_end
        self._patches = Patches()

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def __enter__(self) -> "StepClock":
        params = importlib.import_module("pairtrack.numerics.params")
        zero_grad = params.ParamStore.zero_grad
        sgd_step = params.ParamStore.sgd_step
        clock = self

        def timed_zero_grad(store):
            clock.starts.append(time.perf_counter())
            if clock._on_start is not None:
                clock._on_start()
            return zero_grad(store)

        def timed_sgd_step(store, lr):
            try:
                return sgd_step(store, lr)
            finally:
                if clock._on_end is not None:
                    clock._on_end()
                clock.ends.append(time.perf_counter())

        self._patches.replace(params.ParamStore, "zero_grad", timed_zero_grad)
        self._patches.replace(params.ParamStore, "sgd_step", timed_sgd_step)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


class Tracer:
    """Span totals for one traced run; install with ``with tracer:``.

    ``begin_setup``/``begin_unit``/``idle`` choose the bucket that closing
    spans add to; spans that close while idle are dropped.
    """

    def __init__(self, sample_span: str):
        if sample_span not in SPAN_NAMES:
            raise ValueError(f"unknown sample span {sample_span}")
        self.sample_span = sample_span
        self.setup = {name: [0.0, 0, 0] for name in SPAN_NAMES}  # self_s, calls, self nodes
        self.unit = {name: [0.0, 0, 0] for name in SPAN_NAMES}
        self.setups = 0
        self.units = 0
        self.samples = 0
        self.unit_s = 0.0
        self.sample_nodes = 0  # inclusive nodes of the sample span, in units
        self.sample_recorded = 0
        self.expert_evals = 0
        self.routed_tokens = 0
        self.checkpoint_bytes = {"numerics.save_checkpoint": 0, "numerics.load_checkpoint": 0}
        self._bucket = None
        self._unit_start = 0.0
        self._stack: list[list] = []
        self._nodes = 0
        self._recorded = 0
        self._patches = Patches()

    # -- phases ---------------------------------------------------------------

    def begin_setup(self) -> None:
        self.setups += 1
        self._bucket = self.setup

    def begin_unit(self, samples: int) -> None:
        self.units += 1
        self.samples += samples
        self._bucket = self.unit
        self._unit_start = time.perf_counter()

    def end_unit(self) -> None:
        self.unit_s += time.perf_counter() - self._unit_start
        self._bucket = None

    def idle(self) -> None:
        self._bucket = None

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for name, module_name, path in SPANS:
                owner, attr, original = _resolve(module_name, path)
                wrapped = self._wrap(name, original)
                if isinstance(owner, type):
                    self._patches.replace(owner, attr, wrapped)
                elif self._patches.replace_everywhere(original, wrapped) == 0:
                    raise LookupError(f"span {name}: {module_name}.{path} is not bound anywhere")
            tensor = importlib.import_module("pairtrack.numerics.tensor")
            self._patches.replace(tensor, "_node", self._count_nodes(tensor._node))
        except BaseException:
            self._patches.restore()
            raise
        self.idle()
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()
        self._stack.clear()
        self.idle()

    def _count_nodes(self, node):
        tracer = self

        def counted(data, parents, backward):
            out = node(data, parents, backward)
            tracer._nodes += 1
            tracer._recorded += out.requires_grad
            return out

        return counted

    def _wrap(self, name: str, fn):
        tracer = self
        extra = {
            "moe.sparse_moe": self._note_sparse,
            "numerics.save_checkpoint": self._note_saved,
            "numerics.load_checkpoint": self._note_loaded,
        }.get(name)

        def traced(*args, **kwargs):
            tracer._stack.append([time.perf_counter(), 0.0, tracer._nodes, 0, tracer._recorded])
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name)
            if extra is not None and tracer._bucket is not None:
                extra(args, result)
            return result

        return traced

    def _close(self, name: str) -> None:
        start, child_s, nodes0, child_nodes, recorded0 = self._stack.pop()
        elapsed = time.perf_counter() - start
        nodes = self._nodes - nodes0
        if self._stack:
            parent = self._stack[-1]
            parent[1] += elapsed
            parent[3] += nodes
        if self._bucket is None:
            return
        totals = self._bucket[name]
        totals[0] += elapsed - child_s
        totals[1] += 1
        totals[2] += nodes - child_nodes
        if name == self.sample_span and self._bucket is self.unit:
            self.sample_nodes += nodes
            self.sample_recorded += self._recorded - recorded0

    def _note_sparse(self, args, result) -> None:
        self.expert_evals += result.n_expert_evals
        self.routed_tokens += args[0].shape[0]

    def _note_saved(self, args, result) -> None:
        self.checkpoint_bytes["numerics.save_checkpoint"] += sum(
            os.path.getsize(path) for path in result
        )

    def _note_loaded(self, args, result) -> None:
        checkpoint = importlib.import_module("pairtrack.numerics.checkpoint")
        directory = args[1]
        self.checkpoint_bytes["numerics.load_checkpoint"] += sum(
            os.path.getsize(os.path.join(directory, name))
            for name in (checkpoint.MANIFEST_NAME, checkpoint.BLOB_NAME)
        )

    # -- read-out -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        units = max(self.units, 1)
        samples = max(self.samples, 1)
        setups = max(self.setups, 1)
        for name in SPAN_NAMES:
            if name in SETUP_SPANS:
                self_s, calls, nodes = self.setup[name]
                out[f"{name}.self_ms"] = (1e3 * self_s / setups, "ms")
                out[f"{name}.calls"] = (calls / setups, "count")
                out[f"{name}.nodes"] = (nodes / setups, "count")
            else:
                self_s, calls, nodes = self.unit[name]
                out[f"{name}.self_ms"] = (1e3 * self_s / units, "ms")
                out[f"{name}.calls"] = (calls / samples, "count")
                out[f"{name}.nodes"] = (nodes / samples, "count")
        for name, total in self.checkpoint_bytes.items():
            out[f"{name}.bytes"] = (total / setups, "B")
        out["tape.nodes_per_sample"] = (self.sample_nodes / samples, "count")
        out["tape.recorded_per_sample"] = (self.sample_recorded / samples, "count")
        out["moe.sparse_moe.evals_per_token"] = (
            self.expert_evals / self.routed_tokens if self.routed_tokens else 0.0, "count"
        )
        unit_ms = 1e3 * self.unit_s / units
        covered_ms = sum(out[f"{name}.self_ms"][0] for name in SPAN_NAMES
                         if name not in SETUP_SPANS)
        out["trace.unit_ms"] = (unit_ms, "ms")
        out["trace.coverage_pct"] = (100.0 * covered_ms / unit_ms if unit_ms else 0.0, "%")
        return out
