"""Check that two checkouts write byte-identical ``metrics.tsv`` on the pinned configs.

    python3 tools/same_output.py --parent ../parent --change .

Runs ``pairtrack train`` from each checkout's ``src/`` with
``OPENBLAS_NUM_THREADS=1`` on each of ``CONFIGS``: the acceptance
determinism config (``tests/determinism.cfg``, which
tests/test_acceptance.py runs too) at seed 3, and 40 default steps at seed 0
with K=1 and with K=2. Prints one line per config and exits 1 if any pair of
``metrics.tsv`` files differs or a run fails. The line also says whether the
runs' ``checkpoint.blob`` and ``checkpoint.manifest`` are byte-identical:
``metrics.tsv`` prints 12 significant digits, so trained weights can move in
their last bits while it stays the same. That verdict leaves the exit code.

The ``dataset`` line compares a SHA-256 over every plane, box field and tag
that ``generate_dataset`` returns for ``DATASETS`` (seeds 0 and 3 at the
default config: the ``data`` and ``eval`` streams at its training and eval
sizes, and perfbench's 128-sample ``check`` set). The ``gradcheck`` line
compares what ``pairtrack gradcheck`` prints: every unit and end-to-end
gradient check with its error. A DIFFERENT digest or gradcheck output, or a
failed run of either, exits 1 too.

When either pair differs, it also runs ``PROBE`` in each checkout at K=1 and at
K=2: ``train()`` takes ``PROBE_STEPS`` SGD steps at the default config (seed
0), and the probe is the forward and backward of the first training batch at
the weights they reach. Trained weights matter: the tracker zero-initialises
its insertions, so at the initial weights a change confined to them adds
exactly zero to the forward. For each K, it prints the largest relative
difference between the checkouts over the forward outputs and over the
gradients, each array's difference taken relative to the parent's largest
magnitude in it. Arrays are compared under the names both probes hold, and
the line lists the names only one side holds, as when a change regroups
parameters; an array whose shape differs between the sides makes the probe
not comparable. The exit code does not depend on these figures. Standard
library, plus numpy for the probe and the dataset digest.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DETERMINISM_CONFIG = Path(__file__).resolve().parent.parent / "tests" / "determinism.cfg"
CONFIGS = {
    "determinism-seed3": ["--config", str(DETERMINISM_CONFIG), "--seed", "3"],
    "default-40-steps-k1": ["--seed", "0", "--steps", "40", "--top-k", "1"],
    "default-40-steps-k2": ["--seed", "0", "--steps", "40", "--top-k", "2"],
}
# the checkpoint ``pairtrack train`` writes beside metrics.tsv (names from
# pairtrack.numerics.checkpoint)
CHECKPOINT = ("checkpoint.blob", "checkpoint.manifest")
RUN = "import sys; from pairtrack.harness.cli import main; sys.exit(main(sys.argv[1:]))"
PROBE_STEPS = 3
# argv: the .npz to write, K, the SGD steps; keys "forward.*" for outputs and "grad.*" for
# gradients
PROBE = """
import sys
import numpy as np
from pairtrack.harness.config import RunConfig
from pairtrack.harness.data import generate_dataset
from pairtrack.harness.train import forward_track, train
from pairtrack.numerics import backward, mean

cfg = RunConfig(seed=0, top_k=int(sys.argv[2]), steps=int(sys.argv[3]))
model = train(cfg, eval_each_log=False).model
model.store.zero_grad()
result = forward_track(generate_dataset(cfg, cfg.batch_size, "data"), model)
backward(mean(result.bundle.total))
arrays = {f"forward.{name}": getattr(result.output, name).data
          for name in ("box_tensor", "center_map", "balance")}
arrays["forward.total"] = result.bundle.total.data
arrays.update({f"grad.{p.name}": p.grad for p in model.store if p.grad is not None})
np.savez(sys.argv[1], **arrays)
"""
PROBE_TOP_K = (1, 2)
# (seed, stream, count) of the datasets the ``dataset`` line hashes
DATASETS = tuple((seed, stream, count) for seed in (0, 3)
                 for stream, count in (("data", 8), ("eval", 64), ("check", 128)))
# argv: DATASETS as JSON; prints the SHA-256 over their planes, box fields and tags
DATASET = """
import hashlib
import json
import sys
import numpy as np
from pairtrack.harness.config import RunConfig
from pairtrack.harness.data import generate_dataset

digest = hashlib.sha256()
for seed, stream, count in json.loads(sys.argv[1]):
    for s in generate_dataset(RunConfig(seed=seed), count, stream):
        for plane in (s.template_r, s.template_x, s.search_r, s.search_x):
            digest.update(plane.tobytes())
        digest.update(np.array([s.gt_box.cx, s.gt_box.cy, s.gt_box.w, s.gt_box.h]).tobytes())
        digest.update(s.tag.encode())
print(digest.hexdigest())
"""


def _run(checkout: Path, argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(checkout.resolve() / "src"))
    return subprocess.run([sys.executable, "-c", *argv], cwd=checkout, env=env,
                          capture_output=True, text=True, check=False)


def train_outputs(checkout: Path, args: list[str], out: Path) -> dict[str, bytes | None] | None:
    """The bytes of ``metrics.tsv`` and ``CHECKPOINT`` after one ``pairtrack train`` run.

    None if the run failed; a checkpoint file the run did not write reads None.
    """
    done = _run(checkout, [RUN, "train", *args, "--out", str(out)])
    if done.returncode != 0:
        print(f"{checkout}: train exited {done.returncode}: {done.stderr.strip()}",
              file=sys.stderr)
        return None
    checkpoint = {name: (out / name).read_bytes() if (out / name).is_file() else None
                  for name in CHECKPOINT}
    return {"metrics.tsv": (out / "metrics.tsv").read_bytes(), **checkpoint}


def run_stdout(checkout: Path, name: str, argv: list[str]) -> str | None:
    """What the run of ``argv`` in the checkout printed, or None if it failed."""
    done = _run(checkout, argv)
    if done.returncode != 0:
        print(f"{checkout}: {name} exited {done.returncode}: {done.stderr.strip()}",
              file=sys.stderr)
        return None
    return done.stdout


def verdict(parent: str | None, change: str | None) -> str:
    """``same``, ``DIFFERENT`` or ``failed`` for the two checkouts' outputs."""
    if parent is None or change is None:
        return "failed"
    return "same" if parent == change else "DIFFERENT"


def checkpoint_verdict(parent: dict | None, change: dict | None) -> str:
    """``same``, or which checkpoint files differ or are missing, for two runs' outputs."""
    if parent is None or change is None:
        return "not compared"
    missing = [name for name in CHECKPOINT if parent[name] is None or change[name] is None]
    if missing:
        return f"missing {','.join(missing)}"
    differ = [name for name in CHECKPOINT if parent[name] != change[name]]
    return f"DIFFERENT {','.join(differ)}" if differ else "same"


def largest_relative_differences(parent: Path, change: Path
                                 ) -> tuple[dict[str, float | None], dict[str, list[str]]]:
    """The largest max|change - parent| / max|parent| per kind ("forward", "grad").

    Only arrays both probes hold count; a kind with none reads None. Also
    returns, per side, the names of the arrays only that side's probe holds.
    Raises ValueError when a shared name holds arrays of different shapes.
    """
    import numpy as np

    worst: dict[str, float | None] = {"forward": None, "grad": None}
    with np.load(parent) as old, np.load(change) as new:
        only = {"parent": sorted(set(old.files) - set(new.files)),
                "change": sorted(set(new.files) - set(old.files))}
        for name in sorted(set(old.files) & set(new.files)):
            a, b = old[name], new[name]
            if a.shape != b.shape:
                raise ValueError(f"{name}: shapes {a.shape} and {b.shape} differ")
            diff = float(np.max(np.abs(b - a), initial=0.0))
            size = float(np.max(np.abs(a), initial=0.0))
            kind = name.split(".", 1)[0]
            rel = diff / size if size else (np.inf if diff else 0.0)
            worst[kind] = max(worst[kind] or 0.0, rel)
    return worst, only


def _figure(value: float | None) -> str:
    return "none shared" if value is None else f"{value:.1e}"


def probe(parent: Path, change: Path, tmp: Path) -> None:
    """Print the largest relative differences of the trained probe at each of ``PROBE_TOP_K``."""
    for top_k in PROBE_TOP_K:
        files = []
        for side, checkout in (("parent", parent), ("change", change)):
            files.append(tmp / f"probe-k{top_k}-{side}.npz")
            done = _run(checkout, [PROBE, str(files[-1]), str(top_k), str(PROBE_STEPS)])
            if done.returncode != 0:
                print(f"{checkout}: probe exited {done.returncode}: {done.stderr.strip()}",
                      file=sys.stderr)
                print(f"{f'probe-batch-k{top_k}':22s} failed", flush=True)
                break
        else:
            try:
                worst, only = largest_relative_differences(*files)
            except ValueError as exc:
                print(f"{f'probe-batch-k{top_k}':22s} not comparable: {exc}", flush=True)
                continue
            sides = "".join(f"; only in {side}: {', '.join(names)}"
                            for side, names in only.items() if names)
            print(f"{f'probe-batch-k{top_k}':22s} largest relative difference: forward "
                  f"{_figure(worst['forward'])}, gradients {_figure(worst['grad'])}{sides}",
                  flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    differ = probed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, run_args in CONFIGS.items():
            parent, change = (train_outputs(checkout, run_args, Path(tmp) / f"{name}-{side}")
                              for side, checkout in (("parent", args.parent),
                                                     ("change", args.change)))
            same = parent is not None and change is not None and (
                parent["metrics.tsv"] == change["metrics.tsv"])
            checkpoint = checkpoint_verdict(parent, change)
            differ += not same
            probed += not same or checkpoint != "same"
            sizes = "/".join("failed" if out is None else f"{len(out['metrics.tsv'])} B"
                             for out in (parent, change))
            print(f"{name:22s} {'same' if same else 'DIFFERENT'} ({sizes}), "
                  f"checkpoint {checkpoint}", flush=True)
        checkouts = (args.parent, args.change)
        digests = [run_stdout(checkout, "dataset", [DATASET, json.dumps(DATASETS)])
                   for checkout in checkouts]
        found = verdict(*digests)
        differ += found != "same"
        print(f"{'dataset':22s} {found} (sha256 "
              f"{'/'.join((d or 'failed')[:12] for d in digests)})", flush=True)
        printed = [run_stdout(checkout, "gradcheck", [RUN, "gradcheck"]) for checkout in checkouts]
        found = verdict(*printed)
        differ += found != "same"
        lines = "/".join("failed" if out is None else str(len(out.splitlines()))
                         for out in printed)
        print(f"{'gradcheck':22s} {found} ({lines} lines)", flush=True)
        if probed:
            probe(args.parent, args.change, Path(tmp))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
