"""Check that two checkouts write byte-identical ``metrics.tsv`` on the pinned configs.

    python3 tools/same_output.py --parent ../parent --change .

Runs ``pairtrack train`` from each checkout's ``src/`` with
``OPENBLAS_NUM_THREADS=1`` on each of ``CONFIGS``: the acceptance
determinism config at seed 3, and 40 default steps at seed 0 with K=1 and
with K=2. Prints one line per config and exits 1 if any pair of files
differs or a run fails. Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# tests/test_acceptance.py::test_determinism_byte_identical_metrics
DETERMINISM_CONFIG = (
    "model_dim = 16\ndepth = 2\nheads = 4\nreduction_g = 4\nn_experts = 2\n"
    "shared_m = 2\ntemplate_size = 8\nsearch_size = 16\nhead_hidden = 16\n"
    "level_taps = 1,2\nsteps = 6\nbatch_size = 2\nlog_interval = 2\n"
    "n_train = 4\nn_eval = 4\nepsilon_mode = fixed\nepsilon_value = 0.8\n"
)
CONFIGS = {
    "determinism-seed3": ["--config", "{config}", "--seed", "3"],
    "default-40-steps-k1": ["--seed", "0", "--steps", "40", "--top-k", "1"],
    "default-40-steps-k2": ["--seed", "0", "--steps", "40", "--top-k", "2"],
}
RUN = "import sys; from pairtrack.harness.cli import main; sys.exit(main(sys.argv[1:]))"


def metrics_bytes(checkout: Path, args: list[str], out: Path) -> bytes | None:
    """``metrics.tsv`` of one ``pairtrack train`` run in ``checkout``, or None if it failed."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(checkout.resolve() / "src"))
    done = subprocess.run([sys.executable, "-c", RUN, "train", *args, "--out", str(out)],
                          cwd=checkout, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        print(f"{checkout}: train exited {done.returncode}: {done.stderr.strip()}",
              file=sys.stderr)
        return None
    return (out / "metrics.tsv").read_bytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "determinism.cfg"
        config.write_text(DETERMINISM_CONFIG, encoding="utf-8")
        for name, template in CONFIGS.items():
            run_args = [a.format(config=config) for a in template]
            parent, change = (metrics_bytes(checkout, run_args, Path(tmp) / f"{name}-{side}")
                              for side, checkout in (("parent", args.parent),
                                                     ("change", args.change)))
            same = parent is not None and parent == change
            differ += not same
            sizes = "/".join("failed" if b is None else f"{len(b)} B" for b in (parent, change))
            print(f"{name:22s} {'same' if same else 'DIFFERENT'} ({sizes})", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
