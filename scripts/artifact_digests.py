"""Print a sha256 digest of every file a fixed set of seeded runs writes.

Runs this checkout's ``python -m uqeval.cli`` for ``demo --seed 0``,
``demo --seed 7`` and ``demo --quick --seed 7``; then ``aggregate``,
``evaluate``, ``sweep``, ``ece`` and ``separate`` on the quick demo's EMCD
files (:data:`EVALUATIONS`), each with ``--format`` text, json and csv; and
one export-sized library run (:data:`EXPORT`), each into its own folder of a
temporary directory, and
prints ``sha256  path`` for every file written and for each run's stdout,
sorted by path. A manifest's ``timestamp`` line is
dropped before hashing, since it is the one part of a run that changes from
run to run. Two checkouts that write the
same bytes print the same digest lines:

    python scripts/artifact_digests.py > before.txt   # in one checkout
    python scripts/artifact_digests.py > after.txt    # in the other
    diff before.txt after.txt

The first line, starting ``#``, names the numpy version, the CPU-dispatch
targets numpy enabled, the BLAS numpy was built with, and
``OPENBLAS_CORETYPE`` if it is set. The bytes are the same only under one
BLAS kernel (it computes the trained weights) and one set of dispatch targets
(numpy's float64 ``log2``, ``log`` and ``exp`` give other last bits on their
AVX-512 paths), so a diff between two machines shows there whether they ran
different ones. ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``
shows the second on an AVX-512 machine: every demo's summaries and
``report.json`` change, and so does every evaluation of them.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

RUNS = {
    "demo-seed0": ["demo", "--seed", "0"],
    "demo-seed7": ["demo", "--seed", "7"],
    "demo-quick-seed7": ["demo", "--quick", "--seed", "7"],
}

# The evaluation subcommands' arguments, read from the quick demo's folder
# by relative paths, which the manifests record.
QUICK = "demo-quick-seed7"
SCORED = ["--summaries", f"{QUICK}/summaries_emcd.csv", "--labels", f"{QUICK}/labels.csv"]
EVALUATIONS = {
    "aggregate": ["--in", f"{QUICK}/predictions_emcd.csv", "--scheme", "emcd",
                  "--partition", "4x4"],
    "evaluate": SCORED,
    "sweep": SCORED,
    "ece": SCORED,
    "separate": SCORED,
}
RUNS.update({f"{command}-{fmt}": [command, *args, "--format", fmt]
             for command, args in EVALUATIONS.items() for fmt in ("text", "json", "csv")})

# A seeded 4000 x 50 x 10 tensor, with ids that need csv quoting or hold a %,
# saved as CSV: large enough that save_predictions renders it in many jobs.
# Two samples in every 500 hold, in every column over their passes,
# the values its digit tables leave to "%.9g": exact 0 and 1, -0.0, 1e-300, a
# subnormal, one just below 1e-4, a near and an exact rounding tie, and one
# whose 9 digits carry to the next power of ten. Its EMCD summaries (10
# members of 5 passes) and a label set over its ids are saved too, so the
# summaries and labels writers also run at this size and on these ids.
EXPORT = """
import math
import numpy as np
from uqeval import (LabelSet, PredictionTensor, aggregate, emcd_scheme, save_labels,
                    save_predictions, save_summaries)
rng = np.random.default_rng(0)
ids = [f"s{i:04d}" if i % 7 else f"s,{i}%" for i in range(4000)]
probs = rng.dirichlet(np.ones(10), size=(4000, 50))
odd = [0.0, -0.0, 1e-300, 5e-324, 9.99999999999e-5, 0.1234567885, 0.5009765625, 0.0999999999996]
for start, row in ((0, odd + [0.0, 1.0 - math.fsum(odd)]), (1, [1.0] + [0.0] * 9)):
    probs[start::500] = [np.roll(row, t) for t in range(50)]
tensor = PredictionTensor(probs, ids)
save_predictions(tensor, "predictions.csv", header_comment="export")
save_summaries(aggregate(tensor, emcd_scheme([5] * 10)), "summaries.csv", header_comment="export")
save_labels(LabelSet(ids, np.arange(4000) % 10), "labels.csv", header_comment="export")
print(tensor.n_samples, tensor.n_passes, tensor.n_classes)
"""


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.lstrip().startswith(b'"timestamp"'))
    return hashlib.sha256(data).hexdigest()


def environment_line() -> str:
    import numpy as np
    from numpy._core import _multiarray_umath as umath

    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    line = (f"# numpy {np.__version__} dispatch {' '.join(targets) or 'none'};"
            f" blas {blas.get('name')} {blas.get('version')}"
            f" ({blas.get('openblas configuration')})")
    coretype = os.environ.get("OPENBLAS_CORETYPE")
    return line + (f" OPENBLAS_CORETYPE={coretype}" if coretype else "")


def digest_lines(root: Path) -> list[str]:
    """``sha256  path`` for every file under ``root``, sorted by its relative path."""
    return [f"{digest(path)}  {path.relative_to(root).as_posix()}"
            for path in sorted(p for p in root.rglob("*") if p.is_file())]


def main() -> int:
    print(environment_line())
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, argv in RUNS.items():
            # a relative --out keeps the temporary directory's name out of the manifests
            done = subprocess.run([sys.executable, "-m", "uqeval.cli", *argv, "--out", name],
                                  cwd=root, env=env, capture_output=True, check=True)
            (root / name / "stdout.txt").write_bytes(done.stdout)
        (root / "export").mkdir()
        done = subprocess.run([sys.executable, "-c", EXPORT], cwd=root / "export", env=env,
                              capture_output=True, check=True)
        (root / "export" / "stdout.txt").write_bytes(done.stdout)
        print(*digest_lines(root), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
