"""The evaluation chain writes the bytes recorded in ``golden_digests.txt``.

A seeded 300 x 20 x 3 predictions tensor and its labels are made with numpy
alone (no training, so no BLAS), with ids that need CSV quoting and hold a
``%``, and saved as CSV. ``aggregate`` (MCD, and EMCD with a partition, both
from that CSV), then ``evaluate``, ``sweep``, ``ece`` and ``separate`` on each
summaries file, run in every ``--format`` through ``cli.main`` in process, in
a temporary directory, with relative paths. Each file and each stdout is
hashed by ``scripts/artifact_digests.py``'s rule (a manifest's timestamp
dropped) and compared with the golden file.

The bytes hold per numpy build and CPU-dispatch targets: the golden file's
first line records the environment that wrote it, and a mismatch names both.
A change that means to change these bytes regenerates the file,

    PYTHONPATH=src python tests/test_golden_digests.py > tests/golden_digests.txt

and declares the change.
"""

import contextlib
import importlib.util
import io
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from uqeval import LabelSet, PredictionTensor, save_labels, save_predictions
from uqeval.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_digests.txt"
SCRIPT = HERE.parent / "scripts" / "artifact_digests.py"

N_SAMPLES, N_PASSES, N_CLASSES = 300, 20, 3
PARTITION = "4x5"
FORMATS = ("text", "json", "csv")
SCORERS = ("evaluate", "sweep", "ece", "separate")


def _load_script():
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


artifact_digests = _load_script()


def write_inputs() -> None:
    """``predictions.csv`` and ``labels.csv`` in the working directory.

    Each sample's passes are Dirichlet draws centred on one class: its label
    for four samples in five, another class otherwise, so the chain sees
    errors as well as correct predictions. The errors are drawn less sharp,
    so they tend to carry more entropy.
    """
    rng = np.random.default_rng(16)
    ids = [f's,"{i}%' if i % 7 == 0 else f"s{i:03d}" for i in range(N_SAMPLES)]
    labels = rng.integers(0, N_CLASSES, N_SAMPLES)
    wrong = rng.random(N_SAMPLES) < 0.2
    centre = np.where(wrong, (labels + rng.integers(1, N_CLASSES, N_SAMPLES)) % N_CLASSES,
                      labels)
    sharpness = np.where(wrong, rng.uniform(1.0, 10.0, N_SAMPLES),
                         rng.uniform(2.0, 60.0, N_SAMPLES))
    probs = np.stack([rng.dirichlet(0.5 + sharpness[i] * np.eye(N_CLASSES)[centre[i]], N_PASSES)
                      for i in range(N_SAMPLES)])
    tensor = PredictionTensor(probs, ids)
    save_predictions(tensor, "predictions.csv", header_comment="golden")
    save_labels(LabelSet(ids, labels), "labels.csv", header_comment="golden")


def chain_runs() -> dict[str, list[str]]:
    """Each run's output folder and its ``cli.main`` arguments, ``--out`` aside."""
    aggregates = {
        "mcd": ["--in", "predictions.csv", "--scheme", "mcd"],
        "emcd": ["--in", "predictions.csv", "--scheme", "emcd", "--partition", PARTITION],
    }
    runs = {}
    for scheme, args in aggregates.items():
        for fmt in FORMATS:
            runs[f"aggregate-{scheme}-{fmt}"] = ["aggregate", *args, "--format", fmt]
    for scheme in aggregates:
        scored = ["--summaries", f"aggregate-{scheme}-csv/summaries.csv", "--labels", "labels.csv"]
        for command in SCORERS:
            for fmt in FORMATS:
                runs[f"{command}-{scheme}-{fmt}"] = [command, *scored, "--format", fmt]
    return runs


def chain_digest_lines(root: Path) -> list[str]:
    """Run the chain in ``root`` and return the digest line of every file and stdout."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        write_inputs()
        for name, argv in chain_runs().items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main([*argv, "--out", name])
            assert code == 0, (name, code)
            Path(name, "stdout.txt").write_bytes(stdout.getvalue().encode("utf-8"))
    finally:
        os.chdir(cwd)
    return artifact_digests.digest_lines(root)


def read_golden() -> tuple[str, dict[str, str]]:
    header, *lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return header, {path: sha for sha, path in (line.split("  ", 1) for line in lines)}


def mismatch(golden_header: str, golden: dict[str, str], here: dict[str, str]) -> str:
    """Each path whose digest differs from the golden one, and both environments; "" if none."""
    differing = sorted(path for path in golden.keys() | here.keys()
                       if golden.get(path) != here.get(path))
    if not differing:
        return ""
    return (f"{len(differing)} of {len(golden)} files differ from {GOLDEN.name}:\n"
            + "\n".join(f"  {path}" for path in differing)
            + f"\ngolden written under: {golden_header}"
            + f"\nthis run under:       {artifact_digests.environment_line()}")


def test_chain_bytes_match_the_golden_digests(tmp_path):
    golden_header, golden = read_golden()
    here = {path: sha for sha, path in
            (line.split("  ", 1) for line in chain_digest_lines(tmp_path))}
    message = mismatch(golden_header, golden, here)
    assert not message, message


def test_mismatch_names_each_differing_file_and_both_environments():
    golden = {"a/x.csv": "1", "a/y.csv": "2", "b/gone.csv": "3"}
    here = {"a/x.csv": "1", "a/y.csv": "9", "c/new.csv": "4"}
    lines = mismatch("# golden env", golden, here).splitlines()
    assert lines == [
        "3 of 3 files differ from golden_digests.txt:",
        "  a/y.csv",
        "  b/gone.csv",
        "  c/new.csv",
        "golden written under: # golden env",
        f"this run under:       {artifact_digests.environment_line()}",
    ]
    assert mismatch("# golden env", golden, dict(golden)) == ""


def test_environment_line_names_numpy_dispatch_and_blas(monkeypatch):
    from numpy._core import _multiarray_umath as umath

    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    line = artifact_digests.environment_line()
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    assert line.startswith(f"# numpy {np.__version__} dispatch {' '.join(targets) or 'none'}; blas ")
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    assert artifact_digests.environment_line() == f"{line} OPENBLAS_CORETYPE=Haswell"
    # the golden file records its environment in the same form
    golden_header, _ = read_golden()
    assert re.fullmatch(r"# numpy \S+ dispatch [^;]+; blas .+", golden_header)


if __name__ == "__main__":
    print(artifact_digests.environment_line())
    with tempfile.TemporaryDirectory() as tmp:
        print(*chain_digest_lines(Path(tmp)), sep="\n")
