"""Predictions files: the writer and reader against their one-value-at-a-time oracles.

The oracles in ``scalar_oracles`` are the writer and reader the package used
before they worked a sample or a chunk at a time. The package must write the
same bytes, load the same tensors, and reject the same malformed files with
the same message. Also here: every artifact writer leaves the previous file in
place when a write fails midway, and the predictions writer streams.
"""

import contextlib
import errno
import math
import os
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uqeval.tensor
from uqeval import (
    MCD,
    FormatError,
    LabelSet,
    PredictionTensor,
    aggregate,
    load_predictions,
    save_labels,
    save_predictions,
    save_summaries,
)
from uqeval.manifest import build_manifest, write_manifest
from uqeval.tensor import write_artifact

import scalar_oracles as oracle
from conftest import random_prob_rows

# Any text UTF-8 can encode, without a line break, is a valid sample id.
ID_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=6)

# Probabilities whose rendering is an edge case: zero, subnormals, the
# smallest normal, and values below 1e-4 that "%.9g" writes in exponent form.
SMALL_EDGES = (0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, 1e-300, 1e-10,
               3.0000000000000004e-05, 9.99999999e-05, 0.0001)


@st.composite
def prediction_tensors(draw):
    n_samples, n_passes = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    n_classes = draw(st.integers(2, 5))
    ids = draw(st.lists(ID_TEXT, min_size=n_samples, max_size=n_samples, unique=True))
    small = st.sampled_from(SMALL_EDGES) | st.floats(0.0, 0.2)
    rows = []
    for _ in range(n_samples * n_passes):
        # C-1 small values and one large one that makes the row sum to 1
        values = draw(st.lists(small, min_size=n_classes - 1, max_size=n_classes - 1))
        at = draw(st.integers(0, n_classes - 1))
        rows.append(values[:at] + [1.0 - math.fsum(values)] + values[at:])
    probs = np.array(rows).reshape(n_samples, n_passes, n_classes)
    return PredictionTensor(probs, ids)


@contextlib.contextmanager
def chunk_rows(size):
    """Parse predictions files ``size`` lines at a time, or the default if ``size`` is None."""
    with mock.patch.object(uqeval.tensor, "CHUNK_ROWS", size or uqeval.tensor.CHUNK_ROWS):
        yield


def outcome(load, path):
    """What loading ``path`` gives: the tensor's ids and probabilities, or the error."""
    try:
        tensor = load(path)
    except Exception as exc:  # compared, never hidden: both loaders must agree
        return type(exc).__name__, str(exc)
    return tensor.sample_ids, tensor.probs.shape, tensor.probs.tobytes()


class TestWriterBytes:
    @given(prediction_tensors(), st.none() | ID_TEXT)
    @settings(max_examples=150, deadline=None)
    @example(PredictionTensor(np.array([[[1.0, 0.0]], [[5e-324, 1.0]], [[3e-5, 0.99997]]]),
                              ("a,1", '"q"', "%d%s")), "manifest_digest=sha256:x")
    @example(PredictionTensor(np.array([[[0.5, 0.5]], [[0.25, 0.75]], [[1e-10, 1.0]]]),
                              ("#x", "\x00", "%%")), "100%")
    def test_same_bytes_as_oracle(self, tmp_path_factory, tensor, comment):
        path = tmp_path_factory.mktemp("w") / "p.csv"
        save_predictions(tensor, path, header_comment=comment)
        assert path.read_bytes() == oracle.predictions_text(tensor, comment).encode("utf-8")

    @given(prediction_tensors(), st.sampled_from([1, 2, 5, None]))
    @settings(max_examples=150, deadline=None)
    def test_load_of_save_is_exact(self, tmp_path_factory, tensor, chunk):
        # 9-significant-digit values are the ones a file states exactly
        tensor = PredictionTensor(oracle.quantize_probs(tensor.probs), tensor.sample_ids)
        path = tmp_path_factory.mktemp("rt") / "p.csv"
        save_predictions(tensor, path, header_comment="manifest_digest=sha256:x")
        with chunk_rows(chunk):
            back = load_predictions(path)
        assert back.sample_ids == tensor.sample_ids
        assert np.array_equal(back.probs, tensor.probs)
        assert outcome(oracle.load_predictions, path) == outcome(load_predictions, path)


def rendered(values) -> bytes:
    """``values`` as the writer renders them, one ``value\\n`` row each."""
    values = np.asarray(values, np.float64)
    marks = [uqeval.tensor.SAMPLE_MARK] + [uqeval.tensor.ROW_MARK] * (len(values) - 1)
    heads, followers = uqeval.tensor._words(marks), uqeval.tensor._words([b"\n"]).ravel()
    return uqeval.tensor._render_rows(values.reshape(1, -1, 1), [b""], heads, followers)


def formatted(values) -> bytes:
    """``values`` as ``"%.9g"`` renders them, one ``value\\n`` row each."""
    return "".join(oracle.render_prob(v) + "\n" for v in np.asarray(values).tolist()).encode()


def ulps_around(values, ulps=4):
    """Each of ``values`` and its neighbours up to ``ulps`` units in the last place away."""
    bits = np.asarray(values, np.float64).view(np.int64)[:, np.newaxis]
    return (bits + np.arange(-ulps, ulps + 1)).ravel().view(np.float64)


class TestProbabilityRendering:
    """The writer's array renderer against ``"%.9g"`` on every branch it takes."""

    # the fixed-point decades [10^-(d+1), 10^-d) for d = 0..3
    @pytest.mark.parametrize("decade", [0, 1, 2, 3])
    def test_decimal_rounding_ties(self, decade):
        # x in the decade has its 9th digit at 10^-(d+9), so (m + 0.5) * 10^-(d+9)
        # is near a tie, and k / 2^(d+10) for odd k is one: it is k * 5^(d+9) / 2 there
        m = np.random.default_rng(decade).integers(10**8, 10**9, 200)
        near = (m + 0.5) * 10.0 ** -(9 + decade)
        scale = 2.0 ** (10 + decade)
        k = np.arange(math.ceil(scale / 10 ** (decade + 1)) | 1, scale / 10**decade, 2)
        values = np.concatenate([ulps_around(near), ulps_around(k / scale)])
        values = values[(values >= 10.0 ** -(decade + 1)) & (values < 10.0**-decade)]
        assert rendered(values) == formatted(values)

    def test_powers_of_ten(self):
        values = ulps_around([1.0, 0.1, 0.01, 0.001, 1e-4, 1e-5])
        assert rendered(values[values <= 1.0]) == formatted(values[values <= 1.0])

    def test_carries_to_the_next_power_of_ten(self):
        values = [0.9999999996, 0.0999999999996, 0.00999999999996, 0.000999999999996,
                  9.99999999999e-5, 0.99999999949, 0.0999999999499]
        assert rendered(values) == formatted(values)
        assert formatted(values).split()[:5] == [b"1", b"0.1", b"0.01", b"0.001", b"0.0001"]

    def test_zero_one_and_the_smallest_values(self):
        values = [0.0, 1.0, -0.0, 1e-300, 5e-324, 2.2250738585072014e-308,
                  math.nextafter(1e-4, 0.0), 9.99999999e-05, 3e-5]
        assert rendered(values) == formatted(values)

    def test_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        values = np.concatenate([rng.uniform(1e-6, 1.0, 500_000),
                                 10.0 ** rng.uniform(-6.0, 0.0, 500_000)])
        assert rendered(values) == formatted(values)

    def test_every_fallback_in_every_column(self, tmp_path):
        # each value in each column; the ids hold the writer's row marks, NUL, quotes, commas
        # and a % format
        odd = [0.0, -0.0, 1e-300, 5e-324, 9.99999999999e-5, 0.0999999999996, 0.5009765625,
               1.5e-5]
        row, one = odd + [1.0 - math.fsum(odd)], [1.0] + [0.0] * len(odd)
        rows = [np.roll(r, i) for r in (row, one) for i in range(len(row))]
        probs = np.array(rows)[:, np.newaxis, :].repeat(2, axis=1)
        ids = [f"{c}{i}" for i, c in enumerate(["\x02", "\x01", "\x00", '"', ",", "%s", "é"] * 3)]
        tensor = PredictionTensor(probs, ids[:len(rows)])
        path = tmp_path / "p.csv"
        save_predictions(tensor, path)
        assert path.read_bytes() == oracle.predictions_text(tensor).encode()


HEADER = "sample_id,pass_id,p_0,p_1\n"
ROW = "s0,0,0.7,0.3\n"

# Files the CSV reader must treat exactly as the oracle does: every error with
# its message and line, and every accepted quirk of csv/float()/int().
CSV_CASES = {
    "too few fields": HEADER + "s0,0,0.5\n",
    "too many fields": HEADER + "s0,0,0.5,0.5\ns0,1,0.5,0.5,0.1\n",
    "unquoted comma in id": HEADER + "a,b,0,0.5,0.5\n",
    "bad float": HEADER + "s0,0,0.5,0.5\ns0,1,x,0.5\n",
    "bad pass id": HEADER + "s0,zero,0.5,0.5\n",
    "bad float before short row": HEADER + "s0,0,x,0.5\ns0,1,0.5\n",
    "short row before bad float": HEADER + "s0,0,0.5\ns0,1,x,0.5\n",
    "duplicate": HEADER + "s0,0,0.7,0.3\ns1,0,0.5,0.5\ns0,0,0.7,0.3\n",
    "ragged": HEADER + "s0,0,0.7,0.3\ns0,1,0.7,0.3\ns1,0,0.5,0.5\n",
    "non-contiguous": HEADER + "s0,0,0.7,0.3\ns0,2,0.7,0.3\ns1,1,0.5,0.5\ns1,0,0.5,0.5\n",
    "negative pass id": HEADER + "s0,-1,0.7,0.3\n",
    "blank lines": "\n" + HEADER + "\ns0,0,0.7,0.3\n\n\ns0,1,0.6,0.4\n\n",
    "CRLF": HEADER.replace("\n", "\r\n") + "s0,0,0.7,0.3\r\ns0,1,0.6,0.4\r\n",
    "CR": HEADER.replace("\n", "\r") + "s0,0,0.7,0.3\rs0,1,0.6,0.4",
    "mixed line ends": HEADER + "s0,0,0.7,0.3\r\r\ns0,1,0.6,0.4\rs1,0,0.5,0.5\r\ns1,1,1,0\n",
    "leading comment": "# manifest_digest=sha256:x\n" + HEADER + "#x,0,0.7,0.3\n",
    "comment after line 1": "\n# note\n" + HEADER + "s0,0,0.7,0.3\n",
    "comment line in body": HEADER + "s0,0,0.7,0.3\n# note\n",
    "header only": "# c\n" + HEADER,
    "empty": "",
    "comment only": "# c\n\n",
    "bad header": "id,pass,p_0,p_1\ns0,0,0.7,0.3\n",
    "misnamed column": "sample_id,pass_id,p_0,q_1\ns0,0,0.7,0.3\n",
    "whitespace in numbers": HEADER + "s0, 0 ,0.7 , 0.3\n",
    "whitespace line": HEADER + " \ns0,0,0.7,0.3\n",
    "quoted fields": HEADER + '"a,1",0,0.7,0.3\n"q""",0,0.5,0.5\ns2,"0",0.5,"0.5"\n',
    "unclosed quote": HEADER + '"a,0,0.7,0.3\n',
    "stray quote": HEADER + 'a"b,0,0.7,0.3\n',
    "NUL and percent ids": HEADER + "a\x00,0,0.7,0.3\n%d%s,0,0.5,0.5\n",
    "exponent and subnormal": HEADER + "s0,0,1e-05,0.99999\ns1,0,4.9e-324,1\n",
    "underscores and signs": HEADER + "s0,+0,1_0e-1,0.0\ns1,0_0,-0,1\n",
    "not normalized": HEADER + "s0,0,0.6,0.3\n",
    "nan": HEADER + "s0,0,nan,0.5\n",
    "out of range": HEADER + "s0,0,1.5,-0.5\n",
    "pass ids 1 and 0 order": HEADER + "b,1,0.7,0.3\na,1,0.2,0.8\nb,0,0.6,0.4\na,0,1,0\n",
    # a field of another type than its column states
    "pass id float": HEADER + "s0,0.9,0.7,0.3\n",
    "integral float pass id": HEADER + ROW + "s0,1.0,0.7,0.3\n",
    "pass id bool": HEADER + "s0,true,0.7,0.3\n",
    "pass id empty": HEADER + "s0,,0.7,0.3\n",
    "pass id exponent": HEADER + "s0,1e0,0.7,0.3\n",
    "pass id infinite": HEADER + "s0,inf,0.7,0.3\n",
    "pass id nan": HEADER + "s0,nan,0.7,0.3\n",
    "pass id hex": HEADER + "s0,0x0,0.7,0.3\n",
    "pass id leading zeros": HEADER + "s0,00,0.7,0.3\ns0,01,0.6,0.4\n",
    "pass id other digits": HEADER + "s0,\u0660,0.7,0.3\ns0,\u0661,0.6,0.4\n",
    "probability empty": HEADER + "s0,0,,0.3\n",
    "probability bools": HEADER + "s0,0,true,false\n",
    "hex probability": HEADER + "s0,0,0x1p-1,0.5\n",
    "header repeated": HEADER + ROW + HEADER,
    # probabilities that parse but fail the row checks, or pass them
    "infinite probability": HEADER + "s0,0,inf,0.3\n",
    "probability beyond float": HEADER + "s0,0,1e400,0.3\n",
    "Infinity words": HEADER + "s0,0,Infinity,-Infinity\n",
    "negative zero": HEADER + "s0,0,-0.0,1\n",
    "sum off by 1e-7": HEADER + "s0,0,0.7000001,0.3\n",
    "sum off by 1e-5": HEADER + "s0,0,0.70001,0.3\n",
    "nearly normalized": HEADER + "s0,0,0.7004,0.3\n",
    # sample ids are kept as written
    "empty sample id": HEADER + ",0,0.7,0.3\n,1,0.6,0.4\n",
    "padded sample id": HEADER + " s0 ,0,0.7,0.3\ns0,0,0.5,0.5\n",
    "non-ASCII ids": HEADER + "\u00e9,0,0.7,0.3\n\u4e2d,0,0.5,0.5\n",
    "quoted line break in id": HEADER + '"a\nb",0,0.7,0.3\n',
    # a malformed line is reported before a duplicate, wherever that sits
    "duplicate before short row": HEADER + ROW + ROW + "s1,0,0.5\n",
    "short row before duplicate": HEADER + ROW + "s1,0,0.5\n" + ROW,
    "short row then unclosed quote": HEADER + ROW + "s1,0,1.0\n\"\n",
    "bad pass id before duplicate": HEADER + ROW + ROW + "s1,x,0.5,0.5\n",
    "trailing comma": HEADER + "s0,0,0.7,0.3,\n",
    # headers
    "single class": "sample_id,pass_id,p_0\ns0,0,1\n",
    "no class columns": "sample_id,pass_id\ns0,0\n",
    "header without rows": HEADER,
    "byte order mark": "\ufeff" + HEADER + ROW,
    "classes out of order": "sample_id,pass_id,p_1,p_0\n" + ROW,
    "quoted header": '"sample_id","pass_id","p_0","p_1"\n' + ROW,
    "tab separated": HEADER.replace(",", "\t") + ROW.replace(",", "\t"),
    "only blank lines": "\n\n\r\n",
    "comment then blank line": "# c\n\n" + HEADER + ROW,
    # well-formed files
    "one row": HEADER + "s0,0,1,0\n",
    "three classes": "sample_id,pass_id,p_0,p_1,p_2\ns0,0,0.2,0.3,0.5\ns0,1,0.1,0.1,0.8\n",
    "passes out of order": HEADER + "s0,2,0.1,0.9\ns0,0,0.7,0.3\ns0,1,0.6,0.4\n",
    "interleaved samples": HEADER + "a,0,0.7,0.3\nb,0,0.4,0.6\na,1,0.6,0.4\nb,1,0.5,0.5\n",
    "missing pass 0": HEADER + "s0,1,0.7,0.3\n",
    "no final line end": HEADER + "s0,0,0.7,0.3",
}

# The first malformed line of a file is named with the csv/int()/float()
# message, at every chunk size, before any check across rows.
CSV_MESSAGES = {
    "too many fields": "3: expected 4 fields, got 5",
    "trailing comma": "2: expected 4 fields, got 5",
    "quoted line break in id": "2: expected 4 fields, got 1",
    "duplicate before short row": "4: expected 4 fields, got 3",
    "short row before duplicate": "3: expected 4 fields, got 3",
    "short row then unclosed quote": "3: expected 4 fields, got 3",
    "bad float before short row": "2: malformed row: could not convert string to float: 'x'",
    "short row before bad float": "2: expected 4 fields, got 3",
    "bad pass id before duplicate": "4: malformed row: invalid literal for int() with base 10: 'x'",
    "pass id float": "2: malformed row: invalid literal for int() with base 10: '0.9'",
    "integral float pass id": "3: malformed row: invalid literal for int() with base 10: '1.0'",
    "pass id bool": "2: malformed row: invalid literal for int() with base 10: 'true'",
    "pass id empty": "2: malformed row: invalid literal for int() with base 10: ''",
    "probability empty": "2: malformed row: could not convert string to float: ''",
    "probability bools": "2: malformed row: could not convert string to float: 'true'",
    "header repeated": "3: malformed row: invalid literal for int() with base 10: 'pass_id'",
}

# Files whose rows parse, so that the row checks decide, and with them renormalize.
ROW_CHECKED = ["not normalized", "nan", "out of range", "infinite probability",
               "probability beyond float", "Infinity words", "negative zero", "sum off by 1e-7",
               "sum off by 1e-5", "nearly normalized", "exponent and subnormal"]

class TestMalformedFiles:
    @pytest.mark.parametrize("chunk", [1, 2, None])
    @pytest.mark.parametrize("name", CSV_CASES)
    def test_same_outcome_as_oracle(self, tmp_path, name, chunk):
        path = tmp_path / "p.csv"
        path.write_bytes(CSV_CASES[name].encode("utf-8"))
        with chunk_rows(chunk):
            assert outcome(load_predictions, path) == outcome(oracle.load_predictions, path)

    @pytest.mark.parametrize("chunk", [1, 2, None])
    @pytest.mark.parametrize("name", CSV_MESSAGES)
    def test_malformed_line_named(self, tmp_path, name, chunk):
        path = tmp_path / "p.csv"
        path.write_bytes(CSV_CASES[name].encode("utf-8"))
        with chunk_rows(chunk):
            assert outcome(load_predictions, path) == ("FormatError", f"{path}:{CSV_MESSAGES[name]}")

    @pytest.mark.parametrize("name", ROW_CHECKED)
    def test_renormalized_same_outcome_as_oracle(self, tmp_path, name):
        path = tmp_path / "p.csv"
        path.write_bytes(CSV_CASES[name].encode("utf-8"))
        load, load_oracle = (partial(f, renormalize=True) for f in (load_predictions, oracle.load_predictions))
        assert outcome(load, path) == outcome(load_oracle, path)

    def test_errors_name_their_line(self, tmp_path):
        path = tmp_path / "p.csv"
        for text, message in (
            (CSV_CASES["too few fields"], r"p\.csv:2: expected 4 fields, got 3"),
            (CSV_CASES["bad float"], r"p\.csv:3: malformed row: could not convert string to float: 'x'"),
            (CSV_CASES["duplicate"], r"p\.csv: duplicate \(sample_id, pass_id\) \('s0', 0\)"),
            (CSV_CASES["non-contiguous"], r"p\.csv: sample 's0' pass ids \[0, 2\] are not the contiguous"),
        ):
            path.write_text(text)
            with pytest.raises(FormatError, match=message):
                load_predictions(path)

    @pytest.mark.parametrize("pass_id", ["99999999999999999999", "-99999999999999999999",
                                         str(2**63), str(-2**63 - 1)])
    def test_pass_id_beyond_64_bits(self, tmp_path, pass_id):
        # the oracle reports such a file as non-contiguous; this names the line
        path = tmp_path / "p.csv"
        path.write_text(HEADER + ROW + f"s0,{pass_id},0.7,0.3\n")
        with pytest.raises(FormatError, match=rf"p\.csv:3: pass id {pass_id} does not fit in 64 bits"):
            load_predictions(path)

    # Line edits applied to a valid file: drop, repeat, swap, blank, re-end, corrupt.
    EDITS = st.lists(st.tuples(st.sampled_from(["drop", "repeat", "swap", "blank", "crlf", "cr",
                                                "corrupt", "comma", "quote"]),
                               st.integers(0, 50), st.integers(0, 50)), min_size=1, max_size=3)

    @given(prediction_tensors(), EDITS, st.sampled_from([1, 3, None]))
    @settings(max_examples=200, deadline=None)
    def test_edited_files_same_outcome_as_oracle(self, tmp_path_factory, tensor, edits, chunk):
        lines = oracle.predictions_text(tensor, "manifest_digest=sha256:x").splitlines(True)
        for edit, i, j in edits:
            i, j = i % len(lines), j % len(lines)
            if edit == "drop":
                del lines[i]
            elif edit == "repeat":
                lines.insert(j, lines[i])
            elif edit == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            elif edit == "blank":
                lines.insert(i, "\n")
            elif edit in ("crlf", "cr"):
                lines[i] = lines[i].rstrip("\r\n") + ("\r\n" if edit == "crlf" else "\r")
            elif edit == "corrupt":
                lines[i] = lines[i][: j % (len(lines[i]) + 1)] + "x" + lines[i][j % (len(lines[i]) + 1):]
            else:
                cut = j % (len(lines[i]) + 1)
                lines[i] = lines[i][:cut] + ("," if edit == "comma" else '"') + lines[i][cut:]
            if not lines:
                break
        path = tmp_path_factory.mktemp("edit") / "p.csv"
        path.write_bytes("".join(lines).encode("utf-8"))
        with chunk_rows(chunk):
            assert outcome(load_predictions, path) == outcome(oracle.load_predictions, path)


class FullDisk:
    """A binary file whose writes fail with ENOSPC after the first ``good`` calls."""

    def __init__(self, fh, good):
        self.fh, self.good = fh, good

    def write(self, data):
        if self.good == 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.good -= 1
        return self.fh.write(data)

    def close(self):
        self.fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _tensor(seed):
    rng = np.random.default_rng(seed)
    return PredictionTensor(random_prob_rows(rng, 40, 3).reshape(10, 4, 3),
                            [f"s{i}" for i in range(10)])


# (file name, writer(path, version), successful writes before the disk fills)
WRITERS = [
    ("p.csv", lambda path, v: save_predictions(_tensor(v), path, header_comment="m"), 2),
    ("s.csv", lambda path, v: save_summaries(aggregate(_tensor(v), MCD), path), 0),
    ("l.csv", lambda path, v: save_labels(LabelSet(("a", "b"), np.array([v, 1])), path, "m"), 1),
    ("a.txt", lambda path, v: write_artifact(path, f"version {v}\n" * 100), 0),
    ("manifest.json", lambda path, v: write_manifest(build_manifest("x", {"v": v}, v), path), 0),
]


class TestAtomicWrites:
    @pytest.mark.parametrize("name, write, good", WRITERS, ids=[w[0] for w in WRITERS])
    def test_failed_write_keeps_previous_file(self, tmp_path, name, write, good):
        path = tmp_path / name
        write(path, 0)
        before = path.read_bytes()
        real_open = open
        with mock.patch.object(uqeval.tensor, "open", create=True,
                               side_effect=lambda *a, **kw: FullDisk(real_open(*a, **kw), good)):
            with pytest.raises(OSError, match="No space left on device"):
                write(path, 1)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [name]
        write(path, 1)
        assert path.read_bytes() != before
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_open_error_names_the_artifact(self, tmp_path):
        path = tmp_path / "missing" / "a.txt"
        with pytest.raises(FileNotFoundError) as info:
            write_artifact(path, "x")
        assert info.value.filename == str(path)

    def test_longest_file_name_writes(self, tmp_path):
        # the temporary file's name does not grow with the artifact's
        path = tmp_path / ("a" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 4) + ".csv")
        save_predictions(_tensor(0), path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_new_file_mode_follows_umask(self, tmp_path):
        # the temporary file is created like any other, not with mkstemp's 0600
        (tmp_path / "plain").write_text("x")
        write_artifact(tmp_path / "a.txt", "x")
        assert (tmp_path / "a.txt").stat().st_mode == (tmp_path / "plain").stat().st_mode


class TestWriterMemory:
    @staticmethod
    def peak_and_size(tmp_path, n_samples):
        """The traced peak of saving a seeded n_samples x 50 x 10 tensor, and the file's size."""
        rng = np.random.default_rng(0)
        tensor = PredictionTensor(rng.dirichlet(np.ones(10), size=(n_samples, 50)),
                                  [f"s{i}" for i in range(n_samples)])
        path = tmp_path / "p.csv"
        tracemalloc.start()
        try:
            save_predictions(tensor, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, os.path.getsize(path)

    def test_peak_below_file_size(self, tmp_path):
        # streamed: no whole-file buffer and no whole-tensor list of floats
        peak, size = self.peak_and_size(tmp_path, 2000)
        assert peak < size

    def test_peak_does_not_grow_with_the_cpus(self, tmp_path, monkeypatch):
        # with 8 usable CPUs the writer still renders and writes one job at a time
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        peak, size = self.peak_and_size(tmp_path, 2000)
        assert peak < size / 2
