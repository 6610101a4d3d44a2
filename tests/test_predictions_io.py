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

FORMATS = ("csv", "jsonl")

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


def outcome(load, path, fmt):
    """What loading ``path`` gives: the tensor's ids and probabilities, or the error."""
    try:
        tensor = load(path, fmt)
    except Exception as exc:  # compared, never hidden: both loaders must agree
        return type(exc).__name__, str(exc)
    return tensor.sample_ids, tensor.probs.shape, tensor.probs.tobytes()


class TestWriterBytes:
    @given(prediction_tensors(), st.sampled_from(FORMATS), st.none() | ID_TEXT)
    @settings(max_examples=150, deadline=None)
    @example(PredictionTensor(np.array([[[1.0, 0.0]], [[5e-324, 1.0]], [[3e-5, 0.99997]]]),
                              ("a,1", '"q"', "%d%s")), "csv", "manifest_digest=sha256:x")
    @example(PredictionTensor(np.array([[[0.5, 0.5]], [[0.25, 0.75]], [[1e-10, 1.0]]]),
                              ("#x", "\x00", "%%")), "jsonl", "100%")
    def test_same_bytes_as_oracle(self, tmp_path_factory, tensor, fmt, comment):
        path = tmp_path_factory.mktemp("w") / f"p.{fmt}"
        save_predictions(tensor, path, header_comment=comment)
        assert path.read_bytes() == oracle.predictions_text(tensor, fmt, comment).encode("utf-8")

    @given(prediction_tensors(), st.sampled_from(FORMATS), st.sampled_from([1, 2, 5, None]))
    @settings(max_examples=150, deadline=None)
    def test_load_of_save_is_exact(self, tmp_path_factory, tensor, fmt, chunk):
        # 9-significant-digit values are the ones a file states exactly
        tensor = PredictionTensor(oracle.quantize_probs(tensor.probs), tensor.sample_ids)
        path = tmp_path_factory.mktemp("rt") / f"p.{fmt}"
        save_predictions(tensor, path, header_comment="manifest_digest=sha256:x")
        with chunk_rows(chunk):
            back = load_predictions(path)
        assert back.sample_ids == tensor.sample_ids
        assert np.array_equal(back.probs, tensor.probs)
        assert outcome(oracle.load_predictions, path, fmt) == outcome(load_predictions, path, fmt)


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

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_every_fallback_in_every_column(self, tmp_path, fmt):
        # each value in each column of both formats: "4.94065646e-324" follows ", " in JSONL;
        # the ids hold the writer's row marks, NUL, quotes, commas and a % format
        odd = [0.0, -0.0, 1e-300, 5e-324, 9.99999999999e-5, 0.0999999999996, 0.5009765625,
               1.5e-5]
        row, one = odd + [1.0 - math.fsum(odd)], [1.0] + [0.0] * len(odd)
        rows = [np.roll(r, i) for r in (row, one) for i in range(len(row))]
        probs = np.array(rows)[:, np.newaxis, :].repeat(2, axis=1)
        ids = [f"{c}{i}" for i, c in enumerate(["\x02", "\x01", "\x00", '"', ",", "%s", "é"] * 3)]
        tensor = PredictionTensor(probs, ids[:len(rows)])
        path = tmp_path / f"p.{fmt}"
        save_predictions(tensor, path)
        assert path.read_bytes() == oracle.predictions_text(tensor, fmt).encode()


HEADER = "sample_id,pass_id,p_0,p_1\n"

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
}

JSONL_ROW = '{"sample_id": "s0", "pass_id": 0, "p": [0.7, 0.3]}\n'

JSONL_CASES = {
    "bad JSON": JSONL_ROW + '{"sample_id": "s0", "pass_id": 1, "p": [0.7, 0.3}\n',
    "two values on a line": JSONL_ROW.rstrip("\n") + " " + JSONL_ROW,
    "value split over lines":
        '{"sample_id": "s0", "pass_id": 0,\n "p": [0.7, 0.3]}\n',
    "missing key": '{"sample_id": "s0", "p": [0.7, 0.3]}\n',
    "not an object": "[1, 2]\n",
    "p a number": '{"sample_id": "s0", "pass_id": 0, "p": 1}\n',
    "p a string": '{"sample_id": "s0", "pass_id": 0, "p": "01"}\n',
    "p an object": '{"sample_id": "s0", "pass_id": 0, "p": {"1": 0, "0": 1}}\n',
    "pass id text": '{"sample_id": "s0", "pass_id": "0", "p": [0.7, 0.3]}\n',
    "pass id bad text": '{"sample_id": "s0", "pass_id": "x", "p": [0.7, 0.3]}\n',
    "pass id float and bool": '{"sample_id": "s0", "pass_id": 0.9, "p": [0.7, 0.3]}\n'
                              '{"sample_id": "s0", "pass_id": true, "p": [0.7, 0.3]}\n',
    "pass id null": '{"sample_id": "s0", "pass_id": null, "p": [0.7, 0.3]}\n',
    "numeric sample id": '{"sample_id": 5, "pass_id": 0, "p": [0.7, 0.3]}\n',
    "surrogate sample id": '{"sample_id": "\\ud800", "pass_id": 0, "p": [0.7, 0.3]}\n',
    "line break in sample id": '{"sample_id": "a\\nb", "pass_id": 0, "p": [0.7, 0.3]}\n',
    "class counts differ": JSONL_ROW + '{"sample_id": "s1", "pass_id": 0, "p": [0.2, 0.3, 0.5]}\n',
    "duplicate before class count":
        JSONL_ROW + JSONL_ROW + '{"sample_id": "s1", "pass_id": 0, "p": [0.2, 0.3, 0.5]}\n',
    "class count before duplicate":
        JSONL_ROW + '{"sample_id": "s0", "pass_id": 0, "p": [0.2, 0.3, 0.5]}\n' + JSONL_ROW,
    "class count then bad JSON":
        JSONL_ROW + '{"sample_id": "s1", "pass_id": 0, "p": [1.0]}\n{\n',
    "ragged": JSONL_ROW + JSONL_ROW.replace('"pass_id": 0', '"pass_id": 1')
              + JSONL_ROW.replace('"s0"', '"s1"'),
    "non-contiguous": JSONL_ROW.replace('"pass_id": 0', '"pass_id": 3'),
    "blank lines and CRLF": "\r\n" + JSONL_ROW.replace("\n", "\r\n") + "\r\r\n",
    "leading comment": "# manifest\n" + JSONL_ROW,
    "NaN probability": '{"sample_id": "s0", "pass_id": 0, "p": [NaN, 0.3]}\n',
    "empty": "\n\n",
    "fractional pass id after pass 0":
        JSONL_ROW + '{"sample_id": "s0", "pass_id": 1.7, "p": [0.7, 0.3]}\n',
    "integral float pass id": JSONL_ROW + '{"sample_id": "s0", "pass_id": 1.0, "p": [0.7, 0.3]}\n',
    "pass id bool": '{"sample_id": "s0", "pass_id": true, "p": [0.7, 0.3]}\n',
    "null sample id": '{"sample_id": null, "pass_id": 0, "p": [0.7, 0.3]}\n',
    "p text and bool": '{"sample_id": "s0", "pass_id": 0, "p": ["0.5", true]}\n',
    "p bools": '{"sample_id": "s0", "pass_id": 0, "p": [true, false]}\n',
    "empty p first": '{"sample_id": "s0", "pass_id": 0, "p": []}\n'
                     '{"sample_id": "s1", "pass_id": 0, "p": [0.5, 0.5]}\n',
    "every p empty": '{"sample_id": "s0", "pass_id": 0, "p": []}\n'
                     '{"sample_id": "s1", "pass_id": 0, "p": []}\n',
}

# A record whose class count differs from the first record's is malformed at
# its line, like a CSV row with a wrong field count, so it is reported before
# a duplicate pass wherever that sits and before any later malformed line. An
# empty first p sets the class count to 0, not to "not known yet".
JSONL_CLASS_COUNTS = {
    "class counts differ": "p.jsonl:2: sample 's1' pass 0 has 3 probabilities, expected 2",
    "duplicate before class count": "p.jsonl:3: sample 's1' pass 0 has 3 probabilities, expected 2",
    "class count before duplicate": "p.jsonl:2: sample 's0' pass 0 has 3 probabilities, expected 2",
    "class count then bad JSON": "p.jsonl:2: sample 's1' pass 0 has 1 probabilities, expected 2",
    "empty p first": "p.jsonl:2: sample 's1' pass 0 has 2 probabilities, expected 0",
    "every p empty": "p.jsonl: need at least two classes",
}

# Records of the right shape whose values have another type than the grammar
# states. The reader used to coerce them (pass id 1.7 or true became 1, sample
# id 5 became "5", p "01" became [0.0, 1.0]); it now rejects them, naming the
# line. The oracle follows the same rule, because the line-edit fuzz below can
# quote a number into a string.
JSONL_REJECTED = {
    "p a number": "1: malformed record: p must be an array of numbers, got 1",
    "p a string": '1: malformed record: p must be an array of numbers, got "01"',
    "p an object": '1: malformed record: p must be an array of numbers, got {"1": 0, "0": 1}',
    "pass id text": '1: malformed record: pass_id must be an integer, got "0"',
    "pass id bad text": '1: malformed record: pass_id must be an integer, got "x"',
    "pass id float and bool": "1: malformed record: pass_id must be an integer, got 0.9",
    "pass id null": "1: malformed record: pass_id must be an integer, got null",
    "numeric sample id": "1: malformed record: sample_id must be a string, got 5",
    "fractional pass id after pass 0": "2: malformed record: pass_id must be an integer, got 1.7",
    "integral float pass id": "2: malformed record: pass_id must be an integer, got 1.0",
    "pass id bool": "1: malformed record: pass_id must be an integer, got true",
    "null sample id": "1: malformed record: sample_id must be a string, got null",
    "p text and bool": '1: malformed record: p must be an array of numbers, got ["0.5", true]',
    "p bools": "1: malformed record: p must be an array of numbers, got [true, false]",
}


class TestMalformedFiles:
    @pytest.mark.parametrize("chunk", [1, 2, None])
    @pytest.mark.parametrize("fmt, text", [("csv", t) for t in CSV_CASES.values()]
                             + [("jsonl", t) for t in JSONL_CASES.values()],
                             ids=[f"csv-{k}" for k in CSV_CASES] + [f"jsonl-{k}" for k in JSONL_CASES])
    def test_same_outcome_as_oracle(self, tmp_path, fmt, text, chunk):
        path = tmp_path / f"p.{fmt}"
        path.write_bytes(text.encode("utf-8"))
        with chunk_rows(chunk):
            assert outcome(load_predictions, path, fmt) == outcome(oracle.load_predictions, path, fmt)

    @pytest.mark.parametrize("chunk", [1, None])
    @pytest.mark.parametrize("name", JSONL_REJECTED)
    def test_jsonl_values_of_another_type_rejected(self, tmp_path, name, chunk):
        path = tmp_path / "p.jsonl"
        path.write_bytes(JSONL_CASES[name].encode("utf-8"))
        with chunk_rows(chunk):
            assert outcome(load_predictions, path, "jsonl") == (
                "FormatError", f"{path}:{JSONL_REJECTED[name]}")

    @pytest.mark.parametrize("chunk", [1, 2, None])
    @pytest.mark.parametrize("name", JSONL_CLASS_COUNTS)
    def test_jsonl_class_count_named_at_its_line(self, tmp_path, name, chunk):
        path = tmp_path / "p.jsonl"
        path.write_bytes(JSONL_CASES[name].encode("utf-8"))
        with chunk_rows(chunk):
            assert outcome(load_predictions, path, "jsonl") == (
                "FormatError", f"{tmp_path}/{JSONL_CLASS_COUNTS[name]}")

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

    @pytest.mark.parametrize("fmt, text, message", [
        ("csv", HEADER + "s0,99999999999999999999,0.7,0.3\n", r"p\.csv:2: pass id 9{20} "),
        ("jsonl", '{"sample_id": "s0", "pass_id": -99999999999999999999, "p": [0.7, 0.3]}\n',
         r"p\.jsonl:1: pass id -9{20} "),
    ])
    def test_pass_id_beyond_64_bits(self, tmp_path, fmt, text, message):
        # the oracle reports such a file as non-contiguous; this names the line
        path = tmp_path / f"p.{fmt}"
        path.write_text(text)
        with pytest.raises(FormatError, match=message + "does not fit in 64 bits"):
            load_predictions(path)

    @pytest.mark.parametrize("text, message", [
        ('{"sample_id": "s0", "pass_id": Infinity, "p": [0.7, 0.3]}\n',
         "pass_id must be an integer, got Infinity"),
        ('{"sample_id": "s0", "pass_id": 0, "p": [1' + "0" * 400 + ', 0.3]}\n',
         "int too large to convert to float"),
    ], ids=["pass id infinite", "probability beyond float"])
    def test_jsonl_overflow_names_its_line(self, tmp_path, text, message):
        # the oracle lets OverflowError escape; the reader reports it like any malformed
        # record, and an infinite pass id is a float, not an integer
        path = tmp_path / "p.jsonl"
        path.write_text(text)
        with pytest.raises(FormatError, match=r"p\.jsonl:1: malformed record: " + message):
            load_predictions(path)

    # Line edits applied to a valid file: drop, repeat, swap, blank, re-end, corrupt.
    EDITS = st.lists(st.tuples(st.sampled_from(["drop", "repeat", "swap", "blank", "crlf", "cr",
                                                "corrupt", "comma", "quote"]),
                               st.integers(0, 50), st.integers(0, 50)), min_size=1, max_size=3)

    @given(prediction_tensors(), st.sampled_from(FORMATS), EDITS, st.sampled_from([1, 3, None]))
    @settings(max_examples=200, deadline=None)
    def test_edited_files_same_outcome_as_oracle(self, tmp_path_factory, tensor, fmt, edits, chunk):
        lines = oracle.predictions_text(tensor, fmt, "manifest_digest=sha256:x").splitlines(True)
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
        path = tmp_path_factory.mktemp("edit") / f"p.{fmt}"
        path.write_bytes("".join(lines).encode("utf-8"))
        with chunk_rows(chunk):
            assert outcome(load_predictions, path, fmt) == outcome(oracle.load_predictions, path, fmt)


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
    ("p.jsonl", lambda path, v: save_predictions(_tensor(v), path), 1),
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
    def peak_and_size(tmp_path, fmt, n_samples):
        """The traced peak of saving a seeded n_samples x 50 x 10 tensor, and the file's size."""
        rng = np.random.default_rng(0)
        tensor = PredictionTensor(rng.dirichlet(np.ones(10), size=(n_samples, 50)),
                                  [f"s{i}" for i in range(n_samples)])
        path = tmp_path / f"p.{fmt}"
        tracemalloc.start()
        try:
            save_predictions(tensor, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, os.path.getsize(path)

    # JSONL shares the CSV's per-sample loop; a smaller tensor keeps the traced run short
    @pytest.mark.parametrize("fmt, n_samples", [("csv", 2000), ("jsonl", 500)])
    def test_peak_below_file_size(self, tmp_path, fmt, n_samples):
        # streamed: no whole-file buffer and no whole-tensor list of floats
        peak, size = self.peak_and_size(tmp_path, fmt, n_samples)
        assert peak < size

    @pytest.mark.parametrize("fmt, n_samples", [("csv", 2000), ("jsonl", 500)])
    def test_peak_does_not_grow_with_the_cpus(self, tmp_path, monkeypatch, fmt, n_samples):
        # with 8 usable CPUs the writer still renders and writes one job at a time
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        peak, size = self.peak_and_size(tmp_path, fmt, n_samples)
        assert peak < size / 2
