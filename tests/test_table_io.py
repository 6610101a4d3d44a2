"""Labels and summaries files through the chunked CSV table reader and the one table writer.

Both loaders are checked against the line-at-a-time readers in
``scalar_oracles``: on every file they must give the same object, or the same
exception type and message, whatever the chunk size. The cases where the
message differs on purpose are pinned in ``CHANGED``. A file that is not
UTF-8 fails the same way in these and both predictions readers.
"""

import contextlib
import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqeval.tensor
from uqeval import (
    FormatError,
    LabelSet,
    MCD,
    PredictionTensor,
    aggregate,
    load_labels,
    load_predictions,
    load_summaries,
    save_labels,
    save_predictions,
    save_summaries,
)

from uqeval.tensor import FLOAT_MAX, FULL_FORMAT, csv_fields, csv_table

import scalar_oracles as oracle
from conftest import random_prob_rows


@contextlib.contextmanager
def chunk_rows(size):
    """Parse files ``size`` lines at a time, or the default if ``size`` is None."""
    with mock.patch.object(uqeval.tensor, "CHUNK_ROWS", size or uqeval.tensor.CHUNK_ROWS):
        yield


def outcome(load, path):
    """What loading ``path`` gives: the object's columns, or the error."""
    try:
        loaded = load(path)
    except Exception as exc:  # compared, never hidden: both loaders must agree
        return type(exc).__name__, str(exc)
    if isinstance(loaded, LabelSet):
        return loaded.sample_ids, loaded.labels.dtype, loaded.labels.tolist()
    return (loaded.sample_ids, loaded.predicted_class.dtype, loaded.predicted_class.tolist(),
            *(column.tobytes() for column in (loaded.means, loaded.confidence, loaded.entropy,
                                              loaded.normalized_entropy)))


LABELS = "sample_id,label\n"

LABEL_CASES = {
    "plain": LABELS + "s0,1\ns1,0\ns2,2\n",
    "quoted ids": LABELS + '"a,1",0\n"q""",1\ns2,"1"\n"#x",0\n',
    "CRLF": LABELS.replace("\n", "\r\n") + "s0,1\r\ns1,0\r\n",
    "CR": LABELS.replace("\n", "\r") + "s0,1\rs1,0",
    "mixed line ends": LABELS + "s0,1\r\r\ns1,0\rs2,1\r\n",
    "blank lines": "\n" + LABELS + "\ns0,1\n\n\ns1,0\n\n",
    "leading comment": "# manifest_digest=sha256:x\n" + LABELS + "#x,0\n",
    "comment line in body": LABELS + "s0,1\n# note\n",
    "header only": "# c\n" + LABELS,
    "empty": "",
    "comment only": "# c\n\n",
    "bad header": "id,label\ns0,1\n",
    "too few fields": LABELS + "s0,1\ns1\n",
    "too many fields": LABELS + "s0,1\ns1,0,2\n",
    "unquoted comma in id": LABELS + "a,b,1\n",
    "bad label": LABELS + "s0,1\ns1,x\n",
    "float label": LABELS + "s0,1.0\n",
    "whitespace, signs and underscores": LABELS + "s0, 1 \ns1,+0\ns2,1_0\n",
    "negative label": LABELS + "s0,-1\n",
    "unclosed quote": LABELS + '"a,1\n',
    "stray quote": LABELS + 'a"b,1\n',
    "NUL and percent ids": LABELS + "a\x00,0\n%d%s,1\n",
    "duplicate": LABELS + "s0,1\ns1,0\ns0,0\n",
    "bad label after duplicate": LABELS + "s0,1\ns0,0\ns1,x\n",
    "bad label before duplicate": LABELS + "s0,x\ns0,0\n",
    "label beyond 64 bits": LABELS + "s0,1\ns1,99999999999999999999\n",
    "label 2**63": LABELS + "s0,9223372036854775808\n",
    "label -2**63": LABELS + "s0,-9223372036854775808\n",
}

SUMMARIES = "sample_id,predicted_class,confidence,entropy,normalized_entropy,p_0,p_1\n"
UNIFORM = "0,0.5,1,1,0.5,0.5"
SURE = "1,1,0,0,0,1"

SUMMARY_CASES = {
    "plain": SUMMARIES + f"s0,{UNIFORM}\ns1,{SURE}\n",
    "quoted ids": SUMMARIES + f'"a,1",{UNIFORM}\n"q""",{SURE}\ns2,"0",0.5,1,1,"0.5",0.5\n',
    "CRLF": SUMMARIES.replace("\n", "\r\n") + f"s0,{UNIFORM}\r\ns1,{SURE}\r\n",
    "CR": SUMMARIES.replace("\n", "\r") + f"s0,{UNIFORM}\rs1,{SURE}",
    "blank lines": "\n" + SUMMARIES + f"\ns0,{UNIFORM}\n\n\ns1,{SURE}\n\n",
    "leading comment": "# manifest_digest=sha256:x\n" + SUMMARIES + f"#x,{UNIFORM}\n",
    "header only": "# c\n" + SUMMARIES,
    "empty": "",
    "bad header": "sample_id,predicted,confidence,entropy,normalized_entropy,p_0,p_1\n",
    "one class": "sample_id,predicted_class,confidence,entropy,normalized_entropy,p_0\n",
    "class columns swapped": SUMMARIES.replace("p_0,p_1", "p_1,p_0") + f"s0,{SURE}\n",
    "class columns misnamed": SUMMARIES.replace("p_0,p_1", "foo,bar") + f"s0,{UNIFORM}\n",
    "class column misnamed after a bad row":
        SUMMARIES.replace("p_1", "p_2") + f"s0,{UNIFORM}\ns1,1,x,0,0,0,1\n",
    "too few fields": SUMMARIES + f"s0,{UNIFORM}\ns1,1,1,0,0,0\n",
    "too many fields": SUMMARIES + f"s0,{UNIFORM},0\n",
    "bad float": SUMMARIES + f"s0,{UNIFORM}\ns1,1,x,0,0,0,1\n",
    "bad class": SUMMARIES + "s0,zero,0.5,1,1,0.5,0.5\n",
    "whitespace, signs and underscores": SUMMARIES + "s0, +0 ,0.5, 1,1_0e-1_0,0.5,0.5\n"
                                         + "s1,1,1,0,-0, 0 ,1\n",
    "nan": SUMMARIES + "s0,0,nan,1,1,0.5,0.5\n",
    "not argmax": SUMMARIES + "s0,1,0.9,0.469,0.469,0.9,0.1\n",
    "entropy of another mean": SUMMARIES + "s0,0,0.9,0.01,0.01,0.9,0.1\n",
    "duplicate": SUMMARIES + f"s0,{UNIFORM}\ns1,{SURE}\ns0,{UNIFORM}\n",
    "bad float after duplicate": SUMMARIES + f"s0,{UNIFORM}\ns0,{UNIFORM}\ns1,1,x,0,0,0,1\n",
    "class beyond 64 bits": SUMMARIES + f"s0,{UNIFORM}\ns1,-99999999999999999999,1,0,0,0,1\n",
    "class 2**63": SUMMARIES + "s0,9223372036854775808,0.5,1,1,0.5,0.5\n",
}

# The messages the table reader changes, on purpose: a malformed number is a
# "malformed row" in all three files, a duplicate id is found once every row
# has parsed (so it carries no line, and a later malformed row comes first),
# and an integer beyond 64 bits names its line and column (the line-at-a-time
# readers let numpy's OverflowError escape).
CHANGED = {
    ("labels", "bad label"):
        "{path}:3: malformed row: invalid literal for int() with base 10: 'x'",
    ("labels", "float label"):
        "{path}:2: malformed row: invalid literal for int() with base 10: '1.0'",
    ("labels", "bad label before duplicate"):
        "{path}:2: malformed row: invalid literal for int() with base 10: 'x'",
    ("labels", "duplicate"): "{path}: duplicate sample id 's0'",
    ("labels", "bad label after duplicate"):
        "{path}:4: malformed row: invalid literal for int() with base 10: 'x'",
    ("labels", "label beyond 64 bits"): "{path}:3: label 99999999999999999999 does not fit in 64 bits",
    ("labels", "label 2**63"): "{path}:2: label 9223372036854775808 does not fit in 64 bits",
    ("summaries", "bad float"): "{path}:3: malformed row: could not convert string to float: 'x'",
    ("summaries", "bad class"):
        "{path}:2: malformed row: invalid literal for int() with base 10: 'zero'",
    ("summaries", "bad float after duplicate"):
        "{path}:4: malformed row: could not convert string to float: 'x'",
    ("summaries", "class beyond 64 bits"):
        "{path}:3: predicted class -99999999999999999999 does not fit in 64 bits",
    ("summaries", "class 2**63"):
        "{path}:2: predicted class 9223372036854775808 does not fit in 64 bits",
}

LOADERS = {"labels": (load_labels, oracle.load_labels),
           "summaries": (load_summaries, oracle.load_summaries)}
CASES = [("labels", name, text) for name, text in LABEL_CASES.items()] + [
    ("summaries", name, text) for name, text in SUMMARY_CASES.items()]


@pytest.mark.parametrize("chunk", [1, 2, None])
@pytest.mark.parametrize("kind, name, text", CASES, ids=[f"{k}-{n}" for k, n, _ in CASES])
def test_same_outcome_as_oracle(tmp_path, kind, name, text, chunk):
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(text.encode("utf-8"))
    load, load_oracle = LOADERS[kind]
    with chunk_rows(chunk):
        got = outcome(load, path)
    if (kind, name) in CHANGED:
        assert got == ("FormatError", CHANGED[kind, name].format(path=path))
        assert outcome(load_oracle, path) != got
    else:
        assert got == outcome(load_oracle, path)


IDS = ("a,1", '"q"', "#h", "%d", "x\x00", " s ", "é") + tuple(f"s{i}" for i in range(23))


@pytest.mark.parametrize("chunk", [1, 2, 5, None])
def test_labels_round_trip(tmp_path, chunk):
    labels = LabelSet(IDS, np.random.default_rng(3).integers(0, 5, len(IDS)))
    path = tmp_path / "l.csv"
    save_labels(labels, path, header_comment="manifest_digest=sha256:x")
    with chunk_rows(chunk):
        back = load_labels(path)
    assert back.sample_ids == labels.sample_ids
    assert back.labels.tolist() == labels.labels.tolist()
    assert outcome(load_labels, path) == outcome(oracle.load_labels, path)


@pytest.mark.parametrize("chunk", [1, 2, 5, None])
@pytest.mark.parametrize("base", ["2", "e"])
def test_summaries_round_trip(tmp_path, chunk, base):
    probs = random_prob_rows(np.random.default_rng(4), len(IDS) * 3, 4).reshape(len(IDS), 3, 4)
    summaries = aggregate(PredictionTensor(probs, IDS), MCD, base)
    path = tmp_path / "s.csv"
    save_summaries(summaries, path, header_comment="manifest_digest=sha256:x")
    with chunk_rows(chunk):
        got = outcome(load_summaries, path)
    assert got == outcome(lambda _: summaries, path)
    assert got == outcome(oracle.load_summaries, path)


# each reader, and a writer of a file it loads; all four share one line reader
READERS = {
    "predictions csv": (load_predictions, "p.csv", lambda t, path: save_predictions(t, path)),
    "labels": (load_labels, "l.csv",
               lambda t, path: save_labels(LabelSet(t.sample_ids, [0] * t.n_samples), path)),
    "summaries": (load_summaries, "s.csv", lambda t, path: save_summaries(aggregate(t, MCD), path)),
}


@pytest.mark.parametrize("chunk", [1, None])
@pytest.mark.parametrize("where", ["start", "end"])
@pytest.mark.parametrize("reader", READERS)
def test_a_file_that_is_not_utf8_is_a_format_error_naming_it(tmp_path, reader, where, chunk):
    load, name, save = READERS[reader]
    path = tmp_path / name
    save(PredictionTensor(np.full((30, 2, 2), 0.5), IDS), path)
    good = path.read_bytes()
    path.write_bytes(b"\xff" + good if where == "start" else good + b"\xff\n")
    with chunk_rows(chunk), pytest.raises(FormatError) as info:
        load(path)
    assert str(info.value) == f"{path}: not UTF-8 text (invalid start byte)"


# ids holding what csv quotes or a % template would read, and any finite double
TABLE_IDS = st.text(st.sampled_from(',"%#') | st.characters(exclude_characters="\r\n",
                                                             exclude_categories=("Cs",)))
DOUBLES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-320, FLOAT_MAX, -FLOAT_MAX])


@given(st.lists(st.tuples(TABLE_IDS, DOUBLES, st.none() | DOUBLES), max_size=20))
@settings(max_examples=300, deadline=None)
def test_csv_table_reads_back_ids_doubles_and_na(rows):
    ids, values, optional = (list(column) for column in zip(*rows)) if rows else ([], [], [])
    text = csv_table(("id", "%d", "maybe"), ("%s", FULL_FORMAT, FULL_FORMAT),
                     csv_fields(ids), np.array(values), optional)
    header, *body = csv.reader(io.StringIO(text))
    assert header == ["id", "%d", "maybe"] and len(body) == len(rows)
    assert [cells[0] for cells in body] == ids
    assert [float(cells[1]).hex() for cells in body] == [v.hex() for v in values]
    assert [cells[2] if cells[2] == "n/a" else float(cells[2]).hex() for cells in body] == [
        "n/a" if v is None else v.hex() for v in optional]
