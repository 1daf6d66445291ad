"""The block reader of load_dataset against the csv reader it replaced (``csvref``), and its memory."""
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csvref
from distcorr import screening
from distcorr.errors import DistcorrError
from distcorr.screening import load_dataset

BLOCKS = [5, 64, screening.BLOCK_CHARS]  # block sizes in characters: block edges everywhere, and the default


def outcome(load, path, **kwargs):
    """The Dataset that ``load`` reads, or its error's type and message."""
    try:
        return load(path, **kwargs)
    except DistcorrError as exc:
        return type(exc), str(exc)


def assert_same(path, block, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(screening, "BLOCK_CHARS", block)
        new = outcome(load_dataset, path, **kwargs)
    old = outcome(csvref.load_dataset, path, **kwargs)
    if isinstance(old, tuple) or isinstance(new, tuple):
        assert new == old
        return
    assert list(new.columns) == list(old.columns)
    for name, values in old.columns.items():  # equal bit for bit, NaNs included
        assert new.columns[name].dtype == values.dtype and new.columns[name].shape == values.shape
        assert np.array_equal(new.columns[name].view(np.int64), values.view(np.int64))
    assert (new.row_count, new.dropped_rows) == (old.row_count, old.dropped_rows)
    if old.group_labels is None:
        assert new.group_labels is None
    else:
        assert new.group_labels.dtype == old.group_labels.dtype
        assert new.group_labels.tolist() == old.group_labels.tolist()


def _rows(n, first=0):
    return b"".join(b"%d,%d\n" % (i, 2 * i) for i in range(first, first + n))


CORPUS = {
    # line endings
    "crlf": b"a,b\r\n1,2\r\n3,4\r\n",
    "crlf-after-clean-rows": b"a,b\n" + _rows(30) + b"5,6\r\n7,8\r\n",
    "lone-cr": b"a,b\r1,2\r3,4\r",
    "bom": b"\xef\xbb\xbfa,b\n1,2\n3,4\n",
    "no-final-newline": b"a,b\n1,2\n3,4",
    "one-column-no-final-newline": b"x\n1\n2",
    # quoting
    "quoted-cells": b'a,b\n"1",2\n3,"4"\n',
    "quoted-newline": b'g,a,b\n"x\ny",1,2\nz,"3\n",4\n',
    "quote-in-block-3": b"a,b\n" + _rows(20) + b'"20",40\n' + _rows(20, 21),
    "quoted-delimiter": b'a,b\n"1,5",2\n',
    # blank lines
    "trailing-blank-line": b"a,b\n1,2\n\n",
    "blank-line-inside": b"a,b\n1,2\n\n3,4\n",
    "whitespace-only-line": b"a,b\n1,2\n  \n3,4\n",
    "one-column-whitespace-line": b"a\n1\n  \n3\n",
    "one-column-blank-line": b"a\n1\n\n3\n",
    # small files
    "header-only": b"a,b\n",
    "header-only-no-newline": b"a,b",
    "empty": b"",
    "bom-only": b"\xef\xbb\xbf",
    "newline-only": b"\n",
    "newlines-only": b"\n\n\n",
    # ragged rows
    "ragged-first-row": b"a,b\n1\n3,4\n",
    "ragged-last-row": b"a,b\n" + _rows(20) + b"3,4,5\n",
    # bad bytes
    "not-utf8-first-block": b"a\n1\n\xff\n3\n",
    "not-utf8-later": b"a,b\n" + _rows(40) + b"1,\xe9\n",
    "truncated-utf8-at-end": b"a,b\n" + _rows(10) + b"1,\xe2\x82",
    "nul": b"a,b\n1,2\x00\n3,4\n",
    # a field longer than csv's limit of 131072 characters
    "long-unquoted-field": b"a,b\n1,2\n3," + b"4" * 200_000 + b"\n5,6\n",
    "long-quoted-field": b'a,b\n1,"' + b"2" * 200_000 + b'"\n',
    "long-line-short-fields": b"a,b\n1,2\n" + b"0" * 69_999 + b"3," + b"0" * 69_999 + b"4\n5,6\n",
    # cells
    "underscore-digits": b"a,b\n1_0,2\n3,4_5\n",
    "nan-cell": b"a,b\n1,nan\n3,4\n",
    "inf-cell": b"a,b\n1,2\n-inf,4\n",
    "nan-among-empty-cells": b"a,b\n1,\n2,nan\n3,4\n",
    "empty-cells": b"a,b\n1,\n,2\n3,4\n",
    "whitespace-cells": b"a,b\n1,  \n 3 ,4\n\t,6\n",
    "non-numeric-cell": b"a,b\n1,2\n3,four\n",
    "odd-numbers": "a,b\n١٢,+.5\n-0,4.9e-324\n 1.5 ,0.30000000000000004\n1e-310,-1.7976931348623157e308\n".encode(),
    # two faults in one file: the first by load_dataset's order wins
    "ragged-after-bad-cell": b"a,b\nx,2\n" + _rows(20) + b"1,2,3\n",
    "bad-cells-in-two-columns": b"a,b\n1,y\nx,2\n",
    "duplicate-header-and-ragged": b"a,a\n1\n",
    "not-utf8-after-ragged": b"a,b\n1\n" + _rows(20) + b"\xff\n",
    "bad-cell-then-missing": b"a,b\n1,\n2,z\n",
}


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("policy", ["reject", "drop-row", "pairwise-drop"])
@pytest.mark.parametrize("name", list(CORPUS))
def test_corpus_reads_as_the_csv_reader_did(tmp_path, name, policy, block):
    path = tmp_path / "data.csv"
    path.write_bytes(CORPUS[name])
    assert_same(path, block, missing_policy=policy)
    if CORPUS[name].startswith(b"a,b"):  # one column selected, or a missing one
        assert_same(path, block, columns=["b"], missing_policy=policy)
        assert_same(path, block, columns=["b", "c"], missing_policy=policy)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("delimiter", ["\t", ";", "§", " "])
def test_delimiters(tmp_path, delimiter, block):
    path = tmp_path / "data.csv"
    rows = [["g", "a", "b"], ["x y", "1", "2"], ["z", "", "4"], ["x y", "5", "6"]]
    path.write_text("".join(delimiter.join(row) + "\n" for row in rows), encoding="utf-8")
    for policy in ("reject", "pairwise-drop"):
        assert_same(path, block, delimiter=delimiter, group_by="g", missing_policy=policy)
        assert_same(path, block, delimiter=",", missing_policy=policy)


@pytest.mark.parametrize("block", BLOCKS)
def test_group_column_with_spaces(tmp_path, block):
    path = tmp_path / "data.csv"
    rows = b"".join(b"g%d,%d,1\n" % (i % 3, i) for i in range(40))
    path.write_bytes(b" g ,a,b\n red ,1,2\nblue  ,3,\n red,5,6\n" + rows)
    for policy in ("reject", "drop-row", "pairwise-drop"):
        assert_same(path, block, group_by="g", missing_policy=policy)
    assert_same(path, block, group_by="nope")
    assert_same(path, block, group_by="g", columns=["b", "a", "b"])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_reads_a_pipe(tmp_path):
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    text = b"a,b\n" + _rows(5000)

    def write():
        with open(path, "wb") as fh:
            fh.write(text)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        ds = load_dataset(path)
    finally:
        writer.join()
    assert ds.row_count == 5000 and ds.columns["b"].tolist() == [2.0 * i for i in range(5000)]


CELLS = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "1_0", "-0", " 2.5 ", "x", "1e-320", '"', ",", "\n", "\r\n", "a b"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-99, 99).map(str),
)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 4),
    table=st.lists(st.lists(st.tuples(CELLS, st.booleans()), min_size=4, max_size=4), max_size=8),
    ragged=st.booleans(),
    ending=st.sampled_from(["\n", "\r\n"]),
    final=st.booleans(),
    group=st.booleans(),
    policy=st.sampled_from(["reject", "drop-row", "pairwise-drop"]),
)
def test_random_tables_read_as_the_csv_reader_did(tmp_path_factory, k, table, ragged, ending, final, group, policy):
    # random cells, some quoted, a short row now and then, and 64-character blocks whose edges fall anywhere
    def cell(text, quoted):
        return '"' + text.replace('"', '""') + '"' if quoted else text

    rows = [[f"c{j}" for j in range(k)]] + [
        [cell(text, quoted) for text, quoted in row[: k - (ragged and i == 3)]] for i, row in enumerate(table)
    ]
    text = ending.join(",".join(row) for row in rows) + (ending if final else "")
    path = tmp_path_factory.mktemp("random") / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    kwargs = {"group_by": "c0"} if group and k > 1 else {}
    assert_same(path, 64, missing_policy=policy, **kwargs)


def _table(path, rows, k, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, k))
    values[rng.random((rows, k)) < 0.05] = np.nan  # gaps
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"v{j}" for j in range(k)) + "\n")
        for row in values:
            fh.write(",".join("" if np.isnan(v) else repr(float(v)) for v in row) + "\n")


def test_traced_peak_grows_with_the_floats_alone(tmp_path):
    # the floats, a column more while realloc moves it, and one block of text and its cells,
    # where the csv reader held every cell as a string until the end, about 70 bytes each
    k, peaks = 8, {}
    for rows in (20_000, 80_000):
        path = tmp_path / f"t{rows}.csv"
        _table(path, rows, k, rows)
        tracemalloc.start()
        ds = load_dataset(path, missing_policy="pairwise-drop")
        peaks[rows] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert ds.row_count == rows
        assert peaks[rows] <= 8 * (k + 1) * rows + 2**21, (rows, peaks)
    assert peaks[80_000] - peaks[20_000] <= 8 * (k + 1) * 60_000 + 2**19, peaks
