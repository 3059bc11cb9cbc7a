"""The 0/1 cell rule shared by CSV tables and arrays, against a per-cell oracle,
also across ``validate_table``'s chunks of cells, the byte reader of
canonical CSV files against ``validate_table`` on whole-file ``csv.reader``
rows, and ``read_counts`` against ``read_csv``'s cross-products."""

import csv
import io
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfci import dataset
from perfci.covariance import estimate_targets
from perfci.dataset import BinaryDataset, make_targets, read_counts, read_csv, validate_table
from perfci.errors import DatasetError, LengthMismatchError, NonBinaryValueError, TooFewRowsError
from perfci.measures import builtin_measures

TOKENS = ["0", "1", " 1 ", "1.0", "-0", "+1", "1e0", "1_0", "0x1", "", "nan", "inf",
          "0.5", "yes", " 1", "\x1c1"]
VALUES = [0, 1, None, True, np.int8(1), -0.0, 2, {}, 10**400, " 1 ", "\x1c1", "yes"]


def _read(cell):
    # the per-cell reading of the CSV parser this rule replaced; for arrays
    # it adds the two deliberate changes: strings are stripped (so "\x1c1"
    # reads as 1) and a float overflow (10**400) is a non-binary value
    return float(cell.strip() if isinstance(cell, str) else cell)


def oracle_table(header, rows):
    names = [h.strip() for h in header]
    columns = {name: [] for name in names}
    n = 0
    for row in rows:
        cells = list(row)
        if not cells:
            continue
        n += 1
        if len(cells) != len(names):
            raise LengthMismatchError(f"row {n} has {len(cells)} fields, header has {len(names)}")
        for name, tok in zip(names, cells):
            try:
                value = _read(tok)
            except ValueError:
                raise NonBinaryValueError(n, name, tok) from None
            if value not in (0.0, 1.0):
                raise NonBinaryValueError(n, name, tok)
            columns[name].append(int(value))
    if n < 2:
        raise TooFewRowsError(n)
    return columns


def oracle_column(values, col):
    out = []
    for i, v in enumerate(np.asarray(values)):
        # a bad cell of an array is named by its Python value
        shown = v.item() if isinstance(v, np.generic) else v
        try:
            value = _read(v)
        except (TypeError, ValueError, OverflowError):
            raise NonBinaryValueError(i + 1, col, shown) from None
        if value not in (0.0, 1.0):
            raise NonBinaryValueError(i + 1, col, shown)
        out.append(int(value))
    return out


def oracle_arrays(z, rules):
    columns = {"z": oracle_column(z, "z")}
    n = len(columns["z"])
    if n < 2:
        raise TooFewRowsError(n)
    for rule_id, values in rules:
        columns[rule_id] = oracle_column(values, rule_id)
        if len(columns[rule_id]) != n:
            raise LengthMismatchError(f"column {rule_id!r} has {len(columns[rule_id])} rows, z has {n}")
    return columns


def outcome(build, *args):
    """``("ok", columns)`` or ``("error", class, message)``."""
    try:
        result = build(*args)
    except Exception as exc:  # the outcomes are compared, whatever they are
        return ("error", type(exc), str(exc))
    if isinstance(result, BinaryDataset):
        assert result.z.dtype == np.uint8
        result = {"z": result.z.tolist(), **{r: result.rule(r).tolist() for r in result.rule_ids}}
    return ("ok", result)


@st.composite
def tables(draw):
    header = draw(st.permutations(["z", "a", "b"][: draw(st.integers(2, 3))]))
    width = len(header)
    token = st.one_of(st.sampled_from(["0", "1"]), st.sampled_from(TOKENS))
    full = st.lists(token, min_size=width, max_size=width)
    ragged = st.lists(token, max_size=width + 1)
    rows = draw(st.lists(st.one_of(full, full, full, ragged), max_size=6))
    return header, rows


@st.composite
def arrays(draw):
    n = draw(st.integers(0, 5))
    value = st.one_of(st.sampled_from([0, 1]), st.sampled_from(VALUES))
    column = st.one_of(
        st.lists(value, min_size=n, max_size=n),
        st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n),
        st.lists(value, max_size=5),
    )
    z = draw(column)
    rules = [(f"r{k}", draw(column)) for k in range(draw(st.integers(1, 2)))]
    return z, rules


@settings(max_examples=400, deadline=None)
@given(tables())
def test_validate_table_matches_the_per_cell_oracle(table):
    header, rows = table
    assert outcome(validate_table, header, rows) == outcome(oracle_table, header, rows)


@settings(max_examples=400, deadline=None)
@given(tables(), st.integers(1, 12))
def test_validate_table_matches_the_per_cell_oracle_across_chunks(table, chunk):
    # chunks of at least 1 to 12 cells (_BLOCK_CHARS // 4) put a chunk end
    # after any row of these tables of up to 18 cells, so the first bad
    # cell and a ragged row fall in one chunk or in two
    header, rows = table
    with mock.patch.object(dataset, "_BLOCK_CHARS", 4 * chunk):
        assert outcome(validate_table, header, rows) == outcome(oracle_table, header, rows)


def test_validate_table_holds_one_chunk_of_cells():
    # 300,000 distinct "1.0" strings, 60 bytes each with their list slot,
    # would take about 18 MB held at once
    rows = ([format(1.0, ".1f") for _ in range(10)] for _ in range(30_000))
    header = ["z", *(f"r{j}" for j in range(9))]
    tracemalloc.start()
    try:
        with mock.patch.object(dataset, "_BLOCK_CHARS", 1 << 14):  # 4,096 cells
            data = validate_table(header, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert data.n == 30_000 and data.z.all() and all(data.rule(r).all() for r in data.rule_ids)


def test_validate_table_keeps_the_error_order_across_chunks():
    def rows(tail):
        yield ["1", "x"]
        yield from [["0", "1"]] * 40  # 20 chunks of 4 cells
        yield from tail

    def stream_error():
        raise csv.Error("bad stream")
        yield

    with mock.patch.object(dataset, "_BLOCK_CHARS", 4 * 4):
        # rows are drained past the first bad cell: a later stream error wins
        with pytest.raises(csv.Error, match="bad stream"):
            validate_table(["z", "r"], rows(stream_error()))
        # a bad cell beats a ragged row below it, chunks away
        with pytest.raises(NonBinaryValueError, match="'x' at row 1, column 'r'"):
            validate_table(["z", "r"], rows([["0"], ["1", "y"]]))
        with pytest.raises(NonBinaryValueError, match="'y' at row 41, column 'r'"):
            validate_table(["z", "r"], [*rows([["1", "y"], ["0"]])][1:])
        with pytest.raises(LengthMismatchError, match="row 41 has 1 fields"):
            validate_table(["z", "r"], [*rows([["0"], ["1", "y"]])][1:])


@settings(max_examples=400, deadline=None)
@given(arrays())
@example(([0.0, float("nan")], [("r0", [0, 1])]))
@example(([1.0, 0.0], [("r0", [-float("inf"), 1.0])]))
@example(([-0.0, 1.0], [("r0", np.array([1.0, -0.0], np.float32))]))
@example(([1.0, 1.0 + 2.0**-52], [("r0", [0, 1])]))
@example((np.array([1, 0], np.float16), [("r0", np.array([0.5, 1], np.float16))]))
@example((np.array([True, False]), [("r0", np.array([False, True]))]))
@example((np.array([1, 2**64 - 1], np.uint64), [("r0", [0, 1])]))
@example((np.array([np.longdouble(1) + 2.0**-60, 0]), [("r0", [1, 0])]))
def test_from_arrays_matches_the_per_cell_oracle(columns):
    z, rules = columns
    assert outcome(BinaryDataset.from_arrays, z, rules) == outcome(oracle_arrays, z, rules)


def test_from_arrays_reads_cells_as_csv_cells_do():
    # the deliberate changes against the earlier per-column reading
    data = BinaryDataset.from_arrays(["\x1c1", "0"], {"r": [" 0", "1"]})
    assert data.z.tolist() == [1, 0] and data.rule("r").tolist() == [0, 1]
    assert validate_table(["z", "r"], [["\x1c1", " 0"], ["0", "1"]]).z.tolist() == [1, 0]
    with pytest.raises(NonBinaryValueError, match="at row 1, column 'z'"):
        BinaryDataset.from_arrays([10**400, 0], {"r": [0, 1]})
    with pytest.raises(NonBinaryValueError, match=r"value \{\} at row 2, column 'r'"):
        BinaryDataset.from_arrays([0, 1], {"r": [1, {}]})
    # complex values are not 0/1, even next to a real 1 or with no imaginary part
    with pytest.raises(NonBinaryValueError, match=r"\(1\+0j\) at row 2"):
        BinaryDataset.from_arrays([1, 1 + 0j, None], {"r": [0, 1, 0]})
    with pytest.raises(NonBinaryValueError, match=r"value \(1\+1j\) at row 1"):
        BinaryDataset.from_arrays(np.array([1 + 1j, 0j]), {"r": [0, 1]})


def test_a_bad_cell_of_any_array_is_named_by_its_python_value():
    # as a CSV cell reads 'x', not a numpy scalar such as np.str_('x')
    for column, shown in [
        (np.array(["0", "x"]), "'x' at row 2"),
        (np.array([b"1", b"x"]), "b'x' at row 2"),
        (np.array([1 + 0j, 0j]), r"\(1\+0j\) at row 1"),  # no complex cell is 0/1
        (np.array([0, "x"], dtype=object), "'x' at row 2"),
        (np.array([1, np.float64(2)], dtype=object), "2.0 at row 2"),
    ]:
        with pytest.raises(NonBinaryValueError, match=rf"value {shown}, column 'r'$"):
            BinaryDataset.from_arrays([0, 1], {"r": column})


def _is_binary(token):
    try:
        return _read(token) in (0.0, 1.0)
    except ValueError:
        return False


# cells of a CSV line: the good TOKENS and good quoted cells, two of these
# with a line break inside their quotes (so their record spans two lines);
# the bad TOKENS and bad quoted cells (a stray quote, an empty quoted cell,
# escaped quotes, a quoted comma); and an unclosed quote
GOOD = [tok for tok in TOKENS if _is_binary(tok)] + ['"1"', '" 0"', '"1\n"', '"0\r\n"']
BAD = [tok for tok in TOKENS if not _is_binary(tok)] + ['1"', '""', '"1"""', '"1,0"']
ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def csv_texts(draw):
    header = draw(st.permutations(["z", "a", "b"][: draw(st.integers(2, 3))]))
    header = [draw(st.sampled_from([name, name, f'"{name}"', f" {name}"])) for name in header]
    width = len(header)
    binary = st.sampled_from(["0", "1"])
    if draw(st.booleans()):  # a table that may be valid: good cells, no ragged rows
        cell = st.one_of(binary, st.sampled_from(GOOD))
        line = st.one_of(st.lists(cell, min_size=width, max_size=width).map(",".join), st.just(""))
    else:
        cell = st.one_of(binary, binary, st.sampled_from(GOOD), st.sampled_from(BAD + ['"1']))
        full = st.lists(cell, min_size=width, max_size=width).map(",".join)
        ragged = st.lists(cell, max_size=width + 1).map(",".join)
        line = st.one_of(full, full, full, ragged, st.sampled_from(["", " ", " \t "]))
    pool = draw(st.lists(line, min_size=1, max_size=4))  # lines that repeat
    rows = draw(st.lists(st.one_of(line, st.sampled_from(pool)), min_size=2, max_size=10))
    if draw(st.booleans()):  # below repeated lines, a line with one bad cell, maybe twice
        cells = draw(st.lists(binary, min_size=width, max_size=width))
        cells[draw(st.integers(0, width - 1))] = draw(st.sampled_from(BAD))
        for _ in range(draw(st.integers(1, 2))):
            rows.insert(draw(st.integers(len(rows) // 2, len(rows))), ",".join(cells))
    endings = draw(st.sampled_from([*([e] for e in ENDINGS), ENDINGS]))  # one kind, or mixed
    text = "".join(body + draw(st.sampled_from(endings)) for body in [",".join(header), *rows])
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line break
    if draw(st.integers(0, 3)) == 0:
        text = "\ufeff" + text
    return text


def reference_csv(stream):
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetError("empty input: no header row") from None
    return validate_table(header, reader)


def read_outcome(read, open_source):
    """``outcome`` of ``read`` with the cross-products, from a fresh stream."""
    try:
        with open_source() as stream:
            data = read(stream)
    except Exception as exc:  # the outcomes are compared, whatever they are
        return ("error", type(exc), str(exc))
    c = data._cross_products()
    return (
        "ok",
        data.rule_ids,
        [(col.dtype, col.tolist()) for col in (data.z, *map(data.rule, data.rule_ids))],
        (c.dtype, c.tolist()),
    )


@settings(max_examples=300, deadline=None)
@given(csv_texts())
def test_read_csv_matches_csv_reader_rows(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_bytes(text.encode())
    opened = lambda: open(path, newline="", encoding="utf-8-sig")  # as read_csv opens paths
    want = read_outcome(reference_csv, opened)
    assert read_outcome(lambda _: read_csv(path), opened) == want
    assert read_outcome(lambda _: read_csv(str(path)), opened) == want
    streams = lambda: io.StringIO(text)
    assert read_outcome(read_csv, streams) == read_outcome(reference_csv, streams)
    # read_counts folds csv.reader chunks into counts as it folds canonical blocks
    want = counts_outcome(read_csv, path)
    assert counts_outcome(read_counts, path) == counts_outcome(read_counts, str(path)) == want
    assert counts_outcome(read_counts, streams()) == counts_outcome(read_csv, streams())


def test_read_csv_joins_quoted_fields_over_lines():
    text = 'z,r\n"1\n",0\r\n0,"1"\n\n"1\n",0\r\n1,1'
    data = read_csv(io.StringIO(text))
    assert data.z.tolist() == [1, 0, 1, 1] and data.rule("r").tolist() == [0, 1, 0, 1]
    with pytest.raises(NonBinaryValueError, match=r"'1\\nx' at row 3, column 'z'"):
        read_csv(io.StringIO('z,r\n0,1\n1,1\n"1\nx",0\n0,0'))
    # a bad cell's row is where its line first appears, blank lines not counted
    with pytest.raises(NonBinaryValueError, match="'x' at row 3, column 'r'"):
        read_csv(io.StringIO("z,r\n0,1\n\n0,1\n1,x\n0,1\n1,x\n"))


def test_read_csv_keeps_the_csv_field_size_limit():
    text = "z,r\n0,1\n" + "0" * 20 + "1,0\n"
    limit = csv.field_size_limit(10)
    try:
        with pytest.raises(csv.Error, match="field larger than field limit"):
            reference_csv(io.StringIO(text))
        with pytest.raises(csv.Error, match="field larger than field limit"):
            read_csv(io.StringIO(text))
    finally:
        csv.field_size_limit(limit)
    assert read_csv(io.StringIO(text)).z.tolist() == [0, 1]


def test_read_csv_keeps_the_csv_field_size_limit_in_a_canonical_header(tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"z," + b"r" * 20 + b"\n0,1\n1,0\n")
    limit = csv.field_size_limit(10)
    try:
        with pytest.raises(csv.Error, match="field larger than field limit"):
            read_csv(path)
    finally:
        csv.field_size_limit(limit)
    assert read_csv(path).rule_ids == ("r" * 20,)


@settings(max_examples=300, deadline=None)
@given(csv_texts(), st.integers(1, 12))
def test_read_csv_matches_csv_reader_rows_across_blocks(tmp_path_factory, text, block):
    # small blocks put block ends everywhere: inside a line, a quoted field
    # or a "\r\n", and on either side of the first "\r" or '"'
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_bytes(text.encode())
    opened = lambda: open(path, newline="", encoding="utf-8-sig")
    with mock.patch.object(dataset, "_BLOCK_CHARS", block):
        assert read_outcome(lambda _: read_csv(path), opened) == read_outcome(reference_csv, opened)
        assert counts_outcome(read_counts, path) == counts_outcome(read_csv, path)
        streams = lambda: io.StringIO(text)
        assert counts_outcome(read_counts, streams()) == counts_outcome(read_csv, streams())


@pytest.mark.parametrize("ragged_first", [True, False])
def test_read_csv_fails_on_bytes_that_are_not_utf8_as_line_by_line(tmp_path, ragged_first):
    # the bad byte lies past the first 8 KiB, which line-by-line reading
    # decodes alone; a ragged row before it ends that reading first
    rows = ["0,1"] * 3000
    rows[1 if ragged_first else 2900] = "0,1,1"
    path = tmp_path / "table.csv"
    path.write_bytes(("z,r\n" + "\n".join(rows[:2500])).encode() + b"\xff\n"
                     + "\n".join(rows[2500:]).encode())
    opened = lambda: open(path, newline="", encoding="utf-8-sig")
    want = read_outcome(reference_csv, opened)
    assert want[1] is (LengthMismatchError if ragged_first else UnicodeDecodeError)
    assert read_outcome(lambda _: read_csv(path), opened) == want


# edits that make a canonical table non-canonical: of one data line (its
# first cell or its line break), or of the whole file or its header
ROW_EDITS = {
    "bad cell": lambda row: b"2" + row[1:],
    "padded cell": lambda row: b" 1 " + row[1:],
    "float cell": lambda row: b"1.0" + row[1:],
    "bare CR": lambda row: row[:-1] + b"\r",
    "quoted cell": lambda row: b'"' + row[:1] + b'"' + row[1:],
    "blank line": lambda row: b"\n" + row,
    "extra field": lambda row: row[:-1] + b",1\n",
    "short row": lambda row: row[2:],
    "NUL": lambda row: row[:1] + b"\0" + row[1:],
    "0xff byte": lambda row: row[:1] + b"\xff" + row[1:],
    "joined cells": lambda row: row[:1] + b"0" + row[2:],
}
FILE_EDITS = {
    "CRLF endings": lambda lines: [line[:-1] + b"\r\n" for line in lines],
    "trailing blank line": lambda lines: lines + [b"\n"],
    "header not UTF-8": lambda lines: [lines[0][:-1] + b"\xff\n", *lines[1:]],
    "CR in header": lambda lines: [lines[0][:1] + b"\r" + lines[0][1:], *lines[1:]],
    "NUL in header": lambda lines: [lines[0][:1] + b"\0" + lines[0][1:], *lines[1:]],
    "quoted header field": lambda lines: [b'"' + lines[0][:-1] + b'"\n', *lines[1:]],
}


@st.composite
def canonical_files(draw):
    """The bytes of a canonical table, or of one with one edit: ``n`` rows
    of ``rules`` rules, some with fewer than ``2**(rules + 1) / 2`` rows."""
    rules = draw(st.integers(1, 6))
    edit = draw(st.sampled_from([None, None, *ROW_EDITS, *FILE_EDITS]))
    n = draw(st.integers(1 if edit in ROW_EDITS else 0, 80))
    names = [f"r{j}" for j in range(rules)]
    names.insert(draw(st.integers(0, rules)), "z")
    seed = draw(st.integers(0, 2**32 - 1))
    grid = np.random.default_rng(seed).integers(0, 2, (n, rules + 1))
    lines = [(",".join(names) + "\n").encode()] + [(",".join(map(str, row)) + "\n").encode() for row in grid]
    if edit in ROW_EDITS:
        i = draw(st.integers(1, n))
        lines[i] = ROW_EDITS[edit](lines[i])
    elif edit in FILE_EDITS:
        lines = FILE_EDITS[edit](lines)
    text = b"".join(lines)
    if draw(st.booleans()):
        text = b"\xef\xbb\xbf" + text
    if draw(st.booleans()) and text.endswith(b"\n"):
        text = text[:-1]  # no final line break
    return text


@settings(max_examples=300, deadline=None)
@given(canonical_files(), st.integers(1, 64))
def test_read_csv_reads_canonical_files_as_csv_reader_rows(tmp_path_factory, text, block):
    # small blocks end a block on every line, and take the missing final
    # line break in a block of its own
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_bytes(text)
    opened = lambda: open(path, newline="", encoding="utf-8-sig")
    with mock.patch.object(dataset, "_BLOCK_CHARS", block):
        assert read_outcome(lambda _: read_csv(path), opened) == read_outcome(reference_csv, opened)


@settings(max_examples=300, deadline=None)
@given(canonical_files(), st.booleans(), st.booleans(), st.integers(1, 64))
def test_read_csv_reads_crlf_and_quoted_header_files_as_csv_reader_rows(
    tmp_path_factory, text, crlf, quoted, block
):
    bom = text[:3] if text.startswith(b"\xef\xbb\xbf") else b""
    header, newline, rows = text[len(bom):].partition(b"\n")
    if quoted:  # each header field in quotes, as R's write.csv writes them
        header = b",".join(b'"' + field + b'"' for field in header.split(b","))
    text = bom + header + newline + rows
    if crlf:
        text = text.replace(b"\n", b"\r\n")
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_bytes(text)
    opened = lambda: open(path, newline="", encoding="utf-8-sig")
    with mock.patch.object(dataset, "_BLOCK_CHARS", block):
        assert read_outcome(lambda _: read_csv(path), opened) == read_outcome(reference_csv, opened)


@pytest.mark.parametrize("text", [
    b"r,z,s\r\n1,1,0\r\n0,1,1\r\n1,1,0\r\n0,0,0\r\n",
    b"r,z,s\r\n1,1,0\r\n0,1,1\r\n1,1,0\r\n0,0,0",
    b'"r","z","s"\n1,1,0\n0,1,1\n1,1,0\n0,0,0\n',
    b'\xef\xbb\xbf"r",z," s"\r\n1,1,0\r\n0,1,1\r\n1,1,0\r\n0,0,0',
], ids=["crlf", "crlf, no final line end", "quoted header", "bom, quoted header, crlf"])
def test_read_csv_reads_crlf_and_quoted_header_files_as_a_byte_matrix(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_bytes(text)
    opened = lambda: open(path, newline="", encoding="utf-8-sig")
    want = read_outcome(reference_csv, opened)
    assert want[0] == "ok"
    with mock.patch.object(dataset, "_read_csv_stream", side_effect=AssertionError):
        assert read_outcome(lambda _: read_csv(path), opened) == want


@pytest.mark.parametrize("text", [b'z,"r\n1,0\n0,1\n', b'z,"r\r\n1,0\r\n0,1\r\n'])
def test_read_csv_reads_a_header_quote_left_open_as_csv_reader_rows(tmp_path, text):
    # the quoted field takes in every line below the header: there are no rows
    path = tmp_path / "table.csv"
    path.write_bytes(text)
    opened = lambda: open(path, newline="", encoding="utf-8-sig")
    want = read_outcome(reference_csv, opened)
    assert want[1] is TooFewRowsError
    assert read_outcome(lambda _: read_csv(path), opened) == want


def test_read_csv_reads_a_canonical_file_as_a_byte_matrix(tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"\xef\xbb\xbfr,z,s\n1,1,0\n0,1,1\n1,1,0\n0,0,0")
    with mock.patch.object(dataset, "_read_csv_stream", side_effect=AssertionError):
        data = read_csv(path)
        with pytest.raises(AssertionError):  # the csv.reader fallback reads any other input
            read_csv(io.StringIO("z,r\n1,0\n0,1\n"))
    assert data.rule_ids == ("r", "s")
    assert data.z.tolist() == [1, 1, 1, 0]
    assert data.rule("r").tolist() == [1, 0, 1, 0] and data.rule("s").tolist() == [0, 1, 0, 0]
    # indicator columns z*r, z*s, r, s, z
    assert data._cross_products().tolist() == [
        [2, 0, 2, 0, 2], [0, 1, 0, 1, 1], [2, 0, 2, 0, 2], [0, 1, 0, 1, 1], [2, 1, 2, 1, 3]
    ]


def test_read_csv_reads_every_row_of_a_fifo(tmp_path):
    # a FIFO has no size to count its rows by; it is opened once, and read
    # by csv.reader
    path = tmp_path / "table.fifo"
    os.mkfifo(path)
    rows = ["1,0", "0,1", "1,1"] * 1000

    def write():
        with open(path, "w") as fh:
            fh.write("z,r\n" + "\n".join(rows) + "\n")

    read = []  # a reader that opens the FIFO twice would wait for a writer forever
    threads = [threading.Thread(target=write, daemon=True),
               threading.Thread(target=lambda: read.append(read_csv(path)), daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    (data,) = read
    assert data.n == 3000
    assert data.z.tolist() == [int(row[0]) for row in rows]
    assert data.rule("r").tolist() == [int(row[2]) for row in rows]


@pytest.mark.parametrize("size", [0, 9, 21, 100])
def test_read_csv_reads_a_file_whose_size_is_wrong(tmp_path, size):
    # a regular file may report another size than it holds, as Linux procfs
    # files report 0; the row count taken from the size is then wrong
    path = tmp_path / "table.csv"
    path.write_bytes(b"z,r\n1,0\n0,1\n1,1\n0,0\n")
    true_stat = os.fstat

    def fstat(fd):
        fields = list(true_stat(fd))
        fields[6] = size  # st_size
        return os.stat_result(fields)

    with mock.patch.object(dataset.os, "fstat", fstat):
        data = read_csv(path)
    assert data.z.tolist() == [1, 0, 1, 0] and data.rule("r").tolist() == [0, 1, 1, 0]


def tally(grid):
    """The cross-products of the indicator columns ``z*a, a, z`` of a ``(rows,
    1 + R)`` 0/1 ``grid``, ``z`` first, as lists of ints: float64 sums of
    0/1 products over chunks of rows, exact below 2**53."""
    c = np.zeros((2 * grid.shape[1] - 1,) * 2)
    for chunk in np.array_split(grid, len(grid) // 65536 + 1):
        z, a = chunk[:, :1].astype(float), chunk[:, 1:].astype(float)
        x = np.hstack([z * a, a, z])
        c += x.T @ x
    return c.astype(np.int64).tolist()


def counts_outcome(read, source):
    """``read(source)`` as its counts: rule ids, ``n`` and the cross-products
    with their dtype, or the error."""
    try:
        data = read(source)
    except Exception as exc:  # the outcomes are compared, whatever they are
        return ("error", type(exc), str(exc))
    c = data._cross_products()
    return ("ok", data.rule_ids, data.n, c.dtype, c.tolist())


@st.composite
def canonical_variants(draw):
    """``canonical_files``, some with ``\\r\\n`` line ends or a quoted header."""
    text = draw(canonical_files())
    bom = text[:3] if text.startswith(b"\xef\xbb\xbf") else b""
    header, newline, rows = text[len(bom):].partition(b"\n")
    if draw(st.booleans()):
        header = b",".join(b'"' + field + b'"' for field in header.split(b","))
    text = bom + header + newline + rows
    return text.replace(b"\n", b"\r\n") if draw(st.booleans()) else text


def _table_bytes(names, grid):
    return (",".join(names) + "\n").encode() + b"".join((",".join(map(str, row)) + "\n").encode() for row in grid)


# 70 columns, z the 31st: 139 indicator columns, far past the bins' cap
_WIDE_GRID = np.random.default_rng(11).integers(0, 2, (5, 70))[np.random.default_rng(12).integers(0, 5, 40)]
WIDE_FILE = _table_bytes([f"r{j}" for j in range(30)] + ["z"] + [f"r{j}" for j in range(30, 69)], _WIDE_GRID)


@settings(max_examples=300, deadline=None)
@given(canonical_variants(), st.integers(1, 64))
@example(WIDE_FILE, 64)  # a line per block
@example(WIDE_FILE, 1 << 20)  # one block
@example(_table_bytes(["z", "r0"], [[1, 0], [0, 0], [1, 1], [1, 0]]), 64)  # 4 bins for 4 rows: bincount
@example(_table_bytes(["r0", "z", "r1"], [[1, 0, 1], [0, 0, 1], [1, 0, 1]]), 6)  # 8 bins for 3 rows: products
@example(_table_bytes(["r0", "z", "r1"], [[1, 0, 1], [0, 0, 1], [1, 1, 1]] * 2 + [[0, 1, 0]]), 6)  # binned 4 + 3
def test_read_counts_counts_as_read_csv_rows(tmp_path_factory, text, block):
    # rows go to one bin per possible row when there are at most 2n bins,
    # binned in batches of at least half as many rows as bins, else each
    # block is added into the cross-products; blocks of 1 to 64 bytes put
    # block ends on every line, between the batches and between the products
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_bytes(text)
    with mock.patch.object(dataset, "_BLOCK_CHARS", block):
        want = counts_outcome(read_csv, path)
        assert counts_outcome(read_counts, path) == want
    if want[0] == "ok":
        with pytest.raises(DatasetError, match="counts only"):
            read_counts(path).z


def test_read_counts_adds_wide_blocks_into_the_cross_products(tmp_path):
    # 24 columns are past the bins' cap; one row per block makes a product each
    grid = np.random.default_rng(4).integers(0, 2, (6, 24))[np.random.default_rng(5).integers(0, 6, 200)]
    path = tmp_path / "table.csv"
    path.write_bytes(_table_bytes(["z"] + [f"r{j}" for j in range(23)], grid))
    with mock.patch.object(dataset, "_BLOCK_CHARS", 48):
        assert counts_outcome(read_counts, path) == counts_outcome(read_csv, path)


@pytest.mark.parametrize("text", [
    b"\xef\xbb\xbfr,z,s\n1,1,0\n0,1,1\n1,1,0\n0,0,0",
    b"r,z,s\r\n1,1,0\r\n0,1,1\r\n1,1,0\r\n0,0,0\r\n",
    b'"r","z","s"\n1,1,0\n0,1,1\n1,1,0\n0,0,0\n',
])
def test_read_counts_folds_a_canonical_file_without_csv_reader(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_bytes(text)
    want = counts_outcome(read_csv, path)
    assert want[:3] == ("ok", ("r", "s"), 4)
    with mock.patch.object(dataset, "_read_csv_stream", side_effect=AssertionError):
        assert counts_outcome(read_counts, path) == want
        with pytest.raises(AssertionError):  # any other input is read by csv.reader
            read_counts(io.StringIO(text.decode("utf-8-sig")))


@pytest.mark.parametrize("text", [b"a,r\n0,1\n1,\xff\n", b"a,r\n0,1\n1,0\n", b"z,r\n0,1\n1,\xff\n"])
def test_a_refused_header_fails_as_csv_reader_rows(tmp_path, text):
    # csv.reader decodes the line that is not UTF-8 with the header, so that
    # error comes before the header's; below canonical lines the header's comes
    path = tmp_path / "table.csv"
    path.write_bytes(text)
    opened = lambda: open(path, newline="", encoding="utf-8-sig")
    want = read_outcome(reference_csv, opened)
    assert want[0] == "error"
    assert read_outcome(lambda _: read_csv(path), opened) == want
    assert counts_outcome(read_counts, path) == want


@pytest.mark.parametrize("stream", [False, True])
def test_read_counts_adds_csv_reader_chunks_into_the_cross_products(tmp_path, stream):
    # csv.reader rows, whose count is not known, are added into the
    # cross-products, as 2**24 possible rows would be at any n; a chunk of
    # one row makes a product each
    grid = np.random.default_rng(4).integers(0, 2, (6, 24))[np.random.default_rng(5).integers(0, 6, 200)]
    path = tmp_path / "table.csv"
    path.write_text("z," + ",".join(f"r{j}" for j in range(23)) + "\n"
                    + "".join(",".join(f"{cell:.1f}" for cell in row) + "\n" for row in grid))
    source = (lambda: io.StringIO(path.read_text())) if stream else (lambda: path)
    with mock.patch.object(dataset, "_BLOCK_CHARS", 4 * 24):
        with mock.patch.object(dataset, "_indicators", wraps=dataset._indicators) as indicators:
            got = counts_outcome(read_counts, source())
        assert indicators.call_count == 200  # no bins: every row is one float32 product
        assert all(call.args[2] is np.float32 for call in indicators.call_args_list)
        assert got == counts_outcome(read_csv, source())
    assert got[:3] == ("ok", tuple(f"r{j}" for j in range(23)), 200)


def test_read_counts_of_csv_reader_rows_holds_one_chunk(tmp_path):
    # 100,000 rows of z and 10 rules with "1.0" cells: the rows, a byte per
    # cell and its copy, took 2.4 MB; 1,024 cell strings take about 60 kB
    rows = 100_000
    text = np.empty((rows, 44), np.uint8)
    text[:, 0::4] = np.random.default_rng(9).integers(0, 2, (rows, 11), np.uint8) + ord("0")
    text[:, 1::4], text[:, 2::4], text[:, 3::4] = ord("."), ord("0"), ord(",")
    text[:, -1] = ord("\n")
    path = tmp_path / "table.csv"
    path.write_bytes((",".join(["z"] + [f"rule{j}" for j in range(10)]) + "\n").encode() + text.tobytes())
    want = tally(text[:, 0::4] - ord("0"))
    del text
    tracemalloc.start()
    try:
        with mock.patch.object(dataset, "_BLOCK_CHARS", 1 << 12):  # 1,024 cells
            data = read_counts(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.n == rows and data._cross_products().tolist() == want
    assert peak < 1e6


def test_read_counts_fits_as_the_rows_do(tmp_path):
    rng = np.random.default_rng(8)
    grid = rng.integers(0, 2, (3000, 4))
    path = tmp_path / "table.csv"
    path.write_bytes(_table_bytes(["r0", "z", "r1", "r2"], grid))
    rows, counts = read_csv(path), read_counts(path)
    targets = make_targets(rows.rule_ids, [m.id for m in builtin_measures()])
    want, got = estimate_targets(rows, targets), estimate_targets(counts, targets)
    assert np.array_equal(got.failed, want.failed) and got.errors[0].keys() == want.errors[0].keys()
    assert np.array_equal(got.estimates, want.estimates, equal_nan=True)
    assert np.array_equal(got.v, want.v)


def test_read_counts_memory_does_not_grow_with_n(tmp_path):
    # 10**6 rows of z and 10 rules, the layout of the benchmark's table;
    # read_csv holds about 30 MB for them, a byte per cell twice and a code per row
    rows = 10**6
    rng = np.random.default_rng(9)
    text = np.empty((rows, 22), np.uint8)
    text[:, 0::2] = rng.integers(0, 2, (rows, 11), np.uint8) + ord("0")
    text[:, 1::2] = ord(",")
    text[:, -1] = ord("\n")
    path = tmp_path / "table.csv"
    path.write_bytes((",".join(["z"] + [f"rule{j}" for j in range(10)]) + "\n").encode() + text.tobytes())
    want = tally(text[:, 0::2] - ord("0"))
    del text
    tracemalloc.start()
    try:
        data = read_counts(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.n == rows and data._cross_products().tolist() == want
    assert peak < 8 * 2**20


def test_read_counts_memory_does_not_grow_with_n_past_the_bins(tmp_path):
    # 31 columns of random rows, nearly all distinct: the sorted distinct
    # rows that were kept past the bins' cap grew with n; the products of
    # one block do not
    peaks = []
    for rows in (50_000, 200_000):
        text = np.empty((rows, 62), np.uint8)
        text[:, 0::2] = np.random.default_rng(rows).integers(0, 2, (rows, 31), np.uint8) + ord("0")
        text[:, 1::2] = ord(",")
        text[:, -1] = ord("\n")
        path = tmp_path / f"wide{rows}.csv"
        path.write_bytes((",".join(["z"] + [f"rule{j}" for j in range(30)]) + "\n").encode() + text.tobytes())
        want = tally(text[:, 0::2] - ord("0"))
        del text
        tracemalloc.start()
        try:
            data = read_counts(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert data.n == rows and data._cross_products().tolist() == want
    assert peaks[1] < peaks[0] + 2**18, peaks


def _bench_layout(rows, seed, end=b"\n"):
    """A header and ``rows`` random lines of z and 10 rules in the benchmark's
    byte layout, with line ends ``end``, and the cells as a 0/1 grid."""
    grid = np.random.default_rng(seed).integers(0, 2, (rows, 11), np.uint8)
    text = np.empty((rows, 21 + len(end)), np.uint8)
    text[:, 0:21:2] = grid + ord("0")
    text[:, 1:20:2] = ord(",")
    text[:, 21:] = np.frombuffer(end, np.uint8)
    header = ",".join(["z"] + [f"rule{j}" for j in range(10)]).encode() + end
    return header + text.tobytes(), grid


def test_read_counts_at_the_default_block_size_stays_in_cache(tmp_path):
    # 10**6 rows in blocks of at most _BLOCK_CHARS bytes: a block, its masked
    # copy, the mask and the template took 4.6 MiB in 1 MiB blocks, more
    # than a core's 2 MiB L2 cache
    text, grid = _bench_layout(10**6, 9)
    path = tmp_path / "table.csv"
    path.write_bytes(text)
    want = tally(grid)
    del text, grid
    tracemalloc.start()
    try:
        data = read_counts(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.n == 10**6 and data._cross_products().tolist() == want
    assert peak < 2 * 2**20


def test_read_counts_of_many_default_blocks_is_read_csv(tmp_path):
    # 50,000 "\r\n" lines, the last one without its end, are at least four
    # blocks of _BLOCK_CHARS bytes, none of them cut by a test
    text, _ = _bench_layout(50_000, 10, b"\r\n")
    path = tmp_path / "table.csv"
    path.write_bytes(text[:-2])
    assert path.stat().st_size >= 4 * dataset._BLOCK_CHARS
    opened = lambda: open(path, newline="", encoding="utf-8-sig")
    want = read_outcome(reference_csv, opened)
    assert want[0] == "ok" and len(want[2][0][1]) == 50_000
    with mock.patch.object(dataset, "_read_csv_stream", side_effect=AssertionError):
        assert read_outcome(lambda _: read_csv(path), opened) == want
        assert counts_outcome(read_counts, path) == counts_outcome(read_csv, path)
