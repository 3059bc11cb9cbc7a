"""The 0/1 cell rule shared by CSV tables and arrays, against a per-cell oracle,
and the line reader of CSV files against the whole-file ``csv.reader``."""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfci import dataset
from perfci.dataset import BinaryDataset, read_csv, validate_table
from perfci.errors import DatasetError, LengthMismatchError, NonBinaryValueError, TooFewRowsError

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
        try:
            value = _read(v)
        except (TypeError, ValueError, OverflowError):
            raise NonBinaryValueError(i + 1, col, v) from None
        if value not in (0.0, 1.0):
            raise NonBinaryValueError(i + 1, col, v)
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
    with pytest.raises(NonBinaryValueError, match=r"complex128\(1\+1j\) at row 1"):
        BinaryDataset.from_arrays(np.array([1 + 1j, 0j]), {"r": [0, 1]})


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
    """``outcome`` of ``read`` with the row counts, from a fresh stream."""
    try:
        with open_source() as stream:
            data = read(stream)
    except Exception as exc:  # the outcomes are compared, whatever they are
        return ("error", type(exc), str(exc))
    patterns, counts = data.row_counts()
    return (
        "ok",
        data.rule_ids,
        [(col.dtype, col.tolist()) for col in (data.z, *map(data.rule, data.rule_ids))],
        (patterns.dtype, patterns.tolist(), counts.dtype, counts.tolist()),
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
