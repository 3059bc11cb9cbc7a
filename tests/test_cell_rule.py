"""The 0/1 cell rule shared by CSV tables and arrays, against a per-cell oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfci.dataset import BinaryDataset, validate_table
from perfci.errors import LengthMismatchError, NonBinaryValueError, TooFewRowsError

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
