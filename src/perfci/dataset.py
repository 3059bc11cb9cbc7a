"""Evaluation tables and plug-in moment estimates.

The estimator consumes one table per evaluation: a ground-truth column
``z`` plus one 0/1 column per classification rule, all of common length
``n``.  Point estimates of the moment triple are the column means, so
everything downstream is a smooth function of a few sample averages.

The CSV layout (shared with the command line) is a header row naming
``z`` and the rules, then one 0/1 row per observation.  A cell of a CSV
or an array is valid when ``float`` reads it, after ``str.strip`` for
strings, as 0 or 1.  The first other cell (a CSV row by row, arrays column
by column from ``z``) is rejected with its row and column in the message.

:func:`read_csv` reads a regular file in the canonical layout (see
:func:`_canonical_table`) as a byte matrix, and any other input as
:func:`validate_table` of ``csv.reader`` rows, which holds one chunk of
cell strings at a time; either way the result, and every error, is that
of ``validate_table(header, csv.reader(stream))``.
"""

from __future__ import annotations

import csv
import io
import operator
import os
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DatasetError,
    DuplicateRuleIdError,
    LengthMismatchError,
    NonBinaryValueError,
    TooFewRowsError,
    UnknownRuleError,
)
from .measures import MomentTriple

__all__ = [
    "BinaryDataset",
    "EvaluationTarget",
    "make_targets",
    "make_joint_sets",
    "check_rule_ids",
    "validate_table",
    "read_csv",
    "compute_moments",
]

MIN_ROWS = 2


@dataclass(frozen=True, eq=False)
class EvaluationTarget:
    """One (rule, measure) pair to report on.

    Targets live in ordered collections; a target's position in that
    collection is its index in the covariance matrix and the report.
    """

    rule_id: str
    measure_id: str

    def label(self) -> str:
        return f"{self.rule_id}:{self.measure_id}"


def make_targets(
    rule_ids: Sequence[str], measure_ids: Sequence[str]
) -> tuple[EvaluationTarget, ...]:
    """Rule-major cross product: all measures of rule 1, then rule 2, ..."""
    return tuple(
        EvaluationTarget(r, m) for r in rule_ids for m in measure_ids
    )


def make_joint_sets(
    spec: str | Sequence[Sequence[int]], targets: Sequence[EvaluationTarget]
) -> list[tuple[str, tuple[int, ...]]]:
    """Labelled index sets into ``targets`` for simultaneous intervals.

    A string spec holds sets separated by ``;``.  Each is a comma-separated
    list either of the names ``all`` (every target, labelled ``all``) and
    ``per-rule`` (one set per rule, labelled with the rule id), or of
    target indices (labelled ``set<i>`` by its position ``i`` in the
    spec).  A sequence of index sequences is read like the index form.
    Labels must be distinct, and so must the indices within one set.
    """
    everything = tuple(range(len(targets)))
    named = {
        "all": [("all", everything)],
        "per-rule": [
            (rid, tuple(k for k in everything if targets[k].rule_id == rid))
            for rid in dict.fromkeys(t.rule_id for t in targets)
        ],
    }
    if isinstance(spec, str):
        groups = [group.split(",") for group in spec.split(";") if group.strip()]
    else:
        groups = list(spec)
    sets: list[tuple[str, tuple[int, ...]]] = []
    for i, group in enumerate(groups):
        names = [str(tok).strip() for tok in group]
        if names and set(names) <= named.keys():
            sets.extend(labelled for name in names for labelled in named[name])
            continue
        try:
            idx = tuple(int(tok) for tok in group)
        except (TypeError, ValueError):
            raise ValueError(
                f"joint set {','.join(names)!r} is neither 'all'/'per-rule' nor target indices"
            ) from None
        if not idx or not all(0 <= k < len(targets) for k in idx):
            raise ValueError(f"joint set indices {idx} out of range for {len(targets)} targets")
        if len(set(idx)) < len(idx):
            raise ValueError(f"joint set indices {idx} repeat a target")
        sets.append((f"set{i}", idx))
    if not sets:
        raise ValueError(f"no joint sets in {spec!r}")
    labels = [label for label, _ in sets]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"joint set label {label!r} occurs more than once")
    return sets


class BinaryDataset:
    """Immutable 0/1 evaluation table: truth column plus rule columns.

    Use :meth:`from_arrays`, :func:`validate_table` or :func:`read_csv`
    to construct; the raw constructor trusts its inputs.
    """

    __slots__ = ("_z", "_rules", "_row_counts")

    def __init__(self, z: np.ndarray, rules: dict[str, np.ndarray]):
        self._z = z
        self._rules = rules
        self._row_counts: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        z: Sequence[int] | np.ndarray,
        rules: Mapping[str, Sequence[int] | np.ndarray] | Iterable[tuple[str, object]],
    ) -> "BinaryDataset":
        """Validate columns given as arrays / sequences.

        ``rules`` may be a mapping or an iterable of ``(rule_id, column)``
        pairs; the pair form can surface duplicate rule ids.
        """
        pairs = list(rules.items()) if isinstance(rules, Mapping) else list(rules)
        check_rule_ids(rule_id for rule_id, _ in pairs)
        if not pairs:
            raise DatasetError("table needs at least one rule column besides z")

        z_arr = _as_binary_column(z, "z")
        n = z_arr.shape[0]
        if n < MIN_ROWS:
            raise TooFewRowsError(n)
        cols: dict[str, np.ndarray] = {}
        for rule_id, values in pairs:
            col = _as_binary_column(values, rule_id)
            if col.shape[0] != n:
                raise LengthMismatchError(
                    f"column {rule_id!r} has {col.shape[0]} rows, z has {n}"
                )
            cols[rule_id] = col
        return cls(z_arr, cols)

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return int(self._z.shape[0])

    @property
    def z(self) -> np.ndarray:
        return self._z

    @property
    def rule_ids(self) -> tuple[str, ...]:
        return tuple(self._rules)

    def rule(self, rule_id: str) -> np.ndarray:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise UnknownRuleError(rule_id, self.rule_ids) from None

    def row_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(m, 1 + R)`` distinct rows (``z`` first, then rules in
        ``rule_ids`` order) and their ``(m,)`` counts, cached.  The row
        order does not depend on the order of the table.
        """
        if self._row_counts is None:
            self._row_counts = _distinct_rows((self._z, *self._rules.values()))
        return self._row_counts

    def __repr__(self) -> str:
        return f"BinaryDataset(n={self.n}, rules={list(self._rules)})"


def _distinct_rows(columns) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of equal-length 0/1 ``columns``, in lexicographic
    order, and how many times each occurs.  Rows whose codes fit in
    ``2 * n`` bins are counted by ``np.bincount``, others sorted by
    ``np.unique``."""
    # one bit per column in an int64 code, relabelled densely at 62 bits
    code = np.zeros(len(columns[0]), dtype=np.int64)
    bits = 0
    for column in columns:
        if bits == 62:
            _, code = np.unique(code, return_inverse=True)
            bits = int(code.max()).bit_length()
        code = (code << 1) | column
        bits += 1
    if bits == len(columns) and 2**bits <= 2 * len(code):
        counts = np.bincount(code)
        code = np.flatnonzero(counts)
        rows = (code[:, None] >> np.arange(bits - 1, -1, -1)) & 1
        return rows.astype(np.uint8), counts[code]
    _, first, counts = np.unique(code, return_index=True, return_counts=True)
    return np.column_stack([c[first] for c in columns]), counts


def check_rule_ids(rule_ids: Iterable[str]) -> None:
    """Raise :class:`DuplicateRuleIdError` for the first rule id that repeats
    or is ``z``, the name of the truth column."""
    seen: set[str] = set()
    for rule_id in rule_ids:
        if rule_id == "z" or rule_id in seen:
            raise DuplicateRuleIdError(rule_id)
        seen.add(rule_id)


def _read_cell(cell) -> int:
    """The cell rule; a bad cell raises ValueError, OverflowError or TypeError."""
    number = float(cell.strip() if isinstance(cell, str) else cell)
    if number not in (0.0, 1.0):
        raise ValueError(cell)
    return int(number)


class _CellCodes(dict):
    """The code of each distinct cell, read once by :func:`_read_cell`."""

    def __missing__(self, cell):
        self[cell] = code = _read_cell(cell)
        return code


def _binary_codes(cells: list, read, bad_cell) -> np.ndarray:
    """``read`` of each cell as uint8; raises ``bad_cell(i)`` for the first bad cell."""
    remaining = iter(cells)
    try:
        return np.fromiter(map(read, remaining), np.uint8, len(cells))
    except (TypeError, ValueError, OverflowError):
        # ``read`` failed on the last cell taken from ``remaining``
        raise bad_cell(len(cells) - operator.length_hint(remaining) - 1) from None


def _as_binary_column(values, col: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DatasetError(f"column {col!r} must be one-dimensional")
    if arr.dtype.kind in "biuf" and arr.dtype.itemsize <= 8:
        # of these dtypes, exactly the values equal to 0 or 1 pass ``_read_cell``
        binary = (arr == 0) | (arr == 1)
        if not binary.all():
            i = int(np.argmin(binary))
            raise NonBinaryValueError(i + 1, col, arr[i])
        return arr.astype(np.uint8)
    # mixed types skip the cache: 1 == 1 + 0j reads differently, {} cannot be hashed
    read = _read_cell if arr.dtype == object else _CellCodes().__getitem__
    return _binary_codes(arr.tolist(), read, lambda i: NonBinaryValueError(i + 1, col, arr[i]))


def _column_names(header: Sequence[str]) -> list[str]:
    """The stripped header, checked: one ``z``, at least one rule, no repeats."""
    names = [h.strip() for h in header]
    if names.count("z") == 0:
        raise DatasetError("header must contain a 'z' column")
    if names.count("z") > 1:
        raise DuplicateRuleIdError("z")
    check_rule_ids(name for name in names if name != "z")
    if len(names) < 2:
        raise DatasetError("table needs at least one rule column besides z")
    return names


def _table(names: list[str], patterns: np.ndarray) -> BinaryDataset:
    """The dataset whose rows are ``patterns``, columns named by ``names``;
    raises :class:`TooFewRowsError`."""
    if len(patterns) < MIN_ROWS:
        raise TooFewRowsError(len(patterns))
    order = [names.index("z")] + [j for j, name in enumerate(names) if name != "z"]
    columns = patterns.T[order]  # one contiguous row per column
    return BinaryDataset(columns[0], {names[j]: col for j, col in zip(order[1:], columns[1:])})


_BLOCK_CHARS = 1 << 20


def validate_table(
    header: Sequence[str], rows: Iterable[Sequence[str]]
) -> BinaryDataset:
    """Build a dataset from a raw header + cell grid.

    Raises the specific :class:`~perfci.errors.DatasetError` subclass
    for each defect: unknown/duplicate columns, ragged rows, non-binary
    cells, too few rows.  Blank rows are skipped.  An error raised while
    iterating ``rows``, before their end or a ragged row, comes first, then
    the first bad cell, then a ragged row.  The cells are read in chunks of
    whole rows, each of at least ``_BLOCK_CHARS // 16`` cells (65,536), so
    one chunk of cells is held at a time besides the table's byte per cell.
    """
    names = _column_names(header)
    width = len(names)
    read = _CellCodes().__getitem__
    ragged: list[int] = []
    codes = bytearray()  # row-major, one byte per cell
    bad = None  # the first bad cell's error, raised once ``rows`` are drained
    for cells in _row_chunks(rows, width, max(1, _BLOCK_CHARS // 16), ragged):
        if bad is not None:
            continue

        def bad_cell(i):
            j = len(codes) + i
            return NonBinaryValueError(j // width + 1, names[j % width], cells[i])

        try:
            codes.extend(_binary_codes(cells, read, bad_cell))
        except NonBinaryValueError as exc:
            bad = exc
    if bad is not None:
        raise bad
    grid = np.frombuffer(codes, np.uint8).reshape(-1, width)
    if ragged:
        raise LengthMismatchError(f"row {len(grid) + 1} has {ragged[0]} fields, header has {width}")
    return _table(names, grid)


def _row_chunks(rows, width: int, size: int, ragged: list[int]):
    """The cells of ``rows`` in row-major lists of whole rows, each of at
    least ``size`` cells but the last, up to the first ragged row, whose
    field count is appended to ``ragged``."""
    cells: list = []
    for row in rows:
        fields = len(row)
        if fields not in (0, width):
            ragged.append(fields)
            break
        cells.extend(row)
        if len(cells) >= size:
            yield cells
            cells = []
    yield cells


def read_csv(source: str | os.PathLike | io.TextIOBase) -> BinaryDataset:
    """Read and validate an evaluation table from a CSV file or stream.

    The result, and every error, is that of ``validate_table(header,
    csv.reader(stream))``, which reads any input.  A canonical regular
    file is read as a byte matrix instead: one byte per cell, a second
    while the columns are put ``z`` first, and one block.
    """
    if isinstance(source, (str, os.PathLike)):
        if os.path.isfile(source):  # not a FIFO, which can be read only once
            with open(source, "rb") as fh:
                if (data := _canonical_table(fh)) is not None:
                    return data
        # utf-8-sig drops the byte-order mark spreadsheet exports start with
        with open(source, newline="", encoding="utf-8-sig") as fh:
            return _read_csv_stream(fh)
    return _read_csv_stream(source)


def _read_csv_stream(stream) -> BinaryDataset:
    rows = csv.reader(stream)
    try:
        header = next(rows)
    except StopIteration:
        raise DatasetError("empty input: no header row") from None
    return validate_table(header, rows)


def _canonical_table(fh) -> BinaryDataset | None:
    """The table in ``fh``, a regular file opened in binary mode, or None if
    it is not canonical: a UTF-8 header line, ended by ``\\n`` or
    ``\\r\\n``, whose fields ``csv.reader`` splits on that line alone
    (quoted or not, but without a line break), then lines ``c,c,...,c`` of
    one 0 or 1 per field, each with the header's line end (the last one may
    be missing).  These are read as a byte matrix, ``_BLOCK_CHARS`` bytes
    of whole lines at a time; the table's errors are those of
    :func:`validate_table` on ``csv.reader`` rows.
    """
    header = fh.readline().decode("utf-8-sig", "replace")  # U+FFFD: maybe not UTF-8
    if not header.endswith("\n") or "\ufffd" in header:
        return None
    try:
        fields = next(csv.reader([header]))
    except csv.Error:  # a bare "\r", or a field over csv.field_size_limit()
        return None
    if not fields or any("\r" in field or "\n" in field for field in fields):
        return None  # a blank line, or a quoted field that may go on past the line
    end = b"\r\n" if header.endswith("\r\n") else b"\n"
    # a line is the cells, "0" or "1" (which differ in the last bit alone),
    # with commas between them and the line end after them
    row = np.frombuffer(",".join("0" * len(fields)).encode() + end, np.uint8)
    mask = np.where(row == ord("0"), np.uint8(0xFE), np.uint8(0xFF))
    line = len(row)
    n = max(0, -(-(os.fstat(fh.fileno()).st_size - fh.tell()) // line))  # rows, by the size
    grid = np.empty((len(fields), n), np.uint8)
    start = 0
    for block in iter(partial(fh.read, max(1, _BLOCK_CHARS // line) * line), b""):
        if len(block) % line == line - len(end):  # the last line, without its end
            block += end
        stop = start + len(block) // line
        if len(block) % line or stop > n:
            return None
        view = np.frombuffer(block, np.uint8).reshape(-1, line)
        if ((view & mask) != row).any():
            return None
        grid[:, start:stop] = (view[:, : 2 * len(fields) : 2] & 1).T
        start = stop
    return _table(_column_names(fields), grid.T) if start == n else None


def compute_moments(data: BinaryDataset, rule_id: str) -> MomentTriple:
    """Plug-in moment triple for one rule: sample means of ZA, A, Z, taken
    as integer counts over the distinct rows divided by ``n``."""
    data.rule(rule_id)  # UnknownRuleError for an unknown id
    patterns, counts = data.row_counts()
    z = patterns[:, 0]
    a = patterns[:, 1 + data.rule_ids.index(rule_id)]
    n = data.n
    return MomentTriple(
        m_za=int(counts @ (z & a)) / n,
        m_a=int(counts @ a) / n,
        m_z=int(counts @ z) / n,
    )
