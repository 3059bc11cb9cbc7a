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

A table is read in blocks of rows, from a regular file in the canonical
layout (see :func:`_canonical_blocks`) as a byte matrix and from any other
input as chunks of ``csv.reader`` rows, with the result and every error of
``validate_table(header, csv.reader(stream))``.  Each block is folded in
at once: :func:`read_csv` stacks the rows, and :func:`read_counts` adds
them into the counts-only form of :class:`BinaryDataset`, which
``perfci analyze`` fits, so its memory is one block plus ``C`` on any input.

Every moment triple and the covariance of the fit are functions of ``C``,
the ``(2R + 1, 2R + 1)`` integer cross-products of the indicator columns
``z*a_1..z*a_R, a_1..a_R, z`` (:func:`_indicators`), so ``C`` with ``n``
and the rule ids is the whole state of a dataset the fit reads.  Every
table reaches it through one fold (:func:`_fold`): rows in one bin per
possible row while those bins are few, else straight into ``C``.
"""

from __future__ import annotations

import csv
import io
import operator
import os
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Mapping, Sequence

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
    "read_counts",
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
        try:  # an index is an integer, never a float that int() would truncate
            idx = tuple(int(tok) if isinstance(tok, str) else operator.index(tok) for tok in group)
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
    :meth:`from_counts` and :func:`read_counts` build the counts-only
    form, which holds ``n``, ``rule_ids`` and the cross-products ``C`` of
    the table's indicator columns (see :func:`_fold`), not its rows: that
    is all :func:`~perfci.covariance.estimate_targets` reads, and ``z``
    and :meth:`rule` raise :class:`~perfci.errors.DatasetError`.  A rows
    dataset computes its ``C`` once, when first asked.
    """

    __slots__ = ("_z", "_rules", "_rule_ids", "_n", "_c")

    def __init__(self, z: np.ndarray, rules: dict[str, np.ndarray]):
        self._z = z
        self._rules = rules
        self._rule_ids = tuple(rules)
        self._n = int(z.shape[0])
        self._c: np.ndarray | None = None

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

    @classmethod
    def from_counts(
        cls,
        rule_ids: Sequence[str],
        patterns: Sequence[Sequence[int]] | np.ndarray,
        counts: Sequence[int] | np.ndarray,
    ) -> "BinaryDataset":
        """Validate a table given as the counts of its rows: the counts-only form.

        ``patterns`` is an ``(m, 1 + R)`` array of 0/1 rows, ``z`` first and
        then the rules in ``rule_ids`` order, and ``counts`` the ``(m,)``
        non-negative integers that say how often each row occurs; ``n`` is
        their sum.  Each pattern adds its count times its indicator
        products into ``C``, so repeated patterns simply add up, and the
        result is that of the table the counts describe.  A pattern's cells
        follow the cell rule of :meth:`from_arrays`, and a bad one is
        reported at its pattern's row.
        """
        rule_ids = tuple(rule_ids)
        check_rule_ids(rule_ids)
        if not rule_ids:
            raise DatasetError("table needs at least one rule column besides z")
        patterns, counts = np.asarray(patterns), np.asarray(counts)
        if patterns.ndim != 2 or patterns.shape[1] != 1 + len(rule_ids):
            raise LengthMismatchError(
                f"patterns of shape {patterns.shape} for z and {len(rule_ids)} rules"
            )
        if counts.shape != patterns.shape[:1]:
            raise LengthMismatchError(f"{counts.shape} counts for {len(patterns)} patterns")
        # a uint64 count of 2**63 or more turns negative here
        if counts.dtype.kind not in "iu" or (counts.astype(np.int64) < 0).any():
            raise DatasetError("counts must be integers from 0 to 2**63 - 1")
        columns = [_as_binary_column(col, name) for name, col in zip(("z", *rule_ids), patterns.T)]
        n = sum(counts.tolist())
        if n < MIN_ROWS:
            raise TooFewRowsError(n)
        if n >= 2**53:
            raise DatasetError(f"n = {n} is not below 2**53, where the fit's sums are exact")
        return cls._trusted_counts(rule_ids, n, _cross_products(columns, counts[np.newaxis])[0])

    @classmethod
    def _trusted_counts(cls, rule_ids, n: int, c: np.ndarray) -> "BinaryDataset":
        """The counts-only dataset of ``n`` rows whose cross-products are ``c``, trusted."""
        data = cls.__new__(cls)
        data._z = data._rules = None
        data._rule_ids = tuple(rule_ids)
        data._n = n
        data._c = c
        return data

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def z(self) -> np.ndarray:
        if self._z is None:
            raise _counts_only("z")
        return self._z

    @property
    def rule_ids(self) -> tuple[str, ...]:
        return self._rule_ids

    def rule(self, rule_id: str) -> np.ndarray:
        if rule_id not in self._rule_ids:
            raise UnknownRuleError(rule_id, self._rule_ids)
        if self._rules is None:
            raise _counts_only(f"rule {rule_id!r}")
        return self._rules[rule_id]

    def _cross_products(self) -> np.ndarray:
        """The ``(2R + 1, 2R + 1)`` int64 ``C`` of the table (see :func:`_fold`), cached."""
        if self._c is None:
            self._c = _fold([(self._z, *self._rules.values())], 1 + len(self._rules), self._n, 0)[1]
        return self._c

    def __repr__(self) -> str:
        return f"BinaryDataset(n={self.n}, rules={list(self._rule_ids)})"


def _counts_only(column: str) -> DatasetError:
    return DatasetError(
        f"this dataset holds counts only, not the column {column}; "
        "read the table with read_csv to keep its rows"
    )


# the most bins, one per possible row, that rows are counted in
_MAX_BINS = 1 << 20
# bytes of the float matrices of indicator rows that one product takes
_FIT_BYTES = 1 << 20


def _fold(blocks, width: int, n: int | None, zero: int) -> tuple[int, np.ndarray]:
    """The row count and the int64 cross-products ``C`` of the rows of
    ``blocks``, each a sequence of ``width`` equal-length columns, ``z``
    first, whose cells are ``zero`` or ``zero + 1``.  While the ``2**width``
    possible rows fit in ``min(_MAX_BINS, 2 n)`` bins, for about ``n`` rows
    (None where it is not known), each row's code goes into its bin and
    ``C`` is :func:`_cross_products` of the bins; else every block is added
    into ``C`` as float32 products ``x^T x`` of its :func:`_indicators`,
    which are exact as each holds fewer than ``2**24`` rows.  Memory is one
    block's codes plus the bins and fewer than ``bins / 2`` codes of
    earlier blocks, or one block plus ``_FIT_BYTES``."""
    bins = 1 << width
    if n is not None and bins <= min(_MAX_BINS, 2 * n):
        dtype = np.min_scalar_type(bins - 1)
        counts = np.zeros(bins, np.int64)
        # blocks are binned together until they hold bins / 2 rows, so the
        # bins cost at most twice the rows however short the blocks are
        batch, rows = [], 0
        for columns in blocks:
            batch.append(_row_codes(columns, dtype, zero))
            rows += len(batch[-1])
            if 2 * rows >= bins:
                counts += np.bincount(np.concatenate(batch), minlength=bins)
                batch, rows = [], 0
        if batch:
            counts += np.bincount(np.concatenate(batch), minlength=bins)
        seen = np.flatnonzero(counts)
        return int(counts.sum()), _cross_products(_code_columns(seen, width), counts[seen][np.newaxis])[0]
    c = np.zeros((2 * width - 1, 2 * width - 1), np.int64)
    rows, step = 0, max(1, _FIT_BYTES // (4 * (2 * width - 1)))
    for columns in blocks:
        for start in range(0, len(columns[0]), step):
            x = _indicators([column[start : start + step] for column in columns], zero, np.float32)
            c += (x.T @ x).astype(np.int64)
            rows += len(x)
    return rows, c


def _indicators(columns, zero: int, dtype) -> np.ndarray:
    """The ``(rows, 2R + 1)`` indicator rows ``z*a_1..z*a_R, a_1..a_R, z``,
    the layout of ``C``, of ``1 + R`` columns, ``z`` first, whose cells are
    ``zero`` or ``zero + 1``, as ``dtype``."""
    rules = len(columns) - 1
    x = np.empty((len(columns[0]), 2 * rules + 1), dtype)
    x[:, rules : 2 * rules] = np.transpose(columns[1:])
    x[:, 2 * rules] = columns[0]
    if zero:
        x[:, rules:] -= zero
    np.multiply(x[:, rules : 2 * rules], x[:, 2 * rules :], out=x[:, :rules])
    return x


def _moment_columns(rules, n_rules: int):
    """The columns of ``C`` (see :func:`_indicators`) that hold ``z*a_r``,
    ``a_r`` and ``z`` for the rule positions ``rules``, an int or an array,
    of ``n_rules`` rules."""
    return rules, n_rules + rules, 2 * n_rules


def _cross_products(columns, counts: np.ndarray) -> np.ndarray:
    """The ``(B, 2R + 1, 2R + 1)`` int64 cross-products ``C`` of ``B`` tables
    of the ``m`` 0/1 rows of ``1 + R`` ``columns``, ``z`` first, where row
    ``i`` occurs ``counts[b, i]`` times in table ``b``.  They are summed
    over chunks of the rows, so the float matrices take at most about
    ``_FIT_BYTES``."""
    width = 2 * len(columns) - 1
    c = np.zeros((len(counts), width, width), np.int64)
    step = max(1, _FIT_BYTES // (8 * (len(counts) + 1) * width))
    for start in range(0, len(columns[0]), step):
        x = _indicators([column[start : start + step] for column in columns], 0, float)
        # 0/1 products weighted by counts: the float sums are exact below 2**53
        c += ((x * counts[:, start : start + step, np.newaxis]).transpose(0, 2, 1) @ x).astype(np.int64)
    return c


def _table_cross_products(tables) -> np.ndarray:
    """The ``(B, 2R + 1, 2R + 1)`` cross-products of ``B`` tables of ``n``
    rows each, every table a list of its ``1 + R`` 0/1 columns, ``z`` first.
    While the ``B * 2**(1 + R)`` possible (table, row) pairs fit in
    ``min(_MAX_BINS, 2 B n)`` bins, as in :func:`_fold`, one
    ``np.bincount`` counts the whole stack into one bin per pair; else
    each table is folded alone."""
    width, rows = len(tables[0]), len(tables[0][0])
    bins = len(tables) << width
    if bins > min(_MAX_BINS, 2 * len(tables) * rows):
        return np.stack([_fold([table], width, rows, 0)[1] for table in tables])
    codes = _row_codes([np.concatenate(column) for column in zip(*tables)], np.intp, 0)
    codes += np.repeat(np.arange(len(tables)) << width, rows)
    counts = np.bincount(codes, minlength=bins).reshape(len(tables), -1)
    return _cross_products(_code_columns(np.arange(1 << width), width), counts)


def _row_codes(columns, dtype, zero: int) -> np.ndarray:
    """Each row of ``columns`` (cells ``zero`` or ``zero + 1``) as the bits of
    one ``dtype`` code, the first column highest."""
    code = np.zeros(len(columns[0]), dtype)
    for column in columns:
        code <<= 1
        np.add(code, column, out=code, casting="unsafe")
    # each cell added ``zero`` besides its bit, ``zero * (2**width - 1)`` in
    # all, taken off modulo the dtype's range as the sums were
    code -= zero * ((1 << len(columns)) - 1) % (1 << 8 * code.itemsize)
    return code


def _code_columns(codes: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` uint8 0/1 columns, as one ``(width, m)`` array, of the
    rows whose :func:`_row_codes` are ``codes``."""
    return (codes >> np.arange(width - 1, -1, -1)[:, np.newaxis] & 1).astype(np.uint8)


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

    def bad_cell(i):  # named by its Python value, as a CSV cell is by its string
        cell = arr[i]
        return NonBinaryValueError(i + 1, col, cell.item() if isinstance(cell, np.generic) else cell)

    if arr.dtype.kind in "biuf" and arr.dtype.itemsize <= 8:
        # of these dtypes, exactly the values equal to 0 or 1 pass ``_read_cell``
        binary = (arr == 0) | (arr == 1)
        if not binary.all():
            raise bad_cell(int(np.argmin(binary)))
        return arr.astype(np.uint8)
    # mixed types skip the cache: 1 == 1 + 0j reads differently, {} cannot be hashed
    read = _read_cell if arr.dtype == object else _CellCodes().__getitem__
    return _binary_codes(arr.tolist(), read, bad_cell)


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


def _z_first(names: list[str]) -> list[int]:
    """The column indices of :func:`_column_names` ``names``, ``z`` first."""
    return [names.index("z")] + [j for j, name in enumerate(names) if name != "z"]


# a canonical block's bytes, masked copy, mask and template take about 1 MiB
# together, so they stay in a core's cache while the block is checked and coded
_BLOCK_CHARS = 1 << 18


def validate_table(
    header: Sequence[str], rows: Iterable[Sequence[str]]
) -> BinaryDataset:
    """Build a dataset from a raw header + cell grid.

    Raises the specific :class:`~perfci.errors.DatasetError` subclass
    for each defect: unknown/duplicate columns, ragged rows, non-binary
    cells, too few rows.  Blank rows are skipped.  An error raised while
    iterating ``rows``, before their end or a ragged row, comes first, then
    the first bad cell, then a ragged row.  The cells are read in chunks of
    whole rows, each of at least ``_BLOCK_CHARS // 4`` cells (65,536), so
    one chunk of cells is held at a time besides two bytes per cell.
    """
    return _stacked(*_cell_blocks(header, rows))


def _cell_blocks(header: Sequence[str], rows: Iterable[Sequence[str]]):
    """The table source of ``header`` and ``rows`` (see :func:`_read_table`):
    the checked names, no row count, and the rows coded 0/1 in chunks of
    whole rows, each of at least ``_BLOCK_CHARS // 4`` cells.  Once
    ``rows`` are drained the blocks raise the first bad cell's error, else
    that of the first ragged row, where ``rows`` stop being read."""
    names = _column_names(header)
    width, read = len(names), _CellCodes().__getitem__

    def blocks():
        done, bad, ragged = 0, None, []  # rows yielded, first bad cell's error, ragged row's fields
        for cells in _row_chunks(rows, width, max(1, _BLOCK_CHARS // 4), ragged):
            if bad is None:
                try:
                    codes = _binary_codes(cells, read, lambda i: NonBinaryValueError(
                        done + i // width + 1, names[i % width], cells[i]))
                except NonBinaryValueError as exc:
                    bad = exc
                    continue
                done += len(codes) // width
                yield codes.reshape(-1, width)
        if bad is not None:
            raise bad
        if ragged:
            raise LengthMismatchError(f"row {done + 1} has {ragged[0]} fields, header has {width}")

    return names, None, 0, blocks()


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


def _stacked(names: list[str], n, zero: int, blocks) -> BinaryDataset:
    """The dataset of a table source's rows: each block is copied ``z`` first,
    as the next block may reuse its buffer, and the copies are joined into
    one contiguous row per column.  Memory is two bytes per cell."""
    order = _z_first(names)
    parts = [block.T[order] - np.uint8(zero) for block in blocks]
    if (rows := sum(part.shape[1] for part in parts)) < MIN_ROWS:
        raise TooFewRowsError(rows)
    columns = np.concatenate(parts, axis=1)
    return BinaryDataset(columns[0], {names[j]: col for j, col in zip(order[1:], columns[1:])})


def _counted(names: list[str], n, zero: int, blocks) -> BinaryDataset:
    """The counts-only dataset of a table source's rows, by :func:`_fold`
    of each block's cells, ``z`` first."""
    order = _z_first(names)
    rows, c = _fold(([b[:, j] for j in order] for b in blocks), len(order), n, zero)
    if rows < MIN_ROWS:
        raise TooFewRowsError(rows)
    return BinaryDataset._trusted_counts([names[j] for j in order[1:]], rows, c)


def read_csv(source: str | os.PathLike | io.TextIOBase) -> BinaryDataset:
    """Read and validate an evaluation table from a CSV file or stream.

    The result, and every error, is that of ``validate_table(header,
    csv.reader(stream))``, which reads any input.  A canonical regular
    file (see :func:`_canonical_blocks`) is read as a byte matrix instead.
    Either way the rows are copied one block at a time, so memory is two
    bytes per cell and one block.
    """
    return _read_table(source, _stacked)


def read_counts(source: str | os.PathLike | io.TextIOBase) -> BinaryDataset:
    """Read and validate an evaluation table into the counts-only form.

    The result has the ``rule_ids``, ``n`` and cross-products of
    :func:`read_csv`, and every error is that of :func:`read_csv`.  The
    table is folded into ``C`` one block at a time (see :func:`_fold`):
    at most ``_BLOCK_CHARS`` bytes (256 KiB) of a canonical file, or
    ``_BLOCK_CHARS // 4`` cell strings (65,536) of any other input, with
    the block's row codes and bins or its indicator rows.  So memory does
    not grow with ``n`` at any width.
    """
    return _read_table(source, _counted)


def _read_table(source, fold) -> BinaryDataset:
    """``fold(names, n, zero, blocks)`` of the table source of ``source``:
    :func:`_canonical_blocks` of a canonical regular file, else
    :func:`_cell_blocks` of ``csv.reader`` rows.  ``blocks`` yields ``(rows,
    width)`` uint8 arrays whose cells are ``zero`` or ``zero + 1``, and ``n``
    is about the row count, or None where it is not known."""
    if isinstance(source, (str, os.PathLike)):
        if os.path.isfile(source):  # not a FIFO, which can be read only once
            with open(source, "rb") as fh:
                try:
                    return fold(*_canonical_blocks(fh))
                except _NotCanonical:
                    pass
        # utf-8-sig drops the byte-order mark spreadsheet exports start with
        with open(source, newline="", encoding="utf-8-sig") as fh:
            return _read_csv_stream(fh, fold)
    return _read_csv_stream(source, fold)


def _read_csv_stream(stream, fold) -> BinaryDataset:
    rows = csv.reader(stream)
    if (header := next(rows, None)) is None:
        raise DatasetError("empty input: no header row")
    return fold(*_cell_blocks(header, rows))


class _NotCanonical(Exception):
    """The file is not canonical; it is read by ``csv.reader`` instead."""


def _canonical_blocks(fh):
    """The table source of ``fh``, a regular file opened in binary mode (see
    :func:`_read_table`): the checked header names, the row count by the
    file's size, and the lines in blocks of ``_BLOCK_CHARS`` bytes of whole
    lines at most, as strided views of their ``"0"``/``"1"`` cells, each
    valid until the next is read.  Raises :class:`_NotCanonical`, at once or
    while the blocks are read, unless the file is canonical: a UTF-8 header
    line, ended by ``\\n`` or ``\\r\\n``, whose fields ``csv.reader`` splits
    on that line alone (quoted or not, but without a line break), then lines
    ``c,c,...,c`` of one 0 or 1 per field, each with the header's line end
    (the last one may be missing).  Refused header names raise once every
    line is read as canonical: ``csv.reader`` may fail on a line first.
    """
    header = fh.readline().decode("utf-8-sig", "replace")  # U+FFFD: maybe not UTF-8
    if not header.endswith("\n") or "\ufffd" in header:
        raise _NotCanonical
    try:
        fields = next(csv.reader([header]))
    except csv.Error:  # a bare "\r", or a field over csv.field_size_limit()
        raise _NotCanonical from None
    if not fields or any("\r" in field or "\n" in field for field in fields):
        raise _NotCanonical  # a blank line, or a quoted field that may go on past the line
    end = b"\r\n" if header.endswith("\r\n") else b"\n"
    # a line is the cells, "0" or "1" (which differ in the last bit alone),
    # with commas between them and the line end after them
    row = np.frombuffer(",".join("0" * len(fields)).encode() + end, np.uint8)
    n = max(0, -(-(os.fstat(fh.fileno()).st_size - fh.tell()) // len(row)))
    views = _blocks(fh, row, end, max(1, min(_BLOCK_CHARS // len(row), n + 1)))
    try:
        names = _column_names(fields)
    except DatasetError:
        for _ in views:
            pass
        raise
    return names, n, ord("0"), (view[:, : 2 * len(fields) : 2] for view in views)


def _blocks(fh, row: np.ndarray, end: bytes, lines: int) -> Iterator[np.ndarray]:
    """The rest of ``fh`` in views of ``lines`` lines, each line checked
    against ``row`` with its cells' last bit masked off."""
    line = len(row)
    # bytes repeat far faster than np.tile of a short line
    cell_bits = np.where(row == ord("0"), 0xFE, 0xFF).astype(np.uint8)
    mask = np.frombuffer(cell_bits.tobytes() * lines, np.uint8)
    template = row.tobytes() * lines
    block = np.empty(len(template), np.uint8)
    masked = bytearray(len(template))
    for size in iter(partial(fh.readinto, block), 0):
        if size % line == line - len(end):  # the last line, without its end
            block[size : size + len(end)] = np.frombuffer(end, np.uint8)
            size += len(end)
        if size % line:
            raise _NotCanonical
        np.bitwise_and(block[:size], mask[:size], out=np.frombuffer(masked, np.uint8, size))
        if not masked.startswith(template[:size]):
            raise _NotCanonical
        yield block[:size].reshape(-1, line)


def compute_moments(data: BinaryDataset, rule_id: str) -> MomentTriple:
    """Plug-in moment triple for one rule: sample means of ZA, A, Z, taken
    as integer sums, the diagonal of the table's cross-products, divided by
    ``n``."""
    if rule_id not in data.rule_ids:
        raise UnknownRuleError(rule_id, data.rule_ids)
    s, n = np.diagonal(data._cross_products()).tolist(), data.n
    za, a, z = _moment_columns(data.rule_ids.index(rule_id), len(data.rule_ids))
    return MomentTriple(m_za=s[za] / n, m_a=s[a] / n, m_z=s[z] / n)
