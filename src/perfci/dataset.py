"""Evaluation tables and plug-in moment estimates.

The estimator consumes one table per evaluation: a ground-truth column
``z`` plus one 0/1 column per classification rule, all of common length
``n``.  Point estimates of the moment triple are the column means, so
everything downstream is a smooth function of a few sample averages.

The CSV layout (shared with the command line) is a header row naming
``z`` and the rules, then one 0/1 row per observation.  ``"0.0"`` and
``"1.0"`` style spellings are accepted; anything that is not numerically
0 or 1 is rejected with the exact row and column in the message.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
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
            # one bit per column in an int64 code, relabelled densely at 62 bits
            columns = (self._z, *self._rules.values())
            code = np.zeros(self.n, dtype=np.int64)
            bits = 0
            for column in columns:
                if bits == 62:
                    _, code = np.unique(code, return_inverse=True)
                    bits = int(code.max()).bit_length()
                code = (code << 1) | column
                bits += 1
            _, first, counts = np.unique(code, return_index=True, return_counts=True)
            self._row_counts = (np.column_stack([c[first] for c in columns]), counts)
        return self._row_counts

    def __repr__(self) -> str:
        return f"BinaryDataset(n={self.n}, rules={list(self._rules)})"


def check_rule_ids(rule_ids: Iterable[str]) -> None:
    """Raise :class:`DuplicateRuleIdError` for the first rule id that repeats
    or is ``z``, the name of the truth column."""
    seen: set[str] = set()
    for rule_id in rule_ids:
        if rule_id == "z" or rule_id in seen:
            raise DuplicateRuleIdError(rule_id)
        seen.add(rule_id)


def _as_binary_column(values, col: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DatasetError(f"column {col!r} must be one-dimensional")
    out = np.empty(arr.shape[0], dtype=np.uint8)
    for i, v in enumerate(arr):
        try:
            f = float(v)
        except (TypeError, ValueError):
            raise NonBinaryValueError(i + 1, col, v) from None
        if f == 0.0:
            out[i] = 0
        elif f == 1.0:
            out[i] = 1
        else:
            raise NonBinaryValueError(i + 1, col, v)
    return out


def validate_table(
    header: Sequence[str], rows: Iterable[Sequence[str]]
) -> BinaryDataset:
    """Build a dataset from a raw header + cell grid.

    Raises the specific :class:`~perfci.errors.DatasetError` subclass
    for each defect: unknown/duplicate columns, ragged rows, non-binary
    cells, too few rows.
    """
    names = [h.strip() for h in header]
    if names.count("z") == 0:
        raise DatasetError("header must contain a 'z' column")
    if names.count("z") > 1:
        raise DuplicateRuleIdError("z")
    check_rule_ids(name for name in names if name != "z")
    if len(names) < 2:
        raise DatasetError("table needs at least one rule column besides z")

    width = len(names)
    columns: list[list[int]] = [[] for _ in names]
    n = 0
    for row in rows:
        cells = list(row)
        if len(cells) == 0:
            continue  # ignore blank trailing lines
        n += 1
        if len(cells) != width:
            raise LengthMismatchError(
                f"row {n} has {len(cells)} fields, header has {width}"
            )
        for j, tok in enumerate(cells):
            columns[j].append(_parse_binary_cell(tok, n, names[j]))
    if n < MIN_ROWS:
        raise TooFewRowsError(n)

    z_idx = names.index("z")
    z_arr = np.asarray(columns[z_idx], dtype=np.uint8)
    rules = {
        names[j]: np.asarray(columns[j], dtype=np.uint8)
        for j in range(width)
        if j != z_idx
    }
    return BinaryDataset(z_arr, rules)


def _parse_binary_cell(token: str, row: int, col: str) -> int:
    tok = token.strip()
    try:
        value = float(tok)
    except ValueError:
        raise NonBinaryValueError(row, col, token) from None
    if value == 0.0:
        return 0
    if value == 1.0:
        return 1
    raise NonBinaryValueError(row, col, token)


def read_csv(source: str | os.PathLike | io.TextIOBase) -> BinaryDataset:
    """Read and validate an evaluation table from a CSV file or stream."""
    if isinstance(source, (str, os.PathLike)):
        # utf-8-sig drops the byte-order mark spreadsheet exports start with
        with open(source, newline="", encoding="utf-8-sig") as fh:
            return _read_csv_stream(fh)
    return _read_csv_stream(source)


def _read_csv_stream(stream) -> BinaryDataset:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetError("empty input: no header row") from None
    return validate_table(header, reader)


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
