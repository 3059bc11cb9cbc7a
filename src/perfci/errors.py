"""Exception hierarchy shared by all perfci modules.

Every error raised on a documented failure path derives from
:class:`PerfciError`, so callers can catch one base class at API
boundaries.  Errors that signal bad caller input also derive from
``ValueError`` to stay friendly to generic handling.
"""

from __future__ import annotations


class PerfciError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PerfciError, ValueError):
    """A measure (or its gradient) is undefined at the given moments.

    Parameters
    ----------
    measure_id : str
        Canonical id of the offending measure.
    detail : str
        Human-readable reason, e.g. which denominator vanished.
    """

    def __init__(self, measure_id: str, detail: str):
        self.measure_id = measure_id
        self.detail = detail
        super().__init__(f"measure {measure_id!r} undefined here: {detail}")


class DuplicateIdError(PerfciError, ValueError):
    """A measure id is already registered in the catalog."""

    def __init__(self, measure_id: str):
        self.measure_id = measure_id
        super().__init__(f"measure id {measure_id!r} is already registered")


class UnknownMeasureError(PerfciError, KeyError):
    """A measure id does not resolve to any catalog entry."""

    def __init__(self, measure_id: str, known: tuple[str, ...] = ()):
        self.measure_id = measure_id
        hint = f"; known ids: {', '.join(known)}" if known else ""
        super().__init__(f"unknown measure id {measure_id!r}{hint}")

    __str__ = Exception.__str__  # the message, where KeyError's str() is its repr


class DatasetError(PerfciError, ValueError):
    """Base class for evaluation-table validation failures."""


class NonBinaryValueError(DatasetError):
    """A cell of the evaluation table is not 0 or 1.

    ``row`` is the 1-based data row (header not counted), ``col`` the
    column name, so the message pinpoints the offending cell.
    """

    def __init__(self, row: int, col: str, value: object):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"non-binary value {value!r} at row {row}, column {col!r}")


class LengthMismatchError(DatasetError):
    """Columns (or a CSV row) disagree on length."""

    def __init__(self, detail: str):
        super().__init__(f"length mismatch: {detail}")


class TooFewRowsError(DatasetError):
    """The table has fewer rows than the estimator needs (n >= 2)."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"need at least 2 rows, got {n}")


class DuplicateRuleIdError(DatasetError):
    """Two rules (table columns or coverage rules) share an id, or one is named z."""

    def __init__(self, rule_id: str):
        self.rule_id = rule_id
        super().__init__(f"duplicate rule id {rule_id!r}")


class UnknownRuleError(PerfciError, KeyError):
    """A rule id does not name a column of the dataset."""

    def __init__(self, rule_id: str, known: tuple[str, ...] = ()):
        self.rule_id = rule_id
        hint = f"; known rules: {', '.join(known)}" if known else ""
        super().__init__(f"unknown rule id {rule_id!r}{hint}")

    __str__ = Exception.__str__  # the message, where KeyError's str() is its repr


class SingularVarianceError(PerfciError, ArithmeticError):
    """A variance needed for an interval or correlation is zero.

    The plug-in estimate degenerates on all-constant influence values
    (e.g. a rule that is perfect on the sample, or a rare-event measure
    whose every sampled numerator is zero).  The corrected estimate
    (Choice II) adds a strictly positive diagonal term and does not
    share this failure mode.
    """

    ADVICE = "use the corrected estimate (Choice II)"

    def __init__(self, index: int | None = None, detail: str = ""):
        self.index = index
        where = f" for target {index}" if index is not None else ""
        extra = f" ({detail})" if detail else ""
        super().__init__(
            f"variance estimate{where} is not positive{extra}; {self.ADVICE}"
        )


class NoUsableTargetsError(PerfciError):
    """Every requested target failed; there is nothing to report.

    Per-target failures (bad domain, singular variance) are normally
    recorded inline and the rest of the report proceeds; this error
    fires only when no target survives.
    """

    def __init__(self, failures: dict[str, str]):
        self.failures = dict(failures)
        lines = "; ".join(f"{k}: {v}" for k, v in self.failures.items())
        super().__init__(f"all targets failed: {lines}")


class OutOfRangeError(PerfciError, ValueError):
    """Probability argument outside the open interval (0, 1), named ``name``."""

    def __init__(self, p: float, name: str = "probability"):
        self.p = p
        super().__init__(f"{name} must lie strictly inside (0, 1), got {p!r}")


class NotPositiveSemidefiniteError(PerfciError, ArithmeticError):
    """A correlation matrix admits no Cholesky factor even after jitter."""

    def __init__(self, detail: str = ""):
        extra = f": {detail}" if detail else ""
        super().__init__(f"correlation matrix is not positive semidefinite{extra}")


class DimensionMismatchError(PerfciError, ValueError):
    """Matrix/vector dimensions disagree with the target set."""

    def __init__(self, detail: str):
        super().__init__(f"dimension mismatch: {detail}")
