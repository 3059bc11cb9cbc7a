"""Catalog of performance measures expressed through a moment triple.

A binary rule ``A`` and a binary ground truth ``Z`` have a joint 2x2
distribution that is fully determined by three moments: ``E[Z*A]``,
``E[A]`` and ``E[Z]``.  Every measure in this catalog is a smooth scalar
function of that triple, written once as a value expression.  Its
gradient with respect to the triple is derived from that expression by
forward-mode differentiation, and feeds the delta-method variance
estimates in :mod:`perfci.covariance`; the value feeds the point
estimates.

Built-in measures
-----------------
``accuracy``, ``f1``, ``f_beta(b)``, ``jaccard``, ``tversky(a,b)``,
``correlation`` (Matthews phi), ``cosine``, ``lift``, ``overlap``.
``f1`` is exactly ``f_beta(1)``; both ids resolve.  Parameterized ids
such as ``f_beta(0.5)`` or ``tversky(0.3,0.4)`` are parsed on demand.

A derived gradient is finite wherever the value is: each expression
divides by, and takes square roots of, only what its domain keeps
positive.  ``overlap`` is the one non-smooth entry: its value is defined
whenever ``min(E[A], E[Z]) > 0`` but its gradient does not exist on the
ridge ``E[A] = E[Z]``, where ``gradient`` raises
:class:`~perfci.errors.DomainError` even though ``evaluate`` succeeds.
A custom :class:`MeasureSpec` supplies its own ``gradient_fn``.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError, DuplicateIdError, UnknownMeasureError

__all__ = [
    "MomentTriple",
    "GradientTriple",
    "MeasureSpec",
    "MeasureCatalog",
    "builtin_measures",
    "default_catalog",
    "resolve_measure",
    "evaluate",
    "gradient",
]

_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class MomentTriple:
    """The three moments that pin down a (truth, prediction) joint law.

    Parameters
    ----------
    m_za : float
        ``E[Z*A]``, the true-positive mass.
    m_a : float
        ``E[A]``, the predicted-positive mass.
    m_z : float
        ``E[Z]``, the actual-positive mass.

    The constructor enforces the hard constraints every genuine joint
    distribution satisfies: components in ``[0, 1]``,
    ``m_za <= min(m_a, m_z)`` and ``m_za >= m_a + m_z - 1``.
    """

    m_za: float
    m_a: float
    m_z: float

    def __post_init__(self):
        object.__setattr__(self, "m_za", float(self.m_za))
        object.__setattr__(self, "m_a", float(self.m_a))
        object.__setattr__(self, "m_z", float(self.m_z))
        for name in ("m_za", "m_a", "m_z"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < -_BOUND_TOL or v > 1 + _BOUND_TOL:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        if self.m_za > min(self.m_a, self.m_z) + _BOUND_TOL:
            raise ValueError(
                f"m_za = {self.m_za} exceeds min(m_a, m_z) = {min(self.m_a, self.m_z)}"
            )
        if self.m_za < self.m_a + self.m_z - 1 - _BOUND_TOL:
            raise ValueError(
                f"m_za = {self.m_za} below m_a + m_z - 1 = {self.m_a + self.m_z - 1}"
            )

    def cell_probabilities(self) -> tuple[float, float, float, float]:
        """Joint cell masses ``(p11, p10, p01, p00)`` for ``(Z, A)``."""
        p11 = self.m_za
        p10 = self.m_z - self.m_za
        p01 = self.m_a - self.m_za
        p00 = 1.0 - self.m_z - self.m_a + self.m_za
        return (p11, p10, p01, p00)


@dataclass(frozen=True)
class GradientTriple:
    """Partial derivatives of a measure in ``(m_za, m_a, m_z)`` order."""

    d_za: float
    d_a: float
    d_z: float

    def __post_init__(self):
        for name in ("d_za", "d_a", "d_z"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.d_za, self.d_a, self.d_z)

    def squared_norm(self) -> float:
        """``d_za**2 + d_a**2 + d_z**2``, the blurring magnitude driver."""
        return self.d_za**2 + self.d_a**2 + self.d_z**2


@dataclass(frozen=True)
class MeasureSpec:
    """A performance measure: value, gradient and domain predicate.

    ``unit_range`` marks measures whose values always lie in ``[0, 1]``;
    interval clamping applies only to those.  ``grad_ok`` defaults to
    ``domain_ok`` and differs only where the gradient has extra
    singularities (currently just ``overlap``).
    """

    id: str
    params: tuple[float, ...]
    unit_range: bool
    value_fn: Callable[[MomentTriple], float] = field(repr=False)
    gradient_fn: Callable[[MomentTriple], GradientTriple] = field(repr=False)
    domain_fn: Callable[[MomentTriple], bool] = field(repr=False)
    gradient_domain_fn: Callable[[MomentTriple], bool] | None = field(default=None, repr=False)

    def domain_ok(self, m: MomentTriple) -> bool:
        """True where the measure value is defined and finite."""
        return bool(self.domain_fn(m))

    def grad_ok(self, m: MomentTriple) -> bool:
        """True where the gradient is defined and finite."""
        kink = self.gradient_domain_fn
        return bool(self.domain_fn(m)) and (kink is None or bool(kink(m)))

    def evaluate(self, m: MomentTriple) -> float:
        if not self.domain_fn(m):
            raise DomainError(self.id, _domain_detail(m))
        v = float(self.value_fn(m))
        if self.unit_range:
            # guard floating spill past the mathematical range
            v = min(1.0, max(0.0, v))
        return v

    def gradient(self, m: MomentTriple) -> GradientTriple:
        if not self.domain_fn(m):
            raise DomainError(self.id, _domain_detail(m))
        if self.gradient_domain_fn is not None and not self.gradient_domain_fn(m):
            raise DomainError(self.id, f"gradient undefined at m_a = m_z = {m.m_a} (min kink)")
        return self.gradient_fn(m)


def _domain_detail(m: MomentTriple) -> str:
    return f"domain predicate fails at (m_za={m.m_za}, m_a={m.m_a}, m_z={m.m_z})"


# ---------------------------------------------------------------------------
# Built-in measures: one value expression each, gradients derived from it
# ---------------------------------------------------------------------------

_ZERO = (0.0, 0.0, 0.0)
_SEEDS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_Moments = namedtuple("_Moments", "m_za m_a m_z")  # a MomentTriple whose fields are duals


def _rule(f, partials):
    """The dual form of ``f(x, y)``, with ``partials(x, y, f(x, y))`` its
    derivatives in ``x`` and ``y``: the chain rule, written once."""

    def op(x, y):
        y_value, y_grad = (y.value, y.grad) if isinstance(y, _Dual) else (y, _ZERO)
        v = f(x.value, y_value)
        dx, dy = partials(x.value, y_value, v)
        (g0, g1, g2), (h0, h1, h2) = x.grad, y_grad
        return _Dual(v, (dx * g0 + dy * h0, dx * g1 + dy * h1, dx * g2 + dy * h2))

    return op


class _Dual:
    """A value with its gradient in ``(m_za, m_a, m_z)``: forward-mode
    differentiation (Griewank & Walther, *Evaluating Derivatives*, 2008).  A
    value expression run on duals yields its gradient; floats are constants."""

    __slots__ = ("value", "grad")

    def __init__(self, value: float, grad: tuple[float, float, float] = _ZERO):
        self.value = value
        self.grad = grad

    __add__ = _rule(lambda x, y: x + y, lambda x, y, v: (1.0, 1.0))
    __sub__ = _rule(lambda x, y: x - y, lambda x, y, v: (1.0, -1.0))
    __rsub__ = _rule(lambda x, y: y - x, lambda x, y, v: (-1.0, 1.0))
    __mul__ = __rmul__ = _rule(lambda x, y: x * y, lambda x, y, v: (y, x))
    __truediv__ = _rule(lambda x, y: x / y, lambda x, y, v: (1.0 / y, -v / y))
    sqrt = _rule(lambda x, _: math.sqrt(x), lambda x, _, v: (0.5 / v, 0.0))  # x.sqrt(0.0)

    def __lt__(self, other):  # all that min() needs
        return self.value < (other.value if isinstance(other, _Dual) else other)


def _sqrt(x):
    return x.sqrt(0.0) if isinstance(x, _Dual) else math.sqrt(x)


def _clip(x, lo: float, hi: float):
    """Clamp a float value to ``[lo, hi]`` against rounding spill.  A dual
    passes through, so a perfect rule's correlation keeps its gradient."""
    return x if isinstance(x, _Dual) else min(hi, max(lo, x))


def _measure(measure_id, value, domain, unit_range=True, params=(), gradient_domain=None):
    """A :class:`MeasureSpec` whose ``gradient_fn`` runs ``value`` on duals."""

    def gradient_fn(m: MomentTriple) -> GradientTriple:
        seeded = _Moments(*map(_Dual, (m.m_za, m.m_a, m.m_z), _SEEDS))
        return GradientTriple(*value(seeded).grad)

    return MeasureSpec(measure_id, params, unit_range, value, gradient_fn, domain, gradient_domain)


def _positive_marginals(m: MomentTriple) -> bool:
    return m.m_a > 0.0 and m.m_z > 0.0


def make_accuracy() -> MeasureSpec:
    """Fraction of agreeing predictions, ``2*m_za - m_a - m_z + 1``."""
    return _measure("accuracy", lambda m: 2.0 * m.m_za - m.m_a - m.m_z + 1.0, lambda m: True)


def make_f_beta(beta: float) -> MeasureSpec:
    """F score with recall weighted ``beta**2`` times precision, ``m_za / (wa * m_a + wz * m_z)``
    with ``wa = 1 / (1 + beta**2)`` and ``wz = 1 - wa``; ``beta = 1`` is F1 (Dice)."""
    beta = float(beta)
    if not math.isfinite(beta) or beta < 0:
        raise ValueError(f"f_beta needs beta >= 0, got {beta!r}")
    wa = 1.0 / (1.0 + beta * beta)
    wz = 1.0 - wa
    return _measure(
        "f1" if beta == 1.0 else f"f_beta({beta:g})",
        lambda m: m.m_za / (wa * m.m_a + wz * m.m_z),
        lambda m: wa * m.m_a + wz * m.m_z > 0.0,
        params=(beta,),
    )


def make_jaccard() -> MeasureSpec:
    """Intersection over union, ``m_za / (m_a + m_z - m_za)``."""
    return _measure(
        "jaccard",
        lambda m: m.m_za / (m.m_a + m.m_z - m.m_za),
        lambda m: m.m_a + m.m_z - m.m_za > 0.0,
    )


def make_tversky(a: float, b: float) -> MeasureSpec:
    """Tversky overlap index with false-positive weight ``a`` and
    false-negative weight ``b``; ``a = b = 0.5`` reproduces F1."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0 or b <= 0:
        raise ValueError(f"tversky needs a > 0 and b > 0, got ({a!r}, {b!r})")

    def den_of(m: MomentTriple) -> float:
        return (1.0 - a - b) * m.m_za + a * m.m_a + b * m.m_z

    return _measure(
        f"tversky({a:g},{b:g})",
        lambda m: m.m_za / den_of(m),
        lambda m: den_of(m) > 0.0,
        params=(a, b),
    )


def make_correlation() -> MeasureSpec:
    """Pearson correlation of the two indicators (Matthews phi)."""

    def value(m: MomentTriple) -> float:
        sa = m.m_a * (1.0 - m.m_a)
        sz = m.m_z * (1.0 - m.m_z)
        return _clip((m.m_za - m.m_a * m.m_z) / _sqrt(sa * sz), -1.0, 1.0)

    return _measure(
        "correlation", value, lambda m: 0.0 < m.m_a < 1.0 and 0.0 < m.m_z < 1.0, unit_range=False
    )


def make_cosine() -> MeasureSpec:
    """Cosine similarity of the indicator vectors, ``m_za / sqrt(m_a * m_z)``."""
    return _measure("cosine", lambda m: m.m_za / _sqrt(m.m_a * m.m_z), _positive_marginals)


def make_lift() -> MeasureSpec:
    """Co-occurrence over independence, ``m_za / (m_a * m_z)``."""
    return _measure(
        "lift", lambda m: m.m_za / (m.m_a * m.m_z), _positive_marginals, unit_range=False
    )


def make_overlap() -> MeasureSpec:
    """Szymkiewicz-Simpson coefficient, ``m_za / min(m_a, m_z)``; the
    gradient also needs ``m_a != m_z``, off the min kink."""
    return _measure(
        "overlap",
        lambda m: m.m_za / min(m.m_a, m.m_z),
        _positive_marginals,
        gradient_domain=lambda m: m.m_a != m.m_z,
    )


def builtin_measures() -> tuple[MeasureSpec, ...]:
    """The nine stock measures, parameterized entries at their defaults."""
    return (
        make_accuracy(),
        make_f_beta(1.0),
        make_f_beta(0.5),
        make_jaccard(),
        make_tversky(0.5, 0.5),
        make_correlation(),
        make_cosine(),
        make_lift(),
        make_overlap(),
    )


# ---------------------------------------------------------------------------
# Catalog: registration and id resolution
# ---------------------------------------------------------------------------

_PARAM_ID = re.compile(r"^([a-z_][a-z0-9_]*)\(([^()]*)\)$")


class MeasureCatalog:
    """Mutable registry of measures keyed by canonical id.

    Parameterized built-in families (``f_beta``, ``tversky``) resolve
    lazily: ``resolve("f_beta(2)")`` constructs and caches the instance.
    Explicitly registered measures always win over lazy construction.
    """

    def __init__(self, include_builtins: bool = True):
        self._measures: dict[str, MeasureSpec] = {}
        if include_builtins:
            for spec in builtin_measures():
                self._measures[spec.id] = spec

    def ids(self) -> tuple[str, ...]:
        return tuple(self._measures)

    def register(self, measure: MeasureSpec) -> None:
        if measure.id in self._measures:
            raise DuplicateIdError(measure.id)
        self._measures[measure.id] = measure

    def resolve(self, measure_id: str) -> MeasureSpec:
        key = measure_id.strip()
        if key in self._measures:
            return self._measures[key]
        spec = self._parse_parameterized(key)
        if spec is None:
            raise UnknownMeasureError(measure_id, self.ids())
        self._measures.setdefault(spec.id, spec)
        return spec

    def _parse_parameterized(self, key: str) -> MeasureSpec | None:
        match = _PARAM_ID.match(key.replace(" ", ""))
        if match is None:
            return None
        family, raw_args = match.groups()
        try:
            args = tuple(float(tok) for tok in raw_args.split(",") if tok != "")
        except ValueError:
            return None
        if family == "f_beta" and len(args) == 1:
            return make_f_beta(args[0])
        if family == "tversky" and len(args) == 2:
            return make_tversky(args[0], args[1])
        return None


_DEFAULT = MeasureCatalog()


def default_catalog() -> MeasureCatalog:
    """The module-wide catalog used when callers pass none."""
    return _DEFAULT


def resolve_measure(measure_id: str, catalog: MeasureCatalog | None = None) -> MeasureSpec:
    return (catalog or _DEFAULT).resolve(measure_id)


def _as_spec(measure: MeasureSpec | str, catalog: MeasureCatalog | None) -> MeasureSpec:
    if isinstance(measure, MeasureSpec):
        return measure
    return resolve_measure(measure, catalog)


def evaluate(
    measure: MeasureSpec | str,
    m: MomentTriple,
    catalog: MeasureCatalog | None = None,
) -> float:
    """Value of ``measure`` at the moment triple ``m``."""
    return _as_spec(measure, catalog).evaluate(m)


def gradient(
    measure: MeasureSpec | str,
    m: MomentTriple,
    catalog: MeasureCatalog | None = None,
) -> GradientTriple:
    """Gradient of ``measure`` at ``m`` in ``(m_za, m_a, m_z)`` order."""
    return _as_spec(measure, catalog).gradient(m)
