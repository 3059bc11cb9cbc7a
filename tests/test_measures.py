"""Measure catalog: values, derived gradients, domains, registration."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfci.errors import DomainError, DuplicateIdError, UnknownMeasureError
from perfci.measures import (
    GradientTriple,
    MeasureCatalog,
    MeasureSpec,
    MomentTriple,
    _Moments,
    builtin_measures,
    make_f_beta,
    make_tversky,
    resolve_measure,
)

BUILTIN_IDS = [
    "accuracy",
    "f1",
    "f_beta(0.5)",
    "jaccard",
    "tversky(0.5,0.5)",
    "correlation",
    "cosine",
    "lift",
    "overlap",
]


def random_interior_triple(rng, margin=0.05):
    """Triple satisfying the feasibility bounds strictly, with margin.

    Also keeps m_a and m_z away from 0/1 so every built-in measure's
    domain holds, and the overlap kink m_a == m_z is avoided.
    """
    while True:
        m_a = rng.uniform(0.08, 0.92)
        m_z = rng.uniform(0.08, 0.92)
        lo = max(0.0, m_a + m_z - 1.0) + margin
        hi = min(m_a, m_z) - margin
        if hi <= lo or abs(m_a - m_z) < margin:
            continue
        m_za = rng.uniform(lo, hi)
        return MomentTriple(m_za, m_a, m_z)


def fd_gradient(measure, m, h=1e-6):
    """Independent central-difference gradient."""
    out = []
    for shift in ((h, 0, 0), (0, h, 0), (0, 0, h)):
        up = MomentTriple(m.m_za + shift[0], m.m_a + shift[1], m.m_z + shift[2])
        dn = MomentTriple(m.m_za - shift[0], m.m_a - shift[1], m.m_z - shift[2])
        out.append((measure.evaluate(up) - measure.evaluate(dn)) / (2 * h))
    return out


# ---------------------------------------------------------------------------
# moment / gradient value types
# ---------------------------------------------------------------------------


def test_moment_triple_cell_probabilities():
    m = MomentTriple(0.25, 0.5, 0.4)
    cells = m.cell_probabilities()
    assert cells == pytest.approx((0.25, 0.15, 0.25, 0.35))
    assert sum(cells) == pytest.approx(1.0)


def test_moment_triple_rejects_infeasible():
    with pytest.raises(ValueError):
        MomentTriple(0.6, 0.5, 0.5)  # above min(m_a, m_z)
    with pytest.raises(ValueError):
        MomentTriple(0.1, 0.9, 0.8)  # below m_a + m_z - 1
    with pytest.raises(ValueError):
        MomentTriple(-0.2, 0.5, 0.5)
    with pytest.raises(ValueError):
        MomentTriple(0.5, 1.2, 0.5)
    with pytest.raises(ValueError):
        MomentTriple(float("nan"), 0.5, 0.5)


def test_gradient_triple_requires_finite():
    with pytest.raises(ValueError):
        GradientTriple(1.0, float("inf"), 0.0)
    g = GradientTriple(1.0, 2.0, -3.0)
    assert g.as_tuple() == (1.0, 2.0, -3.0)
    assert g.squared_norm() == pytest.approx(14.0)


# ---------------------------------------------------------------------------
# values at known points
# ---------------------------------------------------------------------------


def test_known_values_at_reference_triple():
    m = MomentTriple(0.25, 0.5, 0.5)
    assert resolve_measure("accuracy").evaluate(m) == pytest.approx(0.5)
    assert resolve_measure("jaccard").evaluate(m) == pytest.approx(1.0 / 3.0)
    assert resolve_measure("lift").evaluate(m) == pytest.approx(1.0)
    assert resolve_measure("correlation").evaluate(m) == pytest.approx(0.0)
    assert resolve_measure("cosine").evaluate(m) == pytest.approx(0.5)
    assert resolve_measure("overlap").evaluate(m) == pytest.approx(0.5)


def test_f1_and_tversky_reference_values():
    m = MomentTriple(0.4, 0.5, 0.5)
    assert resolve_measure("f1").evaluate(m) == pytest.approx(0.8)
    assert resolve_measure("tversky(0.5,0.5)").evaluate(m) == pytest.approx(0.8)


def test_known_gradients():
    m = MomentTriple(0.25, 0.5, 0.5)
    assert resolve_measure("accuracy").gradient(m).as_tuple() == (2.0, -1.0, -1.0)
    assert resolve_measure("lift").gradient(m).as_tuple() == pytest.approx((4.0, -2.0, -2.0))
    g = resolve_measure("f1").gradient(MomentTriple(0.4, 0.5, 0.5))
    assert g.as_tuple() == pytest.approx((2.0, -0.8, -0.8))


def test_accuracy_complement_identity():
    rng = np.random.default_rng(101)
    for _ in range(50):
        m = random_interior_triple(rng)
        direct = resolve_measure("accuracy").evaluate(m)
        assert direct == pytest.approx(1.0 - (m.m_a + m.m_z - 2.0 * m.m_za), abs=1e-14)


def test_cosine_matches_normalized_overlap_formula():
    rng = np.random.default_rng(102)
    for _ in range(50):
        m = random_interior_triple(rng)
        assert resolve_measure("cosine").evaluate(m) == pytest.approx(
            m.m_za / math.sqrt(m.m_a * m.m_z), abs=1e-14
        )


# ---------------------------------------------------------------------------
# gradients vs finite differences
# ---------------------------------------------------------------------------


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(103)
    specs = list(builtin_measures()) + [
        make_f_beta(2.0),
        make_tversky(0.3, 0.4),
    ]
    for spec in specs:
        for _ in range(25):
            m = random_interior_triple(rng)
            got = np.asarray(spec.gradient(m).as_tuple())
            want = np.asarray(fd_gradient(spec, m))
            denom = np.maximum(np.abs(want), 1e-3)
            assert np.max(np.abs(got - want) / denom) < 1e-5, spec.id


def _oracle(spec):
    """The measure's value at 50 digits, from its textbook formula (README
    "Measures"), not from the catalog's expression."""
    kind, sqrt = spec.id.split("(")[0], mpmath.sqrt
    if kind in ("f1", "f_beta"):
        b2 = mpmath.mpf(spec.params[0]) ** 2
        return lambda za, a, z: (1 + b2) * za / (b2 * z + a)
    if kind == "tversky":
        fp, fn = map(mpmath.mpf, spec.params)
        return lambda za, a, z: za / (za + fp * (a - za) + fn * (z - za))
    return {
        "accuracy": lambda za, a, z: 1 - z - a + 2 * za,
        "jaccard": lambda za, a, z: za / (a + z - za),
        "correlation": lambda za, a, z: (za - a * z) / sqrt(a * (1 - a) * z * (1 - z)),
        "cosine": lambda za, a, z: za / sqrt(a * z),
        "lift": lambda za, a, z: za / (a * z),
        "overlap": lambda za, a, z: za / min(a, z),
    }[kind]


def _central_difference(f, m):
    """Gradient of ``f`` at ``m`` by a central difference at 50 digits: its
    step of 1e-25 leaves a truncation error near 1e-50 and a rounding error
    near 1e-25."""
    with mpmath.workdps(50):
        h = mpmath.mpf(10) ** -25
        point = [mpmath.mpf(m.m_za), mpmath.mpf(m.m_a), mpmath.mpf(m.m_z)]
        out = []
        for k in range(3):
            up, dn = list(point), list(point)
            up[k] += h
            dn[k] -= h
            out.append(float((f(*up) - f(*dn)) / (2 * h)))
    return out


@st.composite
def feasible_triples(draw):
    """Feasible triples with both marginals in [1e-3, 1 - 1e-3], where a
    float gradient can be held to 1e-12: nearer 0 or 1, cancellations such
    as correlation's ``(2*m_a - 1)*m_za - m_a*m_z`` lose digits to the
    inputs' own rounding, whatever form the gradient is computed in.
    ``m_za`` is often 0 or ``min(m_a, m_z)``; ``m_z = m_a`` and
    ``m_z = 1 - m_a`` give correlations of exactly 1 and -1."""
    marginal = st.floats(1e-3, 1.0 - 1e-3)
    m_a = draw(marginal)
    m_z = draw(st.one_of(marginal, st.just(m_a), st.just(1.0 - m_a)))
    lo, hi = max(0.0, m_a + m_z - 1.0), min(m_a, m_z)
    m_za = draw(st.one_of(st.just(lo), st.just(hi), st.floats(lo, hi)))
    return MomentTriple(m_za, m_a, m_z)


@settings(max_examples=300, deadline=None)
@given(
    feasible_triples(),
    st.floats(0.1, 10.0),
    st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)),
)
def test_derived_gradients_match_a_50_digit_central_difference(m, beta, weights):
    specs = [*builtin_measures(), make_f_beta(beta), make_tversky(*weights)]
    for spec in specs:
        try:
            got = spec.gradient(m).as_tuple()
        except DomainError:
            continue
        want = _central_difference(_oracle(spec), m)
        scale = max(abs(w) for w in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * scale, (spec.id, got)


@st.composite
def counted_triples(draw):
    """The moments of a table of at most 12 rows: ``m_a`` and ``m_z`` are
    often 0 or 1, where correlation, cosine, lift and overlap leave their
    domains, and ``m_a = m_z`` (overlap's kink) is drawn whenever it fits."""
    n = draw(st.integers(1, 12))
    n11 = draw(st.integers(0, n))
    n10 = draw(st.integers(0, n - n11))
    n01 = draw(st.one_of(st.just(min(n10, n - n11 - n10)), st.integers(0, n - n11 - n10)))
    return MomentTriple(n11 / n, (n11 + n01) / n, (n11 + n10) / n)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(feasible_triples(), counted_triples()), min_size=1, max_size=12))
def test_moment_arrays_give_the_scalar_bits_and_domain_errors(triples):
    arrays = _Moments(*(np.array(field) for field in zip(*((t.m_za, t.m_a, t.m_z) for t in triples))))
    for spec in builtin_measures():
        values, gradients = spec.evaluate(arrays), spec.gradient(arrays)
        assert values.shape == (len(triples),) and gradients.shape == (len(triples), 3)
        for m, value, gradient in zip(triples, values, gradients):
            try:
                assert value.tobytes() == np.float64(spec.evaluate(m)).tobytes(), spec.id
            except DomainError:
                assert np.isnan(value), spec.id
            try:
                assert gradient.tobytes() == np.array(spec.gradient(m).as_tuple()).tobytes(), spec.id
            except DomainError:
                assert np.isnan(gradient).all(), spec.id


def test_f_beta_one_is_f1_exactly():
    rng = np.random.default_rng(104)
    f1 = resolve_measure("f1")
    fb = make_f_beta(1.0)
    assert fb.id == "f1"
    for _ in range(30):
        m = random_interior_triple(rng)
        assert fb.evaluate(m) == f1.evaluate(m)
        assert fb.gradient(m).as_tuple() == f1.gradient(m).as_tuple()


def test_tversky_specializes_to_f_beta():
    rng = np.random.default_rng(105)
    for beta in (0.5, 2.0):
        w = 1.0 / (1.0 + beta * beta)
        fb = make_f_beta(beta)
        tv = make_tversky(w, 1.0 - w)
        for _ in range(30):
            m = random_interior_triple(rng)
            assert tv.evaluate(m) == pytest.approx(fb.evaluate(m), abs=1e-14)
            assert np.asarray(tv.gradient(m).as_tuple()) == pytest.approx(
                np.asarray(fb.gradient(m).as_tuple()), abs=1e-12
            )


def test_unit_range_measures_stay_in_unit_interval():
    rng = np.random.default_rng(106)
    unit = [s for s in builtin_measures() if s.unit_range]
    assert sorted(s.id for s in unit) == sorted(
        ["accuracy", "f1", "f_beta(0.5)", "jaccard", "tversky(0.5,0.5)", "cosine", "overlap"]
    )
    for spec in unit:
        for _ in range(40):
            m = random_interior_triple(rng, margin=0.02)
            v = spec.evaluate(m)
            assert 0.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


def test_domain_errors_on_vanishing_denominators():
    zero = MomentTriple(0.0, 0.0, 0.0)
    for mid in ("f1", "f_beta(0.5)", "jaccard", "tversky(0.5,0.5)", "cosine", "lift", "overlap"):
        with pytest.raises(DomainError):
            resolve_measure(mid).evaluate(zero)
    # accuracy is total
    assert resolve_measure("accuracy").evaluate(zero) == pytest.approx(1.0)


def test_correlation_domain_needs_nondegenerate_marginals():
    with pytest.raises(DomainError):
        resolve_measure("correlation").evaluate(MomentTriple(0.0, 0.0, 0.5))
    with pytest.raises(DomainError):
        resolve_measure("correlation").evaluate(MomentTriple(0.5, 1.0, 0.5))
    # fine strictly inside
    assert resolve_measure("correlation").evaluate(MomentTriple(0.25, 0.5, 0.5)) == 0.0


def test_overlap_tie_evaluates_but_has_no_gradient():
    tie = MomentTriple(0.3, 0.5, 0.5)
    assert resolve_measure("overlap").evaluate(tie) == pytest.approx(0.6)
    with pytest.raises(DomainError) as err:
        resolve_measure("overlap").gradient(tie)
    assert "overlap" in str(err.value)
    # off the tie the one-sided branch is active
    g = resolve_measure("overlap").gradient(MomentTriple(0.3, 0.4, 0.5))
    assert g.as_tuple() == pytest.approx((2.5, -1.875, 0.0))
    spec = resolve_measure("overlap")
    assert spec.domain_fn(tie) and not spec.gradient_domain_fn(tie)


def test_lift_gradient_finite_at_zero_overlap():
    # removable-singularity forms: gradients exist at m_za = 0
    m = MomentTriple(0.0, 0.4, 0.5)
    assert resolve_measure("lift").gradient(m).as_tuple() == pytest.approx((5.0, 0.0, 0.0))
    assert resolve_measure("jaccard").gradient(m).d_za == pytest.approx(0.9 / 0.81)
    assert resolve_measure("cosine").gradient(m).d_za == pytest.approx(1.0 / math.sqrt(0.2))


# ---------------------------------------------------------------------------
# catalog behaviour
# ---------------------------------------------------------------------------


def test_builtin_catalog_lists_nine_measures():
    ids = [spec.id for spec in builtin_measures()]
    assert ids == BUILTIN_IDS


def test_parameterized_resolution_and_formatting():
    assert resolve_measure("f_beta(2)").id == "f_beta(2)"
    assert resolve_measure("f_beta(1)").id == "f1"
    assert resolve_measure("tversky(0.3, 0.4)").id == "tversky(0.3,0.4)"
    assert resolve_measure(" accuracy ").id == "accuracy"
    with pytest.raises(UnknownMeasureError):
        resolve_measure("no_such_measure")
    with pytest.raises(UnknownMeasureError):
        resolve_measure("f_beta(2,3)")  # wrong arity
    with pytest.raises(ValueError):
        make_tversky(-0.1, 0.5)
    with pytest.raises(ValueError):
        make_f_beta(float("nan"))


def test_register_custom_measure_and_duplicate_rejection():
    catalog = MeasureCatalog()
    recall = MeasureSpec(
        id="recall",
        params=(),
        unit_range=True,
        value_fn=lambda m: m.m_za / m.m_z,
        gradient_fn=lambda m: GradientTriple(
            1.0 / m.m_z, 0.0, -m.m_za / (m.m_z * m.m_z)
        ),
        domain_fn=lambda m: m.m_z > 0.0,
    )
    catalog.register(recall)
    assert catalog.resolve("recall") is recall
    with pytest.raises(DuplicateIdError):
        catalog.register(recall)
    with pytest.raises(DuplicateIdError):
        catalog.register(make_f_beta(1.0))  # id f1 already present

    rng = np.random.default_rng(107)
    for _ in range(20):
        m = random_interior_triple(rng)
        got = np.asarray(recall.gradient(m).as_tuple())
        want = np.asarray(fd_gradient(recall, m))
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-3)) < 1e-5


def test_catalogs_are_independent():
    mine = MeasureCatalog()
    mine.register(
        MeasureSpec(
            id="always_one",
            params=(),
            unit_range=True,
            value_fn=lambda m: 1.0,
            gradient_fn=lambda m: GradientTriple(0.0, 0.0, 0.0),
            domain_fn=lambda m: True,
        )
    )
    with pytest.raises(UnknownMeasureError):
        resolve_measure("always_one")  # default catalog untouched
    assert mine.resolve("always_one").evaluate(MomentTriple(0.2, 0.5, 0.4)) == 1.0
