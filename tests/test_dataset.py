"""Evaluation tables: construction, validation errors, moment estimates."""

import io

import numpy as np
import pytest

from perfci.dataset import (
    BinaryDataset,
    EvaluationTarget,
    compute_moments,
    make_joint_sets,
    make_targets,
    read_csv,
    validate_table,
)
from perfci.errors import (
    DatasetError,
    DuplicateRuleIdError,
    LengthMismatchError,
    NonBinaryValueError,
    TooFewRowsError,
    UnknownRuleError,
)


def test_from_arrays_and_moments():
    data = BinaryDataset.from_arrays(
        z=[1, 1, 0, 0], rules={"a": [1, 0, 1, 0]}
    )
    assert data.n == 4
    assert data.rule_ids == ("a",)
    m = compute_moments(data, "a")
    assert (m.m_za, m.m_a, m.m_z) == (0.25, 0.5, 0.5)


def test_from_arrays_accepts_pair_list_and_keeps_order():
    data = BinaryDataset.from_arrays(
        z=[0, 1, 1], rules=[("r2", [1, 1, 0]), ("r1", [0, 0, 1])]
    )
    assert data.rule_ids == ("r2", "r1")


def test_from_arrays_rejects_duplicates_and_z_collision():
    with pytest.raises(DuplicateRuleIdError):
        BinaryDataset.from_arrays([0, 1], [("r", [0, 1]), ("r", [1, 0])])
    with pytest.raises(DuplicateRuleIdError):
        BinaryDataset.from_arrays([0, 1], [("z", [0, 1])])


def test_from_arrays_shape_checks():
    with pytest.raises(LengthMismatchError):
        BinaryDataset.from_arrays([0, 1, 1], {"r": [0, 1]})
    with pytest.raises(TooFewRowsError):
        BinaryDataset.from_arrays([1], {"r": [0]})
    with pytest.raises(DatasetError):
        BinaryDataset.from_arrays([0, 1], {})
    with pytest.raises(NonBinaryValueError):
        BinaryDataset.from_arrays([0, 2], {"r": [0, 1]})
    with pytest.raises(DatasetError, match="column 'r' must be one-dimensional"):
        BinaryDataset.from_arrays([0, 1], {"r": [[0, 1], [1, 0]]})


def test_unknown_rule_lists_known_ids():
    data = BinaryDataset.from_arrays([0, 1], {"good": [1, 0]})
    with pytest.raises(UnknownRuleError) as err:
        data.rule("bad")
    assert "good" in str(err.value)


def test_validate_table_happy_path_with_float_spellings():
    data = validate_table(
        ["z", "r"],
        [["1.0", "0.0"], [" 1", "1"], ["0", "1.0"]],
    )
    assert data.n == 3
    m = compute_moments(data, "r")
    assert (m.m_za, m.m_a, m.m_z) == (1 / 3, 2 / 3, 2 / 3)


def test_validate_table_reports_bad_cell_position():
    with pytest.raises(NonBinaryValueError) as err:
        validate_table(["z", "r"], [["1", "0"], ["0", "yes"]])
    msg = str(err.value)
    assert "row 2" in msg and "'r'" in msg and "yes" in msg
    with pytest.raises(NonBinaryValueError):
        validate_table(["z", "r"], [["1", "0"], ["0", "2"]])
    with pytest.raises(NonBinaryValueError):
        validate_table(["z", "r"], [["1", "0"], ["0", "0.5"]])


def test_validate_table_structural_errors():
    with pytest.raises(DatasetError):
        validate_table(["a", "b"], [["0", "1"], ["1", "0"]])  # no z
    with pytest.raises(DuplicateRuleIdError):
        validate_table(["z", "z", "r"], [["0", "1", "0"]] * 3)
    with pytest.raises(DuplicateRuleIdError):
        validate_table(["z", "r", "r"], [["0", "1", "0"]] * 3)
    with pytest.raises(DatasetError):
        validate_table(["z"], [["0"], ["1"]])  # no rule columns
    with pytest.raises(LengthMismatchError) as err:
        validate_table(["z", "r"], [["0", "1"], ["1"]])
    assert "row 2" in str(err.value)
    with pytest.raises(TooFewRowsError):
        validate_table(["z", "r"], [["0", "1"]])


def test_read_csv_from_path_and_stream(tmp_path):
    text = "z,r1,r2\n1,1,0\n0,0,1\n1,1,1\n\n"
    path = tmp_path / "table.csv"
    path.write_text(text)
    from_path = read_csv(path)
    from_stream = read_csv(io.StringIO(text))
    assert from_path.n == from_stream.n == 3
    assert from_path.rule_ids == ("r1", "r2")
    np.testing.assert_array_equal(from_path.z, from_stream.z)
    with pytest.raises(DatasetError):
        read_csv(io.StringIO(""))


def test_make_targets_is_rule_major():
    targets = make_targets(["r1", "r2"], ["m1", "m2"])
    assert [t.label() for t in targets] == [
        "r1:m1",
        "r1:m2",
        "r2:m1",
        "r2:m2",
    ]
    assert targets[0].rule_id == "r1" and targets[0].measure_id == "m1"
    assert EvaluationTarget("r1", "m1").label() == "r1:m1"


def test_make_joint_sets_grammar_and_labels():
    targets = make_targets(["r1", "r2"], ["m1", "m2"])
    assert make_joint_sets(" per-rule , all ; 3,0;1 ", targets) == [
        ("r1", (0, 1)),
        ("r2", (2, 3)),
        ("all", (0, 1, 2, 3)),
        ("set1", (3, 0)),
        ("set2", (1,)),
    ]
    assert make_joint_sets(((0,), [1, 2]), targets) == [("set0", (0,)), ("set1", (1, 2))]
    for bad in ("none", "all,1", "0,,1", "4", "", ((),), ((0, 5),), "all;all", "0,0"):
        with pytest.raises(ValueError, match="joint set"):
            make_joint_sets(bad, targets)
    # a rule named "all" gives its per-rule set the label of the "all" set
    with pytest.raises(ValueError, match="joint set"):
        make_joint_sets("per-rule,all", make_targets(["all", "r2"], ["m1"]))


def test_moments_satisfy_feasibility_bounds():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        z = rng.integers(0, 2, n)
        a = rng.integers(0, 2, n)
        data = BinaryDataset.from_arrays(z, {"r": a})
        m = compute_moments(data, "r")
        assert 0.0 <= m.m_za <= min(m.m_a, m.m_z)
        assert m.m_za >= m.m_a + m.m_z - 1.0


def test_moments_invariant_under_row_permutation():
    rng = np.random.default_rng(22)
    for _ in range(25):
        n = int(rng.integers(5, 40))
        z = rng.integers(0, 2, n)
        a = rng.integers(0, 2, n)
        perm = rng.permutation(n)
        m1 = compute_moments(BinaryDataset.from_arrays(z, {"r": a}), "r")
        m2 = compute_moments(
            BinaryDataset.from_arrays(z[perm], {"r": a[perm]}), "r"
        )
        assert (m1.m_za, m1.m_a, m1.m_z) == (m2.m_za, m2.m_a, m2.m_z)
