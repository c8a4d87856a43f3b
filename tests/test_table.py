import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pinncert.ode import ConfigurationError
from pinncert.table import point_columns, read_table, write_table

EXTREMES = [5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -0.0]
values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES)


@given(table=st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(values, min_size=k, max_size=k), min_size=1, max_size=6)))
@example(table=[EXTREMES])
def test_round_trip_is_bit_for_bit(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    columns = [f"c{j}" for j in range(len(table[0]))]
    write_table(path, columns, table)
    idx, rows = read_table(path, columns)
    assert idx == {name: j for j, name in enumerate(columns)}
    assert rows.tobytes() == np.array(table, dtype=float).tobytes()


def test_point_columns():
    assert point_columns(1, 0) == ["t", "x0_1"]
    assert point_columns(4, 1) == ["t", "x0_1", "x0_2", "x0_3", "x0_4", "u"]
    assert point_columns(2, 2) == ["t", "x0_1", "x0_2", "u_1", "u_2"]


def test_columns_are_found_by_name(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("b, a\n1,2\n\n3,4\n")
    idx, rows = read_table(path, ("a", "b"))
    assert idx == {"b": 0, "a": 1}
    np.testing.assert_array_equal(rows[:, idx["a"]], [2.0, 4.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text,message", [
    ("", "empty CSV"),
    ("\n\n", "empty CSV"),
    ("t,total\n", "no data rows"),
    ("time,total\n0,1\n", "lacks column(s) t; it must have t, total"),
    ("t,total\n0,1\n2\n", "row 1 has 1 of 2 values"),
    ("t,total\n0,1\n2,3,4\n", "row 1 has 3 of 2 values"),
    ("t,total\n0,nan\n", "row 0, column total: 'nan' is not a finite number"),
    ("t,total\n0,1\n-inf,1\n", "row 1, column t: '-inf' is not a finite number"),
    ("t,total\n0,abc\n", "row 0, column total: 'abc' is not a finite number"),
    ("t,total\n0,\n", "row 0, column total: '' is not a finite number"),
], ids=["empty", "blank", "header-only", "missing-column", "short-row", "long-row", "nan",
        "inf", "text", "empty-cell"])
def test_malformed_table_names_file_and_fault(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigurationError) as err:
        read_table(path, ("t", "total"))
    assert str(err.value).startswith(str(path))
    assert message in str(err.value)
