"""Tests for table formatting."""

from repro.experiments.report import format_table, relative_errors


def test_format_table_alignment():
    table = format_table(
        ["tree", "mbus", "rtu"],
        [["I", 24.75, 24.75], ["II", 5.73, 5.59]],
        title="Table 2",
    )
    lines = table.splitlines()
    assert lines[0] == "Table 2"
    assert "tree" in lines[1]
    assert set(lines[2]) <= {"-", "+", " "}
    assert "24.75" in table and "5.59" in table


def test_format_table_none_renders_dash():
    table = format_table(["c", "v"], [["x", None]])
    assert "—" in table


def test_format_table_column_widths_consistent():
    table = format_table(["a", "b"], [["xxxx", 1.0], ["y", 123456.78]])
    lines = table.splitlines()
    assert len(lines[0]) == len(lines[2]) == len(lines[3])


def test_relative_errors():
    errors = relative_errors({"a": 10.0, "b": 20.0, "c": None}, {"a": 11.0, "b": 20.0})
    assert errors["a"] == 0.1
    assert errors["b"] == 0.0
    assert "c" not in errors
