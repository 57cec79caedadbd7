"""Unit tests for ASCII result rendering."""

from repro.experiments.reporting import format_table


def test_table_alignment_and_header_rule():
    text = format_table(["name", "value"], [("a", 1), ("long-name", 2.5)])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 4
    widths = [len(line) for line in lines]
    assert max(widths[2:]) <= len(lines[1])


def test_float_formatting():
    text = format_table(["x"], [(0.123456,), (1234567.0,), (float("nan"),), (float("inf"),)])
    assert "0.1235" in text
    assert "e+06" in text
    assert "nan" in text
    assert "inf" in text


def test_bool_formatting():
    text = format_table(["ok"], [(True,), (False,)])
    assert "yes" in text and "no" in text


def test_tiny_floats_use_scientific():
    assert "e-05" in format_table(["x"], [(1.5e-5,)])


def test_empty_rows():
    text = format_table(["a", "b"], [])
    assert len(text.splitlines()) == 2
