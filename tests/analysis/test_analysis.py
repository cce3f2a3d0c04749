"""Tests for the imbalance index and the table renderer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Table, max_mean_ratio
from repro.analysis.reporting import table_to_dict


# ------------------------------------------------------------------ indices


def test_balanced_values_are_ideal():
    vals = [2.0, 2.0, 2.0, 2.0]
    assert max_mean_ratio(vals) == 1.0


def test_imbalanced_values():
    vals = [4.0, 0.0, 0.0, 0.0]
    assert max_mean_ratio(vals) == 4.0


def test_all_zero_conventions():
    assert max_mean_ratio([0.0, 0.0]) == 1.0


def test_index_validation():
    with pytest.raises(ValueError):
        max_mean_ratio([])
    with pytest.raises(ValueError):
        max_mean_ratio([-1.0, 2.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=30))
def test_index_bounds(values):
    assert max_mean_ratio(values) >= 1.0 - 1e-9


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.1, 100.0), min_size=2, max_size=20),
    st.floats(0.5, 10.0),
)
def test_indices_scale_invariant(values, factor):
    scaled = [v * factor for v in values]
    assert max_mean_ratio(scaled) == pytest.approx(max_mean_ratio(values))


# -------------------------------------------------------------------- table


def test_table_renders_aligned():
    t = Table("demo", ["name", "value"])
    t.add_row("alpha", 1.5)
    t.add_row("b", 123456.0)
    t.add_note("a note")
    text = t.render()
    lines = text.splitlines()
    assert lines[0] == "== demo =="
    assert "name" in lines[1] and "value" in lines[1]
    assert all("|" in l for l in lines[1:2])
    assert "note: a note" in text
    # columns aligned: separators in the same position
    assert lines[3].index("|") == lines[1].index("|")


def test_table_wrong_arity_rejected():
    t = Table("x", ["a", "b"])
    with pytest.raises(ValueError):
        t.add_row(1)


def test_table_float_formatting():
    t = Table("x", ["v"])
    t.add_row(0.0)
    t.add_row(0.123456)
    t.add_row(1234567.0)
    t.add_row(0.0000123)
    rendered = t.render()
    assert "0.123" in rendered
    assert "1.23e+06" in rendered
    assert "1.23e-05" in rendered


def test_table_to_dict_mirrors_render():
    t = Table("demo", ["name", "value"])
    t.add_row("alpha", 1.5)
    t.add_note("a note")
    d = table_to_dict(t)
    assert d == {
        "title": "demo",
        "columns": ["name", "value"],
        "rows": [["alpha", "1.5"]],  # cells keep the rendered strings
        "notes": ["a note"],
    }
    # Mutating the dict must not touch the table.
    d["rows"].append(["x", "y"])
    assert len(t.rows) == 1


def test_table_print(capsys):
    t = Table("x", ["v"])
    t.add_row(1)
    t.print()
    out = capsys.readouterr().out
    assert "== x ==" in out
