"""The report writer ``cli._json`` against the reference writer it replaced.

The reference is ``json.dumps(jsonable(doc), indent=2, sort_keys=True,
allow_nan=False)`` plus a newline, with ``jsonable`` as it was in
``pmlkit.modelio``: every report the CLI writes must be these bytes.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmlkit import cli, modelio
from conftest import FIXTURES


def jsonable(value):
    """Make a value JSON-serializable, spelling infinities as 'inf'."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def reference(doc) -> str:
    return json.dumps(jsonable(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def outcome(write, doc):
    """What ``write(doc)`` gives: ("text", text) or ("error", type, message)."""
    try:
        return ("text", write(doc))
    except (ValueError, TypeError) as exc:
        return ("error", type(exc), str(exc))


SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, 1e16, 1e-05, 1e308, math.inf, -math.inf)
SPECIAL_TEXTS = ("", "inf", "a, b", '"quoted"', "back\\slash", "tab\there\nline",
                 "\x00\x1f\x7f", "é", "☃, 𝄞", "\u2028\ud800")


def _scalars(nan: bool):
    floats = st.floats(allow_nan=nan) | st.sampled_from(SPECIAL_FLOATS)
    return (floats | floats.map(np.float64) | st.integers() | st.booleans() | st.none()
            | st.text() | st.sampled_from(SPECIAL_TEXTS))


def _float_lists(nan: bool):
    """Long lists of plain floats, some with one infinity (or NaN) inside."""
    finite = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=300)
    odd = st.sampled_from((math.inf, -math.inf, math.nan) if nan else (math.inf, -math.inf))
    return finite | st.tuples(finite, odd, st.integers(0, 300)).map(
        lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])


def documents(nan: bool = False):
    """Documents of JSON leaves; with ``nan``, also NaN and leaves json refuses by type."""
    leaves = _scalars(nan) | _float_lists(nan) | st.lists(st.integers() | st.floats(allow_nan=nan))
    if nan:
        leaves |= st.sampled_from((np.int64(3), np.bool_(True), object()))
    keys = st.text() | st.sampled_from(SPECIAL_TEXTS)
    return st.recursive(leaves, lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(keys, children, max_size=5)), max_leaves=30)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(documents())
def test_writer_matches_the_reference(doc):
    assert cli._json(doc) == reference(doc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(documents(nan=True))
def test_writer_refuses_nan_as_the_reference_does(doc):
    assert outcome(cli._json, doc) == outcome(reference, doc)


@pytest.mark.parametrize(
    "doc",
    [
        math.nan,
        {"eps": math.nan},
        [1.0, 2.0, math.nan],
        [0.5] * 500 + [math.inf, math.nan],
        {"b": [{"a": (1, [math.nan])}], "a": [math.inf]},
        {"z": np.float64(math.nan)},
        [np.float64(1.0), np.float64(math.nan)],
    ],
    ids=["bare", "dict_value", "float_list", "after_inf", "nested", "numpy", "numpy_list"],
)
def test_nan_at_any_depth_raises_the_reference_error(doc):
    with pytest.raises(ValueError) as expected:
        reference(doc)
    with pytest.raises(ValueError) as got:
        cli._json(doc)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "doc, text",
    [
        ({}, "{}\n"),
        ([], "[]\n"),
        ({"a": [], "b": {}}, '{\n  "a": [],\n  "b": {}\n}\n'),
        ([1.5, math.inf, -0.0], '[\n  1.5,\n  "inf",\n  -0.0\n]\n'),
        ({"x": np.float64(-math.inf)}, '{\n  "x": "-inf"\n}\n'),
        (["a, b", "é"], '[\n  "a, b",\n  "\\u00e9"\n]\n'),
    ],
    ids=["empty_dict", "empty_list", "empty_members", "float_list_inf", "numpy_inf",
         "strings"],
)
def test_writer_examples(doc, text):
    assert cli._json(doc) == text == reference(doc)


@pytest.mark.parametrize("argv", [["verify", "identity4.json", "--oracle", "subset"],
                                  ["compute", "identity4.json"]], ids=lambda argv: argv[0])
def test_reports_reach_the_indented_encoder_only_for_nan(monkeypatch, capsys, argv):
    def refuse(value):
        raise AssertionError(f"_scalar({value!r})")

    monkeypatch.setattr(modelio, "_scalar", refuse)
    assert cli.main([str(FIXTURES / a) if a.endswith(".json") else a for a in argv]) == 0


def test_jsonable_spells_infinity():
    doc = jsonable({"a": math.inf, "b": [1.0, -math.inf], "c": "inf"})
    assert doc == {"a": "inf", "b": [1.0, "-inf"], "c": "inf"}
    json.dumps(doc)  # remains serializable
