"""The model reader: a JSON model's channel is read row by row, and the document is
``json.loads``'s, with each channel row of plain numbers held as a float64 array.

Where the reader declines (any text that is not a plain JSON object), ``parse_json``
reads or refuses the text, so the outcome is the one ``json.loads`` decides.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmlkit.errors import ValidationError
from pmlkit.modelio import _model_document, _parse_model, load_model, load_model_json

#: what _json_loads gives for a text json.loads refuses
REFUSED = object()

#: labels that hold the channel's own punctuation
LABELS = st.one_of(st.integers(-3, 3),
                   st.sampled_from(['"channel": [[', "],[", "channel", "[[1, 2]]", "true"]),
                   st.text(alphabet='ab"\\,[]{}: \n', max_size=6))
NUMBERS = st.one_of(st.floats(), st.integers(-10**3, 10**3), st.just(10**400))
#: what a row may hold besides numbers; each keeps the row a list
ODD = st.one_of(st.booleans(), st.none(), st.sampled_from(["1", "0.5"]),
                st.lists(NUMBERS, max_size=2), st.dictionaries(st.sampled_from("ab"), NUMBERS,
                                                              max_size=1))
#: rows of numbers, rows with one odd entry among numbers, rows of any entries, and non-rows
ROWS = st.one_of(st.lists(NUMBERS, max_size=5),
                 st.tuples(st.lists(NUMBERS, max_size=3), ODD, st.integers(0, 3)).map(
                     lambda drawn: drawn[0][:drawn[2]] + [drawn[1]] + drawn[0][drawn[2]:]),
                 st.lists(st.one_of(NUMBERS, ODD), max_size=4), NUMBERS, st.none())
VALUES = {
    "alphabet_x": st.lists(LABELS, max_size=3),
    "alphabet_y": st.lists(LABELS, max_size=3),
    "prior": st.lists(NUMBERS, max_size=3),
    "channel": st.one_of(st.lists(ROWS, min_size=1, max_size=4),
                         st.lists(st.lists(NUMBERS, max_size=3), min_size=1, max_size=3)),
    "truncation_deficit": NUMBERS,
    "row_deficits": st.lists(NUMBERS, max_size=3),
    "note": st.one_of(LABELS, st.dictionaries(LABELS.filter(lambda v: isinstance(v, str)),
                                              st.lists(st.lists(NUMBERS, max_size=2)),
                                              max_size=2)),
}
SPACE = st.sampled_from(["", " ", "\n", "\t", "\r\n  "])
LAYOUT = st.fixed_dictionaries({
    "indent": st.sampled_from([None, 0, 1, 2, "\t"]),
    "separators": st.sampled_from([None, (",", ":"), (", ", ": "), (" ,", " : "), (",\n", ":")]),
})
#: (where, what, character): an insertion, deletion or replacement in the text
MUTATIONS = st.lists(st.tuples(st.floats(0, 1), st.sampled_from(["insert", "delete", "replace"]),
                               st.sampled_from(list('[]{},:"tfn0123456789-.eE \nx\ufeff'))),
                     max_size=3)


@st.composite
def model_texts(draw):
    """A model document's JSON text, its keys in any order, possibly with a second
    ``channel`` key, each value and the object laid out in its own way."""
    keys = draw(st.permutations(list(VALUES)))[:draw(st.integers(1, len(VALUES)))]
    if draw(st.booleans()):
        keys.insert(draw(st.integers(0, len(keys))), "channel")
    members = []
    for key in keys:
        value = json.dumps(draw(VALUES[key]), **draw(LAYOUT))
        members.append(f"{json.dumps(key)}{draw(SPACE)}:{draw(SPACE)}{value}")
    comma = draw(SPACE) + "," + draw(SPACE)
    return draw(SPACE) + "{" + draw(SPACE) + comma.join(members) + draw(SPACE) + "}" + draw(SPACE)


def _mutate(text: str, mutations) -> str:
    for where, what, char in mutations:
        i = int(where * len(text))
        if what == "insert":
            text = text[:i] + char + text[i:]
        elif text:
            i = min(i, len(text) - 1)
            text = text[:i] + (char if what == "replace" else "") + text[i + 1:]
    return text


def _number(value) -> str:
    try:
        return repr(float(value))
    except OverflowError:  # an integer beyond the float range stays an integer
        return repr(value)


def _canonical(value, channel=False):
    """``value`` with each float spelled by repr (so NaN equals NaN) and, for a channel, each
    row of numbers as the tuple of its entries as floats, whether a list or an array."""
    if channel and type(value) is list:
        return [_canonical_row(row) for row in value]
    if type(value) is dict:
        return [(k, _canonical(v, k == "channel")) for k, v in value.items()]
    if type(value) is list:
        return [_canonical(v) for v in value]
    return (type(value).__name__, repr(value))


def _canonical_row(row):
    if type(row) is np.ndarray:
        assert row.dtype == float and row.ndim == 1
        return ("row", tuple(map(_number, row.tolist())))
    if type(row) is list and all(type(v) in (int, float) for v in row):
        return ("row", tuple(map(_number, row)))
    return _canonical(row)


def _json_loads(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return REFUSED


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(model_texts(), MUTATIONS)
def test_reader_gives_json_loads_document(text, mutations):
    text = _mutate(text, mutations)
    want = _json_loads(text)
    got = _model_document(text)
    if not mutations:
        assert got is not None  # the reader reads every plain model object itself
    if got is None:
        if want is REFUSED:
            with pytest.raises(ValidationError, match="JSON parse error"):
                _parse_model(text, "model")
        else:
            assert _canonical(_parse_model(text, "model")) == _canonical(want)
        return
    assert want is not REFUSED
    assert type(want) is dict and _canonical(got) == _canonical(want)
    # rows the reader made arrays held only numbers, and rows it kept are json's lists
    for row, json_row in zip(got.get("channel", []), want.get("channel", [])):
        if type(row) is not np.ndarray:
            assert _canonical(row) == _canonical(json_row)


@pytest.mark.parametrize("text, rows", [
    ('{"channel": [[0.5, 0.5], [1, 0]]}', ["array", "array"]),
    ('{"channel": [[0.5, Infinity], [NaN, 0], [-0.0, 1e400]]}', ["list", "array", "array"]),
    ('{"channel": [[true, 0], [null, 1], ["1", 0], [[1], 0], [{}, 0], []]}',
     ["list"] * 5 + ["array"]),
    ('{"channel": [[1, 100000' + "0" * 400 + "]]}", ["list"]),
])
def test_only_rows_of_plain_numbers_become_arrays(text, rows):
    got = _model_document(text)["channel"]
    assert ["array" if type(row) is np.ndarray else "list" for row in got] == rows


@pytest.mark.parametrize("text", [
    "", "{}", "[]", '"channel"', '{"channel": []}', '\ufeff{"channel": [[1]]}',
    '{"channel": [[1]]} x', '{"channel": [[1]],}', '{"channel": [[1],]}', '{"channel": [[1]}',
    '{"channel": [[' + "[" * 100_000 + "]" * 100_002 + "}",
])
def test_reader_declines_what_is_not_a_plain_object(text):
    assert _model_document(text) is None


def test_a_wide_model_loads_in_about_twice_its_file(tmp_path):
    """A 64 x 4000 model with 11-decimal entries, as the benchmark writes them, loads with
    a traced peak below twice the file's bytes plus the channel's float64 bytes.

    Reading the file holds its bytes and its text at once (twice the file).  While the
    rows are read, the text, the finished float64 rows and one row of Python floats are
    alive (the file plus the channel).  The rows are stacked after the text is released
    (twice the channel).  The largest of these is below the bound.  ``json.loads`` holds a
    Python float and a list slot per entry, 32 bytes for each 8-byte entry, and a load
    through it peaks at 11.6 MiB here against a bound of 8.85 MiB.  ``load_model``'s first
    load, which also writes the model's cache entry from the bytes it read, and its warm
    load, which holds the entry's arrays and the channel's copy of them, stay below it too.
    """
    rng = np.random.default_rng(11)
    nx, ny = 64, 4000

    def row(n):
        digits = rng.multinomial(10**11, rng.dirichlet(np.ones(n)))
        return "[" + ",".join(f"0.{d:011d}" for d in digits) + "]"

    path = tmp_path / "wide.json"
    path.write_text(
        '{"alphabet_x":' + json.dumps([f"x{i}" for i in range(nx)])
        + ',"alphabet_y":' + json.dumps([f"y{j}" for j in range(ny)])
        + ',"prior":' + row(nx) + ',"channel":[' + ",".join(row(ny) for _ in range(nx)) + "]}\n",
        encoding="utf-8")
    load_model_json(path)  # imports and caches warm outside the trace
    for load in (load_model_json, load_model, load_model):  # uncached, first, warm
        tracemalloc.start()
        try:
            model = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.channel.matrix.shape == (nx, ny)
        assert peak < 2 * path.stat().st_size + model.channel.matrix.nbytes
