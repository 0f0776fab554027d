import json
import math

import numpy as np
import pytest

from pmlkit import (
    Alphabet,
    DiscreteChannel,
    DiscreteDistribution,
    JointModel,
    discretize_poisson_binomial,
    geometric_binary_model,
    leakage_profile,
)
from pmlkit.cli import main
from pmlkit.errors import ValidationError
from pmlkit.modelio import (
    load_model,
    load_model_json,
    profile_document,
    save_model_json,
)
from conftest import random_full_support_model


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    model = random_full_support_model(rng, 4, 5)
    path = tmp_path / "model.json"
    save_model_json(model, path)
    loaded = load_model_json(path)
    np.testing.assert_array_equal(loaded.prior.probs, model.prior.probs)
    np.testing.assert_array_equal(loaded.channel.matrix, model.channel.matrix)
    assert loaded.input_alphabet.symbols == model.input_alphabet.symbols


def test_truncated_model_round_trip(tmp_path):
    model = geometric_binary_model(0.3, 0.5)
    path = tmp_path / "geo.json"
    save_model_json(model, path)
    loaded = load_model_json(path)
    assert loaded.prior.truncation_deficit == model.prior.truncation_deficit


def test_missing_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alphabet_x": [0], "prior": [1.0]}))
    with pytest.raises(ValidationError, match="missing keys"):
        load_model_json(path)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"alphabet_x": [0,\n  oops]}')
    with pytest.raises(ValidationError, match="line 2"):
        load_model_json(path)


def test_bad_row_sum_named(fixtures_dir):
    with pytest.raises(ValidationError, match="sum"):
        load_model(fixtures_dir / "bad_rowsum.json")


def test_csv_pair_loads(fixtures_dir):
    model = load_model(
        fixtures_dir / "identity4_channel.csv", fixtures_dir / "identity4_prior.csv"
    )
    np.testing.assert_array_equal(model.channel.matrix, np.eye(4))
    assert model.prior.probs.tolist() == [0.25] * 4


def test_csv_requires_prior(fixtures_dir):
    with pytest.raises(ValidationError, match="prior"):
        load_model(fixtures_dir / "identity4_channel.csv")


def test_csv_bad_number(tmp_path):
    channel = tmp_path / "ch.csv"
    channel.write_text("0,1\n0.5,0.5\n0.5,abc\n")
    prior = tmp_path / "prior.csv"
    prior.write_text("x0,0.5\nx1,0.5\n")
    with pytest.raises(ValidationError, match="line 3"):
        load_model(channel, prior)


def test_csv_row_count_mismatch(tmp_path):
    channel = tmp_path / "ch.csv"
    channel.write_text("0,1\n0.5,0.5\n")
    prior = tmp_path / "prior.csv"
    prior.write_text("x0,0.5\nx1,0.5\n")
    with pytest.raises(ValidationError, match="rows"):
        load_model(channel, prior)


def test_profile_document_units():
    profile = leakage_profile(geometric_binary_model(0.3, 0.5))
    nats = profile_document(profile, "nats")
    bits = profile_document(profile, "bits")
    assert bits["leakage"][0] == pytest.approx(nats["leakage"][0] / math.log(2))
    assert nats["units"] == "nats" and bits["units"] == "bits"
    assert set(nats) == {
        "units", "outcomes", "leakage", "p_y", "maximal_leakage", "mean_leakage",
    }


def _deficit_channel_model():
    """Rows that each drop 5e-10 of mass: valid, but only with their deficits."""
    a = Alphabet(["x0", "x1"])
    b = Alphabet([0, 1, 2])
    matrix = np.array([[0.5, 0.3, 0.2 - 5e-10], [0.1, 0.1, 0.8 - 5e-10]])
    channel = DiscreteChannel(a, b, matrix, np.full(2, 5e-10))
    return JointModel(DiscreteDistribution(a, np.array([0.4, 0.6])), channel)


@pytest.mark.parametrize(
    "make",
    [
        _deficit_channel_model,
        lambda: geometric_binary_model(0.3, 0.5),
        lambda: discretize_poisson_binomial(2.0, 0.5, 10),
    ],
    ids=["row_deficits_5e-10", "geometric_binary", "poisson_binomial"],
)
def test_round_trip_keeps_row_deficits(tmp_path, make):
    model = make()
    path = tmp_path / "model.json"
    save_model_json(model, path)
    loaded = load_model_json(path)
    np.testing.assert_array_equal(loaded.channel.row_deficits, model.channel.row_deficits)
    np.testing.assert_array_equal(loaded.channel.matrix, model.channel.matrix)
    np.testing.assert_array_equal(loaded.prior.probs, model.prior.probs)
    assert loaded.prior.truncation_deficit == model.prior.truncation_deficit
    written = json.loads(path.read_text())
    assert ("row_deficits" in written) == bool(np.any(model.channel.row_deficits))


def test_row_deficits_length_checked(tmp_path):
    path = tmp_path / "model.json"
    save_model_json(_deficit_channel_model(), path)
    doc = json.loads(path.read_text())
    doc["row_deficits"] = [5e-10]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="row_deficits"):
        load_model_json(path)


@pytest.mark.parametrize(
    "doc, reason",
    [
        (5, "a model must be a JSON object, got a JSON number"),
        (None, "a model must be a JSON object, got a JSON null"),
        ({"alphabet_x": 5}, "alphabet_x must be a JSON array, got a JSON number"),
        ({"alphabet_x": "ab"}, "alphabet_x must be a JSON array, got a JSON string"),
        ({"alphabet_y": {"a": 0, "b": 1}}, "alphabet_y must be a JSON array, got a JSON object"),
        ({"truncation_deficit": None},
         "truncation_deficit must be a JSON number, got a JSON null"),
        ({"truncation_deficit": [0]},
         "truncation_deficit must be a JSON number, got a JSON array"),
        ({"truncation_deficit": "0"},
         "truncation_deficit must be a JSON number, got a JSON string"),
        ({"truncation_deficit": False},
         "truncation_deficit must be a JSON number, got a JSON boolean"),
        ({"prior": [10**400, 0]}, "prior holds an integer beyond the float range"),
        ({"truncation_deficit": -10**400},
         "truncation_deficit holds an integer beyond the float range"),
        ({"channel": [[1.0, 0.0], [0, 10**400]]},
         "channel holds an integer beyond the float range"),
        ({"row_deficits": [0, 10**400]}, "row_deficits holds an integer beyond the float range"),
        ({"prior": [0.5, 0.5], "row_deficits": [0, 2**1024 - 2**970]},
         "row_deficits holds an integer beyond the float range"),
        ({"prior": [10**400, 0], "truncation_deficit": 10**400},
         "prior holds an integer beyond the float range"),
        ({"truncation_deficit": 10**400, "channel": [[10**400, 0], [0, 1]]},
         "truncation_deficit holds an integer beyond the float range"),
        ({"prior": [True, False]}, "prior entries must be JSON numbers, got a JSON boolean"),
        ({"prior": [0.5, "0.5"]}, "prior entries must be JSON numbers, got a JSON string"),
        ({"row_deficits": [False, "0"]},
         "row_deficits entries must be JSON numbers, got a JSON boolean"),
        ({"prior": {"a": 1}}, "prior must be a JSON array, got a JSON object"),
        ({"prior": None}, "prior must be a JSON array, got a JSON null"),
        ({"prior": 0.5}, "prior must be a JSON array, got a JSON number"),
        ({"prior": [{"a": 1}, 0.5]}, "prior entries must be JSON numbers, got a JSON object"),
        ({"prior": [None, 1.0]}, "prior entries must be JSON numbers, got a JSON null"),
        ({"channel": {"a": 1}}, "channel must be a JSON array, got a JSON object"),
        ({"channel": None}, "channel must be a JSON array, got a JSON null"),
        ({"channel": [[1.0, 0.0], {"a": 1}]}, "channel rows must be JSON arrays, got a JSON object"),
        ({"channel": [[1.0, 0.0], 0.5]}, "channel rows must be JSON arrays, got a JSON number"),
        ({"channel": [[1.0, 0.0], [0.0, {"a": 1}]]},
         "channel entries must be JSON numbers, got a JSON object"),
        ({"row_deficits": {"a": 0}}, "row_deficits must be a JSON array, got a JSON object"),
        ({"row_deficits": None}, "row_deficits must be a JSON array, got a JSON null"),
        ({"row_deficits": [0, {"a": 0}]},
         "row_deficits entries must be JSON numbers, got a JSON object"),
    ],
    ids=["top_number", "top_null", "alphabet_number", "alphabet_string", "alphabet_object",
         "deficit_null", "deficit_array", "deficit_string", "deficit_bool",
         "prior_huge_int", "deficit_huge_int", "channel_huge_int", "row_deficits_huge_int",
         "row_deficits_first_overflowing_int", "prior_before_deficit",
         "deficit_before_channel", "prior_bools", "prior_string",
         "row_deficits_bool_string", "prior_object", "prior_null", "prior_number",
         "prior_object_entry", "prior_null_entry", "channel_object", "channel_null",
         "channel_object_row", "channel_number_row", "channel_object_entry",
         "row_deficits_object", "row_deficits_null", "row_deficits_object_entry"],
)
def test_model_shapes_rejected_by_name(tmp_path, capsys, doc, reason):
    # Each of these used to end in a TypeError or OverflowError traceback, be
    # read as some other model (a string as its characters, an object as its
    # keys, booleans and strings as the numbers they convert to, a null
    # row_deficits as zeros), or get a shape message that named no key.
    if isinstance(doc, dict):
        doc = {"alphabet_x": ["a", "b"], "alphabet_y": [0, 1], "prior": [0.5, 0.5],
               "channel": [[1.0, 0.0], [0.0, 1.0]], **doc}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["compute", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pmlkit: validation error: {path}: {reason}\n"


def _write(tmp_path, **keys) -> str:
    doc = {"alphabet_x": ["a", "b"], "alphabet_y": [0, 1], "prior": [0.5, 0.5],
           "channel": [[1.0, 0.0], [0.0, 1.0]], **keys}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_largest_float_integer_still_loads_as_a_number(tmp_path):
    # 2**1024 - 2**970 - 1 rounds to the largest float, so it is no overflow;
    # the model then fails the law check, as any such prior does.
    path = _write(tmp_path, prior=[0, 2**1024 - 2**970 - 1])
    with pytest.raises(ValidationError, match="sum to 1.797"):
        load_model_json(path)


@pytest.mark.parametrize(
    "raw, symbols",
    [
        (["a", "b", "c"], ("a", "b", "c")),
        ([3, 1, 2], (3, 1, 2)),
        (["a", 1, 2.0, -3.0, "4"], ("a", 1, 2, -3, "4")),
    ],
    ids=["strings", "ints", "mixed"],
)
def test_alphabet_symbols_are_what_symbol_gives(tmp_path, raw, symbols):
    n = len(raw)
    path = _write(tmp_path, alphabet_x=raw, prior=[1.0 / n] * n,
                  channel=[[1.0, 0.0]] * n)
    alphabet = load_model_json(path).input_alphabet
    assert alphabet.symbols == symbols
    assert list(map(type, alphabet.symbols)) == list(map(type, symbols))


@pytest.mark.parametrize(
    "raw, message",
    [
        (["a", True], "invalid symbol True"),
        ([1, 1.0], "alphabet symbols must be unique"),
        (["a", 0.5], "symbols must be strings or integers, got 0.5"),
    ],
    ids=["bool", "int_and_integral_float", "fraction"],
)
def test_alphabet_symbols_rejected(tmp_path, raw, message):
    path = _write(tmp_path, alphabet_x=raw)
    with pytest.raises(ValidationError, match=message):
        load_model_json(path)


def test_callers_arrays_are_copied():
    alphabet = Alphabet(["a", "b"])
    probs = np.array([0.5, 0.5])
    matrix = np.eye(2)
    deficits = np.zeros(2)
    dist = DiscreteDistribution(alphabet, probs)
    channel = DiscreteChannel(alphabet, alphabet, matrix, deficits)
    probs[0], matrix[0, 0], deficits[0] = 0.9, 0.3, 0.7
    assert dist.probs.tolist() == [0.5, 0.5]
    assert channel.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert channel.row_deficits.tolist() == [0.0, 0.0]
    for array in (dist.probs, channel.matrix, channel.row_deficits):
        assert not array.flags.writeable


def test_ragged_channel_message_is_numpys(tmp_path, capsys):
    ragged = [[1.0, 0.0], [1.0]]
    with pytest.raises(ValueError) as conversion:
        np.asarray(ragged, dtype=float)
    path = _write(tmp_path, channel=ragged)
    assert main(["compute", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pmlkit: validation error: {conversion.value}\n"


@pytest.mark.parametrize(
    "channel_text, prior_text, reason",
    [
        ("0,1\n1,0\n0,1\n", "x0,0.5,1\nx1,0.5\n",
         "{prior}: line 1: expected 'symbol,probability'"),
        ("0,1\n1,0\n0,1\n", "x0,0.5\nx1,abc\n", "{prior}: line 2: 'abc' is not a decimal number"),
        ("0,1\n1,0\n0,1\n", "x0,nan\nx1,0.5\n", "{prior}: line 1: NaN is not a probability"),
        ("0,1\n1,0,0\n0,1\n", "x0,0.5\nx1,0.5\n", "{channel}: line 2: expected 2 columns, got 3"),
        ("0,1\n1,0\n0.5,abc\n", "x0,0.5\nx1,0.5\n",
         "{channel}: line 3: 'abc' is not a decimal number"),
        ("0,1\n1,0\n", "x0,0.5\nx1,0.5\n", "{channel}: 1 channel rows for 2 prior symbols"),
        ("\n", "x0,0.5\nx1,0.5\n", "{channel}: empty channel file"),
        ("0,1\n1,0\n0,1\n", None, "CSV channels require a separate prior file"),
    ],
    ids=["prior_fields", "prior_number", "prior_nan", "channel_columns", "channel_number",
         "channel_rows", "channel_empty", "no_prior"],
)
def test_csv_error_texts(tmp_path, capsys, channel_text, prior_text, reason):
    channel = tmp_path / "ch.csv"
    prior = tmp_path / "prior.csv"
    channel.write_text(channel_text)
    argv = ["compute", str(channel)]
    if prior_text is not None:
        prior.write_text(prior_text)
        argv.append(str(prior))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("pmlkit: validation error: "
                            + reason.format(channel=channel, prior=prior) + "\n")
