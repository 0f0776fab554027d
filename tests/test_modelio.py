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
    jsonable,
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


def test_jsonable_spells_infinity():
    doc = jsonable({"a": math.inf, "b": [1.0, -math.inf], "c": "inf"})
    assert doc == {"a": "inf", "b": [1.0, "-inf"], "c": "inf"}
    json.dumps(doc)  # remains serializable


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
    ],
    ids=["top_number", "top_null", "alphabet_number", "alphabet_string", "alphabet_object",
         "deficit_null", "deficit_array", "deficit_string", "deficit_bool"],
)
def test_model_shapes_rejected_by_name(tmp_path, capsys, doc, reason):
    # Each of these used to end in a TypeError traceback or be read as some
    # other model (a string as its characters, an object as its keys).
    if isinstance(doc, dict):
        doc = {"alphabet_x": ["a", "b"], "alphabet_y": [0, 1], "prior": [0.5, 0.5],
               "channel": [[1.0, 0.0], [0.0, 1.0]], **doc}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["compute", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pmlkit: validation error: {path}: {reason}\n"
