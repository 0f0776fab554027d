import json

import numpy as np
import pytest

from pmlkit import (
    Alphabet,
    DiscreteChannel,
    DiscreteDistribution,
    JointModel,
    discretize_poisson_binomial,
    geometric_binary_model,
    identity_channel,
    uniform,
)
from pmlkit.cli import main
from pmlkit.errors import ValidationError
from pmlkit.modelio import (
    load_model,
    load_model_json,
    save_model_json,
)
from conftest import FIXTURES, random_full_support_model


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


def test_csv_records_of_blank_cells_are_skipped_in_both_files(tmp_path):
    channel = tmp_path / "ch.csv"
    channel.write_text("0,1\n,\n1,0\n ,,\n0,1\n")
    prior = tmp_path / "prior.csv"
    prior.write_text(",\nx0,0.5\n,,\nx1,0.5\n \t, \n")
    model = load_model(channel, prior)
    assert model.input_alphabet.symbols == ("x0", "x1")
    np.testing.assert_array_equal(model.channel.matrix, np.eye(2))
    prior.write_text(",\nx0,0.5\n,,\nx1,abc\n")
    with pytest.raises(ValidationError, match="prior.csv: line 4: 'abc' is not a decimal"):
        load_model(channel, prior)


def test_csv_row_count_mismatch(tmp_path):
    channel = tmp_path / "ch.csv"
    channel.write_text("0,1\n0.5,0.5\n")
    prior = tmp_path / "prior.csv"
    prior.write_text("x0,0.5\nx1,0.5\n")
    with pytest.raises(ValidationError, match="rows"):
        load_model(channel, prior)


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


def _integral_float_label_model():
    """Labels 1.0, 2.0 and -0.0, which the reader reads as the ints 1, 2 and 0."""
    a, b = Alphabet(["a", 1.0, 2.0]), Alphabet([-0.0, 3.0])
    channel = DiscreteChannel(a, b, np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]]))
    return JointModel(DiscreteDistribution(a, np.array([0.2, 0.3, 0.5])), channel)


def _numpy_integer_label_model():
    """Labels np.int64(0) and np.int64(1), which are written and read back as 0 and 1."""
    a = Alphabet(np.arange(2))
    return JointModel(uniform(a), identity_channel(a))


def _bits(model) -> tuple:
    """Every float of ``model``, as bytes."""
    return (model.prior.probs.tobytes(), np.float64(model.prior.truncation_deficit).tobytes(),
            model.channel.matrix.tobytes(), model.channel.row_deficits.tobytes())


@pytest.mark.parametrize(
    "make, symbols",
    [
        *(pytest.param(lambda name=name: load_model_json(FIXTURES / name), None, id=name)
          for name in ("identity4.json", "cap10x8.json", "geometric_binary_p03_q05.json",
                       "poisson_binomial_lam2_p05.json")),
        pytest.param(_deficit_channel_model, None, id="row_deficits"),
        pytest.param(_integral_float_label_model, (("a", 1, 2), (0, 3)), id="integral_floats"),
        pytest.param(_numpy_integer_label_model, ((0, 1), (0, 1)), id="numpy_integers"),
    ],
)
def test_saved_model_reads_back_bit_for_bit(tmp_path, make, symbols):
    model = make()
    path = tmp_path / "model.json"
    save_model_json(model, path)
    loaded = load_model_json(path)
    want = symbols or (model.input_alphabet.symbols, model.output_alphabet.symbols)
    got = (loaded.input_alphabet.symbols, loaded.output_alphabet.symbols)
    assert got == want
    assert [list(map(type, s)) for s in got] == [list(map(type, s)) for s in want]
    assert _bits(loaded) == _bits(model)


@pytest.mark.parametrize("key", ["alphabet_x", "alphabet_y"])
@pytest.mark.parametrize(
    "label, message",
    [(0.5, "symbols must be strings or integers, got 0.5"), (True, "invalid symbol True"),
     (None, "symbols must be strings or integers, got None"),
     (np.True_, "symbols must be strings or integers, got np.True_")],
    ids=["fraction", "bool", "none", "numpy_bool"],
)
def test_labels_the_reader_refuses_are_not_written(tmp_path, key, label, message):
    odd, plain = Alphabet(["a", label]), Alphabet(["a", "b"])
    a, b = (odd, plain) if key == "alphabet_x" else (plain, odd)
    model = JointModel(DiscreteDistribution(a, np.array([0.5, 0.5])),
                       DiscreteChannel(a, b, np.eye(2)))
    path = tmp_path / "model.json"
    with pytest.raises(ValidationError) as exc:
        save_model_json(model, path)
    assert str(exc.value) == f"{path}: {key}: {message}"
    assert not path.exists()


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
        ({"channel": [[True, False], [False, True]]},
         "channel entries must be JSON numbers, got a JSON boolean"),
        ({"channel": [["1", "0"], ["0", "1"]]},
         "channel entries must be JSON numbers, got a JSON string"),
        ({"channel": [[1.0, 0.0], [None, 1.0]]},
         "channel entries must be JSON numbers, got a JSON null"),
        ({"channel": [[1.0, 0.0], [[0.0], 1.0]]},
         "channel entries must be JSON numbers, got a JSON array"),
        ({"channel": [[1.0, True], [0.0, 1.0]], "row_deficits": [0, "0"]},
         "row_deficits entries must be JSON numbers, got a JSON string"),
        ({"prior": [10**400, 0], "channel": [[None, 0.0], [0.0, 1.0]]},
         "prior holds an integer beyond the float range"),
    ],
    ids=["top_number", "top_null", "alphabet_number", "alphabet_string", "alphabet_object",
         "deficit_null", "deficit_array", "deficit_string", "deficit_bool",
         "prior_huge_int", "deficit_huge_int", "channel_huge_int", "row_deficits_huge_int",
         "row_deficits_first_overflowing_int", "prior_before_deficit",
         "deficit_before_channel", "prior_bools", "prior_string",
         "row_deficits_bool_string", "prior_object", "prior_null", "prior_number",
         "prior_object_entry", "prior_null_entry", "channel_object", "channel_null",
         "channel_object_row", "channel_number_row", "channel_object_entry",
         "row_deficits_object", "row_deficits_null", "row_deficits_object_entry",
         "channel_bools", "channel_strings", "channel_null_entry", "channel_array_entry",
         "row_deficits_before_channel_entries", "prior_before_channel_entries"],
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


def test_prior_and_row_deficits_add_up_in_the_marginal(tmp_path, capsys):
    def path(deficit):
        return _write(tmp_path, prior=[0.5, 0.5 - deficit], truncation_deficit=deficit,
                      channel=[[0.5, 0.5 - deficit], [0.25, 0.75 - deficit]],
                      row_deficits=[deficit, deficit])

    assert load_model_json(path(5e-10)).marginal.truncation_deficit <= 1e-9
    assert main(["compute", path(1e-9)]) == 1
    assert capsys.readouterr().err == (
        "pmlkit: validation error: the model drops 2e-09 of output mass (prior deficit 1e-09, "
        "largest row deficit 1e-09), above the accepted maximum 1e-09; refine the truncation\n")


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


def _write_csv_pair(tmp_path, labels) -> tuple:
    """A CSV pair with ``labels`` as the channel header and as the prior's symbols."""
    n = len(labels)
    channel, prior = tmp_path / "ch.csv", tmp_path / "prior.csv"
    rows = [",".join("1" if i == j else "0" for j in range(n)) for i in range(n)]
    channel.write_text("\n".join([",".join(labels), *rows]) + "\n")
    prior.write_text("".join(f"{label},{1 / n!r}\n" for label in labels))
    return str(channel), str(prior)


@pytest.mark.parametrize(
    "labels, raw, symbols",
    [
        (["1.0", "2"], [1.0, 2], (1, 2)),
        (["-0.0", "2e3", "7"], [-0.0, 2e3, 7], (0, 2000, 7)),
        (["0.5", "inf", "nan", "x1"], ["0.5", "inf", "nan", "x1"], ("0.5", "inf", "nan", "x1")),
    ],
    ids=["integral_float", "signed_zero_and_exponent", "text"],
)
def test_csv_labels_are_what_json_labels_give(tmp_path, labels, raw, symbols):
    n = len(raw)
    twin = _write(tmp_path, alphabet_x=raw, alphabet_y=raw, prior=[1.0 / n] * n,
                  channel=np.eye(n).tolist())
    for model in (load_model(*_write_csv_pair(tmp_path, labels)), load_model_json(twin)):
        for alphabet in (model.input_alphabet, model.output_alphabet):
            assert alphabet.symbols == symbols
            assert list(map(type, alphabet.symbols)) == list(map(type, symbols))


def test_csv_label_that_reads_as_a_whole_number_answers_outcome(tmp_path, capsys):
    channel, prior = _write_csv_pair(tmp_path, ["1.0", "2"])
    assert main(["compute", channel, prior, "--outcome", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == 1


def test_csv_labels_of_one_number_are_refused_as_json_ones_are(tmp_path):
    with pytest.raises(ValidationError, match="alphabet symbols must be unique"):
        load_model(*_write_csv_pair(tmp_path, ["1", "1.0"]))
    with pytest.raises(ValidationError, match="alphabet symbols must be unique"):
        load_model_json(_write(tmp_path, alphabet_y=[1, 1.0]))


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


@pytest.mark.parametrize("argv", [
    ["compute", "{deep}"],
    ["continuous", "--family", "{deep}", "--outcome", "1"],
    ["continuous", "--family", str(FIXTURES / "family_additive_gaussian.json"), "--outcome", "1",
     "--check-grid", "--grid", "{deep}"],
], ids=["model", "family_spec", "grid_spec"])
def test_deep_nesting_exits_one_with_one_line(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text('{"channel": [' + "[" * 100_000 + "]" * 100_001 + "}")
    argv = [str(path) if arg == "{deep}" else arg for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"pmlkit: validation error: {path}: JSON parse error: nested too deeply\n")


@pytest.mark.parametrize(
    "channel, reason",
    [
        ([[1.0, 0.0], [1.0]], "channel row 1 holds 1 entries, row 0 holds 2"),
        ([[1.0], [0.5, 0.5]], "channel row 1 holds 2 entries, row 0 holds 1"),
        ([[1.0, 0.0], [0.0, 1.0], []], "channel row 2 holds 0 entries, row 0 holds 2"),
        ([[1.0, 0.0], [0.0, 10**400, 1.0]], "channel row 1 holds 3 entries, row 0 holds 2"),
        ([[1.0, 0.0], [True]], "channel entries must be JSON numbers, got a JSON boolean"),
    ],
    ids=["short_row", "long_row", "empty_row", "ragged_huge_int", "entries_first"],
)
def test_ragged_channel_rows_rejected_by_name(tmp_path, capsys, channel, reason):
    # numpy's conversion refused these with a message naming neither file nor key
    path = _write(tmp_path, channel=channel)
    assert main(["compute", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pmlkit: validation error: {path}: {reason}\n"


@pytest.mark.parametrize(
    "channel_text, prior_text, reason",
    [
        ("0,1\n1,0\n0,1\n", "x0,0.5,1\nx1,0.5\n",
         "{prior}: line 1: expected 'symbol,probability'"),
        ("0,1\n1,0\n0,1\n", "x0,0.5\nx1,abc\n", "{prior}: line 2: 'abc' is not a decimal number"),
        ("0,1\n1,0\n0,1\n", "x0,nan\nx1,0.5\n", "{prior}: line 1: NaN is not a probability"),
        ("0,1\n1,0\n0,1\n", '"x\n0",0.5\nx1,abc\n',
         "{prior}: line 3: 'abc' is not a decimal number"),
        ("0,1\n1,0,0\n0,1\n", "x0,0.5\nx1,0.5\n", "{channel}: line 2: expected 2 columns, got 3"),
        ("0,1\n1,0\n0.5,abc\n", "x0,0.5\nx1,0.5\n",
         "{channel}: line 3: 'abc' is not a decimal number"),
        ("a,b\n\n0.5,0.5\n0.5,x\n", "x0,0.5\nx1,0.5\n",
         "{channel}: line 4: 'x' is not a decimal number"),
        ("a,b\n0.5,0.5\n\n0.5\n", "x0,0.5\nx1,0.5\n",
         "{channel}: line 4: expected 2 columns, got 1"),
        ("0,1\n1,0\n", "x0,0.5\nx1,0.5\n", "{channel}: 1 channel rows for 2 prior symbols"),
        ("\n", "x0,0.5\nx1,0.5\n", "{channel}: empty channel file"),
        ("0,1\n1,0\n0,1\n", None, "CSV channels require a separate prior file"),
    ],
    ids=["prior_fields", "prior_number", "prior_nan", "prior_number_after_quoted_line_break",
         "channel_columns", "channel_number", "channel_number_after_blank_line",
         "channel_columns_after_blank_line", "channel_rows", "channel_empty", "no_prior"],
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
