import csv
import io
import json
import math

import numpy as np
import pytest

from pmlkit import (
    Alphabet,
    DiscreteChannel,
    DiscreteDistribution,
    JointModel,
    geometric_binary_model,
    leakage_profile,
    tail_probability,
)
from pmlkit import cli
from pmlkit.cli import main
from pmlkit.continuous import MAX_QUANTILE_CLIP
from pmlkit.modelio import load_model, save_model_json
from conftest import make_fixtures, random_full_support_model, random_model_with_zeros


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def random_model_file(tmp_path):
    model = random_full_support_model(np.random.default_rng(15), 5, 5)
    path = tmp_path / "random5.json"
    save_model_json(model, path)
    return path


def test_compute_identity_profile(capsys, fixtures_dir):
    doc = run_json(capsys, "compute", str(fixtures_dir / "identity4.json"))
    assert doc["profile"]["leakage"] == pytest.approx([math.log(4)] * 4)
    assert doc["units"] == "nats"
    assert doc["seed"] == 42
    assert doc["version"] == "0.1.0"


def test_compute_single_outcome_bits(capsys, fixtures_dir):
    doc = run_json(
        capsys, "compute", str(fixtures_dir / "identity4.json"),
        "--outcome", "b", "--units", "bits",
    )
    assert doc["leakage"] == pytest.approx(2.0)


def test_compute_csv_format(capsys, fixtures_dir):
    code, out, err = run(
        capsys, "compute", str(fixtures_dir / "identity4.json"), "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "outcome,p_y,leakage_nats"
    assert len(lines) == 5


@pytest.mark.parametrize("label", ["a,b", 'say "hi"', "two\nlines", "cr\rlf"])
def test_compute_csv_quotes_labels_that_need_it(capsys, tmp_path, label):
    # RFC 4180: a cell holding a comma, a quote or a line break is quoted,
    # its quotes doubled, so every row keeps the header's three cells
    path = tmp_path / "labels.json"
    path.write_text(json.dumps({"alphabet_x": [0, 1], "alphabet_y": [label, "c"],
                                "prior": [0.5, 0.5], "channel": [[1, 0], [0.2, 0.8]]}))
    code, out, err = run(capsys, "compute", str(path), "--format", "csv")
    assert code == 0, err
    quoted = '"' + label.replace('"', '""') + '"'
    assert out.startswith(f"outcome,p_y,leakage_nats\n{quoted},0.6,")
    assert list(csv.reader(io.StringIO(out, newline=""))) == [
        ["outcome", "p_y", "leakage_nats"], [label, "0.6", "0.5108256237659907"],
        ["c", "0.4", "0.6931471805599453"]]


def test_compute_matches_golden(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "compute", str(fixtures_dir / "geometric_binary_p03_q05.json")
    )
    assert code == 0
    golden = (fixtures_dir / "golden" / "compute_geometric_binary.json").read_text()
    assert out == golden


@pytest.mark.parametrize("name", sorted(make_fixtures.GOLDENS))
def test_report_matches_golden(fixtures_dir, tmp_path, name):
    out = tmp_path / name
    assert main(make_fixtures.golden_argv(name) + ["--output", str(out)]) == 0
    assert out.read_bytes() == (fixtures_dir / "golden" / name).read_bytes()


def test_every_golden_file_has_an_argv(fixtures_dir):
    on_disk = {p.name for p in (fixtures_dir / "golden").iterdir()}
    assert on_disk == set(make_fixtures.GOLDENS)


def test_fixture_inputs_match_their_generator(fixtures_dir):
    # The goldens read these files, so drift in save_model_json,
    # geometric_binary_model or discretize_poisson_binomial shows here first.
    texts = make_fixtures.fixture_texts()
    assert {p.name for p in fixtures_dir.iterdir() if p.is_file()} == set(texts)
    for name, text in texts.items():
        assert (fixtures_dir / name).read_bytes() == text.encode("utf-8"), name


def test_reports_are_deterministic(capsys, fixtures_dir):
    _, first, _ = run(capsys, "compute", str(fixtures_dir / "identity4.json"))
    _, second, _ = run(capsys, "compute", str(fixtures_dir / "identity4.json"))
    assert first == second


def test_malformed_row_sum_exits_one(capsys, fixtures_dir):
    code, out, err = run(capsys, "compute", str(fixtures_dir / "bad_rowsum.json"))
    assert code == 1
    assert "validation error" in err and "sum" in err


def test_nan_deficit_exits_one(capsys, fixtures_dir, tmp_path):
    doc = json.loads((fixtures_dir / "identity4.json").read_text())
    doc["truncation_deficit"] = math.nan
    path = tmp_path / "nan_deficit.json"
    path.write_text(json.dumps(doc))  # json writes and reads the NaN literal
    code, out, err = run(capsys, "compute", str(path))
    assert code == 1 and out == ""
    assert "truncation_deficit" in err


def test_verify_subset(capsys, random_model_file):
    doc = run_json(capsys, "verify", str(random_model_file), "--oracle", "subset")
    assert doc["all_ok"]
    assert all(abs(row["gap"]) <= 1e-10 for row in doc["rows"])


def test_verify_partition(capsys, random_model_file):
    doc = run_json(
        capsys, "verify", str(random_model_file), "--oracle", "partition", "--eps", "0.05"
    )
    assert doc["all_ok"]
    assert all(-1e-12 <= row["gap"] <= 0.05 + 1e-12 for row in doc["rows"])


def test_verify_functions_lower_bound_mode(capsys, random_model_file):
    doc = run_json(
        capsys, "verify", str(random_model_file), "--oracle", "functions", "--max-groups", "2"
    )
    assert doc["all_ok"]
    assert doc["lower_bound"]
    assert all(row["gap"] >= -1e-10 for row in doc["rows"])


def test_verify_functions_full_cardinality(capsys, random_model_file):
    doc = run_json(
        capsys, "verify", str(random_model_file), "--oracle", "functions", "--max-groups", "5"
    )
    assert doc["all_ok"] and not doc["lower_bound"]


def test_verify_strategies(capsys, random_model_file):
    doc = run_json(capsys, "verify", str(random_model_file), "--oracle", "strategies")
    assert doc["all_ok"]


def test_verify_capacity_exit_code(capsys, fixtures_dir):
    code, _, err = run(
        capsys, "verify", str(fixtures_dir / "geometric_binary_p03_q05.json"),
        "--oracle", "subset",
    )
    assert code == 3
    assert "cap" in err


def test_verify_functions_shares_the_subset_cap(capsys, tmp_path):
    rng = np.random.default_rng(197)
    paths = {}
    for n in (12, 21):
        paths[n] = tmp_path / f"random{n}.json"
        save_model_json(random_full_support_model(rng, n, 3), paths[n])
    doc = run_json(capsys, "verify", str(paths[12]), "--oracle", "functions")
    assert doc["all_ok"] and doc["lower_bound"]
    for groups in ("5", "0"):
        code, out, err = run(capsys, "verify", str(paths[21]), "--oracle", "functions",
                             "--max-groups", groups)
        assert (code, out) == (3, "")
        assert err == ("pmlkit: capacity error: subset and function oracles enumerate 2^n "
                       "events; n=21 exceeds cap 20\n")


def test_verify_partition_refuses_a_cell_whose_gain_overflows(capsys, tmp_path):
    path = tmp_path / "subnormal_atom.json"
    path.write_text(json.dumps({
        "alphabet_x": [0, 1, 2], "alphabet_y": [0, 1], "prior": [0.5, 0.5, 5e-324],
        "channel": [[0.5, 0.5], [0.9, 0.1], [0.01, 0.99]]}))
    assert run(capsys, "verify", str(path), "--oracle", "partition") == (
        3, "", "pmlkit: capacity error: partition cell -inf has prior mass 5e-324, "
               "whose gain 1/mass overflows a float\n")
    assert run_json(capsys, "verify", str(path), "--oracle", "subset")["all_ok"]


@pytest.mark.parametrize("oracle", ["subset", "partition", "functions", "strategies"])
def test_verify_bits_rows_are_the_nats_rows_over_ln2(capsys, random_model_file, oracle):
    # --eps is read in the report's unit, so these two name the same band; the
    # partition oracle's cells on this model differ between 0.5 bits and 0.5 nats
    eps_bits = 0.5
    argv = ["verify", str(random_model_file), "--oracle", oracle, "--gains", "3"]
    bits = run_json(capsys, *argv, "--units", "bits", "--eps", repr(eps_bits))
    nats = run_json(capsys, *argv, "--eps", repr(eps_bits * math.log(2.0)))
    assert bits["all_ok"] and nats["all_ok"] and bits["rows"]
    assert bits["parameters"]["eps"] == eps_bits
    assert bits["rows"] == [{**row, **{key: row[key] / math.log(2.0)
                                       for key in ("pml", "oracle", "gap")}}
                            for row in nats["rows"]]


def _oracle_above_pml(model, y, *rest):
    """A broken oracle: one nat above the pipeline's leakage at ``y``."""
    return cli.pml(model, y).nats + 1.0


@pytest.mark.parametrize(
    "oracle, patched, fake, options",
    [
        ("subset", "subset_oracle", _oracle_above_pml, []),
        ("partition", "partition_oracle", _oracle_above_pml, ["--eps", "0.05"]),
        ("functions", "randomized_function_oracle", _oracle_above_pml, ["--max-groups", "2"]),
        ("functions", "randomized_function_oracle", _oracle_above_pml, ["--max-groups", "5"]),
        ("strategies", "randomized_strategy_check", lambda *args: False, ["--gains", "2"]),
    ],
    ids=["subset", "partition", "functions_lower_bound", "functions_exact", "strategies"],
)
def test_oracle_disagreement_exits_two(capsys, random_model_file, tmp_path, monkeypatch,
                                       oracle, patched, fake, options):
    monkeypatch.setattr(cli, patched, fake)
    argv = ["verify", str(random_model_file), "--oracle", oracle, *options]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (2, "")
    doc = json.loads(out)
    assert doc["all_ok"] is False and doc["oracle"] == oracle
    model = load_model(random_model_file)
    assert len(doc["rows"]) == model.output_alphabet.size
    for row in doc["rows"]:
        assert row["ok"] is False
        if oracle == "strategies":
            assert (row["oracle"], row["gap"]) == (row["pml"], 0.0)
        else:
            assert row["oracle"] == _oracle_above_pml(model, row["outcome"])
            assert row["gap"] == row["pml"] - row["oracle"]
    target = tmp_path / "report.json"
    assert run(capsys, *argv, "--output", str(target)) == (2, "", "")
    assert target.read_text(encoding="utf-8") == out


def test_grid_refusal_writes_its_report_to_output(capsys, fixtures_dir, tmp_path):
    argv = ["continuous", "--family", str(fixtures_dir / "family_poisson_binomial.json"),
            "--outcome", "3", "--check-grid"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (3, "")
    assert json.loads(out)["grid_check"]["error"].startswith("grid checks require")
    target = tmp_path / "refusal.json"
    assert run(capsys, *argv, "--output", str(target)) == (3, "", "")
    assert target.read_text(encoding="utf-8") == out


def test_continuous_additive_gaussian(capsys, fixtures_dir):
    doc = run_json(
        capsys, "continuous",
        "--family", str(fixtures_dir / "family_additive_gaussian.json"),
        "--outcome", "0", "--check-grid",
    )
    assert doc["closed_form"] == pytest.approx(0.5 * math.log(2), abs=1e-12)
    assert abs(doc["grid_check"]["gap"]) <= 1e-4
    assert doc["grid"]["points"] == 16384


def test_continuous_inline_spec(capsys):
    doc = run_json(
        capsys, "continuous",
        "--family", '{"family": "gaussian_mixture", "params": {"sigma": 1.0}}',
        "--outcome", "0.5",
    )
    assert doc["closed_form"] == 0.0


def test_continuous_grid_check_unsupported_family(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "continuous",
        "--family", str(fixtures_dir / "family_poisson_binomial.json"),
        "--outcome", "3", "--check-grid",
    )
    assert code == 3
    doc = json.loads(out)  # closed form still printed
    assert doc["closed_form"] == pytest.approx(math.log(6 * math.e / 8), abs=1e-12)
    assert "error" in doc["grid_check"]


POISSON_GRID_REFUSAL = """\
{
  "closed_form": 0.7123179275482197,
  "command": "continuous",
  "family": "poisson_binomial",
  "grid": {
    "points": 16384,
    "quantile_clip": 1e-09,
    "refine": 16
  },
  "grid_check": {
    "error": "grid checks require a continuous secret; family 'poisson_binomial' unsupported"
  },
  "outcome": 3.0,
  "params": {
    "lam": 2.0,
    "p": 0.5
  },
  "seed": 42,
  "tool": "pmlkit",
  "units": "nats",
  "version": "0.1.0"
}
"""


def test_grid_refusal_report_bytes(capsys, fixtures_dir):
    code, out, err = run(
        capsys, "continuous", "--family", str(fixtures_dir / "family_poisson_binomial.json"),
        "--outcome", "3", "--check-grid",
    )
    assert (code, out, err) == (3, POISSON_GRID_REFUSAL, "")


@pytest.mark.parametrize(
    "name", ["family_additive_gaussian.json", "family_bivariate_gaussian.json"]
)
def test_largest_quantile_clip_passes_grid_check(capsys, fixtures_dir, name):
    doc = run_json(
        capsys, "continuous", "--family", str(fixtures_dir / name), "--outcome", "1",
        "--check-grid", "--grid", json.dumps({"quantile_clip": MAX_QUANTILE_CLIP}),
    )
    assert doc["grid"]["quantile_clip"] == MAX_QUANTILE_CLIP
    assert abs(doc["grid_check"]["gap"]) <= 1e-4


def test_quantile_clip_above_bound_exits_one(capsys, fixtures_dir):
    code, out, err = run(
        capsys, "continuous", "--family", str(fixtures_dir / "family_additive_gaussian.json"),
        "--outcome", "1", "--check-grid", "--grid", '{"quantile_clip": 1e-6}',
    )
    assert code == 1 and out == ""
    assert "quantile_clip must lie in (0, 4.9e-07], got 1e-06" in err
    assert "integrates" not in err


@pytest.mark.parametrize(
    "family", ["family_gaussian_mixture.json", "no_such_family.json"], ids=["fixture", "missing"]
)
def test_grid_without_check_grid_exits_one(capsys, fixtures_dir, family):
    # the check runs before the family spec is read, so a missing spec file is not reported
    code, out, err = run(capsys, "continuous", "--family", str(fixtures_dir / family),
                         "--outcome", "1", "--grid", '{"bogus": 1}')
    assert (code, out, err) == (1, "", "pmlkit: validation error: --grid needs --check-grid\n")


def test_continuous_parameter_error(capsys):
    code, _, err = run(
        capsys, "continuous",
        "--family", '{"family": "bivariate_gaussian", "params": {"sigma_x": 1, "sigma_y": 1, "rho": 2}}',
        "--outcome", "0",
    )
    assert code == 1 and "rho" in err


FAMILY_PARAMS = {
    "additive_gaussian": {"sigma_x": 1.0, "sigma_n": 1.0},
    "bivariate_gaussian": {"sigma_x": 1.0, "sigma_y": 1.0, "rho": 0.0},
    "gaussian_mixture": {"sigma": 1.0},
    "poisson_binomial": {"lam": 2.0, "p": 0.5},
    "geometric_binary": {"p": 0.3, "q": 0.5},
}


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameter_exits_one(capsys, family, bad):
    params = dict(FAMILY_PARAMS[family])
    name = sorted(params)[0]
    params[name] = bad
    spec = json.dumps({"family": family, "params": params})  # NaN and Infinity literals
    code, out, err = run(capsys, "continuous", "--family", spec, "--outcome", "1", "--check-grid")
    assert (code, out) == (1, "")
    assert f"{family} parameter {name} must be a finite number, got {bad!r}" in err


@pytest.mark.parametrize(
    "family,name,value,message",
    [
        ("additive_gaussian", "sigma_x", "1e200", "must lie in [1e-75, 1e+75], got 1e+200"),
        ("additive_gaussian", "sigma_n", "1e-200", "must lie in [1e-75, 1e+75], got 1e-200"),
        ("bivariate_gaussian", "sigma_y", "1e-200", "must lie in [1e-75, 1e+75], got 1e-200"),
        ("gaussian_mixture", "sigma", "1e200", "must lie in [1e-75, 1e+75], got 1e+200"),
        ("gaussian_mixture", "sigma", "1e-200", "must lie in [1e-75, 1e+75], got 1e-200"),
        ("poisson_binomial", "lam", "1" + "0" * 400,
         "must be a finite number, got 1" + "0" * 400),
        ("geometric_binary", "q", "-1" + "0" * 400,
         "must be a finite number, got -1" + "0" * 400),
    ],
    ids=["additive_huge", "additive_tiny", "bivariate_tiny", "mixture_huge", "mixture_tiny",
         "poisson_integer_beyond_float", "geometric_integer_beyond_float"],
)
def test_extreme_finite_parameter_exits_one(capsys, family, name, value, message):
    params = {k: json.dumps(v) for k, v in FAMILY_PARAMS[family].items()}
    params[name] = value  # spliced as JSON text: json.dumps cannot write the big integers
    spec = '{"family": "%s", "params": {%s}}' % (
        family, ", ".join(f'"{k}": {v}' for k, v in params.items()))
    code, out, err = run(capsys, "continuous", "--family", spec, "--outcome", "1")
    assert (code, out) == (1, "")
    assert f"{family} parameter {name} {message}" in err


def test_grid_too_coarse_for_the_peak_exits_one(capsys):
    spec = '{"family":"additive_gaussian","params":{"sigma_x":1e75,"sigma_n":1e-75}}'
    code, out, err = run(capsys, "continuous", "--family", spec, "--outcome", "3", "--check-grid")
    assert (code, out) == (1, "")
    assert err == (
        "pmlkit: validation error: conditional density at outcome y=3.0 is 0 at every "
        "grid point (points=16384, refine=16); its peak is narrower than the grid spacing\n"
    )


def test_geometric_binary_subnormal_p_report(capsys):
    spec = '{"family":"geometric_binary","params":{"p":5e-324,"q":0.5}}'
    doc = run_json(capsys, "continuous", "--family", spec, "--outcome", "0")
    assert doc["closed_form"] == pytest.approx(743.747, abs=1e-3)


@pytest.mark.parametrize("scale", [1e-75, 1e75])
@pytest.mark.parametrize("family", ["additive_gaussian", "bivariate_gaussian",
                                    "gaussian_mixture"])
def test_scale_range_ends_give_finite_leakage(capsys, family, scale):
    params = {k: scale if k.startswith("sigma") else v for k, v in FAMILY_PARAMS[family].items()}
    if family == "additive_gaussian":
        params["sigma_n"] = {1e-75: 1e75, 1e75: 1e-75}[scale]  # the largest ratio of squares
    spec = json.dumps({"family": family, "params": params})
    doc = run_json(capsys, "continuous", "--family", spec, "--outcome", "1")
    assert math.isfinite(doc["closed_form"])


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
@pytest.mark.parametrize("outcome", ["nan", "inf", "-inf"])
def test_non_finite_outcome_exits_one(capsys, family, outcome):
    spec = json.dumps({"family": family, "params": FAMILY_PARAMS[family]})
    code, out, err = run(capsys, "continuous", "--family", spec, f"--outcome={outcome}")
    assert (code, out) == (1, "")
    assert f"outcome must be finite, got {float(outcome)!r}" in err


@pytest.mark.parametrize(
    "family,grid,message",
    [
        ('{"family": "gaussian_mixture", "params": [1, 2]}', None,
         "gaussian_mixture params must be an object, got [1, 2]"),
        ('{"family": "bivariate_gaussian", '
         '"params": {"sigma_x": null, "sigma_y": 1, "rho": 0}}', None,
         "bivariate_gaussian parameter sigma_x must be a finite number, got None"),
        ("list_spec.json", None,
         "family spec must be a JSON object with keys among ['family', 'params'], "
         "got [{'family': 'gaussian_mixture'}]"),
        ("family_additive_gaussian.json", '{"pts": 2000}',
         "grid spec must be a JSON object with keys among "
         "['points', 'quantile_clip', 'refine'], got {'pts': 2000}"),
        ("family_additive_gaussian.json", '{"points": "abc"}',
         "grid points must be an integer >= 1024, got 'abc'"),
        ('{"family": "gaussian_mixture", "params": {"sigma": true}}', None,
         "gaussian_mixture parameter sigma must be a finite number, got True"),
        ("family_additive_gaussian.json", '{"refine": true}',
         "refine factor must be an integer >= 1, got True"),
        ('{"family": "gaussian_mixture", "params": {"sigma": 1}, "grid": {"points": 2048}}',
         None, "family spec must be a JSON object with keys among ['family', 'params'], got "
         "{'family': 'gaussian_mixture', 'params': {'sigma': 1}, 'grid': {'points': 2048}}"),
        ('{"params": {"sigma": 1}}', None,
         "family spec must hold the key 'family', got {'params': {'sigma': 1}}"),
        ("{bad", None, "family spec: JSON parse error at line 1, column 2: "
         "Expecting property name enclosed in double quotes"),
        ("family_additive_gaussian.json", '{"points": }',
         "grid spec: JSON parse error at line 1, column 12: Expecting value"),
    ],
    ids=["params_list", "null_parameter", "spec_not_object", "unknown_grid_key",
         "grid_points_text", "boolean_parameter", "boolean_refine",
         "unknown_family_key", "missing_family_key", "family_not_json", "grid_not_json"],
)
def test_malformed_spec_exits_one(capsys, fixtures_dir, tmp_path, family, grid, message):
    (tmp_path / "list_spec.json").write_text('[{"family": "gaussian_mixture"}]')
    files = {p.name: str(p) for d in (fixtures_dir, tmp_path) for p in d.glob("*.json")}
    argv = ["continuous", "--family", files.get(family, family), "--outcome", "1"]
    if grid is not None:
        argv += ["--check-grid", "--grid", grid]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"pmlkit: validation error: {message}\n"


@pytest.mark.parametrize("option", ["--family", "--grid"])
def test_spec_file_that_is_not_json_is_named(capsys, fixtures_dir, tmp_path, option):
    bad = tmp_path / "bad_spec.json"
    bad.write_text('{"family": "gaussian_mixture",\n "params": }')
    specs = {"--family": str(fixtures_dir / "family_additive_gaussian.json"),
             "--grid": '{"points": 2048}', option: str(bad)}
    code, out, err = run(capsys, "continuous", "--family", specs["--family"], "--outcome", "1",
                         "--check-grid", "--grid", specs["--grid"])
    assert (code, out) == (1, "")
    assert err == f"pmlkit: validation error: {bad}: JSON parse error at line 2, column 12: " \
        "Expecting value\n"


def test_tail_identity(capsys, fixtures_dir):
    doc = run_json(
        capsys, "tail", str(fixtures_dir / "identity4.json"),
        "--eps", "1.0", "--eps", str(math.log(4)),
    )
    assert doc["rows"][0]["tail_probability"] == 1.0
    assert doc["rows"][1]["tail_probability"] == 0.0
    assert doc["cdf"]["leakage"] == pytest.approx([math.log(4)])
    assert doc["cdf"]["probability"] == [1.0]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["tail", "identity4.json", "--eps", "nan"], "eps must be >= 0, got nan"),
        *((["verify", "identity4.json", "--oracle", oracle, "--eps", "nan"],
           "--eps must be a number, got nan")
          for oracle in ("subset", "partition", "functions", "strategies")),
        (["verify", "identity4.json", "--oracle", "partition", "--eps", "inf"],
         "epsilon must be positive and finite, got inf"),
        (["verify", "identity4.json", "--oracle", "strategies", "--gains", "0"],
         "--gains must be >= 1 for the strategies oracle, got 0"),
        (["verify", "identity4.json", "--oracle", "strategies", "--gains", "-3"],
         "--gains must be >= 1 for the strategies oracle, got -3"),
        (["verify", "identity4.json", "--oracle", "partition", "--units", "bits", "--eps", "-1"],
         "epsilon must be positive and finite, got -1.0\n"),
        (["verify", "identity4.json", "--oracle", "strategies", "--resolution", "0"],
         "simplex resolution must be >= 1, got 0\n"),
        (["verify", "identity4.json", "--oracle", "strategies", "--resolution", "-2"],
         "simplex resolution must be >= 1, got -2\n"),
        (["verify", "identity4.json", "--oracle", "functions", "--max-groups", "0"],
         "max_groups must be a positive integer\n"),
        (["continuous", "--family", "family_geometric_binary.json", "--outcome", "2"],
         "geometric_binary outcomes are 0 or 1, got 2.0\n"),
        (["compute", "identity4.json", "--outcome", "a", "--format", "csv"],
         "--format csv writes a whole profile, not --outcome a\n"),
        *(([command, "identity4.json", "identity4_prior.csv", *options],
           "identity4.json holds its prior; got a prior file ")
          for command, *options in (["compute"], ["tail", "--eps", "1"],
                                    ["verify", "--oracle", "subset"])),
    ],
    ids=["tail_nan", "subset_nan", "partition_nan", "functions_nan", "strategies_nan",
         "partition_inf", "strategies_no_gains", "strategies_negative_gains",
         "partition_negative_bits", "strategies_no_resolution",
         "strategies_negative_resolution", "functions_no_groups", "geometric_binary_outcome_2",
         "compute_csv_outcome", "compute_json_prior", "tail_json_prior", "verify_json_prior"],
)
def test_unusable_option_exits_one(capsys, fixtures_dir, argv, message):
    code, out, err = run(capsys, *(str(fixtures_dir / a) if a.endswith((".json", ".csv")) else a
                                   for a in argv))
    assert (code, out) == (1, "")
    assert message in err


def test_gains_are_unused_outside_strategies(capsys, fixtures_dir):
    doc = run_json(capsys, "verify", str(fixtures_dir / "identity4.json"),
                   "--oracle", "subset", "--gains", "0")
    assert doc["all_ok"] and doc["parameters"]["gains"] == 0


def test_profile_document_units():
    profile = leakage_profile(geometric_binary_model(0.3, 0.5))
    nats = cli.profile_document(profile, "nats")
    bits = cli.profile_document(profile, "bits")
    assert bits["leakage"][0] == pytest.approx(nats["leakage"][0] / math.log(2))
    assert nats["units"] == "nats" and bits["units"] == "bits"
    assert set(nats) == {
        "units", "outcomes", "leakage", "p_y", "maximal_leakage", "mean_leakage",
    }


def test_reports_refuse_nan():
    with pytest.raises(ValueError):
        cli._json({"eps": math.nan})


def test_tail_in_bits_compares_the_printed_bits_values(capsys, fixtures_dir):
    path = str(fixtures_dir / "poisson_binomial_lam2_p05.json")
    eps = 20.978589993105462
    profile = run_json(capsys, "compute", path, "--units", "bits")["profile"]
    assert profile["leakage"][profile["outcomes"].index(13)] == eps
    leakage, p_y = np.array(profile["leakage"]), np.array(profile["p_y"])
    doc = run_json(capsys, "tail", path, "--units", "bits", "--eps", repr(eps))
    assert doc["rows"][0]["tail_probability"] == p_y[leakage > eps].sum()
    assert doc["rows"][0]["tail_probability"] == pytest.approx(2.93e-08, rel=1e-3)


def test_unknown_outcome_is_named_without_quotes(capsys, fixtures_dir):
    assert run(capsys, "compute", str(fixtures_dir / "identity4.json"), "--outcome", "zz") == (
        1, "", "pmlkit: validation error: symbol 'zz' not in alphabet\n")


def test_outcome_that_reads_as_a_whole_number_is_that_int(capsys, fixtures_dir):
    path = str(fixtures_dir / "geometric_binary_p03_q05.json")
    _, by_int, _ = run(capsys, "compute", path, "--outcome", "1")
    assert json.loads(by_int)["outcome"] == 1
    for text in ("1.0", "1e0", "+1"):
        assert run(capsys, "compute", path, "--outcome", text) == (0, by_int, "")


def test_tail_csv(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "tail", str(fixtures_dir / "identity4.json"),
        "--eps", "0.5", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "eps,tail_probability"


def test_threads_env_keeps_reports_identical(capsys, fixtures_dir, monkeypatch):
    _, sequential, _ = run(capsys, "compute", str(fixtures_dir / "identity4.json"))
    monkeypatch.setenv("PMLKIT_THREADS", "4")
    _, threaded, _ = run(capsys, "compute", str(fixtures_dir / "identity4.json"))
    assert sequential == threaded


def test_output_file(capsys, fixtures_dir, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "compute", str(fixtures_dir / "identity4.json"), "--output", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["command"] == "compute"


def test_tail_cdf_matches_tail_probability_with_ties(capsys, tmp_path):
    # outcome j is favoured by input j % 3, so leakage values repeat
    rng = np.random.default_rng(19)
    n_in, n_out = 3, 24
    matrix = np.full((n_in, n_out), 0.5 / n_out)
    for j in range(n_out):
        matrix[j % n_in, j] += 1.5 / n_out
    matrix[:, : n_out // 2] *= 1.0 + 0.1 * rng.integers(0, 2, size=n_out // 2)
    matrix = matrix / matrix.sum(axis=1, keepdims=True)
    a, b = Alphabet([f"x{i}" for i in range(n_in)]), Alphabet(list(range(n_out)))
    model = JointModel(DiscreteDistribution(a, np.array([0.2, 0.3, 0.5])), DiscreteChannel(a, b, matrix))
    path = tmp_path / "ties.json"
    save_model_json(model, path)
    profile = leakage_profile(model)
    values = sorted(set(profile.nats_array().tolist()))
    assert len(values) < n_out  # ties present

    doc = run_json(capsys, "tail", str(path), "--eps", "0.1")
    assert doc["cdf"]["leakage"] == values
    expected = [1.0 - tail_probability(profile, v) for v in values]
    np.testing.assert_allclose(doc["cdf"]["probability"], expected, rtol=0, atol=1e-12)
    assert doc["cdf"]["probability"][-1] == 1.0


@pytest.mark.parametrize("seed,n_in,n_out,units", [(23, 3, 40, "nats"), (24, 7, 300, "bits"),
                                                     (25, 12, 120, "nats"), (26, 5, 80, "bits")])
def test_tail_rows_and_cdf_are_one_law(capsys, tmp_path, seed, n_in, n_out, units):
    # JSON rows, CSV rows and tail_probability agree bit for bit, and at each
    # printed leakage value v the row P(L > v) and the CDF entry P(L <= v) add up to 1
    model = random_model_with_zeros(np.random.default_rng(seed), n_in, n_out)
    path = tmp_path / "law.json"
    save_model_json(model, path)
    profile = leakage_profile(model)
    values = sorted(set(profile.in_units(units).tolist()))
    eps = [0.0, *values, math.inf]
    argv = ["tail", str(path), "--units", units, *(a for e in eps for a in ("--eps", repr(e)))]
    doc = run_json(capsys, *argv)
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0, err
    csv_rows = [float(row["tail_probability"]) for row in csv.DictReader(io.StringIO(out))]
    json_rows = [row["tail_probability"] for row in doc["rows"]]
    assert json_rows == csv_rows == [tail_probability(profile, e, units) for e in eps]
    assert doc["cdf"]["leakage"] == values
    assert [row + p for row, p in zip(json_rows[1:-1], doc["cdf"]["probability"])] == \
        [1.0] * len(values)


def test_tail_bits_cdf_prints_the_compute_bits_values(capsys, random_model_file):
    doc = run_json(capsys, "tail", str(random_model_file), "--eps", "0.1", "--units", "bits")
    profile = run_json(capsys, "compute", str(random_model_file), "--units", "bits")["profile"]
    assert doc["cdf"]["leakage"] == sorted(set(profile["leakage"]))
