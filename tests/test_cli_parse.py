"""The CLI reads a well-formed request from its option table (``COMMANDS``)
and leaves every other argv to argparse.

Help and error texts differ between Python versions, so these tests hold
the table reader to what the full parser (``build_parser``) does with the
same argv, on whatever Python runs them, rather than to stored text.
"""

import argparse
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from pmlkit import cli
from pmlkit.cli import COMMANDS, build_parser, main
from conftest import FIXTURES, make_fixtures

ROOT = FIXTURES.parent

# argv on which argparse exits: help, version, usage errors
EXITING = [
    ["-h"],
    ["--help"],
    ["--version"],
    [],
    ["bogus"],
    ["-h", "compute"],
    ["--units", "bits", "compute", "x.json"],
    *([name, "-h"] for name in COMMANDS),
    ["compute"],
    ["compute", "m.json", "p.csv", "extra"],
    ["continuous", "--family", "{}", "--outcome", "1", "extra"],
    ["compute", "m.json", "--bad"],
    ["verify", "m.json", "--oracle", "subset", "--bad", "1"],
    ["compute", "m.json", "--bad", "-h"],
    ["compute", "m.json", "--version"],
    ["compute", "m.json", "--units", "furlongs"],
    ["compute", "m.json", "--un", "furlongs"],
    ["verify", "m.json", "--oracle", "nope"],
    ["verify", "m.json", "--oracle", "functions", "--max-groups", "x"],
    ["tail", "m.json"],
    ["tail", "m.json", "--eps", "x"],
    ["verify", "m.json"],
    ["continuous", "--outcome", "1"],
    ["continuous", "--family", "{}", "--outcome", "x"],
    ["continuous", "--family", "{}", "--outcome", "-1e3"],
    ["compute", "m.json", "--outcome"],
    ["compute", "--", "m.json", "p.csv", "q.csv"],
]

# argv that parse: every golden's, and abbreviations, "--" and negative numbers
PARSING = [
    *(make_fixtures.golden_argv(name) for name in sorted(make_fixtures.GOLDENS)),
    ["compute", "m.json"],
    ["compute", "m.json", "--un", "bits"],
    ["compute", "--", "m.json"],
    ["compute", "m.json", "--outcome=-1"],
    ["compute", "m.json", "p.csv", "--format", "csv", "--outcome", "-1"],
    ["continuous", "--family", "{}", "--outcome", "-1"],
    ["continuous", "--family", "{}", "--outcome", "-1.5", "--check-grid", "--grid", "{}"],
    ["verify", "m.json", "--oracle", "partition", "--eps", "-0.5"],
    ["verify", "m.json", "--oracle=subset", "--max", "3"],
    ["verify", "m.json", "--oracle", "functions", "--max-groups", "3", "--seed", "7"],
    ["verify", "m.json", "--oracle", "strategies", "--gains", "0", "--output", "r.json"],
    ["tail", "m.json", "--eps", "1", "--eps", "-1", "--units", "bits"],
    ["tail", "--eps", "inf", "m.json", "--format", "csv"],
]


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def _exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as info:
        parse(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", EXITING, ids=" ".join)
def test_exits_as_the_full_parser(capsys, argv):
    assert _exit(capsys, main, argv) == _exit(capsys, build_parser().parse_args, argv)


@pytest.mark.parametrize("argv", PARSING, ids=" ".join)
def test_namespace_equals_the_full_parsers(argv):
    fast, full = vars(cli._parse(argv)), vars(build_parser().parse_args(argv))
    assert fast.pop("func") is full.pop("func")
    assert fast == full


@pytest.fixture
def parsers_built(monkeypatch):
    """The progs of the ArgumentParsers constructed from here on."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return progs


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "identity4.json"],
        ["verify", "identity4.json", "--oracle", "subset"],
        ["continuous", "--family", "family_gaussian_mixture.json", "--outcome", "1"],
        ["tail", "identity4.json", "--eps", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_well_formed_request_builds_no_parser(capsys, parsers_built, argv):
    assert main([str(FIXTURES / a) if a.endswith(".json") else a for a in argv]) == 0
    assert parsers_built == []


@pytest.mark.parametrize(
    "argv", [make_fixtures.golden_argv(name) for name in sorted(make_fixtures.GOLDENS)],
    ids=" ".join,
)
def test_every_golden_argv_is_read_from_the_table(argv):
    assert cli._read(argv) is not None


def test_options_may_split_the_positionals(capsys):
    channel, prior = (str(FIXTURES / name) for name in ("identity4_channel.csv",
                                                        "identity4_prior.csv"))
    assert main(["compute", channel, prior, "--units", "bits"]) == 0
    unsplit = capsys.readouterr()
    split = ["compute", channel, "--units", "bits", prior]
    assert _fields(cli._read(split)) == _fields(build_parser().parse_args(split))
    for argv in (split, ["compute", channel, "--un", "bits", prior]):  # the second: argparse
        assert main(argv) == 0
        assert capsys.readouterr() == unsplit
    # after "--" every token is a positional, which intermixed parsing would not keep
    assert build_parser().parse_args(["compute", "--", "-x.json"]).channel == "-x.json"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compute", "--", "--out", "p.csv", "extra"])
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: extra\n")


def test_top_level_help_builds_the_full_parser(capsys, parsers_built):
    with pytest.raises(SystemExit):
        main(["-h"])
    assert parsers_built == ["pmlkit"] + [f"pmlkit {name}" for name in COMMANDS]


def test_module_entry_point_reads_sys_argv():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-m", "pmlkit.cli", "compute", "fixtures/identity4.json"],
        cwd=ROOT, env=env, capture_output=True, check=False,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (FIXTURES / "golden" / "compute_identity4.json").read_bytes()


#: values by option type: ones the table reader takes (negative numbers among
#: them) and ones it leaves to argparse (exponents with a sign, "-" and flags)
GOOD_VALUES = {
    int: ["3", "0", "-3", "07", " 7", "-\u0663", "-1\n"],
    float: ["0.5", "-1", "-1.5", "-.5", "1e3", "1_0", "inf", "nan", "-\u0663", "-1\n"],
    None: ["r.json", "{}", "-1", "", "a b"],
}
#: negative-number look-alikes that argparse reads as options
LOOK_ALIKES = ["-5.", "-.5.5", "-1.2.3", "-1\n\n"]
BAD_VALUES = {
    int: ["1e3", "x", "-1.5", *LOOK_ALIKES],
    float: ["-1e3", "x", "-x", "-inf", *LOOK_ALIKES],
    None: ["-x", "-", "--units", "-1e3", *LOOK_ALIKES],
}
GOOD_POSITIONALS = ["m.json", "p.csv", "compute", "", "a b"]
BAD_POSITIONALS = ["-1", "-", "q.csv"]
STRAYS = ["--", "--bad", "-x", "-h", "--help", "--version", "bogus", "--un", "--out"]


NOISE = ("abbreviate", "equals", "bad values", "bad positionals", "split", "omit", "strays",
         "drop")


@st.composite
def argvs(draw):
    """argv for one command, drawn from its rows of ``COMMANDS``.

    A clean argv holds its command's positionals as one run within their
    count and each option zero to two times (required ones at least once)
    with values the option takes, in any order.  Each kind of noise drawn
    from ``NOISE`` spoils it one way: options abbreviated or joined to their
    value by "=", one bad value or choice, bad or too many positionals,
    positionals split by options, required options omitted, stray tokens,
    a dropped token.  A quarter of the argv carry one bad value alone and a
    quarter one kind drawn from ``NOISE``, so that a bad value often stands
    in an otherwise clean argv, which the table reader must judge alone; the
    rest carry any set of kinds.
    """
    name = draw(st.sampled_from(sorted(COMMANDS)))
    _, _, arguments = COMMANDS[name]
    options = [(flag, keywords) for flag, keywords in arguments if flag.startswith("-")]
    named = [keywords for flag, keywords in arguments if not flag.startswith("-")]
    alone = draw(st.integers(0, 3))
    if alone < 2:
        noise = {"bad values" if alone == 0 else draw(st.sampled_from(NOISE))}
    else:
        noise = draw(st.sets(st.sampled_from(NOISE)))
    positionals = GOOD_POSITIONALS + BAD_POSITIONALS * ("bad positionals" in noise)
    least = sum("nargs" not in keywords for keywords in named)
    least, most = (0, least + 2) if "bad positionals" in noise else (least, len(named))
    run = draw(st.lists(st.sampled_from(positionals), min_size=least, max_size=most))
    pieces = [[token] for token in run] if "split" in noise else [run]
    given = []
    for flag, keywords in options:
        required = keywords.get("required", False) and "omit" not in noise
        for _ in range(draw(st.integers(int(required), 2))):
            spelled = flag
            if "abbreviate" in noise and draw(st.booleans()):
                spelled = flag[:draw(st.integers(3, len(flag)))]
            given.append((spelled, keywords))
    valued = [i for i, (_, keywords) in enumerate(given) if keywords.get("action") != "store_true"]
    spoiled = draw(st.sampled_from(valued)) if "bad values" in noise and valued else None
    for i, (spelled, keywords) in enumerate(given):
        if i not in valued:
            pieces.append([spelled])
            continue
        if i == spoiled:
            values = ["furlongs"] + BAD_VALUES[keywords.get("type")]
        else:
            values = list(keywords.get("choices") or GOOD_VALUES[keywords.get("type")])
        value = draw(st.sampled_from(values))
        if "equals" in noise and draw(st.booleans()):
            pieces.append([f"{spelled}={value}"])
        else:
            pieces.append([spelled, value])
    if "strays" in noise:
        pieces += [[token] for token in draw(st.lists(st.sampled_from(STRAYS), max_size=2))]
    argv = [token for piece in draw(st.permutations(pieces)) for token in piece]
    if "drop" in noise and argv:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return [name, *argv]


def _fields(namespace):
    """A namespace's attributes as text, so that NaN equals NaN and 1 differs from 1.0."""
    return {key: repr(value) for key, value in vars(namespace).items()}


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            namespace = parse(argv)
    except SystemExit as stop:
        return "exit", stop.code, out.getvalue(), err.getvalue()
    return "namespace", _fields(namespace)


@pytest.mark.parametrize("value", ["-3", "-.5", "-\u0663", "-1\n", *LOOK_ALIKES])
@pytest.mark.parametrize("argv", [["tail", "m.json", "--eps"],
                                  ["verify", "m.json", "--oracle", "functions", "--max-groups"]],
                         ids=["float", "int"])
def test_a_value_starting_with_a_dash_is_read_as_the_full_parser_reads_it(argv, value):
    read = cli._read(argv + [value])
    full = _outcome(build_parser().parse_args, argv + [value])
    if read is None:  # argparse reads the value as an option, or refuses its type
        assert full[0] == "exit"
    else:
        assert full == ("namespace", _fields(read))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_table_reader_agrees_with_the_full_parser(argv):
    read = cli._read(argv)
    full = _outcome(build_parser().parse_args, argv)
    if read is not None:
        assert full == ("namespace", _fields(read))
    else:  # argparse decides; main would go on to run a parsed command
        assert _outcome(main if full[0] == "exit" else cli._parse, argv) == full
