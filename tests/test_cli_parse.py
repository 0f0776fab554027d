"""The CLI parses a request with the named command's parser alone.

Help and error texts differ between Python versions, so these tests hold
that fast path to what the full parser (``build_parser``) does with the
same argv, on whatever Python runs them, rather than to stored text.
"""

import argparse
import os
import subprocess
import sys

import pytest

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
def test_a_request_builds_one_parser(capsys, parsers_built, argv):
    assert main([str(FIXTURES / a) if a.endswith(".json") else a for a in argv]) == 0
    assert parsers_built == [f"pmlkit {argv[0]}"]


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
