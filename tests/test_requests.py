"""Every request in ``scripts/make_fixtures.py``'s table keeps its bytes.

``fixtures/golden/requests.json`` is a golden written by
``scripts/make_fixtures.py`` from fresh interpreters: the sha256 of every
input the table writes, and each request's exit code and the length and
sha256 of its stdout and stderr.  Here the inputs are written again and
their hashes checked once, so a change in what numpy draws shows as one
failure, not hundreds.  Then every request runs in this process through
``cli.main``, from the inputs' directory, with argparse's ``SystemExit``
caught and help texts wrapped at 80 columns, as in the recording.  A
failure names each moved argv, which of its exit code, stdout and stderr
moved, and its exit code before and after.  Help and usage texts are
argparse's, so they hold for the Python that wrote the manifest.
"""

import contextlib
import io
import json

from pmlkit import cli
from conftest import make_fixtures


def _replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": make_fixtures.digest(out.getvalue().encode()),
            "stderr": make_fixtures.digest(err.getvalue().encode())}


def _moved(entry):
    """A line naming what of ``entry``'s request moved, or None."""
    got = _replay(entry["argv"])
    moved = [what for what, key in (("exit code", "exit"), ("stdout", "stdout"),
                                    ("stderr", "stderr")) if got[key] != entry[key]]
    if moved:
        return (f"{' '.join(entry['argv'])}: {', '.join(moved)} differ "
                f"(exit {entry['exit']} -> {got['exit']})")
    return None


def test_every_replayed_request_keeps_its_bytes(tmp_path, monkeypatch):
    manifest = json.loads(make_fixtures.MANIFEST.read_text(encoding="utf-8"))
    hashes, argvs = make_fixtures.write_request_inputs(tmp_path)
    names = hashes.keys() | manifest["inputs"].keys()
    assert not sorted(name for name in names if hashes.get(name) != manifest["inputs"].get(name))
    assert argvs == [entry["argv"] for entry in manifest["requests"]]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    differ = [line for line in map(_moved, manifest["requests"]) if line]
    assert not differ, f"{len(differ)} of {len(argvs)} requests differ:\n" + "\n".join(differ)
