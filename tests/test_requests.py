"""Every request in ``scripts/make_fixtures.py``'s table keeps its bytes.

``fixtures/golden/requests.json`` is a golden written by
``scripts/make_fixtures.py`` from fresh interpreters: what those bytes
depend on beyond the code (``make_fixtures.facts()``), the sha256 of every
input the table writes, and each request's exit code and the length and
sha256 of its stdout and stderr.  Here the inputs are written again and
their hashes checked once, so a change in what numpy draws shows as one
failure, not hundreds.  Then every request runs through ``cli.main``
(``make_fixtures.replay``), from the inputs' directory, with argparse's
``SystemExit`` caught and help texts wrapped at 80 columns, as in the
recording.  A failure names each moved argv, which of its exit code,
stdout and stderr moved, and its exit code before and after; on a machine
whose facts differ from the recorded ones it says so first.
"""

import json
import os
import subprocess
import sys

from conftest import make_fixtures


def _manifest():
    return json.loads(make_fixtures.MANIFEST.read_text(encoding="utf-8"))


def _moved(entry, got):
    """A line naming what of ``entry``'s request moved in ``got``, or None."""
    moved = [what for what, key in (("exit code", "exit"), ("stdout", "stdout"),
                                    ("stderr", "stderr")) if got[key] != entry[key]]
    if moved:
        return (f"{' '.join(entry['argv'])}: {', '.join(moved)} differ "
                f"(exit {entry['exit']} -> {got['exit']})")
    return None


def _check(manifest, replayed, facts):
    """Assert that every replayed request kept its recorded bytes; ``facts``
    are those of the replaying interpreter."""
    requests = manifest["requests"]
    assert [got["argv"] for got in replayed] == [entry["argv"] for entry in requests]
    differ = [line for line in map(_moved, requests, replayed) if line]
    note = ("" if facts == manifest["facts"] else
            f"the manifest was recorded with {manifest['facts']}, the replay ran with {facts}\n")
    assert not differ, note + f"{len(differ)} of {len(requests)} requests differ:\n" + "\n".join(differ)


def _write_inputs(directory, manifest):
    hashes, argvs = make_fixtures.write_request_inputs(directory)
    names = hashes.keys() | manifest["inputs"].keys()
    assert not sorted(name for name in names if hashes.get(name) != manifest["inputs"].get(name))
    assert argvs == [entry["argv"] for entry in manifest["requests"]]
    return argvs


def test_every_replayed_request_keeps_its_bytes(tmp_path, monkeypatch):
    manifest = _manifest()
    argvs = _write_inputs(tmp_path, manifest)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    _check(manifest, [make_fixtures.replay(argv) for argv in argvs], make_fixtures.facts())


def test_the_manifest_holds_under_another_blas_kernel(tmp_path):
    """Every request keeps its bytes under OpenBLAS's Nehalem kernel, an SSE4.2
    kernel that any x86-64 CPU runs; the manifest was recorded with the kernel
    OpenBLAS chose for the recording CPU.  OpenBLAS reads OPENBLAS_CORETYPE
    when numpy loads, so one fresh interpreter, in the recording environment
    (``make_fixtures.ENV``), replays every request.  Where OpenBLAS ignores
    the variable (a CPU that is not x86), this checks nothing beyond
    ``test_every_replayed_request_keeps_its_bytes``."""
    manifest = _manifest()
    argvs = _write_inputs(tmp_path, manifest)
    code = ("import json, sys, make_fixtures\n"
            "replayed = [make_fixtures.replay(argv) for argv in json.load(sys.stdin)]\n"
            "print(json.dumps([replayed, make_fixtures.facts()]))")
    paths = [str(make_fixtures.ROOT / "src"), str(make_fixtures.ROOT / "scripts")]
    env = dict(make_fixtures.ENV, PYTHONPATH=os.pathsep.join(paths), OPENBLAS_CORETYPE="Nehalem")
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(argvs),
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    _check(manifest, *json.loads(proc.stdout))
