"""``load_model``'s cache of JSON models, against ``load_model_json``, the uncached parser.

Each test has its own cache root (``conftest.model_cache``).  A load through the cache
must give the parser's model, or the parser's error, whatever the cache holds: a cold
cache, a warm one, or an entry that is stale, truncated, garbled or unreadable.
"""

import json
import os
import stat

import numpy as np
import pytest

from pmlkit import geometric_binary_model, modelio
from pmlkit.errors import ValidationError
from pmlkit.modelio import _Entry, load_model, load_model_json, save_model_json
from conftest import FIXTURES, random_full_support_model, random_model_with_zeros

MODEL = {"alphabet_x": ["a", 2], "alphabet_y": [0, "y"], "prior": [0.25, 0.75],
         "channel": [[0.5, 0.5], [0.125, 0.875]]}
#: the text of MODEL with line breaks inside and between its keys
LINES = json.dumps(MODEL, indent=1)


def _facts(model):
    """Everything a model holds, its floats as bytes, so -0.0 and 0.0 differ."""
    return (model.input_alphabet.symbols, model.output_alphabet.symbols,
            model.prior.probs.tobytes(), model.prior.truncation_deficit,
            model.channel.matrix.tobytes(), model.channel.row_deficits.tobytes(),
            model.marginal.probs.tobytes(), model.marginal.truncation_deficit)


def _outcome(load, path):
    """The facts of ``load(path)``'s model, or the type and text of its error."""
    try:
        return _facts(load(path))
    except Exception as exc:  # noqa: BLE001 - every error is compared
        return type(exc), str(exc)


def _put(path, content):
    """Make ``path`` hold ``content``: bytes, None (no file) or "dir" (a directory)."""
    if path.is_dir():
        path.rmdir()
    elif path.exists():
        path.unlink()
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)


@pytest.fixture
def parses(monkeypatch):
    """The number of model texts parsed so far, as a one-item list."""
    count = [0]
    parse = modelio._parse_model

    def counting(text, source):
        count[0] += 1
        return parse(text, source)

    monkeypatch.setattr(modelio, "_parse_model", counting)
    return count


CASES = {
    "crlf": LINES.replace("\n", "\r\n").encode(),
    "lone_cr": LINES.replace("\n", "\r").encode(),
    "lone_cr_parse_error": LINES.replace("\n", "\r").replace("0.125", "0.1x5").encode(),
    "bom": b"\xef\xbb\xbf" + LINES.encode(),
    "invalid_utf8": LINES.encode().replace(b'"a"', b'"\xff"'),
    "empty": b"",
    "missing": None,
    "directory": "dir",
}


@pytest.mark.parametrize("content", CASES.values(), ids=CASES.keys())
def test_a_cached_load_gives_the_parsers_model_or_error(tmp_path, content):
    path = tmp_path / "model.json"
    _put(path, content)
    want = _outcome(load_model_json, path)
    assert _outcome(load_model, path) == want  # a cold cache
    assert _outcome(load_model, path) == want  # warm, when the model loaded
    # and over the entry of another model that was at the path
    _put(path, LINES.encode())
    load_model(path)
    assert _Entry(path).file.is_file()
    _put(path, content)
    assert _outcome(load_model, path) == want
    if content in (CASES["crlf"], CASES["lone_cr"]):  # these load; the rest are refused
        assert want[:2] == (("a", 2), (0, "y"))


@pytest.mark.parametrize("make", [random_full_support_model, random_model_with_zeros])
def test_a_warm_load_parses_nothing_and_gives_the_same_model(tmp_path, parses, make):
    model = make(np.random.default_rng(29), 7, 5)
    path = tmp_path / "model.json"
    save_model_json(model, path)
    cold = _facts(load_model(path))
    assert parses[0] == 1
    assert _facts(load_model(path)) == cold == _facts(load_model_json(path))
    assert parses[0] == 2  # load_model_json's parse; the warm load parsed nothing


def test_a_truncated_model_is_rebuilt_with_its_deficits(tmp_path, parses):
    path = tmp_path / "geo.json"
    save_model_json(geometric_binary_model(0.3, 0.5), path)
    want = _facts(load_model_json(path))
    assert _facts(load_model(path)) == want
    assert _facts(load_model(path)) == want
    assert parses[0] == 2


def test_the_cache_lives_under_xdg_cache_home_and_is_private(tmp_path, model_cache):
    path = tmp_path / "model.json"
    path.write_text(LINES, encoding="utf-8")
    load_model(path)
    entry = _Entry(path).file
    assert entry.parent == model_cache
    assert sorted(model_cache.iterdir()) == [entry]
    assert stat.S_IMODE(model_cache.stat().st_mode) == 0o700
    assert stat.S_IMODE(entry.stat().st_mode) == 0o600


def test_without_xdg_cache_home_the_cache_is_in_the_home_directory(monkeypatch, tmp_path):
    for value in (None, "", "relative/cache"):
        if value is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", value)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert modelio._cache_dir() == tmp_path / ".cache" / "pmlkit"


def test_a_same_length_rewrite_with_its_mtime_restored_is_parsed(tmp_path, parses):
    path = tmp_path / "model.json"
    path.write_text(LINES, encoding="utf-8")
    load_model(path)
    before = path.stat()
    swapped = LINES.replace("0.25", "0.xx").replace("0.75", "0.25").replace("0.xx", "0.75")
    assert len(swapped) == len(LINES) and swapped != LINES
    path.write_text(swapped, encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert _facts(load_model(path)) == _facts(load_model_json(path))
    assert load_model(path).prior.probs.tolist() == [0.75, 0.25]
    assert parses[0] == 3  # two first loads and load_model_json


def _garble(entry, how):
    data = bytearray(entry.read_bytes())
    head = data.index(b"\n") + 1
    copy_end = head + int(data[:head].split()[-1])
    if how == "truncated_copy":
        del data[(head + copy_end) // 2:]
    elif how == "truncated_arrays":
        del data[-12:]
    elif how == "truncated_crc":
        del data[-1:]
    elif how == "trailing_byte":
        data += b"\0"
    elif how == "flipped_copy":
        data[copy_end - 3] ^= 0x01
    elif how == "flipped_labels":
        data[copy_end + 2] ^= 0x01
    elif how == "flipped_array":
        data[-20] ^= 0x01  # the lowest bit of a row deficit of 0.0
    elif how == "garbage_header":
        data[:head] = b"\x89garbage\x00\n"
    elif how == "empty":
        del data[:]
    entry.write_bytes(bytes(data))


@pytest.mark.parametrize("how", ["truncated_copy", "truncated_arrays", "truncated_crc",
                                 "trailing_byte", "flipped_copy", "flipped_labels",
                                 "flipped_array", "garbage_header", "empty"])
def test_a_damaged_entry_is_parsed_and_replaced(tmp_path, parses, how):
    model = random_model_with_zeros(np.random.default_rng(31), 6, 4)
    path = tmp_path / "model.json"
    save_model_json(model, path)
    want = _facts(load_model_json(path))
    load_model(path)
    entry = _Entry(path).file
    stored = entry.read_bytes()
    _garble(entry, how)
    assert entry.read_bytes() != stored
    assert _facts(load_model(path)) == want
    assert parses[0] == 3  # the damaged entry was not used
    assert entry.read_bytes() == stored  # the first load stored it anew
    assert _facts(load_model(path)) == want
    assert parses[0] == 3


def test_an_entry_path_that_is_a_directory_leaves_every_load_to_the_parser(tmp_path, parses):
    path = tmp_path / "model.json"
    path.write_text(LINES, encoding="utf-8")
    _Entry(path).file.mkdir(parents=True)
    for count in (1, 2):
        assert _facts(load_model(path)) == _facts(load_model_json(path))
        assert parses[0] == 2 * count
    assert _Entry(path).file.is_dir()
    assert [p.name for p in _Entry(path).file.parent.iterdir()] == [_Entry(path).file.name]


def test_a_cache_root_that_is_a_file_leaves_every_load_to_the_parser(tmp_path, parses,
                                                                     model_cache):
    model_cache.write_bytes(b"not a directory")
    path = tmp_path / "model.json"
    path.write_text(LINES, encoding="utf-8")
    for count in (1, 2):
        assert _facts(load_model(path)) == _facts(load_model_json(path))
        assert parses[0] == 2 * count
    assert model_cache.read_bytes() == b"not a directory"


def test_a_model_that_fails_to_load_stores_nothing(tmp_path, model_cache):
    with pytest.raises(ValidationError, match="sum") as cold:
        load_model(FIXTURES / "bad_rowsum.json")
    with pytest.raises(ValidationError) as parsed:
        load_model_json(FIXTURES / "bad_rowsum.json")
    assert str(cold.value) == str(parsed.value)
    assert list(model_cache.iterdir()) == []  # no entry and no temporary file


def _sizes(directory):
    return {p.name: p.stat().st_size for p in directory.iterdir()}


def test_the_cache_stays_within_its_bound_and_evicts_the_oldest(tmp_path, monkeypatch,
                                                                model_cache):
    rng = np.random.default_rng(37)
    paths = []
    for i in range(5):
        paths.append(tmp_path / f"m{i}.json")
        save_model_json(random_full_support_model(rng, 6, 40), paths[-1])
    load_model(paths[0])
    size = _Entry(paths[0]).file.stat().st_size
    monkeypatch.setattr(modelio, "CACHE_BYTES", 2 * size + size // 2)
    for i, path in enumerate(paths[1:], 1):
        # entries a second apart, oldest first, whatever the clock's resolution
        for j, older in enumerate(paths[:i]):
            entry = _Entry(older).file
            if entry.exists():
                os.utime(entry, (1_000_000 + j, 1_000_000 + j))
        assert _facts(load_model(path)) == _facts(load_model_json(path))
        assert sum(_sizes(model_cache).values()) <= modelio.CACHE_BYTES
    # each entry is one size here, so the newest two remain
    assert sorted(_sizes(model_cache)) == sorted(_Entry(p).file.name for p in paths[-2:])
    # an entry larger than the bound is not stored, and evicts nothing
    monkeypatch.setattr(modelio, "CACHE_BYTES", size - 1)
    _Entry(paths[0]).file.unlink(missing_ok=True)
    assert _facts(load_model(paths[0])) == _facts(load_model_json(paths[0]))
    assert sorted(_sizes(model_cache)) == sorted(_Entry(p).file.name for p in paths[-2:])


def test_a_first_load_writes_the_files_bytes_once_read(tmp_path, monkeypatch):
    """The entry's copy is the bytes the parse decoded: the file is opened once."""
    path = tmp_path / "model.json"
    path.write_text(LINES, encoding="utf-8")
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    load_model(path)
    assert opened.count(str(path)) == 1
    opened.clear()
    load_model(path)
    assert opened.count(str(path)) == 1
