"""Every pmlkit file format: model JSON and CSV in; model JSON and report JSON and CSV out.

JSON model files carry the whole model:

    {"alphabet_x": [...], "alphabet_y": [...],
     "prior": [...], "channel": [[...], ...]}

with ``channel[i][j] = P(Y = alphabet_y[j] | X = alphabet_x[i])``, and
optional ``truncation_deficit`` (the prior's) and ``row_deficits`` (one
per channel row, written only when some row of a truncated kernel has one).
Each number key becomes one float array, in the order ``prior``,
``truncation_deficit``, ``channel``, ``row_deficits``.  The channel is read
row by row with json's own scanner: a row that holds only numbers becomes a
float64 array before the next row is scanned, so no more than one row of
Python floats is alive, and a first load peaks at about twice the file's size.
Every key and every other value is what ``json.loads`` gives.

``load_model`` caches each JSON model that loads without error, in
``$XDG_CACHE_HOME/pmlkit`` (``~/.cache/pmlkit`` when that variable is unset,
empty or relative), one entry per absolute path.  An entry holds the file's
exact bytes, the model's labels as one JSON line, its float64 truncation
deficit, prior, channel and row deficits, and a CRC-32 of what follows the
bytes.  A later load reads the file and the entry's copy side by side, in
chunks of ``_CHUNK`` bytes; only when every byte matches does it rebuild the
model from the stored arrays, through the same constructors, so every law
check runs again.  Anything else (no entry, another length or byte, a
truncated or garbled entry, a cache it cannot read or write) falls back to
the parser, which gives every error.  So a report is byte-identical with or
without the cache, and deleting the directory is always safe.  Entries are
written to a temporary file (mode 0600, in a directory made with mode 0700)
and renamed into place; the oldest go first to keep the total within
``CACHE_BYTES``, and an entry larger than that is not stored.
``load_model_json`` is the uncached parser.

The CSV alternative splits the model: the channel file has a header row
of output symbols followed by one probability row per input symbol, and
the prior file has one ``symbol,probability`` line per input symbol (in
channel row order).  All numbers are plain decimal floats.  Both files skip
each record whose cells are all whitespace.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import numbers
import os
import re
import tempfile
import zlib
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .distributions import (
    Alphabet,
    DiscreteChannel,
    DiscreteDistribution,
    JointModel,
)
from . import __version__
from .errors import PmlError, ValidationError

PathLike = Union[str, Path]
#: the JSON type of each type json.load returns, and of the model reader's float rows
_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean", int: "number",
               float: "number", type(None): "null", np.ndarray: "array"}
_scan = json.JSONDecoder().scan_once
_key = json.decoder.scanstring
_space = json.decoder.WHITESPACE.match
#: a channel row whose text holds none of these holds only numbers (-Infinity holds "n")
_NOT_NUMBERS = ("t", "f", "n", '"', "{", "[")


#: json's C encoder, which writes every leaf but NaN as json.dumps(indent=2) does
_encode = json.JSONEncoder(allow_nan=False).encode
#: json's indented encoder, which refuses NaN with json.dumps(indent=2)'s message
_scalar = json.JSONEncoder(indent=2, allow_nan=False).encode
_str = json.encoder.encode_basestring_ascii
#: a CSV cell holding one of these is quoted (RFC 4180)
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _json(document: dict) -> str:
    """``json.dumps(document, indent=2, sort_keys=True, allow_nan=False)`` and a newline, for a
    document with string keys, each infinity written as "inf" or "-inf"; a list of floats is
    one C encoder call."""
    return _text(document, "\n") + "\n"


def _text(value, newline: str) -> str:
    """``value``'s JSON text, its inner lines indented two spaces past ``newline``."""
    inner = newline + "  "
    if isinstance(value, dict):
        items = [f"{_str(k)}: {_text(v, inner)}" for k, v in sorted(value.items())]
    elif isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        if kinds == {float} and all(map(math.isfinite, value)):  # no float's text holds ", "
            items = [_encode(value)[1:-1].replace(", ", "," + inner)]
        else:
            items = map(_str, value) if kinds == {str} else [_text(v, inner) for v in value]
    elif not isinstance(value, float):
        return _encode(value)
    elif math.isnan(value):
        return _scalar(value)  # raises
    else:
        return float.__repr__(value) if math.isfinite(value) else f'"{value}"'  # "inf", "-inf"
    brackets = "{}" if isinstance(value, dict) else "[]"
    if not value:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _csv(header_row, columns) -> str:
    """CSV text from a header and equal-length columns (str(inf) is 'inf').  The first column
    labels the rows: when some label holds a comma, a quote or a line break, each such label
    is quoted as RFC 4180 says, its quotes doubled."""
    labels, *rest = columns
    labels = list(map(str, labels))
    if _NEEDS_QUOTES.search("".join(labels)):
        labels = ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c
                  for c in labels]
    lines = [",".join(header_row)]
    lines.extend(map(",".join, zip(labels, *[map(str, column) for column in rest])))
    return "\n".join(lines) + "\n"


def _symbol(raw):
    """Keep integer labels as ints so JSON and CSV models agree; a numpy integer is its int."""
    if isinstance(raw, bool):
        raise ValidationError(f"invalid symbol {raw!r}")
    if isinstance(raw, (int, str)):
        return raw
    if isinstance(raw, numbers.Integral):  # not numpy's bool, which is no Integral
        return int(raw)
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    raise ValidationError(f"symbols must be strings or integers, got {raw!r}")


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{where}: {text!r} is not a decimal number") from None
    if math.isnan(value):
        raise ValidationError(f"{where}: NaN is not a probability")
    return value


def parse_json(text: str, source) -> object:
    """The JSON document ``text``; a parse error names ``source``, its line and its column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        where = f"line {exc.lineno}, column {exc.colno}"
        raise ValidationError(f"{source}: JSON parse error at {where}: {exc.msg}") from None
    except RecursionError:
        raise ValidationError(f"{source}: JSON parse error: nested too deeply") from None


def _require(items, want: str, what: str) -> None:
    """Refuse ``items`` unless each is a JSON ``want``; ``what`` names them in the error."""
    got = next((_JSON_TYPES[type(v)] for v in items if _JSON_TYPES[type(v)] != want), want)
    if got != want:
        raise ValidationError(f"{what} must be JSON {want}s, got a JSON {got}")


def _after(text: str, end: int, chars: str) -> tuple:
    """The first character at or past ``text[end]`` that is not whitespace, which must be one of
    ``chars``, and the index past it and the whitespace after it."""
    end = _space(text, end).end()
    char = text[end]
    if char not in chars:
        raise ValueError(f"expected one of {chars!r} at {end}")
    return char, _space(text, end + 1).end()


def _value(text: str, end: int, key: str) -> tuple:
    """The JSON value at ``text[end]`` and the index past it.  A ``channel`` array is scanned
    row by row, and each row of plain numbers is a float64 array before the next is scanned."""
    if key != "channel" or text[end] != "[":
        return _scan(text, end)
    rows, (char, end) = [], _after(text, end, "[")
    while char != "]":
        start = end
        row, end = _scan(text, start)
        if type(row) is list and all(text.find(c, start + 1, end) < 0 for c in _NOT_NUMBERS):
            try:
                row = np.array(row, dtype=float)
            except OverflowError:  # load_model_json names the key of a huge integer
                pass
        rows.append(row)
        char, end = _after(text, end, ",]")
    return rows, end


def _model_document(text: str):
    """``json.loads(text)`` for a JSON object with a key, its plain channel rows read as float64
    arrays; None for any other text, which ``parse_json`` then reads or refuses."""
    doc = {}
    try:
        char, end = _after(text, 0, "{")
        while char != "}":
            if text[end] != '"':
                return None
            key, end = _key(text, end + 1)
            _, end = _after(text, end, ":")
            doc[key], end = _value(text, end, key)
            char, end = _after(text, end, ",}")
    except (ValueError, IndexError, StopIteration, RecursionError):  # JSONDecodeError included
        return None
    return doc if end == len(text) else None


def _parse_model(text: str, source) -> object:
    """``parse_json(text, source)``, with a model object's plain channel rows as float64 arrays."""
    doc = _model_document(text)
    return parse_json(text, source) if doc is None else doc


def load_model_json(path: PathLike) -> JointModel:
    """The model in the JSON file ``path``, parsed with no cache."""
    # the text is released when the parse returns, before the rows are stacked
    return _model(_parse_model(Path(path).read_text(encoding="utf-8"), path), path)


def _model(doc, path) -> JointModel:
    """The model of a parsed model file's document; an error names ``path``."""
    if type(doc) is not dict:
        got = _JSON_TYPES[type(doc)]
        raise ValidationError(f"{path}: a model must be a JSON object, got a JSON {got}")
    missing = {"alphabet_x", "alphabet_y", "prior", "channel"} - set(doc)
    if missing:
        raise ValidationError(f"{path}: missing keys {sorted(missing)}")
    doc = {"truncation_deficit": 0.0, **doc}
    for key, want in (("alphabet_x", "array"), ("alphabet_y", "array"), ("prior", "array"),
                      ("truncation_deficit", "number"), ("channel", "array"),
                      ("row_deficits", "array")):
        got = _JSON_TYPES[type(doc.get(key, []))]
        if got != want:
            raise ValidationError(f"{path}: {key} must be a JSON {want}, got a JSON {got}")
    alphabet_x, alphabet_y = (  # _symbol keeps ints and strings as they are
        Alphabet(raw if set(map(type, raw)) <= {int, str} else map(_symbol, raw))
        for raw in (doc["alphabet_x"], doc["alphabet_y"]))
    # |X| items each, so checking every type is cheap
    for key, want, noun in (("prior", "number", "entries"), ("channel", "array", "rows"),
                            ("row_deficits", "number", "entries")):
        _require(doc.get(key, []), want, f"{path}: {key} {noun}")
    for key in ("prior", "truncation_deficit", "channel", "row_deficits"):  # the docstring's order
        # only rows the reader did not make arrays can hold a non-number; they are checked
        # here, so an overflow in prior or truncation_deficit is still named first
        if key == "channel":
            entries = (v for row in doc[key] if type(row) is list for v in row)
            _require(entries, "number", f"{path}: channel entries")
            lengths = list(map(len, doc[key]))
            i = next((i for i, n in enumerate(lengths) if n != lengths[0]), 0)
            if i:
                raise ValidationError(f"{path}: channel row {i} holds {lengths[i]} entries, "
                                      f"row 0 holds {lengths[0]}")
        try:
            doc[key] = np.array(doc[key], dtype=float) if key in doc else None
        except OverflowError:
            message = f"{path}: {key} holds an integer beyond the float range"
            raise ValidationError(message) from None
    prior = DiscreteDistribution(alphabet_x, doc["prior"], doc["truncation_deficit"])
    channel = DiscreteChannel(alphabet_x, alphabet_y, doc["channel"], doc["row_deficits"])
    return JointModel(prior, channel)


def save_model_json(model: JointModel, path: PathLike) -> None:
    doc = {"alphabet_x": model.input_alphabet, "alphabet_y": model.output_alphabet,
           "prior": model.prior.probs.tolist(), "channel": model.channel.matrix.tolist(),
           "truncation_deficit": model.prior.truncation_deficit}
    for key in ("alphabet_x", "alphabet_y"):  # labels as load_model_json reads them: 2.0 as 2
        try:
            doc[key] = list(map(_symbol, doc[key]))
        except ValidationError as exc:
            raise ValidationError(f"{path}: {key}: {exc}") from None
    if np.any(model.channel.row_deficits):
        doc["row_deficits"] = model.channel.row_deficits.tolist()
    Path(path).write_text(_json(doc), encoding="utf-8")


def _symbol_from_text(text: str):
    """A CSV cell's or ``--outcome``'s label: ``_symbol`` of the number it reads as, else it."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return _symbol(float(text))
    except (ValueError, ValidationError):  # not a number, or not one that _symbol takes
        return text


def _records(path: PathLike) -> list:
    """The CSV records of ``path`` with a non-blank cell: each one's file line and stripped cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)  # line_num is the file's line, after a quoted line break too
        records = ((reader.line_num, [c.strip() for c in row]) for row in reader)
        return [(line, cells) for line, cells in records if any(cells)]


def _load_csv_pair(channel_path: PathLike, prior_path: PathLike) -> JointModel:
    symbols, probs = [], []
    for line, cells in _records(prior_path):
        if len(cells) != 2:
            raise ValidationError(f"{prior_path}: line {line}: expected 'symbol,probability'")
        symbols.append(_symbol_from_text(cells[0]))
        probs.append(_parse_float(cells[1], f"{prior_path}: line {line}"))
    prior = DiscreteDistribution(Alphabet(symbols), probs)
    rows = _records(channel_path)
    if not rows:
        raise ValidationError(f"{channel_path}: empty channel file")
    output_alphabet = Alphabet(map(_symbol_from_text, rows[0][1]))
    matrix = []
    for line, cells in rows[1:]:
        if len(cells) != output_alphabet.size:
            raise ValidationError(f"{channel_path}: line {line}: expected "
                                  f"{output_alphabet.size} columns, got {len(cells)}")
        matrix.append([_parse_float(c, f"{channel_path}: line {line}") for c in cells])
    if len(matrix) != prior.alphabet.size:
        raise ValidationError(
            f"{channel_path}: {len(matrix)} channel rows for {prior.alphabet.size} prior symbols"
        )
    return JointModel(prior, DiscreteChannel(prior.alphabet, output_alphabet, matrix))


#: the largest total size of the cache's files, in bytes; a larger entry is not stored
CACHE_BYTES = 256 << 20
#: bytes of a model file, and of its cached copy, compared per read
_CHUNK = 1 << 16
#: an entry's first line is this, a space, the length of its byte copy and a newline
_MAGIC = f"pmlkit {__version__} model cache 1".encode()


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # unset, empty or relative: the XDG default
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root, "pmlkit")


def _make_room(entry: Path, temp: str, size: int) -> None:
    """Delete the oldest files in ``entry``'s directory, other than ``entry`` and its new
    temporary file ``temp``, until ``size`` more bytes fit within CACHE_BYTES."""
    others = []
    for item in os.scandir(entry.parent):
        if item.name not in (entry.name, os.path.basename(temp)) and item.is_file(
                follow_symlinks=False):
            stat = item.stat(follow_symlinks=False)
            others.append((stat.st_mtime_ns, stat.st_size, item.path))
    total = size + sum(n for _, n, _ in others)
    for _, n, path in sorted(others):
        if total <= CACHE_BYTES:
            break
        with contextlib.suppress(FileNotFoundError):  # another load deleted it first
            os.unlink(path)
        total -= n


class _Entry:
    """The cache entry of the JSON model file ``path``, named by the CRC-32 of its absolute
    path; exactness comes from comparing the bytes, not from the name.  A new entry is
    written to a temporary file, which ``finish`` renames into place and ``drop`` deletes."""

    def __init__(self, path: Path):
        self.path = path
        self.file = _cache_dir() / f"{zlib.crc32(os.fsencode(os.path.abspath(path))):08x}"
        self.out = self.temp = None

    def model(self) -> Optional[JointModel]:
        """The stored model, rebuilt and checked, when the stored copy holds the file's
        bytes; None when it does not, or when the entry cannot be read."""
        # a miss raises nothing: in a forked request, the first exception raised pages in
        # about 0.4 MB of interpreter code
        if not self.file.is_absolute() or not os.access(self.file, os.R_OK):
            return None
        try:
            with open(self.file, "rb") as cached, open(self.path, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                if cached.readline(len(_MAGIC) + 32) != b"%s %d\n" % (_MAGIC, size):
                    return None
                for start in range(0, size, _CHUNK):
                    n = min(_CHUNK, size - start)
                    if fh.read(n) != cached.read(n):
                        return None
                if fh.read(1):  # the file grew after its size was read
                    return None
                rest = cached.read()
            if zlib.crc32(memoryview(rest)[:-4]) != int.from_bytes(rest[-4:], "little"):
                return None
            end = rest.index(b"\n")
            xs, ys = json.loads(rest[:end])
            nx, ny = len(xs), len(ys)
            values = np.frombuffer(rest, "<f8", 1 + nx * (ny + 2), end + 1)
            if end + 1 + values.nbytes + 4 != len(rest):
                return None
            alphabet_x = Alphabet(xs)
            return JointModel(DiscreteDistribution(alphabet_x, values[1:nx + 1], float(values[0])),
                              DiscreteChannel(alphabet_x, Alphabet(ys),
                                              values[nx + 1:-nx].reshape(nx, ny), values[-nx:]))
        except (OSError, ValueError, TypeError, PmlError):  # the parser gives every error
            return None

    def begin(self, data: bytes) -> None:
        """Start the new entry: its first line and ``data``, the file's bytes."""
        if len(data) > CACHE_BYTES or not self.file.is_absolute():
            return
        try:
            if not os.path.isdir(self.file.parent):
                os.makedirs(self.file.parent, mode=0o700, exist_ok=True)
            fd, self.temp = tempfile.mkstemp(suffix=".tmp", prefix=".", dir=self.file.parent)
            self.out = os.fdopen(fd, "wb")
            self.out.write(b"%s %d\n" % (_MAGIC, len(data)))
            self.out.write(data)
        except OSError:
            self.drop()

    def finish(self, model: JointModel) -> None:
        """Add ``model``'s labels, its arrays and their CRC-32 to the new entry, and rename it
        into place after making room for it; on any failure the entry stays unfinished."""
        if self.out is None:
            return
        try:
            labels = json.dumps([model.input_alphabet.symbols, model.output_alphabet.symbols])
            floats = (model.prior.truncation_deficit, model.prior.probs, model.channel.matrix,
                      model.channel.row_deficits)
            parts = [labels.encode(), b"\n"] + [np.ascontiguousarray(v, "<f8") for v in floats]
            crc = 0
            for part in parts:
                self.out.write(part)
                crc = zlib.crc32(part, crc)
            self.out.write(crc.to_bytes(4, "little"))
            size = self.out.tell()
            self.out.close()
            if size <= CACHE_BYTES:
                _make_room(self.file, self.temp, size)
                os.replace(self.temp, self.file)
                self.out = None
        except OSError:
            pass

    def drop(self) -> None:
        """Delete the unfinished new entry, if there is one."""
        out, self.out = self.out, None
        if out is not None:
            with contextlib.suppress(OSError):
                out.close()
            with contextlib.suppress(OSError):
                os.unlink(self.temp)


def _read_text(path: Path, entry: _Entry) -> str:
    """``path.read_text(encoding="utf-8")``, from one read of the file's bytes, which
    ``entry`` copies before they are decoded."""
    with open(path, "rb") as fh:
        data = fh.read()
    entry.begin(data)
    # read_text's decoder: UTF-8, universal newlines, and its errors
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _load_json(path: Path) -> JointModel:
    """``load_model_json(path)``, rebuilt from the file's cache entry when that holds the
    file's bytes; otherwise parsed, and stored when it loads without error."""
    entry = _Entry(path)
    model = entry.model()
    if model is not None:
        return model
    try:
        # the bytes are released when _read_text returns, the text when the parse does
        model = _model(_parse_model(_read_text(path, entry), path), path)
        entry.finish(model)
    finally:
        entry.drop()  # nothing once the entry is in place
    return model


def load_model(channel_path: PathLike, prior_path: PathLike = None) -> JointModel:
    """Load a model from a combined JSON file or a CSV channel/prior pair."""
    channel_path = Path(channel_path)
    if channel_path.suffix.lower() == ".json":
        if prior_path is not None:
            raise ValidationError(f"{channel_path} holds its prior; got a prior file {prior_path}")
        return _load_json(channel_path)
    if prior_path is None:
        raise ValidationError("CSV channels require a separate prior file")
    return _load_csv_pair(channel_path, prior_path)

