"""Reading and writing models and leakage reports.

JSON model files carry the whole model:

    {"alphabet_x": [...], "alphabet_y": [...],
     "prior": [...], "channel": [[...], ...]}

with ``channel[i][j] = P(Y = alphabet_y[j] | X = alphabet_x[i])``, and
optional ``truncation_deficit`` (the prior's) and ``row_deficits`` (one
per channel row, written only when some row of a truncated kernel has one).

The CSV alternative splits the model: the channel file has a header row
of output symbols followed by one probability row per input symbol, and
the prior file has one ``symbol,probability`` line per input symbol (in
channel row order).  All numbers are plain decimal floats.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Union

import numpy as np

from .distributions import (
    Alphabet,
    DiscreteChannel,
    DiscreteDistribution,
    JointModel,
)
from .errors import ValidationError
from .leakage import LeakageProfile, maximal_leakage, mean_leakage

PathLike = Union[str, Path]
#: the JSON type of each type json.load returns
_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean", int: "number",
               float: "number", type(None): "null"}


def _symbol(raw):
    """Keep integer labels as ints so JSON and CSV models agree."""
    if isinstance(raw, bool):
        raise ValidationError(f"invalid symbol {raw!r}")
    if isinstance(raw, (int, str)):
        return raw
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    raise ValidationError(f"symbols must be strings or integers, got {raw!r}")


def _overflows(value) -> bool:
    """Whether a parsed JSON value holds an integer that rounds beyond the float range."""
    return (any(map(_overflows, value)) if type(value) is list
            else type(value) is int and abs(value) >= 2**1024 - 2**970)


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{where}: {text!r} is not a decimal number") from None
    if math.isnan(value):
        raise ValidationError(f"{where}: NaN is not a probability")
    return value


def load_model_json(path: PathLike) -> JointModel:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
    if type(doc) is not dict:
        got = _JSON_TYPES[type(doc)]
        raise ValidationError(f"{path}: a model must be a JSON object, got a JSON {got}")
    missing = {"alphabet_x", "alphabet_y", "prior", "channel"} - set(doc)
    if missing:
        raise ValidationError(f"{path}: missing keys {sorted(missing)}")
    deficit = doc.get("truncation_deficit", 0.0)
    for key, value, want in (("alphabet_x", doc["alphabet_x"], "array"),
                             ("alphabet_y", doc["alphabet_y"], "array"),
                             ("prior", doc["prior"], "array"),
                             ("truncation_deficit", deficit, "number"),
                             ("channel", doc["channel"], "array"),
                             ("row_deficits", doc.get("row_deficits", []), "array")):
        got = _JSON_TYPES[type(value)]
        if got != want:
            raise ValidationError(f"{path}: {key} must be a JSON {want}, got a JSON {got}")
    alphabet_x, alphabet_y = (  # _symbol keeps ints and strings as they are
        Alphabet(raw if set(map(type, raw)) <= {int, str} else map(_symbol, raw))
        for raw in (doc["alphabet_x"], doc["alphabet_y"]))
    # |X| items each, so checking every type is cheap; a channel row's entries are not checked
    for key, want, noun in (("prior", "number", "entries"), ("channel", "array", "rows"),
                            ("row_deficits", "number", "entries")):
        items = doc.get(key, [])
        got = next((_JSON_TYPES[type(v)] for v in items if _JSON_TYPES[type(v)] != want), want)
        if got != want:
            raise ValidationError(f"{path}: {key} {noun} must be JSON {want}s, got a JSON {got}")
    try:  # the constructors convert each parsed list to its one float array
        prior = DiscreteDistribution(alphabet_x, doc["prior"], deficit)
        channel = DiscreteChannel(alphabet_x, alphabet_y, doc["channel"], doc.get("row_deficits"))
    except OverflowError:  # the conversions run in this key order
        key = next(k for k in ("prior", "truncation_deficit", "channel", "row_deficits")
                   if _overflows(doc.get(k)))
        raise ValidationError(f"{path}: {key} holds an integer beyond the float range") from None
    except TypeError:  # float() of a JSON object, which only a channel row can still hold
        raise ValidationError(f"{path}: channel entries must be JSON numbers, got a JSON object"
                              ) from None
    return JointModel(prior, channel)


def save_model_json(model: JointModel, path: PathLike) -> None:
    doc = {
        "alphabet_x": list(model.input_alphabet.symbols),
        "alphabet_y": list(model.output_alphabet.symbols),
        "prior": model.prior.probs.tolist(),
        "truncation_deficit": model.prior.truncation_deficit,
        "channel": model.channel.matrix.tolist(),
    }
    if np.any(model.channel.row_deficits):
        doc["row_deficits"] = model.channel.row_deficits.tolist()
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_prior_csv(path: PathLike) -> DiscreteDistribution:
    symbols, probs = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValidationError(
                    f"{path}: line {lineno}: expected 'symbol,probability'"
                )
            symbols.append(_symbol_from_text(row[0].strip()))
            probs.append(_parse_float(row[1].strip(), f"{path}: line {lineno}"))
    return DiscreteDistribution(Alphabet(symbols), probs)


def _symbol_from_text(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def load_channel_csv(path: PathLike, input_alphabet: Alphabet) -> DiscreteChannel:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not rows:
        raise ValidationError(f"{path}: empty channel file")
    output_alphabet = Alphabet([_symbol_from_text(c.strip()) for c in rows[0]])
    matrix = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != output_alphabet.size:
            raise ValidationError(
                f"{path}: line {lineno}: expected {output_alphabet.size} columns, got {len(row)}"
            )
        matrix.append([_parse_float(c.strip(), f"{path}: line {lineno}") for c in row])
    if len(matrix) != input_alphabet.size:
        raise ValidationError(
            f"{path}: {len(matrix)} channel rows for {input_alphabet.size} prior symbols"
        )
    return DiscreteChannel(input_alphabet, output_alphabet, matrix)


def load_model(channel_path: PathLike, prior_path: PathLike = None) -> JointModel:
    """Load a model from a combined JSON file or a CSV channel/prior pair."""
    channel_path = Path(channel_path)
    if channel_path.suffix.lower() == ".json":
        return load_model_json(channel_path)
    if prior_path is None:
        raise ValidationError("CSV channels require a separate prior file")
    prior = load_prior_csv(prior_path)
    channel = load_channel_csv(channel_path, prior.alphabet)
    return JointModel(prior, channel)


def profile_document(profile: LeakageProfile, units: str = "nats") -> dict:
    """Machine-readable leakage profile export.

    Values are plain floats; the report writer spells any infinity.
    """
    return {
        "units": units,
        "outcomes": list(profile.outcomes.symbols),
        "leakage": profile.in_units(units).tolist(),
        "p_y": profile.weights.probs.tolist(),
        "maximal_leakage": maximal_leakage(profile).in_units(units),
        "mean_leakage": mean_leakage(profile).in_units(units),
    }
