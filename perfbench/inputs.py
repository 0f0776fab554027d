"""Seeded benchmark inputs, written by the benchmark's own writer.

Models are full-support Dirichlet models in the two formats the pmlkit
README documents: one JSON file with ``alphabet_x``, ``alphabet_y``,
``prior`` and ``channel``, or a channel CSV (header row of output
symbols) plus a ``symbol,probability`` prior CSV.

The writer does not use ``pmlkit.modelio.save_model_json``, so a change
to the package's own writer cannot change the benchmark's inputs.
Probabilities are written with 11 decimal places, which keeps a
64 x 4000 model under 4 MB.  The last entry of every row is then
rewritten as ``1 - fsum(rest)`` in full precision, so every row sums to
one well within pmlkit's 1e-12 validation tolerance.  The numbers
written are exactly the numbers the references are computed from.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

DECIMALS = 11


@dataclasses.dataclass
class Model:
    """One generated model: its files by format, the reference vectors the
    checks need, and its manifest (file names, sizes, sha256).  The matrix
    itself is not kept."""

    name: str
    files: dict
    shape: tuple
    outcomes: list
    leak: np.ndarray
    p_y: np.ndarray
    manifest: dict = None


def _rounded_simplex(rng: np.random.Generator, n: int, size=None) -> tuple:
    """Dirichlet(1) rows rounded to DECIMALS decimal places (at least
    10^-DECIMALS, so every entry stays positive), each row's last entry set
    to 1 - fsum(rest).  Returns (values, row texts of comma-separated
    numbers); every text parses back to exactly its value."""
    rows = np.atleast_2d(rng.dirichlet(np.ones(n), size=size))
    ints = np.maximum(np.rint(rows * 10.0 ** DECIMALS), 1).astype(np.int64)
    values = ints / 10.0 ** DECIMALS
    digits = np.char.zfill(ints[:, :-1].astype(str), DECIMALS)
    texts = []
    for row, row_digits in zip(values, digits):
        row[-1] = 1.0 - math.fsum(row[:-1].tolist())
        if row[-1] <= 0.0:
            raise ValueError("rounding left a non-positive last entry")
        head = "0." + ",0.".join(row_digits.tolist()) + "," if n > 1 else ""
        texts.append(head + repr(float(row[-1])))
    if size is None:
        return values[0], texts[0]
    return values, texts


def reference_profile(prior: np.ndarray, channel: np.ndarray) -> tuple:
    """Per-outcome leakage log max_x W[x, y] - log P_Y(y) and P_Y = prior @ W.

    This is the column-max form of the paper's identity, independent of
    pmlkit's posterior-based route."""
    p_y = prior @ channel
    leak = np.maximum(np.log(channel.max(axis=0)) - np.log(p_y), 0.0)
    return leak, p_y


def _sync(fh) -> None:
    """Write the file back now, so the disk writeback of tens of MB of
    inputs does not compete with the timed requests."""
    fh.flush()
    os.fsync(fh.fileno())


def make_model(rng: np.random.Generator, directory: Path, name: str, nx: int, ny: int,
               formats=("json",)) -> Model:
    """Generate a model and write it as JSON and/or as a channel/prior CSV pair."""
    prior, prior_txt = _rounded_simplex(rng, nx)
    channel, channel_txt = _rounded_simplex(rng, ny, size=nx)
    xs = [f"x{i}" for i in range(nx)]
    ys = [f"y{j}" for j in range(ny)]
    files = {}
    if "json" in formats:
        path = directory / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"alphabet_x":' + json.dumps(xs) + ',"alphabet_y":' + json.dumps(ys))
            fh.write(',"prior":[' + prior_txt + '],"channel":[')
            fh.write(",".join("[" + row + "]" for row in channel_txt))
            fh.write("]}\n")
            _sync(fh)
        files["json"] = (str(path),)
    if "csv" in formats:
        cpath = directory / f"{name}_channel.csv"
        ppath = directory / f"{name}_prior.csv"
        with open(cpath, "w", encoding="utf-8") as fh:
            fh.write(",".join(ys) + "\n")
            for row in channel_txt:
                fh.write(row + "\n")
            _sync(fh)
        with open(ppath, "w", encoding="utf-8") as fh:
            for x, p in zip(xs, prior_txt.split(",")):
                fh.write(f"{x},{p}\n")
            _sync(fh)
        files["csv"] = (str(cpath), str(ppath))
    leak, p_y = reference_profile(prior, channel)
    manifest = {"name": name, "shape": [nx, ny], "files": [
        {"file": Path(f).name, "bytes": Path(f).stat().st_size,
         "sha256": hashlib.sha256(Path(f).read_bytes()).hexdigest()}
        for paths in files.values() for f in paths]}
    return Model(name, files, (nx, ny), ys, leak, p_y, manifest)
