"""Command-line front end.

Subcommands: ``compute`` (leakage profiles), ``verify`` (adversary
oracles against the pipeline), ``continuous`` (closed-form families),
``tail`` (exceedance probabilities).  Reports are deterministic JSON on
stdout; ``--format csv`` switches the profile/tail tables to CSV.

Exit codes: 0 success, 1 validation failure, 2 oracle-guarantee
violation, 3 capacity/capability error.  argparse usage errors also exit
2: they print ``usage:`` on stderr and nothing on stdout, where an oracle
violation prints a report with ``"all_ok": false``.

Each request is parsed by its command's parser alone (``COMMANDS``); the
full parser is built only when argparse must speak for the whole program.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .continuous import ClosedFormModel, GridSpec, pml_closed_form, pml_density, to_density_model
from .distributions import Alphabet, JointModel
from .errors import CapabilityError, CapacityError, PmlError, ValidationError
from .leakage import (
    LN2,
    LeakageProfile,
    leakage_profile,
    pml,
    tail_probability,
)
from .modelio import load_model, profile_document
from .oracles import (
    GainFunction,
    gain_ratio,
    partition_oracle,
    randomized_function_oracle,
    randomized_strategy_check,
    subset_oracle,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ORACLE = 2
EXIT_CAPACITY = 3

GAP_TOL = 1e-10

_encode = json.JSONEncoder(allow_nan=False).encode
#: json's indented encoder, which writes a scalar (or refuses NaN) as json.dumps(indent=2) does
_scalar = json.JSONEncoder(indent=2, allow_nan=False).encode
_str = json.encoder.encode_basestring_ascii


def _header(args, model: JointModel = None) -> dict:
    head = {
        "tool": "pmlkit",
        "version": __version__,
        "units": args.units,
        "seed": args.seed,
    }
    if model is not None:
        head["truncation_deficit"] = model.prior.truncation_deficit
    return head


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
    elif not isinstance(value, float) or math.isnan(value):  # _scalar refuses NaN
        return _scalar(value)
    else:
        return float.__repr__(value) if math.isfinite(value) else f'"{value}"'  # "inf", "-inf"
    brackets = "{}" if isinstance(value, dict) else "[]"
    if not value:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _csv(header_row, columns) -> str:
    """CSV text from a header and equal-length columns (str(inf) is 'inf')."""
    lines = [",".join(header_row)]
    lines.extend(map(",".join, zip(*[map(str, column) for column in columns])))
    return "\n".join(lines) + "\n"


def _emit(args, text: str) -> None:
    """Write a finished report to ``--output``, or to stdout."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compute(args) -> int:
    model = load_model(args.channel, args.prior)
    units = args.units
    if args.outcome is not None:
        y = _parse_outcome(args.outcome, model.output_alphabet)
        value = pml(model, y)
        doc = _header(args, model)
        doc.update({"command": "compute", "outcome": y, "leakage": value.in_units(units)})
        _emit(args, _json(doc))
        return EXIT_OK
    profile = leakage_profile(model)
    if args.format == "csv":
        columns = (
            profile.outcomes.symbols,
            profile.weights.probs.tolist(),
            profile.in_units(units).tolist(),
        )
        _emit(args, _csv(("outcome", "p_y", f"leakage_{units}"), columns))
        return EXIT_OK
    doc = _header(args, model)
    doc["command"] = "compute"
    doc["profile"] = profile_document(profile, units)
    _emit(args, _json(doc))
    return EXIT_OK


def _parse_outcome(raw: str, alphabet: Alphabet):
    if raw in alphabet:
        return raw
    try:
        as_int = int(raw)
    except ValueError:
        as_int = None
    if as_int is not None and as_int in alphabet:
        return as_int
    return raw  # let the lookup raise a named error


def _random_gain(rng, model: JointModel) -> GainFunction:
    d = int(rng.integers(1, 5))
    labels = [f"w{i}" for i in range(d)]
    gains = rng.uniform(0.0, 1.0, size=(model.input_alphabet.size, d))
    return GainFunction(model.input_alphabet, Alphabet(labels), gains)


def cmd_verify(args) -> int:
    if math.isnan(args.eps):  # every report echoes it
        raise ValidationError(f"--eps must be a number, got {args.eps!r}")
    if args.oracle == "strategies" and args.gains < 1:
        raise ValidationError(f"--gains must be >= 1 for the strategies oracle, got {args.gains}")
    model = load_model(args.channel, args.prior)
    if args.oracle == "strategies":
        rng = np.random.default_rng(args.seed)
        gains = [_random_gain(rng, model) for _ in range(args.gains)]
    rows = []
    all_ok = True
    lower_bound_mode = False
    pmls = leakage_profile(model).nats_array().tolist()
    for y, w, value in zip(model.output_alphabet.symbols, model.marginal.probs, pmls):
        if w <= 0:
            continue
        row = {"outcome": y, "p_y": float(w), "pml": value}
        if args.oracle == "subset":
            oracle = subset_oracle(model, y)
            gap = value - oracle
            ok = abs(gap) <= GAP_TOL
        elif args.oracle == "partition":
            oracle = partition_oracle(model, y, args.eps)
            gap = value - oracle
            ok = -1e-12 <= gap <= args.eps + 1e-12
        elif args.oracle == "functions":
            k = min(args.max_groups, model.input_alphabet.size)
            oracle = randomized_function_oracle(model, y, k)
            gap = value - oracle
            if k >= model.input_alphabet.size:
                ok = abs(gap) <= GAP_TOL
            else:
                lower_bound_mode = True
                ok = gap >= -GAP_TOL
        else:  # strategies
            checks = [randomized_strategy_check(model, y, g, args.resolution) for g in gains]
            bounded = [
                math.log(gain_ratio(model, y, g)) <= value + GAP_TOL for g in gains
            ]
            oracle = value
            gap = 0.0
            ok = all(checks) and all(bounded)
        row.update({"oracle": oracle, "gap": gap, "ok": ok})
        rows.append(row)
        all_ok = all_ok and ok
    doc = _header(args, model)
    doc.update(
        {
            "command": "verify",
            "oracle": args.oracle,
            "parameters": {
                "eps": args.eps,
                "max_groups": args.max_groups,
                "gains": args.gains,
                "resolution": args.resolution,
            },
            "lower_bound": lower_bound_mode,
            "rows": rows,
            "all_ok": all_ok,
        }
    )
    _emit(args, _json(doc))
    return EXIT_OK if all_ok else EXIT_ORACLE


def _load_spec(raw: str, what: str, keys=None) -> dict:
    """A JSON object given inline or as a file path, with keys among ``keys``."""
    text = raw.strip()
    if not text.startswith("{"):
        with open(text, encoding="utf-8") as fh:
            text = fh.read()
    spec = json.loads(text)
    if not isinstance(spec, dict) or not set(spec) <= set(keys or spec):
        within = f" with keys among {sorted(keys)}" if keys else ""
        raise ValidationError(f"{what} must be a JSON object{within}, got {spec!r}")
    return spec


def cmd_continuous(args) -> int:
    spec = _load_spec(args.family, "family spec")
    model = ClosedFormModel(spec["family"], spec.get("params", {}))
    y = float(args.outcome)
    closed = pml_closed_form(model, y)
    doc = _header(args)
    doc.update(
        {
            "command": "continuous",
            "family": model.family,
            "params": dict(model.params),
            "outcome": y,
            "closed_form": closed.in_units(args.units),
        }
    )
    if args.check_grid:
        spec = _load_spec(args.grid, "grid spec", GridSpec().to_dict()) if args.grid else {}
        grid = GridSpec(**spec)
        doc["grid"] = grid.to_dict()
        try:
            density = to_density_model(model, grid.quantile_clip)
        except CapabilityError as exc:
            doc["grid_check"] = {"error": str(exc)}
            _emit(args, _json(doc))
            return EXIT_CAPACITY
        result = pml_density(density, y, grid)
        doc["grid_check"] = {
            "value": result.value.in_units(args.units),
            "gap": closed.in_units(args.units) - result.value.in_units(args.units),
            "argmax_x": result.argmax_x,
        }
    _emit(args, _json(doc))
    return EXIT_OK


def _cdf(profile: LeakageProfile, units: str):
    """Distinct leakage values (ascending, in ``units``) and P_Y(leakage <= value).

    The values are those of ``profile.in_units``, so they print as in
    ``compute``.  One stable sort, then each value's probability is one
    minus the mass of the strictly larger values, summed from the top.
    """
    values = profile.in_units(units)
    order = np.argsort(values, kind="stable")
    values = values[order]
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    mass = np.add.reduceat(profile.weights.probs[order], starts)
    above = np.zeros_like(mass)
    above[:-1] = np.cumsum(mass[:0:-1])[::-1]
    return values[starts], 1.0 - above


def cmd_tail(args) -> int:
    model = load_model(args.channel, args.prior)
    profile = leakage_profile(model)
    rows = []
    for eps in args.eps:
        eps_nats = eps if args.units == "nats" else eps * LN2
        rows.append({"eps": eps, "tail_probability": tail_probability(profile, eps_nats)})
    if args.format == "csv":
        columns = ([r["eps"] for r in rows], [r["tail_probability"] for r in rows])
        _emit(args, _csv(("eps", "tail_probability"), columns))
        return EXIT_OK
    values, cdf = _cdf(profile, args.units)
    doc = _header(args, model)
    doc.update(
        {
            "command": "tail",
            "rows": rows,
            "cdf": {"leakage": values.tolist(), "probability": cdf.tolist()},
        }
    )
    _emit(args, _json(doc))
    return EXIT_OK


def _model_args(p) -> None:
    p.add_argument("channel", help="model JSON file, or channel CSV (with PRIOR)")
    p.add_argument("prior", nargs="?", default=None, help="prior CSV for CSV channels")
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", default=None, help="write the report here instead of stdout")


def _compute_args(p) -> None:
    _model_args(p)
    p.add_argument("--outcome", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_compute)


def _verify_args(p) -> None:
    _model_args(p)
    p.add_argument(
        "--oracle",
        required=True,
        choices=("subset", "partition", "functions", "strategies"),
    )
    p.add_argument("--eps", type=float, default=0.05, help="partition oracle band")
    p.add_argument("--max-groups", type=int, default=5, dest="max_groups")
    p.add_argument("--gains", type=int, default=20, help="random gain functions for strategies")
    p.add_argument("--resolution", type=int, default=20, help="simplex grid resolution")
    p.set_defaults(func=cmd_verify)


def _continuous_args(p) -> None:
    p.add_argument("--family", required=True, help="family spec JSON (inline or a file path)")
    p.add_argument("--outcome", required=True, type=float)
    p.add_argument("--grid", default=None, help="grid spec JSON (inline or a file path)")
    p.add_argument("--check-grid", action="store_true", dest="check_grid")
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_continuous)


def _tail_args(p) -> None:
    _model_args(p)
    p.add_argument("--eps", type=float, action="append", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_tail)


#: name -> (help in the command list, a function that adds the command's
#: arguments and its ``func`` default), in the order ``pmlkit -h`` lists them
COMMANDS = {
    "compute": ("leakage profile or a single outcome's leakage", _compute_args),
    "verify": ("check the pipeline against a brute-force adversary", _verify_args),
    "continuous": ("closed-form families, optionally grid-checked", _continuous_args),
    "tail": ("P(leakage > eps) table and the leakage CDF", _tail_args),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmlkit",
        description="Per-outcome information leakage for discrete channels and density models.",
    )
    parser.add_argument("--version", action="version", version=f"pmlkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in COMMANDS.items():
        add_args(sub.add_parser(name, help=help_text))
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parse ``argv`` with only the named command's parser when that suffices.

    ``add_parser`` gives a command's parser the prog ``pmlkit NAME`` and
    nothing else, and the full parser hands it everything after the name
    through ``parse_known_args``, so the two agree on every namespace,
    help text and error.  Anything the command's parser leaves over, and
    any argv that does not start with a command name (top-level ``-h``,
    ``--version``, no or an unknown command), goes to the full parser,
    which reports it as it always has.
    """
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"pmlkit {argv[0]}")
        COMMANDS[argv[0]][1](parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (CapacityError, CapabilityError) as exc:
        print(f"pmlkit: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (PmlError, OSError, KeyError, ValueError) as exc:
        print(f"pmlkit: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
