"""Command-line front end.

Subcommands: ``compute`` (leakage profiles), ``verify`` (adversary
oracles against the pipeline), ``continuous`` (closed-form families),
``tail`` (exceedance probabilities).  Each handler returns its exit code
and its report: a dict of its own keys, or finished CSV text for
``--format csv``.  ``main`` adds the header keys to a dict, encodes it as
deterministic JSON and writes the report once, to ``--output`` or stdout.

Exit codes: 0 success, 1 validation failure, 2 oracle-guarantee
violation, 3 capacity/capability error.  argparse usage errors also exit
2: they print ``usage:`` on stderr and nothing on stdout, where an oracle
violation prints a report with ``"all_ok": false``.

Table first, argparse for the rest: ``COMMANDS`` holds each command's
help, handler, positionals and options, and a well-formed request is read
from it with no parser built.  Any other argv (help, ``--version``,
``--opt=value``, abbreviations, ``--``, unknown tokens, a bad value) goes
to the full parser, which ``build_parser`` makes from the same table, so
argparse still writes every help text and decides every usage error.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from itertools import zip_longest
from typing import Optional

from . import __version__
from .continuous import ClosedFormModel, GridSpec, grid_check, pml_closed_form
from .distributions import Alphabet, JointModel
from .errors import CapabilityError, CapacityError, PmlError, ValidationError
from .leakage import (
    UNITS,
    LeakageProfile,
    leakage_law,
    leakage_profile,
    maximal_leakage,
    mean_leakage,
    pml,
)
from .modelio import _csv, _json, _symbol_from_text, load_model, parse_json
from .oracles import (
    GainFunction,
    atom_gain,
    atom_ratio,
    check_epsilon,
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


def cmd_compute(args) -> tuple:
    if args.outcome is not None and args.format == "csv":
        raise ValidationError(f"--format csv writes a whole profile, not --outcome {args.outcome}")
    model = load_model(args.channel, args.prior)
    units = args.units
    if args.outcome is not None:
        # a symbol as typed, else the label it reads as; an unknown one is named as typed
        raw, y = args.outcome, _symbol_from_text(args.outcome)
        y = y if raw not in model.output_alphabet and y in model.output_alphabet else raw
        report = {"outcome": y, "leakage": pml(model, y).in_units(units)}
    else:
        profile = leakage_profile(model)
        if args.format == "csv":
            columns = (
                profile.outcomes.symbols,
                profile.weights.probs.tolist(),
                profile.in_units(units).tolist(),
            )
            return EXIT_OK, _csv(("outcome", "p_y", f"leakage_{units}"), columns)
        report = {"profile": profile_document(profile, units)}
    report["truncation_deficit"] = model.prior.truncation_deficit
    return EXIT_OK, report


def _random_gain(rng: random.Random, model: JointModel) -> GainFunction:
    d = rng.randint(1, 4)
    labels = [f"w{i}" for i in range(d)]
    gains = [[rng.random() for _ in range(d)] for _ in range(model.input_alphabet.size)]
    return GainFunction(model.input_alphabet, Alphabet(labels), gains)


def cmd_verify(args) -> tuple:
    if math.isnan(args.eps):  # every report echoes it
        raise ValidationError(f"--eps must be a number, got {args.eps!r}")
    if args.oracle == "partition":  # before the conversion, so a refusal names the given value
        check_epsilon(args.eps)
    scale = UNITS[args.units]  # the report's values and --eps are in units; the checks in nats
    eps = args.eps * scale
    if args.oracle == "strategies" and args.gains < 1:
        raise ValidationError(f"--gains must be >= 1 for the strategies oracle, got {args.gains}")
    model = load_model(args.channel, args.prior)
    if args.oracle == "strategies":  # only this oracle draws; --seed seeds its gains
        rng = random.Random(args.seed)
        gains = [_random_gain(rng, model) for _ in range(args.gains)]
        atoms = atom_gain(model)

    def strategies_oracle(y) -> float:
        ratios = [atom_ratio(model, y, atoms)] + [gain_ratio(model, y, g) for g in gains]
        return max(map(math.log, ratios))

    # oracle -> (its value at y; the band pml - oracle must lie in; a further check, or None).
    # From two groups on, functions scores every event (the binary-function reduction); one
    # group on two or more inputs scores the full event alone: a lower bound, open above.  The
    # strategies atom gain attains pml, so subset's band also fails a drawn log ratio above
    # pml + GAP_TOL, but in a window of at most half an ulp of pml (fl(pml + GAP_TOL) - pml).
    oracle_at, low, high, holds = {
        "subset": (lambda y: subset_oracle(model, y), -GAP_TOL, GAP_TOL, None),
        "partition": (lambda y: partition_oracle(model, y, eps), -1e-12, eps + 1e-12, None),
        "functions": (lambda y: randomized_function_oracle(model, y, args.max_groups),
                      -GAP_TOL, math.inf if args.max_groups == 1 and model.input_alphabet.size > 1
                      else GAP_TOL, None),
        "strategies": (strategies_oracle, -GAP_TOL, GAP_TOL, lambda y: all(
            randomized_strategy_check(model, y, g, args.resolution) for g in gains)),
    }[args.oracle]
    rows = []
    pmls = leakage_profile(model).nats_array().tolist()
    for y, w, value in zip(model.output_alphabet.symbols, model.marginal.probs, pmls):
        if w > 0:
            oracle = oracle_at(y)
            gap = value - oracle
            ok = low <= gap <= high and (holds is None or holds(y))
            rows.append({"outcome": y, "p_y": float(w), "pml": value / scale,
                         "oracle": oracle / scale, "gap": gap / scale, "ok": ok})
    all_ok = all(row["ok"] for row in rows)
    report = {
        "truncation_deficit": model.prior.truncation_deficit,
        "oracle": args.oracle,
        "parameters": {
            "eps": args.eps,
            "max_groups": args.max_groups,
            "gains": args.gains,
            "resolution": args.resolution,
        },
        "lower_bound": high == math.inf,
        "rows": rows,
        "all_ok": all_ok,
    }
    return (EXIT_OK if all_ok else EXIT_ORACLE), report


def _load_spec(raw: str, what: str, keys) -> dict:
    """A JSON object given inline or as a file path, with keys among ``keys``."""
    text, source = raw.strip(), what
    if not text.startswith("{"):
        source = text
        with open(text, encoding="utf-8") as fh:
            text = fh.read()
    spec = parse_json(text, source)
    if not isinstance(spec, dict) or not set(spec) <= set(keys):
        raise ValidationError(f"{what} must be a JSON object with keys among {sorted(keys)}, "
                              f"got {spec!r}")
    return spec


def cmd_continuous(args) -> tuple:
    if args.grid is not None and not args.check_grid:
        raise ValidationError("--grid needs --check-grid")
    spec = _load_spec(args.family, "family spec", ("family", "params"))
    if "family" not in spec:
        raise ValidationError(f"family spec must hold the key 'family', got {spec!r}")
    model = ClosedFormModel(spec["family"], spec.get("params", {}))
    y = float(args.outcome)
    closed = pml_closed_form(model, y)
    report = {
        "family": model.family,
        "params": dict(model.params),
        "outcome": y,
        "closed_form": closed.in_units(args.units),
    }
    if not args.check_grid:
        return EXIT_OK, report
    spec = _load_spec(args.grid, "grid spec", GridSpec.__dataclass_fields__) if args.grid else {}
    grid = GridSpec(**spec)
    report["grid"] = grid.to_dict()
    try:
        result = grid_check(model, y, grid)
    except CapabilityError as exc:
        report["grid_check"] = {"error": str(exc)}
        return EXIT_CAPACITY, report
    report["grid_check"] = {
        "value": result.value.in_units(args.units),
        "gap": closed.in_units(args.units) - result.value.in_units(args.units),
        "argmax_x": result.argmax_x,
    }
    return EXIT_OK, report


def cmd_tail(args) -> tuple:
    model = load_model(args.channel, args.prior)
    tails, values, cdf = leakage_law(leakage_profile(model), args.eps, args.units)
    tails = tails.tolist()
    if args.format == "csv":
        return EXIT_OK, _csv(("eps", "tail_probability"), (args.eps, tails))
    return EXIT_OK, {
        "truncation_deficit": model.prior.truncation_deficit,
        "rows": [{"eps": eps, "tail_probability": p} for eps, p in zip(args.eps, tails)],
        "cdf": {"leakage": values.tolist(), "probability": cdf.tolist()},
    }


_UNITS = ("--units", dict(dest="units", choices=tuple(UNITS), default="nats"))
_SEED = ("--seed", dict(dest="seed", type=int, default=42))
_FORMAT = ("--format", dict(dest="format", choices=("json", "csv"), default="json"))
_MODEL_ARGUMENTS = (
    ("channel", dict(help="model JSON file, or channel CSV (with PRIOR)")),
    ("prior", dict(nargs="?", help="prior CSV for CSV channels")),
    _UNITS,
    _SEED,
    ("--output", dict(dest="output", help="write the report here instead of stdout")),
)

#: name -> (help in the command list, handler, arguments), in the order
#: ``pmlkit -h`` lists them.  An argument is a positional's name or an
#: option's flag, and its ``add_argument`` keywords: an option names its
#: ``dest`` and may set ``type``, ``choices``, ``default``, ``required`` and
#: ``action`` ("append" or "store_true"); an optional positional has
#: ``nargs="?"`` and follows the required ones.
COMMANDS = {
    "compute": ("leakage profile or a single outcome's leakage", cmd_compute, (
        *_MODEL_ARGUMENTS,
        ("--outcome", dict(dest="outcome")),
        _FORMAT,
    )),
    "verify": ("check the pipeline against a brute-force adversary", cmd_verify, (
        *_MODEL_ARGUMENTS,
        ("--oracle", dict(dest="oracle", required=True,
                          choices=("subset", "partition", "functions", "strategies"))),
        ("--eps", dict(dest="eps", type=float, default=0.05, help="partition oracle band")),
        ("--max-groups", dict(dest="max_groups", type=int, default=5)),
        ("--gains", dict(dest="gains", type=int, default=20,
                         help="random gain functions for strategies")),
        ("--resolution", dict(dest="resolution", type=int, default=20,
                              help="simplex grid resolution")),
    )),
    "continuous": ("closed-form families, optionally grid-checked", cmd_continuous, (
        ("--family", dict(dest="family", required=True,
                          help="family spec JSON (inline or a file path)")),
        ("--outcome", dict(dest="outcome", required=True, type=float)),
        ("--grid", dict(dest="grid", help="grid spec JSON (inline or a file path)")),
        ("--check-grid", dict(dest="check_grid", action="store_true", default=False)),
        _UNITS,
        _SEED,
        ("--output", dict(dest="output")),
    )),
    "tail": ("P(leakage > eps) table and the leakage CDF", cmd_tail, (
        *_MODEL_ARGUMENTS,
        ("--eps", dict(dest="eps", type=float, action="append", required=True)),
        _FORMAT,
    )),
}


class _Commands(argparse._SubParsersAction):
    """The subcommands.  Where options split a command's positionals
    (``compute CHANNEL --units bits PRIOR``), argparse reads only the first
    run of them and leaves the rest unread; such an argv is read again by
    the command's own ``parse_known_intermixed_args`` (the top-level
    parser's refuses a parser with subcommands), and its reading is kept
    when it leaves nothing unread.  Every other argv reads as before, ``--``
    among them: intermixed parsing reads the tokens after it as options."""

    def __call__(self, parser, namespace, values, option_string=None):
        super().__call__(parser, namespace, values, option_string)
        unread = getattr(namespace, argparse._UNRECOGNIZED_ARGS_ATTR, ())
        if unread and "--" not in values and not any(token.startswith("-") for token in unread):
            command = self._name_parser_map[values[0]]
            parsed, unread = command.parse_known_intermixed_args(values[1:])
            if not unread:
                vars(namespace).update(vars(parsed))
                delattr(namespace, argparse._UNRECOGNIZED_ARGS_ATTR)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmlkit",
        description="Per-outcome information leakage for discrete channels and density models.",
    )
    parser.add_argument("--version", action="version", version=f"pmlkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, action=_Commands)
    for name, (help_text, func, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
        command.set_defaults(func=func)
    return parser


def _negative_number(raw: str) -> bool:
    """Whether argparse reads ``raw``, which starts with "-", as a value, not
    as an option: whether ``re.match(r"^-\\d+$|^-\\d*\\.\\d+$", raw)``, decided
    without compiling that pattern.  For a str pattern ``\\d`` is
    ``str.isdecimal``, and ``$`` also matches before one final newline."""
    body = raw[1:-1] if raw.endswith("\n") else raw[1:]
    whole, dot, fraction = body.partition(".")
    if not dot:
        return whole.isdecimal()
    return fraction.isdecimal() and (not whole or whole.isdecimal())


def _parse(argv) -> argparse.Namespace:
    """Parse ``argv`` from ``COMMANDS``, or with the full parser where the table cannot."""
    args = _read(argv)
    return build_parser().parse_args(argv) if args is None else args


def _read(argv) -> Optional[argparse.Namespace]:
    """``argv``'s namespace read from ``COMMANDS`` alone, or None.

    It reads an argv that starts with a command name and holds only that
    command's option strings, spelled out, each value-taking one followed
    by one value (which starts with "-" only as a negative number), and
    positionals within the command's count, wherever they stand among the
    options; every required option must be given, and every value must
    convert and be among its choices.  On such an argv argparse builds the
    same namespace (``_Commands`` reads positionals split by options).  On
    any other (help, ``--version``, ``--opt=value``, abbreviations, ``--``,
    unknown tokens, usage errors) it returns None, and argparse decides.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, arguments = COMMANDS[argv[0]]
    options, names, least = {}, [], 0
    for flag, keywords in arguments:
        if flag.startswith("-"):
            options[flag] = keywords
        else:
            names.append(flag)
            least += "nargs" not in keywords
    positionals, values = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        option = options.get(token)
        if option is None:
            if token.startswith("-"):
                return None
            positionals.append(token)
            continue
        if option.get("action") == "store_true":
            values[option["dest"]] = True
            continue
        raw = next(tokens, None)
        if raw is None or (raw.startswith("-") and not _negative_number(raw)):
            return None
        try:
            value = option["type"](raw) if "type" in option else raw
        except ValueError:
            return None
        if "choices" in option and value not in option["choices"]:
            return None
        if option.get("action") == "append":
            values.setdefault(option["dest"], []).append(value)
        else:
            values[option["dest"]] = value
    if not least <= len(positionals) <= len(names):
        return None
    if any(option.get("required") and option["dest"] not in values for option in options.values()):
        return None
    namespace = dict(zip_longest(names, positionals))  # an absent "?" positional is None
    namespace.update((option["dest"], option.get("default")) for option in options.values())
    namespace.update(values)
    return argparse.Namespace(command=argv[0], func=func, **namespace)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        code, report = args.func(args)
        if isinstance(report, dict):
            report = _json({"tool": "pmlkit", "version": __version__, "units": args.units,
                            "seed": args.seed, "command": args.command, **report})
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(report)
        else:
            sys.stdout.write(report)
        return code
    except (CapacityError, CapabilityError) as exc:
        print(f"pmlkit: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (PmlError, OSError, ValueError) as exc:
        print(f"pmlkit: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
