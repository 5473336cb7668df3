"""Command-line front end.

Commands: density, monad, search-gp, search-pap, productset, certify.
Exit codes: 0 success, 2 validation error, 3 search exhausted (or a failed
certification), 4 capacity exceeded (a request that runs out of memory
too).

Set specifications accept three forms:
  - shorthand:      full | even | squarefree | primes | example2:j=2,depth=4
                    explicit:3,5,11
  - inline JSON:    '{"kind": "explicit", "params": {"elements": [3, 5]}}'
  - a file path containing the JSON object (./primes: a shorthand wins).

Outputs are deterministic: identical configurations produce byte-identical
reports (all effective parameter values are embedded in the report header,
reals carry 12 significant digits, and no timestamps are emitted).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .errors import CapacityError, DensityLabError, ValidationError
from .intset import IntegerSetSpec, IntervalSet, Window, _exact_number, classify

__all__ = ["RunConfig", "run", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EXHAUSTED = 3
EXIT_CAPACITY = 4


def parse_int(text: str, name: str = "value") -> int:
    """Integer argument, read exactly; scientific notation allowed (1e25 -> 10**25)."""
    try:
        v = _exact_number(text)
    except ValueError:
        v = None
    if type(v) is not int:
        raise ValidationError(f"{name} must be an integer, got {text!r}")
    return v


def parse_set_spec(text: str) -> IntegerSetSpec:
    text = text.strip()
    if text.startswith("{"):
        return IntegerSetSpec.from_json(text)
    name, _, args = text.partition(":")
    name = name.strip()
    if name in ("full", "even", "squarefree", "primes"):
        if args:
            raise ValidationError(f"{name} takes no parameters")
        return IntegerSetSpec(name)
    if name == "example2":
        kv = {}
        for key, _, val in (part.partition("=") for part in args.split(",") if part):
            if (key := key.strip()) not in ("j", "depth"):
                raise ValidationError(f"example2 takes no key {key!r}")
            kv[key] = parse_int(val, key)
        try:
            return IntegerSetSpec.example2(kv["j"], kv["depth"])
        except KeyError:
            raise ValidationError("example2 needs j=<int>,depth=<int>")
    if name == "explicit":
        if not args:
            raise ValidationError("explicit needs a comma-separated element list")
        return IntegerSetSpec.explicit(parse_int(p, "element") for p in args.split(","))
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            return IntegerSetSpec.from_json(fh.read())
    raise ValidationError(f"unrecognized set spec {text!r}")


def _jsonable(v):
    if isinstance(v, (IntegerSetSpec, IntervalSet)):
        return v.to_json()
    return v if v is None or isinstance(v, (bool, int, float, str, list)) else str(v)


@dataclass
class RunConfig:
    """Validated invocation: one command plus its effective parameters."""

    command: str
    params: dict = field(default_factory=dict)
    out: str | None = None
    fmt: str = "csv"

    def header(self) -> dict:
        items = {"command": self.command, "format": self.fmt}
        items.update({k: _jsonable(v) for k, v in sorted(self.params.items())})
        return items


def _fmt_value(v: float):
    from .numerics import round12

    return round12(float(v))


# ---------------------------------------------------------------------------
# Command implementations.  Each imports the modules it runs, so a command
# loads numpy only if they do: search-gp, search-pap and certify do not.
# Each returns its exit code and its report: a table (columns, rows), written
# in --format, or a JSON payload, written as JSON whatever --format says.
# ---------------------------------------------------------------------------


def _run_density(config: RunConfig):
    from . import density
    from .numerics import geometric_grid

    p = config.params
    spec, horizon = p["set"], p["horizon"]
    checkpoints = p["checkpoints"] or density.default_checkpoints(horizon)
    grid = geometric_grid(2, p["nmax"])
    rows: list[tuple] = []

    counting = density.counting_profile(spec, "upper", horizon, checkpoints)
    logp = density.log_profile(spec, horizon, [n for n in checkpoints if n >= 2])
    for name, profile in (("count", counting), ("log", logp)):
        run_max = run_min = None
        for n, v in profile.checkpoints:
            run_max = v if run_max is None else max(run_max, v)
            run_min = v if run_min is None else min(run_min, v)
            rows.append((f"upper_{name}", "", n, "", _fmt_value(run_max)))
            rows.append((f"lower_{name}", "", n, "", _fmt_value(run_min)))
    for n in grid:
        if n < horizon:
            value, k_star = density.bd_estimate_at(spec, n, horizon)
            rows.append(("banach", "", n, k_star, _fmt_value(value)))
    for n, k_star, value in density.lbd_profile(spec, p["nmax"], horizon):
        rows.append(("banach_log", "", n, k_star, _fmt_value(value)))
    if p["m"] is not None:
        for n in grid:
            value, k_star = density.bdm_window_sup_at(spec, p["m"], n, horizon)
            rows.append(("bd_m", p["m"], n, k_star, _fmt_value(value)))
    rows.sort(key=lambda r: (r[0], r[2]))
    return EXIT_OK, (["functional", "m", "n", "k_star", "value"], rows)


def _run_monad(config: RunConfig):
    from . import monad

    p = config.params
    window = Window(p["k"], p["N"])
    intervals: IntervalSet = p["intervals"]
    nu_json = monad.nu(window, intervals).to_json()
    nu_json["params"] = {
        "rho": str(p["rho"]),
        "ratio_floor": p["ratio_floor"],
        "margin": p["margin"],
        "intervals": intervals.to_json(),
    }
    payload: dict = {"nu": nu_json}
    if intervals:
        flags = classify(intervals, window.hi, p["ratio_floor"])
        payload["classify"] = flags
        if flags["big"]:
            payload["big_estimate"] = _fmt_value(monad.big_estimate(window, intervals, p["ratio_floor"]))
    if p["scale"] is not None:
        payload["scale_check"] = monad.scale_check(window, intervals, p["scale"]).to_json()
    if p["invert"]:
        payload["inversion_check"] = monad.inversion_check(window, intervals, p["margin"]).to_json()
    if config.fmt == "csv":
        return EXIT_OK, (["metric", "value"], _flatten(payload))
    return EXIT_OK, payload


def _flatten(obj, prefix="") -> list[tuple]:
    """(dotted path, value) rows of a nested dict's leaves, keys sorted."""
    if not isinstance(obj, dict):
        return [(prefix, obj)]
    return [row for key in sorted(obj) for row in _flatten(obj[key], f"{prefix}.{key}" if prefix else key)]


def _run_search(config: RunConfig):
    from . import progressions

    p = config.params
    if config.command == "search-gp":
        witness = progressions.find_geo(p["set"], p["l"], p["n"], p["min_a"], p["min_r"], p["horizon"])
    else:
        witness = progressions.find_power_ap(
            p["set"], p["m"], p["l"], p["n"], p["min_a"], p["min_d"], p["horizon"]
        )
    if witness is None:
        return EXIT_EXHAUSTED, {"found": False}
    return EXIT_OK, {"found": True, "witness": witness.to_json()}


def _run_productset(config: RunConfig):
    from . import productset

    p = config.params
    reports = [productset.gap_witness(p["set_a"], p["set_b"], n, p["horizon"], p["grid_ratio"]) for n in p["n"]]
    rows = [(r.n, r.x, r.m, r.products_examined, *r.window) for r in reports if r is not None]
    return EXIT_EXHAUSTED if None in reports else EXIT_OK, (["n", "x", "m", "products", "lo", "hi"], rows)


def _run_certify(config: RunConfig):
    from . import progressions

    triple = progressions.find_gp3(config.params["set"], config.params["horizon"])
    if triple is None:
        return EXIT_OK, {"certified": True}
    return EXIT_EXHAUSTED, {"certified": False, "counterexample": list(triple)}


# ---------------------------------------------------------------------------
# Options.  A converter takes the option's text and its name (the flag
# without dashes, as error messages give it) and returns the value stored
# under the option's argparse dest, which is also its report-header key.
# ---------------------------------------------------------------------------


def _set(text: str, name: str) -> IntegerSetSpec:
    return parse_set_spec(text)


def _int_list(item: str):
    """Converter of a comma-separated list of integers, each named ``item``."""
    return lambda text, name: [parse_int(c, item) for c in text.split(",")]


def _real_above(floor: float):
    """Converter of a finite real that must exceed ``floor``."""

    def convert(text: str, name: str) -> float:
        try:
            v = float(text)
        except ValueError:
            raise ValidationError(f"{name} must be a number, got {text!r}")
        if not (math.isfinite(v) and v > floor):
            raise ValidationError(f"{name} must be a finite number above {floor}, got {text!r}")
        return v

    return convert


def _intervals(text: str, name: str) -> IntervalSet:
    try:
        pairs = json.loads(text, parse_float=_exact_number)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad --intervals JSON: {exc}")
    return IntervalSet.from_json(pairs)


def _rho(text: str, name: str):
    from fractions import Fraction

    from .monad import RatioCut

    try:
        ratio = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad ratio {text!r}") from exc
    return RatioCut(ratio).rho


# Each command maps to (runner, help, options), and an option is (flag,
# converter, default, help).  A default of _REQUIRED makes the option
# required; the converter bool makes a flag without a value, and a tuple of
# choices an option whose value is kept as given.
_REQUIRED = ...
_SET = ("--set", _set, _REQUIRED, None)
_HORIZON = ("--horizon", parse_int, _REQUIRED, None)
_COMMON = (("--out", None, None, "output path (default: stdout)"), ("--format", ("csv", "json"), "csv", None))

_COMMANDS = {
    "density": (_run_density, "density functional profiles", (
        _SET,
        _HORIZON,
        ("--checkpoints", _int_list("checkpoint"), None, "comma-separated checkpoint list"),
        ("--nmax", parse_int, "1000", "largest window ratio on the n-grid"),
        ("--m", parse_int, None, "also emit bd_m rows for this m"),
    )),
    "monad": (_run_monad, "window measure reports", (
        ("--k", parse_int, _REQUIRED, None),
        ("--N", parse_int, _REQUIRED, None),
        ("--intervals", _intervals, _REQUIRED, "JSON array of [a, b] pairs"),
        ("--rho", _rho, "10", None),
        ("--ratio-floor", _real_above(2), "2.5", None),
        ("--scale", parse_int, None, "also run the scaling-map check"),
        ("--invert", bool, False, "also run the inversion check"),
        ("--margin", parse_int, "1000", None),
    )),
    "search-gp": (_run_search, "approximate geometric progression search", (
        _SET,
        ("--l", parse_int, _REQUIRED, None),
        ("--n", parse_int, _REQUIRED, None),
        ("--min", parse_int, None, "sets both --min-a and --min-r"),
        ("--min-a", parse_int, "0", None),
        ("--min-r", parse_int, "0", None),
        _HORIZON,
    )),
    "search-pap": (_run_search, "m-th powers of arithmetic progressions search", (
        _SET,
        ("--m", parse_int, _REQUIRED, None),
        ("--l", parse_int, _REQUIRED, None),
        ("--n", parse_int, _REQUIRED, None),
        ("--min", parse_int, None, "sets both --min-a and --min-d"),
        ("--min-a", parse_int, "0", None),
        ("--min-d", parse_int, "0", None),
        _HORIZON,
    )),
    "productset": (_run_productset, "productset gap reports", (
        ("--set-a", _set, _REQUIRED, None),
        ("--set-b", _set, _REQUIRED, None),
        ("--n", _int_list("n"), _REQUIRED, "comma-separated list of window ratios"),
        _HORIZON,
        ("--grid-ratio", _real_above(1), "1.1", None),
    )),
    "certify": (_run_certify, "certify structural properties", (
        ("property", ("gp-free",), _REQUIRED, None),
        _SET,
        _HORIZON,
    )),
}


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    if config.command not in _COMMANDS:
        raise ValidationError(f"unknown command {config.command!r}")
    if config.fmt not in ("csv", "json"):
        raise ValidationError("format must be csv or json")
    code, report = _COMMANDS[config.command][0](config)
    header = config.header()
    if isinstance(report, tuple) and config.fmt == "csv":
        buf = io.StringIO()
        buf.write("# " + json.dumps(header, sort_keys=True) + "\n")
        csv.writer(buf, lineterminator="\n").writerows([report[0], *report[1]])
        text = buf.getvalue()
    else:
        if isinstance(report, tuple):
            columns, rows = report
            report = [dict(zip(columns, row)) for row in rows]
        text = json.dumps({"config": header, "report": report}, sort_keys=True, indent=2) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="densitylab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for flag, convert, default, text in options + _COMMON:
            kwargs: dict = {"help": text}
            if isinstance(convert, tuple):
                kwargs["choices"] = convert
            elif convert is bool:
                kwargs["action"] = "store_true"
            if default is not _REQUIRED:
                kwargs["default"] = default
            elif flag.startswith("-"):  # a positional is required as it is
                kwargs["required"] = True
            sp.add_argument(flag, **kwargs)
    return parser


def parse_args(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    params = {}
    for flag, convert, _, _ in _COMMANDS[ns.command][2]:
        name = flag.lstrip("-")
        key = name.replace("-", "_")
        value = getattr(ns, key)
        if isinstance(value, str) and callable(convert):  # not an absent option, a bool flag or a choice
            value = convert(value, name)
        params[key] = value
    base = params.pop("min", None)
    if base is not None:  # --min sets every --min-* option
        params.update({key: base for key in params if key.startswith("min_")})
    if ns.command == "density":
        if params["horizon"] < 2:
            raise ValidationError("horizon must be >= 2")
        if not 2 <= params["nmax"] <= params["horizon"]:
            raise ValidationError("need 2 <= nmax <= horizon")
    return RunConfig(ns.command, params, out=ns.out, fmt=ns.format)


def main(argv=None) -> int:
    try:
        config = parse_args(argv if argv is not None else sys.argv[1:])
        return run(config)
    except CapacityError as exc:
        print(f"densitylab: capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except DensityLabError as exc:
        print(f"densitylab: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:
        print("densitylab: capacity: out of memory", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
