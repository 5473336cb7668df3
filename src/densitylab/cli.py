"""Command-line front end.

Commands: density, monad, search-gp, search-pap, productset, certify.
Exit codes: 0 success, 2 validation error, 3 search exhausted (or a failed
certification), 4 capacity exceeded (a request that runs out of memory
too).

Set specifications accept three forms:
  - shorthand:      full | even | squarefree | primes | example2:j=2,depth=4
                    explicit:3,5,11
  - inline JSON:    '{"kind": "explicit", "params": {"elements": [3, 5]}}'
  - a file path containing the JSON object.

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
from .intset import IntegerSetSpec, IntervalSet, Window, classify

__all__ = ["RunConfig", "run", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EXHAUSTED = 3
EXIT_CAPACITY = 4


def parse_int(text: str, name: str = "value") -> int:
    """Integer argument, scientific notation allowed (1e7 -> 10000000)."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        v = float(text)
    except ValueError:
        raise ValidationError(f"{name} must be an integer, got {text!r}")
    if not math.isfinite(v) or v != int(v):
        raise ValidationError(f"{name} must be an integer, got {text!r}")
    return int(v)


def parse_real_above(text: str, name: str, floor: float) -> float:
    """Finite real argument that must exceed ``floor``."""
    try:
        v = float(text)
    except ValueError:
        raise ValidationError(f"{name} must be a number, got {text!r}")
    if not (math.isfinite(v) and v > floor):
        raise ValidationError(f"{name} must be a finite number above {floor}, got {text!r}")
    return v


def parse_set_spec(text: str) -> IntegerSetSpec:
    text = text.strip()
    if text.startswith("{"):
        return IntegerSetSpec.from_json(text)
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            return IntegerSetSpec.from_json(json.load(fh))
    name, _, args = text.partition(":")
    name = name.strip()
    if name in ("full", "even", "squarefree", "primes"):
        if args:
            raise ValidationError(f"{name} takes no parameters")
        return IntegerSetSpec(name)
    if name == "example2":
        kv = {}
        for part in args.split(","):
            if not part:
                continue
            key, _, val = part.partition("=")
            kv[key.strip()] = parse_int(val, key)
        try:
            return IntegerSetSpec.example2(kv["j"], kv["depth"])
        except KeyError:
            raise ValidationError("example2 needs j=<int>,depth=<int>")
    if name == "explicit":
        if not args:
            raise ValidationError("explicit needs a comma-separated element list")
        return IntegerSetSpec.explicit(parse_int(p, "element") for p in args.split(","))
    raise ValidationError(f"unrecognized set spec {text!r}")


def _jsonable(v):
    if isinstance(v, (IntegerSetSpec, IntervalSet)):
        return v.to_json()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    return str(v)


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


def _emit(config: RunConfig, text: str):
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: dict, columns: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    buf.write("# " + json.dumps(header, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _json_text(header: dict, payload) -> str:
    return json.dumps({"config": header, "report": payload}, sort_keys=True, indent=2) + "\n"


def _fmt_value(v: float):
    from .monad import round12

    return round12(float(v))


# ---------------------------------------------------------------------------
# Command implementations.  Each imports the modules it runs, so a command
# loads numpy only if they do: search-gp, search-pap and certify do not.
# ---------------------------------------------------------------------------


def _run_density(config: RunConfig) -> int:
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
    for n, k_star, value in density.lbd_profile(spec, p["nmax"], horizon, grid):
        rows.append(("banach_log", "", n, k_star, _fmt_value(value)))
    if p["m"] is not None:
        for n in grid:
            value, k_star = density.bdm_window_sup_at(spec, p["m"], n, horizon)
            rows.append(("bd_m", p["m"], n, k_star, _fmt_value(value)))
    rows.sort(key=lambda r: (r[0], r[2]))
    columns = ["functional", "m", "n", "k_star", "value"]
    header = config.header()
    if config.fmt == "csv":
        _emit(config, _csv_text(header, columns, rows))
    else:
        payload = [dict(zip(columns, row)) for row in rows]
        _emit(config, _json_text(header, payload))
    return EXIT_OK


def _run_monad(config: RunConfig) -> int:
    from . import monad

    p = config.params
    window = Window(p["k"], p["N"])
    intervals: IntervalSet = p["intervals"]
    report = monad.nu(window, intervals)
    nu_json = report.to_json()
    nu_json["params"] = {
        "rho": str(p["rho"]),
        "ratio_floor": p["ratio_floor"],
        "margin": p["margin"],
        "intervals": intervals.to_json(),
    }
    payload: dict = {"nu": nu_json}
    flags = None
    if intervals:
        flags = classify(intervals, window.hi, p["ratio_floor"])
        payload["classify"] = flags
        if flags["big"]:
            payload["big_estimate"] = _fmt_value(monad.big_estimate(window, intervals, p["ratio_floor"]))
    if p["scale"] is not None:
        payload["scale_check"] = monad.scale_check(window, intervals, p["scale"]).to_json()
    if p["invert"]:
        payload["inversion_check"] = monad.inversion_check(window, intervals, p["margin"]).to_json()
    header = config.header()
    if config.fmt == "csv":
        rows = _flatten(payload)
        _emit(config, _csv_text(header, ["metric", "value"], rows))
    else:
        _emit(config, _json_text(header, payload))
    return EXIT_OK


def _flatten(obj, prefix="") -> list[tuple]:
    rows = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            rows.extend(_flatten(obj[key], f"{prefix}{key}." if prefix else f"{key}."))
    else:
        rows.append((prefix.rstrip("."), obj))
    return rows


def _run_search(config: RunConfig) -> int:
    from . import progressions

    p = config.params
    if config.command == "search-gp":
        witness = progressions.find_geo(p["set"], p["l"], p["n"], p["min_a"], p["min_r"], p["horizon"])
    else:
        witness = progressions.find_power_ap(
            p["set"], p["m"], p["l"], p["n"], p["min_a"], p["min_d"], p["horizon"]
        )
    header = config.header()
    if witness is None:
        _emit(config, _json_text(header, {"found": False}))
        return EXIT_EXHAUSTED
    _emit(config, _json_text(header, {"found": True, "witness": witness.to_json()}))
    return EXIT_OK


def _run_productset(config: RunConfig) -> int:
    from . import productset

    p = config.params
    rows = []
    missing = False
    for n in p["n"]:
        report = productset.gap_witness(p["set_a"], p["set_b"], n, p["horizon"], p["grid_ratio"])
        if report is None:
            missing = True
            continue
        rows.append((report.n, report.x, report.m, report.products_examined, report.window[0], report.window[1]))
    header = config.header()
    columns = ["n", "x", "m", "products", "lo", "hi"]
    if config.fmt == "csv":
        _emit(config, _csv_text(header, columns, rows))
    else:
        _emit(config, _json_text(header, [dict(zip(columns, row)) for row in rows]))
    return EXIT_EXHAUSTED if missing else EXIT_OK


def _run_certify(config: RunConfig) -> int:
    from . import progressions

    p = config.params
    triple = progressions.find_gp3(p["set"], p["horizon"])
    payload: dict = {"certified": triple is None}
    if triple is not None:
        payload["counterexample"] = list(triple)
    _emit(config, _json_text(config.header(), payload))
    return EXIT_OK if triple is None else EXIT_EXHAUSTED


_RUNNERS = {
    "density": _run_density,
    "monad": _run_monad,
    "search-gp": _run_search,
    "search-pap": _run_search,
    "productset": _run_productset,
    "certify": _run_certify,
}


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    if config.command not in _RUNNERS:
        raise ValidationError(f"unknown command {config.command!r}")
    if config.fmt not in ("csv", "json"):
        raise ValidationError("format must be csv or json")
    return _RUNNERS[config.command](config)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="densitylab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--format", default="csv", choices=("csv", "json"))

    sp = sub.add_parser("density", help="density functional profiles")
    sp.add_argument("--set", required=True)
    sp.add_argument("--horizon", required=True)
    sp.add_argument("--checkpoints", default=None, help="comma-separated checkpoint list")
    sp.add_argument("--nmax", default="1000", help="largest window ratio on the n-grid")
    sp.add_argument("--m", default=None, help="also emit bd_m rows for this m")
    add_common(sp)

    sp = sub.add_parser("monad", help="window measure reports")
    sp.add_argument("--k", required=True)
    sp.add_argument("--N", required=True)
    sp.add_argument("--intervals", required=True, help="JSON array of [a, b] pairs")
    sp.add_argument("--rho", default="10")
    sp.add_argument("--ratio-floor", default="2.5")
    sp.add_argument("--scale", default=None, help="also run the scaling-map check")
    sp.add_argument("--invert", action="store_true", help="also run the inversion check")
    sp.add_argument("--margin", default="1000")
    add_common(sp)

    sp = sub.add_parser("search-gp", help="approximate geometric progression search")
    sp.add_argument("--set", required=True)
    sp.add_argument("--l", required=True)
    sp.add_argument("--n", required=True)
    sp.add_argument("--min", default=None, help="sets both --min-a and --min-r")
    sp.add_argument("--min-a", default="0")
    sp.add_argument("--min-r", default="0")
    sp.add_argument("--horizon", required=True)
    add_common(sp)

    sp = sub.add_parser("search-pap", help="m-th powers of arithmetic progressions search")
    sp.add_argument("--set", required=True)
    sp.add_argument("--m", required=True)
    sp.add_argument("--l", required=True)
    sp.add_argument("--n", required=True)
    sp.add_argument("--min", default=None, help="sets both --min-a and --min-d")
    sp.add_argument("--min-a", default="0")
    sp.add_argument("--min-d", default="0")
    sp.add_argument("--horizon", required=True)
    add_common(sp)

    sp = sub.add_parser("productset", help="productset gap reports")
    sp.add_argument("--set-a", required=True)
    sp.add_argument("--set-b", required=True)
    sp.add_argument("--n", required=True, help="comma-separated list of window ratios")
    sp.add_argument("--horizon", required=True)
    sp.add_argument("--grid-ratio", default="1.1")
    add_common(sp)

    sp = sub.add_parser("certify", help="certify structural properties")
    sp.add_argument("property", choices=("gp-free",))
    sp.add_argument("--set", required=True)
    sp.add_argument("--horizon", required=True)
    add_common(sp)
    return parser


def parse_args(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    cmd = ns.command
    if cmd == "density":
        params = {
            "set": parse_set_spec(ns.set),
            "horizon": parse_int(ns.horizon, "horizon"),
            "checkpoints": [parse_int(c, "checkpoint") for c in ns.checkpoints.split(",")] if ns.checkpoints else None,
            "nmax": parse_int(ns.nmax, "nmax"),
            "m": parse_int(ns.m, "m") if ns.m is not None else None,
        }
        if params["horizon"] < 2:
            raise ValidationError("horizon must be >= 2")
        if not 2 <= params["nmax"] <= params["horizon"]:
            raise ValidationError("need 2 <= nmax <= horizon")
    elif cmd == "monad":
        from .monad import RatioCut

        try:
            pairs = json.loads(ns.intervals)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad --intervals JSON: {exc}")
        params = {
            "k": parse_int(ns.k, "k"),
            "N": parse_int(ns.N, "N"),
            "intervals": IntervalSet.from_json(pairs),
            "rho": RatioCut(_parse_ratio(ns.rho)).rho,
            "ratio_floor": parse_real_above(ns.ratio_floor, "ratio-floor", 2),
            "scale": parse_int(ns.scale, "scale") if ns.scale is not None else None,
            "invert": bool(ns.invert),
            "margin": parse_int(ns.margin, "margin"),
        }
    elif cmd == "search-gp":
        base = parse_int(ns.min, "min") if ns.min is not None else None
        params = {
            "set": parse_set_spec(ns.set),
            "l": parse_int(ns.l, "l"),
            "n": parse_int(ns.n, "n"),
            "min_a": base if base is not None else parse_int(ns.min_a, "min-a"),
            "min_r": base if base is not None else parse_int(ns.min_r, "min-r"),
            "horizon": parse_int(ns.horizon, "horizon"),
        }
    elif cmd == "search-pap":
        base = parse_int(ns.min, "min") if ns.min is not None else None
        params = {
            "set": parse_set_spec(ns.set),
            "m": parse_int(ns.m, "m"),
            "l": parse_int(ns.l, "l"),
            "n": parse_int(ns.n, "n"),
            "min_a": base if base is not None else parse_int(ns.min_a, "min-a"),
            "min_d": base if base is not None else parse_int(ns.min_d, "min-d"),
            "horizon": parse_int(ns.horizon, "horizon"),
        }
    elif cmd == "productset":
        params = {
            "set_a": parse_set_spec(ns.set_a),
            "set_b": parse_set_spec(ns.set_b),
            "n": [parse_int(c, "n") for c in ns.n.split(",")],
            "horizon": parse_int(ns.horizon, "horizon"),
            "grid_ratio": parse_real_above(ns.grid_ratio, "grid-ratio", 1),
        }
    else:  # certify
        params = {
            "set": parse_set_spec(ns.set),
            "horizon": parse_int(ns.horizon, "horizon"),
            "property": ns.property,
        }
    return RunConfig(cmd, params, out=ns.out, fmt=ns.format)


def _parse_ratio(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad ratio {text!r}") from exc


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
