"""Batch front door: config in, machine-readable report out.

Usage:

    dirspace <command> --config FILE [--out DIR] [--format json|csv]
                       [--seed-override U64]

Commands: classify, sections, rkt, moments, carleson, random-sim, doublesum,
demo.  Exit codes: 0 success, 1 a demo check failed, 2 usage/config error
or an output that cannot be written.

Config schema (JSON object; fields by command, every number finite, all
numeric grids strictly increasing):

    symbol      object; one of
                  {"kind": "explicit", "values": [x | {"re","im"} ...]}
                  {"kind": "powerlog", "alpha": f, "beta": f, "scale": f=1}
                  {"kind": "moments", "measure": {...}}
                  {"kind": "lacunary", "support": [int...], "values": [f...]}
                  {"kind": "lacunary", "rule": {"decay": f, "power": f=0,
                   "scale": f=1}, "start": int=1, "q": f=2}
                  {"kind": "randomized", "base": {...}, "dist": name,
                   "normalized": bool=true, "seed": int, "stream": int=0}
    measure     {"atoms": [{"loc": f, "mass": f}...],
                 "densities": [{"c": f, "gamma": f=0, "delta": f=0,
                 "kappa": f=0}...]} or {"named": "lebesgue"}
    kind        "hankel" | "cesaro" (default "hankel")
    route       classify only: "widom" (default) | "carleson"
    n           degree/dimension (rkt kernel degree and moments table
                length, >= 0; random-sim section dim, >= 1)
    n_grid      section dimensions (>= 1) / test degrees (>= 0)
    m_grid      tail cutoffs (indices, 0 <= m < section dimension)
    t_grid      kernel points in [0, 1)
    delta_grid  annulus widths in (0, 1)
    dist        "rademacher" | "uniform-symmetric" | "gaussian"
    normalized  fourth-moment normalization flag (default true)
    replicas    random-sim replica count
    count/max_len  doublesum battery size
    seed/stream    integers; required for stochastic commands (seed is
                   allowed for every command, and an integer there too)
    classify    optional {"m_grid": [int...], "nmax": int}, nothing else;
                a Widom-route verdict is the symbol's closed-form class or
                inconclusive
    power       optional {"tol": f, "max_iter": int} for section norms,
                nothing else: tol is the Golub-Kahan residual tolerance
                relative to sigma, max_iter the Krylov step cap
    preset      demo only; one of the twelve check names in checks.py
                (e.g. "hilbert", "widom-ladder") or "all"

Each command's entry in _HANDLERS lists the top-level fields it reads, each
with its parser and default, and for classify one entry per route: a config
holds only the fields its command and route read, plus command and seed
(--seed-override may set seed for any command).  The Widom route of
classify reads symbol or measure, kind, route and classify; the Carleson
route reads symbol, kind (hankel only), route and n_grid (default [64, 128,
256, 512]) and gives the verdict and xnorm_vs_degree curve of the carleson
command, without its delta sweep.  Symbol, rule, {"re", "im"}, measure,
atom and density objects, like classify and power, take only the fields
listed.  An error names the nested path of its field (e.g. config.n_gird,
symbol.base.beta, symbol.measure.densities[0].gama), or of its object when
a constructor rejects the value's range.  Every field is parsed before the
command runs; a config with two faults may report either one.

Every reported norm carries its section dimension; every tail carries its
bracket; every stochastic value carries its seed.  Reports are byte-identical
across runs up to the wall-time provenance field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, carleson, checks, criteria, measures, operators, stochastic, symbols

_FLOAT_MAX = sys.float_info.max


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at {path}: {message}")


# ---------------------------------------------------------------------------
# config parsing: each config object is read by a spec {field: (parser,
# default)}; parser(value, path) returns the field's parsed value
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a required field


def _object(obj, path: str, spec: dict) -> dict:
    """{field: parsed value} for each field of spec, in spec order, with the
    field's default where obj lacks it; obj must be an object with no field
    outside spec.  path is "" for the top-level config."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    for name in obj:
        if name not in spec:
            raise ConfigError(f"{path or 'config'}.{name}", f"unknown field; expected one of {list(spec)}")
    prefix, out = f"{path}." if path else "", {}
    for name, (parse, default) in spec.items():
        if name in obj:
            out[name] = parse(obj[name], prefix + name)
        elif default is _REQUIRED:
            raise ConfigError(prefix + name, "required field missing")
        else:
            out[name] = default
    return out


def _keep(value, path: str):
    return value


def _as_int(value, path: str, low: int | None = None) -> int:
    # is_integer is False for NaN and the infinities too
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(path, f"need {low} or more, got {value!r}")
    return int(value)


def _int_from(low: int):
    return lambda value, path: _as_int(value, path, low)


def _as_number(value, path: str) -> float:
    # json.load reads NaN and +-Infinity; the bound fails for them and for
    # integers past the largest float
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _FLOAT_MAX:
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, "expected a boolean")
    return value


_NUMBER = (_as_number, _REQUIRED)
_COMPLEX = {"re": _NUMBER, "im": (_as_number, 0.0)}


def _as_value(value, path: str) -> complex | float:
    """A symbol value: a number or {"re": f, "im": f=0}."""
    if not isinstance(value, dict):
        return _as_number(value, path)
    re, im = value.get("re"), value.get("im")
    # the bulk of long value lists: no path to build
    if len(value) == 2 and type(re) is float and type(im) is float and abs(re) <= _FLOAT_MAX and abs(im) <= _FLOAT_MAX:
        return complex(re, im)
    return complex(*_object(value, path, _COMPLEX).values())


def _as_list(value, path: str, item) -> list:
    """An array whose entry i is parsed by item(entry, f"{path}[{i}]")."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, "expected an array")
    return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _list_of(item):
    return lambda value, path: _as_list(value, path, item)


def _as_grid(value, path: str, integer: bool = True, low: int | None = None) -> list:
    out = _as_list(value, path, _as_int if integer else _as_number)
    if not out:
        raise ConfigError(path, "expected a nonempty array")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError(path, "grid must be strictly increasing")
    if low is not None and out[0] < low:
        raise ConfigError(path, f"values must be {low} or more, got {out[0]!r}")
    return out


def _grid_from(low: int):
    return lambda value, path: _as_grid(value, path, low=low)


def _kernel_points(value, path: str) -> list:
    t_grid = _as_grid(value, path, integer=False)
    if t_grid[0] < 0.0 or t_grid[-1] >= 1.0:
        raise ConfigError(path, "kernel points must lie in [0, 1)")
    return t_grid


def _annulus_widths(value, path: str) -> list:
    delta_grid = _as_grid(value, path, integer=False)
    if delta_grid[0] <= 0.0 or delta_grid[-1] >= 1.0:
        raise ConfigError(path, "annulus widths must lie in (0, 1)")
    return delta_grid


def _check_cutoffs(m_grid: list, n: int) -> None:
    """Tail cutoffs m_grid for sections of dimension n: 0 <= m < n."""
    if m_grid[-1] >= n:
        raise ConfigError("m_grid", f"cutoffs must stay below the section dimension {n}")


def _as_tolerance(value, path: str) -> float:
    tol = _as_number(value, path)
    if tol <= 0.0:
        raise ConfigError(path, "tolerance must be positive")
    return tol


def _as_kind(value, path: str) -> str:
    if value not in ("hankel", "cesaro"):
        raise ConfigError(path, f"expected 'hankel' or 'cesaro', got {value!r}")
    return value


def _as_preset(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a check name or 'all', got {value!r}")
    return value


def _options(spec: dict, make):
    """A parser of an object whose fields all default to None, which stands
    for make's own default: make(**the fields given)."""
    return lambda value, path: make(**{k: v for k, v in _object(value, path, spec).items() if v is not None})


def _build(path: str, make, *args):
    """make(*args), with a range check failing inside it reported at path."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


# the stochastic fields, shared by the randomized symbol and random-sim
_DIST = {"dist": (_keep, "rademacher"), "normalized": (_as_bool, True)}
_SEED = {"seed": (_as_int, _REQUIRED), "stream": (_as_int, 0)}


_RULE = {"decay": _NUMBER, "power": (_as_number, 0.0), "scale": (_as_number, 1.0)}


def _rule(value, path: str):
    return _object(value, path, _RULE).values()


def _parse_symbol(obj, path: str = "symbol") -> symbols.SymbolSeq:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    kind = obj.get("kind")

    def fields(**spec) -> list:  # obj's fields besides kind, in spec order
        return list(_object(obj, path, {"kind": (_keep, None), **spec}).values())[1:]

    if kind == "explicit":
        return symbols.SymbolSeq.explicit(*fields(values=(_list_of(_as_value), _REQUIRED)))
    if kind == "powerlog":
        return _build(path, symbols.SymbolSeq.powerlog, *fields(alpha=_NUMBER, beta=_NUMBER, scale=(_as_number, 1.0)))
    if kind == "moments":
        return symbols.SymbolSeq.from_measure(*fields(measure=(_parse_measure, _REQUIRED)))
    if kind == "lacunary" and "rule" in obj:
        rule, start, q = fields(rule=(_rule, _REQUIRED), start=(_as_int, 1), q=(_as_number, 2.0))
        return _build(path, symbols.SymbolSeq.lacunary_rule, start, q, *rule)
    if kind == "lacunary":
        support, values = fields(support=(_list_of(_as_int), _REQUIRED), values=(_list_of(_as_number), _REQUIRED))
        return _build(path, symbols.SymbolSeq.lacunary, support, values)
    if kind == "randomized":
        base, dist, normalized, seed, stream = fields(base=(_parse_symbol, _REQUIRED), **_DIST, **_SEED)
        dist = _build(f"{path}.dist", stochastic.DistTag, dist, normalized)
        return symbols.SymbolSeq.randomized(base, dist, seed, stream)
    raise ConfigError(path, f"unknown symbol kind {kind!r}; expected explicit, powerlog, moments, lacunary or randomized")


_ATOM = {"loc": _NUMBER, "mass": _NUMBER}
_DENSITY = {"c": _NUMBER, "gamma": (_as_number, 0.0), "delta": (_as_number, 0.0), "kappa": (_as_number, 0.0)}
_MEASURE = {
    "atoms": (_list_of(lambda v, p: list(_object(v, p, _ATOM).values())), ()),
    "densities": (_list_of(lambda v, p: _build(p, measures.Density, *_object(v, p, _DENSITY).values())), ()),
}


def _parse_measure(obj, path: str = "measure") -> measures.MeasureSpec:
    if isinstance(obj, dict) and "named" in obj:
        named = _object(obj, path, {"named": (_keep, None)})["named"]
        if named != "lebesgue":
            raise ConfigError(f"{path}.named", f"unknown named measure {named!r}; expected 'lebesgue'")
        return measures.MeasureSpec.lebesgue()
    return _build(path, measures.MeasureSpec, *_object(obj, path, _MEASURE).values())


def _curve(label: str, rows, meta=None) -> dict:
    return {
        "label": label,
        "meta": meta or {},
        "rows": [[float(x) for x in row] for row in rows],
    }


def _point_curve(label: str, xs, values, meta=None) -> dict:
    """A curve of point estimates: the row of x is [x, v, v, v]."""
    return _curve(label, ([x, v, v, v] for x, v in zip(xs, values)), meta)


def _verdict(report: criteria.ClassReport) -> dict:
    return {"verdict": report.verdict, "applicability": report.applicability, "notes": report.notes}


def _profile_rows(profile):
    return [
        [p.m, p.lower, p.midpoint if np.isfinite(p.upper) else p.lower, p.upper]
        for p in profile
    ]


def _profile_meta(sym, classify) -> dict:
    """The profile's nmax and the last index its sums read
    (SymbolSeq.summed_through: a finite support can lift it past nmax, a
    second-order remainder hold it below)."""
    return {"nmax": classify.nmax, "summed_through": sym.summed_through(classify.nmax)}


# ---------------------------------------------------------------------------
# command handlers: each takes its command's parsed fields (and ignores the
# command, route and seed fields it does not use)
# ---------------------------------------------------------------------------


def _run_classify(symbol, measure, kind, classify, **_) -> tuple[dict, list]:
    if (symbol is None) == (measure is None):
        raise ConfigError("symbol", "provide exactly one of 'symbol' or 'measure'")
    sym = symbol if symbol is not None else symbols.SymbolSeq.from_measure(measure)
    report = criteria.classify(sym, kind, classify)
    curves = [_curve("widom_profile", _profile_rows(report.profile), _profile_meta(sym, classify))]
    return _verdict(report), curves


def _run_classify_carleson(symbol, kind, n_grid, **_) -> tuple[dict, list]:
    if kind != "hankel":
        raise ConfigError("kind", "the carleson route classifies Hankel operators only")
    report, _b_top, curves = _carleson_verdict(symbol, n_grid)
    return _verdict(report), curves


def _run_sections(symbol, kind, power, n_grid, m_grid, **_) -> tuple[dict, list]:
    n_top = max(n_grid)
    if m_grid is not None:
        _check_cutoffs(m_grid, n_top)
    norms = [operators.tail_section_norm(symbol, kind, 0, n, **power) for n in n_grid]
    curves = [_point_curve("section_norm_vs_n", n_grid, norms, {"weight": "dirichlet-section"})]
    if m_grid is not None:
        tails = [operators.tail_section_norm(symbol, kind, m, n_top, **power) for m in m_grid]
        curves.append(_point_curve("tail_norm_vs_m", m_grid, tails, {"n": n_top}))
    results = {
        "top_section_norm": norms[-1],
        "n": n_top,
        "exact_weight_interval": list(operators.exact_norm_interval(norms[-1])),
    }
    return results, curves


def _run_rkt(symbol, kind, t_grid, n, **_) -> tuple[dict, list]:
    probe = criteria.rkt_probe(symbol, kind, t_grid, n)
    curves = [
        _point_curve("rkt_estimate_vs_t", t_grid, [r.estimate for r in probe.rows], {"n": n}),
        _point_curve("kernel_tail_bound_vs_t", t_grid, [r.kernel_tail for r in probe.rows], {"n": n}),
    ]
    if kind == "cesaro":
        curves.append(_point_curve("rkt_closed_form_vs_t", t_grid, [r.closed_form for r in probe.rows]))
    return {"statistic": probe.statistic, "notes": probe.notes}, curves


def _run_moments(measure, n, classify, **_) -> tuple[dict, list]:
    sym = symbols.SymbolSeq.from_measure(measure)
    profile = criteria.widom_profile(sym, classify.m_grid, classify.nmax)
    curves = [
        _point_curve("moments_vs_n", range(n + 1), sym.values(np.arange(n + 1)).real),
        _curve("widom_profile", _profile_rows(profile), _profile_meta(sym, classify)),
    ]
    return {"total_mass": measure.total_mass, "support_sup": measure.support_sup}, curves


def _carleson_verdict(sym: symbols.SymbolSeq, n_grid: list):
    """The Carleson-route report of sym over the test degrees n_grid, the
    symbol's polynomial b of the top degree and the xnorm_vs_degree curve;
    the verdict's profile is the x-norm sweep, so each x-norm is solved once."""
    b_top = carleson.symbol_poly(sym, max(n_grid))
    report = carleson.classify_hankel_general(b_top, n_grid)
    return report, b_top, [_curve("xnorm_vs_degree", _profile_rows(report.profile))]


def _run_carleson(symbol, n_grid, delta_grid, **_) -> tuple[dict, list]:
    report, b_top, curves = _carleson_verdict(symbol, n_grid)
    restricted = [
        report.restricted_norm  # the verdict's boundary test, same solve
        if delta == carleson.VANISH_DELTA and report.restricted_norm is not None
        else carleson.restricted_carleson_norm(b_top, b_top.degree, delta)
        for delta in delta_grid
    ]
    curves.append(_point_curve("restricted_vs_delta", delta_grid, restricted, {"n": b_top.degree}))
    return _verdict(report), curves


def _run_random_sim(symbol, dist, normalized, seed, stream, replicas, n, m_grid, power, **_) -> tuple[dict, list]:
    if m_grid is None:
        m_grid = sorted({n // 8, n // 4, n // 2})
    _check_cutoffs(m_grid, n)
    dist, rng = _build("dist", stochastic.DistTag, dist, normalized), stochastic.RngSpec(seed, stream)
    report = stochastic.random_tail_experiment(symbol, dist, replicas, m_grid, n, rng, **power)
    rand_rows = [[row.m, row.q25, row.median, row.q75] for row in report.rows]
    curves = [
        _curve("randomized_tail_quartiles", rand_rows, {"n": n, "replicas": replicas, "seed": seed}),
        _point_curve("deterministic_tail", m_grid, [row.deterministic for row in report.rows], {"n": n}),
    ]
    results = {
        "membership": {
            "lower": report.membership.lower,
            "upper": report.membership.upper,
            "divergent": report.membership.divergent,
        },
        "median_over_deterministic": [
            (row.median / row.deterministic) if row.deterministic > 0 else None for row in report.rows
        ],
        "seed": seed,
        "stream": stream,
    }
    return results, curves


def _run_doublesum(seed, stream, count, max_len, **_) -> tuple[dict, list]:
    ratios = checks.double_sum_battery(seed, seed ^ 0xA5A5, stream, count, max_len)
    max_ratio = max(ratios)
    argmax = ratios.index(max_ratio)
    curves = [_point_curve("double_sum_ratio_per_vector", range(len(ratios)), ratios, {"seed": seed})]
    return {"max_ratio": max_ratio, "argmax_vector": argmax, "seed": seed}, curves


def _run_demo(preset, **_) -> tuple[dict, list]:
    registry = {check.name: check for check in checks.CHECKS}
    if preset == "all":
        selected = list(registry.values())
    elif preset in registry:
        selected = [registry[preset]]
    else:
        raise ConfigError("preset", f"unknown preset {preset!r}; choose from {sorted(registry)} or 'all'")
    results = []
    for check in selected:
        ok, detail = check.run("quick")
        results.append({"preset": check.name, "pass": ok, "detail": detail})
    return {"checks": results, "all_pass": all(c["pass"] for c in results)}, []


_SYMBOL = (_parse_symbol, _REQUIRED)
_KIND = (_as_kind, "hankel")
_ROUTE = (_keep, None)  # run() checks it before the spec is read
_CLASSIFY = (_options({"m_grid": (lambda v, p: tuple(_as_grid(v, p, low=0)), None), "nmax": (_int_from(0), None)},
                      criteria.ClassifyConfig), criteria.ClassifyConfig())
_POWER = (_options({"tol": (_as_tolerance, None), "max_iter": (_int_from(1), None)}, dict), {})

# the handler of each command and route and the spec of the top-level fields
# it reads, besides command and seed; a command with several routes reads
# "route", whose default is listed first
_HANDLERS = {
    ("classify", "widom"): (_run_classify, {"symbol": (_parse_symbol, None), "measure": (_parse_measure, None),
                                            "kind": _KIND, "route": _ROUTE, "classify": _CLASSIFY}),
    ("classify", "carleson"): (_run_classify_carleson, {"symbol": _SYMBOL, "kind": _KIND, "route": _ROUTE,
                                                        "n_grid": (_grid_from(0), [64, 128, 256, 512])}),
    # "m_grid": null reads as no m_grid
    ("sections", None): (_run_sections, {"symbol": _SYMBOL, "kind": _KIND, "power": _POWER,
                                         "n_grid": (_grid_from(1), [64, 128, 256, 512, 1024]),
                                         "m_grid": (lambda v, p: v if v is None else _as_grid(v, p, low=0), None)}),
    ("rkt", None): (_run_rkt, {"symbol": _SYMBOL, "kind": _KIND, "t_grid": (_kernel_points, _REQUIRED),
                               "n": (_int_from(0), 256)}),
    ("moments", None): (_run_moments, {"measure": (_parse_measure, _REQUIRED), "n": (_int_from(0), 64),
                                       "classify": _CLASSIFY}),
    ("carleson", None): (_run_carleson, {"symbol": _SYMBOL, "n_grid": (_grid_from(0), [64, 128, 256]),
                                         "delta_grid": (_annulus_widths, sorted(carleson.DELTA_SCHEDULE))}),
    # a default m_grid of None is {n/8, n/4, n/2}
    ("random-sim", None): (_run_random_sim, {"symbol": _SYMBOL, **_DIST, **_SEED, "replicas": (_int_from(1), 16),
                                             "n": (_int_from(1), 512), "m_grid": (_grid_from(0), None),
                                             "power": _POWER}),
    ("doublesum", None): (_run_doublesum, {**_SEED, "count": (_int_from(1), 1000), "max_len": (_int_from(2), 512)}),
    ("demo", None): (_run_demo, {"preset": (_as_preset, "all")}),
}
COMMANDS = tuple(dict.fromkeys(command for command, _ in _HANDLERS))


def run(config: dict) -> dict:
    """Dispatch a validated config to its command handler; returns the report."""
    if not isinstance(config, dict):
        raise ConfigError("", "top-level config must be a JSON object")
    if "command" not in config:
        raise ConfigError("command", "required field missing")
    command = config["command"]
    if command not in COMMANDS:
        raise ConfigError("command", f"unknown command {command!r}; choose from {COMMANDS}")
    routes = [route for name, route in _HANDLERS if name == command]
    route = config.get("route", routes[0]) if len(routes) > 1 else None
    if route not in routes:
        raise ConfigError("route", f"expected one of {routes}, got {route!r}")
    handler, spec = _HANDLERS[command, route]
    start = time.perf_counter()
    # seed is allowed everywhere, since --seed-override sets it for any
    # command, and it is an integer everywhere; a stochastic command's spec
    # requires it
    results, curves = handler(**_object(config, "", {"command": (_keep, None), "seed": (_as_int, None), **spec}))
    report = {
        "tool": {"name": "dirspace", "version": __version__},
        "command": command,
        "config": config,
        "results": results,
        "curves": curves,
        "provenance": {
            "seed": config.get("seed"),
            "wall_time_s": round(time.perf_counter() - start, 6),
        },
    }
    return report


def serialize(report: dict, fmt: str) -> dict[str, bytes]:
    """Encode a report as {filename: bytes}.

    json: a single document. csv: one file per curve with header
    (x, lower, mid, upper), plus report.json for the scalar payload.

    report.json is one line with sorted keys and a trailing newline, written
    by json's C encoder (indent would force its pure-Python one).  It keeps
    the default ", " and ": " separators: perfbench's report digest strips
    the text '"wall_time_s": <value>', colon and space included.
    """
    if fmt not in ("json", "csv"):
        raise ConfigError("format", f"unknown format {fmt!r}; expected 'json' or 'csv'")
    out = {}
    if fmt == "csv":
        for curve in report.get("curves", []):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["x", "lower", "mid", "upper"])
            for row in curve["rows"]:
                writer.writerow([repr(v) for v in row])
            out[f"{curve['label']}.csv"] = buf.getvalue().encode()
    out["report.json"] = json.dumps(report, sort_keys=True).encode() + b"\n"
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dirspace", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=Path, default=None, help="JSON config file")
        cmd.add_argument("--out", type=Path, default=None, help="output directory")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        cmd.add_argument("--seed-override", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as handle:
                config = json.load(handle)
            if not isinstance(config, dict):
                raise ConfigError("", "top-level config must be a JSON object")
        elif args.command == "demo":
            config = {}
        else:
            raise ConfigError("", "--config FILE is required for this command")
        config = dict(config)
        config["command"] = args.command
        if args.seed_override is not None:
            config["seed"] = args.seed_override
        report = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # JSONDecodeError subclasses ValueError, so it must be caught first
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: precondition failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2

    payload = serialize(report, args.format)
    if args.out is None and args.format == "json":
        sys.stdout.write(payload["report.json"].decode())
    else:
        out_dir = args.out or Path(".")
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, data in payload.items():
                (out_dir / name).write_bytes(data)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(payload)} file(s) to {out_dir}", file=sys.stderr)

    if args.command == "demo":
        for check in report["results"]["checks"]:
            status = "PASS" if check["pass"] else "FAIL"
            print(f"[{status}] {check['preset']}: {check['detail']}", file=sys.stderr)
        if not report["results"]["all_pass"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
